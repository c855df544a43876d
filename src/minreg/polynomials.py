"""Admissible Hilbert polynomials and their Gotzmann decomposition.

A univariate polynomial with rational coefficients is admissible when it
is the Hilbert polynomial of some closed subscheme of a projective space,
which happens exactly when it has a (unique) Gotzmann writing

    p(z) = sum_{i=1..r} C(z + k_i - (i - 1), k_i),   k_1 >= k_2 >= ... >= k_r >= 0.

The number r of summands is the Gotzmann number of p.  Summands of equal
degree form runs, and the decomposition is computed one run at a time with
a hockey-stick closed form, so the cost depends on the degree and never on r.

A polynomial is held by its coordinates a_0, ..., a_d in the basis
B_k(z) = C(z + k, k).  As B_k(z) - B_k(z - 1) = B_(k-1) and B_k(-1) = 0
for k >= 1, a_k = (nabla^k p)(-1), nabla the backward difference: p is
integer valued iff its coordinates are integers, and everything the
package does with a polynomial is integer arithmetic on them.  The zero
polynomial is ZERO, the empty writing (r = 0, no coordinates): it is the
tail of an Artinian quotient's Hilbert function and the derivative of a
constant, so derivative() always returns a polynomial.  Text is integer
arithmetic too, one route each way: the parser reads monomial numerators
over a common denominator and takes the coordinates from their values at
-1, ..., -(d + 1) by Horner's rule and differences, and the one printer
reduces the monomial numerators of d! p over d!.  Fraction is imported
only inside the two readers outside the term grammar: the bracket list
`[c_k,...,c_0]`, whose entries take Fraction's grammar (`1.5`, `2e1`),
and a library coefficient with no numerator and denominator, such as a
float.

parse_tail is the one cached reader of text: a session parses each text
once, and parse_polynomial, every Hilbert function's tail and every
certificate share its record, which is therefore never to be changed.
"""

from __future__ import annotations

import math
import re
import sys
from functools import lru_cache
from itertools import accumulate, zip_longest

from .errors import LinearVariety, NotAdmissible, ParseError


def _trim(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _gotzmann_runs(coordinates):
    """Runs ((degree, count), ...) of the Gotzmann writing, degree descending.

    Raises NotAdmissible when no writing exists.  The top run has a_d
    summands.  Its summands C(z + d - s, d), s = position, ...,
    position + count - 1, have the coordinate (-1)^m C(s, m) on B_(d-m),
    which sum to (-1)^m [C(position + count, m + 1) - C(position, m + 1)].
    """
    runs, position = [], 0
    rest = list(coordinates)
    while rest:
        d = len(rest) - 1
        count = rest[d]
        if count <= 0:
            if d == 0:
                raise NotAdmissible(
                    "constant remainder %d is not a positive integer" % count)
            raise NotAdmissible(
                "degree %d needs a positive integer number of summands,"
                " got %d" % (d, count))
        for m in range(1, min(d, position + count - 1) + 1):
            rest[d - m] -= (-1) ** m * (math.comb(position + count, m + 1)
                                        - math.comb(position, m + 1))
        runs.append((d, count))
        position += count
        del rest[-1]  # the term m = 0 clears it
        while rest and not rest[-1]:
            rest.pop()
    return tuple(runs)


class AdmissiblePolynomial:
    """A Hilbert polynomial, held by its integer coordinates in the basis
    C(z + k, k), k = 0..degree.  A trusted record: the builders here yield
    admissible polynomials, and outside input comes in through
    polynomial_from_coefficients, which checks it.  It keeps its runs,
    text and derivative once built."""

    __slots__ = ("coordinates", "_runs", "_text", "_derivative")

    def __init__(self, coordinates: tuple):
        self.coordinates = coordinates
        self._runs = self._text = self._derivative = None

    def __eq__(self, other):
        if type(other) is not AdmissiblePolynomial:
            return NotImplemented
        return self.coordinates == other.coordinates

    def __hash__(self):
        return hash(self.coordinates)

    @property
    def runs(self):
        if self._runs is None:
            self._runs = _gotzmann_runs(self.coordinates)
        return self._runs

    @property
    def degree(self) -> int:
        return len(self.coordinates) - 1

    @property
    def gotzmann_number(self) -> int:
        return sum(count for _, count in self.runs)

    def __call__(self, t: int) -> int:
        """p(t) = sum_k a_k C(t + k, k), the binomial taken as a polynomial
        in t, built up by C(t + k, k) = C(t + k - 1, k - 1) (t + k) / k."""
        value, basis = 0, 1
        for k, a in enumerate(self.coordinates):
            if k:
                basis = basis * (t + k) // k
            value += a * basis
        return value

    def derivative(self) -> AdmissiblePolynomial:
        """First difference p(z) - p(z - 1): ZERO for a constant and
        for ZERO; kept once built."""
        if self._derivative is None:
            self._derivative = AdmissiblePolynomial(self.coordinates[1:])
        return self._derivative

    def at_least_from(self, other: AdmissiblePolynomial, start: int) -> bool:
        """True when p(t) >= other(t) at every integer t >= start >= 0.

        Scans s = start, start + 1, ... on r = p - other.  r(z + s) has
        the coordinate sum_m C(s + m - 1, m) c_(j+m) on B_j, one row of
        binomials built by C(s + m - 1, m) = C(s + m - 2, m - 1)
        (s + m - 1) / m, and the step to s + 1 replaces each coordinate
        by the sum of those at or above it.  The scan stops with False at
        a negative value r(s), the sum of the coordinates, and with True
        once no coordinate is negative, as then r(s + u) >= 0 for every
        u >= 0.  With a positive top coordinate every coordinate
        eventually turns positive, so the scan ends; with a negative one
        r ends negative.
        """
        r = _trim(a - b for a, b in zip_longest(self.coordinates,
                                                other.coordinates,
                                                fillvalue=0))
        if not r:
            return True
        if r[-1] < 0:
            return False
        row = [1]
        for m in range(1, len(r)):
            row.append(row[-1] * (start + m - 1) // m)
        c = [sum(b * a for b, a in zip(row, r[j:])) for j in range(len(r))]
        while min(c) < 0:
            if sum(c) < 0:
                return False
            c = list(accumulate(reversed(c)))[::-1]
        return True

    def __str__(self):
        """Each monomial coefficient of d! p over d! in lowest terms, kept
        once printed (d! C(z + k, k) is d!/k! times the product of
        z + 1, ..., z + k)."""
        if self._text is not None:
            return self._text
        scale = math.factorial(max(self.degree, 0))
        numerators = [0] * len(self.coordinates)
        product = [1]
        for k, a in enumerate(self.coordinates):
            if k:
                product = [k * c + b
                           for c, b in zip(product + [0], [0] + product)]
            if a:
                weight = a * (scale // math.factorial(k))
                for exp, c in enumerate(product):
                    numerators[exp] += weight * c
        parts = []
        for exp in range(self.degree, -1, -1):
            n = numerators[exp]
            if n == 0:
                continue
            g = math.gcd(n, scale)
            num, den = abs(n) // g, scale // g
            mag = "%d" % num if den == 1 else "%d/%d" % (num, den)
            sign = "-" if n < 0 else ("+" if parts else "")
            var = "" if exp == 0 else "z" if exp == 1 else "z^%d" % exp
            parts.append(sign + (var if var and mag == "1" else mag + var))
        self._text = "".join(parts) if parts else "0"
        return self._text

    def __repr__(self):
        return "AdmissiblePolynomial(%r)" % str(self)


ZERO = AdmissiblePolynomial(())


def quotient_tail(classes, nvars: int):
    """Hilbert polynomial of the quotient of K[x0, ..., xn], n + 1 =
    nvars, by a strongly stable ideal with classes[(i, d)] minimal
    generators of degree d and least variable x_i (x_n for the unit):

        C(z + n, n) - sum classes[(i, d)] C(z + i - d, i),

    where C(z + i - d, i) has the coordinate (-1)^m C(d, m) on B_(i-m).
    A degree-s slice with growth vector g is classes[(i, s)] = g[i].
    """
    coordinates = [0] * (nvars - 1) + [1]
    for (i, d), size in classes.items():
        for m in range(min(i, d) + 1):
            coordinates[i - m] -= (-1) ** m * size * math.comb(d, m)
    return AdmissiblePolynomial(_trim(coordinates))


def slice_growth(p, degree: int, nvars: int):
    """The growth vector of a degree-s slice, s = degree, in nvars
    variables whose ideal has quotient_tail p.  Class i reaches the
    coordinates on B_0..B_i only, with 1 on B_i, so the sizes are solved
    from the top coordinate down.
    """
    growth = [0] * nvars
    for j in range(nvars - 1, -1, -1):
        size = (j == nvars - 1) - (p.coordinates[j] if j <= p.degree else 0)
        for i in range(j + 1, nvars):
            size -= (-1) ** (i - j) * growth[i] * math.comb(degree, i - j)
        growth[j] = size
    return tuple(growth)


# ---------------------------------------------------------------------------
# parsing


_PIECE_RE = re.compile(r"[+-]?[^+-]+")
_TERM_RE = re.compile(r"^([+-]?)(?:(\d+)(?:/(\d+))?)?(z(?:\^(\d+))?)?$")


def parse_coefficients(text: str):
    """Polynomial text as (numerators, scale): the ascending monomial
    coefficients are numerators[i] / scale, all integers, and numerators
    is () for the zero polynomial.

    Accepts sums of terms like `2z^3-6z^2+29z-20` and `1/3z^3+14/3z-4`,
    or a bracketed list `[c_k,...,c_0]` with the leading coefficient first.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty polynomial")
    if s.startswith("["):
        return _parse_bracket_list(s)
    pieces = _PIECE_RE.findall(s)
    if "".join(pieces) != s:
        raise ParseError("cannot tokenize polynomial %r" % text)
    terms = []
    for piece in pieces:
        m = _TERM_RE.match(piece)
        if not m or (m.group(2) is None and m.group(4) is None):
            raise ParseError("bad term %r in %r" % (piece, text))
        sign, num, den, var, exp = m.groups()
        try:
            num = int(num) if num else 1
            den = int(den) if den else 1
            exp = 0 if var is None else (int(exp) if exp else 1)
        except ValueError:  # more digits than int() converts
            raise ParseError("term %r has more digits than Python converts"
                             % piece) from None
        if den == 0:
            raise ParseError("zero denominator in %r" % text)
        terms.append((-num if sign == "-" else num, den, exp))
    return _over_common_denominator(terms)


def _over_common_denominator(terms):
    """(numerators, scale) of a sum of terms num/den z^exp, with scale
    the lcm of the denominators."""
    scale = math.lcm(*(den for _, den, _ in terms))
    numerators = [0] * (max((exp for _, _, exp in terms), default=-1) + 1)
    for num, den, exp in terms:
        numerators[exp] += num * (scale // den)
    return _trim(numerators), scale


def _parse_bracket_list(s: str):
    """Each entry is read by Fraction, whose grammar (decimals, exponents,
    underscores) the list has always taken."""
    from fractions import Fraction

    if not s.endswith("]"):
        raise ParseError("unterminated coefficient list %r" % s)
    inner = s[1:-1]
    if not inner:
        raise ParseError("empty coefficient list")
    tokens = inner.split(",")
    terms = []
    try:
        for i, tok in enumerate(tokens):
            c = Fraction(tok)
            terms.append((c.numerator, c.denominator, len(tokens) - 1 - i))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad coefficient list %r" % s) from exc
    return _over_common_denominator(terms)


def polynomial_from_coefficients(coeffs) -> AdmissiblePolynomial:
    """Admissible polynomial from ascending rational coefficients, with
    any Gotzmann number >= 1.

    Each coefficient is an int, a Fraction or any other number with
    integer numerator and denominator; anything else, such as a float or
    a string like "3/2", is read by Fraction(c), whose TypeError or
    ValueError passes through.  NotAdmissible for the zero polynomial,
    a polynomial that is not integer valued, or one without a Gotzmann
    writing.
    """
    terms = []
    for exp, c in enumerate(coeffs):
        if not hasattr(c, "denominator"):
            from fractions import Fraction
            c = Fraction(c)
        terms.append((int(c.numerator), int(c.denominator), exp))
    return _from_numerators(*_over_common_denominator(terms))


def _value(numerators, x: int) -> int:
    """sum_i numerators[i] x^i, by Horner's rule."""
    value = 0
    for c in reversed(numerators):
        value = value * x + c
    return value


def _from_numerators(numerators, scale: int) -> AdmissiblePolynomial:
    """The polynomial with monomial coefficients numerators[i] / scale.

    L a_k, L = scale, are the differences nabla^k (L p) at -1 of the
    integer values L p(-1), ..., L p(-(d + 1)), so p is integer valued
    iff L divides each of them; otherwise the first t >= 0 with L p(t)
    not divisible by L, at most d, is named.
    """
    if not numerators:
        raise NotAdmissible("the zero polynomial has no gotzmann writing")
    level = [_value(numerators, x)
             for x in range(-1, -len(numerators) - 1, -1)]
    scaled = []
    while level:
        scaled.append(level[0])
        level = [a - b for a, b in zip(level, level[1:])]
    if scale != 1 and any(a % scale for a in scaled):
        t = next(t for t in range(len(numerators))
                 if _value(numerators, t) % scale)
        raise NotAdmissible("not integer valued at z = %d" % t)
    p = AdmissiblePolynomial(tuple(a // scale for a in scaled))
    p.runs  # raises NotAdmissible when there is no Gotzmann writing
    return p


_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


@lru_cache(maxsize=256)
def _read_tail(text: str, digit_limit: int) -> AdmissiblePolynomial:
    """parse_tail's cache; digit_limit only completes the key."""
    numerators, scale = parse_coefficients(text)
    return _from_numerators(numerators, scale) if numerators else ZERO


def parse_tail(text: str) -> AdmissiblePolynomial:
    """Polynomial from text, ZERO included; tolerates any Gotzmann
    number, as the tail of a Hilbert function may.

    The one reader of polynomial text: a session parses each text once,
    and every later call, parse_polynomial's and each Hilbert function's
    tail included, returns the same record with the runs, text and
    derivatives it has kept.  A refused text is not kept, so it raises
    the same error on every call; the key holds the int-digit limit in
    force, so a numeral past it is refused on every call.

    The cache holds the last 256 texts.  An entry keeps its text and its
    record, with whatever runs, derivatives and texts the record has
    built: about 1 KB for a cubic.  The P^300 quadric's 239 KB text
    keeps 0.7 MB with its derivative chain, and 23 MB once every
    derivative has printed its text (tracemalloc, text included); the
    parse keeps nothing outside the entry.  256 such entries would keep
    about 6 GB, as min_regularity's unbounded cache of reports, keyed
    on the same records, already does."""
    return _read_tail(text, _digit_limit())


parse_tail.cache_info = _read_tail.cache_info
parse_tail.cache_clear = _read_tail.cache_clear


def parse_polynomial(text: str) -> AdmissiblePolynomial:
    """Parse user input into an admissible Hilbert polynomial.

    Raises ParseError on bad syntax, NotAdmissible when the polynomial is
    not a Hilbert polynomial, and LinearVariety when the Gotzmann number
    is below 2 (points, lines and larger linear spaces are out of scope).
    The record is parse_tail's, shared by every caller of the same text.
    """
    p = parse_tail(text)
    if p is ZERO:
        raise NotAdmissible("the zero polynomial is not a Hilbert polynomial here")
    if p.gotzmann_number < 2:
        raise LinearVariety(
            "%s is the Hilbert polynomial of a linear variety; its regularity is 0" % p)
    return p
