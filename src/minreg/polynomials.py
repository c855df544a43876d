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
package does with a polynomial is integer arithmetic on them.  Fractions
appear only where text comes in (parse_coefficients,
polynomial_from_coefficients) and where it goes out (__str__, one per
printed coefficient).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, zip_longest

from .errors import LinearVariety, NotAdmissible, ParseError


def _trim(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _horner(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _gotzmann_runs(coordinates):
    """Runs ((degree, count), ...) of the Gotzmann writing, degree descending.

    Raises NotAdmissible when no writing exists.  The top run has a_d
    summands.  Its summands C(z + d - s, d), s = position, ...,
    position + count - 1, have the coordinate (-1)^m C(s, m) on B_(d-m),
    which sum to (-1)^m [C(position + count, m + 1) - C(position, m + 1)].
    """
    runs = []
    position = 0
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
        for m in range(min(d, position + count - 1) + 1):
            rest[d - m] -= (-1) ** m * (math.comb(position + count, m + 1)
                                        - math.comb(position, m + 1))
        runs.append((d, count))
        position += count
        rest = list(_trim(rest))
    return tuple(runs)


@dataclass(frozen=True)
class AdmissiblePolynomial:
    """A Hilbert polynomial, held by its integer coordinates in the basis
    C(z + k, k), k = 0..degree.  A trusted record: the builders here yield
    admissible polynomials, and outside input comes in through
    polynomial_from_coefficients, which checks it."""

    coordinates: tuple

    @cached_property
    def runs(self):
        return _gotzmann_runs(self.coordinates)

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

    def derivative(self):
        """First difference p(z) - p(z - 1); None when p is constant."""
        if self.degree == 0:
            return None
        return AdmissiblePolynomial(self.coordinates[1:])

    def at_least_from(self, other, start: int) -> bool:
        """True when p(t) >= other(t) at every integer t >= start; other
        None is the zero polynomial.

        Scans s = start, start + 1, ... on r = p - other.  r(z + s) has
        the coordinate sum_m C(s + m - 1, m) c_(j+m) on B_j, and the
        step to s + 1 replaces each coordinate by the sum of those at or
        above it.  The scan stops with False at a negative value r(s),
        the sum of the coordinates, and with True once no coordinate is
        negative, as then r(s + u) >= 0 for every u >= 0.  With a positive
        top coordinate every coordinate eventually turns positive, so the
        scan ends; with a negative one r ends negative.
        """
        theirs = other.coordinates if other is not None else ()
        r = _trim(a - b for a, b in zip_longest(self.coordinates, theirs,
                                                fillvalue=0))
        if not r:
            return True
        if r[-1] < 0:
            return False
        c = [sum((math.comb(start + m - 1, m) if m else 1) * r[j + m]
                 for m in range(len(r) - j))
             for j in range(len(r))]
        while min(c) < 0:
            if sum(c) < 0:
                return False
            c = list(accumulate(reversed(c)))[::-1]
        return True

    def __str__(self):
        """The monomial coefficients of d! p, summed as integers: d!
        C(z + k, k) is d!/k! times the product of z + 1, ..., z + k."""
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
            if numerators[exp] == 0:
                continue
            c = Fraction(numerators[exp], scale)
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                var = "z" if exp == 1 else "z^%d" % exp
                body = var if mag == 1 else "%s%s" % (mag, var)
            parts.append(sign + body)
        return "".join(parts) if parts else "0"

    def __repr__(self):
        return "AdmissiblePolynomial(%r)" % str(self)


def quotient_tail(classes, nvars: int):
    """Hilbert polynomial of the quotient of K[x0, ..., xn], n + 1 =
    nvars, by a strongly stable ideal with classes[(i, d)] minimal
    generators of degree d and least variable x_i (x_n for the unit):

        C(z + n, n) - sum classes[(i, d)] C(z + i - d, i),

    where C(z + i - d, i) has the coordinate (-1)^m C(d, m) on B_(i-m).
    A degree-s slice with growth vector g is classes[(i, s)] = g[i].
    None when it is the zero polynomial.
    """
    coordinates = [0] * (nvars - 1) + [1]
    for (i, d), size in classes.items():
        for m in range(min(i, d) + 1):
            coordinates[i - m] -= (-1) ** m * size * math.comb(d, m)
    coordinates = _trim(coordinates)
    return AdmissiblePolynomial(coordinates) if coordinates else None


def slice_growth(p, degree: int, nvars: int):
    """The growth vector of a degree-s slice, s = degree, in nvars
    variables whose ideal has quotient_tail p (None the zero
    polynomial).  Class i reaches the coordinates on B_0..B_i only, with
    1 on B_i, so the sizes are solved from the top coordinate down.
    """
    coordinates = p.coordinates if p is not None else ()
    growth = [0] * nvars
    for j in range(nvars - 1, -1, -1):
        size = (j == nvars - 1) - (coordinates[j] if j < len(coordinates)
                                   else 0)
        for i in range(j + 1, nvars):
            size -= (-1) ** (i - j) * growth[i] * math.comb(degree, i - j)
        growth[j] = size
    return tuple(growth)


# ---------------------------------------------------------------------------
# parsing


_TERM_RE = re.compile(r"^([+-]?)(\d+(?:/\d+)?)?(z(\^(\d+))?)?$")


def parse_coefficients(text: str):
    """Ascending coefficient tuple from polynomial text.

    Accepts sums of terms like `2z^3-6z^2+29z-20` and `1/3z^3+14/3z-4`,
    or a bracketed list `[c_k,...,c_0]` with the leading coefficient first.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty polynomial")
    if s.startswith("["):
        return _parse_bracket_list(s)
    pieces = re.findall(r"[+-]?[^+-]+", s)
    if "".join(pieces) != s:
        raise ParseError("cannot tokenize polynomial %r" % text)
    coeffs = {}
    for piece in pieces:
        m = _TERM_RE.match(piece)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ParseError("bad term %r in %r" % (piece, text))
        sign = -1 if m.group(1) == "-" else 1
        try:
            coef = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        except ZeroDivisionError as exc:
            raise ParseError("zero denominator in %r" % text) from exc
        exp = 0 if m.group(3) is None else (int(m.group(5)) if m.group(5) else 1)
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coef
    top = max(coeffs)
    return _trim(tuple(coeffs.get(i, Fraction(0)) for i in range(top + 1)))


def _parse_bracket_list(s: str):
    if not s.endswith("]"):
        raise ParseError("unterminated coefficient list %r" % s)
    inner = s[1:-1]
    if not inner:
        raise ParseError("empty coefficient list")
    try:
        entries = [Fraction(tok) for tok in inner.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("bad coefficient list %r" % s) from exc
    return _trim(tuple(reversed(entries)))


def polynomial_from_coefficients(coeffs) -> AdmissiblePolynomial:
    """Admissible polynomial from ascending rational coefficients, with
    any Gotzmann number >= 1.

    Takes the coordinates a_k = (nabla^k p)(-1) from the values at -1,
    ..., -(d + 1).  NotAdmissible for the zero polynomial, a polynomial
    that is not integer valued, or one without a Gotzmann writing.
    """
    coeffs = _trim(Fraction(c) for c in coeffs)
    if not coeffs:
        raise NotAdmissible("the zero polynomial has no gotzmann writing")
    level = [_horner(coeffs, -1 - j) for j in range(len(coeffs))]
    coordinates = []
    while level:
        coordinates.append(level[0])
        level = [a - b for a, b in zip(level, level[1:])]
    if any(a.denominator != 1 for a in coordinates):
        t = next(t for t in range(len(coeffs))
                 if _horner(coeffs, t).denominator != 1)
        raise NotAdmissible("not integer valued at z = %d" % t)
    p = AdmissiblePolynomial(tuple(int(a) for a in coordinates))
    p.runs  # raises NotAdmissible when there is no Gotzmann writing
    return p


def parse_tail(text: str):
    """Polynomial from text, None for the zero polynomial; tolerates any
    Gotzmann number >= 1, as the tail of a Hilbert function may."""
    coeffs = parse_coefficients(text)
    return polynomial_from_coefficients(coeffs) if coeffs else None


def parse_polynomial(text: str) -> AdmissiblePolynomial:
    """Parse user input into an admissible Hilbert polynomial.

    Raises ParseError on bad syntax, NotAdmissible when the polynomial is
    not a Hilbert polynomial, and LinearVariety when the Gotzmann number
    is below 2 (points, lines and larger linear spaces are out of scope).
    """
    coeffs = parse_coefficients(text)
    if not coeffs:
        raise NotAdmissible("the zero polynomial is not a Hilbert polynomial here")
    p = polynomial_from_coefficients(coeffs)
    if p.gotzmann_number < 2:
        raise LinearVariety(
            "%s is the Hilbert polynomial of a linear variety; its regularity is 0" % p)
    return p
