"""Admissible Hilbert polynomials and their Gotzmann decomposition.

A univariate polynomial with rational coefficients is admissible when it
is the Hilbert polynomial of some closed subscheme of a projective space,
which happens exactly when it has a (unique) Gotzmann writing

    p(z) = sum_{i=1..r} C(z + k_i - (i - 1), k_i),   k_1 >= k_2 >= ... >= k_r >= 0.

The number r of summands is the Gotzmann number of p.  Summands of equal
degree form runs, and the decomposition is computed one run at a time with
a hockey-stick closed form, so the cost depends on the degree and never on r.

Coefficient vectors are tuples of Fractions in ascending order of degree.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import InternalInconsistency, LinearVariety, NotAdmissible, ParseError


# ---------------------------------------------------------------------------
# coefficient vector helpers


def _trim(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a, b):
    n = max(len(a), len(b))
    return _trim(tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)))


def poly_sub(a, b):
    n = max(len(a), len(b))
    return _trim(tuple(
        (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
        for i in range(n)))


def poly_scale(a, c):
    c = Fraction(c)
    return _trim(tuple(c * x for x in a))


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(tuple(out))


def poly_eval(coeffs, x):
    acc = Fraction(0)
    x = Fraction(x)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_shift_arg(coeffs, s):
    """Coefficients of p(z + s)."""
    result = ()
    basis = (Fraction(1),)
    step = (Fraction(s), Fraction(1))
    for c in coeffs:
        result = poly_add(result, poly_scale(basis, c))
        basis = poly_mul(basis, step)
    return result


@lru_cache(maxsize=None)
def binomial_coeffs(k: int, shift: int):
    """Coefficients of C(z + shift, k) as a polynomial in z: the integer
    product of the factors z + shift - i, divided by k! once."""
    coeffs = [1]
    for i in range(k):
        coeffs = [(shift - i) * a + b
                  for a, b in zip(coeffs + [0], [0] + coeffs)]
    scale = math.factorial(k)
    return tuple(Fraction(c, scale) for c in coeffs)


def poly_nonnegative_from(coeffs, start: int) -> bool:
    """True iff the polynomial takes values >= 0 at every integer >= start.

    Scans upward from start.  At each point the Newton certificate is
    tried: when every iterated forward difference at t is >= 0 the
    polynomial is a nonnegative combination of C(z - t, k) from t on and
    the scan can stop.  A Cauchy root bound on all the difference
    polynomials caps the scan; passing the cap without a verdict would be
    a bug.
    """
    if not coeffs:
        return True
    if coeffs[-1] < 0:
        return False
    bound = start
    q = tuple(coeffs)
    while q:
        if q[-1] <= 0:
            raise InternalInconsistency("forward difference lost its positive lead")
        bound = max(bound, start + 2 + int(max(abs(c) for c in q) / q[-1]))
        q = poly_sub(poly_shift_arg(q, 1), q)
    d = len(coeffs) - 1
    t = start
    while t <= bound:
        level = [poly_eval(coeffs, t + i) for i in range(d + 1)]
        if level[0] < 0:
            return False
        certified = True
        while len(level) > 1:
            level = [level[i + 1] - level[i] for i in range(len(level) - 1)]
            if level[0] < 0:
                certified = False
                break
        if certified:
            return True
        t += 1
    raise InternalInconsistency("nonnegativity scan passed its root bound undecided")


# ---------------------------------------------------------------------------
# Gotzmann decomposition


def _gotzmann_runs(coeffs):
    """Runs ((degree, count), ...) of the Gotzmann writing, degree descending.

    Raises NotAdmissible when no writing exists.  Each run of count
    consecutive summands of equal degree k starting after `position`
    earlier summands contributes the closed form

        C(z + k - position + 1, k + 1) - C(z + k - position + 1 - count, k + 1).
    """
    runs = []
    position = 0
    remainder = _trim(coeffs)
    while remainder:
        d = len(remainder) - 1
        lead = remainder[-1]
        if d == 0:
            if lead.denominator != 1 or lead <= 0:
                raise NotAdmissible("constant remainder %s is not a positive integer" % lead)
            runs.append((0, int(lead)))
            break
        count = lead * math.factorial(d)
        if count.denominator != 1 or count <= 0:
            raise NotAdmissible(
                "degree %d needs a positive integer number of summands, got %s" % (d, count))
        count = int(count)
        shift = d - position + 1
        block = poly_sub(binomial_coeffs(d + 1, shift),
                         binomial_coeffs(d + 1, shift - count))
        remainder = poly_sub(remainder, block)
        if remainder and len(remainder) - 1 >= d:
            raise InternalInconsistency("gotzmann block failed to lower the degree")
        runs.append((d, count))
        position += count
    return tuple(runs)


@dataclass(frozen=True)
class AdmissiblePolynomial:
    """A Hilbert polynomial, stored as ascending Fraction coefficients.

    Construction fails with NotAdmissible when the polynomial has no
    Gotzmann writing.  The zero polynomial is rejected.
    """

    coefficients: tuple
    runs: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coeffs = _trim(tuple(Fraction(c) for c in self.coefficients))
        if not coeffs:
            raise NotAdmissible("the zero polynomial has no gotzmann writing")
        for t in range(len(coeffs)):
            if poly_eval(coeffs, t).denominator != 1:
                raise NotAdmissible("not integer valued at z = %d" % t)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "runs", _gotzmann_runs(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def gotzmann_number(self) -> int:
        return sum(count for _, count in self.runs)

    def __call__(self, z):
        value = poly_eval(self.coefficients, z)
        if value.denominator == 1:
            return int(value)
        return value

    def derivative(self):
        """First difference p(z) - p(z - 1); None when p is constant."""
        if self.degree == 0:
            return None
        return AdmissiblePolynomial(
            poly_sub(self.coefficients, poly_shift_arg(self.coefficients, -1)))

    def __str__(self):
        parts = []
        for exp in range(self.degree, -1, -1):
            c = self.coefficients[exp] if exp < len(self.coefficients) else Fraction(0)
            if c == 0:
                continue
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
    """Admissible polynomial from ascending coefficients.

    Tolerates any Gotzmann number >= 1; reserved for internal callers that
    handle difference polynomials and degenerate tails.
    """
    return AdmissiblePolynomial(tuple(coeffs))


def parse_polynomial(text: str) -> AdmissiblePolynomial:
    """Parse user input into an admissible Hilbert polynomial.

    Raises ParseError on bad syntax, NotAdmissible when the polynomial is
    not a Hilbert polynomial, and LinearVariety when the Gotzmann number
    is below 2 (points, lines and larger linear spaces are out of scope).
    """
    coeffs = parse_coefficients(text)
    if not coeffs:
        raise NotAdmissible("the zero polynomial is not a Hilbert polynomial here")
    p = AdmissiblePolynomial(coeffs)
    if p.gotzmann_number < 2:
        raise LinearVariety(
            "%s is the Hilbert polynomial of a linear variety; its regularity is 0" % p)
    return p
