"""Independent arithmetic for checking minreg's answers.

Nothing here imports minreg.  Polynomials are dicts turned into tuples of
Fractions in ascending degree, Hilbert functions are (prefix, tail) pairs,
and monomial ideals are lists of exponent tuples.  The algorithms are
chosen to differ from the program's where that is cheap: Gotzmann
writings are peeled with finite differences instead of coefficient
blocks, and quotient dimensions come from a walk over standard monomials
with divisibility tests only.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


# ---------------------------------------------------------------------------
# polynomials


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(z(?:\^(\d+))?)?")


def parse_poly(text: str) -> tuple:
    """Ascending Fraction coefficients of text like `1/3z^3+2z^2-4`."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    coeffs = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos or (m.group(2) is None
                                       and m.group(3) is None):
            raise ValueError("bad polynomial %r" % text)
        c = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(1) == "-":
            c = -c
        e = 0 if m.group(3) is None else int(m.group(4) or 1)
        coeffs[e] = coeffs.get(e, 0) + c
        pos = m.end()
    top = max(coeffs)
    out = [Fraction(coeffs.get(i, 0)) for i in range(top + 1)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_value(coeffs, z) -> Fraction:
    return sum((c * Fraction(z) ** i for i, c in enumerate(coeffs)),
               Fraction(0))


def poly_degree(coeffs) -> int:
    return len(coeffs) - 1


def gbinom(x: int, k: int) -> Fraction:
    """C(x, k) as a polynomial in x, valid for every integer x."""
    num = 1
    for i in range(k):
        num *= x - i
    return Fraction(num, math.factorial(k))


def cbinom(n: int, k: int) -> int:
    """C(n, k) with the vanishing convention used by Macaulay expansions."""
    return math.comb(n, k) if 0 <= k <= n else 0


# ---------------------------------------------------------------------------
# Gotzmann writings, as runs ((k, count), ...) with k strictly descending


def runs_value(runs, z) -> Fraction:
    """Value at z of sum_i C(z + k_i - (i - 1), k_i), summed run by run
    with the hockey-stick identity."""
    total = Fraction(0)
    position = 0
    for k, count in runs:
        x = z + k - position + 1
        total += gbinom(x, k + 1) - gbinom(x - count, k + 1)
        position += count
    return total


def runs_from_writing(writing) -> tuple:
    runs = []
    for k in writing:
        if runs and runs[-1][0] == k:
            runs[-1][1] += 1
        else:
            runs.append([k, 1])
    return tuple((k, c) for k, c in runs)


def gotzmann_runs(coeffs) -> tuple:
    """The Gotzmann writing of p as runs, peeled degree by degree: the
    d-th finite difference of the remainder counts its degree-d summands.
    ValueError when p has no writing."""
    d = poly_degree(coeffs)
    if d < 0:
        raise ValueError("zero polynomial")
    runs = []

    def remainder(z):
        return poly_value(coeffs, z) - runs_value(runs, z)

    for k in range(d, -1, -1):
        count = sum((-1) ** (k - i) * math.comb(k, i) * remainder(i)
                    for i in range(k + 1))
        if count.denominator != 1 or count < 0 or (k == d and count == 0):
            raise ValueError("no Gotzmann writing")
        if count:
            runs.append((k, int(count)))
    if any(remainder(z) != 0 for z in range(d + 2)):
        raise ValueError("no Gotzmann writing")
    return tuple(runs)


def gotzmann_number(runs) -> int:
    return sum(count for _, count in runs)


def rebuilds(runs, coeffs) -> bool:
    """True when the writing sums to the polynomial."""
    d = max(poly_degree(coeffs), max((k for k, _ in runs), default=0))
    return all(runs_value(runs, z) == poly_value(coeffs, z)
               for z in range(d + 2))


# ---------------------------------------------------------------------------
# Hilbert functions: (prefix tuple of ints, tail coefficients or ())


def parse_function(text: str):
    left, sep, right = text.partition(";")
    if not sep:
        raise ValueError("no `;` in %r" % text)
    left = left.strip()
    prefix = tuple(int(v) for v in left.split(",")) if left else ()
    right = right.strip()
    tail = () if right == "0" else parse_poly(right)
    return prefix, tail


def fvalue(h, t: int) -> int:
    prefix, tail = h
    if t < 0:
        return 0
    if t < len(prefix):
        return prefix[t]
    value = poly_value(tail, t)
    if value.denominator != 1:
        raise ValueError("tail is not integer valued at %d" % t)
    return int(value)


def regularity_of(h) -> int:
    """First point from which h agrees with its tail."""
    prefix, tail = h
    reg = len(prefix)
    while reg > 0 and prefix[reg - 1] == poly_value(tail, reg - 1):
        reg -= 1
    return reg


def difference(h, horizon: int):
    """First difference of h, as a (prefix, tail) pair over 0..horizon."""
    prefix = tuple(fvalue(h, t) - fvalue(h, t - 1) for t in range(horizon))
    tail = h[1]
    if tail:
        d = poly_degree(tail)
        pts = [(z, poly_value(tail, z) - poly_value(tail, z - 1))
               for z in range(d + 1)]
        tail = interpolate(pts)
    return prefix, tail


def interpolate(points) -> tuple:
    """Ascending coefficients through (x, y) points (Lagrange form)."""
    n = len(points)
    out = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for a in range(len(basis) - 1):
                basis[a] -= xj * basis[a + 1]
            denom *= xi - xj
        for a in range(n):
            out[a] += Fraction(yi) * basis[a] / denom
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def macaulay_bound(a: int, t: int) -> int:
    """a^<t>: write a = sum C(k_i, i) greedily from i = t down, then add
    one to every top and index."""
    if a <= 0:
        return 0
    total = 0
    i = t
    while a > 0 and i >= 1:
        k = i
        while cbinom(k + 1, i) <= a:
            k += 1
        a -= cbinom(k, i)
        total += cbinom(k + 1, i + 1)
        i -= 1
    return total


def macaulay_ok(h, horizon: int) -> bool:
    """h(0) = 1, values stay >= 0, and h(t+1) <= h(t)^<t> for 1 <= t <
    horizon."""
    if fvalue(h, 0) != 1:
        return False
    values = [fvalue(h, t) for t in range(horizon + 1)]
    if min(values) < 0:
        return False
    return all(values[t + 1] <= macaulay_bound(values[t], t)
               for t in range(1, horizon))


def _least_preimage(a: int, t: int) -> int:
    """Least b >= 0 with b^<t> >= a; b <= a since b^<t> >= b."""
    lo, hi = 0, max(a, 0)
    while lo < hi:
        mid = (lo + hi) // 2
        if macaulay_bound(mid, t) >= a:
            hi = mid
        else:
            lo = mid + 1
    return lo


def scheme_class_nonempty(coeffs, rho: int) -> bool:
    """Whether some scheme with Hilbert polynomial p has a Hilbert function
    of regularity exactly rho.

    By Macaulay's theorem such functions are the partial sums H of
    O-sequences G (G(0) = 1, G(t+1) <= G(t)^<t> for t >= 1) with
    H(t) = p(t) from rho on and H(rho-1) != p(rho-1).  So G(t) = dp(t)
    for t > rho, and G(rho) = g != dp(rho) with dp(rho+1) <= g^<rho>.
    For rho >= 2, raising G(1) keeps an O-sequence, so the sums an
    O-sequence ending at g reaches are all those from its least sum on;
    the least sum takes the least admissible value at each step down.
    """
    def p(t):
        return int(poly_value(coeffs, t))

    def dp(t):
        return p(t) - p(t - 1)

    r = gotzmann_number(gotzmann_runs(coeffs))
    # The tail of G obeys Macaulay's bound from rho + 1 on; beyond the
    # Gotzmann number of dp (at most r) it does so with equality.
    for t in range(rho + 1, max(rho + 1, r) + 2):
        if dp(t) < 0 or dp(t + 1) > macaulay_bound(dp(t), t):
            return False
    if rho == 0:
        return p(0) == 1
    if rho == 1:
        g = p(1) - 1
        return p(0) != 1 and g >= 0 and dp(2) <= macaulay_bound(g, 1)
    g = _least_preimage(dp(rho + 1), rho)
    if g == dp(rho):
        g += 1
    total = 1 + g
    for t in range(rho - 1, 0, -1):
        g = _least_preimage(g, t)
        total += g
        if total > p(rho):
            return False
    return True


# ---------------------------------------------------------------------------
# monomial ideals given by raw generator lists


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def in_ideal(gens, term) -> bool:
    return any(divides(g, term) for g in gens)


def standard_counts(gens, nvars: int, top: int) -> list:
    """Number of degree-t monomials outside the ideal, t = 0..top, found by
    walking the order ideal: the standard monomials of degree t+1 are
    among those of degree t times one variable."""
    counts = []
    level = {(0,) * nvars} if not in_ideal(gens, (0,) * nvars) else set()
    for _ in range(top + 1):
        counts.append(len(level))
        grown = set()
        for term in level:
            for i in range(nvars):
                up = term[:i] + (term[i] + 1,) + term[i + 1:]
                if up not in grown and not in_ideal(gens, up):
                    grown.add(up)
        level = grown
    return counts


def strongly_stable(gens, nvars: int) -> bool:
    """Every move of a generator from x_i to a larger x_j stays inside."""
    for g in gens:
        for i in range(nvars):
            for j in range(i + 1, nvars):
                if g[i] and not in_ideal(
                        gens, g[:i] + (g[i] - 1,) + g[i + 1:j]
                        + (g[j] + 1,) + g[j + 1:]):
                    return False
    return True


def certificate_problems(nvars: int, gens, claimed_h, claimed_reg) -> list:
    """Reasons a certificate is wrong; empty when it is right.

    Checks the raw generator list: shape, minimality, strong stability,
    saturation (no generator uses x0), regularity as the top generator
    degree, and the claimed function against standard-monomial counts far
    enough out to pin the tail (tail degree + 1 points past reg - 1)."""
    problems = []
    gens = [tuple(g) for g in gens]
    if any(len(g) != nvars or min(g) < 0 for g in gens):
        return ["generator of the wrong shape"]
    if len(set(gens)) != len(gens) or any(
            a != b and divides(a, b) for a in gens for b in gens):
        problems.append("generators not minimal")
    if not strongly_stable(gens, nvars):
        problems.append("not strongly stable")
    if any(g[0] > 0 for g in gens):
        problems.append("not saturated")
    reg = max((sum(g) for g in gens), default=0)
    if reg != claimed_reg:
        problems.append("regularity %d, claimed %d" % (reg, claimed_reg))
    degree = max(poly_degree(claimed_h[1]), nvars - 2, 0)
    top = max(reg, 1) + degree + 1
    counts = standard_counts(gens, nvars, top)
    if any(counts[t] != fvalue(claimed_h, t) for t in range(top + 1)):
        problems.append("claimed function differs from the quotient")
    return problems
