"""Borel sets and strongly stable monomial ideals.

Terms live in a polynomial ring K[x0, ..., xn] whose variables are ordered
x0 < x1 < ... < xn, and are stored as exponent tuples (a0, ..., an).  An
elementary raising move replaces one factor xi by a larger variable xj; a
set of equal-degree terms closed under raising is a Borel set, and a
monomial ideal whose every slice is Borel is strongly stable.

The least variable x0 plays the role of the saturation variable: a
saturated strongly stable ideal has x0-free minimal generators, and the
maximal degree of the minimal generators equals the Castelnuovo-Mumford
regularity.  constructions.verify_witness reads both facts, and the
Hilbert function of the quotient, off the generators itself.

A degree-s slice is split into height classes (by x0-exponent) and
growth classes (by least variable present).  A growth-height-lexicographic
(ghl) slice takes the lex-first terms of every class, so it is fixed by
its class sizes alone: slice_heights() reads the height classes back from
a Hilbert function and polynomials.slice_growth() the growth classes from
its tail.  ghl_ideal() turns those sizes straight into the minimal
generators of the slice's saturation, by Macaulay's theorem on lex
segments, and lists each class of generators, a lex interval, with
lex_terms(); no slice is built.  It gives the witnesses; the tests
build the paper's grafts and lex-segment ideals with it too.

StronglyStableIdeal is a plain record that trusts its callers: every
builder here gives an ideal by its minimal generators.  Nothing re-checks
that on construction; data from outside the program is checked once, by
constructions.verify_witness.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

from .binomials import binom, plus_plus
from .errors import InternalInconsistency
from .functions import HilbertFunction
from .polynomials import slice_growth


def deglex_key(term):
    return (sum(term), tuple(reversed(term)))


def term_string(term) -> str:
    pieces = []
    for i, e in enumerate(term):
        if e == 1:
            pieces.append("x%d" % i)
        elif e > 1:
            pieces.append("x%d^%d" % (i, e))
    return "*".join(pieces) if pieces else "1"


def basis_size(nvars: int, degree: int) -> int:
    """Number of degree-d terms in nvars variables."""
    return binom(degree + nvars - 1, degree) if nvars else int(degree == 0)


def _unrank(nvars: int, low: int, degree: int, rank: int) -> list:
    """The degree-d term of the given rank among those in x_low..x_n,
    n = nvars - 1, listed lex-descending, as a list of nvars exponents.
    The ranks whose top variable x_v has exponent at least d - j number
    basis_size(v - low + 1, j), so each exponent is found by bisection,
    top variable first, until the rest of the rank is 0: the first term,
    which puts the remaining degree on the top variable left."""
    term = [0] * nvars
    top, rest = nvars - 1, degree
    while rank:
        k = top - low + 1
        j = bisect_right(range(rest + 1), rank,
                         key=lambda j: basis_size(k, j))
        term[top] = rest - j
        rank -= basis_size(k, j - 1)
        top, rest = top - 1, j
    term[top] = rest
    return term


def lex_terms(nvars: int, low: int, degree: int, lo: int, hi: int,
              bump: int = 0):
    """x_low^bump times each term of rank lo..hi-1 among the degree-d
    terms in x_low..x_n, n = nvars - 1, listed lex-descending (top
    variable first), as nvars-tuples; none when lo >= hi.

    Rank lo is unranked once.  Each next term is the one before, changed
    in place: with x_p the least variable above x_low in it, one factor
    x_p becomes x_(p-1), and if p - 1 > low every factor x_low moves up
    to x_(p-1) with it."""
    if lo >= hi:
        return
    term = _unrank(nvars, low, degree, lo)
    term[low] += bump
    yield tuple(term)
    p = low + 1
    for _ in range(hi - lo - 1):
        # x_(low+1)..x_(p-1) are absent, and a term with a successor has
        # a variable above x_low
        while not term[p]:
            p += 1
        term[p] -= 1
        if p - 1 > low:
            term[p - 1] = term[low] - bump + 1
            term[low] = bump
            p -= 1
        else:
            term[low] += 1
        yield tuple(term)


class StronglyStableIdeal:
    """Monomial ideal closed under raising moves, held by its minimal
    generators.  A trusted record: the caller vouches for both, and
    verify_witness is the check."""

    __slots__ = ("nvars", "generators")

    def __init__(self, nvars: int, generators: frozenset):
        self.nvars = nvars
        self.generators = generators

    def __eq__(self, other):
        if type(other) is not StronglyStableIdeal:
            return NotImplemented
        return (self.nvars == other.nvars
                and self.generators == other.generators)

    def __hash__(self):
        return hash((self.nvars, self.generators))

    def sorted_generators(self):
        return sorted(self.generators, key=deglex_key)

    def __str__(self):
        inside = ", ".join(term_string(g) for g in self.sorted_generators())
        return "(%s)" % inside

    def __repr__(self):
        return "StronglyStableIdeal(%d, %s)" % (self.nvars, self)


def slice_heights(f: HilbertFunction, degree: int, nvars: int):
    """Height vector of the degree-s slice of any saturated strongly stable
    ideal in n+1 = nvars variables, generated in degree <= s, with quotient
    function f: x0^(s-d)*v is in it iff v is, so the slice has
    C(d+n-1, n-1) - Df(d) terms of x0-exponent s-d, Df the difference of f.
    """
    df = f.delta()
    n = nvars - 1
    # C(d+n, n) - C(d+n-1, n) is C(d+n-1, n-1), and also right for n = 0
    return tuple(binom(d + n, n) - binom(d + n - 1, n) - df(d)
                 for d in range(degree, -1, -1))


def _share_at_or_above(w, low: int) -> int:
    """How many of the terms at or above w, among the terms of its degree
    in x1..xn listed lex-descending, lie in x_low..x_n.  The last of those
    keeps w's exponents above x_low and puts the rest on x_low; for each
    v > low, basis_size(v - low + 1, e - 1) terms in x_low..x_n agree
    with it above x_v and exceed it at x_v, e the degree of w below x_v."""
    below = list(accumulate(w))
    return 1 + sum(basis_size(v - low + 1, below[v - 1] - 1)
                   for v in range(low + 1, len(w)))


def ghl_ideal(f: HilbertFunction, degree: int,
              nvars: int) -> StronglyStableIdeal:
    """The saturation of the ghl slice of degree s = `degree` >= 1 in
    nvars = n + 1 variables whose growth classes fit f's tail
    (slice_growth) and height classes its values (slice_heights), read
    off those class sizes.  When a saturated strongly stable ideal
    generated in degree <= s has quotient function f, its degree-s slice
    has those class sizes, so the result has quotient function f.

    The saturation is (1) if x0^s is in the slice (heights[s] = 1).
    Else v of degree d is a member iff x0^(s-d)*v is in the slice, and a
    minimal generator iff v / x_min(v) is no member (Eliahou-Kervaire).
    Ranks count from 0 in the lex-descending list of one degree's terms:

    * degree 1 <= d < s: the members are the first H_d = heights[s-d]
      terms in x1..xn, and the multiples of those of degree d-1 the first
      M_d: by Macaulay a lex segment of codimension c generates one of
      codimension c^<d-1> one degree up.  So M_1 = 0 and M_d = N_d -
      plus_plus(N_(d-1) - H_(d-1), d-1), N_d = basis_size(n, d), and the
      generators are ranks M_d..H_d-1;
    * degree s, growth class i = 1..n: the members are x_i times the
      first growth[i] terms of degree s-1 in x_i..x_n, and the generators
      x_i times ranks K_i..growth[i]-1 of those, K_i the number of terms
      in x_i..x_n among the heights[1] members of degree s-1.
    """
    m, n = degree, nvars - 1
    growth = slice_growth(f.tail, m, nvars)
    heights = slice_heights(f, m, nvars)
    classes = [("growth", i, growth[i], basis_size(nvars - i, m - 1))
               for i in range(1, nvars)]
    classes += [("height", j, heights[j], basis_size(n, m - j))
                for j in range(1, m + 1)]
    for name, index, size, length in classes:
        if not 0 <= size <= length:
            raise InternalInconsistency("%s class %d wants %d of %d terms"
                                        % (name, index, size, length))
    if heights[m]:
        return StronglyStableIdeal(nvars, frozenset({(0,) * nvars}))
    gens, multiples = [], 0
    for d in range(1, m):
        gens.extend(lex_terms(nvars, 1, d, multiples, heights[m - d]))
        multiples = basis_size(n, d + 1) - plus_plus(
            basis_size(n, d) - heights[m - d], d)
    last = _unrank(nvars, 1, m - 1, heights[1] - 1) if heights[1] else None
    for i in range(1, nvars):
        if growth[i]:
            known = 0 if last is None else _share_at_or_above(last, i)
            gens.extend(lex_terms(nvars, i, m - 1, known, growth[i], 1))
    return StronglyStableIdeal(nvars, frozenset(gens))
