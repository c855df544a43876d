"""Borel sets and strongly stable monomial ideals.

Terms live in a polynomial ring K[x0, ..., xn] whose variables are ordered
x0 < x1 < ... < xn, and are stored as exponent tuples (a0, ..., an).  An
elementary raising move replaces one factor xi by a larger variable xj; a
set of equal-degree terms closed under raising is a Borel set, and a
monomial ideal whose every slice is Borel is strongly stable.

The least variable x0 plays the role of the saturation variable: a
saturated strongly stable ideal has x0-free minimal generators, and the
maximal degree of the minimal generators equals the Castelnuovo-Mumford
regularity.  The Hilbert function of the quotient is read off the
generators: each member is g*w for exactly one minimal generator g and a
term w in x0..x_{min_index(g)} (Eliahou-Kervaire).

A slice is split into height classes (by x0-exponent) and growth
classes (by least variable present).  A growth-height-lexicographic
(ghl) set takes the lex-first terms of every class, so ghl_set() builds
it from the class sizes alone, and the normal form lgh() rearranges a
Borel set into it without changing either partition's sizes; these two
are the only builders of a slice.  slice_heights() reads the height
classes back from a Hilbert function and polynomials.slice_growth() the
growth classes from its tail, so ghl_ideal() builds the ghl slice a
function asks for and saturates it once (saturate_slice), giving the
witnesses, grafts, liftings and lex segments.

BorelSet and StronglyStableIdeal are plain records that trust their
callers: every builder here yields a raising-closed set, and an ideal by
its minimal generators.  Nothing re-checks that on construction; data
from outside the program is checked once, by
constructions.verify_witness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, islice

from .binomials import binom
from .errors import (DegreeMismatch, InternalInconsistency, LinearVariety,
                     NotSaturated)
from .functions import HilbertFunction, minimal_function
from .polynomials import AdmissiblePolynomial, quotient_tail, slice_growth

Term = tuple


def term_degree(term) -> int:
    return sum(term)


def min_index(term):
    """Index of the least variable dividing the term; None for the unit."""
    for i, e in enumerate(term):
        if e > 0:
            return i
    return None


def ek_index(term):
    """Eliahou-Kervaire index: min_index, or n for the unit term."""
    i = min_index(term)
    return len(term) - 1 if i is None else i


def lex_key(term):
    """Sort key for lex among equal degrees: compare top variables first."""
    return tuple(reversed(term))


def deglex_key(term):
    return (sum(term), tuple(reversed(term)))


def degrevlex_key(term):
    return (sum(term), tuple(-e for e in term))


def divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


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


def monomial_basis(nvars: int, degree: int):
    """All degree-d terms in nvars variables, lex-descending, generated
    lazily from the multisets of variable indices taken top first."""
    if degree < 0:
        return
    for indices in combinations_with_replacement(range(nvars - 1, -1, -1),
                                                 degree):
        term = [0] * nvars
        for i in indices:
            term[i] += 1
        yield tuple(term)


def borel_leq(a, b) -> bool:
    """True when b is reachable from a by raising moves.

    Equal-degree terms compare by suffix sums: a <= b iff for every i the
    total exponent of x_i..x_n in a is at most the one in b.
    """
    if sum(a) != sum(b):
        raise DegreeMismatch(
            "cannot compare %s with %s" % (term_string(a), term_string(b)))
    suffix_a = 0
    suffix_b = 0
    for x, y in zip(reversed(a), reversed(b)):
        suffix_a += x
        suffix_b += y
        if suffix_a > suffix_b:
            return False
    return True


@dataclass(frozen=True)
class BorelSet:
    """A raising-closed set of equal-degree terms.  A trusted record:
    nothing checks the closure here; verify_witness is the check."""

    nvars: int
    degree: int
    terms: frozenset

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(sorted(self.terms, key=lex_key, reverse=True))

    def __contains__(self, term):
        return term in self.terms

    def growth_vector(self):
        """Class sizes by least variable present, indices 0..n."""
        counts = [0] * self.nvars
        for term in self.terms:
            counts[min_index(term)] += 1
        return tuple(counts)

    def height_vector(self):
        """Class sizes by x0-exponent, indices 0..degree."""
        counts = [0] * (self.degree + 1)
        for term in self.terms:
            counts[term[0]] += 1
        return tuple(counts)


def ghl_set(nvars: int, degree: int, growth, heights) -> BorelSet:
    """The growth-height-lexicographic set with the given class sizes.

    Takes the lex-first growth[i] x0-free terms with least variable x_i
    for i >= 1 and the lex-first heights[j] terms with x0-exponent j for
    j >= 1; growth[0] and heights[0] follow from the others.  Class i is
    x_i times the terms in x_i..x_n of degree s - 1, class j is x0^j
    times the terms in x1..x_n of degree s - j, both generated in lex
    order up to the last kept term.
    """
    picked = []

    def take(name, index, size, length, cls):
        if not 0 <= size <= length:
            raise InternalInconsistency("%s class %d wants %d of %d terms"
                                        % (name, index, size, length))
        picked.extend(islice(cls, size))

    for i in range(1, nvars):
        take("growth", i, growth[i], basis_size(nvars - i, degree - 1),
             ((0,) * i + (t[0] + 1,) + t[1:]
              for t in monomial_basis(nvars - i, degree - 1)))
    for j in range(1, degree + 1):
        take("height", j, heights[j], basis_size(nvars - 1, degree - j),
             ((j,) + t for t in monomial_basis(nvars - 1, degree - j)))
    return BorelSet(nvars, degree, frozenset(picked))


def lgh(B: BorelSet) -> BorelSet:
    """Rearrange a Borel set into lex segments class by class.

    The x0-free part is redistributed along the growth classes, the rest
    along the height classes; both partitions keep their sizes, so the
    saturation of the generated ideal keeps its Hilbert function while its
    generators move into the lex-first positions of every class.
    """
    if B.degree == 0 or not B.terms:
        return B
    return ghl_set(B.nvars, B.degree, B.growth_vector(), B.height_vector())


@dataclass(frozen=True)
class StronglyStableIdeal:
    """Monomial ideal closed under raising moves, held by its minimal
    generators.  A trusted record: the caller vouches for both, and
    verify_witness is the check."""

    nvars: int
    generators: frozenset

    @property
    def regularity(self) -> int:
        """Maximal degree of the minimal generators (0 for the zero ideal)."""
        return max((term_degree(g) for g in self.generators), default=0)

    @property
    def is_saturated(self) -> bool:
        return all(g[0] == 0 for g in self.generators)

    def sorted_generators(self):
        return sorted(self.generators, key=deglex_key)

    def contains(self, term) -> bool:
        return any(divides(g, term) for g in self.generators)

    def hilbert_function(self) -> HilbertFunction:
        """Hilbert function of the saturated quotient: a generator of
        degree d and ek_index i has C(t-d+i, i) multiples g*w of degree t,
        so h(t) = C(t+n, n) - the sum of those, and quotient_tail sums
        the same binomials as polynomials."""
        if not self.is_saturated:
            raise NotSaturated("saturate before asking for the"
                               " Hilbert function")
        classes = Counter((ek_index(g), term_degree(g))
                          for g in self.generators)
        prefix = [basis_size(self.nvars, t)
                  - sum(count * basis_size(i + 1, t - d)
                        for (i, d), count in classes.items())
                  for t in range(self.regularity)]
        return HilbertFunction(tuple(prefix),
                               quotient_tail(classes, self.nvars))

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


def saturate_slice(B: BorelSet) -> StronglyStableIdeal:
    """Saturation of the ideal generated by a Borel set of degree s.

    A term v of degree d <= s lies in the saturation iff v*x0^(s-d) lies
    in B, so stripping x0 from the members of B lists every x0-free member
    of degree at most s, and those generate.  By Eliahou-Kervaire such a
    member u is a minimal generator iff u / x_{min_index(u)} is not in the
    saturation, that is iff lowering the least non-x0 variable of its term
    in B to x0 leaves B.
    """
    gens = []
    for term in B.terms:
        stripped = (0,) + term[1:]
        i = min_index(stripped)
        if i is None:
            # x0^s is in B, so B holds every term and saturates to (1)
            return StronglyStableIdeal(B.nvars, frozenset({stripped}))
        lowered = list(term)
        lowered[0] += 1
        lowered[i] -= 1
        if tuple(lowered) not in B.terms:
            gens.append(stripped)
    return StronglyStableIdeal(B.nvars, frozenset(gens))


def ghl_ideal(f: HilbertFunction, degree: int,
              nvars: int) -> StronglyStableIdeal:
    """The saturation of the ghl set of degree s = `degree` in nvars
    variables with the growth classes of f's tail (slice_growth) and the
    height classes of its values (slice_heights).  When a saturated
    strongly stable ideal J generated in degree <= s has quotient
    function f, that set is lgh of J's degree-s slice, as both have J's
    class sizes, so the result has quotient function f too."""
    return saturate_slice(ghl_set(nvars, degree,
                                  slice_growth(f.tail, degree, nvars),
                                  slice_heights(f, degree, nvars)))


def artinian_lift(A: StronglyStableIdeal) -> StronglyStableIdeal:
    """View an ideal in x1..xn inside K[x0, ..., xn], x0 the new least
    variable.  The result is saturated by construction and keeps the
    generator degrees, while the quotient Hilbert function turns into the
    running sums of the old one."""
    gens = [(0,) + g for g in A.generators]
    return StronglyStableIdeal(A.nvars + 1, frozenset(gens))


def lex_segment_ideal(p: AdmissiblePolynomial) -> StronglyStableIdeal:
    """The saturated lex-segment ideal with Hilbert polynomial p.

    Its quotient Hilbert function f is the least one with polynomial p and
    its regularity is the Gotzmann number r.  Its degree-r slice, the
    lex-first C(r+n, n) - p(r) terms, takes the lex-first terms of every
    class, so it is the ghl slice of f at r.
    """
    r = p.gotzmann_number
    if r < 2:
        raise LinearVariety("lex-segment construction needs r > 1")
    f = minimal_function(p, r - 1)
    return ghl_ideal(f, r, f(1))
