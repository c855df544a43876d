"""Shared pytest hooks and test helpers.

Tests that record a "criterion" user property (the acceptance suite)
get one summary line each, printed straight to the terminal so the
pass/fail verdicts survive output capturing.

ideal() builds the hand-written fixture ideals.  StronglyStableIdeal
trusts its caller, so ideal() checks each fixture by raw divisibility
first, and contains() is membership by divisibility.  regularity(),
is_saturated() and hilbert_function() read an ideal's invariants off its
generators, hilbert_function() by the Eliahou-Kervaire classes of
min_index() and ek_index(); the verifier reads the same facts off its
own packed table and must agree with them.
monomial_basis() lists every term of a degree, lex-descending, and
BorelSet holds a slice term by term.  ghl_set() lists the ghl set with
given class sizes, lgh() rearranges a Borel set into it, and
saturate_slice() saturates the ideal a Borel set generates, by its
members; reference_ghl_ideal() chains them into the slice-by-slice build
that borel.ghl_ideal, which reads the generators off the class sizes,
must agree with.  degree_slice(), saturation() and minimal_terms() work
on whole slices of the ambient ring, and reference_removal() is the
paper's removal of one Borel-minimal term by them.  reference_verify()
is the scan verifier that verify.verify_witness must agree with,
check for check; its count of the standard terms of each degree over
the whole ambient ring is standard_counts(), and reference_walk() is
the walk term by term over x1..xn that the verifier's column walk
replaced and must agree with.
stepwise_lifting() is the paper's expanded lifting by whole slices, one
removal at a time, and reference_witness() chains those liftings down
the derivative tower, from an artinian lex base; it calls no ghl_ideal,
and constructions.witness_min_reg must build its ideal in one step.
witness_of() is the public builder on a function's own descent.
artinian_lift() adds a new least variable, and lex_segment_ideal() is
the saturated lex-segment ideal of a polynomial, the ghl ideal of its
least function at its Gotzmann number.  minus_minus() is a_<t> by one
Macaulay expansion, and degrevlex_key() the degrevlex sort key.
borel_leq() is the Borel order by suffix sums, which the oracles check
against its definition by raising moves; no construction compares terms
by it.
sweep_classes() reads the benchmark's sweep of fixture classes, each
with its stored certificate.
reference_expand() is the plain greedy Macaulay expansion, doubling up
from the index at every step, that binomials.macaulay_expand must agree
with.
reference_least_dominated() and reference_scheme_minimum() are the scans
that build a whole minimal function for every candidate regularity,
which functions.least_dominated_regularity and min_scheme_regularity
must agree with.
dominated_by() compares two Hilbert functions pointwise; no program
code needs it since least_dominated_regularity compares plain values.
values(), partial_sums() and interpolate() are used by tests only.
reference_parser() is the argparse parser that cli's table reader
replaced, the reference the reader must agree with: its fields, its
refusals (UsageError, with the message and usage line) and its help.
answer() runs one command line through cli.main and gives its exit code
and a digest of its stdout, the entries of tests/data/answers.json, and
readme_block() reads a fenced block of the README.
poly_add, poly_sub, poly_scale, poly_mul, poly_eval and poly_shift_arg
work on ascending monomial coefficients, which the program only parses
and prints, and poly_nonnegative_from() is the forward-difference scan on
them that AdmissiblePolynomial.at_least_from must agree with.
binomial_coeffs() gives C(z + shift, k) in those coefficients, and
reference_str() is the Fraction printer built on it that
AdmissiblePolynomial.__str__ must agree with, byte for byte.
reference_polynomial() is the Fraction route from those coefficients to
a polynomial, Horner's rule at -1, ..., -(d + 1) and then differences,
that polynomials.polynomial_from_coefficients and the parser must agree
with, refusal message for refusal message.
writings is the hypothesis strategy of random Gotzmann writings, and
from_writing() gives a writing's polynomial in those coefficients.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, islice

import pytest
from hypothesis import strategies as st

from minreg import cli
from minreg.binomials import binom, macaulay_expand
from minreg.borel import (StronglyStableIdeal, basis_size, ghl_ideal,
                          slice_heights, term_string)
from minreg.constructions import witness_min_reg
from minreg.errors import InternalInconsistency, NotAdmissible
from minreg.functions import (HilbertFunction, least_dominated_regularity,
                              min_function_regularity,
                              min_scheme_regularity, minimal_function)
from minreg.polynomials import (AdmissiblePolynomial,
                                polynomial_from_coefficients, quotient_tail,
                                slice_growth)
from minreg.regularity import min_regularity_of_function
from minreg.verify import VerificationReport, WitnessCertificate


SWEEP = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench", "data", "sweep.json")


def sweep_classes():
    with open(SWEEP, encoding="utf-8") as handle:
        return json.load(handle)["classes"]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def contains(J, term):
    """Whether some generator of J divides the term."""
    return any(_divides(g, term) for g in J.generators)


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


def regularity(J):
    """Maximal degree of the minimal generators (0 for the zero ideal)."""
    return max((sum(g) for g in J.generators), default=0)


def is_saturated(J):
    return all(g[0] == 0 for g in J.generators)


def hilbert_function(J):
    """Hilbert function of the saturated quotient: a generator of
    degree d and ek_index i has C(t-d+i, i) multiples g*w of degree t,
    so h(t) = C(t+n, n) - the sum of those, and quotient_tail sums
    the same binomials as polynomials.  ValueError on an ideal that is
    not saturated."""
    if not is_saturated(J):
        raise ValueError("saturate before asking for the"
                         " Hilbert function")
    classes = Counter((ek_index(g), sum(g))
                      for g in J.generators)
    prefix = [basis_size(J.nvars, t)
              - sum(count * basis_size(i + 1, t - d)
                    for (i, d), count in classes.items())
              for t in range(regularity(J))]
    return HilbertFunction(tuple(prefix),
                           quotient_tail(classes, J.nvars))


def lex_key(term):
    """Sort key for lex among equal degrees: compare top variables first."""
    return tuple(reversed(term))


def degrevlex_key(term):
    """Sort key for degrevlex: by degree, then by the exponents of x0, x1,
    ... in turn, a larger exponent first."""
    return (sum(term), tuple(-e for e in term))


def borel_leq(a, b):
    """True when b is reachable from a by raising moves: for every i the
    total exponent of x_i..x_n in a is at most the one in b.  ValueError
    on terms of different degrees."""
    if sum(a) != sum(b):
        raise ValueError("cannot compare %s with %s"
                         % (term_string(a), term_string(b)))
    suffix_a = suffix_b = 0
    for x, y in zip(reversed(a), reversed(b)):
        suffix_a += x
        suffix_b += y
        if suffix_a > suffix_b:
            return False
    return True


def minus_minus(a, t):
    """a_<t>: one subtracted from every top and every index of the
    Macaulay expansion of a in base t; 0 for a = 0."""
    if a == 0:
        return 0
    return sum(binom(k - 1, i - 1)
               for k, i in zip(macaulay_expand(a, t), range(t, 0, -1)))


def monomial_basis(nvars, degree):
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


@dataclass(frozen=True)
class BorelSet:
    """A set of equal-degree terms, raising-closed when its builder makes
    it so; nothing checks that."""

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


def ghl_set(nvars, degree, growth, heights):
    """The growth-height-lexicographic set with the given class sizes: the
    lex-first growth[i] x0-free terms with least variable x_i for i >= 1
    and the lex-first heights[j] terms with x0-exponent j for j >= 1,
    listed term by term from monomial_basis."""
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


def lgh(B):
    """Rearrange a Borel set into lex segments class by class, keeping the
    sizes of both partitions."""
    if B.degree == 0 or not B.terms:
        return B
    return ghl_set(B.nvars, B.degree, B.growth_vector(), B.height_vector())


def saturate_slice(B):
    """Saturation of the ideal generated by a Borel set of degree s, by
    its members: a term v of degree d <= s is in it iff v*x0^(s-d) is in
    B, and such a v is a minimal generator iff v / x_min(v) is not, that
    is iff lowering the least non-x0 variable of its term in B to x0
    leaves B."""
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


def reference_ghl_ideal(f, s, nvars):
    """borel.ghl_ideal by whole slices: the saturation of the ghl set of
    degree s whose class sizes fit f."""
    return saturate_slice(ghl_set(nvars, s, slice_growth(f.tail, s, nvars),
                                  slice_heights(f, s, nvars)))


def artinian_lift(A):
    """A inside K[x0, ..., xn], x0 a new least variable: saturated, with
    the generators' degrees, and its quotient function is the running
    sums of A's."""
    return StronglyStableIdeal(A.nvars + 1,
                               frozenset((0,) + g for g in A.generators))


def lex_segment_ideal(p):
    """The saturated lex-segment ideal with Hilbert polynomial p, of
    Gotzmann number r >= 2.  Its quotient function f is the least one with
    polynomial p, and its degree-r slice, the lex-first C(r+n, n) - p(r)
    terms, takes the lex-first terms of every class, so it is the ghl
    slice of f at r."""
    r = p.gotzmann_number
    f = minimal_function(p, r - 1)
    return ghl_ideal(f, r, f(1))


def ideal(nvars, *gens):
    """The ideal with these minimal generators; asserts that none divides
    another and that every raising of a generator stays in the ideal."""
    gens = frozenset(gens)
    for g in gens:
        assert len(g) == nvars and min(g, default=0) >= 0, g
        assert not any(h != g and _divides(h, g) for h in gens), \
            "%s is not a minimal generator" % (g,)
        for i in range(nvars):
            for j in range(i + 1, nvars):
                if g[i] == 0:
                    continue
                raised = list(g)
                raised[i] -= 1
                raised[j] += 1
                assert any(_divides(h, raised) for h in gens), \
                    "raising %s gives %s outside the ideal" % (g, raised)
    return StronglyStableIdeal(nvars, gens)


def degree_slice(J, t):
    """All degree-t members of J, as a Borel set, each listed once as g*w,
    w in x0..x_{ek_index(g)}."""
    members = []
    for gen in J.generators:
        i = ek_index(gen)
        for w in monomial_basis(i + 1, t - sum(gen)):
            members.append(tuple(a + b for a, b in zip(w, gen))
                           + gen[i + 1:])
    return BorelSet(J.nvars, t, frozenset(members))


def saturation(J):
    """Strip x0 from every generator and keep the stripped terms that no
    other one divides."""
    kept = []
    for term in sorted({(0,) + g[1:] for g in J.generators}, key=sum):
        if not any(_divides(g, term) for g in kept):
            kept.append(term)
    return StronglyStableIdeal(J.nvars, frozenset(kept))


def minimal_terms(B):
    """Members of a Borel set with no adjacent lowering x_i -> x_(i-1)
    inside it, lex-descending."""
    def lowerings(term):
        for i in range(1, len(term)):
            if term[i]:
                yield term[:i - 1] + (term[i - 1] + 1, term[i] - 1) \
                    + term[i + 1:]
    return tuple(term for term in B
                 if not any(low in B.terms for low in lowerings(term)))


class NoRemovableTerm(LookupError):
    """reference_removal finds no Borel-minimal term to drop."""


def reference_removal(J, s, t_bar):
    """Drop the degrevlex-least Borel-minimal term with x0-exponent
    s - t_bar from J's degree-s slice, and saturate what is left.  Refuses
    with ValueError an input outside the removal's domain."""
    if not is_saturated(J):
        raise ValueError("removal needs a saturated ideal")
    if s < max(regularity(J), 1):
        raise ValueError("slice degree %d is below the regularity %d"
                         % (s, regularity(J)))
    if not 0 <= t_bar < s:
        raise ValueError("need 0 <= t_bar < s, got t_bar=%d s=%d"
                         % (t_bar, s))
    B = degree_slice(J, s)
    candidates = [term for term in minimal_terms(B)
                  if term[0] == s - t_bar]
    if not candidates:
        raise NoRemovableTerm(
            "no minimal term with x0-exponent %d in the degree-%d slice"
            % (s - t_bar, s))
    term = min(candidates, key=degrevlex_key)
    result = saturate_slice(BorelSet(B.nvars, s, B.terms - {term}))
    log = ("removed %s from the degree-%d slice" % (term_string(term), s),)
    return WitnessCertificate(result, hilbert_function(result),
                              regularity(result), log)


def reference_verify(certificate):
    """The certificate's report by scans over the ambient ring: pairwise
    minimality, every raising tested with a scan of the generators, and
    the Hilbert function counted over all monomials of each degree."""
    ideal = certificate.ideal
    checks = []

    minimal = True
    for g in ideal.generators:
        if any(h != g and _divides(h, g) for h in ideal.generators):
            minimal = False
    checks.append(("minimal generators", minimal))

    stable = True
    for g in ideal.generators:
        for i in range(ideal.nvars):
            if g[i] == 0:
                continue
            for j in range(i + 1, ideal.nvars):
                raised = list(g)
                raised[i] -= 1
                raised[j] += 1
                if not contains(ideal, tuple(raised)):
                    stable = False
    checks.append(("strongly stable", stable))
    checks.append(("saturated", is_saturated(ideal)))
    checks.append(("regularity", regularity(ideal) == certificate.regularity))

    if not all(passed for _, passed in checks):
        checks.append(("hilbert function by slice formulas", False))
        checks.append(("hilbert function by enumeration", False))
        return VerificationReport(tuple(checks))

    checks.append(("hilbert function by slice formulas",
                   hilbert_function(ideal) == certificate.hilbert_function))
    counts = standard_counts(ideal, certificate.regularity + 4)
    enumerated = all(count == certificate.hilbert_function(t)
                     for t, count in enumerate(counts))
    checks.append(("hilbert function by enumeration", enumerated))
    return VerificationReport(tuple(checks))


def standard_counts(ideal, stop):
    """The number of standard terms of each degree t < stop, counted over
    every monomial of the ambient ring by divisibility; lazily, so that a
    caller can stop at the first mismatch."""
    for t in range(stop):
        yield sum(1 for term in monomial_basis(ideal.nvars, t)
                  if not any(_divides(g, term) for g in ideal.generators))


def reference_walk(packed, w, nvars, claim, limit):
    """The term-by-term walk that verify._standard_counts_match
    must agree with: whether, for each degree t <= limit, the standard
    terms in x1..xn of degree t number claim(t) - claim(t-1), over
    x0-free generators packed w bits a field.  A term c of degree t + 1
    is standard iff it is no generator and every c/x_j is; each comes
    once, as (c/x_k)*x_k with x_k its top variable, and carries its
    support, so only the c/x_j for its other variables are looked up."""
    unit = [1]
    level = {} if 0 in packed else {0: ()}
    before = 0
    for t in range(limit):
        now = claim(t)
        if len(level) != now - before:
            return False
        most, found, before = claim(t + 1) - now, {}, now
        for s, supp in level.items():
            top = supp[-1] if supp else 1
            for k in range(top, nvars):
                if k == len(unit):
                    unit.append(1 << w * k)
                c = s + unit[k]
                if c in packed:
                    continue
                for j in supp:
                    if j != k and c - unit[j] not in level:
                        break
                else:
                    found[c] = supp if k == top and supp else supp + (k,)
                    if len(found) > most:
                        return False
        level = found
    return len(level) == claim(limit) - before


def artinian_lex_ideal(h):
    """Lex ideal with finite quotient function h, in h(1) variables: its
    degree-t slice is the lex-first C(t+n-1, n-1) - h(t) terms, and its
    generators are the slice terms that no term of the slice one degree
    lower divides."""
    nvars = h(1)
    gens, previous = [], set()
    for t in range(1, h.regularity + 1):
        size = binom(t + nvars - 1, nvars - 1) - h(t)
        current = set(tuple(monomial_basis(nvars, t))[:size])
        gens.extend(c for c in current
                    if not any(_divides(b, c) for b in previous))
        previous = current
    return StronglyStableIdeal(nvars, frozenset(gens))


def extended(J, nvars):
    """J in a ring with extra top variables, which join its generators, so
    the quotient keeps its Hilbert function."""
    pad = (0,) * (nvars - J.nvars)
    units = [tuple(int(i == k) for i in range(nvars))
             for k in range(J.nvars, nvars)]
    return StronglyStableIdeal(
        nvars, frozenset([g + pad for g in J.generators] + units))


def stepwise_lifting(f, Jz, log=None):
    """The paper's expanded lifting of Jz to the function f, by whole
    slices: from the degree-m slice of Jz lifted by a new least variable,
    m = max(reg(Jz), reg(f) + 1), drop one Borel-minimal term at a time,
    the degrevlex-least one at the first degree where the quotient
    function still differs from f, and bring the slice back to ghl form
    after every removal.  Each removal is appended to log, if given."""
    m = max(regularity(Jz), f.regularity + 1)
    B = degree_slice(artinian_lift(Jz), m)
    while True:
        B = lgh(B)
        result = saturate_slice(B)
        achieved = hilbert_function(result)
        if achieved == f:
            return result
        assert dominated_by(achieved, f)
        t_bar = next(t for t in range(m) if achieved(t) != f(t))
        candidates = [term for term in minimal_terms(B)
                      if term[0] == m - t_bar]
        if not candidates:
            raise NoRemovableTerm("no candidate at degree %d" % t_bar)
        term = min(candidates, key=degrevlex_key)
        if log is not None:
            log.append("removed %s (gap at degree %d)"
                       % (term_string(term), t_bar))
        B = BorelSet(B.nvars, m, B.terms - {term})


def witness_of(u):
    """The witness of the scheme function u, built from u's own descent."""
    return witness_min_reg(min_regularity_of_function(u))


def reference_witness(u):
    """The minimal witness of the scheme function u by the paper's chain:
    lift a witness of the minimal function that the descent fits under
    the difference of u (the zero ideal for a linear space), bottoming
    out at the artinian lex ideal of the difference of a constant-tailed
    function.  Each level is a stepwise_lifting, so no ghl_ideal call is
    made.  Unverified; its regularity is max(reg of the section,
    reg(u) + 1) at each level, and the log is the levels' logs, bottom
    first."""
    if u.tail.degree == 0:
        base = artinian_lex_ideal(u.delta())
        return WitnessCertificate(artinian_lift(base), u, u.regularity + 1,
                                  ("artinian lex base in %d variables"
                                   % base.nvars,))
    dp = u.tail.derivative()
    fit, section_function = least_dominated_regularity(
        dp, u.delta(), max(u.regularity + 1, min_scheme_regularity(dp)))
    if dp.gotzmann_number == 1:
        # C(z+k, k) is cut out by the zero ideal in k+1 variables
        W = StronglyStableIdeal(dp.degree + 1, frozenset())
        section_log = ("linear section in %d variables" % W.nvars,)
    else:
        section = reference_witness(section_function)
        W, section_log = section.ideal, section.log
    if W.nvars < u(1) - 1:
        W = extended(W, u(1) - 1)
    m = max(regularity(W), u.regularity + 1)
    log = list(section_log) + [
        "section fitted at regularity %d" % fit,
        "lifted %d generators into %d variables, working degree %d"
        % (len(W.generators), W.nvars + 1, m)]
    lifted = stepwise_lifting(u, W, log)
    return WitnessCertificate(lifted, u, m, tuple(log))


# Random Gotzmann writings: non-increasing lists of run degrees, which
# from_writing turns into the ascending coefficients of a polynomial.
writings = st.lists(st.integers(0, 4), min_size=2, max_size=14).map(
    lambda degrees: sorted(degrees, reverse=True))


def from_writing(writing):
    """Ascending coefficients of sum_i C(z + k_i - (i - 1), k_i)."""
    coeffs = ()
    for i, k in enumerate(writing):
        coeffs = poly_add(coeffs, binomial_coeffs(k, k - i))
    return coeffs


def _trim(coeffs):
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def binomial_coeffs(k: int, shift: int):
    """Coefficients of C(z + shift, k) as a polynomial in z: the integer
    product of the factors z + shift - i, divided by k! once."""
    coeffs = [1]
    for i in range(k):
        coeffs = [(shift - i) * a + b
                  for a, b in zip(coeffs + [0], [0] + coeffs)]
    scale = math.factorial(k)
    return tuple(Fraction(c, scale) for c in coeffs)


def reference_str(p):
    """The text of p from its coordinates a_k, summing the Fraction
    coefficients of a_k C(z + k, k)."""
    coeffs = [Fraction(0)] * len(p.coordinates)
    for k, a in enumerate(p.coordinates):
        if a:
            for exp, c in enumerate(binomial_coeffs(k, k)):
                coeffs[exp] += a * c
    parts = []
    for exp in range(len(p.coordinates) - 1, -1, -1):
        c = coeffs[exp]
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


def reference_polynomial(coeffs):
    """The polynomial with ascending rational coefficients coeffs, in
    Fractions: its coordinates a_k = (nabla^k p)(-1) from the values at
    -1, ..., -(d + 1).  NotAdmissible as the program words it."""
    coeffs = _trim(Fraction(c) for c in coeffs)
    if not coeffs:
        raise NotAdmissible("the zero polynomial has no gotzmann writing")
    level = [poly_eval(coeffs, -1 - j) for j in range(len(coeffs))]
    coordinates = []
    while level:
        coordinates.append(level[0])
        level = [a - b for a, b in zip(level, level[1:])]
    if any(a.denominator != 1 for a in coordinates):
        t = next(t for t in range(len(coeffs))
                 if poly_eval(coeffs, t).denominator != 1)
        raise NotAdmissible("not integer valued at z = %d" % t)
    p = AdmissiblePolynomial(tuple(int(a) for a in coordinates))
    p.runs  # raises NotAdmissible when there is no Gotzmann writing
    return p


def poly_add(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def poly_sub(a, b):
    return poly_add(a, poly_scale(b, -1))


def poly_scale(a, c):
    c = Fraction(c)
    return _trim(c * x for x in a)


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


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


def reference_expand(a, t):
    """Tops of the Macaulay expansion of a >= 1 in base t >= 1: at each
    index the largest top whose binomial fits the remainder, found by
    doubling up from the index and then bisecting."""
    tops = []
    index = t
    while a > 0:
        lo, hi = index, index + 1
        while binom(hi, index) <= a:
            lo, hi = hi, hi * 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if binom(mid, index) <= a:
                lo = mid
            else:
                hi = mid
        tops.append(lo)
        a -= binom(lo, index)
        index -= 1
    return tuple(tops)


def dominated_by(f, g):
    """Whether the Hilbert function f lies pointwise below g: f(t) <= g(t)
    for every t >= 0, by the values up to both regularities and then the
    tails."""
    horizon = max(f.regularity, g.regularity)
    return all(f(t) <= g(t) for t in range(horizon)) \
        and g.tail.at_least_from(f.tail, horizon)


def reference_least_dominated(q, w, cap):
    """(fit, function): the least t from the scheme minimum of q up to
    cap whose minimal function lies pointwise below w, and that function;
    None when no t up to cap has one."""
    for t in range(min_scheme_regularity(q), cap + 1):
        f = minimal_function(q, t)
        if dominated_by(f, w):
            return t, f
    return None


def reference_scheme_minimum(p):
    """The least scheme regularity of p: one less than the first t >= 1
    where the partial sum below t of minimal_function(p', t) is at most
    p(t - 1), t = 1 only when p(0) = 1.  None when no t up to the
    Gotzmann number plus one has it."""
    if p.degree == 0:
        return 0 if p(0) == 1 else 1
    dp = p.derivative()
    for t in range(max(min_function_regularity(dp), 1),
                   p.gotzmann_number + 2):
        f = minimal_function(dp, t)
        if sum(f(u) for u in range(t)) <= p(t - 1) and (t > 1 or p(0) == 1):
            return t - 1
    return None


def values(h, stop):
    return [h(t) for t in range(stop)]


def interpolate(points):
    """Interpolating polynomial through distinct points, via Newton's form.

    points is a sequence of (x, y) pairs; returns ascending coefficients.
    """
    xs = [Fraction(x) for x, _ in points]
    dd = [Fraction(y) for _, y in points]
    n = len(dd)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    poly = ()
    basis = (Fraction(1),)
    for i in range(n):
        poly = poly_add(poly, poly_scale(basis, dd[i]))
        basis = poly_mul(basis, (-xs[i], Fraction(1)))
    return poly


def partial_sums(h):
    """Running sums; the Hilbert function of the cone construction."""
    if h(0) != 1:
        raise NotAdmissible("partial sums need a function starting at 1")
    reg = len(h.prefix)
    sums = []
    acc = 0
    for t in range(reg):
        acc += h.prefix[t]
        sums.append(acc)
    points = []
    value = acc
    for t in range(reg, reg + h.tail.degree + 2):
        value += h.tail(t)
        points.append((t, value))
    tail = polynomial_from_coefficients(interpolate(points))
    return HilbertFunction(tuple(sums), tail)


README = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "README.md")


def readme_block(heading, language=""):
    """The first fenced block after a README heading, as its lines."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    after = text[text.index("## %s\n" % heading):]
    start = after.index("```%s\n" % language) + len(language) + 4
    return after[start:after.index("```", start)].splitlines()


def answer(argv):
    """cli.main's exit code on argv and the first 16 hex digits of the
    sha256 of its stdout; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print its usage and exit 2."""

    def error(self, message):
        raise cli.UsageError(message, self.format_usage())


def reference_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minreg",
        description="Minimal Castelnuovo-Mumford regularity of projective"
                    " schemes with a given Hilbert polynomial, with"
                    " strongly stable witness ideals.",
        epilog="A polynomial that begins with '-' goes after '--':"
               " minreg gotzmann -- -3+5z")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    # Left unset unless given, so --json before the subcommand survives.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="emit machine-readable JSON")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("gotzmann", parents=[common],
                       help="Gotzmann number of a polynomial")
    s.add_argument("polynomial")
    s.set_defaults(handler=cli.cmd_gotzmann)

    s = sub.add_parser("rho", parents=[common],
                       help="least regularity of an admissible function"
                            " with the given tail")
    s.add_argument("polynomial")
    s.set_defaults(handler=cli.cmd_rho)

    s = sub.add_parser("rho-bar", parents=[common],
                       help="least regularity of a scheme Hilbert function"
                            " with the given tail")
    s.add_argument("polynomial")
    s.set_defaults(handler=cli.cmd_rho_bar)

    s = sub.add_parser("minfn", parents=[common],
                       help="pointwise minimal function with regularity"
                            " at most rho (exactly rho with --g)")
    s.add_argument("polynomial")
    s.add_argument("--rho", type=int, default=None,
                   help="target regularity (default: the least scheme one)")
    s.add_argument("--g", action="store_true",
                   help="least function with regularity exactly rho")
    s.set_defaults(handler=cli.cmd_minfn)

    s = sub.add_parser("exists", parents=[common],
                       help="is there a scheme function with this tail and"
                            " regularity exactly rho?")
    s.add_argument("polynomial")
    s.add_argument("--rho", type=int, required=True)
    s.set_defaults(handler=cli.cmd_exists)

    s = sub.add_parser("minreg", parents=[common],
                       help="minimal regularity: global, at --rho, for"
                            " --hf, or inside P^n with --ambient")
    s.add_argument("polynomial", nargs="?", default=None)
    s.add_argument("--rho", type=int, default=None)
    s.add_argument("--hf", default=None,
                   help="Hilbert function like '1,5,11 ; 15z-24'")
    s.add_argument("--ambient", type=int, default=None,
                   help="dimension n of the ambient projective space")
    s.set_defaults(handler=cli.cmd_minreg)

    s = sub.add_parser("witness", parents=[common],
                       help="construct and verify a minimal witness ideal,"
                            " emitted as a certificate document")
    s.add_argument("polynomial", nargs="?", default=None)
    s.add_argument("--hf", default=None,
                   help="target Hilbert function (default: the pointwise"
                        " minimum over all schemes with the polynomial)")
    s.add_argument("-o", "--output", default=None,
                   help="write the certificate to this file")
    s.set_defaults(handler=cli.cmd_witness)

    s = sub.add_parser("verify", parents=[common],
                       help="independently check a certificate document")
    s.add_argument("certificate")
    s.set_defaults(handler=cli.cmd_verify)

    s = sub.add_parser("table", parents=[common],
                       help="print the recursion trace table")
    s.add_argument("polynomial")
    s.add_argument("--rho", type=int, default=None)
    s.set_defaults(handler=cli.cmd_table)

    return parser


_config = None


def pytest_configure(config):
    global _config
    _config = config


@pytest.hookimpl(trylast=True)
def pytest_runtest_logreport(report):
    if report.when != "call" or _config is None:
        return
    terminal = _config.pluginmanager.get_plugin("terminalreporter")
    if terminal is None:
        return
    for name, value in report.user_properties:
        if name == "criterion":
            verdict = "PASS" if report.passed else "FAIL"
            terminal.write_line("criterion %s: %s" % (value, verdict))
