"""Minimal Castelnuovo-Mumford regularity for a Hilbert polynomial.

The regularity of the minimal scheme witness is computed by descending
through difference functions: for a scheme Hilbert function u with
polynomial tail p, the bound is

    m(u) = max(reg(u) + 1, m(f)),

where f is the minimal function of the derivative of p taken at the least
regularity that still fits pointwise below the difference of u.  The
descent bottoms out at constant polynomials, where m = reg(u) + 1.  Every
level is recorded in a trace row, so the whole computation can be printed
as a table.

A closed form exists once the value at the scheme minimum is known:
below that value less one the answer is constant, beyond it the answer is
reg + 1 or reg + 2 depending on whether the minimal function keeps its
regularity.  The recursion is always cross-checked against the closed
form and a mismatch is reported as a bug, never papered over.
min_regularity keeps its report on the polynomial record; an equal record
from another spelling, or from polynomial_from_coefficients, builds its own.
"""

from __future__ import annotations

from collections import namedtuple

from .binomials import binom
from .errors import (AmbientTooSmall, EmptyClass, InternalInconsistency,
                     LinearVariety, NotSchemeHF)
from .functions import (HilbertFunction, is_scheme_function,
                        least_dominated_regularity, min_function_regularity,
                        min_scheme_regularity, minimal_function,
                        minimal_scheme_function)
from .polynomials import AdmissiblePolynomial


class TraceRow(namedtuple("TraceRow", "polynomial gotzmann_number min_rho"
                          " min_scheme_rho rho_used rho_fit regularity")):
    """One level of the descent: the polynomial at this level, its
    invariants, the regularity of the function in play, the regularity
    picked for the next level (None at the constant bottom), and the
    bound computed from this level down."""

    __slots__ = ()


class RegularityReport(namedtuple("RegularityReport", "function rows")):
    """The descent from the scheme function `function`, one trace row a
    level, the first row its own; `regularity` is the least regularity
    among subschemes with that function."""

    __slots__ = ()

    @property
    def regularity(self) -> int:
        return self.rows[0].regularity

    @property
    def polynomial(self) -> AdmissiblePolynomial:
        return self.function.tail

    @property
    def rho_used(self) -> int:
        return self.function.regularity

    def table_lines(self):
        header = ("polynomial", "gotzmann", "rho", "rho_scheme",
                  "rho_used", "rho_fit", "regularity")
        cells = [header]
        for row in self.rows:
            cells.append((str(row.polynomial), str(row.gotzmann_number),
                          str(row.min_rho), str(row.min_scheme_rho),
                          str(row.rho_used),
                          "-" if row.rho_fit is None else str(row.rho_fit),
                          str(row.regularity)))
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                for row in cells]


def _check_in_scope(p: AdmissiblePolynomial):
    if p.gotzmann_number < 2:
        raise LinearVariety(
            "%s belongs to a linear variety; its regularity is 0" % p)


def _function_trace(u: HilbertFunction) -> RegularityReport:
    """The descent from the scheme function u, one trace row per level
    down to the constant tail.  Each level fits the least regularity,
    from the scheme minimum of dp, the tail's difference, up to
    max(reg(u) + 1, that minimum), whose minimal function of dp lies
    below the difference of u; that function is the next level's u.
    Each row's bound is the larger of its reg + 1 and the bound of the
    row below it."""
    levels = []
    while u.tail.degree > 0:
        dp = u.tail.derivative()
        cap = max(u.regularity + 1, min_scheme_regularity(dp))
        fit, sub = least_dominated_regularity(dp, u.delta(), cap)
        if sub.regularity != fit:
            raise InternalInconsistency(
                "minimal function of %s at %d lost its regularity"
                % (sub.tail, fit))
        levels.append((u, fit))
        u = sub
    levels.append((u, None))
    rows = []
    bound = 0
    for u, fit in reversed(levels):
        p, rho_u = u.tail, u.regularity
        bound = max(rho_u + 1, bound)
        rows.append(TraceRow(p, p.gotzmann_number, min_function_regularity(p),
                             min_scheme_regularity(p), rho_u, fit, bound))
    return RegularityReport(levels[0][0], tuple(reversed(rows)))


def _closed_form(p: AdmissiblePolynomial, rho: int) -> int:
    base = min_regularity(p).regularity
    if rho <= base - 2:
        return base
    f = minimal_function(p, rho)
    return rho + 1 if f.regularity == rho else rho + 2


def min_regularity_at(p: AdmissiblePolynomial, rho: int) -> RegularityReport:
    """Least regularity among schemes with polynomial p whose Hilbert
    function has regularity exactly rho.  EmptyClass when there are none."""
    _check_in_scope(p)
    u = minimal_scheme_function(p, rho) if rho >= 0 else None
    if u is None:
        raise EmptyClass(
            "no scheme with polynomial %s has a Hilbert function of "
            "regularity %d" % (p, rho))
    report = _function_trace(u)
    threshold = min_scheme_regularity(p)
    if rho > threshold:
        expected = _closed_form(p, rho)
        if report.regularity != expected:
            raise InternalInconsistency(
                "descent gave %d but the closed form gives %d for %s at %d"
                % (report.regularity, expected, p, rho))
    return report


def min_regularity(p: AdmissiblePolynomial) -> RegularityReport:
    """Least regularity among all schemes with Hilbert polynomial p,
    attained at the least admissible function regularity; kept on p."""
    if p._report is None:
        _check_in_scope(p)
        p._report = min_regularity_at(p, min_scheme_regularity(p))
    return p._report


def min_regularity_of_function(u: HilbertFunction) -> RegularityReport:
    """Least regularity among schemes with the given Hilbert function."""
    if not is_scheme_function(u):
        raise NotSchemeHF("%s is not the Hilbert function of a scheme" % u)
    if u.tail.gotzmann_number < 2:
        raise LinearVariety(
            "functions of linear varieties are out of scope: %s" % u)
    return _function_trace(u)


def min_regularity_in_space(p: AdmissiblePolynomial, n: int) -> RegularityReport:
    """Least regularity among subschemes of projective n-space with
    Hilbert polynomial p, at the least t with minimal_function(p, t)(1)
    <= n + 1.  By Macaulay that value is the least k with C(k + top - 1,
    top) >= p(top), top = max(t, 1), so no minimal function is built."""
    _check_in_scope(p)
    if n < p.degree + 1:
        raise AmbientTooSmall(
            "schemes with polynomial %s live in dimension %d at least"
            % (p, p.degree + 1))
    chosen = next((t for t in range(min_scheme_regularity(p),
                                    p.gotzmann_number)
                   if binom(n + max(t, 1), n) >= p(max(t, 1))), None)
    if chosen is None:
        raise AmbientTooSmall(
            "no scheme in projective %d-space has polynomial %s" % (n, p))
    return min_regularity_at(p, chosen)
