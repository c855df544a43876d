"""Shared pytest hooks and test helpers.

Tests that record a "criterion" user property (the acceptance suite)
get one summary line each, printed straight to the terminal so the
pass/fail verdicts survive output capturing.

ideal() builds the hand-written fixture ideals.  StronglyStableIdeal
trusts its caller, so ideal() checks each fixture by raw divisibility
first.  values(), partial_sums() and interpolate() are used by tests
only.
"""

from fractions import Fraction

import pytest

from minreg.borel import StronglyStableIdeal
from minreg.errors import NotAdmissible
from minreg.functions import HilbertFunction
from minreg.polynomials import (AdmissiblePolynomial, poly_add, poly_mul,
                                poly_scale)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


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
    if h.tail is None:
        tail = AdmissiblePolynomial((acc,))
    else:
        points = []
        value = acc
        for t in range(reg, reg + h.tail.degree + 2):
            value += h.tail(t)
            points.append((t, value))
        tail = AdmissiblePolynomial(interpolate(points))
    return HilbertFunction(tuple(sums), tail)

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
