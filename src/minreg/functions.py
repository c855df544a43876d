"""Hilbert functions and the minimal functions attached to a polynomial.

A Hilbert function is stored as a finite prefix of values at 0, 1, 2, ...
followed by an admissible polynomial tail, which is polynomials.ZERO (the
empty writing) for an Artinian quotient; derivative() of a tail always
returns a polynomial, ZERO below a constant.  The prefix is
kept canonical: its last entry always differs from the tail value there,
so the length of the prefix is the regularity of the function, the first
point from which the function agrees with its tail forever.  A function
keeps its first difference once delta() has built it.

The minimal functions come from Macaulay growth: below a value a at t
they run down a_<t>, (a_<t>)_<t-1>, ..., one binomials.lowered_chain.
minimal_function(p, rho) is the pointwise least admissible function with
tail p and regularity at most rho; minimal_function_exact(p, rho) is the
least one with regularity exactly rho; minimal_scheme_function(p, rho) is
the least Hilbert function of a scheme, or None when no scheme has that
pair.  The regularity minima min_function_regularity and
min_scheme_regularity are found together, never scanning up to the
Gotzmann number, and kept on the polynomial record; an equal record from
another spelling, or from polynomial_from_coefficients, finds its own.
"""

from __future__ import annotations

from .binomials import lowered_chain, plus_plus
from .errors import (InternalInconsistency, NegativeDerivative, NotAdmissible,
                     ParseError, RhoTooSmall)
from .polynomials import ZERO, AdmissiblePolynomial, parse_tail


class HilbertFunction:
    """Integer function given by a finite prefix and a polynomial tail;
    the default tail ZERO makes it zero from len(prefix) on."""

    __slots__ = ("prefix", "tail", "_delta")

    def __init__(self, prefix: tuple, tail: AdmissiblePolynomial = ZERO):
        values = []
        for v in prefix:
            if v != int(v):
                raise NotAdmissible("function values must be integers, got %r" % (v,))
            values.append(int(v))
        while values and values[-1] == tail(len(values) - 1):
            values.pop()
        self.prefix = tuple(values)
        self.tail = tail
        self._delta = None

    def __eq__(self, other):
        if type(other) is not HilbertFunction:
            return NotImplemented
        return self.prefix == other.prefix and self.tail == other.tail

    def __hash__(self):
        return hash((self.prefix, self.tail))

    @property
    def regularity(self) -> int:
        """First point from which the function agrees with its tail."""
        return len(self.prefix)

    def __call__(self, t: int) -> int:
        if t < 0:
            return 0
        if t < len(self.prefix):
            return self.prefix[t]
        return self.tail(t)

    def delta(self) -> "HilbertFunction":
        """First difference function, kept once built; NegativeDerivative,
        on every call, if it ever dips."""
        if self._delta is not None:
            return self._delta
        values = self.prefix + (self.tail(len(self.prefix)),)
        diffs = tuple(map(int.__sub__, values, (0,) + values))
        for t, step in enumerate(diffs):
            if step < 0:
                raise NegativeDerivative(
                    "difference is %d at t = %d" % (step, t))
        tail = self.tail.derivative()
        if not tail.at_least_from(ZERO, len(self.prefix) + 1):
            raise NegativeDerivative("difference goes negative inside the tail")
        self._delta = HilbertFunction(diffs, tail)
        return self._delta

    def __str__(self):
        left = ",".join(str(v) for v in self.prefix)
        return "%s ; %s" % (left, self.tail) if left else "; %s" % self.tail

    def __repr__(self):
        return "HilbertFunction(%r)" % str(self)


def parse_hilbert_function(text: str) -> HilbertFunction:
    """Parse `1,4,8 ; 5z-3` style text; the tail `0` means zero forever."""
    if ";" not in text:
        raise ParseError("a Hilbert function needs `values ; tail`, got %r" % text)
    left, _, right = text.partition(";")
    left = left.strip()
    prefix = []
    if left:
        for token in left.split(","):
            token = token.strip()
            try:
                prefix.append(int(token))
            except ValueError as exc:
                raise ParseError("bad value %r in %r" % (token, text)) from exc
    right = right.strip()
    if not right:
        raise ParseError("missing tail in %r" % text)
    return HilbertFunction(tuple(prefix), parse_tail(right))


# ---------------------------------------------------------------------------
# admissibility


def is_admissible_function(h: HilbertFunction) -> bool:
    """Macaulay growth test: h(0) = 1, values stay >= 0, and each value
    obeys the growth bound of the previous one.  Beyond the horizon the
    function follows its tail inside the tail's valid range, where the
    bound holds for free."""
    if h(0) != 1:
        return False
    if h.tail.degree < 0:
        horizon = h.regularity + 1
    else:
        horizon = max(h.regularity, min_function_regularity(h.tail), 1)
    values = [*h.prefix, *map(h.tail, range(h.regularity, horizon + 2))]
    if min(values) < 0:
        return False
    for t in range(1, horizon + 1):
        current, nxt = values[t], values[t + 1]
        if current == 0:
            if nxt > 0:
                return False
        elif nxt > plus_plus(current, t):
            return False
    return True


def is_scheme_function(h: HilbertFunction) -> bool:
    """True when h is the Hilbert function of some closed subscheme:
    both h and its first difference pass the growth test."""
    if not is_admissible_function(h):
        return False
    try:
        d = h.delta()
    except NegativeDerivative:
        return False
    return is_admissible_function(d)


# ---------------------------------------------------------------------------
# minimal functions


def minimal_function(p: AdmissiblePolynomial, rho: int) -> HilbertFunction:
    """Pointwise least admissible function with tail p and regularity <= rho.

    Equals p from rho on (from the Gotzmann number less one, if that is
    smaller) and decreases backwards as slowly as Macaulay growth allows.
    """
    least = min_function_regularity(p)
    if rho < least:
        raise RhoTooSmall("no function with tail %s has regularity %d < %d"
                          % (p, rho, least))
    effective = min(rho, max(p.gotzmann_number - 1, 0))
    return HilbertFunction(tuple(lowered_chain(p(effective), effective)), p)


def minimal_function_exact(p: AdmissiblePolynomial, rho: int) -> HilbertFunction:
    """Pointwise least admissible function with tail p and regularity
    exactly rho: minimal_function(p, rho) when its regularity is rho,
    otherwise one more than p at rho - 1 with minimal decrease below.
    NotAdmissible when no such function exists (rho = 1, p(0) = 1)."""
    least = max(min_function_regularity(p), 1)
    if rho < least:
        raise RhoTooSmall("no function with tail %s has regularity exactly %d"
                          % (p, rho))
    f = minimal_function(p, rho)
    if f.regularity == rho:
        return f
    value = p(rho - 1) + 1
    prefix = lowered_chain(value, rho - 1) + [value]
    if prefix[0] != 1:
        raise NotAdmissible("no function with tail %s has regularity"
                            " exactly %d" % (p, rho))
    return HilbertFunction(tuple(prefix), p)


def min_function_regularity(p: AdmissiblePolynomial) -> int:
    """Least regularity among admissible functions with tail p."""
    return (p._least or _least_regularities(p))[0]


def min_scheme_regularity(p: AdmissiblePolynomial) -> int:
    """Least regularity among scheme Hilbert functions with polynomial p."""
    return (p._least or _least_regularities(p))[1]


def _least_regularities(p: AdmissiblePolynomial):
    """The pair (rho, rho_bar) of the two minima above, kept on p and its
    derivatives; NotAdmissible for ZERO.  A level q needs only the rho of
    its derivative dq, so the tower is walked down to the first level whose
    derivative holds its pair, or to the constant, and built back up.

    rho_bar is one less than the first t where minimal_function(dq, t)
    sums below t to at most q(t - 1).  That function is
    lowered_chain(dq(e), e) and then dq, e = min(t, r - 1), r dq's
    Gotzmann number; dq's part sums to q(t - 1) - q(e - 1), so the
    chain's sum is held to q(e - 1).  The test is monotone in t, so a
    bisection would find t too: the minimal functions f_t =
    minimal_function(dq, t) fall pointwise as t grows, so the sum S(t)
    of f_t below t has S(t + 1) <= S(t) + f_t(t) = S(t) + dq(t), while
    q(t) = q(t - 1) + dq(t); from t = r - 1 on, e and the test stay put.
    The skip at t = 1 when q(0) != 1 is a rule apart.  rho starts from
    rho_bar and slides down while the growth bound keeps holding."""
    if p.degree < 0:
        raise NotAdmissible("the zero polynomial is not a Hilbert polynomial here")
    tower = [p]
    while tower[-1].degree > 0 and tower[-1].derivative()._least is None:
        tower.append(tower[-1].derivative())
    for q in reversed(tower):
        if q.degree == 0:
            q._least = (0, 0) if q(0) == 1 else (1, 1)
            continue
        dq = q.derivative()
        last = max(dq.gotzmann_number - 1, 0)
        for t in range(max(dq._least[0], 1), q.gotzmann_number + 2):
            e = min(t, last)
            # agreeing with q already at 0 needs q(0) = 1
            if (sum(lowered_chain(dq(e), e)) <= q(e - 1)
                    and (t > 1 or q(0) == 1)):
                break
        else:
            raise InternalInconsistency(
                "scheme minimum not found below the Gotzmann number")
        rho = rho_bar = t - 1
        while (rho > 1 and q(rho - 1) >= 1
               and plus_plus(q(rho - 1), rho - 1) >= q(rho)):
            rho -= 1
        q._least = (0 if rho == 1 and q(0) == 1 else rho, rho_bar)
    return p._least


def least_dominated_regularity(q: AdmissiblePolynomial, w: HilbertFunction,
                               cap: int):
    """Least t, from the scheme minimum of q up to cap, whose minimal
    function (lowered_chain(q(e), e), then q from e = min(t, r - 1), r the
    Gotzmann number) lies pointwise below w, and that function.  Callers
    pass a cap that theory guarantees to succeed; running past it is a bug."""
    last = max(q.gotzmann_number - 1, 0)
    bound = [w(s) for s in range(max(w.regularity, min(cap, last)))]
    # q must not pass w from e up to w's regularity
    rise = max((s + 1 for s in range(w.regularity) if q(s) > bound[s]),
               default=0)
    for t in range(min_scheme_regularity(q), cap + 1):
        e = min(t, last)
        if e < rise:
            continue
        chain = lowered_chain(q(e), e)
        if (all(map(int.__le__, chain, bound))
                and w.tail.at_least_from(q, max(e, w.regularity))):
            return t, HilbertFunction(tuple(chain), q)
    raise InternalInconsistency(
        "no minimal function of %s fits below %s up to %d" % (q, w, cap))


def minimal_scheme_function(p: AdmissiblePolynomial, rho: int):
    """Pointwise least Hilbert function of a scheme with polynomial p and
    regularity exactly rho, or None when no such scheme exists.

    By Gotzmann's regularity theorem a saturated ideal with polynomial p
    has regularity at most the Gotzmann number r, so its Hilbert function
    has regularity below r."""
    if rho >= p.gotzmann_number:
        return None
    threshold = min_scheme_regularity(p)
    if rho < threshold:
        return None
    if rho == threshold:
        f = minimal_function(p, rho)
        if f.regularity != rho or not is_scheme_function(f):
            raise InternalInconsistency(
                "minimal function at the scheme threshold misbehaved")
        return f
    try:
        candidate = minimal_function_exact(p, rho)
    except NotAdmissible:
        return None
    return candidate if is_scheme_function(candidate) else None
