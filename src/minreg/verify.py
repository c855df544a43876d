"""The certificate's trust boundary: the witness certificate, its reader
and its verifier.  read_certificate and certificate_from_dict check a
document's shape only (InputError on a bad one); verify_witness alone
decides minimality, stability, saturation and the claims, off the ideal
record's nvars and generators.  It packs each generator once and reads
every fact off that table: minimality and stability by divisors of lower
degree, saturation and the regularity by the supports and degrees and,
when those hold, the Hilbert function by the generators' classes,
compared in place with the claim, and by counting the standard terms in
x1..xn in columns along x1: the ideal is saturated by then, so x0 is a
non-zerodivisor and each degree's count is the claim's first difference.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from itertools import compress
from math import comb

from .borel import StronglyStableIdeal
from .errors import InputError
from .functions import parse_hilbert_function
from .polynomials import quotient_tail


class WitnessCertificate(namedtuple("WitnessCertificate",
                                    "ideal hilbert_function regularity log")):
    """A constructed ideal with its claimed invariants and build log."""

    __slots__ = ()

    def as_dict(self):
        return {
            "ideal": {
                "vars": self.ideal.nvars,
                "generators": [list(g)
                               for g in self.ideal.sorted_generators()],
            },
            "hilbert_function": str(self.hilbert_function),
            "regularity": self.regularity,
            "log": list(self.log),
        }


def _json_int(value, least=None) -> int:
    """A JSON integer, at least `least`; bools and floats are refused."""
    if type(value) is not int or (least is not None and value < least):
        raise ValueError("%r is not an integer%s" % (
            value, "" if least is None else " >= %d" % least))
    return value


def certificate_from_dict(payload) -> WitnessCertificate:
    """Rebuild a certificate from its dictionary form, the inverse of
    as_dict.  Checks the shape only and raises InputError on a bad one;
    whether the ideal is minimal, strongly stable and saturated and
    whether the claims hold is for verify_witness to decide."""
    try:
        block = payload["ideal"]
        nvars = _json_int(block["vars"], 1)
        gens = block["generators"]
        for g in gens:
            # One pass over a plain list of non-negative ints; anything
            # else takes the element-wise check, which names the fault.
            if type(g) is list and len(g) == nvars \
                    and set(map(type, g)) <= {int} and min(g) >= 0:
                continue
            if not isinstance(g, list) or len(g) != nvars:
                raise ValueError("generator %r is not a list of %d"
                                 " exponents" % (g, nvars))
            for e in g:
                _json_int(e, 0)
        rows = list(map(tuple, gens))
        gens = frozenset(rows)
        if len(gens) < len(rows):
            twice = next(g for g, k in Counter(rows).items() if k > 1)
            raise ValueError("generator %r is listed twice" % (list(twice),))
        u = parse_hilbert_function(payload["hilbert_function"])
        regularity = _json_int(payload["regularity"])
        log = payload.get("log", [])
        if type(log) is not list or not all(type(s) is str for s in log):
            raise ValueError("log is not a list of strings")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("malformed certificate: %s" % exc) from None
    return WitnessCertificate(StronglyStableIdeal(nvars, gens), u,
                              regularity, tuple(log))


def read_certificate(path) -> WitnessCertificate:
    """The certificate in the JSON file at path.  InputError if the file
    cannot be read, is not JSON, or is not a certificate's shape."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise InputError("cannot read %s: %s"
                         % (path, exc.strerror or exc)) from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise InputError("%s is not JSON: %s" % (path, exc)) from None
    return certificate_from_dict(payload)


class VerificationReport(namedtuple("VerificationReport", "checks")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def __bool__(self):
        return self.ok

    def failures(self):
        return tuple(name for name, passed in self.checks if not passed)

    def __str__(self):
        return "; ".join("%s: %s" % (name, "ok" if passed else "FAILED")
                         for name, passed in self.checks)


def _standard_counts_match(packed, w, nvars, claim, limit):
    """Whether, for each degree t <= limit, the standard terms in x1..xn
    of degree t number claim(t) - claim(t-1), counted by verify_witness's
    columns along x1, over x0-free generators packed w bits a field."""
    tall = limit + 1 if nvars > 1 else 1  # one variable has no x1
    own, x1 = {}, (1 << w) - 1 << w  # generators in x1 only: own 0 is packed
    for g in packed:
        e = g & x1
        if e and e >> w < own.get(g - e, tall):
            own[g - e] = e >> w
    # unit[k] = 2^(w*k), made when the walk first reaches x_k: a full table
    # takes w*n^2/2 bits, more than a walk that stops early in degree 1.
    unit = [1, 1 << w]
    height = 0 if 0 in packed else own.get(0, tall)
    level = {0: ((), height)} if height else {}
    ends = {height: len(level)}  # the columns met so far, by end degree
    alive, before, now = 0, 0, claim(0)  # now = claim(t), asked for once
    for t in range(limit + 1):
        alive += len(level) - ends.pop(t, 0)
        if alive != now - before or t == limit:
            return alive == now - before
        before, now = now, claim(t + 1)
        room, found = now - before - alive + ends.get(t + 1, 0), {}
        for s, (supp, height) in level.items():
            top = supp[-1] if supp else 2
            for k in range(top, nvars):
                if k == len(unit):
                    unit.append(1 << w * k)
                c = s + unit[k]
                if c in packed:
                    continue
                h = own.get(c, height)
                if h > height:  # H(c/x_k) = H(s) = height
                    h = height
                for j in supp:
                    if j != k:
                        q = level.get(c - unit[j])
                        if q is None:
                            break
                        if q[1] < h:
                            h = q[1]
                else:
                    found[c] = (supp if k == top and supp else supp + (k,)), h
                    h += t + 1  # the degree where the column ends
                    ends[h] = ends.get(h, 0) + 1
                    if len(found) > room:
                        return False
        level = found


def verify_witness(certificate: WitnessCertificate) -> VerificationReport:
    """Re-derive every claim of a certificate from the raw generators.

    Every check reads one packed form of the generators.  A term
    (e_0, ..., e_n) is the integer sum e_i * 2^(w*i): one field of w bits
    for each variable, whose top bit is a guard that no exponent reaches.
    With limit = the claimed regularity + 3 and E the largest exponent of
    a generator, w = (max(limit, E) + 1).bit_length() + 1, so every
    exponent met fits below the guards: at most E in a generator, E + 1
    in a raising, and limit in a term of the walk.  Then c*x_k is
    c + 2^(w*k), c/x_j is c - 2^(w*j), and the raising x_i -> x_{i+1} is
    c + (2^w - 1) * 2^(w*i).  c is a multiple of g iff
    ((c | guard) - g) & guard == guard, guard the sum of the top bits:
    each field of c | guard holds 2^(w-1) + c_i, so taking g_i from it
    borrows from no other field and keeps the guard iff g_i <= c_i
    (Knuth, TAOCP 4A, 7.1.3).

    A generator g is minimal iff no generator of lower degree divides it:
    one that divides a g/x_j has lower degree, and one of lower degree
    that divides g divides g/x_j for an x_j where its exponent is less.
    Stability is tested on the adjacent raisings x_i -> x_{i+1} of the
    generators only, by the same scan: a raising of g lies in I iff it
    is a generator or a generator of lower degree than g divides it.
    Both checks run whatever the other finds.  If those raisings lie in
    I, so does each adjacent raising of a member g*w: a raising of g
    times w, or g times a raising of w.  And a raising x_i -> x_j chains
    the adjacent ones x_i -> ... -> x_j.

    The enumeration runs only once the structural checks pass, and so on
    x0-free generators: then x0^a*c is standard iff c is, and h(t) is the
    running total of the number of standard terms in x1..xn of degree t.
    Each degree's count, up to limit, is compared with the claim's first
    difference claim(t) - claim(t-1), which tests the same values, each
    asked for once (claim(t + 1) is carried to degree t + 1) and none
    past limit.  They are counted in columns: for s in x2..xn, s*x1^e is
    standard iff e < H(s), the least x1-exponent of a generator whose
    x1-free part divides s, so the least of own(s), over the generators
    whose x1-free part is s, and of H(s/x_j) for each x_j in s.  A column
    adds 1 to the degrees deg s to deg s + H(s) - 1.  Each s of degree
    t+1 with H(s) > 0 comes once, as (s/x_k)*x_k with x_k its top
    variable, and carries its support, so only the H(s/x_j) for its
    other variables are looked up.  A degree stops once its new columns
    outgrow the claim's difference.  x1 is the variable that a saturated
    strongly stable ideal's generators use least after x0, so its
    columns are the longest.

    Saturation and the regularity are read off the same table: no
    support starts at x0, and the last degree is the claim (0 for no
    generators).  The "slice formulas" check counts the generators by
    least variable i (n for the unit) and degree d: once the structural
    checks pass, each member of degree t is g*w for exactly one generator
    g and a term w in x0..x_i (Eliahou-Kervaire), so h(t) = C(t+n, n) -
    the sum of count * C(t-d+i, i) over the classes with d <= t, and
    polynomials.quotient_tail sums the same binomials as polynomials.
    It compares in place and builds no function: that tail with the
    claim's, then the claim's regularity, at most the certificate's,
    then each h(t) below the latter with claim(t).
    """
    nvars, gens = certificate.ideal.nvars, certificate.ideal.generators
    regularity, claim = certificate.regularity, certificate.hilbert_function
    n, limit = nvars - 1, regularity + 3
    w = (max(limit, 0, *map(max, gens)) + 1).bit_length() + 1
    guard = ((1 << w * nvars) - 1) // ((1 << w) - 1) << (w - 1)
    raising = (1 << w) - 1
    table, classes = [], {}  # (degree, packed term, support) by degree
    for g in gens:
        supp, c, d = list(compress(range(nvars), g)), 0, sum(g)
        for i in supp:
            c += g[i] << w * i
        table.append((d, c, supp))
        key = supp[0] if supp else n, d
        classes[key] = classes.get(key, 0) + 1
    table.sort()
    by_degree = [c for _, c, _ in table]
    packed = set(by_degree)

    def divided(c):  # whether a generator in lower divides the term c
        c |= guard
        for g in lower:
            if (c - g) & guard == guard:
                return True
        return False

    minimal = stable = True
    lower, top = [], 0  # the generators of degree below d
    for k, (d, c, supp) in enumerate(table):
        if d > top:
            lower, top = by_degree[:k], d
        if divided(c):
            minimal = False
        for i in supp:
            if i < n and (r := c + (raising << w * i)) not in packed \
                    and not divided(r):
                stable = False
    checks = [("minimal generators", minimal), ("strongly stable", stable),
              ("saturated", not any(s and s[0] == 0 for _, _, s in table)),
              ("regularity", (table[-1][0] if table else 0) == regularity)]
    # Both counts need a structurally sound ideal, and the enumeration
    # runs up to the claimed regularity, so a refused structure or a
    # false claim fails them without running them.
    sound = all(passed for _, passed in checks)
    checks.append(("hilbert function by slice formulas", sound
                   and quotient_tail(classes, nvars) == claim.tail
                   and claim.regularity <= regularity
                   and all(comb(t + n, n) - sum(
                       count * comb(t - d + i, i)
                       for (i, d), count in classes.items() if d <= t)
                       == claim(t) for t in range(regularity))))
    checks.append(("hilbert function by enumeration", sound and
                   _standard_counts_match(packed, w, nvars, claim, limit)))
    return VerificationReport(tuple(checks))
