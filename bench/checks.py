"""Checks of minreg's outputs, made apart from the program.

`problems(items, results, descent)` returns {item id: reason} for every
item whose output is wrong.  An item's result is the dict the worker
records: `code` (exit code, None when the item did not finish), `status`
(`ok`, `cap` or `exception`) and `out` (captured standard output).  Items
that did not finish are failures, not wrong answers, and are skipped.

The checks:
* a Gotzmann writing rebuilds p, and its length is the Gotzmann number;
* every returned Hilbert function obeys Macaulay's bound, and so does its
  first difference when it claims to belong to a scheme;
* a witness ideal's standard monomials, counted by divisibility alone,
  give its claimed function (oracle.certificate_problems);
* every class at rho >= r (the Gotzmann number) is empty, and a class at
  rho < r is empty exactly when Macaulay's theorem allows no O-sequence
  for it (oracle.scheme_class_nonempty);
* M + 1 <= m <= M + 2, with M the largest of the function's regularity
  and the scheme minima of the polynomial's differences;
* the descent regularity of a witness's function equals the witness's
  regularity;
* the values the paper states (kept in the items as `value`).
"""

from __future__ import annotations

import json

import oracle

MACAULAY_MARGIN = 4


def _payload(result):
    try:
        return json.loads(result["out"])
    except ValueError:
        return None


def _error_code(payload):
    return (payload or {}).get("error", {}).get("code")


def _same_poly(text, coeffs) -> bool:
    try:
        return oracle.parse_poly(text) == tuple(coeffs)
    except ValueError:
        return False


def _difference_poly(coeffs) -> tuple:
    d = oracle.poly_degree(coeffs)
    return oracle.interpolate([(z, oracle.poly_value(coeffs, z)
                                - oracle.poly_value(coeffs, z - 1))
                               for z in range(d + 1)])


def function_problem(text, tail, scheme, rho=None, exact=False):
    """Problems of a returned Hilbert function: its tail, its regularity
    against rho, Macaulay's bound on it and, for a scheme, on its first
    difference."""
    try:
        h = oracle.parse_function(text)
    except ValueError:
        return "unparsable function %r" % text
    if h[1] != tuple(tail):
        return "function %s has the wrong tail" % text
    reg = oracle.regularity_of(h)
    if rho is not None and (reg != rho if exact else reg > rho):
        return "function %s has regularity %d against rho %d" % (text, reg,
                                                                rho)
    horizon = reg + MACAULAY_MARGIN
    if not oracle.macaulay_ok(h, horizon):
        return "function %s breaks Macaulay's bound" % text
    if scheme and not oracle.macaulay_ok(oracle.difference(h, horizon + 1),
                                         horizon):
        return "difference of %s breaks Macaulay's bound" % text
    return None


def trace_problem(payload, coeffs, rho=None):
    """The descent rows run through the successive differences of p, the
    first row uses rho when one is given, and M + 1 <= m <= M + 2."""
    rows = payload.get("trace") or []
    if not rows:
        return "no trace"
    q = tuple(coeffs)
    for row in rows:
        if not _same_poly(row["polynomial"], q):
            return "trace row %s is not the expected difference %s" % (
                row["polynomial"], q)
        q = _difference_poly(q) if oracle.poly_degree(q) > 0 else None
    if q is not None:
        return "trace stops before a constant"
    if rho is not None and rows[0]["rho_used"] != rho:
        return "trace uses rho %s, asked %d" % (rows[0]["rho_used"], rho)
    m = payload["regularity"]
    if rows[0]["regularity"] != m:
        return "trace regularity differs from the answer"
    M = max([rows[0]["rho_used"]] + [row["rho_scheme"] for row in rows[1:]])
    if not M + 1 <= m <= M + 2:
        return "regularity %d outside [M+1, M+2] with M = %d" % (m, M)
    return None


def check_gotzmann(item, payload, code, ctx):
    if code != 0:
        return "exit %s" % code
    runs = item["runs"]
    if payload["gotzmann_number"] != oracle.gotzmann_number(runs):
        return "Gotzmann number %s, the writing has %d summands" % (
            payload["gotzmann_number"], oracle.gotzmann_number(runs))
    coeffs = oracle.parse_poly(item["poly"])
    if not _same_poly(payload["polynomial"], coeffs):
        return "echoed %s for %s" % (payload["polynomial"], item["poly"])
    if not oracle.rebuilds(runs, coeffs):
        return "the writing does not rebuild %s" % item["poly"]
    return None


def _regularity_or_empty(item, payload, code):
    if item["value"] is None:
        if code == 1 and (payload.get("exists") is False
                          or _error_code(payload) == "EmptyClass"):
            return None
        return "expected an empty class, got exit %s" % code
    if code != 0 or payload.get("regularity") != item["value"]:
        return "expected %s, got %s (exit %s)" % (
            item["value"], payload.get("regularity"), code)
    return None


def check_paper(item, payload, code, ctx):
    problem = _regularity_or_empty(item, payload, code)
    if problem or code != 0:
        return problem
    return trace_problem(payload, oracle.parse_poly(item["poly"]),
                         item["rho"])


def check_rho(item, payload, code, ctx):
    if code != 0:
        return "exit %s" % code
    rho_bar = ctx.sibling(item, "rho-bar").get("rho_bar")
    if not 0 <= payload["rho"] <= rho_bar:
        return "rho %s outside [0, rho-bar %s]" % (payload["rho"], rho_bar)
    return None


def check_rho_bar(item, payload, code, ctx):
    if code != 0:
        return "exit %s" % code
    value = payload["rho_bar"]
    if not 0 <= value <= item["r"] - 1:
        return "rho-bar %s outside [0, r-1]" % value
    trace = ctx.sibling(item, "minreg").get("trace") or [{}]
    if trace[0].get("rho_used") != value:
        return "rho-bar %s, the global descent starts at %s" % (
            value, trace[0].get("rho_used"))
    return None


def check_minfn(item, payload, code, ctx):
    coeffs = oracle.parse_poly(item["poly"])
    if code == 1 and item["rho"] is not None:
        least = ctx.sibling(item, "rho").get("rho", 0)
        if item["exact"]:
            least = max(least, 1)
        if _error_code(payload) == "RhoTooSmall" and item["rho"] < least:
            return None
    if code != 0:
        return "exit %s" % code
    if item["rho"] is None:
        rho_bar = ctx.sibling(item, "rho-bar").get("rho_bar")
        if payload["rho"] != rho_bar:
            return "default rho %s is not rho-bar %s" % (payload["rho"],
                                                         rho_bar)
        return function_problem(payload["function"], coeffs, True, rho_bar,
                                exact=True)
    return function_problem(payload["function"], coeffs, False, item["rho"],
                            exact=item["exact"])


def _emptiness_problem(coeffs, rho, r, empty):
    """An empty answer must be right by Gotzmann's regularity theorem
    (rho >= r) or by Macaulay's (oracle.scheme_class_nonempty); so must
    a nonempty one."""
    if rho >= r:
        return None if empty else "nonempty class at rho %d >= r = %d" % (
            rho, r)
    if oracle.scheme_class_nonempty(coeffs, rho) == empty:
        return "class at rho %d answered %s, Macaulay's theorem says %s" % (
            rho, "empty" if empty else "nonempty",
            "nonempty" if empty else "empty")
    return None


def check_exists(item, payload, code, ctx):
    rho = item["rho"]
    coeffs = oracle.parse_poly(item["poly"])
    if code == 1 and payload.get("exists") is False:
        return _emptiness_problem(coeffs, rho, item["r"], True)
    if code != 0 or payload.get("exists") is not True:
        return "exit %s" % code
    return (function_problem(payload["minimum"], coeffs, True, rho,
                             exact=True)
            or _emptiness_problem(coeffs, rho, item["r"], False))


def check_minreg(item, payload, code, ctx):
    coeffs = oracle.parse_poly(item["poly"])
    rho = item.get("rho")
    if code == 1:
        if item.get("ambient") is not None:
            if _error_code(payload) == "AmbientTooSmall":
                return None
        elif rho is not None and _error_code(payload) == "EmptyClass":
            return _emptiness_problem(coeffs, rho, item["r"], True)
        return "exit 1 with %s" % _error_code(payload)
    if code != 0:
        return "exit %s" % code
    if rho is not None:
        problem = _emptiness_problem(coeffs, rho, item["r"], False)
        if problem:
            return problem
    if item["id"].endswith(".minreg") or item["id"].endswith(".table"):
        rho = ctx.sibling(item, "rho-bar").get("rho_bar")
    return trace_problem(payload, coeffs, rho)


def check_minreg_hf(item, payload, code, ctx):
    if code != 0:
        return "exit %s" % code
    h = oracle.parse_function(item["function"])
    return trace_problem(payload, h[1], oracle.regularity_of(h))


def check_malformed(item, payload, code, ctx):
    return None if code == 2 else "exit %s for malformed input" % code


def _same_function(a, b) -> bool:
    ha, hb = oracle.parse_function(a), oracle.parse_function(b)
    top = max(len(ha[0]), len(hb[0])) + 1
    return ha[1] == hb[1] and all(oracle.fvalue(ha, t) == oracle.fvalue(hb, t)
                                  for t in range(top))


def check_witness(item, payload, code, ctx):
    if code != 0:
        return "exit %s" % code
    text = payload["hilbert_function"]
    if item["function"] is not None and not _same_function(text,
                                                           item["function"]):
        return "witness realizes %s instead of %s" % (text, item["function"])
    problem = function_problem(text, oracle.parse_poly(item["poly"]), True)
    if problem:
        return problem
    h = oracle.parse_function(text)
    ideal = payload["ideal"]
    found = oracle.certificate_problems(ideal["vars"], ideal["generators"],
                                        h, payload["regularity"])
    if found:
        return "witness ideal: %s" % "; ".join(found)
    if item.get("value") is not None and payload["regularity"] != item[
            "value"]:
        return "regularity %s, the paper states %s" % (payload["regularity"],
                                                       item["value"])
    descent = ctx.descent(text)
    if descent.get("regularity") != payload["regularity"]:
        return "witness regularity %s, descent gives %s" % (
            payload["regularity"], descent.get("regularity"))
    return trace_problem(descent, h[1], oracle.regularity_of(h))


def check_verify(item, payload, code, ctx):
    cert = item["certificate"]
    try:
        found = oracle.certificate_problems(
            cert["ideal"]["vars"], cert["ideal"]["generators"],
            oracle.parse_function(cert["hilbert_function"]),
            cert["regularity"])
    except ValueError as exc:
        found = [str(exc)]
    if not found:
        if code == 0 and payload.get("verified") is True:
            return None
        return "a right certificate was refused (exit %s)" % code
    if code == 1 and (payload.get("verified") is False
                      or _error_code(payload)):
        return None
    return "a wrong certificate (%s) got exit %s" % ("; ".join(found), code)


CHECKS = {
    "gotzmann": check_gotzmann,
    "paper": check_paper,
    "rho": check_rho,
    "rho_bar": check_rho_bar,
    "minfn": check_minfn,
    "exists": check_exists,
    "minreg": check_minreg,
    "minreg_hf": check_minreg_hf,
    "malformed": check_malformed,
    "witness": check_witness,
    "verify": check_verify,
}


class Context:
    """Outputs of a whole pass, so checks can compare items of one group,
    and the descent used to cross-check witnesses."""

    def __init__(self, items, results, descent):
        self.payloads = {}
        for item in items:
            result = results[item["id"]]
            if result["status"] == "ok":
                self.payloads[item["id"]] = _payload(result) or {}
        self._descent = descent
        self._descents = {}

    def sibling(self, item, command):
        group = item["id"].split(".")[0]
        return self.payloads.get("%s.%s" % (group, command), {})

    def descent(self, function_text):
        if function_text not in self._descents:
            self._descents[function_text] = self._descent(function_text)
        return self._descents[function_text]


def problems(items, results, descent=None):
    """{id: reason} for every finished item whose answer is wrong.

    descent(function_text) returns the JSON payload of
    `minreg minreg --hf <function>`; only witness checks call it."""
    ctx = Context(items, results, descent)
    wrong = {}
    for item in items:
        result = results[item["id"]]
        if result["status"] != "ok":
            continue
        payload = ctx.payloads[item["id"]]
        try:
            reason = CHECKS[item["check"]](item, payload, result["code"], ctx)
        except (KeyError, TypeError, ValueError) as exc:
            reason = "unexpected output shape: %r" % (exc,)
        if reason:
            wrong[item["id"]] = reason
    return wrong
