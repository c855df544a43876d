"""Self-tests: every check in checks.py refuses a known-wrong answer and
accepts the right one.

    python3 bench/selftest.py

run.py also runs these on every run, before anything is timed, and
reports `correct: false` if one of them fails.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

RUNS_5Z_3 = ((1, 5), (0, 2))


def _result(code, payload):
    return {"status": "ok", "code": code, "out": json.dumps(payload)}


def _verdict(item, code, payload, siblings=(), descent=None):
    """Reason the checks give for one item's output, or None."""
    items = [item] + [s[0] for s in siblings]
    results = {item["id"]: _result(code, payload)}
    for sib, sib_code, sib_payload in siblings:
        results[sib["id"]] = _result(sib_code, sib_payload)
    return checks.problems(items, results, descent).get(item["id"])


def _row(poly, rho_used, rho_scheme, regularity):
    return {"polynomial": poly, "gotzmann_number": 0, "rho": 0,
            "rho_scheme": rho_scheme, "rho_used": rho_used, "rho_fit": None,
            "regularity": regularity}


def _cases():
    """(name, should_pass, reason-or-None)."""
    gz = dict(id="g.gotzmann", check="gotzmann", poly="5z-3", runs=RUNS_5Z_3,
              argv=[])
    yield ("writing: right number", True,
           _verdict(gz, 0, {"polynomial": "5z-3", "gotzmann_number": 7}))
    yield ("writing: wrong number", False,
           _verdict(gz, 0, {"polynomial": "5z-3", "gotzmann_number": 8}))
    yield ("writing: does not rebuild p", False,
           _verdict(dict(gz, runs=((1, 5), (0, 3))), 0,
                    {"polynomial": "5z-3", "gotzmann_number": 8}))

    base = dict(poly="5z-3", runs=RUNS_5Z_3, r=7, argv=[])
    pair = dict(base, id="e.minreg-rho", check="minreg", rho=4)
    exists = dict(base, id="e.exists", check="exists", rho=4)
    trace = {"regularity": 6, "trace": [_row("5z-3", 4, 3, 6),
                                         _row("5", 4, 1, 5)]}
    yield ("Macaulay: inadmissible difference of 1,4,8,13 ; 5z-3", False,
           _verdict(exists, 0, {"exists": True, "minimum": "1,4,8,13 ; 5z-3"},
                    [(pair, 0, trace)]))
    yield ("Macaulay: function above the growth bound", False,
           _verdict(dict(base, id="f.minfn-g", check="minfn", rho=3,
                         exact=True), 0, {"function": "1,2,8 ; 5z-3"}))
    yield ("Macaulay: the least function at 3", True,
           _verdict(dict(exists, rho=3), 0,
                    {"exists": True, "minimum": "1,4,8 ; 5z-3"},
                    [(dict(pair, rho=3), 0,
                      {"regularity": 5, "trace": [_row("5z-3", 3, 3, 5),
                                                  _row("5", 4, 1, 5)]})]))

    # 5z-3 has rho-bar 3 and r = 7; its class at 4 is empty, the one at 5
    # is not.
    yield ("emptiness: exists says 5z-3 is empty at 5", False,
           _verdict(dict(exists, rho=5), 1, {"exists": False}))
    yield ("emptiness: minreg --rho says 5z-3 is empty at 5", False,
           _verdict(dict(pair, rho=5), 1, {"error": {"code": "EmptyClass"}}))
    yield ("emptiness: exists says 5z-3 is empty at 4", True,
           _verdict(exists, 1, {"exists": False}))
    yield ("emptiness: minreg --rho says 5z-3 is empty at 4", True,
           _verdict(pair, 1, {"error": {"code": "EmptyClass"}}))
    yield ("emptiness: a regularity for 5z-3 at 4", False,
           _verdict(pair, 0, trace))

    beyond = dict(base, id="b.exists-beyond", check="exists", rho=7)
    beyond_pair = dict(base, id="b.minreg-beyond", check="minreg", rho=7)
    yield ("Gotzmann: a nonempty class at rho >= r", False,
           _verdict(beyond, 0, {"exists": True, "minimum": "1,4,8 ; 5z-3"},
                    [(beyond_pair, 0, trace)]))
    yield ("Gotzmann: a regularity at rho >= r", False,
           _verdict(beyond_pair, 0, dict(trace, trace=[
               _row("5z-3", 7, 3, 6), _row("5", 4, 1, 5)])))
    yield ("Gotzmann: empty at rho >= r", True,
           _verdict(beyond, 1, {"exists": False},
                    [(beyond_pair, 1, {"error": {"code": "EmptyClass"}})]))

    hf = dict(id="h.minreg-hf", check="minreg_hf", argv=[],
              function="1,4,9,16,25,36,48 ; 12z-25")
    rows = [_row("12z-25", 7, 6, 9), _row("12", 6, 1, 7)]
    yield ("bound: m = M + 2", True,
           _verdict(hf, 0, {"regularity": 9, "trace": rows}))
    rows = [_row("12z-25", 7, 6, 10), _row("12", 6, 1, 7)]
    yield ("bound: m = M + 3", False,
           _verdict(hf, 0, {"regularity": 10, "trace": rows}))

    sweep = {c["function"]: c for c in workloads.load_sweep()}
    cls = sweep["1,4,8 ; 5z-3"]
    cert = cls["certificate"]
    wit = dict(id="w.witness", check="witness", argv=[], poly="5z-3",
               function=cls["function"])
    right = {"regularity": cert["regularity"],
             "trace": [_row("5z-3", 3, 3, cert["regularity"]),
                       _row("5", 4, 1, 5)]}
    yield ("descent: witness regularity = descent regularity", True,
           _verdict(wit, 0, cert, descent=lambda text: right))
    yield ("descent: witness regularity differs", False,
           _verdict(wit, 0, cert, descent=lambda text: dict(
               right, regularity=cert["regularity"] + 1)))

    ver = dict(id="v.stored", check="verify", argv=[], certificate=cert)
    yield ("count: a right certificate accepted", True,
           _verdict(ver, 0, {"verified": True}))
    claim = json.loads(json.dumps(cert))
    claim["hilbert_function"] = "1,4,9 ; 5z-3"
    yield ("count: a certificate claiming 1,4,9 ; 5z-3 accepted", False,
           _verdict(dict(ver, certificate=claim), 0, {"verified": True}))
    dropped = json.loads(json.dumps(cert))
    dropped["ideal"]["generators"].pop()
    yield ("count: a certificate missing a generator accepted", False,
           _verdict(dict(ver, certificate=dropped), 0, {"verified": True}))
    problems = oracle.certificate_problems(
        cert["ideal"]["vars"], cert["ideal"]["generators"],
        oracle.parse_function("1,4,8 ; 5z-2"), cert["regularity"])
    yield ("count: a wrong tail seen by counting", False,
           "; ".join(problems) or None)

    paper = dict(id="p.12z-25@7", check="paper", value=9, poly="12z-25",
                 rho=7, argv=[])
    good = {"regularity": 9, "trace": [_row("12z-25", 7, 6, 9),
                                       _row("12", 6, 1, 7)]}
    yield ("paper: 12z-25 gives 9 at 7", True, _verdict(paper, 0, good))
    yield ("paper: 12z-25 gives 8 at 7", False,
           _verdict(paper, 0, dict(good, regularity=8)))
    yield ("paper: 5z-3 at 4 is not empty", False,
           _verdict(dict(paper, id="p.5z-3@4", value=None), 0, good))


def run():
    """Names of the self-tests that did not come out as expected."""
    return [name for name, should_pass, reason in _cases()
            if (reason is None) != should_pass]


if __name__ == "__main__":
    failures = run()
    for name in failures:
        print("FAILED: %s" % name)
    print("%d self-test(s) failed" % len(failures))
    sys.exit(1 if failures else 0)
