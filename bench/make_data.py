"""Make bench/data/sweep.json anew from the program.

    python3 bench/make_data.py

The sweep is the acceptance suite's cross-validation sweep: for every
fixture polynomial p and every rho from 0 to min(r - 1, rho-bar + 4), the
least scheme function u of the class, when the class is nonempty.  Each
class is stored with the certificate `minreg witness --hf u --json`
prints.  The witness workload asks for these witnesses again; the verify
workload checks these certificates and seeded tampered copies of them.
The benchmark's own checks judge every certificate, so the file holds
inputs only, never expected answers.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_FIXTURES = ["5z-3", "9z-7", "12z-24", "12z-25", "15z-24", "2z+2",
                  "z^2+3z+3", "6z^2-18z+37", "2", "3", "4", "5", "6"]


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from minreg.cli import main as minreg
    from minreg.functions import (min_scheme_regularity,
                                  minimal_scheme_function)
    from minreg.polynomials import parse_polynomial

    classes = []
    for text in SWEEP_FIXTURES:
        p = parse_polynomial(text)
        top = min(p.gotzmann_number - 1, min_scheme_regularity(p) + 4)
        for rho in range(top + 1):
            u = minimal_scheme_function(p, rho)
            if u is None:
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = minreg(["witness", "--hf", str(u), "--json"])
            if code != 0:
                raise SystemExit("witness for %s failed with exit %d"
                                 % (u, code))
            cert = json.loads(out.getvalue())
            classes.append({"polynomial": text, "rho": rho,
                            "function": str(u), "certificate": cert})
    path = os.path.join(HERE, "data", "sweep.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"fixtures": %s,\n "classes": [\n  '
                     % json.dumps(SWEEP_FIXTURES))
        handle.write(",\n  ".join(json.dumps(c, sort_keys=True)
                                  for c in classes))
        handle.write("\n]}\n")
    print("wrote %d classes to %s" % (len(classes), path))


if __name__ == "__main__":
    main()
