"""The three workloads, as lists of minreg command lines built from a seed.

An item is a dict: `id`, `argv` (a minreg command line, always with
--json), `check` (which check in checks.py reads its output) and whatever
that check needs to know about the input.  The program only ever sees
`argv`.  Items are independent of each other except that checks may
compare items of one polynomial group (ids `<group>.<command>`).
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
SWEEP_FILE = os.path.join(HERE, "data", "sweep.json")

# The paper's fixtures (the acceptance suite's polynomials).
FIXTURES = ["5z-3", "9z-7", "12z-24", "12z-25", "15z-24", "2z+2",
            "z^2+3z+3", "6z^2-18z+37", "1/3z^3+2z^2+14/3z-4",
            "2z^3-6z^2+29z-20"]
LARGE_CUBIC = "2z^3-6z^2+29z-20"

# Gotzmann-writing templates for seeded polynomials: for each degree k
# from the top down, the range of the number of summands of degree k.
QUERY_TEMPLATES = (
    [(2, 12)],
    [(3, 14)],
    [(5, 16)],
    [(2, 5), (0, 6)],
    [(3, 7), (0, 10)],
    [(4, 9), (0, 14)],
    [(6, 12), (5, 20)],
    [(8, 13), (10, 30)],
    [(1, 2), (0, 3), (1, 4)],
    [(1, 2), (2, 5), (0, 8)],
    [(2, 3), (3, 6), (5, 12)],
    [(1, 1), (1, 2), (0, 3), (0, 4)],
)
# Seeded witness polynomials come from grids of Gotzmann writings: for
# each degree from the top down, the range of the number of summands of
# that degree.  The last range that is not a single number is cut into
# pairs of neighbours; a cell is one pair together with one choice of
# every other count, and the seed picks one writing of each cell.
# Neighbouring writings cost about the same, so every seed builds other
# witnesses while the spread of item costs, and with it the percentiles,
# stays put.  The grids keep to writings whose witness takes at most
# about 0.2 s, so that a run holds many rounds, and do not overlap.
# Every grid has at least two summands of top degree: with one, the
# derivative tower reaches a single point and `witness` refuses it as a
# linear variety (a fault CHANGES.md records).
WITNESS_GRIDS = (
    [(2, 5), (1, 4)],
    [(3, 6), (5, 8)],
    [(2, 3), (0, 7), (0, 3)],
    [(4, 19), (0, 0), (0, 0)],
    [(2, 2), (0, 3), (0, 3), (0, 1)],
)
# Fixtures whose every sweep class is cheap to build; the heavier sweep
# classes would make a round too long for a run to hold several.
LIGHT_GOTZMANN = 30


def poly_text(coeffs) -> str:
    """`2z^3-6z^2+29z-20` style text of ascending coefficients."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[e])
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        var = "" if e == 0 else ("z" if e == 1 else "z^%d" % e)
        body = str(mag) if e == 0 else (var if mag == 1 else "%s%s" % (mag,
                                                                      var))
        parts.append(sign + body)
    return "".join(parts)


def polynomial_of(writing) -> tuple:
    """Ascending coefficients of the polynomial with this writing."""
    runs = oracle.runs_from_writing(writing)
    d = writing[0]
    return oracle.interpolate([(z, oracle.runs_value(runs, z))
                               for z in range(d + 1)])


def random_writing(rng, template) -> tuple:
    top = len(template) - 1
    writing = []
    for level, (lo, hi) in enumerate(template):
        writing += [top - level] * rng.randint(lo, hi)
    return tuple(writing)


def load_sweep():
    with open(SWEEP_FILE, encoding="utf-8") as handle:
        return json.load(handle)["classes"]


def _item(group, command, argv, check, **info):
    return dict(id="%s.%s" % (group, command), argv=list(argv) + ["--json"],
                check=check, **info)


def queries(seed: int):
    rng = random.Random(seed)
    items = []

    def add(group, command, argv, check, **info):
        items.append(_item(group, command, argv, check, **info))

    for n, text in enumerate(FIXTURES):
        add("fix%d" % n, "gotzmann", ["gotzmann", text], "gotzmann",
            poly=text, runs=oracle.gotzmann_runs(oracle.parse_poly(text)))
    # Values the paper states.
    add("paper", "12z-25@7", ["minreg", "12z-25", "--rho", "7"], "paper",
        poly="12z-25", rho=7, value=9)
    add("paper", "12z-25@6", ["minreg", "12z-25", "--rho", "6"], "paper",
        poly="12z-25", rho=6, value=8)
    add("paper", "cubic", ["minreg", LARGE_CUBIC], "paper", poly=LARGE_CUBIC,
        rho=None, value=7)
    add("paper", "table-cubic", ["table", LARGE_CUBIC], "paper",
        poly=LARGE_CUBIC, rho=None, value=7)
    add("paper", "5z-3@4", ["exists", "5z-3", "--rho", "4"], "paper",
        value=None)
    add("paper", "minreg-5z-3@4", ["minreg", "5z-3", "--rho", "4"], "paper",
        value=None)
    add("paper", "minfn-g", ["minfn", "12z-25", "--rho", "7", "--g"],
        "minfn", poly="12z-25", rho=7, exact=True)
    add("paper", "hf-12z-25", ["minreg", "--hf", "1,4,9,16,25,36,48 ; 12z-25"],
        "paper", poly="12z-25", rho=7, value=9)
    for d in range(2, 8):
        add("const%d" % d, "global", ["minreg", str(d)], "paper",
            poly=str(d), rho=None, value=2)
        for rho in range(1, d):
            add("const%d" % d, "at%d" % rho,
                ["minreg", str(d), "--rho", str(rho)], "paper", poly=str(d),
                rho=rho, value=rho + 1)

    # Seeded polynomials from random Gotzmann writings, each asked every
    # question the command line answers.
    for n, template in enumerate(QUERY_TEMPLATES):
        writing = random_writing(rng, template)
        runs = oracle.runs_from_writing(writing)
        r = len(writing)
        text = poly_text(polynomial_of(writing))
        degree = writing[0]
        rho = rng.randint(1, min(r - 1, 9))
        info = dict(poly=text, runs=runs, r=r)
        g = "q%02d" % n
        add(g, "gotzmann", ["gotzmann", text], "gotzmann", **info)
        add(g, "rho", ["rho", text], "rho", **info)
        add(g, "rho-bar", ["rho-bar", text], "rho_bar", **info)
        add(g, "minfn", ["minfn", text], "minfn", rho=None, exact=False,
            **info)
        # `minfn --g` is asked only of the paper's fixture: on some seeded
        # polynomials it answers a function that breaks Macaulay's bound
        # (a fault CHANGES.md records).
        add(g, "minfn-rho", ["minfn", text, "--rho", str(rho)], "minfn",
            rho=rho, exact=False, **info)
        add(g, "exists", ["exists", text, "--rho", str(rho)], "exists",
            rho=rho, **info)
        add(g, "minreg", ["minreg", text], "minreg", rho=None, **info)
        add(g, "minreg-rho", ["minreg", text, "--rho", str(rho)], "minreg",
            rho=rho, **info)
        ambient = degree + 1 + rng.randint(0, 3)
        add(g, "minreg-ambient", ["minreg", text, "--ambient", str(ambient)],
            "minreg", rho=None, ambient=ambient, **info)
        add(g, "table", ["table", text], "minreg", rho=None, **info)
        # A class beyond the Gotzmann number: empty by Gotzmann's
        # regularity theorem.
        beyond = r + rng.randint(0, 3 * r)
        add(g, "exists-beyond", ["exists", text, "--rho", str(beyond)],
            "exists", rho=beyond, **info)
        add(g, "minreg-beyond", ["minreg", text, "--rho", str(beyond)],
            "minreg", rho=beyond, **info)

    for n, cls in enumerate(rng.sample(load_sweep(), 12)):
        add("hf%02d" % n, "minreg-hf", ["minreg", "--hf", cls["function"]],
            "minreg_hf", function=cls["function"])

    # Malformed input: each must exit 2.  The two `1/0` items end in a
    # ZeroDivisionError traceback today.
    for n, argv in enumerate([
            ["gotzmann", "1/0z"],
            ["minreg", "--hf", "1,2 ; 1/0z"],
            ["gotzmann", "2z^^3"],
            ["minfn", "3q+1"],
            ["minreg", "--hf", "1,4,8"],
            ["minreg", "5z-3", "--rho", "3", "--ambient", "4"],
            ["exists", "5z-3", "--rho", "x"],
            ["minreg"]]):
        add("bad%d" % n, argv[0], argv, "malformed")
    return items


def _witness_item(group, argv, poly, function=None):
    return _item(group, "witness", argv, "witness",
                 function=function, poly=poly)


def grid_cells(grid):
    """Every cell of a grid, as the pair of writings it holds."""
    top = len(grid) - 1
    cut = max(k for k, (lo, hi) in enumerate(grid) if hi > lo)
    ranges = [range(lo, hi + 1) if k != cut else range(lo, hi, 2)
              for k, (lo, hi) in enumerate(grid)]
    for counts in itertools.product(*ranges):
        yield [sum(([top - k] * (c + (shift if k == cut else 0))
                    for k, c in enumerate(counts)), [])
               for shift in (0, 1)]


def witness(seed: int):
    """One session: `witness --hf u` for every sweep class of the fixtures
    with Gotzmann number below LIGHT_GOTZMANN, then `witness p` for one
    seeded writing of every grid cell."""
    rng = random.Random(seed)
    items = []
    for n, cls in enumerate(load_sweep()):
        if oracle.gotzmann_number(oracle.gotzmann_runs(
                oracle.parse_poly(cls["polynomial"]))) < LIGHT_GOTZMANN:
            items.append(_witness_item(
                "sweep%02d" % n, ["witness", "--hf", cls["function"]],
                function=cls["function"], poly=cls["polynomial"]))
    cells = [cell for grid in WITNESS_GRIDS for cell in grid_cells(grid)]
    for n, cell in enumerate(cells):
        text = poly_text(polynomial_of(rng.choice(cell)))
        items.append(_witness_item("small%02d" % n, ["witness", text],
                                   poly=text))
    return items


def tampered(rng, cert, kind):
    """A copy of a certificate with one seeded change of the given kind:
    a generator of top degree dropped or multiplied by a variable, or the
    claimed value at the last degree before the tail moved by one.  Each
    kind changes the answer at one fixed degree, so the verifier's work,
    and with it the item's cost, does not hang on the seed's pick."""
    cert = json.loads(json.dumps(cert))
    gens = cert["ideal"]["generators"]
    top = max(sum(g) for g in gens)
    g = rng.choice([n for n, g in enumerate(gens) if sum(g) == top])
    if kind == "drop":
        gens.pop(g)
    elif kind == "raise":
        gens[g][rng.randrange(cert["ideal"]["vars"])] += 1
    else:
        prefix, _, tail = cert["hilbert_function"].partition(";")
        values = [int(v) for v in prefix.split(",")]
        values[-1] += rng.choice((-1, 1))
        cert["hilbert_function"] = "%s ;%s" % (
            ",".join(str(v) for v in values), tail)
    return cert


def verify(seed: int):
    rng = random.Random(seed)
    items = []
    for n, cls in enumerate(load_sweep()):
        for kind in ("stored", "drop", "raise", "claim"):
            cert = (cls["certificate"] if kind == "stored"
                    else tampered(rng, cls["certificate"], kind))
            items.append(_item("cert%02d" % n, kind,
                               ["verify", "{certificate}"],
                               "verify", certificate=cert))
    return items


WORKLOADS = {"queries": queries, "witness": witness, "verify": verify}
