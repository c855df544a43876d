"""Per-layer spans and counters, recorded from outside the program.

Tracer.install() replaces public functions and methods of the minreg
modules with wrappers, in every module that imported them by name.  A
timed wrapper opens a span; a span's self time is its duration minus the
spans opened inside it, and is added to the span's key (one key per
module, or per function where a single function is the layer that an
optimisation would change).  Count-only wrappers add no span, so their
time stays with the caller: `contains` and `monomial_basis` are called
too often for a span each.

Counters for an item that ran past its cap are dropped, because where the
cap cuts depends on timing; every reported count then repeats exactly
from run to run for one seed.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, self-time key, call counter or None)
SPANS = [
    ("cli", "main", "cli", "cli.main.calls"),
    ("polynomials", "parse_coefficients", "polynomials",
     "polynomials.parse.calls"),
    ("polynomials", "parse_polynomial", "polynomials", None),
    ("polynomials", "AdmissiblePolynomial.__init__", "polynomials", None),
    ("binomials", "macaulay_expand", "binomials",
     "binomials.macaulay_expand.calls"),
    ("binomials", "plus_plus", "binomials", None),
    ("binomials", "minus_minus", "binomials", None),
    ("functions", "minimal_function", "functions",
     "functions.minimal_function.calls"),
    ("functions", "least_dominated_regularity", "functions",
     "functions.least_dominated_regularity.calls"),
    ("functions", "minimal_function_exact", "functions", None),
    ("functions", "minimal_scheme_function", "functions", None),
    ("functions", "min_function_regularity", "functions", None),
    ("functions", "min_scheme_regularity", "functions", None),
    ("functions", "is_admissible_function", "functions", None),
    ("functions", "is_scheme_function", "functions", None),
    ("functions", "parse_hilbert_function", "functions", None),
    ("regularity", "min_regularity", "regularity", None),
    ("regularity", "min_regularity_at", "regularity", None),
    ("regularity", "min_regularity_in_space", "regularity", None),
    ("regularity", "min_regularity_of_function", "regularity", None),
    ("borel", "StronglyStableIdeal.__init__", "borel.ideal_new",
     "borel.ideal_new.calls"),
    ("borel", "StronglyStableIdeal.degree_slice", "borel.degree_slice",
     "borel.degree_slice.calls"),
    ("borel", "lgh", "borel.lgh", "borel.lgh.calls"),
    ("borel", "StronglyStableIdeal.hilbert_function", "borel.hilbert_function",
     "borel.hilbert_function.calls"),
    ("constructions", "witness_min_reg", "constructions.witness",
     "constructions.witness.calls"),
    ("constructions", "expanded_lifting", "constructions.lifting",
     "constructions.lifting.calls"),
    ("constructions", "verify_witness", "constructions.verify",
     "constructions.verify.calls"),
    ("constructions", "certificate_from_dict",
     "constructions.certificate_load", None),
]
COUNTED = [
    ("borel", "StronglyStableIdeal.contains", "borel.contains.calls"),
    ("borel", "monomial_basis", None),
]
# Hit ratios read from the functions' own lru caches.
CACHES = {
    "binomials.macaulay_expand.cache_hit_ratio": ("binomials",
                                                  "macaulay_expand"),
    "functions.min_scheme_regularity.cache_hit_ratio": (
        "functions", "min_scheme_regularity"),
    "borel.monomial_basis.cache_hit_ratio": ("borel", "monomial_basis"),
    "constructions.witness.cache_hit_ratio": ("constructions",
                                              "witness_min_reg"),
}
SELF_KEYS = ["cli", "polynomials", "binomials", "functions", "regularity",
             "borel.ideal_new", "borel.degree_slice", "borel.lgh",
             "borel.hilbert_function", "constructions.witness",
             "constructions.lifting", "constructions.verify",
             "constructions.certificate_load"]
COUNTS = ["cli.main.calls", "polynomials.parse.calls",
          "binomials.macaulay_expand.calls",
          "functions.minimal_function.calls",
          "functions.least_dominated_regularity.calls",
          "regularity.descent.calls", "regularity.trace_rows",
          "borel.ideal_new.calls", "borel.ideal_new.generators_in",
          "borel.degree_slice.calls", "borel.degree_slice.terms_out",
          "borel.lgh.calls", "borel.hilbert_function.calls",
          "borel.contains.calls", "borel.monomial_basis.terms_cached",
          "constructions.witness.calls", "constructions.lifting.calls",
          "constructions.lifting.removals", "constructions.verify.calls"]


def _lookup(module, dotted):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _measure_args(counts, attr, args, kwargs):
    if attr == "StronglyStableIdeal.__init__":
        gens = kwargs["generators"] if "generators" in kwargs else args[2]
        counts["borel.ideal_new.generators_in"] += len(gens)


def _measure_result(counts, attr, result):
    if attr == "StronglyStableIdeal.degree_slice":
        counts["borel.degree_slice.terms_out"] += len(result)
    elif attr == "expanded_lifting":
        counts["constructions.lifting.removals"] += sum(
            1 for line in result.log if str(line).startswith("removed"))


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(SELF_KEYS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.cache_totals = {name: [0, 0] for name in CACHES}
        self._stack = []
        self._regularity_depth = 0
        self._caches = {}
        self._snapshot = None

    def install(self, package):
        modules = {name: sys.modules["%s.%s" % (package, name)]
                   for name in ("cli", "polynomials", "binomials",
                                "functions", "regularity", "borel",
                                "constructions")}
        for name, (module, attr) in CACHES.items():
            fn = getattr(modules[module], attr, None)
            if hasattr(fn, "cache_info"):
                self._caches[name] = fn
        for module, attr, key, counter in SPANS:
            self._patch(modules, module, attr,
                        self._timed(module, attr, key, counter))
        for module, attr, counter in COUNTED:
            self._patch(modules, module, attr,
                        self._counted(counter))

    def _patch(self, modules, module, attr, make):
        try:
            owner, name = _lookup(modules[module], attr)
            original = getattr(owner, name)
        except AttributeError:
            print("tracing: minreg.%s.%s is gone; its metrics stay 0"
                  % (module, attr), file=sys.stderr)
            return
        wrapper = make(original)
        if owner is modules[module]:
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)
        else:
            setattr(owner, name, wrapper)

    def _timed(self, module, attr, key, counter):
        outer_regularity = module == "regularity"

        def make(fn):
            def wrapper(*args, **kwargs):
                if counter:
                    self.counts[counter] += 1
                _measure_args(self.counts, attr, args, kwargs)
                outermost = outer_regularity and self._regularity_depth == 0
                if outer_regularity:
                    self._regularity_depth += 1
                frame = [0.0]
                self._stack.append(frame)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    self._stack.pop()
                    self.self_s[key] += elapsed - frame[0]
                    if self._stack:
                        self._stack[-1][0] += elapsed
                    if outer_regularity:
                        self._regularity_depth -= 1
                if outermost:
                    self.counts["regularity.descent.calls"] += 1
                    self.counts["regularity.trace_rows"] += len(result.rows)
                _measure_result(self.counts, attr, result)
                return result
            return wrapper
        return make

    def _counted(self, counter):
        def make(fn):
            if counter:
                def wrapper(*args, **kwargs):
                    self.counts[counter] += 1
                    return fn(*args, **kwargs)
                return wrapper
            if not hasattr(fn, "cache_info"):
                return fn

            def cached(*args, **kwargs):
                before = fn.cache_info().misses
                result = fn(*args, **kwargs)
                if fn.cache_info().misses != before:
                    self.counts["borel.monomial_basis.terms_cached"] += len(
                        result)
                return result
            return cached
        return make

    def _cache_state(self):
        return {name: fn.cache_info() for name, fn in self._caches.items()}

    def item_begin(self):
        self._snapshot = (dict(self.counts), self._cache_state())

    def item_end(self, completed: bool):
        """Keep the item's counters, or drop them if it was cut short."""
        counts, caches = self._snapshot
        if not completed:
            self.counts = counts
            return
        for name, info in self._cache_state().items():
            total = self.cache_totals[name]
            total[0] += info.hits - caches[name].hits
            total[1] += info.misses - caches[name].misses

    def metrics(self) -> dict:
        out = {"%s.self_ms" % key: seconds * 1000.0
               for key, seconds in self.self_s.items()}
        out.update(self.counts)
        for name, (hits, misses) in self.cache_totals.items():
            out[name] = hits / (hits + misses) if hits + misses else 0.0
        return out


def metric_units() -> dict:
    """Every per-layer metric Tracer.metrics() reports, with its unit."""
    units = {"%s.self_ms" % key: "ms" for key in SELF_KEYS}
    units.update(dict.fromkeys(COUNTS, "count"))
    units.update(dict.fromkeys(CACHES, "ratio"))
    return units
