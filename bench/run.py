"""Benchmark for minreg: one workload per invocation.

    python3 bench/run.py --workload {queries,witness,verify} --seed N \
        --seconds S --trace {0,1}

The workload's items are made from the seed once per run and written,
with the certificates that `verify` items name, to a directory under
bench/.work/ that the run removes at its end.  A run is made of rounds.
Each round is a fresh interpreter (bench/worker.py) that imports minreg,
loads the items and runs every item once through `minreg.cli.main`, so
the program's caches start cold in every round and are shared by the
items of a round, as in one user session.  Rounds repeat until S seconds
have passed.

On a shared host the CPU can run slower for seconds at a time, so every
item keeps its fastest time in the run: the item percentiles are taken
over those times, and `wall_s` is their sum, a pass at the host's best
speed.  Peak memory is the median round.  Set-up time is the median over
every round and twelve more fresh interpreters that only set up, half
before the rounds and half after.

Outputs are checked by checks.py, outside the timed region: the first
round's outputs in full, the later rounds' against the first.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
metrics from the traced pass with --trace 1, which also keeps every
round's per-layer metrics in bench/traces/).
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
TRACES = os.path.join(HERE, "traces")
WORK = os.path.join(HERE, ".work")
SETUP_PROBES = 12
# Stop starting rounds once a run could not end within this many seconds.
RUN_LIMIT_S = 140.0

sys.path.insert(0, HERE)

import checks  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def write_inputs(items, workdir):
    """Write each certificate an item verifies to a file of its own, and
    the items as the worker reads them; return the items file."""
    runnable = []
    for n, item in enumerate(items):
        argv = item["argv"]
        if "certificate" in item:
            path = os.path.join(workdir, "%03d.json" % n)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(item["certificate"], handle)
            argv = [path if a == "{certificate}" else a for a in argv]
        runnable.append(dict(id=item["id"], argv=argv))
    path = os.path.join(workdir, "items.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(runnable, handle)
    return path


def worker(inputs, *flags):
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, WORKER, "--inputs", inputs] + list(flags), cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=RUN_LIMIT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def descent(function_text):
    """`minreg minreg --hf <function> --json`, run in this process."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from minreg.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        main(["minreg", "--hf", function_text, "--json"])
    return json.loads(out.getvalue())


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def write_trace(args, rounds):
    """Keep every round's per-layer metrics in bench/traces/."""
    os.makedirs(TRACES, exist_ok=True)
    path = os.path.join(TRACES, "%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "wall_s": [r["wall_s"] for r in rounds],
                   "rounds": [r["trace"] for r in rounds]}, handle, indent=1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "minreg", "cli.py")):
        raise SystemExit("no minreg sources under %s" % ROOT)
    started = time.perf_counter()

    selftest_failures = selftest.run()
    for failure in selftest_failures:
        print("self-test: %s" % failure, file=sys.stderr)

    items = workloads.WORKLOADS[args.workload](args.seed)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        inputs = write_inputs(items, workdir)
        flags = ["--trace"] if args.trace else []
        probes = 0 if args.trace else SETUP_PROBES // 2
        setups = [worker(inputs, "--setup-only")["setup_s"]
                  for _ in range(probes)]
        rounds = []
        rounds_start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            rounds.append(worker(inputs, *flags))
            now = time.perf_counter()
            if now - rounds_start >= args.seconds:
                break
            if now - started + 2 * (now - round_start) > RUN_LIMIT_S:
                break
        setups += [worker(inputs, "--setup-only")["setup_s"]
                   for _ in range(probes)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = rounds[0]["results"]
    wrong = checks.problems(items, first, descent)
    for later in rounds[1:]:
        for item in items:
            a, b = first[item["id"]], later["results"][item["id"]]
            if (a["status"], a["code"], a["out"]) != (b["status"], b["code"],
                                                      b["out"]):
                wrong.setdefault(item["id"], "output differs between rounds")
    for item_id, reason in sorted(wrong.items()):
        print("wrong: %s: %s" % (item_id, reason), file=sys.stderr)

    attempted = failed = 0
    best = {}
    for rnd in rounds:
        for item in items:
            result = rnd["results"][item["id"]]
            attempted += 1
            if result["status"] != "ok" or item["id"] in wrong:
                failed += 1
                if rnd is rounds[0]:
                    print("failed: %s: %s" % (item["id"], result["status"]
                                              if result["status"] != "ok"
                                              else wrong[item["id"]]),
                          file=sys.stderr)
            best[item["id"]] = min(best.get(item["id"], float("inf")),
                                   result["seconds"])
    print("%d round(s) of %d items" % (len(rounds), len(items)),
          file=sys.stderr)

    if args.trace:
        print("traced wall_s: %.4f" % sum(best.values()),
              file=sys.stderr)
        write_trace(args, rounds)
        metrics = {name: {"value": statistics.median(r["trace"][name]
                                                     for r in rounds),
                          "unit": unit}
                   for name, unit in tracing.metric_units().items()}
    else:
        setups += [r["setup_s"] for r in rounds]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (sum(best.values()), "s"),
            "item_p50_ms": (statistics.median(best.values()) * 1000.0, "ms"),
            "item_p90_ms": (percentile(best.values(), 0.9) * 1000.0, "ms"),
            "peak_rss_mib": (statistics.median(r["peak_rss_mib"]
                                               for r in rounds), "MiB"),
        }
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": not wrong and not selftest_failures,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
