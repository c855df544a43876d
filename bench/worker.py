"""One pass of one workload in a fresh interpreter.

    python3 bench/worker.py --inputs ITEMS.json [--setup-only] [--trace]

ITEMS.json is the list of items run.py made from the seed, each with its
`id` and `argv`; the certificates that `verify` items name are
already on disk beside it.  Set-up is timed from before `import minreg`
to the moment the items are loaded, so interpreter start-up is left out.  The pass then calls
`minreg.cli.main(argv)` in-process for each item, in one thread, with a
per-item cap of ITEM_CAP seconds, enforced by SIGALRM.  The last line of standard output is
one JSON object with the timings, the peak resident memory and every
item's exit code and output.
"""

import sys
import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Every item finishes far below this today.
ITEM_CAP = 10.0


class ItemCap(BaseException):
    """Raised by the alarm inside the program; a BaseException so that no
    `except Exception` in the program can swallow it."""


def _alarm(signum, frame):
    raise ItemCap()


def import_minreg():
    """Import minreg from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import minreg.cli
    where = os.path.dirname(os.path.abspath(minreg.__file__))
    if where != os.path.join(SRC, "minreg"):
        raise ImportError("minreg came from %s, not %s" % (where, SRC))
    return minreg.cli


def peak_rss_mib():
    """VmHWM of this process.  ru_maxrss would not do: at exec the kernel
    carries over the resident peak of the parent's address space, and
    run.py's grows with the rounds it has collected."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def run_item(cli, argv):
    out = io.StringIO()
    code, status, error = None, "ok", None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, ITEM_CAP)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except ItemCap:
        status = "cap"
    except Exception as exc:  # an uncaught error is a failed item
        status, error = "exception", type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    return dict(code=code, status=status, error=error, seconds=seconds,
                out=out.getvalue())


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    cli = import_minreg()
    with open(args.inputs, encoding="utf-8") as handle:
        items = json.load(handle)
    report = dict(setup_s=time.perf_counter() - SETUP_START)
    if not args.setup_only:
        report.update(timed_pass(cli, items, args.trace))
    sys.stdout.write(json.dumps(report) + "\n")


def timed_pass(cli, items, trace):
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install("minreg")
    signal.signal(signal.SIGALRM, _alarm)
    results = {}
    start = time.perf_counter()
    for item in items:
        if tracer:
            tracer.item_begin()
        result = run_item(cli, item["argv"])
        if tracer:
            tracer.item_end(result["status"] != "cap")
        results[item["id"]] = result
    wall_s = time.perf_counter() - start
    peak = peak_rss_mib()
    report = dict(wall_s=wall_s, peak_rss_mib=peak, results=results)
    if tracer:
        report["trace"] = tracer.metrics()
    return report


if __name__ == "__main__":
    main()
