"""One workload process, started by run.py.

Imports the package from the checkout's src/, makes one small warm-up call of
each subcommand and coloring, prints READY (run.py times set-up up to that line), then drives
``fadingdof.cli.main(argv)`` in a closed loop: one client, the next call only
after the previous one returned, whole rounds until the time is up. Every
call's stdout is captured and checked by the gate. At the end the first call
of each family is repeated and its stdout must be byte-identical. With
--trace 1 the timed phase gets half the time, and its exact call sequence is
then replayed with the span recorder installed; the per-layer metrics come
from that replay. The last stdout line is one JSON report.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import gate
import spans
from workloads import WORKLOADS, call_seed, rounds

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
TAIL_BEYOND = 10


def load_cli_main():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from fadingdof import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"fadingdof was imported from {cli.__file__}, not from {src}")
    return cli.main


def run_call(main, argv):
    """(exit code, stdout) of one in-process CLI call; a raise counts as exit 1."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a raising call is a failed unit, not a crashed benchmark
            return 1, traceback.format_exc()
    return code, out.getvalue()


class Tally:
    """Units attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, kind, argv, code, out):
        bad, reason = gate.check(kind, code, out)
        self.attempted += kind.units
        self.failed += bad
        if reason and len(self.reasons) < 20:
            self.reasons.append(f"{' '.join(argv)}: {reason}")
        return bad


def timed_phase(main, workload, seed, seconds, tally):
    """Whole rounds until `seconds` have passed.

    Returns the calls as (kind, argv, ms), each round's units per second, the
    wall seconds, and the stdout of the first call of each family for the
    determinism check.
    """
    calls, rates, first = [], [], {}
    perf = time.perf_counter
    start = perf()
    for batch in rounds(workload, seed):
        round_start = perf()
        for kind, argv in batch:
            t0 = perf()
            code, out = run_call(main, argv)
            ms = (perf() - t0) * 1e3
            tally.add(kind, argv, code, out)
            calls.append((kind, argv, ms))
            first.setdefault(kind.family, (kind, argv, out))
        now = perf()
        rates.append(sum(kind.units for kind, _ in batch) / (now - round_start))
        if now - start >= seconds:
            return calls, rates, now - start, first


def determinism(main, first, tally):
    """Repeat the first call of each family; its stdout must not change."""
    for kind, argv, out in first.values():
        code, again = run_call(main, argv)
        bad = tally.add(kind, argv, code, again)
        if again != out:
            tally.failed += kind.units - bad
            tally.reasons.append(f"{' '.join(argv)}: stdout differs on repeat")
    return sorted(first)


def end_to_end(calls, rates, wall):
    ms = sorted(c[2] for c in calls)
    n = len(ms)
    tail_at = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    metrics = {
        # The median over rounds resists the machine's slow spells better than a
        # whole-run mean; every round holds the same mix of calls.
        "units_per_s": (statistics.median(rates), "1/s"),
        "call_ms.p50": (statistics.median(ms), "ms"),
        "call_ms.tail": (ms[tail_at], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    per_kind = {}
    for kind, _, t in calls:
        per_kind.setdefault(kind.label, []).append(t)
    details = {
        "calls": n,
        "tail_percentile": 100.0 * tail_at / n if n else 0.0,
        "tail_calls_beyond": n - 1 - tail_at,
        "rounds": len(rates),
        "wall_s": wall,
        "mean_units_per_s": sum(c[0].units for c in calls) / wall,
        "kind_median_ms": {k: statistics.median(v) for k, v in sorted(per_kind.items())},
    }
    return metrics, details


def blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded (None if not found)."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_metadata():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def traced_replay(main, calls, args, tally):
    rec = spans.Recorder()
    rec.install()
    traced_ms = 0.0
    try:
        for kind, argv, _ in calls:
            t0 = time.perf_counter()
            code, out = run_call(lambda a: rec.run_call(main, a), argv)
            traced_ms += (time.perf_counter() - t0) * 1e3
            tally.add(kind, argv, code, out)
    finally:
        rec.uninstall()
    untraced_ms = sum(c[2] for c in calls)
    units = sum(c[0].units for c in calls)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    rec.write_jsonl(path)
    metrics = spans.layer_metrics(rec, units, traced_ms, untraced_ms)
    return metrics, {"spans": len(rec.spans), "spans_file": str(path.relative_to(ROOT)),
                     "absent": rec.absent}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    problems = gate.self_test()
    if problems:
        sys.stderr.write("gate self-test failed:\n  " + "\n  ".join(problems) + "\n")
        return 1
    cli_main = load_cli_main()
    tally = Tally()
    kinds = WORKLOADS[args.workload]
    for wargv in dict.fromkeys(tuple(k.warmup_argv(call_seed(args.seed, -1))) for k in kinds):
        code, out = run_call(cli_main, wargv)
        if code != 0:
            sys.stderr.write(f"warm-up call {' '.join(wargv)} exited {code}\n{out}")
            return 1
    print("READY", flush=True)
    if args.setup_only:
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    calls, rates, wall, first = timed_phase(cli_main, args.workload, args.seed, seconds, tally)
    metrics, details = end_to_end(calls, rates, wall)
    if args.trace:
        metrics, trace_details = traced_replay(cli_main, calls, args, tally)
        details.update(trace_details)
    details["determinism_checked"] = determinism(cli_main, first, tally)
    details["meta"] = run_metadata()
    report = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
