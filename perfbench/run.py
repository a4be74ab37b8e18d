"""Benchmark of the fadingdof CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, untraced

Runs each workload in its own worker process (worker.py), which drives
``fadingdof.cli.main(argv)`` in-process and checks every output. setup_s is
the least, over 2 * SETUPS + 1 fresh processes, of the time from process start
to the end of the warm-up calls. Prints every metric by name and unit, then, as
the last line, one JSON object with the keys correct, attempted, failed and
metrics. Exits 1 when any output check failed, 2 when the checkout holds no
package to benchmark. Results also go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up-only processes started before the measured worker and again after it.
# The host's speed switches between fast and slow spells lasting seconds, so
# setup_s takes the fastest of all 2 * SETUPS + 1 set-ups, half a run apart.
SETUPS = 4
# Seconds a workload may take beyond two measured lengths (three with --trace 1,
# which also replays the timed phase) before its worker is killed.
DEADLINE_MARGIN_S = 60.0


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def spawn(args, setup_only, timeout):
    """Start a worker; returns (seconds until READY, its JSON report or None, exit code)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        killer = threading.Timer(max(1.0, timeout), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
    if ready.strip() != "READY" or code != 0:
        return None, None, code or 1
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None), 0


def run_workload(args):
    """Set-up probes around the measured worker. Returns the report, or None if a worker failed."""
    deadline = time.perf_counter() + DEADLINE_MARGIN_S + (2 + args.trace) * args.seconds
    setups = []

    def probe_setups():
        for _ in range(0 if args.trace else SETUPS):
            setup_s, _, code = spawn(args, True, deadline - time.perf_counter())
            if setup_s is None:
                sys.stderr.write(f"{args.workload}: set-up process exited {code}\n")
                return False
            setups.append(setup_s)
        return True

    if not probe_setups():
        return None
    setup_s, report, code = spawn(args, False, deadline - time.perf_counter())
    if report is None:
        sys.stderr.write(f"{args.workload}: worker exited {code} without a report\n")
        return None
    setups.append(setup_s)
    if not probe_setups():
        return None
    if not args.trace:
        report["metrics"]["setup_s"] = {"value": min(setups), "unit": "s"}
    report["details"]["setup_s_samples"] = setups
    report["details"]["meta"].update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        git_commit=git_commit())
    return report


def print_report(name, report):
    att, bad = report["attempted"], report["failed"]
    d = report["details"]
    print(f"== {name}  (seed {d['meta']['seed']}, {d['calls']} calls, {att} units)")
    for key, m in report["metrics"].items():
        print(f"  {key:<42} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_frac':<42} {bad / att:>16.6g} fraction")
    if "call_ms.tail" in report["metrics"]:
        print(f"  call_ms.tail is p{d['tail_percentile']:.2f}, "
              f"{d['tail_calls_beyond']} calls beyond it")
    for reason in report["failures"]:
        print(f"  FAILED {reason}")
    print(f"  meta {json.dumps(d['meta'], sort_keys=True)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the fadingdof CLI.")
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None,
                   help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "fadingdof" / "cli.py").is_file():
        sys.stderr.write(f"no fadingdof package under {ROOT / 'src'}; nothing to benchmark\n")
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    declared = {m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        report = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        if report is None:
            return 1
        if set(report["metrics"]) != declared:
            sys.stderr.write(f"{name}: metrics differ from BENCHMARK.json: "
                             f"{sorted(set(report['metrics']) ^ declared)}\n")
            return 1
        reports[name] = report
        (HERE / "out").mkdir(exist_ok=True)
        out = HERE / "out" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(report, indent=2) + "\n")
        print_report(name, report)

    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    if len(reports) == 1:
        metrics = next(iter(reports.values()))["metrics"]
    else:
        metrics = {f"{n}/{k}": m for n, r in reports.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
