"""Regenerate reference.json: the reference mc-logdet estimates the gate uses.

For every generic mc-logdet kind of the workloads, runs the same CLI call
(same dims, same sample count) with CALLS seeds from a namespace the
workloads never use, and stores the mean of the call means, their standard
deviation (coloring-to-coloring plus sampling spread of one call), the
standard error of the mean, and the least and greatest stderr that one call
reported. Run from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from pathlib import Path

from workloads import WORKLOADS, call_seed

ROOT = Path(__file__).resolve().parent.parent
CALLS = 200


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from fadingdof.cli import main as cli_main

    kinds = {k for ks in WORKLOADS.values() for k in ks if k.command == "mc-logdet" and not k.constant}
    ref = {}
    for kind in sorted(kinds):
        means, stderrs = [], []
        for i in range(CALLS):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(kind.argv(call_seed(f"reference/{kind.dims}", i)))
            if code != 0:
                raise SystemExit(f"{kind.label} exited {code}")
            est = json.loads(buf.getvalue())
            means.append(est["mean"])
            stderrs.append(est["stderr"])
        sd = statistics.stdev(means)
        ref[kind.dims] = {
            "samples": kind.units,
            "calls": CALLS,
            "mean": statistics.fmean(means),
            "sd": sd,
            "stderr": sd / CALLS**0.5,
            "call_stderr": {"min": min(stderrs), "max": max(stderrs)},
        }
        print(kind.dims, ref[kind.dims], flush=True)
    out = {"mc_logdet": ref}
    (Path(__file__).parent / "reference.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
