"""Output gate: checks every CLI call of a workload and counts failed units.

``check(kind, code, out)`` returns ``(failed_units, reason)``; reason is None
when every unit passed. A nonzero exit code or unparsable output fails every
unit of the call. ``self_test()`` feeds the gate valid and corrupted outputs
and returns the cases it judged wrongly; the benchmark refuses to run when
that list is not empty.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import N12, Kind

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))

MAX_PARAM_ERROR = 1e-6
MC_SIGMAS = 5.0
# From this many samples on, a call's stderr is steady enough to check: it must
# lie within STDERR_SLACK of the range the reference calls gave. The mean alone
# cannot tell log|det| from log|det|^2 on the small cells, where colorings
# spread the mean by more than half its size; the stderr halves with it.
STDERR_CHECK_SAMPLES = 64
STDERR_SLACK = 1.25


def _fail_all(kind, reason):
    return kind.units, reason


def _genericity(kind, out):
    d = json.loads(out)
    n, trials = d["n_nonsingular"], d["trials"]
    if trials != kind.units or d["fraction_nonsingular"] != n / trials:
        return _fail_all(kind, f"inconsistent probe stats {d}")
    bad = n if kind.constant else trials - n
    return bad, (f"{bad} of {trials} probes misjudged" if bad else None)


def _mc_logdet(kind, out):
    d = json.loads(out)
    if d["samples"] != kind.units:
        return _fail_all(kind, f"samples {d['samples']} != {kind.units}")
    if kind.constant:
        ok = d["clipped_fraction"] == 1.0
        return (0, None) if ok else _fail_all(kind, f"constant model not clipped: {d}")
    if d["clipped_fraction"] != 0.0:
        return _fail_all(kind, f"generic draws clipped: {d}")
    ref = REFERENCE["mc_logdet"].get(kind.dims)
    if ref is None or ref["samples"] != kind.units:
        return _fail_all(kind, f"no reference for dims {kind.dims} with {kind.units} samples")
    # ref["sd"] already holds one call's sampling spread besides the coloring's.
    combined = math.sqrt(ref["sd"] ** 2 + ref["stderr"] ** 2)
    if not abs(d["mean"] - ref["mean"]) <= MC_SIGMAS * combined:
        return _fail_all(kind, f"mean {d['mean']} vs reference {ref['mean']} +- {combined}")
    if kind.units >= STDERR_CHECK_SAMPLES:
        lo = ref["call_stderr"]["min"] / STDERR_SLACK
        hi = ref["call_stderr"]["max"] * STDERR_SLACK
        if not lo <= d["stderr"] <= hi:
            return _fail_all(kind, f"stderr {d['stderr']} outside [{lo}, {hi}]")
    return 0, None


def _identify(kind, out):
    d = json.loads(out)
    if d["trials"] != kind.units:
        return _fail_all(kind, f"trials {d['trials']} != {kind.units}")
    if not d["median_param_error"] < MAX_PARAM_ERROR:
        return _fail_all(kind, f"median_param_error {d['median_param_error']}")
    return 0, None


def _verify_all(kind, out):
    lines = out.splitlines()
    if not lines or not all(line.startswith("[PASS]") for line in lines):
        return _fail_all(kind, "verify-all reported a failure")
    return 0, None


def _witness(kind, out):
    header, sep, _ = out.partition("\nsparsity pattern:")
    if not sep:
        return _fail_all(kind, "no sparsity pattern")
    d = json.loads(header)
    re, im = int(d["exact_det"]["re"]), int(d["exact_det"]["im"])
    if (re, im) == (0, 0) or d["certified_nonzero"] is not True:
        return _fail_all(kind, f"exact determinant {re}+{im}i not certified nonzero")
    abs_det = d["abs_det"]
    if not (0.0 < abs_det < math.inf):
        return _fail_all(kind, f"float abs_det {abs_det} unusable")
    if not abs(math.log(re * re + im * im) / 2 - math.log(abs_det)) <= 1e-6:
        return _fail_all(kind, f"|exact det| != abs_det {abs_det}")
    return 0, None


CHECKS = {
    "genericity": _genericity,
    "mc-logdet": _mc_logdet,
    "identify": _identify,
    "verify-all": _verify_all,
    "jacobian-witness": _witness,
}


def check(kind, code, out):
    if code != 0:
        return _fail_all(kind, f"exit code {code}")
    try:
        return CHECKS[kind.command](kind, out)
    except (ValueError, KeyError, TypeError) as exc:
        return _fail_all(kind, f"unparsable output: {exc!r}")


def self_test():
    """Cases the gate gets wrong; an empty list means it caught every corruption."""

    def kind(command, units, dims=N12, constant=False):
        return Kind(command, dims, units, constant)

    gen = kind("genericity", 64)
    probe = {"trials": 64, "n_nonsingular": 64, "fraction_nonsingular": 1.0,
             "min_abs_det": 0.1, "min_sigma_ratio": 0.01}
    ref = REFERENCE["mc_logdet"][N12]
    mc = kind("mc-logdet", ref["samples"])
    typical_se = (ref["call_stderr"]["min"] + ref["call_stderr"]["max"]) / 2
    est = {"mean": ref["mean"], "stderr": typical_se, "samples": ref["samples"],
           "clipped_fraction": 0.0}
    ident = kind("identify", 10)
    rec = {"trials": 10, "success_rate": 1.0, "median_residual": 1e-16,
           "median_param_error": 1e-15}
    wit = kind("jacobian-witness", 1)
    cert = {"abs_det": 1.0, "exact_det": {"re": "-1", "im": "0"}, "certified_nonzero": True}
    sep = "\nsparsity pattern:\n#.\n.#\n"
    cases = [
        # (label, kind, exit code, stdout, expected failed units)
        ("valid probe", gen, 0, json.dumps(probe), 0),
        ("fraction 0.5 on a generic cell", gen, 0,
         json.dumps({**probe, "fraction_nonsingular": 0.5}), 64),
        ("32 singular generic probes", gen, 0,
         json.dumps({**probe, "n_nonsingular": 32, "fraction_nonsingular": 0.5}), 32),
        ("nonsingular constant-model probe", kind("genericity", 64, constant=True), 0,
         json.dumps({**probe, "n_nonsingular": 1, "fraction_nonsingular": 1 / 64}), 1),
        ("valid estimate", mc, 0, json.dumps(est), 0),
        ("estimate off by 100", mc, 0, json.dumps({**est, "mean": ref["mean"] + 100}), mc.units),
        ("log|det| in place of log|det|^2", mc, 0,
         json.dumps({**est, "mean": ref["mean"] / 2, "stderr": typical_se / 2}), mc.units),
        ("stderr doubled", mc, 0, json.dumps({**est, "stderr": typical_se * 2}), mc.units),
        ("unclipped constant model", kind("mc-logdet", mc.units, constant=True), 0,
         json.dumps(est), mc.units),
        ("valid recovery", ident, 0, json.dumps(rec), 0),
        ("inaccurate recovery", ident, 0, json.dumps({**rec, "median_param_error": 1e-3}), 10),
        ("valid certificate", wit, 0, json.dumps(cert) + sep, 0),
        ("zero exact determinant", wit, 0,
         json.dumps({**cert, "exact_det": {"re": "0", "im": "0"}}) + sep, 1),
        ("magnitude mismatch", wit, 0, json.dumps({**cert, "abs_det": 2.0}) + sep, 1),
        ("verify-all failure", kind("verify-all", 1), 0, "[PASS] a\n[FAIL] b\n", 1),
        ("nonzero exit", ident, 1, json.dumps(rec), 10),
        ("truncated output", ident, 0, json.dumps(rec)[:20], 10),
    ]
    return [
        f"{label}: expected {want} failed units, gate said {got} ({reason})"
        for label, k, code, out, want in cases
        for got, reason in [check(k, code, out)]
        if got != want
    ]
