"""Span recorder for the traced run.

The library is not edited: tracing replaces, from outside, the public
functions at each module boundary of ``fadingdof`` and the ``numpy.linalg``
entry points with wrappers that record a span per call. A span is
``[name, start_ns, end_ns, parent_id, call_id]``; its id is its index in
``Recorder.spans``. Spans stay in memory and are written as JSONL when the run
ends. A target that a later refactor removes is reported as absent (0 calls).

The workloads are single-threaded, so one parent stack is enough.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

LAYERS = ("cli", "model", "pilots", "dof", "jacobian", "identify", "analysis", "linalg")

# (module, function) pairs wrapped in the traced run. The span name is
# "<layer>.<function>", where the layer is the module's last dotted part
# ("linalg" for numpy.linalg).
TARGETS = (
    ("fadingdof.model", "build_B"),
    ("fadingdof.model", "random_coloring"),
    ("fadingdof.pilots", "build_pilot_sets"),
    ("fadingdof.pilots", "verify_pilot_properties"),
    ("fadingdof.dof", "chi_low_star"),
    ("fadingdof.dof", "chi_low_star_brute"),
    ("fadingdof.jacobian", "assemble_jacobian"),
    ("fadingdof.jacobian", "genericity_probe"),
    ("fadingdof.jacobian", "witness_construct"),
    ("fadingdof.jacobian", "certify_witness_exact"),
    ("fadingdof.jacobian", "exact_gaussian_integer_det"),
    ("fadingdof.identify", "recover"),
    ("fadingdof.identify", "forward_map"),
    ("fadingdof.analysis", "mc_logdet"),
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "slogdet"),
    ("numpy.linalg", "solve"),
    ("numpy.linalg", "lstsq"),
)


def _linalg_size(rec, args, kwargs):
    """Computed (not measured) work of a factorization: sum of m*k*min(m, k) and bytes."""
    a = args[0] if args else next(iter(kwargs.values()), None)
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return
    m, k = shape[-2], shape[-1]
    batch = math.prod(shape[:-2])
    rec.count("linalg.work_n3", batch * m * k * min(m, k))
    rec.count("linalg.bytes", batch * m * k * a.itemsize)


def _after_probe(rec, out):
    rec.count("probe.trials", getattr(out, "trials", 0) or 0)
    rec.count("probe.nonsingular", getattr(out, "n_nonsingular", 0) or 0)


def _after_mc(rec, out):
    samples = getattr(out, "samples", 0)
    rec.count("mc.samples", samples)
    rec.count("mc.clipped", round(getattr(out, "clipped_fraction", 0.0) * samples))


def _after_recover(rec, out):
    rec.count("recover.calls", 1)
    rec.count("recover.iterations", getattr(out, "iterations", 0))
    rec.count("recover.success", int(bool(getattr(out, "success", False))))


BEFORE = {f"linalg.{f}": _linalg_size for f in ("svd", "slogdet", "solve", "lstsq")}
AFTER = {
    "jacobian.genericity_probe": _after_probe,
    "analysis.mc_logdet": _after_mc,
    "identify.recover": _after_recover,
}


class Recorder:
    """Collects spans and counters; installs and removes the wrappers."""

    def __init__(self):
        self.spans: list = []
        self.calls: list = []  # argv of each CLI call, indexed by call id
        self.counters: dict = {}
        self.absent: list = []
        self._stack: list = []
        self._call = None
        self._patched: list = []

    def count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name, fn):
        before, after = BEFORE.get(name), AFTER.get(name)
        spans, stack, perf = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[sid] = [name, t0, t1, parent, self._call]
            if after is not None:
                after(self, out)
            return out

        return wrapper

    def run_call(self, main, argv):
        """Run one CLI call as a root span named cli.main."""
        self._call = len(self.calls)
        self.calls.append(list(argv))
        try:
            return self.wrap("cli.main", main)(list(argv))
        finally:
            self._call = None

    def install(self):
        """Replace every reference to each target inside fadingdof and numpy.linalg."""
        scopes = [m for n, m in list(sys.modules.items()) if n.startswith("fadingdof")]
        scopes.append(importlib.import_module("numpy.linalg"))
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name.rsplit('.', 1)[-1]}.{fn_name}"
            try:
                orig = getattr(importlib.import_module(mod_name), fn_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, orig)
            for scope in scopes:
                for attr, value in list(vars(scope).items()):
                    if value is orig:
                        setattr(scope, attr, wrapper)
                        self._patched.append((scope, attr, orig))

    def uninstall(self):
        for scope, attr, orig in reversed(self._patched):
            setattr(scope, attr, orig)
        self._patched.clear()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for cid, argv in enumerate(self.calls):
                fh.write(json.dumps({"call": cid, "argv": argv}) + "\n")
            for sid, (name, t0, t1, parent, cid) in enumerate(self.spans):
                fh.write(
                    f'{{"id":{sid},"name":"{name}","start_ns":{t0},"end_ns":{t1},'
                    f'"parent":{json.dumps(parent)},"call":{json.dumps(cid)}}}\n'
                )

    def summarize(self):
        """Per span name: calls, inclusive ms and self ms (duration minus children)."""
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        by_name: dict = {}
        fwd_in_recover = 0
        for sid, (name, t0, t1, parent, _) in enumerate(self.spans):
            row = by_name.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child_ns[sid]
            if name == "identify.forward_map" and parent is not None:
                fwd_in_recover += self.spans[parent][0] == "identify.recover"
        self.counters["recover.forward_map"] = fwd_in_recover
        return {k: {"calls": c, "ms": ns / 1e6, "self_ms": s / 1e6} for k, (c, ns, s) in by_name.items()}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec, units, traced_ms, untraced_ms):
    """The per-layer metrics of BENCHMARK.json from one traced run."""
    by = rec.summarize()
    c = rec.counters

    def get(name, field):
        return by.get(name, {}).get(field, 0)

    def calls(name):
        return get(name, "calls"), "count"

    def ms(name, field="ms"):
        return get(name, field), "ms"

    m = {
        "linalg.svd.calls": calls("linalg.svd"),
        "linalg.svd.ms": ms("linalg.svd"),
        "linalg.slogdet.calls": calls("linalg.slogdet"),
        "linalg.slogdet.ms": ms("linalg.slogdet"),
        "linalg.svd.per_unit": (_ratio(get("linalg.svd", "calls"), units), "calls/unit"),
        "linalg.solve.calls": calls("linalg.solve"),
        "linalg.solve.ms": ms("linalg.solve"),
        "linalg.lstsq.calls": calls("linalg.lstsq"),
        "linalg.work_n3": (c.get("linalg.work_n3", 0), "n3.computed"),
        "linalg.bytes": (c.get("linalg.bytes", 0), "B.computed"),
        "jacobian.assemble_jacobian.calls": calls("jacobian.assemble_jacobian"),
        "jacobian.assemble_jacobian.ms": ms("jacobian.assemble_jacobian"),
        "jacobian.assemble_jacobian.self_ms": ms("jacobian.assemble_jacobian", "self_ms"),
        "model.build_B.calls": calls("model.build_B"),
        "model.build_B.ms": ms("model.build_B"),
        "model.random_coloring.ms": ms("model.random_coloring"),
        "jacobian.genericity_probe.ms": ms("jacobian.genericity_probe"),
        "jacobian.nonsingular_ratio": (
            _ratio(c.get("probe.nonsingular", 0), c.get("probe.trials", 0)), "ratio"),
        "analysis.mc_logdet.ms": ms("analysis.mc_logdet"),
        "analysis.clipped_fraction": (
            _ratio(c.get("mc.clipped", 0), c.get("mc.samples", 0)), "ratio"),
        "identify.recover.ms": ms("identify.recover"),
        "identify.forward_map.calls": calls("identify.forward_map"),
        "identify.forward_map.ms": ms("identify.forward_map"),
        "identify.iterations": (
            _ratio(c.get("recover.iterations", 0), c.get("recover.calls", 0)), "iter/trial"),
        "identify.evals_per_iteration": (
            _ratio(c.get("recover.forward_map", 0), c.get("recover.iterations", 0)), "evals/iter"),
        "identify.success_ratio": (
            _ratio(c.get("recover.success", 0), c.get("recover.calls", 0)), "ratio"),
        "jacobian.exact_gaussian_integer_det.ms": ms("jacobian.exact_gaussian_integer_det"),
        "jacobian.witness_construct.ms": ms("jacobian.witness_construct"),
        "dof.chi_low_star.ms": ms("dof.chi_low_star"),
        "dof.chi_low_star_brute.ms": ms("dof.chi_low_star_brute"),
        "pilots.verify_pilot_properties.ms": ms("pilots.verify_pilot_properties"),
        "pilots.build_pilot_sets.calls": calls("pilots.build_pilot_sets"),
        "pilots.build_pilot_sets.ms": ms("pilots.build_pilot_sets"),
        "cli.main.self_ms": ms("cli.main", "self_ms"),
    }
    for layer in LAYERS[1:]:  # the cli layer's self time is cli.main.self_ms
        self_ms = sum(v["self_ms"] for k, v in by.items() if k.split(".", 1)[0] == layer)
        m[f"layer.{layer}.self_ms"] = (self_ms, "ms")
    m["trace.units"] = (units, "count")
    m["trace.overhead_frac"] = (traced_ms / untraced_ms - 1.0, "ratio")
    return m
