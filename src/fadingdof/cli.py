"""Command-line entry point.

Subcommands: dof, figure1, pilots, jacobian-witness, genericity, identify,
mc-logdet, verify-all. Exit codes: 0 ok, 1 property failure, 2 usage error,
3 invalid regime. Randomized subcommands require --seed; there is no
wall-clock default, so identical invocations produce byte-identical output
on the same numpy/BLAS build and BLAS thread count (the last bits of LAPACK
results on large matrices can change with the thread count).
Exact quantities are always emitted as a fraction string with the decimal
alongside. This module only parses, validates, dispatches to the library and
writes the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import sys
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from . import analysis, dof, identify, jacobian, pilots
from .model import Dims, InvalidConfigurationError, constant_model, random_coloring
from .verify import run_verify_all

__all__ = ["main", "SweepConfig"]

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_USAGE = 2
EXIT_REGIME = 3
# genericity --trials when the flag is not given.
DEFAULT_TRIALS = 100


class UsageError(Exception):
    """A flag that is missing, conflicting or unusable; main() exits 2 with the message."""


@dataclass(frozen=True)
class SweepConfig:
    """Grid of configurations for sweep mode, loaded from a JSON file.

    Fields: lists of T, R, N, Q values, a list of seeds, trials per cell and
    the output path (or null for stdout). Rows are written as JSON lines. A
    file that is not a JSON object, a missing axis, an axis or seeds that are
    not a list, any other key, a seed or trials count that is not a
    non-negative integer and an output that is not a string are rejected. Every
    cell is validated before dispatch; invalid cells produce explicit rows
    instead of being dropped.
    """

    T: list
    R: list
    N: list
    Q: list
    seeds: list
    trials: int
    output: str | None

    @staticmethod
    def load(path: str) -> "SweepConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise UsageError(f"--sweep: cannot read {path!r}: {exc.strerror}") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise InvalidConfigurationError(f"sweep config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise InvalidConfigurationError("sweep config must be a JSON object")
        # Older configs name the one output format there is.
        if raw.pop("format", "json") != "json":
            raise InvalidConfigurationError("sweep rows are JSON lines; drop the \"format\" key")
        unknown = set(raw) - {"T", "R", "N", "Q", "seeds", "trials", "output"}
        if unknown:
            raise InvalidConfigurationError(f"unknown sweep config keys {sorted(unknown)}")
        missing = [axis for axis in "TRNQ" if axis not in raw]
        if missing:
            raise InvalidConfigurationError(f"sweep config lacks the axes {missing}")
        for name in ["T", "R", "N", "Q", "seeds"]:
            if not isinstance(raw.get(name, []), list):
                raise InvalidConfigurationError(f"sweep {name}: expected a list, got {raw[name]!r}")
        if not isinstance(raw.get("output"), (str, type(None))):
            raise InvalidConfigurationError("sweep output: expected a path or null")
        cfg = SweepConfig(
            **{axis: raw[axis] for axis in "TRNQ"},
            seeds=raw.get("seeds", []),
            trials=raw.get("trials", 0),
            output=raw.get("output"),
        )
        for name, value in [("trials", cfg.trials)] + [("seeds", seed) for seed in cfg.seeds]:
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise InvalidConfigurationError(
                    f"sweep {name}: expected a non-negative integer, got {value!r}"
                )
        return cfg


def _parse_dims(text: str, teff=None) -> Dims:
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidConfigurationError(f"--dims expects T,R,N,Q, got {text!r}")
    try:
        T, R, N, Q = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"--dims expects integers T,R,N,Q, got {text!r}") from None
    return Dims.create(T, R, N, Q, T_eff=teff)


def _open_output(path: str | None, error, name: str):
    """stdout, or path opened as UTF-8 with newlines as written; error(...) if it cannot be."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise error(f"{name}: cannot write {path!r}: {exc.strerror}") from exc


def _emit(text: str, out_path: str | None):
    if out_path is None and not text.endswith("\n"):
        text += "\n"
    with _open_output(out_path, UsageError, "--out") as fh:
        fh.write(text)


def _emit_json(obj, out_path: str | None):
    _emit(json.dumps(obj, sort_keys=True, indent=2), out_path)


def _run_sweep(cfg: SweepConfig, row, seeds=(None,)) -> int:
    """Write row(dims, seed, key) per cell and seed as a JSON line, in grid order.

    Each row is computed in turn and flushed as soon as it is done. key is
    the cell, plus the seed when seeds are given. A cell that fails
    validation gets the row {**key, "error": reason} instead; any other
    exception in a cell becomes that cell's error row too, named by its type
    (traceback on stderr), and the other cells are still written.
    """
    cells = itertools.product(cfg.T, cfg.R, cfg.N, cfg.Q)
    with _open_output(cfg.output, InvalidConfigurationError, "sweep output") as out:
        for (T, R, N, Q), seed in itertools.product(cells, seeds):
            key = {"cell": {"T": T, "R": R, "N": N, "Q": Q}}
            if seed is not None:
                key["seed"] = seed
            try:
                result = row(Dims.create(T, R, N, Q), seed, key)
            except InvalidConfigurationError as exc:
                result = {**key, "error": str(exc)}
            except Exception as exc:  # one bad cell must not lose the sweep
                cell = json.dumps(key, sort_keys=True)
                sys.stderr.write(f"sweep cell {cell} failed:\n{traceback.format_exc()}")
                result = {**key, "error": f"{type(exc).__name__}: {exc}"}
            out.write(json.dumps(result, sort_keys=True) + "\n")
            out.flush()
    return EXIT_OK


def _reject_sweep_conflicts(args, flags):
    """Usage error when any of flags, which a sweep config replaces, is given with --sweep."""
    values = {f: getattr(args, f[2:].replace("-", "_")) for f in flags}
    given = [f for f, v in values.items() if v is not None and v is not False]
    if given:
        raise UsageError(f"{', '.join(given)} not allowed with --sweep")


def _cmd_dof(args) -> int:
    if args.sweep:
        _reject_sweep_conflicts(args, ("--teff", "--out"))
        return _run_sweep(
            SweepConfig.load(args.sweep),
            lambda dims, seed, key: dof.report_to_dict(dof.dof_report(dims)),
        )
    _emit_json(dof.report_to_dict(dof.dof_report(_parse_dims(args.dims, args.teff))), args.out)
    return EXIT_OK


def _cmd_figure1(args) -> int:
    buf = io.StringIO()
    dof.write_figure1_csv(dof.figure1_curves(range(2, args.nmax + 1), antenna_cap=args.cap), buf)
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _cmd_pilots(args) -> int:
    chain = pilots.pilot_chain(_parse_dims(args.dims, args.teff))
    if args.json:
        _emit_json(pilots.assignment_to_dict(chain), args.out)
    else:
        _emit(pilots.assignment_table(chain), args.out)
    return EXIT_OK


def _cmd_witness(args) -> int:
    if not args.exact and args.seed is None:
        raise UsageError("--seed is required unless --exact is given")
    dims = _parse_dims(args.dims, args.teff)
    report = jacobian.witness_report(dims, seed=args.seed or 0, exact=args.exact, export=args.json)
    if args.json:
        _emit_json(report, args.out)
        return EXIT_OK
    pattern = report.pop("sparsity_pattern")
    text = json.dumps(report, sort_keys=True, indent=2) + "\nsparsity pattern:\n" + pattern
    _emit(text + "\n", args.out)
    return EXIT_OK


def _cmd_genericity(args) -> int:
    if args.sweep:
        _reject_sweep_conflicts(args, ("--teff", "--out", "--trials", "--seed", "--constant-model"))
        cfg = SweepConfig.load(args.sweep)

        def probe(dims, seed, key):
            stats = jacobian.genericity_probe(pilots.pilot_chain(dims), cfg.trials, seed)
            return {**key, **asdict(stats)}

        return _run_sweep(cfg, probe, cfg.seeds)
    if args.seed is None:
        raise UsageError("--seed is required")
    dims = _parse_dims(args.dims, args.teff)
    coloring = constant_model(dims) if args.constant_model else None
    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    stats = jacobian.genericity_probe(pilots.pilot_chain(dims), trials, args.seed, coloring=coloring)
    _emit_json(asdict(stats), args.out)
    return EXIT_OK


def _cmd_identify(args) -> int:
    dims = _parse_dims(args.dims, args.teff)
    coloring = constant_model(dims) if args.constant_model else None
    results = identify.run_recovery_trials(pilots.pilot_chain(dims), args.trials, args.seed, coloring=coloring)
    _emit_json(identify.recovery_summary(results), args.out)
    return EXIT_OK


def _cmd_mc_logdet(args) -> int:
    dims = _parse_dims(args.dims, args.teff)
    chain = pilots.pilot_chain(dims)
    coloring_seed, batch_seed = np.random.SeedSequence(args.seed).spawn(2)
    Z = constant_model(dims) if args.constant_model else random_coloring(dims, coloring_seed)
    est = analysis.mc_logdet(Z, chain, samples=args.samples, seed=batch_seed)
    _emit_json(asdict(est), args.out)
    return EXIT_OK


def _cmd_verify_all(args) -> int:
    return EXIT_OK if run_verify_all(n_max=args.nmax) else EXIT_PROPERTY_FAILURE


def _int_at_least(minimum: int):
    """argparse type for an integer >= minimum; anything else is a usage error naming the flag."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def _add_dims_arg(p, sweep=False):
    """--dims (or, with sweep, exactly one of --dims and --sweep), --teff and --out."""
    group = p.add_mutually_exclusive_group(required=True) if sweep else p
    group.add_argument("--dims", required=not sweep, help="problem size as T,R,N,Q")
    if sweep:
        group.add_argument("--sweep", default=None, help="JSON sweep config file")
    p.add_argument("--teff", type=int, default=None, help="active transmit antennas")
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def _dof_args(p):
    _add_dims_arg(p, sweep=True)


def _figure1_args(p):
    p.add_argument("--nmax", type=_int_at_least(2), required=True)
    p.add_argument(
        "--cap", type=_int_at_least(1), default=None, help="antenna cap for the bounded series"
    )
    p.add_argument("--out", default=None)


def _pilots_args(p):
    _add_dims_arg(p)
    p.add_argument("--json", action="store_true", help="emit the assignment as JSON")


def _witness_args(p):
    _add_dims_arg(p)
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--exact", action="store_true", help="integer witness + exact certificate")
    p.add_argument("--json", action="store_true", help="export matrices as JSON")


def _genericity_args(p):
    _add_dims_arg(p, sweep=True)
    p.add_argument("--trials", type=_int_at_least(0), help=f"default {DEFAULT_TRIALS}")
    p.add_argument("--seed", type=_int_at_least(0))
    p.add_argument("--constant-model", action="store_true")


def _identify_args(p):
    _add_dims_arg(p)
    p.add_argument("--trials", type=_int_at_least(0), required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--constant-model", action="store_true")


def _mc_logdet_args(p):
    _add_dims_arg(p)
    # a standard error needs two samples: one would print "stderr": Infinity, which is not JSON
    p.add_argument("--samples", type=_int_at_least(2), required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--constant-model", action="store_true")


def _verify_all_args(p):
    p.add_argument("--nmax", type=_int_at_least(2), default=10)


# name -> (help, function adding its arguments, handler), in the order help lists them
_COMMANDS = {
    "dof": ("exact bound report for one configuration or a sweep", _dof_args, _cmd_dof),
    "figure1": ("CSV of generic/constant maximal-DoF ratios", _figure1_args, _cmd_figure1),
    "pilots": ("pilot assignment (card-dealing table or JSON)", _pilots_args, _cmd_pilots),
    "jacobian-witness": (
        "construct and check a nonsingularity witness", _witness_args, _cmd_witness
    ),
    "genericity": ("random-draw nonsingularity statistics", _genericity_args, _cmd_genericity),
    "identify": ("truth-perturbed recovery trials", _identify_args, _cmd_identify),
    "mc-logdet": ("Monte-Carlo log-determinant estimate", _mc_logdet_args, _cmd_mc_logdet),
    "verify-all": (
        "deterministic property suite; nonzero exit on failure", _verify_all_args, _cmd_verify_all
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The fadingdof parser with every subcommand, or with command's alone.

    Each subcommand is built by the same code either way, so its help, usage
    and errors do not depend on which build parses it. A parser built for one
    command still names all of them in its usage, which it prints with an
    "unrecognized arguments" error; an unknown or missing command, and the
    top-level --help, need the full build.
    """
    parser = argparse.ArgumentParser(
        prog="fadingdof",
        description="Degrees-of-freedom bounds and identifiability experiments "
        "for generic block-fading MIMO channels",
    )
    # argparse's own metavar, spelt out so that a one-command build shows every name
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        help_text, add_args, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a call that names its subcommand first builds only that one's parser
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"{args.command}: {exc}\n")
        return EXIT_USAGE
    except InvalidConfigurationError as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return EXIT_REGIME


if __name__ == "__main__":
    sys.exit(main())
