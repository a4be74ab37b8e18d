"""Golden outputs of the CLI and the library, compared byte for byte or to 1e-12.

The files under tests/golden/ were recorded from an earlier version. Exact
outputs are pinned byte for byte (Fractions, combinatorics, integer
certificates), so those bytes do not depend on the platform's floating
point. The exact witness reports also carry three LAPACK-derived floats
(abs_det, sigma_min, spectral_norm); those are compared to 1e-12 relative,
and the rest of the report, the exact determinant and the sparsity pattern
included, byte for byte. The numeric paths (genericity probes, recovery
trials and Monte-Carlo log-det estimates) are compared the same way: counts
and rates exactly, LAPACK-derived floats to 1e-12 relative; the medians of
converged recovery trials are rounding noise, so only their size is pinned.
The other tests compare two runs of the same code; these catch drift across
a refactor. Change a golden file only together with an intended change of
the output it pins.
"""

import json
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from fadingdof.analysis import mc_logdet
from fadingdof.cli import main
from fadingdof.model import Dims, random_coloring
from fadingdof.pilots import pilot_chain

GOLDEN = Path(__file__).parent / "golden"
SWEEP_CONFIG = {"T": [2], "R": [3], "N": [4], "Q": [1, 5], "output": None}

CASES = {
    "dof_2341.json": ["dof", "--dims", "2,3,4,1"],
    "dof_sweep.jsonl": ["dof", "--sweep", "{config}"],
    "figure1_nmax50.csv": ["figure1", "--nmax", "50"],
    "pilots_4561.txt": ["pilots", "--dims", "4,5,6,1"],
    "pilots_4561_json.json": ["pilots", "--dims", "4,5,6,1", "--json"],
    "verify_all_nmax5.txt": ["verify-all", "--nmax", "5"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(SWEEP_CONFIG))
    argv = [arg.format(config=config) for arg in CASES[name]]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_bytes().decode("utf-8")


WITNESS_CASES = {
    "witness_exact_2452.txt": ["jacobian-witness", "--dims", "2,4,5,2", "--exact"],
    "witness_exact_48162.txt": ["jacobian-witness", "--dims", "4,8,16,2", "--exact"],
}
FLOAT_FIELD = re.compile(r'"(abs_det|sigma_min|spectral_norm)": ([^,\n]+)')


def split_float_fields(text):
    """The text with each float field's value replaced by a marker, and the values."""
    values = {}

    def take(match):
        values[match[1]] = float(match[2])
        return f'"{match[1]}": <float>'

    return FLOAT_FIELD.sub(take, text), values


@pytest.mark.parametrize("name", sorted(WITNESS_CASES))
def test_exact_witness_matches_golden(name, capsys):
    assert main(WITNESS_CASES[name]) == 0
    got_text, got = split_float_fields(capsys.readouterr().out)
    want_text, want = split_float_fields((GOLDEN / name).read_bytes().decode("utf-8"))
    assert got_text == want_text
    assert sorted(got) == ["abs_det", "sigma_min", "spectral_norm"] == sorted(want)
    for field, value in want.items():
        assert got[field] == pytest.approx(value, rel=1e-12, abs=0), field


MODELS = [([], ""), (["--constant-model"], "_constant")]
PROBE_CASES = {
    f"genericity_{tag}{suffix}.json": ["genericity", "--dims", dims, "--trials", "64", "--seed", "5"]
    + flag
    for dims, tag in [("2,3,4,1", "2341"), ("3,4,12,1", "34121")]
    for flag, suffix in MODELS
}
EXPERIMENT_CASES = {
    **{
        f"identify_2341{suffix}.json": ["identify", "--dims", "2,3,4,1", "--trials", "5", "--seed", "3"] + flag
        for flag, suffix in MODELS
    },
    **{
        f"mc_logdet_cli_34121{suffix}.json": ["mc-logdet", "--dims", "3,4,12,1", "--samples", "256", "--seed", "3"]
        + flag
        for flag, suffix in MODELS
    },
}


def assert_matches_numeric_golden(got, want, floats):
    """Same keys; the float fields to 1e-12 relative, every other field exactly."""
    assert sorted(got) == sorted(want)
    for field, value in want.items():
        if field in floats:
            assert got[field] == pytest.approx(value, rel=1e-12, abs=0), field
        else:
            assert got[field] == value, field


@pytest.mark.parametrize("name", sorted(PROBE_CASES))
def test_genericity_matches_golden(name, capsys):
    assert main(PROBE_CASES[name]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / name).read_text())
    assert_matches_numeric_golden(got, want, floats={"min_log_abs_det", "min_factor_sigma_ratio"})


@pytest.mark.parametrize("name", sorted(EXPERIMENT_CASES))
def test_experiment_matches_golden(name, capsys):
    assert main(EXPERIMENT_CASES[name]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / name).read_text())
    if name == "identify_2341.json":  # converged: the medians are rounding noise, about 1e-14
        for field in ("median_residual", "median_param_error"):
            assert got.pop(field) < 1e-9 and want.pop(field) < 1e-9, field
    floats = {"median_residual", "median_param_error", "mean", "stderr"}
    assert_matches_numeric_golden(got, want, floats=floats)


def test_mc_logdet_matches_golden():
    dims = Dims.create(3, 4, 12, 1)
    est = mc_logdet(random_coloring(dims, 7), pilot_chain(dims), 256, seed=3)
    want = json.loads((GOLDEN / "mc_logdet_34121.json").read_text())
    assert_matches_numeric_golden(asdict(est), want, floats={"mean", "stderr"})


def strict_json(text):
    """json.loads that refuses the non-JSON constants NaN, Infinity and -Infinity."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


JSON_CASES = {
    **{name: argv for name, argv in CASES.items() if name.endswith((".json", ".jsonl"))},
    **PROBE_CASES,
    **EXPERIMENT_CASES,
    # n = 600: log |det| is about 890, past the float range of |det|
    "genericity_8106051.json": ["genericity", "--dims", "8,10,60,5", "--trials", "1", "--seed", "1"],
}


def json_rows(name, text):
    lines = text.splitlines() if name.endswith(".jsonl") else [text]
    return [strict_json(line) for line in lines]


@pytest.mark.filterwarnings("error")  # such as an overflow in exp
@pytest.mark.parametrize("name", sorted(JSON_CASES))
def test_json_outputs_are_strict_json(name, tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(SWEEP_CONFIG))
    assert main([arg.format(config=config) for arg in JSON_CASES[name]]) == 0
    captured = capsys.readouterr()
    assert json_rows(name, captured.out) and captured.err == ""


def test_json_goldens_are_strict_json():
    names = sorted(p.name for p in GOLDEN.glob("*.json*"))
    assert len(names) == 12
    for name in names:
        assert json_rows(name, (GOLDEN / name).read_text()), name
