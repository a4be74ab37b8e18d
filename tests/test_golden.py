"""Golden stdout for exact CLI outputs, compared byte for byte.

The files under tests/golden/ were recorded from an earlier version of the
CLI. Only exact outputs are pinned byte for byte (Fractions, combinatorics,
integer certificates), so the bytes do not depend on the platform's floating
point. The exact witness reports also carry three LAPACK-derived floats
(abs_det, sigma_min, spectral_norm); those are compared to 1e-12 relative,
and the rest of the report, the exact determinant and the sparsity pattern
included, byte for byte.
The other tests compare two runs of the same code; these catch drift across
a refactor. Change a golden file only together with an intended change of
the output it pins.
"""

import json
import re
from pathlib import Path

import pytest

from fadingdof.cli import main

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
