"""Golden stdout for exact CLI outputs, compared byte for byte.

The files under tests/golden/ were recorded from an earlier version of the
CLI. Only exact outputs are pinned here (Fractions, combinatorics, integer
certificates), so the bytes do not depend on the platform's floating point.
The other tests compare two runs of the same code; these catch drift across
a refactor. Change a golden file only together with an intended change of
the output it pins.
"""

import json
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
