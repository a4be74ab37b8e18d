"""CLI contracts: output formats, exit codes, determinism, sweeps."""

import collections
import json

import pytest

from fadingdof.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dof_report_json(capsys):
    code, out, _ = run_cli(capsys, "dof", "--dims", "2,3,4,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi_gen_upper"]["fraction"] == "3/2"
    assert payload["chi_low_star"]["fraction"] == "3/2"
    assert payload["chi_const"]["fraction"] == "1"
    assert payload["valid_regime"] is True


def test_figure1_csv_and_byte_identical_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["figure1", "--nmax", "20", "--out", str(a)]) == 0
    assert main(["figure1", "--nmax", "20", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "N,ratio_unconstrained,ratio_lower,ratio_upper"
    assert lines[1].startswith("2,1.0")
    assert len(lines) == 20  # header + N = 2..20


def test_pilots_table_and_json(capsys):
    code, out, _ = run_cli(capsys, "pilots", "--dims", "4,5,6,1")
    assert code == 0
    assert "card  13: face   1 -> antenna 2" in out
    code, out, _ = run_cli(capsys, "pilots", "--dims", "2,3,4,1", "--json")
    payload = json.loads(out)
    assert payload["pilots"] == [1, 6]


def test_witness_requires_seed_unless_exact(capsys):
    code, _, err = run_cli(capsys, "jacobian-witness", "--dims", "2,3,4,1")
    assert code == 2 and "--seed" in err
    code, out, _ = run_cli(capsys, "jacobian-witness", "--dims", "2,3,4,1", "--seed", "5")
    assert code == 0
    assert "sparsity pattern:" in out
    code, out, _ = run_cli(capsys, "jacobian-witness", "--dims", "2,3,4,1", "--exact")
    assert code == 0
    header = json.loads(out.split("\nsparsity pattern:")[0])
    assert header["certified_nonzero"] is True


def test_exit_code_3_on_regime_violation(capsys):
    # N = T_eff*Q breaks the constructive regime
    code, _, err = run_cli(capsys, "jacobian-witness", "--dims", "2,3,4,2", "--seed", "1")
    assert code == 3
    assert "regime" in err or "requires" in err
    code, _, err = run_cli(capsys, "dof", "--dims", "2,3,4")  # not four parts
    assert code == 3 and "--dims" in err


def test_usage_errors_exit_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["identify", "--dims", "2,3,4,1"])  # missing required --trials/--seed
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "genericity", "--dims", "2,3,4,1")
    assert code == 2 and "--seed" in err
    sweep = tmp_path / "cfg.json"
    sweep.write_text(json.dumps({"T": [2], "R": [3], "N": [4], "Q": [1], "seeds": [7]}))
    bad_args = [
        (["genericity", "--dims", "2,3,4,1", "--trials", "-1", "--seed", "3"], "--trials"),
        (["identify", "--dims", "2,3,4,1", "--trials", "-1", "--seed", "3"], "--trials"),
        (["mc-logdet", "--dims", "2,3,4,1", "--samples", "0", "--seed", "8"], "--samples"),
        (["identify", "--dims", "2,3,4,1", "--trials", "3", "--seed", "-1"], "--seed"),
        (["genericity", "--dims", "2,3,4,1", "--seed", "x"], "--seed"),
        (["dof", "--dims", "2,3,4,1", "--sweep", str(sweep)], "--dims"),
        (["genericity", "--dims", "2,3,4,1", "--sweep", str(sweep)], "--dims"),
        (["figure1", "--nmax", "10", "--cap", "0"], "--cap"),
        (["figure1", "--nmax", "10", "--cap", "-2"], "--cap"),
        (["figure1", "--nmax", "-5"], "--nmax"),
        (["figure1", "--nmax", "1"], "--nmax"),
        (["verify-all", "--nmax", "1"], "--nmax"),
        (["verify-all", "--nmax", "-3"], "--nmax"),
    ]
    for argv, flag in bad_args:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == "", argv
    # a --dims part that is not an integer: one line naming the flag, no traceback
    for dims in ["a,3,4,1", "2,3,4,1.5", "2,3,,1"]:
        code, stdout, err = run_cli(capsys, "dof", "--dims", dims)
        assert code == 2 and stdout == "", dims
        assert err == f"dof: --dims expects integers T,R,N,Q, got {dims!r}\n"
    # flags that a sweep config replaces are refused, not silently ignored
    out = tmp_path / "rows.jsonl"
    with_sweep = [
        (["dof", "--teff", "1"], "--teff"),
        (["dof", "--out", str(out)], "--out"),
        (["genericity", "--teff", "1"], "--teff"),
        (["genericity", "--out", str(out)], "--out"),
        (["genericity", "--trials", "1"], "--trials"),
        (["genericity", "--trials", "0"], "--trials"),
        (["genericity", "--seed", "0"], "--seed"),
        (["genericity", "--constant-model"], "--constant-model"),
    ]
    for argv, flag in with_sweep:
        code, stdout, err = run_cli(capsys, *argv, "--sweep", str(sweep))
        assert code == 2 and flag in err and stdout == "", argv
        assert not out.exists(), argv


def test_genericity_json(capsys):
    code, out, _ = run_cli(
        capsys, "genericity", "--dims", "2,3,4,1", "--trials", "10", "--seed", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fraction_nonsingular"] == 1.0
    code, out, _ = run_cli(
        capsys,
        "genericity",
        "--dims",
        "2,3,4,1",
        "--trials",
        "10",
        "--seed",
        "3",
        "--constant-model",
    )
    assert json.loads(out)["fraction_nonsingular"] == 0.0


def test_identify_summary(capsys):
    code, out, _ = run_cli(
        capsys, "identify", "--dims", "2,3,4,1", "--trials", "5", "--seed", "11"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["success_rate"] == 1.0
    assert payload["median_residual"] < 1e-9
    assert payload["median_param_error"] < 1e-6


def test_mc_logdet_json(capsys):
    code, out, _ = run_cli(
        capsys, "mc-logdet", "--dims", "2,3,4,1", "--samples", "100", "--seed", "8"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 100
    assert payload["clipped_fraction"] == 0.0


def test_smallest_grid_bounds_are_accepted(capsys):
    code, out, _ = run_cli(capsys, "figure1", "--nmax", "2", "--cap", "1")
    assert code == 0 and out.splitlines()[1] == "2,1.0,1.0,1.0"
    code, out, _ = run_cli(capsys, "verify-all", "--nmax", "2")
    assert code == 0 and "[FAIL]" not in out


def test_verify_all_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--nmax", "5")
    assert code == 0
    assert "[FAIL]" not in out


def test_verify_all_covers_its_grids(monkeypatch, capsys):
    # each check's call count is fixed by its loop bounds, so no grid can shrink unseen
    from fadingdof import dof, jacobian, verify
    from fadingdof.model import regime_cells

    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("card_deal", "pilot_count", "verify_pilot_properties", "mod_star"):
        count(verify, name)
    count(dof, "chi_low_star_brute")
    count(jacobian, "certify_witness_exact")
    n_max = 10
    assert verify.run_verify_all(n_max)
    cells = list(regime_cells(n_max))
    assert calls == {
        "card_deal": sum(range(1, n_max + 1)) ** 2,  # T_eff * N cards for T_eff, N <= n_max
        "verify_pilot_properties": len(cells),
        "pilot_count": 2 * sum(d.R > d.T_eff for d in cells),
        # window check: q in (p, 18] for p <= 18, a < 7, c <= b for 2 <= b <= 6
        "mod_star": sum(18 - p for p in range(19)) * 7 * sum(range(2, 7)),
        "chi_low_star_brute": n_max * 3 * 12 * 12,  # N <= n_max, Q <= 3, T, R <= 12
        "certify_witness_exact": len(list(regime_cells(4))),
    }
    assert (calls["mod_star"], calls["certify_witness_exact"]) == (23_940, 22)
    assert "[FAIL]" not in capsys.readouterr().out


def test_dof_sweep_reports_invalid_cells(tmp_path, capsys):
    cfg = {
        "T": [2],
        "R": [3],
        "N": [4],
        "Q": [1, 5],
        "seeds": [],
        "trials": 0,
        "output": str(tmp_path / "sweep.jsonl"),
        "format": "json",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["dof", "--sweep", str(path)]) == 0
    rows = [json.loads(line) for line in (tmp_path / "sweep.jsonl").read_text().splitlines()]
    assert len(rows) == 2
    assert rows[0]["chi_gen_upper"]["fraction"] == "3/2"
    assert "error" in rows[1]  # Q > N cell reported, not dropped


def test_genericity_sweep(tmp_path):
    cfg = {
        "T": [2],
        "R": [3, 30],
        "N": [4],
        "Q": [1],
        "seeds": [7],
        "trials": 5,
        "output": str(tmp_path / "probe.jsonl"),
        "format": "json",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["genericity", "--sweep", str(path)]) == 0
    rows = [json.loads(line) for line in (tmp_path / "probe.jsonl").read_text().splitlines()]
    assert rows[0]["fraction_nonsingular"] == 1.0
    assert "error" in rows[1]  # R = 30 outside the regime, still reported


def test_sweep_config_rejects_unknown_keys_and_formats(tmp_path, capsys):
    out = tmp_path / "rows.jsonl"
    path = tmp_path / "cfg.json"
    for extra, word in [({"format": "csv"}, "format"), ({"seed": [1]}, "seed")]:
        cfg = {"T": [2], "R": [3], "N": [4], "Q": [1], "output": str(out), **extra}
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "dof", "--sweep", str(path))
        assert code == 3 and word in err, extra
        assert not out.exists()  # rejected before any row is written
    base = {"T": [2], "R": [3], "N": [4], "Q": [1], "output": str(out)}
    malformed = [
        (json.dumps(base)[:-1], "not valid JSON"),
        ("[1, 2]", "JSON object"),
        (json.dumps({k: v for k, v in base.items() if k != "Q"}), "'Q'"),
        (json.dumps({**base, "T": 2}), "sweep T"),
        (json.dumps({**base, "output": 5}), "sweep output"),
    ]
    for text, word in malformed:
        path.write_text(text)
        code, stdout, err = run_cli(capsys, "dof", "--sweep", str(path))
        assert code == 3 and stdout == "", text
        assert err.startswith("invalid configuration: ") and word in err, text
        assert not out.exists(), text


def test_sweep_config_rejects_bad_seeds_and_trials(tmp_path, capsys):
    out = tmp_path / "rows.jsonl"
    path = tmp_path / "cfg.json"
    base = {"T": [2], "R": [3], "N": [4], "Q": [1], "seeds": [7], "trials": 2, "output": str(out)}
    for bad in [{"seeds": [7, -1]}, {"seeds": [1.5]}, {"seeds": [True]}, {"trials": -1},
                {"trials": 2.5}, {"trials": "3"}, {"seeds": 7}, {"R": 3}]:
        path.write_text(json.dumps({**base, **bad}))
        code, _, err = run_cli(capsys, "genericity", "--sweep", str(path))
        assert code == 3 and next(iter(bad)) in err, bad
        assert not out.exists(), bad
    missing = tmp_path / "no_such_cfg.json"
    for command in ["dof", "genericity"]:
        code, stdout, err = run_cli(capsys, command, "--sweep", str(missing))
        assert code == 2 and "--sweep" in err and stdout == "", command


def test_sweep_turns_unexpected_cell_failures_into_error_rows(tmp_path, monkeypatch):
    import fadingdof.jacobian as jacobian

    probe = jacobian.genericity_probe

    def failing_probe(dims, pilots, trials, seed, coloring=None):
        if dims.R == 3:
            raise RuntimeError("probe blew up")
        return probe(dims, pilots, trials, seed, coloring=coloring)

    monkeypatch.setattr(jacobian, "genericity_probe", failing_probe)
    out = tmp_path / "rows.jsonl"
    path = tmp_path / "cfg.json"
    cfg = {"T": [2], "R": [2, 3, 4], "N": [3], "Q": [1], "seeds": [7, 8], "trials": 3,
           "output": str(out)}
    path.write_text(json.dumps(cfg))
    assert main(["genericity", "--sweep", str(path)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    keys = [(r["cell"]["R"], r["seed"]) for r in rows]
    assert keys == [(2, 7), (2, 8), (3, 7), (3, 8), (4, 7), (4, 8)]  # grid order
    for row in rows:
        if row["cell"]["R"] == 3:
            assert row["error"] == "RuntimeError: probe blew up"
        else:
            assert row["fraction_nonsingular"] == 1.0 and row["trials"] == 3


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "x.json"
    code, stdout, err = run_cli(capsys, "dof", "--dims", "2,3,4,1", "--out", str(target))
    assert code == 2 and err.startswith("dof: --out") and stdout == ""
    assert not target.parent.exists()


def test_unwritable_sweep_output_is_rejected_before_any_cell(tmp_path, capsys, monkeypatch):
    import fadingdof.dof as dof

    calls = []
    report = dof.dof_report
    monkeypatch.setattr(dof, "dof_report", lambda dims: calls.append(dims) or report(dims))
    path = tmp_path / "cfg.json"
    target = tmp_path / "missing_dir" / "rows.jsonl"
    path.write_text(json.dumps({"T": [2], "R": [3], "N": [4], "Q": [1], "output": str(target)}))
    code, stdout, err = run_cli(capsys, "dof", "--sweep", str(path))
    assert code == 3 and err.startswith("invalid configuration: sweep output") and stdout == ""
    assert calls == []  # no cell ran


def test_sweep_writes_each_row_as_its_cell_finishes(tmp_path, monkeypatch):
    import fadingdof.dof as dof

    report = dof.dof_report
    out = tmp_path / "rows.jsonl"
    on_disk = []  # the output file as the second cell starts

    def interrupted_report(dims):
        if dims.R == 4:
            on_disk.append(out.read_text())
            raise KeyboardInterrupt  # not an Exception: ends the sweep, no error row
        return report(dims)

    monkeypatch.setattr(dof, "dof_report", interrupted_report)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"T": [2], "R": [3, 4, 5], "N": [4], "Q": [1], "output": str(out)}))
    with pytest.raises(KeyboardInterrupt):
        main(["dof", "--sweep", str(path)])
    assert len(on_disk) == 1 and on_disk[0] == out.read_text()
    rows = [json.loads(line) for line in on_disk[0].splitlines()]
    assert len(rows) == 1 and rows[0]["dims"]["R"] == 3


def test_empty_sweep_grid_writes_nothing(tmp_path, capsys):
    out = tmp_path / "rows.jsonl"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"T": [], "R": [3], "N": [4], "Q": [1], "output": str(out)}))
    assert main(["dof", "--sweep", str(path)]) == 0
    assert out.read_bytes() == b""
    path.write_text(json.dumps({"T": [2], "R": [3], "N": [4], "Q": [1], "trials": 2}))
    code, stdout, _ = run_cli(capsys, "genericity", "--sweep", str(path))  # no seeds
    assert code == 0 and stdout == ""


def test_sweep_reports_bool_sizes_as_invalid_cells(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"T": [True], "R": [3], "N": [4], "Q": [1], "output": None}))
    code, out, _ = run_cli(capsys, "dof", "--sweep", str(path))
    assert code == 0
    assert "positive integer" in json.loads(out)["error"]


def test_entry_point_runs_in_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "fadingdof.cli", "dof", "--dims", "2,3,4,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["chi_const"]["fraction"] == "1"
