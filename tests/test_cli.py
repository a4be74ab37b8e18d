"""CLI contracts: output formats, exit codes, determinism, sweeps."""

import argparse
import collections
import json

import numpy as np
import pytest

from fadingdof import cli
from fadingdof.cli import _COMMANDS, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parser_exit(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse that ends the program: help or a usage error."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def valid_args(name):
    return {"figure1": ["--nmax", "3"], "verify-all": []}.get(name, ["--dims", "2,3,4,1"])


# per command: its help, a missing or malformed argument, an unknown flag and
# a stray word after valid arguments (reported with the top-level usage)
PARSES = [
    argv
    for name in _COMMANDS
    for argv in (
        [name, "-h"],
        [name, "--dims"],
        [name, "--seed", "-1", "--nmax", "x"],
        [name, "--no-such-flag"],
        [name, *valid_args(name), "stray"],
    )
] + [["-h"], [], ["no-such-command"], ["verify"], ["--nmax", "3", "verify-all"]]


@pytest.mark.parametrize("argv", PARSES, ids=lambda argv: " ".join(argv) or "no arguments")
def test_a_one_command_parser_prints_what_the_full_parser_does(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the top-level usage wraps at this width
    full = parser_exit(capsys, build_parser().parse_args, argv)
    assert full[0] in (0, 2)
    assert parser_exit(capsys, main, argv) == full


def subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


def test_a_call_builds_only_the_parser_of_the_command_it_names(monkeypatch, capsys):
    assert subcommands(build_parser()) == list(_COMMANDS)
    built = []

    def recorded(command=None):
        built.append(build_parser(command))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", recorded)
    for name in _COMMANDS:
        assert subcommands(build_parser(name)) == [name]
        built.clear()
        parser_exit(capsys, main, [name, "-h"])
        assert [subcommands(p) for p in built] == [[name]]
    assert main(["verify-all", "--nmax", "2"]) == 0
    assert subcommands(built[-1]) == ["verify-all"]
    parser_exit(capsys, main, ["no-such-command"])  # lists the commands there are
    assert subcommands(built[-1]) == list(_COMMANDS)


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


def test_a_size_that_is_not_positive_exits_3_before_any_default_is_computed(capsys):
    # the default T_eff divides by Q, so Q = 0 once ended in a ZeroDivisionError traceback and exit 1
    for dims, message in [
        ("2,3,4,0", "Q must be a positive integer, got 0"),
        ("2,3,0,1", "N must be a positive integer, got 0"),
        ("0,3,4,1", "T must be a positive integer, got 0"),
        ("2,-1,4,1", "R must be a positive integer, got -1"),
    ]:
        assert run_cli(capsys, "dof", "--dims", dims) == (3, "", f"invalid configuration: {message}\n"), dims


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
        (["mc-logdet", "--dims", "2,3,4,1", "--samples", "1", "--seed", "8"], "--samples"),
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


@pytest.mark.parametrize("command", [["genericity", "--trials", "0"], ["identify", "--trials", "0"], ["mc-logdet", "--samples", "2"]])
def test_constant_model_is_refused_at_rank_two_before_any_trial(capsys, command):
    # each experiment builds the fixed coloring first, so even zero trials refuse Q = 2
    code, out, err = run_cli(capsys, *command, "--dims", "4,8,16,2", "--seed", "1", "--constant-model")
    assert (code, out, err) == (3, "", "invalid configuration: constant model requires Q=1, got Q=2\n")


def test_identify_without_trials_reports_no_rate(capsys):
    # like genericity's fraction_nonsingular: no trials, no rate, not a rate of 0
    code, out, _ = run_cli(capsys, "identify", "--dims", "2,3,4,1", "--trials", "0", "--seed", "11")
    assert code == 0
    assert json.loads(out) == {
        "trials": 0, "success_rate": None, "median_residual": None, "median_param_error": None
    }


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
    # each check's call count and grid shape is fixed by its loop bounds, so no grid can shrink unseen
    from paper_facts import regime_cells

    from fadingdof import dof, jacobian, verify
    from fadingdof.model import regime_chains

    calls = collections.Counter()
    grids = []
    checked = []  # the cells of the chains each pilot-property check saw
    dealt = []  # the chains each deal call dealt
    deals = []  # the broadcast shape of each card_deal call
    residues = []  # the shape of the values of each mod_star call

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "verify_pilot_properties":
                checked.append(sum(map(len, args[0])))
            elif name == "pilot_chains":
                args = (list(args[0]),)
                dealt.append(len(args[0]))
            elif name == "card_deal":
                deals.append(np.broadcast_shapes(*map(np.shape, args)))
            elif name == "mod_star":
                residues.append(np.shape(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("card_deal", "verify_pilot_properties", "mod_star", "pilot_chains"):
        count(verify, name)
    count(dof, "_chi_low_star_scaled")
    count(jacobian, "witness_construct")
    count(jacobian, "_witness_det")
    brute_grid = dof._chi_low_star_brute_grid

    def recorded_grid(*axes):
        grids.append(brute_grid(*axes))
        return grids[-1]

    monkeypatch.setattr(dof, "_chi_low_star_brute_grid", recorded_grid)
    n_max = 10
    assert verify.run_verify_all(n_max)
    cells = list(regime_cells(n_max))
    assert calls == {
        "card_deal": 1,  # one broadcast call: a row of cards for each T_eff, N <= n_max
        "verify_pilot_properties": 1,  # one batch: every cell of the grid
        # window check: one call on the values q + a in [1 : 24] (q <= 18, a < 7) for each modulus 2 <= b <= 6
        "mod_star": 5,
        "_chi_low_star_scaled": 1,  # one call on the grid N <= n_max, Q <= 3, T, R <= 12
        # one deal of every (N, Q, T_eff) chain of the pilot grid, and one of the witness chains past it (none)
        "pilot_chains": 2,
        # the witness grid N <= 4: one build per chain, at its top, and a determinant per cell
        "witness_construct": len(list(regime_chains(4))),
        "_witness_det": len(list(regime_cells(4))),
    }
    assert deals == [(n_max**2, n_max**2)]  # T_eff N <= n_max^2 cards in each row
    assert dealt == [len(list(regime_chains(n_max))), 0]
    assert [grid.shape for grid in grids] == [(n_max, 3, 12, 12)]  # the brute-force oracle's grid
    assert residues == [(7, 18)] * 5  # q + a for a in [0:6] and q in [1:18]
    assert (calls["mod_star"], calls["witness_construct"], calls["_witness_det"]) == (5, 9, 22)
    assert (len(cells), dealt[0]) == (732, 100)
    assert checked == [len(cells)]
    assert "[FAIL]" not in capsys.readouterr().out


@pytest.mark.parametrize("n_max", [1, 3, 4, 6])
def test_verify_all_deals_each_chain_once(monkeypatch, capsys, n_max):
    # the witness line (N <= 4) reuses the pilot line's chains and deals only those above n_max
    from fadingdof import verify
    from fadingdof.model import regime_chains

    dealt = []
    original = verify.pilot_chains

    def recorded(tops):
        dealt.append(list(tops))
        return original(dealt[-1])

    monkeypatch.setattr(verify, "pilot_chains", recorded)
    assert verify.run_verify_all(n_max)
    assert [top for tops in dealt for top in tops] == list(regime_chains(max(n_max, 4)))
    assert len(dealt) == 2
    assert "[FAIL]" not in capsys.readouterr().out


def test_jacobian_witness_deals_one_chain(monkeypatch, capsys):
    from fadingdof import jacobian, pilots

    calls = collections.Counter()
    original = pilots.pilot_chain

    def counted(*args):
        calls["pilot_chain"] += 1
        return original(*args)

    assert not hasattr(jacobian, "pilot_chain")  # witness_report takes the chain the CLI deals
    monkeypatch.setattr(pilots, "pilot_chain", counted)
    # R = 4 > T_eff = 2, so the witness needs the cells R' = 2, 3 and 4, and the Jacobian the top: one chain
    code, out, _ = run_cli(capsys, "jacobian-witness", "--dims", "2,4,5,2", "--exact")
    assert code == 0 and '"certified_nonzero": true' in out
    assert calls == {"pilot_chain": 1}


def failed_lines(capsys, n_max):
    """The [FAIL] lines of run_verify_all(n_max), which must also be the CLI's, with exit code 1."""
    from fadingdof.verify import run_verify_all

    assert not run_verify_all(n_max)
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    code, out, _ = run_cli(capsys, "verify-all", "--nmax", str(n_max))
    assert code == 1 and [line for line in out.splitlines() if line.startswith("[FAIL]")] == failed
    return failed


def test_verify_all_fails_on_a_wrong_residue_table(monkeypatch, capsys):
    # multiples of 3 read as residue 1: two in every three j hit c = 1
    from fadingdof import verify

    original = verify.mod_star
    monkeypatch.setattr(verify, "mod_star", lambda a, b: np.where((b == 3) & (a % 3 == 0), 1, original(a, b)))
    failed = failed_lines(capsys, 5)
    assert failed == ["[FAIL] window counting bound (exhaustive small grid)"]


def test_verify_all_fails_on_a_deal_that_repeats_a_slot(monkeypatch, capsys):
    # the row of (T_eff, N) = (3, 4) in the one broadcast call: card 1 shows card 2's face to player 1,
    # a slot that another of its cards fills
    from fadingdof import verify

    original = verify.card_deal

    def repeated(j, T_eff, N):
        players, faces = original(j, T_eff, N)
        row = np.flatnonzero((T_eff == 3) & (N == 4))[0]
        faces[row, 0] = faces[row, 1]
        return players, faces

    monkeypatch.setattr(verify, "card_deal", repeated)
    failed = failed_lines(capsys, 5)
    assert failed == ["[FAIL] card dealing bijective for all T_eff, N <= 5"]


def test_verify_all_fails_on_a_redundancy_count_off_by_one(monkeypatch, capsys):
    # the chains carry ell, so the useful-output count of the same cell fails beside the drop identity
    from fadingdof import pilots

    original = pilots.ell

    def off_by_one(T_eff, R, N, Q):  # the deal calls ell once on every cell of its batch
        return original(T_eff, R, N, Q) + ((T_eff == 3) & (R == 5) & (N == 8) & (Q == 2))

    monkeypatch.setattr(pilots, "ell", off_by_one)
    properties, drop = failed_lines(capsys, 8)
    assert properties.startswith("[FAIL] pilot-set properties on every regime cell with N <= 8 (Dims(T=3, R=5, N=8,")
    assert "'useful_output_size': {'ok': False, 'detail': {'useful': 39, 'expected': 40}}" in properties
    assert drop == "[FAIL] pilot-count drop identity and redundancy bound on the regime grid"


def test_verify_all_fails_on_one_zero_witness_determinant(monkeypatch, capsys):
    # of the cells with N <= 4 only (T_eff, R, N, Q) = (2, 3, 3, 1), below its chain's top, has n = 9
    from fadingdof import jacobian

    original = jacobian._witness_det
    monkeypatch.setattr(jacobian, "_witness_det", lambda M: 0 if len(M) == 9 else original(M))
    failed = failed_lines(capsys, 5)
    assert failed == ["[FAIL] witness determinant certified nonzero in exact arithmetic (N <= 4)"]


def test_verify_all_fails_on_one_wrong_brute_force_cell(monkeypatch, capsys):
    from fadingdof import dof

    original = dof._chi_low_star_brute_grid

    def wrong_at_one_cell(*axes):
        grid = original(*axes)
        grid[6, 1, 2, 4] -= 1  # (N, Q, T, R) = (7, 2, 3, 5)
        return grid

    monkeypatch.setattr(dof, "_chi_low_star_brute_grid", wrong_at_one_cell)
    failed = failed_lines(capsys, 7)
    assert failed == ["[FAIL] lower-bound closed form, ordering, equality region (N <= 7)"]


@pytest.mark.parametrize("argv", [["verify-all"], ["jacobian-witness", "--dims", "2,4,5,2", "--exact"]])
def test_exact_calls_load_no_random_generator(argv):
    import os
    import pathlib
    import subprocess
    import sys

    probe = "import sys, numpy; print('numpy.random' in sys.modules)"
    if subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True).stdout.strip() != "False":
        pytest.skip("import numpy already loads numpy.random here")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = (
        "import contextlib, io, sys\n"
        "from fadingdof.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    run = lambda args: subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True)
    assert run(argv).stdout.split() == ["0", "False"]
    # the seeded witness still draws, so the probe sees the generator load
    assert run(["jacobian-witness", "--dims", "2,4,5,2", "--seed", "3"]).stdout.split() == ["0", "True"]


def test_verify_all_allocates_at_most_one_mib_at_its_peak(capsys):
    # the peak is the pilot grid: the chains' masks, three booleans per face of each cell in one array per
    # shape (T_eff, N), about 0.2 MB at N <= 10, with one card-number array per shape and no padding, plus
    # the checker's (4, cells, max T_eff, max N) boolean grid and its sums
    import tracemalloc

    from fadingdof import verify

    verify.run_verify_all(10)  # first-call costs: lazy imports and caches
    tracemalloc.start()
    try:
        assert verify.run_verify_all(10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak
    assert "[FAIL]" not in capsys.readouterr().out


def test_verify_all_allocates_at_most_22_mib_at_its_peak_on_the_grid_to_N_20(capsys):
    # 8362 cells: about 4 MB of unpadded chain masks, held beside the checker's 12.7 MB padded grid, which it
    # reduces with no temporary of its size (19.5 MiB in all); a deal padded to the largest chain's 19 antennas
    # and 20 faces, with a checker that made such temporaries, peaked at 28.3 MiB
    import tracemalloc

    from fadingdof import verify

    verify.run_verify_all(20)  # first-call costs, as above
    tracemalloc.start()
    try:
        assert verify.run_verify_all(20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 22 * 2**20, peak
    assert "[FAIL]" not in capsys.readouterr().out


def test_verify_all_deals_the_witness_chains_past_its_grid(monkeypatch, capsys):
    # with --nmax 3 the witness line still covers N <= 4: the chains with N = 4 are dealt for it alone
    from paper_facts import regime_cells

    from fadingdof import jacobian, verify
    from fadingdof.model import regime_chains

    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "pilot_chains":
                args = (list(args[0]),)
                calls["chains"] += len(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(verify, "pilot_chains")
    count(jacobian, "witness_construct")
    count(jacobian, "_witness_det")
    assert verify.run_verify_all(3)
    tops = list(regime_chains(4))
    cells = len(list(regime_cells(4)))
    # one deal call for the grid N <= 3 and one for the chains with N = 4: 9 chains in 2 calls
    assert calls == {"pilot_chains": 2, "chains": len(tops), "witness_construct": len(tops), "_witness_det": cells}
    assert (len(list(regime_chains(3))), len(tops)) == (4, 9)
    assert "[FAIL]" not in capsys.readouterr().out


def test_verify_all_fails_on_one_corrupted_chain_cell(monkeypatch, capsys):
    # a G_t one face short on one cell of one chain must surface as a FAIL with its dims
    import dataclasses

    from fadingdof import verify
    from fadingdof.model import Dims

    target = Dims(T=3, R=5, N=8, Q=2, T_eff=3)
    original = verify.pilot_chains

    def corrupt(chain):
        if (chain.dims.T_eff, chain.dims.N, chain.dims.Q) != (target.T_eff, target.N, target.Q):
            return chain
        G = chain.G.copy()
        k = target.R - target.T_eff
        G[k, 0, np.flatnonzero(G[k, 0])[0]] = False  # G_1 loses its first face
        return dataclasses.replace(chain, G=G)

    monkeypatch.setattr(verify, "pilot_chains", lambda tops: [corrupt(chain) for chain in original(tops)])
    assert not verify.run_verify_all(8)
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL] pilot-set properties"), lines
    assert str(target) in failed[0] and "'G_size': {'ok': False" in failed[0]
    code, out, _ = run_cli(capsys, "verify-all", "--nmax", "8")
    assert code == 1 and out.count("[FAIL]") == 1


def test_verify_all_fails_on_a_closed_form_off_by_one(monkeypatch, capsys):
    from fadingdof import dof, verify

    original = dof._chi_low_star_scaled

    def off_by_one(T, R, N, Q):
        return original(T, R, N, Q) + ((T == 3) & (R == 5) & (N == 7) & (Q == 2))

    monkeypatch.setattr(dof, "_chi_low_star_scaled", off_by_one)
    assert not verify.run_verify_all(7)
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert failed == ["[FAIL] lower-bound closed form, ordering, equality region (N <= 7)"]
    code, out, _ = run_cli(capsys, "verify-all", "--nmax", "7")
    assert code == 1 and out.count("[FAIL]") == 1


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

    def failing_probe(pilots, trials, seed, coloring=None):
        if pilots.dims.R == 3:
            raise RuntimeError("probe blew up")
        return probe(pilots, trials, seed, coloring=coloring)

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


def test_sweep_reports_a_zero_Q_or_a_non_integer_size_as_invalid_cells(tmp_path, capsys):
    # both once became rows naming a ZeroDivisionError or a TypeError, with a traceback on stderr
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"T": [2, "a"], "R": [3], "N": [4], "Q": [0, 1], "output": None}))
    code, out, err = run_cli(capsys, "dof", "--sweep", str(path))
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row.get("error") for row in rows] == [
        "Q must be a positive integer, got 0",
        None,
        "T must be a positive integer, got 'a'",
        "T must be a positive integer, got 'a'",
    ]
    assert rows[1]["dims"] == {"T": 2, "R": 3, "N": 4, "Q": 1, "T_eff": 2}


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
