"""Recovery experiments: forward map, Gauss-Newton, ambiguity, rank gap."""

import dataclasses

import numpy as np
import pytest
from paper_facts import (
    assemble_jacobian_loop,
    build_B,
    cluster_solutions,
    numerical_rank,
    rank_gap,
    scaling_ambiguity_holds,
)

import fadingdof.identify as identify_module
from fadingdof.identify import GN_MAX_HALVINGS, forward_map, recover, run_recovery_trials
from fadingdof.jacobian import assemble_jacobian, bezout_bound
from fadingdof.model import (
    Dims,
    InvalidConfigurationError,
    constant_model,
    random_coloring,
    standard_complex_gaussian,
)
from fadingdof.pilots import pilot_chain

DIMS = Dims.create(2, 3, 4, 1)
PILOTS = pilot_chain(DIMS)
DATA0 = PILOTS.data_index
PILOT0 = np.flatnonzero(PILOTS.P[-1])


def truth_instance(seed, dims=DIMS, constant=False):
    rng = np.random.default_rng(seed)
    Z = constant_model(dims) if constant else random_coloring(dims, seed)
    s = standard_complex_gaussian(rng, dims.R * dims.T_eff * dims.Q)
    x = standard_complex_gaussian(rng, dims.T_eff * dims.N)
    return Z, s, x


def with_data(x, x_data):
    """x with its data entries replaced and its pilot entries kept."""
    x = x.copy()
    x[DATA0] = x_data
    return x


def test_forward_map_zero_fading():
    Z, s, x = truth_instance(1)
    assert np.all(forward_map(np.zeros_like(s), x, PILOTS, Z) == 0)


def test_forward_map_matches_model_outputs():
    Z, s, x = truth_instance(2)
    y_bar = build_B(Z, x, DIMS) @ s
    got = forward_map(s, x, PILOTS, Z)
    assert got.shape == (12,)  # |useful| = 12 here
    assert np.allclose(got, y_bar[:12], rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "dims",
    [Dims.create(2, 3, 4, 1), Dims.create(3, 4, 12, 1), Dims.create(4, 8, 16, 2), Dims.create(6, 11, 40, 3)],
    ids=str,
)
def test_forward_map_matches_the_dense_B_on_the_ladder(dims):
    chain = pilot_chain(dims)
    for seed in range(3):
        Z, s, x = truth_instance(seed, dims)
        want = (build_B(Z, x, dims) @ s)[: chain.n_useful]
        got = forward_map(s, x, chain, Z)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_forward_map_keeps_its_shape_errors():
    Z, s, x = truth_instance(4)
    with pytest.raises(InvalidConfigurationError, match="does not conform"):
        forward_map(s, x, PILOTS, random_coloring(Dims.create(2, 2, 4, 1), seed=0))
    with pytest.raises(InvalidConfigurationError, match="s must have length"):
        forward_map(s[:-1], x, PILOTS, Z)


@pytest.mark.parametrize("x_len", [7, 9, 6])
def test_forward_map_and_recover_reject_an_x_of_the_wrong_length(x_len):
    # T_eff N = 8; a length that broadcasts must fail as loudly as one that does not
    Z, s, x = truth_instance(4)
    y = forward_map(s, x, PILOTS, Z)
    wrong = np.resize(x, x_len)
    with pytest.raises(InvalidConfigurationError, match="x must have length"):
        forward_map(s, wrong, PILOTS, Z)
    with pytest.raises(InvalidConfigurationError, match="x must have length"):
        recover(y, PILOTS, Z, init=(s, wrong))
    with pytest.raises(InvalidConfigurationError, match="x must have length"):
        recover(y, PILOTS, Z, init=(s, x), truth=(s, wrong))


@pytest.mark.parametrize("shape", [(1,), (11,), (13,), (12, 1), ()], ids=str)
def test_recover_rejects_a_target_that_is_not_the_useful_outputs(shape):
    # a (1,) target would broadcast against the 12 outputs and "converge" on a different problem
    Z, s, x = truth_instance(5)
    y = forward_map(s, x, PILOTS, Z)
    target = np.resize(y, shape)
    with pytest.raises(InvalidConfigurationError, match=r"y_target must have shape \(12,\)"):
        recover(target, PILOTS, Z, init=(s, x))


def test_recover_from_exact_truth_is_instant():
    Z, s, x = truth_instance(3)
    y = forward_map(s, x, PILOTS, Z)
    res = recover(y, PILOTS, Z, init=(s, x), truth=(s, x))
    assert res.iterations == 0
    assert res.residual == 0.0
    assert res.success


def test_recover_never_moves_the_pilot_entries():
    Z, s, x = truth_instance(6)
    y = forward_map(s, x, PILOTS, Z)
    rng = np.random.default_rng(6)
    s0 = s + 1e-2 * standard_complex_gaussian(rng, s.size)
    x0 = x + 1e-2 * standard_complex_gaussian(rng, x.size)
    x0[PILOT0] = x[PILOT0]  # the start carries the known pilots
    start = x0.copy()
    res = recover(y, PILOTS, Z, init=(s0, x0), truth=(s, x))
    assert res.success and res.iterations > 0 and res.param_error < 1e-6
    assert res.x.shape == x.shape
    assert res.x[PILOT0].tobytes() == x0[PILOT0].tobytes()
    assert not np.array_equal(res.x[DATA0], x0[DATA0])  # the data entries moved
    assert x0.tobytes() == start.tobytes()  # the start is copied, not updated in place


def test_recover_from_perturbed_truth():
    results = run_recovery_trials(PILOTS, trials=20, seed=51)
    assert all(r.success for r in results)
    assert all(r.residual < 1e-9 for r in results)
    assert all(r.param_error < 1e-6 for r in results)


def test_recovery_trials_refuse_a_negative_trial_count():
    # numpy's SeedSequence.spawn once refused it with an OverflowError
    with pytest.raises(InvalidConfigurationError, match="trials must be non-negative, got -2"):
        run_recovery_trials(PILOTS, -2, 0)
    assert run_recovery_trials(PILOTS, 0, 0) == []


def test_recover_says_why_it_stopped(monkeypatch):
    converged = run_recovery_trials(PILOTS, trials=3, seed=51)
    assert [(r.success, r.stop_reason, r.lstsq_fallbacks) for r in converged] == [(True, "converged", 0)] * 3
    # a zero coloring maps every point to zero: J = 0 is singular, and the
    # least-squares step, zero, cannot lower the residual at any halving
    Z, s, x = truth_instance(3)
    y = forward_map(s, x, PILOTS, Z)
    stuck = recover(y, PILOTS, np.zeros_like(Z), init=(s, x))
    assert (stuck.success, stuck.stop_reason, stuck.iterations) == (False, "no_descent", 0)
    assert (stuck.lstsq_fallbacks, stuck.halvings) == (1, GN_MAX_HALVINGS + 1)
    # one Gauss-Newton step from a start 1e-2 off the truth does not reach 1e-12
    monkeypatch.setattr(identify_module, "GN_MAX_ITERATIONS", 1)
    (capped,) = run_recovery_trials(PILOTS, trials=1, seed=51)
    assert (capped.success, capped.stop_reason, capped.iterations) == (False, "max_iterations", 1)
    assert (capped.lstsq_fallbacks, capped.halvings) == (0, 0)


def test_recovery_trials_take_the_cell_as_built(monkeypatch):
    # the chain carries dims and was built in the regime: nothing is re-dealt or re-checked
    import fadingdof.pilots as pilots_module

    calls = {"pilot_chains": 0, "require_regime": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    deal = counted("pilot_chains", pilots_module.pilot_chains)  # the one dealer, behind pilot_chain too
    monkeypatch.setattr(pilots_module, "pilot_chains", deal)
    monkeypatch.setattr(identify_module, "pilot_chains", deal, raising=False)
    monkeypatch.setattr(Dims, "require_regime", counted("require_regime", Dims.require_regime))
    results = run_recovery_trials(PILOTS, trials=3, seed=8)
    assert calls == {"pilot_chains": 0, "require_regime": 0}
    assert [r.success for r in results] == [True] * 3
    pilots_module.pilot_chain(DIMS)  # the counters do count
    assert calls == {"pilot_chains": 1, "require_regime": 1}


def test_recover_constant_model_leaves_parameter_error():
    # the linearization at truth is singular; the parameters stay unidentified
    results = run_recovery_trials(PILOTS, trials=20, seed=52, coloring=constant_model(DIMS))
    errors = sorted(r.param_error for r in results)
    assert errors[len(errors) // 2] > 1e-4
    assert not any(r.residual < 1e-9 and r.param_error < 1e-6 for r in results)


def test_local_identifiability_links_to_sigma_min():
    # well-conditioned truth implies perturbed recovery succeeds
    for seed in range(10):
        Z, s, x = truth_instance(seed + 200)
        sv = np.linalg.svd(assemble_jacobian(Z, s, x, PILOTS), compute_uv=False)
        if sv[-1] <= 1e-8 * sv[0]:
            continue
        rng = np.random.default_rng(seed)
        truth = np.concatenate([s, x[DATA0]])
        noise = standard_complex_gaussian(rng, truth.size)
        init = truth + 1e-2 * np.linalg.norm(truth) * noise / np.linalg.norm(noise)
        y = forward_map(s, x, PILOTS, Z)
        res = recover(y, PILOTS, Z, init=(init[:6], with_data(x, init[6:])), truth=(s, x))
        assert res.success and res.param_error < 1e-6


def test_solution_multiplicity_stays_below_bezout():
    # cold-start restarts: count distinct converged solutions, report only
    Z, s, x = truth_instance(7)
    y = forward_map(s, x, PILOTS, Z)
    rng = np.random.default_rng(99)
    found = []
    for _ in range(30):
        s0 = standard_complex_gaussian(rng, 6)
        x0 = with_data(x, standard_complex_gaussian(rng, 6))
        res = recover(y, PILOTS, Z, init=(s0, x0))
        if res.residual < 1e-9:
            found.append(np.concatenate([res.s, res.x[DATA0]]))
    clusters = cluster_solutions(found, rel_tol=1e-6)
    assert len(clusters) >= 1
    assert len(clusters) <= bezout_bound(PILOTS)
    print(f"distinct converged solutions observed: {len(clusters)} (cap 4096)")


def test_one_fewer_pilot_leaves_null_space():
    # moving a pilot to the data side makes the system underdetermined
    P = PILOTS.P.copy()
    P[-1].flat[np.flatnonzero(P[-1])[-1]] = False  # antenna 2 keeps no pilot
    hacked = dataclasses.replace(PILOTS, P=P)
    Z, s, x = truth_instance(11)
    M = assemble_jacobian_loop(Z, s, x, hacked)  # rectangular: the library refuses it
    assert M.shape == (12, 13)
    rank = numerical_rank(M)
    assert rank == 12  # still solvable
    assert M.shape[1] - rank >= 1  # nontrivial null space


def test_scaling_ambiguity_invariance():
    Z, s, x = truth_instance(13)
    assert scaling_ambiguity_holds(s, x, Z, DIMS, seed=0)
    # identity factors trivially preserve the output
    y0 = build_B(Z, x, DIMS) @ s
    assert np.allclose(y0, build_B(Z, 1.0 * x, DIMS) @ (s / 1.0), rtol=0, atol=0)


def test_scaling_x_alone_changes_output():
    Z, s, x = truth_instance(14)
    y0 = build_B(Z, x, DIMS) @ s
    x2 = x.copy()
    x2[:4] *= 1.7 - 0.3j  # rescale one antenna without compensating s
    y1 = build_B(Z, x2, DIMS) @ s
    assert np.linalg.norm(y1 - y0) / np.linalg.norm(y0) > 1e-3


def test_rank_gap_demo_values():
    assert rank_gap(DIMS, seed=0) == (2, 3)
    assert rank_gap(Dims.create(1, 1, 4, 1), seed=1) == (1, 1)


def test_rank_gap_demo_stable_over_seeds():
    for seed in range(50):
        assert rank_gap(DIMS, seed=seed) == (2, 3)


def test_neighbouring_seeds_draw_distinct_colorings(monkeypatch):
    # seed + 1000 + trial once gave --seed 2 trial 1 and --seed 3 trial 0 the same Z
    import fadingdof.identify as identify

    drawn = []

    def recording_coloring(dims, seed):
        Z = random_coloring(dims, seed)
        drawn.append(Z)
        return Z

    monkeypatch.setattr(identify, "random_coloring", recording_coloring)
    run_recovery_trials(PILOTS, trials=2, seed=2)
    run_recovery_trials(PILOTS, trials=1, seed=3)
    assert len(drawn) == 3
    assert not np.array_equal(drawn[1], drawn[2])
    assert not np.array_equal(drawn[0], drawn[1])


def test_rank_gap_demo_neighbouring_seeds_share_no_stream(monkeypatch):
    # default_rng(seed) for (s, x) and seed + 1 for Z once made seed 4's s
    # repeat the real parts of seed 3's coloring
    import paper_facts

    points, colorings = [], []

    def recording_gaussian(rng, shape):
        out = standard_complex_gaussian(rng, shape)
        points.append(out)
        return out

    def recording_coloring(dims, seed):
        Z = random_coloring(dims, seed)
        colorings.append(Z)
        return Z

    monkeypatch.setattr(paper_facts, "standard_complex_gaussian", recording_gaussian)
    monkeypatch.setattr(paper_facts, "random_coloring", recording_coloring)
    assert rank_gap(DIMS, seed=3) == rank_gap(DIMS, seed=4) == (2, 3)
    assert len(points) == 4 and len(colorings) == 2  # (s, x) per call, one Z per call
    s4 = points[2]
    assert not np.isin(s4.real, colorings[0].real).any()
