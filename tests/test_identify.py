"""Recovery experiments: forward map, Gauss-Newton, ambiguity, rank gap."""

import dataclasses

import numpy as np

from fadingdof.identify import (
    cluster_solutions,
    forward_map,
    rank_gap_demo,
    recover,
    run_recovery_trials,
    scaling_ambiguity_check,
)
from fadingdof.jacobian import assemble_jacobian, bezout_bound
from fadingdof.model import (
    Dims,
    build_B,
    constant_model,
    random_coloring,
    standard_complex_gaussian,
)
from fadingdof.pilots import build_pilot_sets

DIMS = Dims.create(2, 3, 4, 1)
PILOTS = build_pilot_sets(DIMS)


def truth_instance(seed, dims=DIMS, pilots=PILOTS, constant=False):
    rng = np.random.default_rng(seed)
    Z = constant_model(dims) if constant else random_coloring(dims, seed)
    s = standard_complex_gaussian(rng, dims.R * dims.T_eff * dims.Q)
    x = standard_complex_gaussian(rng, dims.T_eff * dims.N)
    x_pilot = x[np.asarray(pilots.pilots) - 1]
    x_data = x[np.asarray(pilots.data) - 1]
    return Z, s, x, x_pilot, x_data


def test_forward_map_zero_fading():
    Z, s, x, x_pilot, x_data = truth_instance(1)
    assert np.all(forward_map(np.zeros_like(s), x_data, x_pilot, PILOTS, Z) == 0)


def test_forward_map_matches_model_outputs():
    Z, s, x, x_pilot, x_data = truth_instance(2)
    y_bar = build_B(Z, x, DIMS) @ s
    got = forward_map(s, x_data, x_pilot, PILOTS, Z)
    assert got.shape == (12,)  # |useful| = 12 here
    assert np.allclose(got, y_bar[:12], rtol=1e-12, atol=0)


def test_recover_from_exact_truth_is_instant():
    Z, s, x, x_pilot, x_data = truth_instance(3)
    y = forward_map(s, x_data, x_pilot, PILOTS, Z)
    res = recover(y, x_pilot, PILOTS, Z, init=(s, x_data), truth=(s, x_data))
    assert res.iterations == 0
    assert res.residual == 0.0
    assert res.success


def test_recover_from_perturbed_truth():
    results = run_recovery_trials(DIMS, trials=20, seed=51)
    assert all(r.success for r in results)
    assert all(r.residual < 1e-9 for r in results)
    assert all(r.param_error < 1e-6 for r in results)


def test_recover_constant_model_leaves_parameter_error():
    # the linearization at truth is singular; the parameters stay unidentified
    results = run_recovery_trials(DIMS, trials=20, seed=52, constant=True)
    errors = sorted(r.param_error for r in results)
    assert errors[len(errors) // 2] > 1e-4
    assert not any(r.residual < 1e-9 and r.param_error < 1e-6 for r in results)


def test_local_identifiability_links_to_sigma_min():
    # well-conditioned truth implies perturbed recovery succeeds
    for seed in range(10):
        Z, s, x, x_pilot, x_data = truth_instance(seed + 200)
        J = assemble_jacobian(Z, s, x, PILOTS)
        if J.sigma_min <= 1e-8 * J.spectral_norm:
            continue
        rng = np.random.default_rng(seed)
        truth = np.concatenate([s, x_data])
        noise = standard_complex_gaussian(rng, truth.size)
        init = truth + 1e-2 * np.linalg.norm(truth) * noise / np.linalg.norm(noise)
        y = forward_map(s, x_data, x_pilot, PILOTS, Z)
        res = recover(y, x_pilot, PILOTS, Z, init=(init[:6], init[6:]), truth=(s, x_data))
        assert res.success and res.param_error < 1e-6


def test_solution_multiplicity_stays_below_bezout():
    # cold-start restarts: count distinct converged solutions, report only
    Z, s, x, x_pilot, x_data = truth_instance(7)
    y = forward_map(s, x_data, x_pilot, PILOTS, Z)
    rng = np.random.default_rng(99)
    found = []
    for _ in range(30):
        s0 = standard_complex_gaussian(rng, 6)
        x0 = standard_complex_gaussian(rng, 6)
        res = recover(y, x_pilot, PILOTS, Z, init=(s0, x0))
        if res.residual < 1e-9:
            found.append(np.concatenate([res.s, res.x_data]))
    clusters = cluster_solutions(found, rel_tol=1e-6)
    assert len(clusters) >= 1
    assert len(clusters) <= bezout_bound(DIMS, PILOTS)
    print(f"distinct converged solutions observed: {len(clusters)} (cap 4096)")


def test_one_fewer_pilot_leaves_null_space():
    # moving a pilot to the data side makes the system underdetermined
    pa = PILOTS
    extra = pa.pilots[-1]
    hacked = dataclasses.replace(
        pa,
        pilot_sets=(pa.pilot_sets[0], ()),
        data_sets=(pa.data_sets[0], tuple(range(1, 5))),
        pilots=(pa.pilots[0],),
        data=tuple(sorted(pa.data + (extra,))),
    )
    Z, s, x, _, _ = truth_instance(11)
    from fadingdof.jacobian import _diagonal_grid  # rectangular case needs manual assembly

    B = build_B(Z, x, DIMS)
    A = _diagonal_grid(Z, s, DIMS)
    M = np.hstack([B, A[:, np.asarray(hacked.data) - 1]])[: hacked.n_useful]
    assert M.shape == (12, 13)
    svals = np.linalg.svd(M, compute_uv=False)
    rank = int(np.sum(svals > 1e-8 * svals[0]))
    assert rank == 12  # still solvable
    assert M.shape[1] - rank >= 1  # nontrivial null space


def test_scaling_ambiguity_invariance():
    Z, s, x, _, _ = truth_instance(13)
    assert scaling_ambiguity_check(s, x, Z, DIMS, seed=0)
    # identity factors trivially preserve the output
    y0 = build_B(Z, x, DIMS) @ s
    assert np.allclose(y0, build_B(Z, 1.0 * x, DIMS) @ (s / 1.0), rtol=0, atol=0)


def test_scaling_x_alone_changes_output():
    Z, s, x, _, _ = truth_instance(14)
    y0 = build_B(Z, x, DIMS) @ s
    x2 = x.copy()
    x2[:4] *= 1.7 - 0.3j  # rescale one antenna without compensating s
    y1 = build_B(Z, x2, DIMS) @ s
    assert np.linalg.norm(y1 - y0) / np.linalg.norm(y0) > 1e-3


def test_rank_gap_demo_values():
    assert rank_gap_demo(DIMS, seed=0) == (2, 3)
    assert rank_gap_demo(Dims.create(1, 1, 4, 1), seed=1) == (1, 1)


def test_rank_gap_demo_stable_over_seeds():
    for seed in range(50):
        assert rank_gap_demo(DIMS, seed=seed) == (2, 3)


def test_neighbouring_seeds_draw_distinct_colorings(monkeypatch):
    # seed + 1000 + trial once gave --seed 2 trial 1 and --seed 3 trial 0 the same Z
    import fadingdof.identify as identify

    drawn = []

    def recording_coloring(dims, seed):
        Z = random_coloring(dims, seed)
        drawn.append(Z.blocks)
        return Z

    monkeypatch.setattr(identify, "random_coloring", recording_coloring)
    run_recovery_trials(DIMS, trials=2, seed=2)
    run_recovery_trials(DIMS, trials=1, seed=3)
    assert len(drawn) == 3
    assert not np.array_equal(drawn[1], drawn[2])
    assert not np.array_equal(drawn[0], drawn[1])


def test_rank_gap_demo_neighbouring_seeds_share_no_stream(monkeypatch):
    # default_rng(seed) for (s, x) and seed + 1 for Z once made seed 4's s
    # repeat the real parts of seed 3's coloring
    import fadingdof.identify as identify

    points, colorings = [], []

    def recording_gaussian(rng, shape):
        out = standard_complex_gaussian(rng, shape)
        points.append(out)
        return out

    def recording_coloring(dims, seed):
        Z = random_coloring(dims, seed)
        colorings.append(Z.blocks)
        return Z

    monkeypatch.setattr(identify, "standard_complex_gaussian", recording_gaussian)
    monkeypatch.setattr(identify, "random_coloring", recording_coloring)
    assert rank_gap_demo(DIMS, seed=3) == rank_gap_demo(DIMS, seed=4) == (2, 3)
    assert len(points) == 4 and len(colorings) == 2  # (s, x) per call, one Z per call
    s4 = points[2]
    assert not np.isin(s4.real, colorings[0].real).any()
