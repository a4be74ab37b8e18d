"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance is pinned here, not configurable.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
from paper_facts import gaussian_log_magnitude_mean, mc_log_magnitude, rank_gap

from fadingdof.analysis import mc_logdet
from fadingdof.dof import (
    chi_const,
    chi_gen,
    chi_low,
    chi_low_star,
    chi_low_star_brute,
    chi_upper,
    dof_report,
    figure1_curves,
)
from fadingdof.identify import run_recovery_trials
from fadingdof.jacobian import assemble_jacobian, genericity_probe, witness_construct
from fadingdof.model import (
    Dims,
    constant_model,
    random_coloring,
    regime_cells,
    standard_complex_gaussian,
)
from fadingdof.pilots import build_pilot_sets, card_deal, verify_pilot_properties

DIMS_2341 = Dims.create(2, 3, 4, 1)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_dof_values():
    with criterion(1, "exact bound values at T=2, R=3, N=4, Q=1"):
        rep = dof_report(DIMS_2341)
        assert rep.chi_const == Fraction(1)
        assert rep.chi_gen_upper == Fraction(3, 2)
        assert rep.chi_low_star == Fraction(3, 2)
        assert rep.chi_gen_upper == rep.chi_low_star  # upper meets lower exactly


def test_criterion_2_figure_asymptote():
    with criterion(2, "ratio 998001/250000 at N=1000, monotone toward 4"):
        rows = figure1_curves(range(2, 1001))
        ratios = [r[1] for r in rows]
        assert ratios[-1] == Fraction(998001, 250000)
        assert float(ratios[-1]) == 3.992004
        for a, b in zip(ratios, ratios[1:]):
            assert a <= b
        assert all(r < 4 for r in ratios)


def grid_max_lower_bound(N, Q, cap):
    """Independent maximization of the lower bound over all T, R <= cap.

    For any T, the bound maximizes over active antennas up to min(T, R), so
    the grid maximum equals the maximum of chi_low over R <= cap and
    1 <= T_eff <= R (T = cap dominates), floored at the inactive value 0.
    """
    best = Fraction(0)
    for R in range(1, cap + 1):
        for t_eff in range(1, min(cap, R) + 1):
            best = max(best, chi_low(t_eff, R, N, Q))
    return best


def test_criterion_3_optimal_antenna_counts():
    with criterion(3, "grid-optimal (T, R) matches the closed form for Q in {1,2}"):
        # validate the triangle-shaped oracle against the direct double loop
        for N, Q, cap in [(5, 1, 25), (7, 2, 25)]:
            direct = max(
                chi_low_star_brute(T, R, N, Q)
                for T in range(1, cap + 1)
                for R in range(1, cap + 1)
            )
            assert direct == grid_max_lower_bound(N, Q, cap)
        for Q in (1, 2):
            for N in range(3, 13):
                t_star = (N - 1) // Q
                r_star = -(-((N - 1) ** 2) // Q)
                value = Fraction(t_star) * (1 - Fraction(1, N))
                assert value > 0
                assert r_star <= 200
                assert grid_max_lower_bound(N, Q, 200) == value
                assert chi_low_star(t_star, r_star, N, Q) == value


def test_criterion_4_pilot_combinatorics():
    with criterion(4, "dealing bijective to 16, set properties to N=12, worked table"):
        for T_eff in range(1, 17):
            for N in range(1, 17):
                image = {card_deal(j, T_eff, N) for j in range(1, T_eff * N + 1)}
                assert len(image) == T_eff * N

        failures = []
        for dims in regime_cells(12):
            report = verify_pilot_properties(dims)
            bad = {k for k, v in report.items() if not v["ok"]}
            if bad:
                failures.append((dims, bad))
        assert not failures, failures

        pa = build_pilot_sets(Dims(T=4, R=5, N=6, Q=1, T_eff=4))
        assert pa.theta_R == 14
        assert [set(p) for p in pa.pilot_sets] == [
            {1, 5, 3},
            {2, 6, 4, 1},
            {3, 1, 5, 2},
            {4, 2, 6},
        ]


def test_criterion_5_witness_nonsingularity():
    with criterion(5, "witness sigma_min margin on every regime cell N<=8, Q<=2"):
        cells = [d for d in regime_cells(8) if d.Q <= 2]
        assert len(cells) > 100
        for dims in cells:
            pa = build_pilot_sets(dims)
            Z, s, x = witness_construct(dims, pa, seed=23)
            J = assemble_jacobian(Z, s, x, pa)
            assert J.sigma_min > 1e-10 * J.spectral_norm, dims

        pa = build_pilot_sets(DIMS_2341)
        Z, _, _ = witness_construct(DIMS_2341, pa, seed=23)
        zb = Z.blocks
        assert zb[2, 1, 0, 0] == 0 and zb[2, 0, 1, 0] == 0
        assert zb[2, 1, 2, 0] == 0 and zb[2, 0, 3, 0] == 0


def test_criterion_6_genericity_probe():
    with criterion(6, "100/100 generic draws nonsingular, 0/100 constant-model"):
        pa = build_pilot_sets(DIMS_2341)
        generic = genericity_probe(DIMS_2341, pa, trials=100, seed=606)
        assert generic.fraction_nonsingular == 1.0
        degenerate = genericity_probe(
            DIMS_2341, pa, trials=100, seed=606, coloring=constant_model(DIMS_2341)
        )
        assert degenerate.fraction_nonsingular == 0.0


def test_criterion_7_identifiability():
    with criterion(7, "99/100 perturbed recoveries, rank gap (2, 3) in 100 seeds"):
        results = run_recovery_trials(DIMS_2341, trials=100, seed=707)
        good = sum(1 for r in results if r.residual < 1e-9 and r.param_error < 1e-6)
        assert good >= 99
        for seed in range(100):
            assert rank_gap(DIMS_2341, seed=seed) == (2, 3)


def finite_difference(Z, s, x, pilots, delta=1e-5):
    from fadingdof.identify import forward_map

    dims = pilots.dims
    pilot0 = np.asarray(pilots.pilots) - 1
    data0 = np.asarray(pilots.data) - 1
    x_pilot = x[pilot0]
    u = np.concatenate([s, x[data0]])
    n_s = s.size

    def phi(v):
        return forward_map(v[:n_s], v[n_s:], x_pilot, pilots, Z)

    cols = []
    for k in range(u.size):
        e = np.zeros_like(u)
        e[k] = delta
        cols.append((phi(u + e) - phi(u - e)) / (2 * delta))
    return np.stack(cols, axis=1)


def test_criterion_8_jacobian_vs_finite_differences():
    with criterion(8, "central differences agree to 1e-6 on the small sweep"):
        for dims in (d for d in regime_cells(5) if d.Q <= 2):
            pa = build_pilot_sets(dims)
            for k in range(20):
                rng = np.random.default_rng(1000 * dims.N + 10 * dims.R + k)
                Z = random_coloring(dims, seed=17 + k)
                s = standard_complex_gaussian(rng, dims.R * dims.T_eff * dims.Q)
                x = standard_complex_gaussian(rng, dims.T_eff * dims.N)
                J = assemble_jacobian(Z, s, x, pa).matrix
                fd = finite_difference(Z, s, x, pa)
                err = np.linalg.norm(J - fd) / np.linalg.norm(J)
                assert err < 1e-6, (dims, k, err)


def test_criterion_9_logdet_integrability_evidence():
    with criterion(9, "1-D log moment within 1e-2 at 1e6 samples; finite MC log-det"):
        est = mc_log_magnitude(samples=1_000_000, seed=909)
        assert abs(est - gaussian_log_magnitude_mean()) < 1e-2
        Z = random_coloring(DIMS_2341, seed=910)
        pa = build_pilot_sets(DIMS_2341)
        logdet = mc_logdet(Z, DIMS_2341, pa, samples=10_000, seed=911)
        assert math.isfinite(logdet.mean)
        assert logdet.clipped_fraction == 0.0


def test_criterion_10_bound_ordering():
    with criterion(10, "ordering everywhere, equality exactly on the closed region"):
        for N in range(1, 13):
            for Q in range(1, 4):
                for T in range(1, 21):
                    for R in range(1, 21):
                        star = chi_low_star(T, R, N, Q)
                        upper = chi_upper(T, N)
                        assert star <= upper
                        if N < 2:
                            continue  # region characterization assumes N >= 2
                        in_region = T * Q < N and Fraction(R) >= Fraction(
                            T * (N - 1), N - T * Q
                        )
                        assert (star == upper) == in_region, (T, R, N, Q)
