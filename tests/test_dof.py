"""Exact bound arithmetic and antenna optimization."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from paper_facts import chi_const_max, chi_low_star_brute, chi_low_star_brute_scaled, virtual_simo_K

from fadingdof import dof
from fadingdof.dof import (
    chi_const,
    chi_gen,
    chi_low,
    chi_low_star,
    chi_upper,
    dof_report,
    ell,
    figure1_curves,
    optimal_active_tx,
    pilot_count,
    rounded_lower,
)
from fadingdof.model import Dims, constant_model, standard_complex_gaussian

F = Fraction


def test_chi_const_values():
    assert chi_const(2, 3, 4) == 1
    assert chi_const(1, 1, 1) == 0  # M = min{1, 1, 0} = 0


def test_chi_const_max_bounded_by_quarter_block():
    # enumerate N = 2..50: max <= N/4 with equality exactly at even N
    for N in range(2, 51):
        m = N // 2
        val = chi_const(m, m, N)
        assert val <= F(N, 4)
        assert (val == F(N, 4)) == (N % 2 == 0)
        assert chi_const_max(N) == val


def test_chi_gen_values():
    assert chi_gen(2, 4) == F(3, 2)
    assert chi_gen(5, 1) == 0
    assert chi_gen(3, 4) == F(9, 4)  # maximizing antenna count N-1 at Q=1


def test_chi_upper_values():
    assert chi_upper(2, 4) == F(3, 2)
    assert chi_upper(1, 2) == F(1, 2)


def test_chi_low_values():
    assert chi_low(2, 3, 4, 1) == F(3, 2)
    assert chi_low(1, 1, 1, 1) == 0
    # N = T_eff*Q: second argument collapses, bound becomes trivial
    assert chi_low(2, 3, 4, 2) <= 0


def test_chi_low_star_closed_form_cases():
    assert optimal_active_tx(9, 4, 1) == 3
    assert chi_low_star(3, 9, 4, 1) == F(9, 4)
    for N in range(2, 7):
        assert chi_low_star(3, 5, N, N) == 0  # N = Q >= 2: trivial bound


def test_chi_low_star_matches_brute_force_everywhere():
    for N in range(1, 11):
        for Q in range(1, 4):
            for T in range(1, 9):
                for R in range(1, 9):
                    assert chi_low_star(T, R, N, Q) == chi_low_star_brute(T, R, N, Q), (
                        T,
                        R,
                        N,
                        Q,
                    )


def test_scaled_forms_are_N_times_the_fraction_oracles():
    # verify-all compares these integers; the public values are them over N
    for N in range(1, 11):
        for Q in range(1, 4):
            for T in range(1, 13):
                for R in range(1, 13):
                    brute = chi_low_star_brute(T, R, N, Q)
                    assert chi_low_star_brute_scaled(T, R, N, Q) == N * brute, (T, R, N, Q)
                    assert dof._chi_low_star_scaled(T, R, N, Q) == N * brute, (T, R, N, Q)
                    assert chi_low_star(T, R, N, Q) == brute


def test_brute_grid_is_the_scalar_brute_force_on_every_cell():
    # the grid verify-all checks, and beyond: T, R up to 20, so min(T, R) spans more T_eff
    for axes in (np.ogrid[1:11, 1:4, 1:13, 1:13], np.ogrid[1:8, 1:8, 1:21, 1:21]):
        grid = dof._chi_low_star_brute_grid(*axes)
        assert grid.shape == tuple(len(a.ravel()) for a in axes) and grid.dtype == np.int64
        for (n, q, t, r), value in np.ndenumerate(grid):
            assert value == chi_low_star_brute_scaled(t + 1, r + 1, n + 1, q + 1), (t + 1, r + 1, n + 1, q + 1)


def test_brute_grid_broadcasts_scalars_and_arrays_alike():
    N, R = np.arange(1, 9)[:, None], np.arange(1, 9)
    assert np.array_equal(
        dof._chi_low_star_brute_grid(N, 2, 5, R),
        [[chi_low_star_brute_scaled(5, r, n, 2) for r in range(1, 9)] for n in range(1, 9)],
    )
    assert dof._chi_low_star_brute_grid(7, 2, 5, 4) == dof._chi_low_star_scaled(5, 4, 7, 2)


def test_closed_form_grid_is_the_scalar_closed_form_and_stays_exact_on_ints():
    # verify-all evaluates the closed form on its whole grid in one call
    N, Q, T, R = np.ogrid[1:11, 1:4, 1:13, 1:13]
    grid = dof._chi_low_star_scaled(T, R, N, Q)
    assert grid.shape == (10, 3, 12, 12) and grid.dtype == np.int64
    for (n, q, t, r), value in np.ndenumerate(grid):
        assert value == dof._chi_low_star_scaled(t + 1, r + 1, n + 1, q + 1), (t + 1, r + 1, n + 1, q + 1)
    # ints stay Python ints, so the Fractions are exact past the int64 range
    big = 10**12
    values = [chi_low_star(big, big, 10**20, 1), rounded_lower(big, 10**20, 1)]
    values += list(figure1_curves([12], antenna_cap=5)[0][1:])
    assert all(type(v.numerator) is int and type(v.denominator) is int for v in values)
    t_opt = optimal_active_tx(big, 10**20, 1)  # below T = big: the rounded optimum
    assert values[0] == values[1] == max(chi_low(t, big, 10**20, 1) for t in (math.floor(t_opt), math.ceil(t_opt)))


# Oracle: the paper's formulas in Fraction arithmetic, kept apart from the
# library's N-scaled integers (its brute force shares them with chi_low).
def oracle_chi_gen(T, N):
    return T * (1 - F(1, N))


def oracle_chi_low(T_eff, R, N, Q):
    return min(T_eff * (1 - F(1, N)), R * (1 - F(T_eff * Q, N)))


def oracle_t_opt(R, N, Q):
    return F(R * N, N + R * Q - 1)


def oracle_rounded_lower(R, N, Q):
    t_opt = oracle_t_opt(R, N, Q)
    return max(R * (1 - F(math.ceil(t_opt) * Q, N)), math.floor(t_opt) * (1 - F(1, N)))


def oracle_chi_low_star(T, R, N, Q):
    if T <= oracle_t_opt(R, N, Q):
        return oracle_chi_gen(T, N)
    return oracle_rounded_lower(R, N, Q)


def test_bounds_match_fraction_oracle_on_grid():
    # N = 1 and T_eff Q >= N are included, where chi_low <= 0
    for N in range(1, 31):
        for Q in range(1, 5):
            for R in range(1, 21):
                t_opt, eta = oracle_t_opt(R, N, Q), oracle_rounded_lower(R, N, Q)
                assert optimal_active_tx(R, N, Q) == t_opt, (R, N, Q)
                assert rounded_lower(R, N, Q) == eta, (R, N, Q)
                lows = [oracle_chi_low(t, R, N, Q) for t in range(1, 21)]
                for T in range(1, 21):
                    cell = (T, R, N, Q)
                    gen = oracle_chi_gen(T, N)
                    brute = max([F(0)] + lows[: min(T, R)])
                    assert chi_gen(T, N) == chi_upper(T, N) == gen, cell
                    assert chi_low(T, R, N, Q) == lows[T - 1], cell
                    assert chi_low_star(T, R, N, Q) == (gen if T <= t_opt else eta) == brute, cell
                    assert chi_low_star_brute(T, R, N, Q) == brute, cell


@settings(max_examples=300, deadline=None, derandomize=True)
@given(*[st.integers(1, 10**6)] * 4)
def test_closed_forms_match_fraction_oracle_on_large_ints(T, R, N, Q):
    assert optimal_active_tx(R, N, Q) == oracle_t_opt(R, N, Q)
    assert chi_gen(T, N) == chi_upper(T, N) == oracle_chi_gen(T, N)
    assert chi_low(T, R, N, Q) == oracle_chi_low(T, R, N, Q)
    assert rounded_lower(R, N, Q) == oracle_rounded_lower(R, N, Q)
    assert chi_low_star(T, R, N, Q) == oracle_chi_low_star(T, R, N, Q)


def test_ordering_and_monotonicity_invariants():
    for N in range(1, 13):
        for Q in range(1, 4):
            for T in range(1, 9):
                prev = None
                for R in range(1, 12):
                    star = chi_low_star(T, R, N, Q)
                    assert star <= chi_upper(T, N)
                    if prev is not None:
                        assert star >= prev  # nondecreasing in R
                    prev = star
            if N >= 2:
                for R in range(1, 12):
                    assert optimal_active_tx(R, N, Q) < F(N, Q)


def test_ell_values_and_regime_bound():
    assert ell(2, 3, 4, 1) == 0
    assert ell(1, 1, 2, 1) == 0
    for N in range(2, 13):
        for Q in range(1, N):
            for T_eff in range(1, N):
                if T_eff * Q >= N:
                    continue
                r_max = -(-T_eff * (N - 1) // (N - T_eff * Q))
                for R in range(T_eff, r_max + 1):
                    assert ell(T_eff, R, N, Q) < N - T_eff * Q


def test_thresholds_on_a_grid_are_the_scalar_calls_and_stay_exact_on_ints():
    # the pilot deal evaluates theta_R and ell on every cell of its batch in one call each
    T_eff, R, N, Q = np.ogrid[1:7, 1:13, 1:11, 1:4]
    for f in (pilot_count, ell):
        grid = f(T_eff, R, N, Q)
        assert grid.shape == (6, 12, 10, 3) and grid.dtype == np.int64
        for (t, r, n, q), value in np.ndenumerate(grid):
            assert value == f(t + 1, r + 1, n + 1, q + 1), (f.__name__, t + 1, r + 1, n + 1, q + 1)
    # ints stay Python ints, so dof_report is exact past the int64 range
    big = 10**12
    assert pilot_count(big, 2 * big, big, 1) == big**2 and type(pilot_count(big, 2 * big, big, 1)) is int
    assert ell(1, big, big, 1) == big * big - 2 * big + 1 and type(ell(1, big, big, 1)) is int
    assert type(pilot_count(2, 3, 4, 1)) is int and pilot_count(2, 3, 4, 1) == 2


def test_figure1_unconstrained_values():
    rows = figure1_curves([1, 4, 1000])
    assert len(rows) == 2  # N = 1 skipped
    assert rows[0][1] == F(9, 4)
    assert rows[1][1] == F(998001, 250000)


def test_figure1_unconstrained_column_matches_the_constant_model_peak():
    rows = figure1_curves(range(2, 2001))
    assert [N for N, *_ in rows] == list(range(2, 2001))
    for N, unconstrained, lower, upper in rows:
        assert unconstrained == lower == upper == F((N - 1) ** 2, N) / chi_const_max(N), N


def test_figure1_capped_column_matches_the_fraction_bounds():
    for A in (1, 2, 4, 7):
        for N, _, lower, upper in figure1_curves(range(2, 120), antenna_cap=A):
            assert lower == chi_low_star(A, A, N, 1) / chi_const(A, A, N), (A, N)
            assert upper == chi_upper(A, N) / chi_const(A, A, N), (A, N)


def test_figure1_capped_ratios_converge_to_one():
    rows = figure1_curves([50, 200, 2000], antenna_cap=4)
    lowers = [float(r[2]) for r in rows]
    uppers = [float(r[3]) for r in rows]
    for lo, up in zip(lowers, uppers):
        assert lo <= up
    assert abs(lowers[-1] - 1.0) < 1e-2
    assert abs(uppers[-1] - 1.0) < 1e-2
    # the gap shrinks as N grows
    assert uppers[2] - lowers[2] < uppers[0] - lowers[0]


def test_virtual_simo_constant_model():
    # every row of the constant model has power T_eff
    K = virtual_simo_K(constant_model(Dims.create(2, 2, 4, 1, T_eff=2)))
    assert K == pytest.approx(2.0 * (1 + 1e-6), rel=1e-12)


def test_virtual_simo_snr_bound_monte_carlo():
    # sampled SNR of one split channel stays below T*K*rho
    dims = Dims.create(2, 2, 4, 1, T_eff=2)
    Z = constant_model(dims)
    K, rho, n = virtual_simo_K(Z), 10.0, 200_000
    rng = np.random.default_rng(99)
    s = standard_complex_gaussian(rng, n)
    x = standard_complex_gaussian(rng, (n, dims.N))
    w = standard_complex_gaussian(rng, (n, dims.N))
    signal = np.mean(K * rho * np.abs(s) ** 2 * np.sum(np.abs(x) ** 2, axis=1))
    noise = np.mean(np.sum(np.abs(w) ** 2, axis=1))
    assert signal / noise <= dims.T_eff * K * rho * 1.03


def test_report_is_exact_and_consistent():
    rep = dof_report(Dims.create(2, 3, 4, 1))
    for val in (rep.chi_const, rep.chi_gen_upper, rep.chi_low_star, rep.T_opt, rep.eta):
        assert isinstance(val, Fraction)
    assert rep.chi_low_star <= rep.chi_gen_upper
    assert (rep.chi_const, rep.chi_gen_upper, rep.chi_low_star) == (1, F(3, 2), F(3, 2))
    assert (rep.ell, rep.theta_R, rep.M) == (0, 2, 2)
