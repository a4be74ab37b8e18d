"""Channel model: stacked forward map, sampling, and serialization."""

import numpy as np
import pytest

from fadingdof.model import (
    ColoringMatrix,
    Dims,
    InvalidConfigurationError,
    build_B,
    coloring_from_dict,
    coloring_to_dict,
    constant_model,
    dims_from_dict,
    dims_to_dict,
    random_coloring,
    regime_cells,
    sample_realization,
    split_fading,
    split_tx,
    standard_complex_gaussian,
)

DIMS_2341 = Dims.create(2, 3, 4, 1)


def entrywise_output(Z, s, x, dims):
    """Brute-force per-entry evaluation of the single input-output relation."""
    xv = split_tx(x, dims)
    sv = split_fading(s, dims)
    out = np.zeros(dims.R * dims.N, dtype=complex)
    for r in range(dims.R):
        for i in range(dims.N):
            acc = 0j
            for t in range(dims.T_eff):
                for q in range(dims.Q):
                    acc += Z.blocks[r, t][i, q] * sv[r, t][q] * xv[t][i]
            out[r * dims.N + i] = acc
    return out


def test_build_B_identity_diag_collapses_to_z():
    # Q=1, T_eff=1, R=1, all-one x: B is the single coloring column itself
    dims = Dims.create(1, 1, 3, 1)
    z = np.array([[1.0 + 2j], [3.0 - 1j], [0.5j]])
    Z = ColoringMatrix(z.reshape(1, 1, 3, 1))
    B = build_B(Z, np.ones(3, dtype=complex), dims)
    assert B.shape == (3, 1)
    assert np.array_equal(B[:, 0], z[:, 0])


def test_build_B_block_diagonal_shape():
    # two active transmitters, three receivers, block length four: 12x6, three 4x2 blocks
    Z = random_coloring(DIMS_2341, seed=5)
    x = standard_complex_gaussian(np.random.default_rng(0), 8)
    B = build_B(Z, x, DIMS_2341)
    assert B.shape == (12, 6)
    for r in range(3):
        rows = slice(4 * r, 4 * r + 4)
        for c in range(3):
            cols = slice(2 * c, 2 * c + 2)
            block = B[rows, cols]
            if r == c:
                assert np.any(block != 0)
            else:
                assert np.all(block == 0)


def test_build_B_matches_entrywise_oracle():
    rng = np.random.default_rng(42)
    Z = random_coloring(DIMS_2341, seed=3)
    s = standard_complex_gaussian(rng, 6)
    x = standard_complex_gaussian(rng, 8)
    got = build_B(Z, x, DIMS_2341) @ s
    expected = entrywise_output(Z, s, x, DIMS_2341)
    assert np.allclose(got, expected, rtol=1e-12, atol=0)


def test_build_B_linear_in_x():
    rng = np.random.default_rng(1)
    Z = random_coloring(DIMS_2341, seed=9)
    s = standard_complex_gaussian(rng, 6)
    x1 = standard_complex_gaussian(rng, 8)
    x2 = standard_complex_gaussian(rng, 8)
    lhs = build_B(Z, x1 + x2, DIMS_2341) @ s
    rhs = build_B(Z, x1, DIMS_2341) @ s + build_B(Z, x2, DIMS_2341) @ s
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_build_B_shape_errors():
    Z = random_coloring(DIMS_2341, seed=0)
    with pytest.raises(InvalidConfigurationError):
        build_B(Z, np.ones(7), DIMS_2341)
    other = random_coloring(Dims.create(2, 2, 4, 1), seed=0)
    with pytest.raises(InvalidConfigurationError):
        build_B(other, np.ones(8), DIMS_2341)


def test_sample_realization_deterministic_under_seed():
    Z = random_coloring(DIMS_2341, seed=2)
    a = sample_realization(Z, DIMS_2341, rho=10.0, seed=77)
    b = sample_realization(Z, DIMS_2341, rho=10.0, seed=77)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.y, b.y)


def test_sample_realization_model_identity_and_positivity():
    Z = random_coloring(DIMS_2341, seed=2)
    r = sample_realization(Z, DIMS_2341, rho=100.0, seed=5)
    reassembled = np.sqrt(100.0 / 2) * r.y_bar + r.w
    assert np.allclose(r.y, reassembled, rtol=1e-12, atol=0)
    assert np.allclose(r.y_bar, build_B(Z, r.x, DIMS_2341) @ r.s, rtol=1e-12, atol=1e-14)
    with pytest.raises(InvalidConfigurationError):
        sample_realization(Z, DIMS_2341, rho=0.0, seed=5)


def test_fading_unit_variance_law_of_large_numbers():
    """Per-entry variance of the fading vector is 1; pooled over 1e5 draws.

    The distributional check draws through the same sampler the realization
    path uses; a short realization loop below checks the wiring end to end.
    """
    rng = np.random.default_rng(123)
    draws = standard_complex_gaussian(rng, (100_000, 6))
    var = np.mean(np.abs(draws) ** 2)
    assert 0.98 <= var <= 1.02

    Z = random_coloring(DIMS_2341, seed=4)
    pooled = [np.abs(sample_realization(Z, DIMS_2341, 1.0, seed=k).s) ** 2 for k in range(300)]
    var_wired = float(np.mean(pooled))
    assert 0.9 <= var_wired <= 1.1


def test_input_power_meets_average_constraint():
    # E||x||^2 = T_eff*N, within the T*N budget; 2% band on the pooled mean
    rng = np.random.default_rng(202)
    teff_n = DIMS_2341.T_eff * DIMS_2341.N
    draws = standard_complex_gaussian(rng, (100_000, teff_n))
    mean_power = float(np.mean(np.sum(np.abs(draws) ** 2, axis=1)))
    assert abs(mean_power - teff_n) <= 0.02 * teff_n
    assert mean_power <= DIMS_2341.T * DIMS_2341.N * 1.02


def test_constant_model_is_all_ones_and_rejects_high_rank():
    Z = constant_model(DIMS_2341)
    assert Z.stacked.shape == (12, 2)
    assert np.array_equal(Z.stacked, np.ones((12, 2)))
    with pytest.raises(InvalidConfigurationError):
        constant_model(Dims.create(2, 3, 4, 2, T_eff=1))


def numerical_rank(M, tol=1e-8):
    svals = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(svals > tol * svals[0]))


def test_constant_model_outputs_confined_to_input_span():
    # noiseless outputs stay inside span{x_1, x_2}: stacked receive matrix has rank 2
    rng = np.random.default_rng(8)
    Z = constant_model(DIMS_2341)
    s = standard_complex_gaussian(rng, 6)
    x = standard_complex_gaussian(rng, 8)
    y_bar = build_B(Z, x, DIMS_2341) @ s
    assert numerical_rank(y_bar.reshape(3, 4).T) == 2


def test_single_antenna_constant_output_is_scaled_input():
    dims = Dims.create(1, 1, 4, 1)
    Z = constant_model(dims)
    rng = np.random.default_rng(3)
    s = standard_complex_gaussian(rng, 1)
    x = standard_complex_gaussian(rng, 4)
    y_bar = build_B(Z, x, dims) @ s
    assert np.allclose(y_bar, s[0] * x, rtol=1e-12)


def test_generic_coloring_fills_three_dimensions():
    # 100 random colorings: receive matrix reaches rank 3 in every draw
    for seed in range(100):
        rng = np.random.default_rng(seed + 10_000)
        Z = random_coloring(DIMS_2341, seed=seed)
        s = standard_complex_gaussian(rng, 6)
        x = standard_complex_gaussian(rng, 8)
        y_bar = build_B(Z, x, DIMS_2341) @ s
        assert numerical_rank(y_bar.reshape(3, 4).T) == 3


def test_dims_validation():
    with pytest.raises(InvalidConfigurationError):
        Dims(T=2, R=3, N=4, Q=5, T_eff=2)  # Q > N
    with pytest.raises(InvalidConfigurationError):
        Dims(T=2, R=3, N=4, Q=1, T_eff=3)  # T_eff > min(T, R)
    with pytest.raises(InvalidConfigurationError):
        Dims(T=0, R=3, N=4, Q=1, T_eff=1)
    d = Dims.create(3, 9, 4, 1)
    assert d.T_eff == 3
    assert d.in_proof_regime
    bad = Dims.create(2, 30, 4, 1)
    assert not bad.in_proof_regime and "R <=" in bad.regime_violation()


def test_dims_rejects_bool_fields():
    # bool is an int subclass, so True would otherwise pass as a size of 1
    with pytest.raises(InvalidConfigurationError):
        Dims(T=True, R=True, N=2, Q=True, T_eff=True)
    for name in ("T", "R", "N", "Q", "T_eff"):
        fields = {"T": 1, "R": 1, "N": 2, "Q": 1, "T_eff": 1, name: True}
        with pytest.raises(InvalidConfigurationError, match=f"^{name} must"):
            Dims(**fields)


def test_regime_cells_is_the_whole_regime_grid():
    cells5, cells6 = list(regime_cells(5)), list(regime_cells(6))
    assert len(cells5) == 57
    assert len(cells6) == 107
    assert cells6[: len(cells5)] == cells5  # ordered by N first
    brute = set()
    for N in range(2, 7):
        for Q in range(1, N + 1):
            for T_eff in range(1, N + 1):
                for R in range(T_eff, 31):  # rx_needed <= 25 for N <= 6
                    dims = Dims(T=T_eff, R=R, N=N, Q=Q, T_eff=T_eff)
                    if dims.in_proof_regime:
                        brute.add(dims)
    assert set(cells6) == brute and len(brute) == len(cells6)


def test_json_round_trips():
    d = dims_from_dict(dims_to_dict(DIMS_2341))
    assert d == DIMS_2341
    Z = random_coloring(DIMS_2341, seed=6)
    Z2 = coloring_from_dict(coloring_to_dict(Z))
    assert np.array_equal(Z.blocks, Z2.blocks)
