"""Channel model: stacked forward map, sampling, and serialization."""

import json

import numpy as np
import pytest
from paper_facts import build_B, regime_cells

from fadingdof.analysis import mc_logdet
from fadingdof.identify import forward_map, recover, run_recovery_trials
from fadingdof.jacobian import assemble_jacobian, genericity_probe, witness_construct
from fadingdof.model import (
    Dims,
    InvalidConfigurationError,
    channel_vectors,
    coloring_to_dict,
    complex_gaussian_draws,
    constant_model,
    dims_to_dict,
    random_coloring,
    split_fading,
    split_tx,
    standard_complex_gaussian,
)
from fadingdof.pilots import pilot_chain

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
                    acc += Z[r, t][i, q] * sv[r, t][q] * xv[t][i]
            out[r * dims.N + i] = acc
    return out


def test_build_B_identity_diag_collapses_to_z():
    # Q=1, T_eff=1, R=1, all-one x: B is the single coloring column itself
    dims = Dims.create(1, 1, 3, 1)
    z = np.array([[1.0 + 2j], [3.0 - 1j], [0.5j]])
    Z = z.reshape(1, 1, 3, 1)
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


def test_channel_vectors_give_the_entrywise_outputs():
    rng = np.random.default_rng(43)
    Z = random_coloring(DIMS_2341, seed=4)
    S = standard_complex_gaussian(rng, (3, 6))
    X = standard_complex_gaussian(rng, (3, 8))
    h = channel_vectors(Z, S)
    assert h.shape == (3, 3, 2, 4)  # (draws, R, T_eff, N)
    for j in range(3):
        y = (X[j].reshape(2, 4) * h[j]).sum(axis=1).ravel()  # y_r[i] = sum_t x_t[i] h_{r,t}[i]
        assert np.allclose(y, entrywise_output(Z, S[j], X[j], DIMS_2341), rtol=1e-12, atol=0)
    per_draw = channel_vectors(np.stack([Z] * 3), S)
    assert np.array_equal(per_draw, h)


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


# every public function that takes a coloring, called at the point (s, x) of the cell, taken as its chain
COLORING_ENTRY_POINTS = {
    "assemble_jacobian": lambda Z, chain, s, x: assemble_jacobian(Z, s, x, chain),
    "forward_map": lambda Z, chain, s, x: forward_map(s, x, chain, Z),
    "recover": lambda Z, chain, s, x: recover(np.ones(chain.n_useful), chain, Z, init=(s, x)),
    "genericity_probe": lambda Z, chain, s, x: genericity_probe(chain, 1, 0, coloring=Z),
    "genericity_probe without trials": lambda Z, chain, s, x: genericity_probe(chain, 0, 0, coloring=Z),
    "run_recovery_trials": lambda Z, chain, s, x: run_recovery_trials(chain, 1, 0, coloring=Z),
    "run_recovery_trials without trials": lambda Z, chain, s, x: run_recovery_trials(chain, 0, 0, coloring=Z),
    "mc_logdet": lambda Z, chain, s, x: mc_logdet(Z, chain, 1, 0),
}


@pytest.mark.parametrize("stack", [False, True], ids=["other cell", "stack of one"])
@pytest.mark.parametrize("entry", sorted(COLORING_ENTRY_POINTS))
def test_every_coloring_entry_point_refuses_another_shape(entry, stack):
    # a stack of one matches the depth of every stack these calls factorize or evaluate
    Z = random_coloring(DIMS_2341, seed=0)
    wrong = Z[None] if stack else random_coloring(Dims.create(2, 2, 4, 1), seed=0)
    s, x = np.ones(DIMS_2341.R * DIMS_2341.T_eff), np.ones(DIMS_2341.T_eff * DIMS_2341.N)
    with pytest.raises(InvalidConfigurationError, match=r"coloring grid \(.*\) does not conform"):
        COLORING_ENTRY_POINTS[entry](wrong, pilot_chain(DIMS_2341), s, x)


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_coloring(DIMS_2341, seed=0),
        lambda: constant_model(DIMS_2341),
        lambda: witness_construct(pilot_chain(DIMS_2341), seed=0)[0],
        lambda: witness_construct(pilot_chain(DIMS_2341), exact=True)[0],
    ],
    ids=["random_coloring", "constant_model", "witness_construct", "exact witness_construct"],
)
def test_colorings_are_read_only(make):
    Z = make()
    with pytest.raises(ValueError, match="read-only"):
        Z[0, 0, 0, 0] = 2


def test_fading_unit_variance_law_of_large_numbers():
    """Per-entry variance of the CN(0, 1) sampler is 1; pooled over 1e5 draws."""
    rng = np.random.default_rng(123)
    draws = standard_complex_gaussian(rng, (100_000, 6))
    var = np.mean(np.abs(draws) ** 2)
    assert 0.98 <= var <= 1.02


def test_complex_gaussian_draws_read_the_stream_in_per_draw_order():
    got = complex_gaussian_draws(np.random.default_rng(8), 3, 2, 5)
    rng = np.random.default_rng(8)
    for j in range(3):
        for size, block in zip((2, 5), got):
            assert block[j].tobytes() == standard_complex_gaussian(rng, size).tobytes()


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
    assert Z.shape == (3, 2, 4, 1)
    assert np.array_equal(Z, np.ones((3, 2, 4, 1)))
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
    assert dims_to_dict(DIMS_2341) == {"T": 2, "R": 3, "N": 4, "Q": 1, "T_eff": 2}
    Z = random_coloring(DIMS_2341, seed=6)
    d = json.loads(json.dumps(coloring_to_dict(Z)))
    assert (d["n_rx"], d["n_tx"], d["block_len"], d["rank"]) == Z.shape
    pairs = np.asarray(d["blocks"])
    assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], Z)
