"""Recovery Jacobian: assembly, witnesses, probes, block reduction, exact determinants."""

import dataclasses
import math
import warnings
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from paper_facts import assemble_jacobian_loop, full_svd_verdict, probe_draws, reduce_by_block

import fadingdof.jacobian as jacobian_module
from fadingdof.analysis import BATCH, LOG_FLOOR, LogDetEstimate, mc_logdet
from fadingdof.jacobian import (
    DET_PRIMES,
    NONSINGULAR_TOL,
    STACK_BYTES,
    JacobianLayout,
    JacobianMatrix,
    ProbeStats,
    assemble_jacobian,
    assemble_jacobians,
    bezout_bound,
    certify_witness_exact,
    exact_integer_det,
    genericity_probe,
    witness_construct,
)
from fadingdof.jacobian import _integer_matrix, _multimodular_det, _peel
from fadingdof.model import (
    ColoringMatrix,
    Dims,
    InvalidConfigurationError,
    constant_model,
    random_coloring,
    regime_cells,
    standard_complex_gaussian,
)
from fadingdof.identify import forward_map, run_recovery_trials
from fadingdof.pilots import build_pilot_sets

DIMS = Dims.create(2, 3, 4, 1)
PILOTS = build_pilot_sets(DIMS)

# Nonzero pattern of the 12x12 Jacobian at these dims with all-one x and
# pilots at flat positions {1, 6}, transcribed row by row: per receive block,
# both coloring columns are dense and each output row touches the data
# columns that share its in-block position (faces 2,3,4 of antenna 1 at
# columns 7-9, faces 1,3,4 of antenna 2 at columns 10-12).
ROW_PATTERN = {1: [10], 2: [7], 3: [8, 11], 4: [9, 12]}


def expected_mask():
    mask = np.zeros((12, 12), dtype=bool)
    for r in range(3):
        for i in range(4):
            row = 4 * r + i
            mask[row, 2 * r : 2 * r + 2] = True
            for col in ROW_PATTERN[i + 1]:
                mask[row, col - 1] = True
    return mask


def generic_point(seed, dims=DIMS):
    rng = np.random.default_rng(seed)
    Z = random_coloring(dims, seed=seed)
    s = standard_complex_gaussian(rng, dims.R * dims.T_eff * dims.Q)
    x = standard_complex_gaussian(rng, dims.T_eff * dims.N)
    return Z, s, x


def test_example_sparsity_pattern():
    Z, s, _ = generic_point(21)
    J = assemble_jacobian(Z, s, np.ones(8, dtype=complex), PILOTS)
    assert J.matrix.shape == (12, 12)
    assert np.array_equal(J.matrix != 0, expected_mask())


def test_zero_fading_kills_right_block():
    Z, _, x = generic_point(22)
    J = assemble_jacobian(Z, np.zeros(6, dtype=complex), x, PILOTS)
    assert np.all(J.matrix[:, 6:] == 0)
    assert J.det_abs == 0.0


def finite_difference_jacobian(Z, s, x, pilots, delta=1e-5):
    """Central differences of the forward map; the map is holomorphic and
    quadratic, so the truncation error is zero."""
    dims = pilots.dims
    data0 = np.asarray(pilots.data, dtype=int) - 1
    pilot0 = np.asarray(pilots.pilots, dtype=int) - 1
    x_pilot, x_data = x[pilot0], x[data0]
    u = np.concatenate([s, x_data])
    n_s = s.size

    def phi(vec):
        return forward_map(vec[:n_s], vec[n_s:], x_pilot, pilots, Z)

    cols = []
    for k in range(u.size):
        e = np.zeros_like(u)
        e[k] = delta
        cols.append((phi(u + e) - phi(u - e)) / (2 * delta))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("seed", range(5))
def test_jacobian_matches_finite_differences(seed):
    Z, s, x = generic_point(seed + 100)
    J = assemble_jacobian(Z, s, x, PILOTS)
    fd = finite_difference_jacobian(Z, s, x, PILOTS)
    err = np.linalg.norm(J.matrix - fd) / np.linalg.norm(J.matrix)
    assert err < 1e-6


def test_jacobian_entries_linear_in_each_fading_block():
    # every entry is either independent of s or linear in exactly one s_{r,t}
    Z, s, x = generic_point(31)
    base = assemble_jacobian(Z, s, x, PILOTS).matrix
    dims = DIMS
    n_b = dims.R * dims.T_eff * dims.Q
    data_faces = [(d - 1) // dims.N for d in PILOTS.data]  # antenna of each data column
    for r in range(dims.R):
        for t in range(dims.T_eff):
            s2 = s.copy()
            s2[(r * dims.T_eff + t) * dims.Q : (r * dims.T_eff + t + 1) * dims.Q] *= 2.0
            scaled = assemble_jacobian(Z, s2, x, PILOTS).matrix
            diff = scaled - base
            assert np.all(diff[:, :n_b] == 0)  # left block never depends on s
            for c, antenna in enumerate(data_faces):
                col = diff[:, n_b + c]
                rows = slice(r * dims.N, (r + 1) * dims.N)
                if antenna == t:
                    outside = np.delete(col, np.arange(r * dims.N, (r + 1) * dims.N))
                    assert np.all(outside == 0)
                    assert np.allclose(col[rows], base[rows, n_b + c], rtol=1e-12)
                else:
                    assert np.all(col[rows] == 0)


def test_witness_square_case():
    dims = Dims.create(2, 2, 4, 1, T_eff=2)
    pa = build_pilot_sets(dims)
    Z, s, x = witness_construct(dims, pa, seed=3)
    J = assemble_jacobian(Z, s, x, pa)
    assert np.array_equal(x, np.ones(8))
    assert J.det_abs > 1e-8
    assert J.nonsingular


def test_witness_example_zero_pattern():
    Z, s, x = witness_construct(DIMS, PILOTS, seed=5)
    zb = Z.blocks
    # the extra receive antenna's blocks vanish at the crossed positions
    assert zb[2, 1, 0, 0] == 0  # antenna 2, face 1
    assert zb[2, 0, 1, 0] == 0  # antenna 1, face 2
    assert zb[2, 1, 2, 0] == 0  # antenna 2, face 3
    assert zb[2, 0, 3, 0] == 0  # antenna 1, face 4
    J = assemble_jacobian(Z, s, x, PILOTS)
    assert J.nonsingular


def test_witness_small_sweep():
    for dims in (d for d in regime_cells(6) if d.Q <= 2):
        pa = build_pilot_sets(dims)
        Z, s, x = witness_construct(dims, pa, seed=17)
        J = assemble_jacobian(Z, s, x, pa)
        assert J.sigma_min > 1e-10 * J.spectral_norm, dims


def test_witness_exact_certificates():
    for dims in [DIMS, Dims.create(2, 3, 5, 1), Dims.create(1, 2, 3, 2, T_eff=1)]:
        pa = build_pilot_sets(dims)
        det = certify_witness_exact(dims, pa)
        assert isinstance(det, int) and det != 0


def test_probe_generic_and_constant():
    stats = genericity_probe(DIMS, PILOTS, trials=50, seed=12)
    assert stats.fraction_nonsingular == 1.0
    degenerate = genericity_probe(DIMS, PILOTS, trials=50, seed=12, coloring=constant_model(DIMS))
    assert degenerate.fraction_nonsingular == 0.0


def test_probe_zero_trials():
    stats = genericity_probe(DIMS, PILOTS, trials=0, seed=0)
    assert stats.trials == 0 and stats.fraction_nonsingular is None


def test_probe_reproducible():
    a = genericity_probe(DIMS, PILOTS, trials=10, seed=4)
    b = genericity_probe(DIMS, PILOTS, trials=10, seed=4)
    assert a == b


def test_bezout_bounds():
    assert bezout_bound(DIMS, PILOTS) == 4096  # exponent 6 + 6
    small = Dims.create(1, 1, 2, 1)
    assert bezout_bound(small, build_pilot_sets(small)) == 4  # exponent 1 + 1
    for dims in [DIMS, small, Dims.create(2, 2, 5, 1, T_eff=2)]:
        pa = build_pilot_sets(dims)
        exponent = dims.R * dims.T_eff * dims.Q + len(pa.data)
        assert exponent == pa.n_useful
        assert bezout_bound(dims, pa) == 2**exponent


BITWISE_CELLS = [
    DIMS, Dims.create(3, 4, 12, 1), Dims.create(1, 2, 3, 2, T_eff=1), Dims.create(4, 8, 16, 2),
    Dims.create(2, 4, 7, 3), Dims.create(6, 11, 40, 3),
]


@pytest.mark.parametrize("dims", BITWISE_CELLS, ids=str)
def test_diagonal_grid_is_bitwise_the_loop(dims):
    # stacked assembly against the per-draw oracle: generic points, one
    # stack with per-point colorings and one with a shared coloring, the
    # constant model where it exists (Q = 1) and the exact witness
    pa = build_pilot_sets(dims)
    points = [generic_point(seed, dims) for seed in range(10)]
    S = np.stack([s for _, s, _ in points])
    X = np.stack([x for _, _, x in points])
    per_point = assemble_jacobians(np.stack([Z.blocks for Z, _, _ in points]), S, X, pa)
    colorings = [Z for Z, _, _ in points]
    if dims.Q == 1:
        colorings.append(constant_model(dims))
    for Z in colorings:
        shared = assemble_jacobians(Z.blocks, S, X, pa)
        for j, (_, s, x) in enumerate(points):
            assert shared[j].tobytes() == assemble_jacobian_loop(Z, s, x, pa).tobytes()
    for j, (Z, s, x) in enumerate(points):
        oracle = assemble_jacobian_loop(Z, s, x, pa).tobytes()
        assert per_point[j].tobytes() == oracle
        assert assemble_jacobian(Z, s, x, pa).matrix.tobytes() == oracle
    witness = witness_construct(dims, pa, exact=True)
    assert assemble_jacobian(*witness, pa).matrix.tobytes() == assemble_jacobian_loop(*witness, pa).tobytes()


def test_assembly_keeps_its_shape_errors():
    Z, s, x = generic_point(3)
    with pytest.raises(InvalidConfigurationError, match="does not conform"):
        assemble_jacobian(random_coloring(Dims.create(2, 2, 4, 1), seed=0), s, x, PILOTS)
    with pytest.raises(InvalidConfigurationError, match="x must have length"):
        assemble_jacobian(Z, s, x[:-1], PILOTS)
    with pytest.raises(InvalidConfigurationError, match="s must have length"):
        assemble_jacobian(Z, s[:-1], x, PILOTS)
    with pytest.raises(InvalidConfigurationError, match="do not conform"):
        assemble_jacobians(Z.blocks, s[None], x[None, :-1], PILOTS)
    with pytest.raises(InvalidConfigurationError, match="do not conform"):
        JacobianLayout(PILOTS).eliminate(Z.blocks, s[None], x[None, :-1])
    one_more_row = dataclasses.replace(PILOTS, ell=PILOTS.ell - 1)
    with pytest.raises(InvalidConfigurationError, match=r"Jacobian is \(13, 12\), not square"):
        assemble_jacobian(Z, s, x, one_more_row)


def probe_loop(dims, pilots, trials, seed, coloring=None):
    """Oracle: the probe's draws one at a time, each Jacobian judged by a full SVD.

    Returns the full-SVD verdicts and slogdet's log |det| of every trial.
    """
    verdicts, log_dets = [], []
    for Z, s, x in probe_draws(dims, trials, seed, coloring):
        M = assemble_jacobian_loop(Z, s, x, pilots)
        verdicts.append(full_svd_verdict(M))
        log_dets.append(float(np.linalg.slogdet(M)[1]))
    return verdicts, log_dets


def mc_logdet_loop(Z, dims, pilots, samples, seed):
    """Oracle: mc_logdet one draw at a time, with one full SVD per assembled Jacobian."""
    seed = np.random.SeedSequence(seed)
    values, clipped = [], 0
    for child in seed.spawn(-(-samples // BATCH)):
        rng = np.random.default_rng(child)
        for _ in range(min(BATCH, samples - len(values))):
            s = standard_complex_gaussian(rng, dims.R * dims.T_eff * dims.Q)
            x = standard_complex_gaussian(rng, dims.T_eff * dims.N)
            sv = np.linalg.svd(assemble_jacobian_loop(Z, s, x, pilots), compute_uv=False)
            val = 2.0 * float(np.sum(np.log(sv))) if sv[-1] > NONSINGULAR_TOL * sv[0] else -math.inf
            if val < LOG_FLOOR:
                val, clipped = LOG_FLOOR, clipped + 1
            values.append(val)
    values = np.array(values)
    stderr = float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
    return LogDetEstimate(float(values.mean()), stderr, samples, clipped / samples)


# (dims, count, constant model): counts 0 and 1, 257 draws across a BATCH
# seed boundary, 200 and 300 draws at n=45 (stacks of 157 there) and n=432
# (stacks of three)
REFERENCE_CASES = [
    (DIMS, 0, False), (DIMS, 1, False), (DIMS, 257, False), (DIMS, 257, True),
    (Dims.create(3, 4, 12, 1), 200, False), (Dims.create(3, 4, 12, 1), 300, True),
    (Dims.create(6, 11, 40, 3), 2, False),
]


@pytest.fixture
def one_draw_per_stack(monkeypatch):
    """Shrinks the stack budget so that every layout's per_stack is one."""

    def run(fn, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(jacobian_module, "STACK_BYTES", 1)
            assert JacobianLayout(PILOTS).per_stack == 1
            return fn(*args, **kwargs)

    return run


@pytest.mark.parametrize("dims, count, constant", REFERENCE_CASES, ids=str)
def test_probe_stacks_are_bitwise_one_draw_at_a_time(dims, count, constant, one_draw_per_stack):
    pa = build_pilot_sets(dims)
    coloring = constant_model(dims) if constant else None
    stacked = genericity_probe(dims, pa, trials=count, seed=count + 11, coloring=coloring)
    by_draw = one_draw_per_stack(genericity_probe, dims, pa, trials=count, seed=count + 11, coloring=coloring)
    assert repr(stacked) == repr(by_draw)


@pytest.mark.parametrize("dims, count, constant", REFERENCE_CASES, ids=str)
def test_mc_logdet_stacks_are_bitwise_one_draw_at_a_time(dims, count, constant, one_draw_per_stack):
    pa = build_pilot_sets(dims)
    Z = constant_model(dims) if constant else random_coloring(dims, count)
    if count == 0:
        with pytest.raises(ValueError, match="samples must be positive"):
            mc_logdet(Z, dims, pa, samples=0, seed=12)
        return
    stacked = mc_logdet(Z, dims, pa, samples=count, seed=count + 12)
    assert repr(stacked) == repr(one_draw_per_stack(mc_logdet, Z, dims, pa, samples=count, seed=count + 12))


@pytest.mark.parametrize("dims, count, constant", REFERENCE_CASES, ids=str)
def test_probe_agrees_with_the_full_svd_oracle(dims, count, constant):
    pa = build_pilot_sets(dims)
    coloring = constant_model(dims) if constant else None
    stats = genericity_probe(dims, pa, trials=count, seed=count + 11, coloring=coloring)
    verdicts, log_dets = probe_loop(dims, pa, count, count + 11, coloring)
    assert stats.trials == count
    assert stats.n_nonsingular == sum(verdicts)
    if count == 0:
        assert stats == ProbeStats(0, 0, None, None, None)
        return
    assert stats.fraction_nonsingular == sum(verdicts) / count
    if not constant:  # a numerically singular log |det| is rounding noise
        assert stats.min_log_abs_det == pytest.approx(min(log_dets), rel=1e-10, abs=0)


@pytest.mark.parametrize("dims, count, constant", [case for case in REFERENCE_CASES if case[1]], ids=str)
def test_mc_logdet_agrees_with_the_full_svd_oracle(dims, count, constant):
    pa = build_pilot_sets(dims)
    Z = constant_model(dims) if constant else random_coloring(dims, count)
    est = mc_logdet(Z, dims, pa, samples=count, seed=count + 12)
    oracle = mc_logdet_loop(Z, dims, pa, count, count + 12)
    assert (est.samples, est.clipped_fraction) == (oracle.samples, oracle.clipped_fraction)
    assert est.mean == pytest.approx(oracle.mean, rel=1e-10, abs=0)
    assert est.stderr == pytest.approx(oracle.stderr, rel=1e-10, abs=0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(list(regime_cells(8))), st.integers(0, 2**32 - 1), st.booleans())
def test_elimination_matches_slogdet_and_the_full_svd_verdict(dims, seed, constant):
    pa = build_pilot_sets(dims)
    coloring = constant_model(dims) if constant and dims.Q == 1 else None
    draws = list(probe_draws(dims, 2, seed, coloring))
    log_abs_det, ratio = JacobianLayout(pa).eliminate(
        np.stack([Z.blocks for Z, _, _ in draws]),
        np.stack([s for _, s, _ in draws]),
        np.stack([x for _, _, x in draws]),
    )
    for j, (Z, s, x) in enumerate(draws):
        M = assemble_jacobian_loop(Z, s, x, pa)
        nonsingular = bool(ratio[j] > NONSINGULAR_TOL)
        assert nonsingular == full_svd_verdict(M), dims
        if nonsingular:
            assert abs(log_abs_det[j] - np.linalg.slogdet(M)[1]) <= 1e-9 * len(M), dims


def test_elimination_of_an_exactly_singular_jacobian_is_quiet():
    # zero fading empties every Schur column: log |det| is -inf and the ratio 0, with no warning
    Z, _, x = generic_point(23)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_abs_det, ratio = JacobianLayout(PILOTS).eliminate(Z.blocks, np.zeros((1, 6), complex), x[None])
    assert log_abs_det.tolist() == [-math.inf] and ratio.tolist() == [0.0]


@pytest.fixture
def linalg_calls(monkeypatch):
    """Matrices factorized by np.linalg.svd, qr and slogdet during the test.

    A stacked input counts each of its matrices; calls["stacks"] records
    (name, matrices, shape of one matrix, bytes) of every input that holds
    more than one.
    """
    calls = {"svd": 0, "qr": 0, "slogdet": 0, "stacks": []}
    for name in ("svd", "qr", "slogdet"):

        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            matrices = math.prod(np.shape(a)[:-2])
            calls[_name] += matrices
            if matrices > 1:
                calls["stacks"].append((_name, matrices, np.shape(a)[-2:], np.asarray(a).nbytes))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def factorized(calls):
    assert all(nbytes <= STACK_BYTES for *_, nbytes in calls["stacks"]), calls["stacks"]
    return {"svd": calls["svd"], "qr": calls["qr"], "slogdet": calls["slogdet"]}


def test_recovery_and_exact_certificate_factorize_nothing(linalg_calls):
    results = run_recovery_trials(Dims.create(3, 4, 12, 1), trials=3, seed=4)
    assert all(r.success and r.iterations > 0 for r in results)
    assert certify_witness_exact(DIMS, PILOTS) != 0
    assert factorized(linalg_calls) == {"svd": 0, "qr": 0, "slogdet": 0}


def test_mc_logdet_one_qr_per_antenna_and_an_svd_per_factor(linalg_calls):
    # R = 3: each draw has three fading blocks to QR, three R factors and one Schur block
    est = mc_logdet(random_coloring(DIMS, 1), DIMS, PILOTS, samples=7, seed=2)
    assert est.samples == 7
    assert factorized(linalg_calls) == {"svd": 7 * 4, "qr": 7 * 3, "slogdet": 0}


def test_probe_one_qr_per_antenna_and_an_svd_per_factor(linalg_calls):
    assert genericity_probe(DIMS, PILOTS, trials=5, seed=3).trials == 5
    assert factorized(linalg_calls) == {"svd": 5 * 4, "qr": 5 * 3, "slogdet": 0}


def test_stacks_stay_under_the_byte_cap(linalg_calls):
    # at n=45 (R=4, N=12, m=33 data columns) a stack holds 157 draws: 200
    # trials and 300 draws need more than one
    dims = Dims.create(3, 4, 12, 1)
    pa = build_pilot_sets(dims)
    per_stack = JacobianLayout(pa).per_stack
    assert per_stack == STACK_BYTES // ((4 * 12 * 12 + 33 * 33) * 16) == 157
    genericity_probe(dims, pa, trials=200, seed=1)
    mc_logdet(random_coloring(dims, 2), dims, pa, samples=300, seed=3)
    assert factorized(linalg_calls) == {"svd": 500 * 5, "qr": 500 * 4, "slogdet": 0}
    schur_stacks = [count for name, count, shape, _ in linalg_calls["stacks"] if shape == (33, 33)]
    assert max(schur_stacks) == per_stack and sum(schur_stacks) == 500


def test_spectral_stats_are_computed_once(linalg_calls):
    J = assemble_jacobian(*generic_point(8), PILOTS)
    assert factorized(linalg_calls) == {"svd": 0, "qr": 0, "slogdet": 0}
    first = [J.sigma_min, J.spectral_norm, J.nonsingular, J.det_abs, J.sign, J.log_abs_det]
    assert factorized(linalg_calls) == {"svd": 1, "qr": 0, "slogdet": 1}
    assert [J.sigma_min, J.spectral_norm, J.nonsingular, J.det_abs, J.sign, J.log_abs_det] == first
    assert factorized(linalg_calls) == {"svd": 1, "qr": 0, "slogdet": 1}


def test_log_abs_det_is_finite_past_float_range():
    J = assemble_jacobian(*generic_point(9), PILOTS)
    big = JacobianMatrix(J.dims, J.pilots, 1e40 * J.matrix)  # |det| scales by 1e480
    sign, logdet = np.linalg.slogdet(big.matrix)
    assert big.log_abs_det == logdet and np.isfinite(logdet) and logdet > np.log(np.finfo(float).max)
    assert big.sign == sign and abs(sign) == pytest.approx(1.0)
    with np.errstate(over="ignore"):
        assert big.det_abs == np.inf  # the float view overflows; log_abs_det does not
    assert J.det_abs == float(np.exp(J.log_abs_det))


def test_reduce_block_triangular():
    rng = np.random.default_rng(7)
    M = np.zeros((4, 4), dtype=complex)
    M[:2, :2] = standard_complex_gaussian(rng, (2, 2))
    M[:2, 2:] = standard_complex_gaussian(rng, (2, 2))
    M[2:, 2:] = standard_complex_gaussian(rng, (2, 2))
    out = reduce_by_block(M, rows=[3, 4], cols=[3, 4])
    assert np.array_equal(out, M[:2, :2])


def test_reduce_matches_determinant_product():
    rng = np.random.default_rng(17)
    n, k = 9, 4
    M = standard_complex_gaussian(rng, (n, n))
    M[:k, k:] = 0  # rows [1:k] vanish off the first k columns
    corner = M[:k, :k]
    out = reduce_by_block(M, rows=range(1, k + 1), cols=range(1, k + 1))
    lhs = abs(np.linalg.det(M))
    rhs = abs(np.linalg.det(corner)) * abs(np.linalg.det(out))
    assert abs(lhs - rhs) / lhs < 1e-9


def test_reduce_reproduces_worked_reduction():
    # peeling the third receive antenna off the witness leaves exactly the
    # two-antenna witness Jacobian
    Z, s, x = witness_construct(DIMS, PILOTS, seed=2)
    J3 = assemble_jacobian(Z, s, x, PILOTS).matrix
    # rows of the third receive block; columns: its coloring pair plus the
    # replicated-row data columns (faces 3 and 4 -> flat 3 and 8)
    cols = [5, 6, 6 + PILOTS.data.index(3) + 1, 6 + PILOTS.data.index(8) + 1]
    reduced = reduce_by_block(J3, rows=[9, 10, 11, 12], cols=cols)

    dims2 = Dims.create(2, 2, 4, 1, T_eff=2)
    pa2 = build_pilot_sets(dims2)
    Z2 = ColoringMatrix(Z.blocks[:2])
    J2 = assemble_jacobian(Z2, s[:4], x, pa2).matrix
    assert np.allclose(reduced, J2, rtol=0, atol=1e-15)
    assert abs(np.linalg.det(J2)) > 0


def test_exact_integer_determinant_against_float_oracle():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5, 8):
        M = (rng.integers(-4, 5, (n, n)) + 1j * rng.integers(-4, 5, (n, n))).astype(complex)
        re, im = exact_gaussian_integer_det(M)
        ref = np.linalg.det(M)
        assert abs(complex(re, im) - ref) <= 1e-6 * max(1.0, abs(ref))
    singular = np.array([[1, 2], [2, 4]], dtype=complex)
    assert exact_gaussian_integer_det(singular) == (0, 0)


def _as_gaussian_integers(M: np.ndarray):
    rows = []
    for row in np.asarray(M, dtype=complex):
        out = []
        for z in row:
            a, b = round(z.real), round(z.imag)
            if z.real != a or z.imag != b:
                raise InvalidConfigurationError(f"entry {z} is not an exact Gaussian integer")
            out.append((int(a), int(b)))
        rows.append(out)
    return rows


def exact_gaussian_integer_det(M):
    """Oracle: exact determinant of a Gaussian-integer matrix by Bareiss elimination.

    Fraction-free: every intermediate division is exact in the ring of
    Gaussian integers, so the result is exact regardless of size, but the
    pure-Python arithmetic is slow beyond n of about 100. Takes a complex
    array, or a list of rows of Python ints (exact beyond float range).
    Returns (re, im) as Python ints.
    """
    if isinstance(M, list):
        A = [[(int(v), 0) for v in row] for row in M]
    else:
        A = _as_gaussian_integers(M)
    n = len(A)

    def mul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    def sub(u, v):
        return (u[0] - v[0], u[1] - v[1])

    def div_exact(u, v):
        den = v[0] * v[0] + v[1] * v[1]
        num = mul(u, (v[0], -v[1]))
        q_re, r_re = divmod(num[0], den)
        q_im, r_im = divmod(num[1], den)
        if r_re or r_im:
            raise AssertionError("fraction-free elimination produced a non-exact division")
        return (q_re, q_im)

    sign = 1
    prev = (1, 0)
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if A[i][k] != (0, 0)), None)
        if pivot is None:
            return (0, 0)
        if pivot != k:
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = div_exact(sub(mul(A[i][j], A[k][k]), mul(A[i][k], A[k][j])), prev)
            A[i][k] = (0, 0)
        prev = A[k][k]
    det = A[n - 1][n - 1]
    return (sign * det[0], sign * det[1])


def oracle_det(M) -> int:
    re, im = exact_gaussian_integer_det(M)
    assert im == 0
    return re


def exact_witness_matrix(dims):
    pa = build_pilot_sets(dims)
    Z, s, x = witness_construct(dims, pa, exact=True)
    return assemble_jacobian(Z, s, x, pa).matrix


@pytest.mark.parametrize(
    "dims",
    list(regime_cells(5)) + [Dims.create(4, 8, 16, 2)],
    ids=lambda d: f"{d.T}{d.R}{d.N}{d.Q}",
)
def test_exact_integer_det_matches_oracle_on_witnesses(dims):
    J = exact_witness_matrix(dims)
    det = exact_integer_det(J)
    assert det == oracle_det(J) != 0
    assert certify_witness_exact(dims, build_pilot_sets(dims)) == det


def random_integer_matrix(seed, n=12, bound=1000):
    return np.random.default_rng(seed).integers(-bound, bound + 1, (n, n))


def test_exact_integer_det_combines_several_primes():
    for seed in range(3):
        M = random_integer_matrix(seed)
        det = exact_integer_det(M)
        assert abs(det) > 2**62  # beyond int64, so several residues were combined
        assert det == oracle_det(M.astype(complex))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(arrays(np.int64, (12, 12), elements=st.integers(-1000, 1000)))
def test_exact_integer_det_matches_oracle_on_random_matrices(M):
    assert exact_integer_det(M) == oracle_det(M.astype(complex))


def test_exact_integer_det_entries_beyond_float_precision():
    # entries of 2^40 make the squared row norms overflow int64
    rng = np.random.default_rng(3)
    M = rng.integers(-(2**40), 2**40, (6, 6))
    assert exact_integer_det(M) == oracle_det(M.tolist())


def test_exact_integer_det_singular_and_prime_multiple():
    M = random_integer_matrix(4, n=6)
    repeated = M.copy()
    repeated[4] = repeated[1]
    assert exact_integer_det(repeated) == 0
    zero_row = M.copy()
    zero_row[2] = 0
    assert exact_integer_det(zero_row) == 0
    # det = 3 * p for the first table prime p: its residue is 0, the others are not
    p = DET_PRIMES[0]
    upper = np.triu(random_integer_matrix(5, n=6, bound=3), k=1) + np.diag([p, 3, 1, 1, 1, 1])
    mixed = np.tril(random_integer_matrix(6, n=6, bound=3), k=-1) + np.eye(6, dtype=np.int64)
    M = mixed @ upper  # unit lower triangular times upper triangular
    assert exact_integer_det(M) == oracle_det(M.tolist()) == 3 * p
    assert exact_integer_det(-M[::-1]) == oracle_det((-M[::-1]).tolist())


def test_exact_integer_det_at_the_hadamard_bound():
    # |det| = H exactly; with H between p/2 and p for the first table prime p,
    # one residue cannot tell det from det + p, so a second prime is needed
    a = 30000
    assert DET_PRIMES[0] / 2 < 2 * a * a < DET_PRIMES[0]
    assert exact_integer_det(np.array([[a, a], [a, -a]])) == -2 * a * a
    H = np.array([[1]])
    for _ in range(4):
        H = np.block([[H, H], [H, -H]])  # Sylvester Hadamard matrix of order 16
    assert exact_integer_det(H) == oracle_det(H.tolist())
    assert abs(exact_integer_det(H)) == 16**8


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[1.0, 0.5], [0.0, 1.0]]),
        np.array([[1, 1j], [0, 1]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[2.0**63, 0.0], [0.0, 1.0]]),
        np.array([["1", "0"], ["0", "1"]]),
        np.ones((2, 3)),
    ],
    ids=["fraction", "complex", "nan", "inf", "huge", "strings", "non-square"],
)
def test_exact_integer_det_rejects_non_integer_input(bad):
    with pytest.raises(InvalidConfigurationError):
        exact_integer_det(bad)


def test_exact_integer_det_refuses_to_guess_past_the_prime_table():
    M = np.full((40, 40), 2**61, dtype=np.int64) + np.eye(40, dtype=np.int64)
    with pytest.raises(InvalidConfigurationError, match="primes"):
        exact_integer_det(M)


def permuted(M, seed):
    """M with its rows and its columns shuffled by two seeded permutations."""
    rng = np.random.default_rng(seed)
    return M[rng.permutation(len(M))][:, rng.permutation(len(M))]


@st.composite
def sparse_integer_matrices(draw):
    """Mostly zeros: the diagonal, part of the upper triangle and stray entries, rows and columns permuted."""
    n = draw(st.integers(1, 10))
    values = draw(arrays(np.int64, (n, n), elements=st.integers(-1000, 1000)))
    triangle = np.triu(draw(arrays(np.bool_, (n, n), elements=st.booleans()))) | np.eye(n, dtype=bool)
    stray = draw(arrays(np.bool_, (n, n), elements=st.sampled_from([False] * 3 + [True])))
    M = np.where(triangle | stray, values, 0)
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    return M[rows][:, cols]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_integer_matrices())
def test_exact_integer_det_matches_oracle_on_sparse_permuted_matrices(M):
    assert exact_integer_det(M) == oracle_det(M.tolist())


def test_peel_takes_a_permuted_triangular_matrix_whole():
    rng = np.random.default_rng(7)
    diagonal = rng.choice([-3, -2, -1, 1, 2, 3], 30)
    M = permuted(np.triu(rng.integers(-1000, 1001, (30, 30)), k=1) + np.diag(diagonal), seed=8)
    factor, rows, cols = _peel(M)
    assert rows == cols == []
    assert abs(factor) == abs(math.prod(diagonal.tolist()))
    assert exact_integer_det(M) == factor == oracle_det(M.tolist())


def test_peel_leaves_a_dense_core_that_needs_several_primes():
    rng = np.random.default_rng(9)
    core = random_integer_matrix(0)  # |det| > 2^62: several residues are combined
    M = np.zeros((20, 20), dtype=np.int64)
    M[:8, :8] = np.triu(rng.integers(-5, 6, (8, 8)), k=1) + np.diag(rng.choice([-2, 1, 2], 8))
    M[:8, 8:] = rng.integers(-1000, 1001, (8, 12))
    M[8:, 8:] = core
    M = permuted(M, seed=10)
    _, rows, cols = _peel(M)
    assert len(rows) == len(cols) == 12
    det = exact_integer_det(M)
    assert abs(det) > 2**62
    assert det == oracle_det(M.tolist())


def test_peel_finds_a_row_emptied_midway():
    # no zero row or column, but removing the pivot of either row 0 or row 1
    # leaves the other one empty
    M = np.array([[1, 0, 0], [2, 0, 0], [0, 1, 1]])
    assert _peel(M)[0] == 0
    assert exact_integer_det(M) == 0 == oracle_det(M.tolist())
    assert exact_integer_det(M.T) == 0


def test_exact_integer_det_of_the_smallest_matrices():
    assert exact_integer_det(np.zeros((0, 0))) == 1
    assert exact_integer_det(np.array([[-7]])) == -7
    assert exact_integer_det(np.array([[0]])) == 0


def test_exact_integer_det_of_a_diagonal_past_the_prime_table():
    # the Hadamard bound applies to the core only, and a diagonal peels whole
    M = permuted(np.diag(np.full(40, 2**61, dtype=np.int64)), seed=11)
    sign = oracle_det(permuted(np.eye(40, dtype=np.int64), seed=11).tolist())
    assert exact_integer_det(M) == sign * 2 ** (61 * 40)


def test_every_witness_peels_to_an_empty_core():
    # the witness Jacobian is block triangular, one receive antenna per
    # step: the peel expands it entry by entry, with nothing left over
    for dims in regime_cells(8):
        A = _integer_matrix(exact_witness_matrix(dims))
        factor, rows, cols = _peel(A)
        assert rows == cols == [] and factor in (1, -1), dims
        if dims.N <= 6:  # the whole matrix, multi-modular, is the peel's oracle
            assert _multimodular_det(A) == factor, dims


def test_det_primes_are_distinct_primes_below_2_31():
    assert len(set(DET_PRIMES)) == len(DET_PRIMES)
    for p in DET_PRIMES:
        assert 2 < p < 2**31
        assert all(p % d for d in range(2, isqrt(p) + 1)), p


def test_exact_certificate_at_n432_matches_slogdet_sign():
    dims = Dims.create(6, 11, 40, 3)
    J = exact_witness_matrix(dims)
    assert J.shape == (432, 432)
    det = certify_witness_exact(dims, build_pilot_sets(dims))
    sign, _ = np.linalg.slogdet(J)
    assert det in (1, -1)
    assert det == sign.real
