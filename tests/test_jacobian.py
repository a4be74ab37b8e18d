"""Recovery Jacobian: assembly, witnesses, probes, block reduction, exact determinants."""

import collections
import dataclasses
import functools
import math
import warnings
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from paper_facts import (
    DET_PRIMES,
    assemble_jacobian_loop,
    cuts,
    full_svd_verdict,
    multimodular_det,
    probe_draws,
    reduce_by_block,
    regime_cells,
    witness_construct_loop,
)

import fadingdof.jacobian as jacobian_module
from fadingdof.analysis import BATCH, LOG_FLOOR, LogDetEstimate, mc_logdet
from fadingdof.jacobian import (
    NONSINGULAR_TOL,
    STACK_BYTES,
    JacobianLayout,
    ProbeStats,
    assemble_jacobian,
    bezout_bound,
    certify_witness_exact,
    genericity_probe,
    witness_construct,
    witness_report,
)
from fadingdof.jacobian import _witness_det
from fadingdof.model import (
    Dims,
    InvalidConfigurationError,
    constant_model,
    random_coloring,
    regime_chains,
    standard_complex_gaussian,
)
from fadingdof.identify import forward_map, run_recovery_trials
from fadingdof.pilots import pilot_chain

DIMS = Dims.create(2, 3, 4, 1)
PILOTS = pilot_chain(DIMS)

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


# n=45: 12 fading columns against 33 data columns, eliminated face by face
FACE_CELL = Dims.create(3, 4, 12, 1)


def generic_point(seed, dims=DIMS):
    rng = np.random.default_rng(seed)
    Z = random_coloring(dims, seed=seed)
    s = standard_complex_gaussian(rng, dims.R * dims.T_eff * dims.Q)
    x = standard_complex_gaussian(rng, dims.T_eff * dims.N)
    return Z, s, x


def test_example_sparsity_pattern():
    Z, s, _ = generic_point(21)
    J = assemble_jacobian(Z, s, np.ones(8, dtype=complex), PILOTS)
    assert J.shape == (12, 12)
    assert np.array_equal(J != 0, expected_mask())


def test_zero_fading_kills_right_block():
    Z, _, x = generic_point(22)
    J = assemble_jacobian(Z, np.zeros(6, dtype=complex), x, PILOTS)
    assert np.all(J[:, 6:] == 0)


def finite_difference_jacobian(Z, s, x, pilots, delta=1e-5):
    """Central differences of the forward map; the map is holomorphic and
    quadratic, so the truncation error is zero."""
    data0 = pilots.data_index
    u = np.concatenate([s, x[data0]])
    n_s = s.size

    def phi(vec):
        x_vec = x.copy()
        x_vec[data0] = vec[n_s:]  # the pilot entries stay put
        return forward_map(vec[:n_s], x_vec, pilots, Z)

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
    err = np.linalg.norm(J - fd) / np.linalg.norm(J)
    assert err < 1e-6


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(list(regime_cells(6))), st.integers(0, 2**16))
def test_jacobian_matches_finite_differences_on_regime_cells(dims, seed):
    pilots = pilot_chain(dims)
    Z, s, x = generic_point(seed, dims)
    J = assemble_jacobian(Z, s, x, pilots)
    fd = finite_difference_jacobian(Z, s, x, pilots)
    assert np.linalg.norm(J - fd) / np.linalg.norm(J) < 1e-6, dims


def test_jacobian_entries_linear_in_each_fading_block():
    # every entry is either independent of s or linear in exactly one s_{r,t}
    Z, s, x = generic_point(31)
    base = assemble_jacobian(Z, s, x, PILOTS)
    dims = DIMS
    n_b = dims.R * dims.T_eff * dims.Q
    data_faces = PILOTS.data_index // dims.N  # antenna of each data column
    for r in range(dims.R):
        for t in range(dims.T_eff):
            s2 = s.copy()
            s2[(r * dims.T_eff + t) * dims.Q : (r * dims.T_eff + t + 1) * dims.Q] *= 2.0
            scaled = assemble_jacobian(Z, s2, x, PILOTS)
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
    chain = pilot_chain(dims)  # R = T_eff: a chain of one cell
    Z, s, x = witness_construct(chain, seed=3)
    J = assemble_jacobian(Z, s, x, chain)
    assert np.array_equal(x, np.ones(8))
    assert abs(np.linalg.det(J)) > 1e-8
    assert full_svd_verdict(J)


def test_witness_example_zero_pattern():
    Z, s, x = witness_construct(pilot_chain(DIMS), seed=5)
    # the extra receive antenna's blocks vanish at the crossed positions
    assert Z[2, 1, 0, 0] == 0  # antenna 2, face 1
    assert Z[2, 0, 1, 0] == 0  # antenna 1, face 2
    assert Z[2, 1, 2, 0] == 0  # antenna 2, face 3
    assert Z[2, 0, 3, 0] == 0  # antenna 1, face 4
    assert full_svd_verdict(assemble_jacobian(Z, s, x, PILOTS))


def test_witness_small_sweep():
    for dims in (d for d in regime_cells(6) if d.Q <= 2):
        chain = pilot_chain(dims)
        Z, s, x = witness_construct(chain, seed=17)
        assert full_svd_verdict(assemble_jacobian(Z, s, x, chain)), dims


def certified(dims) -> int:
    """certify_witness_exact on the cell's own exact witness."""
    chain = pilot_chain(dims)
    return certify_witness_exact(chain, witness_construct(chain, exact=True))


def test_witness_construct_takes_only_a_cells_whole_chain():
    chain = pilot_chain(DIMS)  # R' = 2, 3
    other = pilot_chain(Dims.create(2, 3, 5, 1))
    for bad in ([], [PILOTS], [chain.cut(2), chain], (chain, other), DIMS, chain.P):
        with pytest.raises(InvalidConfigurationError, match="pilot chain"):
            witness_construct(bad, exact=True)


def test_witness_exact_certificates():
    for dims in [DIMS, Dims.create(2, 3, 5, 1), Dims.create(1, 2, 3, 2, T_eff=1)]:
        det = certified(dims)
        assert isinstance(det, int) and det != 0


# sha256 prefixes of the exact witness (Z, s, x), all entries 0 or 1, recorded
# when each receive row still took its partition from its own per-R deal
EXACT_WITNESS_SHA256 = {
    (2, 3, 4, 1): "4d69f14b83d5a9a0",
    (3, 4, 12, 1): "f022b2b03170e4fe",
    (4, 8, 16, 2): "9ca0f853f09b49f3",
    (6, 11, 40, 3): "7977881ed1e1dae1",
    (2, 4, 5, 2): "95989ba27e0701cc",
}


def witness_bytes(witness):
    Z, s, x = witness
    return Z.tobytes(), s.tobytes(), x.tobytes()


@pytest.mark.parametrize("cell", sorted(EXACT_WITNESS_SHA256))
def test_witness_from_the_chain_matches_its_hash_and_the_loop_oracle(cell):
    import hashlib

    dims = Dims.create(*cell)
    exact = witness_construct(pilot_chain(dims), exact=True)
    Z, s, x = exact
    flat = np.concatenate([Z.ravel(), s, x])
    assert not flat.imag.any()
    digest = hashlib.sha256(flat.real.astype(np.int8).tobytes()).hexdigest()[:16]
    assert digest == EXACT_WITNESS_SHA256[cell]
    seeded = witness_construct(pilot_chain(dims), seed=5)
    # the same witnesses, bit for bit, filled block by block from the tuple construction's sets
    assert witness_bytes(exact) == witness_bytes(witness_construct_loop(dims, exact=True))
    assert witness_bytes(seeded) == witness_bytes(witness_construct_loop(dims, seed=5))


@pytest.mark.parametrize(
    "dims",
    list(regime_cells(6)) + [Dims.create(4, 8, 16, 2), Dims.create(4, 4, 16, 2, T_eff=3)],
    ids=lambda d: f"{d.T}{d.R}{d.N}{d.Q}t{d.T_eff}",
)
def test_witness_fills_are_bitwise_the_block_by_block_loop(dims):
    for kwargs in ({"exact": True}, {"seed": 11}):
        assert witness_bytes(witness_construct(pilot_chain(dims), **kwargs)) == witness_bytes(
            witness_construct_loop(dims, **kwargs)
        ), kwargs


def test_a_cells_exact_witness_is_the_prefix_of_its_chain_tops():
    # one build per chain serves every cell of it, as verify-all certifies them
    tops = [top for top in regime_chains(7) if top.R > top.T_eff]
    for top in tops:
        chain = pilot_chain(top)
        witness = witness_construct(chain, exact=True)
        Z, s, x = witness
        for cell in cuts(chain):
            R = cell.dims.R
            own = witness_construct(pilot_chain(cell.dims), exact=True)
            prefix = (Z[:R], s[: R * top.T_eff * top.Q], x)
            assert witness_bytes(own) == witness_bytes(prefix), cell.dims
            assert certify_witness_exact(cell, witness) == certify_witness_exact(cell, own) != 0
    assert len(tops) == 35


def test_the_exact_witness_makes_no_random_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a random generator on the exact path")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert certified(DIMS) != 0


def test_probe_generic_and_constant():
    stats = genericity_probe(PILOTS, trials=50, seed=12)
    assert stats.fraction_nonsingular == 1.0
    degenerate = genericity_probe(PILOTS, trials=50, seed=12, coloring=constant_model(DIMS))
    assert degenerate.fraction_nonsingular == 0.0


def test_probe_zero_trials():
    stats = genericity_probe(PILOTS, trials=0, seed=0)
    assert stats.trials == 0 and stats.fraction_nonsingular is None


def test_probe_refuses_a_negative_trial_count():
    # numpy's SeedSequence.spawn once refused it with an OverflowError
    with pytest.raises(InvalidConfigurationError, match="trials must be non-negative, got -1"):
        genericity_probe(PILOTS, -1, 0)


def test_probe_checks_a_fixed_coloring_even_without_trials():
    wrong = constant_model(Dims.create(2, 2, 4, 1))
    for trials in (0, 1):
        with pytest.raises(InvalidConfigurationError, match="does not conform"):
            genericity_probe(PILOTS, trials=trials, seed=0, coloring=wrong)


def test_probe_reproducible():
    a = genericity_probe(PILOTS, trials=10, seed=4)
    b = genericity_probe(PILOTS, trials=10, seed=4)
    assert a == b


def test_bezout_bounds():
    assert bezout_bound(PILOTS) == 4096  # exponent 6 + 6
    small = Dims.create(1, 1, 2, 1)
    assert bezout_bound(pilot_chain(small)) == 4  # exponent 1 + 1
    for dims in [DIMS, small, Dims.create(2, 2, 5, 1, T_eff=2)]:
        chain = pilot_chain(dims)
        exponent = dims.R * dims.T_eff * dims.Q + chain.data_index.size
        assert exponent == chain.n_useful
        assert bezout_bound(chain) == 2**exponent


BITWISE_CELLS = [
    DIMS, Dims.create(3, 4, 12, 1), Dims.create(1, 2, 3, 2, T_eff=1), Dims.create(4, 8, 16, 2),
    Dims.create(2, 4, 7, 3), Dims.create(6, 11, 40, 3),
]


@pytest.mark.parametrize("dims", BITWISE_CELLS, ids=str)
def test_diagonal_grid_is_bitwise_the_loop(dims):
    # stacked assembly against the per-draw oracle: generic points, one
    # stack with per-point colorings and one with a shared coloring, the
    # constant model where it exists (Q = 1) and the exact witness
    chain = pilot_chain(dims)
    points = [generic_point(seed, dims) for seed in range(10)]
    S = np.stack([s for _, s, _ in points])
    X = np.stack([x for _, _, x in points])
    layout = JacobianLayout(chain)
    colorings = [Z for Z, _, _ in points]
    per_point = layout.assemble(np.stack(colorings), S, X)
    if dims.Q == 1:
        colorings.append(constant_model(dims))
    for Z in colorings:
        shared = layout.assemble(Z, S, X)
        for j, (_, s, x) in enumerate(points):
            assert shared[j].tobytes() == assemble_jacobian_loop(Z, s, x, chain).tobytes()
    for j, (Z, s, x) in enumerate(points):
        oracle = assemble_jacobian_loop(Z, s, x, chain).tobytes()
        assert per_point[j].tobytes() == oracle
        assert assemble_jacobian(Z, s, x, chain).tobytes() == oracle
    witness = witness_construct(pilot_chain(dims), exact=True)
    assert assemble_jacobian(*witness, chain).tobytes() == assemble_jacobian_loop(*witness, chain).tobytes()


def test_assembly_keeps_its_shape_errors():
    Z, s, x = generic_point(3)
    with pytest.raises(InvalidConfigurationError, match="does not conform"):
        assemble_jacobian(random_coloring(Dims.create(2, 2, 4, 1), seed=0), s, x, PILOTS)
    with pytest.raises(InvalidConfigurationError, match="x must have length"):
        assemble_jacobian(Z, s, x[:-1], PILOTS)
    with pytest.raises(InvalidConfigurationError, match="s must have length"):
        assemble_jacobian(Z, s[:-1], x, PILOTS)
    with pytest.raises(InvalidConfigurationError, match="do not conform"):
        JacobianLayout(PILOTS).assemble(Z, s[None], x[None, :-1])
    with pytest.raises(InvalidConfigurationError, match="do not conform"):
        JacobianLayout(PILOTS).eliminate(Z, s[None], x[None, :-1])
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
# seed boundary at n=12 (eliminated by antenna), 200 and 300 draws at n=45
# and 2 and 7 draws at n=432 (both by face; stacks of five there)
REFERENCE_CASES = [
    (DIMS, 0, False), (DIMS, 1, False), (DIMS, 257, False), (DIMS, 257, True),
    (FACE_CELL, 200, False), (FACE_CELL, 300, True),
    (Dims.create(6, 11, 40, 3), 2, False), (Dims.create(6, 11, 40, 3), 7, False),
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
    chain = pilot_chain(dims)
    coloring = constant_model(dims) if constant else None
    stacked = genericity_probe(chain, trials=count, seed=count + 11, coloring=coloring)
    by_draw = one_draw_per_stack(genericity_probe, chain, trials=count, seed=count + 11, coloring=coloring)
    assert repr(stacked) == repr(by_draw)


@pytest.mark.parametrize("dims, count, constant", REFERENCE_CASES, ids=str)
def test_mc_logdet_stacks_are_bitwise_one_draw_at_a_time(dims, count, constant, one_draw_per_stack):
    chain = pilot_chain(dims)
    Z = constant_model(dims) if constant else random_coloring(dims, count)
    if count == 0:
        with pytest.raises(ValueError, match="samples must be positive"):
            mc_logdet(Z, chain, samples=0, seed=12)
        return
    stacked = mc_logdet(Z, chain, samples=count, seed=count + 12)
    assert repr(stacked) == repr(one_draw_per_stack(mc_logdet, Z, chain, samples=count, seed=count + 12))


@pytest.mark.parametrize("dims, count, constant", REFERENCE_CASES, ids=str)
def test_probe_agrees_with_the_full_svd_oracle(dims, count, constant):
    chain = pilot_chain(dims)
    coloring = constant_model(dims) if constant else None
    stats = genericity_probe(chain, trials=count, seed=count + 11, coloring=coloring)
    verdicts, log_dets = probe_loop(dims, chain, count, count + 11, coloring)
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
    chain = pilot_chain(dims)
    Z = constant_model(dims) if constant else random_coloring(dims, count)
    est = mc_logdet(Z, chain, samples=count, seed=count + 12)
    oracle = mc_logdet_loop(Z, dims, chain, count, count + 12)
    assert (est.samples, est.clipped_fraction) == (oracle.samples, oracle.clipped_fraction)
    assert est.mean == pytest.approx(oracle.mean, rel=1e-10, abs=0)
    assert est.stderr == pytest.approx(oracle.stderr, rel=1e-10, abs=0)


@functools.cache
def cells_of_side(side, n_max):
    return [dims for dims in regime_cells(n_max) if JacobianLayout(pilot_chain(dims)).side == side]


@pytest.mark.parametrize("side", ["antennas", "faces"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), constant=st.booleans())
def test_elimination_matches_slogdet_and_the_full_svd_verdict(side, data, seed, constant):
    dims = data.draw(st.sampled_from(cells_of_side(side, 8)), label="dims")
    chain = pilot_chain(dims)
    layout = JacobianLayout(chain)
    assert layout.side == side
    coloring = constant_model(dims) if constant and dims.Q == 1 else None
    draws = list(probe_draws(dims, 2, seed, coloring))
    log_abs_det, ratio = layout.eliminate(
        np.stack([Z for Z, _, _ in draws]),
        np.stack([s for _, s, _ in draws]),
        np.stack([x for _, _, x in draws]),
    )
    for j, (Z, s, x) in enumerate(draws):
        M = assemble_jacobian_loop(Z, s, x, chain)
        nonsingular = bool(ratio[j] > NONSINGULAR_TOL)
        assert nonsingular == full_svd_verdict(M), dims
        if nonsingular:
            assert abs(log_abs_det[j] - np.linalg.slogdet(M)[1]) <= 1e-9 * len(M), dims


def test_the_smaller_schur_block_picks_the_side():
    # the m data columns against the n_b = R T_eff Q fading ones: faces when
    # n_b < m, antennas otherwise, ties included
    counts = collections.Counter()
    for dims in regime_cells(6):
        chain = pilot_chain(dims)
        n_b, m = dims.R * dims.T_eff * dims.Q, chain.data_index.size
        side = JacobianLayout(chain).side
        assert side == ("faces" if n_b < m else "antennas"), dims
        if dims.Q == 1:
            counts["tie" if n_b == m else side] += 1
    assert counts == {"faces": 8, "tie": 6, "antennas": 55}
    ladder = [Dims.create(2, 3, 4, 1), FACE_CELL, Dims.create(4, 8, 16, 2), Dims.create(6, 11, 40, 3)]
    assert [JacobianLayout(pilot_chain(d)).side for d in ladder] == ["antennas", "faces"] * 2
    assert JacobianLayout(pilot_chain(Dims.create(8, 10, 60, 5))).side == "antennas"  # n_b 400, m 200


def test_a_layout_that_only_assembles_builds_no_elimination_indices():
    layout = JacobianLayout(pilot_chain(FACE_CELL))
    Z, s, x = generic_point(4, FACE_CELL)
    layout.assemble(Z, s[None], x[None])
    assert "_groups" not in vars(layout)
    layout.eliminate(Z, s[None], x[None])
    assert "_groups" in vars(layout)


@pytest.mark.parametrize("dims", [DIMS, FACE_CELL], ids=["antennas", "faces"])
def test_elimination_of_an_exactly_singular_jacobian_is_quiet(dims):
    # zero fading empties every Schur column, or every face block: log |det|
    # is -inf and the ratio 0, with no warning
    Z, _, x = generic_point(23, dims)
    zero = np.zeros((1, dims.R * dims.T_eff * dims.Q), complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log_abs_det, ratio = JacobianLayout(pilot_chain(dims)).eliminate(Z, zero, x[None])
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
    results = run_recovery_trials(pilot_chain(Dims.create(3, 4, 12, 1)), trials=3, seed=4)
    assert all(r.success and r.iterations > 0 for r in results)
    assert certified(DIMS) != 0
    assert factorized(linalg_calls) == {"svd": 0, "qr": 0, "slogdet": 0}


# (dims, QRs and SVDs per draw): at n=12 (a tie, eliminated by antenna) R = 3
# fading blocks, their three R factors and S; at n=45 the N = 12 face blocks,
# each with data columns, their twelve R factors and S
PER_DRAW = [(DIMS, 3, 3 + 1), (FACE_CELL, 12, 12 + 1)]


@pytest.mark.parametrize("dims, qr, svd", PER_DRAW, ids=["antennas", "faces"])
def test_mc_logdet_one_qr_per_group_and_an_svd_per_factor(linalg_calls, dims, qr, svd):
    est = mc_logdet(random_coloring(dims, 1), pilot_chain(dims), samples=7, seed=2)
    assert est.samples == 7
    assert factorized(linalg_calls) == {"svd": 7 * svd, "qr": 7 * qr, "slogdet": 0}


@pytest.mark.parametrize("dims, qr, svd", PER_DRAW, ids=["antennas", "faces"])
def test_probe_one_qr_per_group_and_an_svd_per_factor(linalg_calls, dims, qr, svd):
    assert genericity_probe(pilot_chain(dims), trials=5, seed=3).trials == 5
    assert factorized(linalg_calls) == {"svd": 5 * svd, "qr": 5 * qr, "slogdet": 0}


@pytest.mark.parametrize(
    "dims, q_entries, schur, per_stack, groups",
    [
        # n=124: eight 16 x 16 Q factors and S of the m = 60 data columns
        (Dims.create(4, 8, 16, 2), 8 * 16 * 16, 60, 46, 8),
        # n=432: 32 faces with 11 x 11 Q factors, 8 cut faces with 10 x 10
        # ones, and S of the n_b = 198 fading columns
        (Dims.create(6, 11, 40, 3), 32 * 11 * 11 + 8 * 10 * 10, 198, 5, 40),
    ],
    ids=["antennas", "faces"],
)
def test_stacks_stay_under_the_byte_cap(linalg_calls, dims, q_entries, schur, per_stack, groups):
    chain = pilot_chain(dims)
    assert JacobianLayout(chain).per_stack == STACK_BYTES // ((q_entries + schur * schur) * 16) == per_stack
    draws = per_stack + 4  # two stacks for each caller
    genericity_probe(chain, trials=draws, seed=1)
    mc_logdet(random_coloring(dims, 2), chain, samples=draws, seed=3)
    assert factorized(linalg_calls) == {"svd": 2 * draws * (groups + 1), "qr": 2 * draws * groups, "slogdet": 0}
    schur_stacks = [count for name, count, shape, _ in linalg_calls["stacks"] if shape == (schur, schur)]
    assert schur_stacks == [per_stack, 4] * 2


@pytest.mark.parametrize("exact", [False, True], ids=["seeded", "exact"])
def test_witness_report_takes_one_svd(linalg_calls, exact):
    witness_report(DIMS, seed=8, exact=exact)
    assert (linalg_calls["svd"], linalg_calls["slogdet"]) == (1, 0)


WITNESS_CELLS = list(regime_cells(6))


@pytest.mark.parametrize("exact", [False, True], ids=["seeded", "exact"])
def test_witness_abs_det_matches_slogdet(exact):
    for dims in WITNESS_CELLS:
        chain = pilot_chain(dims)
        J = assemble_jacobian(*witness_construct(chain, seed=3, exact=exact), chain)
        oracle = math.exp(np.linalg.slogdet(J)[1])
        report = witness_report(dims, seed=3, exact=exact)
        assert report["abs_det"] == pytest.approx(oracle, rel=1e-12, abs=0), dims


def test_exact_witness_abs_det_is_its_exact_det():
    for dims in WITNESS_CELLS:
        report = witness_report(dims, exact=True)
        exact_det = abs(int(report["exact_det"]["re"]))
        assert report["abs_det"] == pytest.approx(exact_det, rel=1e-12, abs=0), dims


def test_witness_report_edge_values_without_warnings(monkeypatch):
    # J scaled to zero, to |det| 1e480 past float range, and with one column
    # scaled below the verdict's tolerance (sigma_min / sigma_max < 1e-10);
    # the SVD resolves sigma_min ~ 1e-12 only to about eps sigma_max, hence rel=1e-3
    base = witness_report(DIMS, seed=9)
    tiny = np.ones(PILOTS.n_useful)
    tiny[-1] = 1e-12
    cases = [(0.0, 0.0, False), (1e40, math.inf, True), (tiny, 1e-12 * base["abs_det"], False)]
    assemble = jacobian_module.assemble_jacobian
    for scale, abs_det, nonsingular in cases:
        monkeypatch.setattr(jacobian_module, "assemble_jacobian", lambda *a, c=scale: c * assemble(*a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = witness_report(DIMS, seed=9)
        assert report["abs_det"] == pytest.approx(abs_det, rel=1e-3, abs=0)
        assert report["nonsingular"] is nonsingular
        assert math.isfinite(report["sigma_min"]) and math.isfinite(report["spectral_norm"])


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
    Z, s, x = witness_construct(pilot_chain(DIMS), seed=2)
    J3 = assemble_jacobian(Z, s, x, PILOTS)
    # rows of the third receive block; columns: its coloring pair plus the
    # replicated-row data columns (faces 3 and 4 -> 0-based flat 2 and 7)
    data = PILOTS.data_index.tolist()
    cols = [5, 6, 6 + data.index(2) + 1, 6 + data.index(7) + 1]
    reduced = reduce_by_block(J3, rows=[9, 10, 11, 12], cols=cols)

    dims2 = Dims.create(2, 2, 4, 1, T_eff=2)
    chain2 = pilot_chain(dims2)
    Z2 = Z[:2]
    J2 = assemble_jacobian(Z2, s[:4], x, chain2)
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
    chain = pilot_chain(dims)
    return assemble_jacobian(*witness_construct(chain, exact=True), chain)


@pytest.mark.parametrize(
    "dims",
    list(regime_cells(5)) + [Dims.create(4, 8, 16, 2)],
    ids=lambda d: f"{d.T}{d.R}{d.N}{d.Q}",
)
def test_witness_det_matches_oracle_on_witnesses(dims):
    J = exact_witness_matrix(dims)
    det = _witness_det(J)
    assert det == oracle_det(J) != 0
    assert certified(dims) == det


def random_integer_matrix(seed, n=12, bound=1000):
    return np.random.default_rng(seed).integers(-bound, bound + 1, (n, n))


def test_multimodular_det_combines_several_primes():
    for seed in range(3):
        M = random_integer_matrix(seed)
        det = multimodular_det(M)
        assert abs(det) > 2**62  # beyond int64, so several residues were combined
        assert det == oracle_det(M.astype(complex))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(arrays(np.int64, (12, 12), elements=st.integers(-1000, 1000)))
def test_multimodular_det_matches_oracle_on_random_matrices(M):
    assert multimodular_det(M) == oracle_det(M.astype(complex))


def test_multimodular_det_entries_beyond_float_precision():
    # entries of 2^40 make the squared row norms overflow int64
    rng = np.random.default_rng(3)
    M = rng.integers(-(2**40), 2**40, (6, 6))
    assert multimodular_det(M) == oracle_det(M.tolist())


def test_multimodular_det_singular_and_prime_multiple():
    M = random_integer_matrix(4, n=6)
    repeated = M.copy()
    repeated[4] = repeated[1]
    assert multimodular_det(repeated) == 0
    zero_row = M.copy()
    zero_row[2] = 0
    assert multimodular_det(zero_row) == 0
    # det = 3 * p for the first table prime p: its residue is 0, the others are not
    p = DET_PRIMES[0]
    upper = np.triu(random_integer_matrix(5, n=6, bound=3), k=1) + np.diag([p, 3, 1, 1, 1, 1])
    mixed = np.tril(random_integer_matrix(6, n=6, bound=3), k=-1) + np.eye(6, dtype=np.int64)
    M = mixed @ upper  # unit lower triangular times upper triangular
    assert multimodular_det(M) == oracle_det(M.tolist()) == 3 * p
    assert multimodular_det(-M[::-1]) == oracle_det((-M[::-1]).tolist())


def test_multimodular_det_at_the_hadamard_bound():
    # |det| = H exactly; with H between p/2 and p for the first table prime p,
    # one residue cannot tell det from det + p, so a second prime is needed
    a = 30000
    assert DET_PRIMES[0] / 2 < 2 * a * a < DET_PRIMES[0]
    assert multimodular_det(np.array([[a, a], [a, -a]])) == -2 * a * a
    H = np.array([[1]])
    for _ in range(4):
        H = np.block([[H, H], [H, -H]])  # Sylvester Hadamard matrix of order 16
    assert multimodular_det(H) == oracle_det(H.tolist())
    assert abs(multimodular_det(H)) == 16**8


def test_multimodular_det_refuses_to_guess_past_the_prime_table():
    M = np.full((40, 40), 2**61, dtype=np.int64) + np.eye(40, dtype=np.int64)
    with pytest.raises(InvalidConfigurationError, match="primes"):
        multimodular_det(M)


def test_det_primes_are_distinct_primes_below_2_31():
    assert len(set(DET_PRIMES)) == len(DET_PRIMES)
    for p in DET_PRIMES:
        assert 2 < p < 2**31
        assert all(p % d for d in range(2, isqrt(p) + 1)), p


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[1.0, 0.5], [0.0, 1.0]]),
        np.array([[1, 1j], [0, 1]]),
        np.array([[1, 0], [0, 1 + 1e-300j]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[-1, 0], [0, 1]]),
        np.array([[2, 0], [0, 1]]),
        np.array([[1.0, 0.0], [0.0, 1.0 + 1e-15]]),
        np.array([[1, 0], [0, 2**63]], dtype=np.uint64),
        np.array([["1", "0"], ["0", "1"]]),
    ],
    ids=["fraction", "imaginary", "tiny-imaginary", "nan", "inf", "minus-one", "two", "nearly-one", "uint64", "strings"],
)
def test_witness_det_rejects_entries_other_than_0_and_1(bad):
    with pytest.raises(InvalidConfigurationError, match="other than 0 and 1"):
        _witness_det(bad)


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64, np.float64, complex, object])
def test_witness_det_reads_the_witness_in_any_dtype_and_layout(dtype):
    # the certificate compares entries with 0 and 1 only, so the storage of an exact witness does not matter
    J = exact_witness_matrix(DIMS)
    det = _witness_det(J)
    A = J.real.astype(dtype)
    assert det in (1, -1)
    assert _witness_det(A) == _witness_det(np.asfortranarray(A)) == det
    assert _witness_det(A.T) == det  # a non-contiguous view
    assert _witness_det(A[::-1]) == _witness_det(J[::-1]) == oracle_det(J[::-1])


def test_witness_det_takes_negative_zero_as_zero():
    assert _witness_det(np.array([[-0.0, 1.0], [1.0, -0.0]])) == -1
    assert _witness_det(np.array([[1.0, -0.0], [-0.0 - 0.0j, 1.0]])) == 1


@pytest.mark.parametrize("bad", [np.ones((2, 3)), np.ones(4)], ids=["2x3", "vector"])
def test_witness_det_rejects_a_non_square_matrix(bad):
    with pytest.raises(InvalidConfigurationError, match="non-square"):
        _witness_det(bad)


def test_witness_det_rejects_a_witness_with_one_entry_of_2():
    J = exact_witness_matrix(DIMS)
    i, j = np.argwhere(J != 0)[3]
    J[i, j] = 2
    with pytest.raises(InvalidConfigurationError, match="other than 0 and 1"):
        _witness_det(J)


def test_float_witness_is_not_certified():
    # the seeded witness is nonsingular but its entries are not 0/1, so the exact certificate refuses it
    chain = pilot_chain(DIMS)
    witness = witness_construct(chain, seed=0)
    assert full_svd_verdict(assemble_jacobian(*witness, chain))
    with pytest.raises(InvalidConfigurationError, match="other than 0 and 1"):
        certify_witness_exact(chain, witness)


def permuted(M, seed):
    """M with its rows and its columns shuffled by two seeded permutations."""
    rng = np.random.default_rng(seed)
    return M[rng.permutation(len(M))][:, rng.permutation(len(M))]


@st.composite
def sparse_integer_matrices(draw, elements=st.integers(-1000, 1000)):
    """Mostly zeros: the diagonal, part of the upper triangle and stray entries, rows and columns permuted."""
    n = draw(st.integers(1, 10))
    values = draw(arrays(np.int64, (n, n), elements=elements))
    triangle = np.triu(draw(arrays(np.bool_, (n, n), elements=st.booleans()))) | np.eye(n, dtype=bool)
    stray = draw(arrays(np.bool_, (n, n), elements=st.sampled_from([False] * 3 + [True])))
    M = np.where(triangle | stray, values, 0)
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    return M[rows][:, cols]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_integer_matrices())
def test_multimodular_det_matches_oracle_on_sparse_permuted_matrices(M):
    assert multimodular_det(M) == oracle_det(M.tolist())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_integer_matrices(st.sampled_from([1, 1, 1, 0])))
def test_witness_det_equals_the_oracle_or_raises(M):
    # never a wrong value: a 0/1 matrix either peels to the oracle's determinant or is refused at its
    # core; entries lean to 1 so that 1, -1, 0 and a refusal each come up often
    try:
        det = _witness_det(M)
    except InvalidConfigurationError as exc:
        assert "core" in str(exc)
    else:
        assert det == oracle_det(M.tolist())


def test_witness_det_takes_a_permuted_unit_triangular_matrix_whole():
    rng = np.random.default_rng(7)
    M = permuted(np.triu(rng.integers(0, 2, (30, 30)), k=1) + np.eye(30, dtype=np.int64), seed=8)
    sign = oracle_det(permuted(np.eye(30, dtype=np.int64), seed=8).tolist())  # of the two permutations
    assert _witness_det(M) == sign == oracle_det(M.tolist())


@pytest.mark.parametrize(
    "core",
    [np.ones((2, 2), dtype=np.int64), np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])],
    ids=["singular-2x2", "det-2-3x3"],
)
def test_witness_det_refuses_a_core_with_no_singleton(core):
    # a permuted unit triangular matrix with a dense block on its diagonal peels down to that block and stops
    k = len(core)
    M = np.triu(np.random.default_rng(9).integers(0, 2, (12, 12)), k=1) + np.eye(12, dtype=np.int64)
    M[4 : 4 + k, 4 : 4 + k] = core
    M = permuted(M, seed=10)
    with pytest.raises(InvalidConfigurationError, match=f"{k} rows are left in a core with no singleton"):
        _witness_det(M)
    assert multimodular_det(M) == oracle_det(M.tolist()) == round(np.linalg.det(core))


def test_witness_det_finds_a_row_emptied_midway():
    # no zero row or column, but removing the pivot of either row 0 or row 1
    # leaves the other one empty
    M = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 1]])
    assert _witness_det(M) == 0 == oracle_det(M.tolist())
    assert _witness_det(M.T) == 0


def test_witness_det_of_the_smallest_matrices():
    assert _witness_det(np.zeros((0, 0))) == 1
    assert _witness_det(np.array([[1]])) == 1
    assert _witness_det(np.array([[0]])) == 0
    assert _witness_det(np.zeros((3, 3), dtype=complex)) == 0


def test_every_witness_peels_whole():
    # the witness Jacobian is block triangular, one receive antenna per
    # step: the peel takes it entry by entry, with nothing left over
    for dims in regime_cells(8):
        J = exact_witness_matrix(dims)
        det = _witness_det(J)
        assert det in (1, -1) and _witness_det(J.T) == det, dims  # the transpose peels by the other steps
        if dims.N <= 6:  # the whole matrix, multi-modular, is the peel's oracle
            assert multimodular_det(J.real.astype(np.int64)) == det, dims


def test_the_general_integer_determinant_is_gone():
    # the certificate handles only what a witness is; the CRT determinant is a test oracle in paper_facts
    removed = ("exact_integer_det", "_integer_matrix", "_peel", "_multimodular_det", "_det_mod_primes", "DET_PRIMES")
    assert [name for name in removed if hasattr(jacobian_module, name)] == []


def test_exact_certificate_at_n432_matches_slogdet_sign():
    dims = Dims.create(6, 11, 40, 3)
    J = exact_witness_matrix(dims)
    assert J.shape == (432, 432)
    det = certified(dims)
    sign, _ = np.linalg.slogdet(J)
    assert det in (1, -1)
    assert det == sign.real
