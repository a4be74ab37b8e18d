"""Helpers for the paper facts that the tests check and no library call computes.

Each is a few lines of numpy on top of the channel model: the 1-D log-moment
calibration, the rank gap between constant and generic coloring, the
per-antenna scaling ambiguity, distinct-solution counting, the virtual-SIMO
noise split of the upper bound and the determinant-preserving block reduction.
The dense block-diagonal B is the oracle of the library's forward map, and
the per-draw Jacobian assembly the oracle that its stacked assembly must match
bit for bit; it assembles non-square cases too. probe_draws replays the draws
of a genericity probe one at a time, for full-SVD oracles of its verdicts.
"""

import numpy as np

from fadingdof.jacobian import NONSINGULAR_TOL
from fadingdof.model import (
    ColoringMatrix,
    constant_model,
    random_coloring,
    split_fading,
    split_tx,
    standard_complex_gaussian,
)


def gaussian_log_magnitude_mean() -> float:
    """E[log |xi|] for xi ~ CN(0, 1): minus half the Euler-Mascheroni constant."""
    return -float(np.euler_gamma) / 2.0


def mc_log_magnitude(samples: int, seed: int) -> float:
    """Monte-Carlo estimate of E[log |xi|], xi ~ CN(0, 1); 1-D calibration case."""
    rng = np.random.default_rng(seed)
    xi = standard_complex_gaussian(rng, samples)
    return float(np.mean(np.log(np.abs(xi))))


def numerical_rank(M: np.ndarray) -> int:
    """Number of singular values above 1e-8 times the largest."""
    svals = np.linalg.svd(M, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > 1e-8 * svals[0]))


def rank_gap(dims, seed: int) -> tuple[int, int]:
    """Ranks of the N x R matrix of noiseless per-antenna outputs: constant, then generic.

    One (s, x) is evaluated on both colorings (Q = 1, as the constant model
    needs). The generic coloring and the point come from the two children of
    SeedSequence(seed), so distinct seeds share no stream.
    """
    coloring_seed, point_seed = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(point_seed)
    s = standard_complex_gaussian(rng, dims.R * dims.T_eff * dims.Q)
    x = standard_complex_gaussian(rng, dims.T_eff * dims.N)
    ranks = []
    for Z in (constant_model(dims), random_coloring(dims, coloring_seed)):
        y_bar = build_B(Z, x, dims) @ s
        ranks.append(numerical_rank(y_bar.reshape(dims.R, dims.N).T))
    return ranks[0], ranks[1]


def scaling_ambiguity_holds(s, x, Z, dims, seed: int = 0) -> bool:
    """Rescaling (x_t, s_{r,t}) to (c_t x_t, s_{r,t} / c_t) leaves y_bar unchanged to 1e-12.

    The c_t are random nonzero factors; this is the ambiguity the pilots exist
    to pin down.
    """
    rng = np.random.default_rng(seed)
    c = standard_complex_gaussian(rng, dims.T_eff)
    c += (np.abs(c) < 0.1) * 1.0  # keep every factor safely away from zero
    s_mat = np.asarray(s, dtype=complex).reshape(dims.R, dims.T_eff, dims.Q)
    x_mat = np.asarray(x, dtype=complex).reshape(dims.T_eff, dims.N)
    y_ref = build_B(Z, x_mat.reshape(-1), dims) @ s_mat.reshape(-1)
    y_scaled = build_B(Z, (c[:, None] * x_mat).reshape(-1), dims) @ (
        s_mat / c[None, :, None]
    ).reshape(-1)
    return bool(np.linalg.norm(y_scaled - y_ref) <= 1e-12 * np.linalg.norm(y_ref))


def cluster_solutions(points, rel_tol: float = 1e-6):
    """One representative per greedy cluster of parameter vectors, by relative distance."""
    reps: list[np.ndarray] = []
    for p in points:
        p = np.asarray(p)
        scale = max(np.linalg.norm(p), 1.0)
        if not any(np.linalg.norm(p - r) <= rel_tol * scale for r in reps):
            reps.append(p)
    return reps


def virtual_simo_K(Z) -> float:
    """Noise-splitting constant of the upper bound's SIMO decomposition.

    K = (1 + 1e-6) max_{r,i} sum_{t,q} |[Z_{r,t}]_i^q|^2; the strict margin
    keeps every residual noise variance 1 - sum |Z|^2 / (K T) positive.
    """
    row_power = np.sum(np.abs(Z.blocks) ** 2, axis=(1, 3))  # (R, N)
    return (1 + 1e-6) * float(row_power.max())


def reduce_by_block(M: np.ndarray, rows, cols) -> np.ndarray:
    """Drop 1-based rows E and columns F from a square M, keeping whether det M != 0.

    Asserts |E| = |F|, a zero block ([M] off E on F, or [M] on E off F) and a
    nonsingular corner [M]_E^F; then |det M| = |det corner| * |det returned|.
    """
    n = M.shape[0]
    E = np.asarray(sorted(rows), dtype=int) - 1
    F = np.asarray(sorted(cols), dtype=int) - 1
    assert M.shape == (n, n) and len(E) == len(F)
    other_rows = np.setdiff1d(np.arange(n), E)
    other_cols = np.setdiff1d(np.arange(n), F)
    assert not M[np.ix_(other_rows, F)].any() or not M[np.ix_(E, other_cols)].any()
    svals = np.linalg.svd(M[np.ix_(E, F)], compute_uv=False)
    assert svals[-1] > 1e-12 * svals[0]
    return M[np.ix_(other_rows, other_cols)]


def build_B(Z, x, dims) -> np.ndarray:
    """Oracle: the (R*N, R*T_eff*Q) block-diagonal matrix B, so that y_bar = B s.

    Block r is the horizontal concatenation over t of diag(x_t) Z_{r,t}.
    """
    Z.require_conforms(dims)
    xt = split_tx(np.asarray(x, dtype=complex), dims)
    R, Teff, N, Q = dims.R, dims.T_eff, dims.N, dims.Q
    B = np.zeros((R * N, R * Teff * Q), dtype=complex)
    for r in range(R):
        # block[t] = diag(x_t) Z_{r,t}
        block = xt[:, :, None] * Z.blocks[r]
        B[r * N : (r + 1) * N, r * Teff * Q : (r + 1) * Teff * Q] = (
            block.transpose(1, 0, 2).reshape(N, Teff * Q)
        )
    return B


def diagonal_grid_loop(Z, s, dims):
    """Oracle: the (r, t) blocks diag(Z_{r,t} s_{r,t}) filled one at a time."""
    sv = split_fading(np.asarray(s, dtype=complex), dims)
    R, Teff, N = dims.R, dims.T_eff, dims.N
    A = np.zeros((R * N, Teff * N), dtype=complex)
    for r in range(R):
        for t in range(Teff):
            a = Z.blocks[r, t] @ sv[r, t]
            idx = np.arange(N)
            A[r * N + idx, t * N + idx] = a
    return A


def assemble_jacobian_loop(Z, s, x, pilots):
    """Oracle: one Jacobian from the full B and diagonal grid, data columns picked, useful rows cut."""
    dims = pilots.dims
    B = build_B(Z, x, dims)
    A = diagonal_grid_loop(Z, s, dims)
    data0 = np.asarray(pilots.data, dtype=int) - 1
    return np.hstack([B, A[:, data0]])[: pilots.n_useful, :]


def probe_draws(dims, trials, seed, coloring=None):
    """The (Z, s, x) of each trial of genericity_probe(dims, ..., trials, seed, coloring), one at a time."""
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        if coloring is None:
            Z = ColoringMatrix(standard_complex_gaussian(rng, (dims.R, dims.T_eff, dims.N, dims.Q)))
        else:
            Z = coloring
        s = standard_complex_gaussian(rng, dims.R * dims.T_eff * dims.Q)
        x = standard_complex_gaussian(rng, dims.T_eff * dims.N)
        yield Z, s, x


def full_svd_verdict(M) -> bool:
    """Oracle verdict on one Jacobian: sigma_min(M) > NONSINGULAR_TOL ||M||_2, from a full SVD."""
    sv = np.linalg.svd(M, compute_uv=False)
    return bool(sv[-1] > NONSINGULAR_TOL * sv[0])
