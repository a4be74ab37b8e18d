"""Jacobian of the pilot-parametrized recovery map and its nonsingularity.

With the pilot entries of x held fixed, the noiseless outputs restricted to
the useful set I are a polynomial map of (s, x_data). Its Jacobian is
[(B  [A]^D)]_I where A is the grid of diagonal blocks diag(Z_{r,t} s_{r,t});
derivatives are never taken with respect to pilot entries. This module
assembles that matrix, constructs an explicit triple (Z, s, x) whose Jacobian
determinant is provably nonzero, and probes nonsingularity for random draws.

The exact certificate is exact_integer_det: the witness Jacobian has 0/1
entries. Rows and columns with a single nonzero are peeled off first, each a
one-term Laplace expansion, in time linear in the nonzeros; the witness is
block triangular and peels to an empty core. What core is left, or the whole
of a matrix with no singleton row or column, has its determinant computed
modulo as many word-size primes as the core's Hadamard bound requires and
rebuilt by the Chinese remainder theorem. The tests keep a fraction-free
(Bareiss) elimination as an independent oracle.

Assembly builds only matrices. JacobianLayout assembles the Jacobians of
many draws as one (k, n, n) stack, for recovery and the exact certificate. The
Monte-Carlo callers (the probe here, analysis.mc_logdet) never assemble: they
follow the paper's induction over receive antennas. J = [blockdiag_r(B_r) | A]
and the fading columns of antenna r touch only its own rows, so
JacobianLayout.eliminate takes a QR of every B_r and leaves a square Schur
block S on the data columns; |det J| = prod_r |det R_r| |det S|. One QR call
and two SVD calls (every R_r, then S) factor a stack of draws of at most
STACK_BYTES. A single JacobianMatrix computes its singular values (one SVD)
and the determinant's sign and log-magnitude (one slogdet) on first use and
caches them, so recovery and the exact certificate, which read only the
matrix, factorize nothing.

Nonsingularity at finite precision: a JacobianMatrix is nonsingular when
sigma_min > 1e-10 (NONSINGULAR_TOL) times its spectral norm; a probe or
Monte-Carlo draw when every factor of its elimination, each R_r and S, has
sigma_min > NONSINGULAR_TOL sigma_max. Both mean det J != 0 in exact
arithmetic, but they are not the same test at finite precision. Determinant
magnitude alone is scale-fragile; the probe reports its log, which cannot
overflow. All computations
are pure; each probe trial draws from its own derived seed, so the
statistics do not depend on how the trials are grouped into stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    ColoringMatrix,
    Dims,
    InvalidConfigurationError,
    channel_vectors,
    complex_gaussian_draws,
    split_fading,
    split_tx,
    standard_complex_gaussian,
)
from .pilots import PilotAssignment, build_pilot_sets

__all__ = [
    "NONSINGULAR_TOL",
    "JacobianMatrix",
    "JacobianLayout",
    "assemble_jacobian",
    "assemble_jacobians",
    "bezout_bound",
    "witness_construct",
    "certify_witness_exact",
    "genericity_probe",
    "ProbeStats",
    "DET_PRIMES",
    "exact_integer_det",
]

NONSINGULAR_TOL = 1e-10
# Largest stack of Jacobians factorized by one LAPACK call; a larger matrix is factorized alone.
STACK_BYTES = 4 * 2**20


@dataclass(frozen=True)
class JacobianMatrix:
    """The square recovery Jacobian with lazily computed, cached spectral statistics.

    Assembly builds only the matrix. The singular values (one SVD) and the
    sign and log-magnitude of the determinant (one slogdet) are each computed
    on first use and kept, so a caller that reads only .matrix pays for no
    factorization and one that reads every statistic pays for each at most
    once.
    """

    dims: Dims
    pilots: PilotAssignment
    matrix: np.ndarray

    @cached_property
    def singular_values(self) -> np.ndarray:
        """All singular values, largest first."""
        return np.linalg.svd(self.matrix, compute_uv=False)

    @property
    def sigma_min(self) -> float:
        return float(self.singular_values[-1])

    @property
    def spectral_norm(self) -> float:
        return float(self.singular_values[0])

    @property
    def nonsingular(self) -> bool:
        return self.sigma_min > NONSINGULAR_TOL * self.spectral_norm

    @cached_property
    def _slogdet(self) -> tuple:
        sign, logdet = np.linalg.slogdet(self.matrix)
        return sign, float(logdet)

    @property
    def sign(self):
        """Sign of the determinant: a unit complex number, or 0 when it is exactly singular."""
        return self._slogdet[0]

    @property
    def log_abs_det(self) -> float:
        """log |det|, finite where |det| itself would overflow or underflow a float."""
        return self._slogdet[1]

    @property
    def det_abs(self) -> float:
        """|det| as a float, derived from log_abs_det (inf past float range, 0.0 when singular)."""
        return 0.0 if self.sign == 0 else float(np.exp(self.log_abs_det))

    @property
    def bezout_bound(self) -> int:
        return bezout_bound(self.dims, self.pilots)


def bezout_bound(dims: Dims, pilots: PilotAssignment) -> int:
    """Cap on the number of isolated preimages: 2^(R T_eff Q + |data|).

    The recovery map has that many components, each a polynomial of degree 2;
    the exponent equals the size of the useful output set.
    """
    return 2 ** (dims.R * dims.T_eff * dims.Q + len(pilots.data))


class JacobianLayout:
    """Where the entries of B and of the diagonal grid land in the Jacobian of one pilot assignment.

    Built once per assignment, it assembles stacks of Jacobians of any depth:
    the B entries x_t[i] Z_{r,t}[i,q] come from one broadcast multiply, the
    diagonal entries h_{r,t} = Z_{r,t} s_{r,t} from one batched matmul, and
    index arrays computed here scatter both into their rows and the data
    columns. The scatter fills all R N rows of each matrix, and the stack keeps
    the first n = |I|, the useful ones.

    eliminate factors the same stacks without forming them (see there).
    per_stack is the depth of a stack whose elimination holds at most
    STACK_BYTES in its Q factors and Schur blocks, and at least one.
    """

    def __init__(self, pilots: PilotAssignment):
        dims = pilots.dims
        R, Teff, N, Q = dims.R, dims.T_eff, dims.N, dims.Q
        n_b = R * Teff * Q
        n = pilots.n_useful
        m = len(pilots.data)
        if n != n_b + m:
            raise InvalidConfigurationError(
                f"Jacobian is {(n, n_b + m)}, not square; dims outside the valid regime?"
            )
        self.dims, self.n = dims, n
        self.per_stack = max(1, STACK_BYTES // ((R * N * N + m * m) * np.dtype(complex).itemsize))
        # B entry (r, t, i, q) sits at row r N + i and column (r T_eff + t) Q + q
        row_start = np.arange(R * N).reshape(R, 1, N, 1) * n
        self._b_dst = (row_start + np.arange(n_b).reshape(R, Teff, 1, Q)).ravel()
        # diagonal entry (r, t, i) sits at row r N + i and, when t N + i is a
        # data position, in that position's column after the n_b of B
        data0 = np.asarray(pilots.data) - 1
        r = np.arange(R)[:, None]
        self._a_src = (r * (Teff * N) + data0).ravel()
        self._a_dst = ((r * N + data0 % N) * n + n_b + np.arange(m)).ravel()
        # the elimination's view: data column c holds h_{r,t}[i] at face i of
        # every antenna r, where t N + i is its position; the last antenna
        # keeps its first N - ell faces
        self._faces = data0 % N
        self._last_rows = n - (R - 1) * N
        self._cut_columns = np.flatnonzero(self._faces >= self._last_rows)

    def _require_conforming(self, Z_blocks, S, X):
        dims = self.dims
        R, Teff, N, Q = dims.R, dims.T_eff, dims.N, dims.Q
        k = len(S)
        if (
            S.shape != (k, R * Teff * Q)
            or X.shape != (k, Teff * N)
            or Z_blocks.shape not in ((R, Teff, N, Q), (k, R, Teff, N, Q))
        ):
            raise InvalidConfigurationError(
                f"stack shapes Z {Z_blocks.shape}, s {S.shape}, x {X.shape} do not conform to {dims}"
            )

    def assemble(self, Z_blocks: np.ndarray, S: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The (k, n, n) Jacobians at the k points (S[j], X[j]).

        Z_blocks is one (R, T_eff, N, Q) coloring shared by every point, or a
        (k, R, T_eff, N, Q) stack of them; S is (k, R T_eff Q) and X is (k, T_eff N).
        """
        self._require_conforming(Z_blocks, S, X)
        dims = self.dims
        k, n = len(S), self.n
        products = X.reshape(k, 1, dims.T_eff, dims.N, 1) * Z_blocks  # x_t[i] Z_{r,t}[i, q]
        diagonal = channel_vectors(Z_blocks, S)
        J = np.zeros((k, dims.R * dims.N * n), dtype=complex)
        J[:, self._b_dst] = products.reshape(k, -1)
        J[:, self._a_dst] = diagonal.reshape(k, -1)[:, self._a_src]
        return J[:, : n * n].reshape(k, n, n)

    def eliminate(self, Z_blocks: np.ndarray, S: np.ndarray, X: np.ndarray) -> tuple:
        """log |det J| and the smallest factor sigma ratio of each of the k Jacobians at (S[j], X[j]).

        Arguments as for assemble; no n x n matrix is formed. The fading
        columns of antenna r touch only its own rows, as B_r = [diag(x_t)
        Z_{r,t}]_t (N x T_eff Q; the last antenna's cut rows set to zero), so
        one stacked complete QR, B_r = [Q1_r Q2_r] [R_r; 0], eliminates them.
        Left multiplying row block r by Q_r^H, a unitary map, leaves a block
        triangular matrix with diagonal blocks R_r and the square Schur block
        S, whose row block r is Q2_r^H A_r. Data column c has one entry in
        antenna r, h_{r,t}[i] at face i, so that column of the row block is the
        gather conj(Q2_r[i, :]) h_{r,t}[i]; the trailing ell rows, those of the
        last antenna's cut faces, are zero and dropped.

        So |det J| = prod_r |det R_r| |det S|, and log |det J| is the sum of
        the logs of the singular values of every R_r (one stacked SVD) and of
        S (one more): -inf when one is exactly zero, with no warning. The
        ratio is the least sigma_min / sigma_max over those factors, 0 for a
        zero factor; J is nonsingular in exact arithmetic exactly when every
        factor is, which the callers judge as ratio > NONSINGULAR_TOL.
        """
        self._require_conforming(Z_blocks, S, X)
        dims = self.dims
        R, Teff, N, Q = dims.R, dims.T_eff, dims.N, dims.Q
        k, m, width = len(S), len(self._faces), Teff * Q
        products = X.reshape(k, 1, Teff, N, 1) * Z_blocks  # x_t[i] Z_{r,t}[i, q]
        B = products.transpose(0, 1, 3, 2, 4).reshape(k, R, N, width)
        B[:, -1, self._last_rows :] = 0
        Qr, Rr = np.linalg.qr(B, mode="complete")
        a = channel_vectors(Z_blocks, S).reshape(k, -1)[:, self._a_src].reshape(k, R, m)
        a[:, -1, self._cut_columns] = 0
        schur = Qr[..., width:].conj().swapaxes(-1, -2)[..., self._faces]  # (k, R, N - T_eff Q, m)
        schur *= a[:, :, None, :]
        schur = schur.reshape(k, -1, m)[:, :m]
        r_sv = np.linalg.svd(Rr[:, :, :width], compute_uv=False)  # (k, R, T_eff Q)
        s_sv = np.linalg.svd(schur, compute_uv=False)[:, None]  # (k, 1, m)
        largest = np.concatenate([r_sv[..., 0], s_sv[..., 0]], axis=1)  # per factor
        smallest = np.concatenate([r_sv[..., -1], s_sv[..., -1]], axis=1)
        ratio = np.divide(smallest, largest, out=np.zeros(largest.shape), where=largest > 0)
        sv = np.concatenate([r_sv.reshape(k, -1), s_sv[:, 0]], axis=1)  # the n singular values
        logs = np.log(sv, out=np.full(sv.shape, -np.inf), where=sv > 0)
        return logs.sum(axis=1), ratio.min(axis=1)


def assemble_jacobians(
    Z_blocks: np.ndarray, S: np.ndarray, X: np.ndarray, pilots: PilotAssignment
) -> np.ndarray:
    """The (k, n, n) stack of Jacobians [(B  [A]^D)]_I at the points (S[j], X[j]).

    Z_blocks is one shared (R, T_eff, N, Q) coloring or a per-point
    (k, R, T_eff, N, Q) stack; see JacobianLayout.assemble.
    """
    return JacobianLayout(pilots).assemble(Z_blocks, S, X)


def assemble_jacobian(
    Z: ColoringMatrix, s: np.ndarray, x: np.ndarray, pilots: PilotAssignment
) -> JacobianMatrix:
    """Assemble the square Jacobian [(B  [A]^D)]_I at the point (s, x): a stack of one.

    Column order is the fading vector first (R T_eff Q columns), then the data
    entries of x in ascending flat index.
    """
    dims = pilots.dims
    Z.require_conforms(dims)
    x = split_tx(np.asarray(x, dtype=complex), dims)
    s = split_fading(np.asarray(s, dtype=complex), dims)
    M = assemble_jacobians(Z.blocks, s.reshape(1, -1), x.reshape(1, -1), pilots)[0]
    return JacobianMatrix(dims=dims, pilots=pilots, matrix=M)


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    G = standard_complex_gaussian(rng, (n, n))
    U, _ = np.linalg.qr(G)
    return U


def witness_construct(
    dims: Dims, pilots: PilotAssignment, seed: int = 0, exact: bool = False
):
    """Build a triple (Z, s, x) whose recovery Jacobian has nonzero determinant.

    x is the all-one vector. Receive rows 1..T_eff form the base: s_{r,t} = 0
    for r != t, the pilot rows of (Z_{r,1} ... Z_{r,T_eff}) are filled with a
    nonsingular square block, and the data rows of Z_{r,r} replicate s_{r,r}^H
    so every diagonal derivative entry is nonzero. Each further receive row r
    uses the partition of its own pilot assignment: the anchor block rows of
    Z_{r,t} get a nonsingular Q x Q fill, s_{r,t} is chosen orthogonal to all
    anchor rows except the one at the pilot face g_t, the dropped-pilot rows
    replicate s_{r,t}^H, and everything else in the pool is zero. Each choice
    keeps one block of a block-triangular factorization nonsingular, so the
    full determinant is a product of nonzero factors.

    With exact=True all fills are identity blocks; every entry is then 0 or 1,
    exactly representable, and the determinant can be certified nonzero in
    exact integer arithmetic (see certify_witness_exact). The default draws
    seeded random unitary fills, which keeps the matrix well conditioned.
    """
    dims.require_regime()
    if pilots.dims != dims:
        raise InvalidConfigurationError("pilot assignment was built for different dims")
    Teff, R, N, Q = dims.T_eff, dims.R, dims.N, dims.Q
    rng = np.random.default_rng(seed)
    Zb = np.zeros((R, Teff, N, Q), dtype=complex)
    sv = np.zeros((R, Teff, Q), dtype=complex)

    base = pilots if R == Teff else build_pilot_sets(dims.with_rx(Teff))
    for r in range(Teff):
        pilot_rows = np.asarray(base.pilot_sets[r], dtype=int) - 1
        data_rows = np.asarray(base.data_sets[r], dtype=int) - 1
        fill = np.eye(Teff * Q, dtype=complex) if exact else _random_unitary(rng, Teff * Q)
        for t in range(Teff):
            Zb[r, t][pilot_rows, :] = fill[:, t * Q : (t + 1) * Q]
        srr = np.zeros(Q, dtype=complex)
        if exact:
            srr[0] = 1.0
        else:
            g = standard_complex_gaussian(rng, Q)
            srr = g / np.linalg.norm(g)
        sv[r, r] = srr
        Zb[r, r][data_rows, :] = np.conj(srr)[None, :]

    for rr in range(Teff + 1, R + 1):
        pa = pilots if rr == R else build_pilot_sets(dims.with_rx(rr))
        for t in range(Teff):
            g_rows = np.asarray(pa.G_sets[t], dtype=int) - 1
            fill = np.eye(Q, dtype=complex) if exact else _random_unitary(rng, Q)
            Zb[rr - 1, t][g_rows, :] = fill
            k0 = pa.G_sets[t].index(pa.anchors[t])
            srt = np.conj(fill[k0])
            sv[rr - 1, t] = srt
            l_rows = np.asarray(pa.L_sets[t], dtype=int) - 1
            Zb[rr - 1, t][l_rows, :] = np.conj(srt)[None, :]

    x = np.ones(Teff * N, dtype=complex)
    return ColoringMatrix(Zb), sv.reshape(-1), x


def certify_witness_exact(dims: Dims, pilots: PilotAssignment) -> int:
    """Exact-arithmetic certificate that the witness determinant is nonzero.

    Builds the exact-mode witness, whose Jacobian has 0/1 entries, and
    evaluates its determinant with exact_integer_det, whose peel expands the
    block-triangular witness entry by entry. Returns the determinant as an
    exact int; nonzero certifies nonsingularity with no floating-point error.
    """
    Z, s, x = witness_construct(dims, pilots, exact=True)
    J = assemble_jacobian(Z, s, x, pilots)
    return exact_integer_det(J.matrix)


@dataclass(frozen=True)
class ProbeStats:
    """Nonsingularity statistics of a genericity probe; the last three are None without trials.

    A trial is nonsingular when every factor of its per-antenna elimination
    (JacobianLayout.eliminate) has sigma_min / sigma_max > NONSINGULAR_TOL;
    min_factor_sigma_ratio is the least such ratio over all trials.
    min_log_abs_det is the least natural log |det J|, from the same factors:
    finite where |det J| itself would overflow a float, and None when some
    trial is exactly singular.
    """

    trials: int
    n_nonsingular: int
    fraction_nonsingular: float | None
    min_log_abs_det: float | None
    min_factor_sigma_ratio: float | None


def genericity_probe(
    dims: Dims,
    pilots: PilotAssignment,
    trials: int,
    seed: int,
    coloring: ColoringMatrix | None = None,
) -> ProbeStats:
    """Draw (Z, s, x) i.i.d. CN(0,1) repeatedly and record singularity statistics.

    A fixed coloring (e.g. the constant model) can be supplied to probe a
    specific correlation structure with random (s, x) only. trials = 0 yields
    empty statistics. Each trial draws Z (unless fixed), s and x, in that
    order, from its own child of SeedSequence(seed). The trials' Jacobians
    are eliminated in stacks of JacobianLayout.per_stack, one QR and two SVD
    calls per stack.
    """
    if trials == 0:
        return ProbeStats(0, 0, None, None, None)
    layout = JacobianLayout(pilots)
    shape = (dims.R, dims.T_eff, dims.N, dims.Q)
    sizes = (dims.R * dims.T_eff * dims.Q, dims.T_eff * dims.N)
    if coloring is None:
        sizes = (math.prod(shape), *sizes)
    else:
        coloring.require_conforms(dims)
    children = np.random.SeedSequence(seed).spawn(trials)
    n_nonsingular = 0
    min_log_det = math.inf
    min_ratio = math.inf
    for start in range(0, trials, layout.per_stack):
        chunk = children[start : start + layout.per_stack]
        draws = [complex_gaussian_draws(np.random.default_rng(child), 1, *sizes) for child in chunk]
        *Z, S, X = (np.concatenate(column) for column in zip(*draws))  # Z is [] for a fixed coloring
        Z_blocks = Z[0].reshape(len(chunk), *shape) if Z else coloring.blocks
        log_abs_det, ratio = layout.eliminate(Z_blocks, S, X)
        n_nonsingular += int(np.count_nonzero(ratio > NONSINGULAR_TOL))
        min_log_det = min(min_log_det, float(log_abs_det.min()))
        min_ratio = min(min_ratio, float(ratio.min()))
    return ProbeStats(
        trials=trials,
        n_nonsingular=n_nonsingular,
        fraction_nonsingular=n_nonsingular / trials,
        min_log_abs_det=None if min_log_det == -math.inf else min_log_det,
        min_factor_sigma_ratio=min_ratio,
    )


# Word-size primes below 2^31, largest first. Residues stay below 2^31, so
# every product of two stays below 2^62 and int64 elimination cannot
# overflow. exact_integer_det takes as many as the Hadamard bound of its core
# needs; all 32 together cover |det| up to about 2^990.
DET_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543, 2147483497,
    2147483489, 2147483477, 2147483423, 2147483399, 2147483353, 2147483323, 2147483269, 2147483249,
    2147483237, 2147483179, 2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
    2147483053, 2147483033, 2147483029, 2147482951, 2147482949, 2147482943, 2147482937, 2147482921,
)


def _integer_matrix(M: np.ndarray) -> np.ndarray:
    """M as a square int64 array; raises unless every entry is a real integer below 2^62."""
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidConfigurationError(f"determinant of a non-square matrix of shape {A.shape}")
    if A.dtype.kind == "c":
        if np.any(A.imag != 0):
            raise InvalidConfigurationError("matrix has complex entries; expected real integers")
        A = A.real
    if A.dtype.kind not in "biuf":
        raise InvalidConfigurationError(f"matrix of dtype {A.dtype} is not numeric")
    in_range = (A > -(2**62)) & (A < 2**62)  # False for nan and inf
    if not (np.all(in_range) and np.array_equal(A, np.floor(A))):
        raise InvalidConfigurationError("matrix entries are not exact integers below 2^62")
    return A.astype(np.int64)


def _det_mod_primes(A: np.ndarray, primes) -> np.ndarray:
    """det(A) mod p for every p in primes, by int64 Gaussian elimination of all residues at once.

    Each step updates only the rows with a nonzero in the pivot column and the
    columns with a nonzero in the pivot row, so sparse matrices stay cheap. A
    residue with no pivot left in some column has determinant 0 mod its prime.
    """
    p = np.asarray(primes, dtype=np.int64)
    M = A[None, :, :] % p[:, None, None]
    det = np.ones(len(primes), dtype=np.int64)
    batch = np.arange(len(primes))
    n = A.shape[0]
    for k in range(n):
        piv = np.argmax(M[:, k:, k] != 0, axis=1) + k
        swap = piv != k
        if swap.any():
            row_k = M[batch, k].copy()
            M[batch, k] = M[batch, piv]
            M[batch, piv] = row_k
        d = M[batch, k, k]
        det = det * np.where(swap, p - d, d) % p
        rows = np.flatnonzero(M[:, k + 1 :, k].any(axis=0)) + k + 1
        cols = np.flatnonzero(M[:, k, k + 1 :].any(axis=0)) + k + 1
        if rows.size == 0 or cols.size == 0:
            continue
        inv = np.array([pow(int(v), -1, int(q)) if v else 0 for v, q in zip(d, p)], dtype=np.int64)
        factor = M[:, rows, k] * inv[:, None] % p[:, None]
        block = (slice(None), rows[:, None], cols[None, :])
        M[block] = (M[block] - factor[:, :, None] * M[:, k, cols][:, None, :]) % p[:, None, None]
    return det


def _peel(A: np.ndarray) -> tuple:
    """Strip the singleton rows and columns of the integer matrix A by one-term Laplace expansions.

    A row with one nonzero among the remaining columns, or a column with one
    nonzero among the remaining rows, is expanded along and removed, which
    multiplies the determinant by that entry; removals repeat until none is
    left. Returns (factor, rows, cols) with det A = factor * det A[rows][:, cols],
    where rows and cols are the ascending indices of the leftover core.
    factor carries the sign of the permutation that sends each peeled row to
    its pivot column and the core rows to the core columns in order; it is 0
    when a row or column empties. O(nnz) on row dicts and column sets.
    """
    n = len(A)
    r_idx, c_idx = np.nonzero(A)
    row_entries = [{} for _ in range(n)]
    col_rows = [set() for _ in range(n)]
    for i, j, v in zip(r_idx.tolist(), c_idx.tolist(), A[r_idx, c_idx].tolist()):
        row_entries[i][j] = v
        col_rows[j].add(i)
    rows_todo = [i for i in range(n) if len(row_entries[i]) == 1]
    cols_todo = [j for j in range(n) if len(col_rows[j]) == 1]
    perm = [-1] * n  # peeled row -> its pivot column
    factor = 1
    while rows_todo or cols_todo:
        if rows_todo:
            i = rows_todo.pop()
            if perm[i] >= 0:
                continue
            (j,) = row_entries[i]
        else:
            j = cols_todo.pop()
            if col_rows[j] is None:
                continue
            (i,) = col_rows[j]
        perm[i] = j
        factor *= row_entries[i][j]
        for c in row_entries[i]:
            if c != j:
                rest = col_rows[c]
                rest.discard(i)
                if not rest:
                    return 0, [], []
                if len(rest) == 1:
                    cols_todo.append(c)
        for r in col_rows[j]:
            if r != i:
                rest = row_entries[r]
                del rest[j]
                if not rest:
                    return 0, [], []
                if len(rest) == 1:
                    rows_todo.append(r)
        col_rows[j] = None
    rows = [i for i in range(n) if perm[i] < 0]
    cols = [j for j in range(n) if col_rows[j] is not None]
    for i, j in zip(rows, cols):
        perm[i] = j
    # the sign of the permutation is (-1)^(n - number of cycles)
    parity, seen = n, bytearray(n)
    for start in range(n):
        if not seen[start]:
            parity -= 1
            k = start
            while not seen[k]:
                seen[k] = 1
                k = perm[k]
    return (-factor if parity % 2 else factor), rows, cols


def exact_integer_det(M: np.ndarray) -> int:
    """Exact determinant of a square matrix with real integer entries, as a Python int.

    First the peel: a row or column with a single nonzero is a Laplace
    expansion with a single term, so such pivots are removed one after another
    and their entries multiplied exactly, leaving a core with no singleton (see
    _peel). The witness Jacobians are block triangular and peel to an empty
    core. A matrix with no singleton row or column, found by one nonzero count
    per axis, is the core as it stands and builds no index bookkeeping.

    Then the core, multi-modular: the Hadamard bound H = prod of the core's row
    norms fixes how many primes of DET_PRIMES are needed, (prod p)^2 > 4 H^2
    checked in integer arithmetic; det is computed mod each of them and rebuilt
    by the Chinese remainder theorem as the residue of least magnitude. Since
    |det| <= H < (prod p) / 2 the result is exact, with no probabilistic step.
    A core whose bound needs more primes than the table holds raises instead
    of guessing; peeled pivots count against no bound.
    """
    A = _integer_matrix(M)
    if A.size == 0:
        return 1
    nonzero = A != 0
    fewest = min(nonzero.sum(axis=1).min(), nonzero.sum(axis=0).min())  # nonzeros in the sparsest line
    if fewest == 0:
        return 0  # a zero row or column
    if fewest > 1:
        return _multimodular_det(A)
    factor, rows, cols = _peel(A)
    if factor == 0 or not rows:
        return factor
    return factor * _multimodular_det(A[np.ix_(rows, cols)])


def _multimodular_det(A: np.ndarray) -> int:
    """det A of a square int64 array: residues mod the primes its Hadamard bound needs, joined by CRT."""
    if A.shape[0] * int(np.abs(A).max(initial=0)) ** 2 < 2**63:
        norms = (A * A).sum(axis=1).tolist()
    else:  # the int64 sums could overflow
        norms = [sum(v * v for v in row) for row in A.tolist()]
    h2 = math.prod(norms)
    if h2 == 0:
        return 0  # a zero row
    count, P = 0, 1
    while P * P <= 4 * h2:
        if count == len(DET_PRIMES):
            raise InvalidConfigurationError(
                f"Hadamard bound 2^{h2.bit_length() / 2:.0f} needs more than {count} primes"
            )
        P *= DET_PRIMES[count]
        count += 1
    det, P = 0, 1
    for r, q in zip(_det_mod_primes(A, DET_PRIMES[:count]).tolist(), DET_PRIMES):
        det += P * ((r - det) * pow(P, -1, q) % q)
        P *= q
    return det - P if 2 * det > P else det
