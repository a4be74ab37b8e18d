"""Jacobian of the pilot-parametrized recovery map and its nonsingularity.

With the pilot entries of x held fixed, the noiseless outputs restricted to
the useful set I are a polynomial map of (s, x_data). Its Jacobian is
[(B  [A]^D)]_I where A is the grid of diagonal blocks diag(Z_{r,t} s_{r,t});
derivatives are never taken with respect to pilot entries. This module
assembles that matrix, constructs an explicit triple (Z, s, x) whose Jacobian
determinant is provably nonzero, probes nonsingularity for random draws, and
provides the determinant-preserving block reduction the construction rests on.

The exact certificate is exact_integer_det: the witness Jacobian has 0/1
entries, and its determinant is computed modulo as many word-size primes as
the Hadamard bound requires and rebuilt by the Chinese remainder theorem.
The tests keep a fraction-free (Bareiss) elimination as an independent oracle.

Assembly builds only the matrix. Its spectral statistics are lazy: the
singular values (one SVD) and the determinant's sign and log-magnitude (one
slogdet) are each computed on first use and cached on the JacobianMatrix, so
recovery and the exact certificate, which read only the matrix, factorize
nothing, and every statistic costs at most one factorization of its kind.

Nonsingularity at finite precision means sigma_min > 1e-10 times the spectral
norm; determinant magnitude alone is scale-fragile. All computations are
pure; probe trials use per-trial derived seeds and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ColoringMatrix, Dims, InvalidConfigurationError, build_B, split_fading, standard_complex_gaussian
from .pilots import PilotAssignment, build_pilot_sets

__all__ = [
    "NONSINGULAR_TOL",
    "JacobianMatrix",
    "ReductionError",
    "assemble_jacobian",
    "bezout_bound",
    "witness_construct",
    "certify_witness_exact",
    "genericity_probe",
    "ProbeStats",
    "reduce_by_block",
    "DET_PRIMES",
    "exact_integer_det",
]

NONSINGULAR_TOL = 1e-10


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


def _diagonal_grid(Z: ColoringMatrix, s: np.ndarray, dims: Dims) -> np.ndarray:
    """The (RN, T_eff*N) grid whose (r, t) block is diag(Z_{r,t} s_{r,t})."""
    sv = split_fading(np.asarray(s, dtype=complex), dims)
    R, Teff, N = dims.R, dims.T_eff, dims.N
    a = np.matmul(Z.blocks, sv[..., None])[..., 0]  # (R, T_eff, N): Z_{r,t} s_{r,t}
    r, t, i = np.indices(a.shape, sparse=True)
    A = np.zeros((R * N, Teff * N), dtype=complex)
    A[r * N + i, t * N + i] = a
    return A


def assemble_jacobian(
    Z: ColoringMatrix, s: np.ndarray, x: np.ndarray, pilots: PilotAssignment
) -> JacobianMatrix:
    """Assemble the square Jacobian [(B  [A]^D)]_I at the point (s, x).

    Column order is the fading vector first (R T_eff Q columns), then the data
    entries of x in ascending flat index.
    """
    dims = pilots.dims
    B = build_B(Z, x, dims)
    A = _diagonal_grid(Z, s, dims)
    data0 = np.asarray(pilots.data, dtype=int) - 1
    useful0 = np.arange(pilots.n_useful)
    M = np.hstack([B, A[:, data0]])[useful0, :]
    if M.shape[0] != M.shape[1]:
        raise InvalidConfigurationError(
            f"Jacobian is {M.shape}, not square; dims outside the valid regime?"
        )
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
    evaluates its determinant with exact_integer_det: multi-modular
    elimination under a Hadamard bound, rebuilt by the Chinese remainder
    theorem. Returns the determinant as an exact int; nonzero certifies
    nonsingularity with no floating-point error.
    """
    Z, s, x = witness_construct(dims, pilots, exact=True)
    J = assemble_jacobian(Z, s, x, pilots)
    return exact_integer_det(J.matrix)


@dataclass(frozen=True)
class ProbeStats:
    trials: int
    n_nonsingular: int
    fraction_nonsingular: float | None
    min_abs_det: float | None
    min_sigma_ratio: float | None


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
    empty statistics. Trials use independently derived seeds and are
    reproducible regardless of evaluation order.
    """
    if trials == 0:
        return ProbeStats(0, 0, None, None, None)
    children = np.random.SeedSequence(seed).spawn(trials)
    n_nonsingular = 0
    min_det = math.inf
    min_ratio = math.inf
    for child in children:
        rng = np.random.default_rng(child)
        if coloring is None:
            Z = ColoringMatrix(
                standard_complex_gaussian(rng, (dims.R, dims.T_eff, dims.N, dims.Q))
            )
        else:
            Z = coloring
        s = standard_complex_gaussian(rng, dims.R * dims.T_eff * dims.Q)
        x = standard_complex_gaussian(rng, dims.T_eff * dims.N)
        J = assemble_jacobian(Z, s, x, pilots)
        ratio = J.sigma_min / J.spectral_norm if J.spectral_norm > 0 else 0.0
        if ratio > NONSINGULAR_TOL:
            n_nonsingular += 1
        min_det = min(min_det, J.det_abs)
        min_ratio = min(min_ratio, ratio)
    return ProbeStats(
        trials=trials,
        n_nonsingular=n_nonsingular,
        fraction_nonsingular=n_nonsingular / trials,
        min_abs_det=min_det,
        min_sigma_ratio=min_ratio,
    )


class ReductionError(ValueError):
    """A precondition of the block reduction failed; .condition names which."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


def reduce_by_block(M: np.ndarray, rows, cols, atol: float = 0.0) -> np.ndarray:
    """Drop rows E and columns F from a square M, preserving det != 0.

    Index sets are 1-based. Requires |E| = |F|, a zero block ([M] outside E
    restricted to F, or [M] on E outside F, all zero within atol), and a
    nonsingular corner [M]_E^F (sigma_min > 1e-12 times its spectral norm).
    Under these conditions det(M) != 0 iff det of the returned complement is
    nonzero, and |det M| = |det corner| * |det complement|.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ReductionError("not_square", f"matrix has shape {M.shape}")
    n = M.shape[0]
    E = np.asarray(sorted(rows), dtype=int) - 1
    F = np.asarray(sorted(cols), dtype=int) - 1
    if len(E) != len(F):
        raise ReductionError("size_mismatch", f"|rows|={len(E)} != |cols|={len(F)}")
    if len(E) == 0 or E.min() < 0 or E.max() >= n or F.min() < 0 or F.max() >= n:
        raise ReductionError("size_mismatch", "index sets empty or out of bounds")
    other_rows = np.setdiff1d(np.arange(n), E)
    other_cols = np.setdiff1d(np.arange(n), F)
    col_zero = np.all(np.abs(M[np.ix_(other_rows, F)]) <= atol)
    row_zero = np.all(np.abs(M[np.ix_(E, other_cols)]) <= atol)
    if not (col_zero or row_zero):
        raise ReductionError(
            "no_zero_block",
            "neither [M] off-rows x F nor [M] on-rows x off-cols is zero",
        )
    corner = M[np.ix_(E, F)]
    svals = np.linalg.svd(corner, compute_uv=False)
    if not svals[-1] > 1e-12 * svals[0]:
        raise ReductionError("singular_corner", "[M]_E^F is numerically singular")
    return M[np.ix_(other_rows, other_cols)]


# Word-size primes below 2^31, largest first. Residues stay below 2^31, so
# every product of two stays below 2^62 and int64 elimination cannot
# overflow. exact_integer_det takes as many as its Hadamard bound needs; all
# 32 together cover |det| up to about 2^990.
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


def exact_integer_det(M: np.ndarray) -> int:
    """Exact determinant of a square matrix with real integer entries, as a Python int.

    Multi-modular: the Hadamard bound H = prod of the row norms fixes how many
    primes of DET_PRIMES are needed, (prod p)^2 > 4 H^2 checked in integer
    arithmetic; det is computed mod each of them and rebuilt by the Chinese
    remainder theorem as the residue of least magnitude. Since |det| <= H <
    (prod p) / 2 the result is exact, with no probabilistic step. A bound that
    needs more primes than the table holds raises instead of guessing.
    """
    A = _integer_matrix(M)
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
