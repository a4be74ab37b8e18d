"""Jacobian of the pilot-parametrized recovery map and its nonsingularity.

With the pilot entries of x held fixed, the noiseless outputs restricted to
the useful set I are a polynomial map of (s, x_data). Its Jacobian is
[(B  [A]^D)]_I where A is the grid of diagonal blocks diag(Z_{r,t} s_{r,t});
derivatives are never taken with respect to pilot entries. This module
assembles that matrix, constructs an explicit triple (Z, s, x) whose Jacobian
determinant is provably nonzero, probes nonsingularity for random draws, and
provides the determinant-preserving block reduction the construction rests on.

Nonsingularity at finite precision means sigma_min > 1e-10 times the spectral
norm; determinant magnitude alone is scale-fragile. All computations are
pure; probe trials use per-trial derived seeds and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "exact_gaussian_integer_det",
]

NONSINGULAR_TOL = 1e-10


@dataclass(frozen=True)
class JacobianMatrix:
    dims: Dims
    pilots: PilotAssignment
    matrix: np.ndarray
    det_abs: float
    sigma_min: float
    spectral_norm: float
    bezout_bound: int

    @property
    def nonsingular(self) -> bool:
        return self.sigma_min > NONSINGULAR_TOL * self.spectral_norm


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
    A = np.zeros((R * N, Teff * N), dtype=complex)
    for r in range(R):
        for t in range(Teff):
            a = Z.blocks[r, t] @ sv[r, t]
            idx = np.arange(N)
            A[r * N + idx, t * N + idx] = a
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
    svals = np.linalg.svd(M, compute_uv=False)
    sign, logdet = np.linalg.slogdet(M)
    det_abs = 0.0 if sign == 0 else float(np.exp(logdet))
    return JacobianMatrix(
        dims=dims,
        pilots=pilots,
        matrix=M,
        det_abs=det_abs,
        sigma_min=float(svals[-1]),
        spectral_norm=float(svals[0]),
        bezout_bound=bezout_bound(dims, pilots),
    )


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


def certify_witness_exact(dims: Dims, pilots: PilotAssignment):
    """Exact-arithmetic certificate that the witness determinant is nonzero.

    Builds the exact-mode witness, whose Jacobian has Gaussian-integer entries,
    and evaluates the determinant with fraction-free elimination. Returns
    (det_re, det_im) as exact integers; nonzero certifies nonsingularity with
    no floating-point error.
    """
    Z, s, x = witness_construct(dims, pilots, exact=True)
    J = assemble_jacobian(Z, s, x, pilots)
    return exact_gaussian_integer_det(J.matrix)


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


def _as_gaussian_integers(M: np.ndarray):
    rows = []
    for row in np.asarray(M, dtype=complex):
        out = []
        for z in row:
            a, b = round(z.real), round(z.imag)
            if z.real != a or z.imag != b:
                raise InvalidConfigurationError(
                    f"entry {z} is not an exact Gaussian integer"
                )
            out.append((int(a), int(b)))
        rows.append(out)
    return rows


def exact_gaussian_integer_det(M: np.ndarray):
    """Exact determinant of a matrix with Gaussian-integer entries.

    Fraction-free (Bareiss) elimination: every intermediate division is exact
    in the ring of Gaussian integers, so the result is exact regardless of
    size. Returns (re, im) as Python ints.
    """
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
