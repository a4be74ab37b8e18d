"""Jacobian of the pilot-parametrized recovery map and its nonsingularity.

With the pilot entries of x held fixed, the noiseless outputs restricted to
the useful set I are a polynomial map of (s, x_data). Its Jacobian is
[(B  [A]^D)]_I where A is the grid of diagonal blocks diag(Z_{r,t} s_{r,t});
derivatives are never taken with respect to pilot entries. This module
assembles that matrix, constructs an explicit triple (Z, s, x) whose Jacobian
determinant is provably nonzero, and probes nonsingularity for random draws.

The exact certificate is the peel of the exact witness Jacobian, whose
entries are 0 and 1: a row or column with a single nonzero is a one-term
Laplace expansion, so it is removed with its pivot, in time linear in the
nonzeros. The witness is block triangular and peels to nothing, which leaves
the determinant as the sign of the pivot permutation. A matrix with another
nonzero value, or one that leaves a core with no singleton row or column, is
refused rather than guessed at. The tests keep a fraction-free (Bareiss)
elimination and a multi-modular (CRT) determinant as independent oracles.

Every function takes its cell as the PilotChain whose top it is and reads
the top row: the data columns are the 0-based positions
PilotChain.data_index. The witness follows the induction over receive
antennas, so it fills rows at the nonzero positions of every row of the
chain's stacked P, L and G masks and at its anchor faces.

Assembly builds only matrices. JacobianLayout assembles the Jacobians of many
draws as one (k, n, n) stack, for recovery and the exact certificate. The
Monte-Carlo callers (the probe here, analysis.mc_logdet) never assemble.
J = [B | [A]^D] has two column families, each confined to a row group: the
fading columns of antenna r touch only its own rows (the paper's induction
over receive antennas), and the data columns at face i only the rows of
face i. JacobianLayout.eliminate takes a QR of every group's block on one
family and leaves a square Schur block S on the other; |det J| =
prod_g |det R_g| |det S|. It eliminates the faces when the n_b = R T_eff Q
fading columns are fewer than the m data columns, so S is n_b x n_b, and
the antennas otherwise, so S is m x m. A stack of draws of at most
STACK_BYTES costs one QR call and one SVD call per shape class of groups
(the antennas are one class; faces fall into a few by their row and data
column counts) and one SVD call for S. assemble_jacobian returns the matrix
alone, so recovery and the exact certificate factorize nothing; witness_report
takes one SVD of it for every float statistic it prints.

Nonsingularity at finite precision: one Jacobian (witness_report) is
nonsingular when sigma_min > 1e-10 (NONSINGULAR_TOL) times its spectral norm;
a probe or Monte-Carlo draw when every factor of its elimination, each R_g
and S, has sigma_min > NONSINGULAR_TOL sigma_max. Both mean det J != 0 in
exact arithmetic, but they are not the same test at finite precision.
Determinant magnitude alone is scale-fragile; the probe reports its log, which
cannot overflow. All computations are pure; each probe trial draws from its
own derived seed, so the statistics do not depend on how the trials are
grouped into stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    Dims,
    InvalidConfigurationError,
    channel_vectors,
    coloring_to_dict,
    complex_gaussian_draws,
    complex_to_pairs,
    dims_to_dict,
    require_coloring,
    split_fading,
    split_tx,
    standard_complex_gaussian,
)
from .pilots import PilotChain, pilot_chain

__all__ = [
    "NONSINGULAR_TOL",
    "JacobianLayout",
    "assemble_jacobian",
    "bezout_bound",
    "witness_construct",
    "certify_witness_exact",
    "witness_report",
    "genericity_probe",
    "ProbeStats",
]

NONSINGULAR_TOL = 1e-10
# Largest stack of Jacobians factorized by one LAPACK call; a larger matrix is factorized alone.
STACK_BYTES = 4 * 2**20


def bezout_bound(chain: PilotChain) -> int:
    """Cap on the number of isolated preimages of the cell chain.dims: 2^(R T_eff Q + |data|).

    The recovery map has that many components, each a polynomial of degree 2;
    the exponent equals the size of the useful output set.
    """
    d = chain.dims
    return 2 ** (d.R * d.T_eff * d.Q + chain.data_index.size)


class JacobianLayout:
    """Where the entries of B and of the diagonal grid land in the Jacobian of one cell, chain.dims.

    Built once per cell, it assembles stacks of Jacobians of any depth:
    the B entries x_t[i] Z_{r,t}[i,q] come from one broadcast multiply, the
    diagonal entries h_{r,t} = Z_{r,t} s_{r,t} from one batched matmul, and
    index arrays computed here scatter both into their rows and the data
    columns. The scatter fills all R N rows of each matrix, and the stack keeps
    the first n = |I|, the useful ones.

    eliminate factors the same stacks without forming them (see there). side
    names the column family it eliminates group by group, which leaves the
    smaller Schur block: "faces" (the data columns, face by face) when the
    n_b = R T_eff Q fading columns are fewer than the m data columns, else
    "antennas" (the fading columns, antenna by antenna). per_stack is the
    depth of a stack whose elimination on that side holds at most
    STACK_BYTES in its Q factors and Schur blocks, and at least one.
    """

    def __init__(self, chain: PilotChain):
        dims = chain.dims
        R, Teff, N, Q = dims.R, dims.T_eff, dims.N, dims.Q
        n_b = R * Teff * Q
        n = chain.n_useful
        self._data0 = chain.data_index
        m = len(self._data0)
        if n != n_b + m:
            raise InvalidConfigurationError(
                f"Jacobian is {(n, n_b + m)}, not square; dims outside the valid regime?"
            )
        self.dims, self.n = dims, n
        self.side = "faces" if n_b < m else "antennas"
        # B entry (r, t, i, q) sits at row r N + i and column (r T_eff + t) Q + q
        row_start = np.arange(R * N).reshape(R, 1, N, 1) * n
        self._b_dst = (row_start + np.arange(n_b).reshape(R, Teff, 1, Q)).ravel()
        # diagonal entry (r, t, i) sits at row r N + i and, when t N + i is a
        # data position, in that position's column after the n_b of B
        r = np.arange(R)[:, None]
        self._a_src = (r * (Teff * N) + self._data0).ravel()
        self._a_dst = ((r * N + self._data0 % N) * n + n_b + np.arange(m)).ravel()
        # the last antenna keeps its first N - ell faces
        self._last_rows = n - (R - 1) * N
        if self.side == "faces":  # a Q factor per face, R x R or (R - 1) x (R - 1)
            q_entries = self._last_rows * R * R + (N - self._last_rows) * (R - 1) ** 2
            self._schur_size = n_b
        else:  # a Q factor per antenna, N x N
            q_entries = R * N * N
            self._schur_size = m
        stack_entries = q_entries + self._schur_size**2
        self.per_stack = max(1, STACK_BYTES // (stack_entries * np.dtype(complex).itemsize))

    def _entries(self, Z, S, X) -> tuple:
        """x_t[i] Z_{r,t}[i,q] (k, R, T_eff, N, Q) and h_{r,t}[i] (k, R, T_eff, N), shapes checked."""
        dims = self.dims
        R, Teff, N, Q = dims.R, dims.T_eff, dims.N, dims.Q
        k = len(S)
        if (
            S.shape != (k, R * Teff * Q)
            or X.shape != (k, Teff * N)
            or Z.shape not in ((R, Teff, N, Q), (k, R, Teff, N, Q))
        ):
            raise InvalidConfigurationError(
                f"stack shapes Z {Z.shape}, s {S.shape}, x {X.shape} do not conform to {dims}"
            )
        return X.reshape(k, 1, Teff, N, 1) * Z, channel_vectors(Z, S)

    def assemble(self, Z: np.ndarray, S: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The (k, n, n) Jacobians at the k points (S[j], X[j]).

        Z is one (R, T_eff, N, Q) coloring shared by every point, or a
        (k, R, T_eff, N, Q) stack of them; S is (k, R T_eff Q) and X is (k, T_eff N).
        """
        products, diagonal = self._entries(Z, S, X)
        k, n = len(S), self.n
        J = np.zeros((k, self.dims.R * self.dims.N * n), dtype=complex)
        J[:, self._b_dst] = products.reshape(k, -1)
        J[:, self._a_dst] = diagonal.reshape(k, -1)[:, self._a_src]
        return J[:, : n * n].reshape(k, n, n)

    @cached_property
    def _groups(self) -> list:
        """(block, at, value) index arrays of each shape class of the groups that side eliminates.

        The indices point into the flat products x_t[i] Z_{r,t}[i,q] (R, T_eff,
        N, Q) and channel entries h_{r,t}[i] (R, T_eff, N), whose entries at
        the last antenna's cut faces eliminate sets to zero. block (G, rows,
        width) gathers the confined block of each of the G groups of the
        class; the other family's column c has its one entry in each group at
        row at[c], and value[g, c] gathers it. Built on first use, so a layout
        that only assembles builds none.
        """
        R, Teff, N, Q = self.dims.R, self.dims.T_eff, self.dims.N, self.dims.Q
        data0 = self._data0
        faces = data0 % N
        if self.side == "antennas":
            # antenna r: the N x T_eff Q block B_r; data column c at row i_c, its face
            r, i, t, q = np.ix_(range(R), range(N), range(Teff), range(Q))
            block = (((r * Teff + t) * N + i) * Q + q).reshape(R, N, Teff * Q)
            return [(block, faces, np.arange(R)[:, None] * (Teff * N) + data0)]
        # face i: the R_i x d_i block H_i[r, t] = h_{r,t}[i] on its data columns,
        # R_i = R - 1 at the cut faces; fading column (r, t, q) at row r
        rows = np.where(np.arange(N) < self._last_rows, R, R - 1)
        width = np.bincount(faces, minlength=N)
        by_face = np.argsort(faces, kind="stable")  # data columns face by face, t ascending
        first = np.cumsum(width) - width
        col = np.arange(R * Teff * Q)
        groups = []
        for R_i, d_i in sorted(set(zip(rows.tolist(), width.tolist()))):
            f = np.flatnonzero((rows == R_i) & (width == d_i))
            columns = by_face[first[f][:, None] + np.arange(d_i)]  # (G, d_i)
            block = np.arange(R_i)[:, None] * (Teff * N) + data0[columns][:, None, :]
            # a cut face has no last-antenna row: row R - 2 stands in, times a zero value
            at = np.minimum(col // (Teff * Q), R_i - 1)
            groups.append((block, at, ((col // Q) * N + f[:, None]) * Q + col % Q))
        return groups

    def eliminate(self, Z: np.ndarray, S: np.ndarray, X: np.ndarray) -> tuple:
        """log |det J| and the smallest factor sigma ratio of each of the k Jacobians at (S[j], X[j]).

        Arguments as for assemble; no n x n matrix is formed. J = [B | [A]^D]
        has two column families, each confined to a row group: the fading
        columns of antenna r touch only its N rows, as B_r = [diag(x_t)
        Z_{r,t}]_t (the last antenna's cut rows set to zero), and the data
        columns at face i touch only the R_i rows of that face (R - 1 at the
        last antenna's ell cut faces), as H_i[r, t] = h_{r,t}[i]. Every column
        of the other family has exactly one entry in each group. side picks
        the family to eliminate. One stacked complete QR per shape class of
        its groups, K_g = [Q1_g Q2_g] [R_g; 0], and left multiplying row group
        g by Q_g^H, a unitary map, leave a block triangular matrix with
        diagonal blocks R_g and the square Schur block S on the other family,
        whose row block g is Q2_g^H times that family's entries in group g:
        for a column with entry v at row j of the group, the gather
        conj(Q2_g[j, :]) v. On the antenna side the trailing ell rows, those
        of the last antenna's cut faces, are zero and dropped.

        So |det J| = prod_g |det R_g| |det S|, and log |det J| is the sum of
        the logs of the singular values of every R_g (one stacked SVD per
        shape class) and of S (one more): -inf when one is exactly zero, with
        no warning. The ratio is the least sigma_min / sigma_max over those
        factors, 0 for a zero factor; J is nonsingular in exact arithmetic
        exactly when every factor is, which the callers judge as ratio >
        NONSINGULAR_TOL.
        """
        products, channels = self._entries(Z, S, X)
        k, size = len(S), self._schur_size
        products[:, -1, :, self._last_rows :] = 0  # outside the useful rows
        channels[:, -1, :, self._last_rows :] = 0
        products, channels = products.reshape(k, -1), channels.reshape(k, -1)
        confined, other = (channels, products) if self.side == "faces" else (products, channels)
        heights = [G * (rows - width) for G, rows, width in (block.shape for block, _, _ in self._groups)]
        # S with the draws inside each row, so every class's rows are one
        # contiguous slice that np.take fills in place (its default mode
        # "raise" would buffer it; the indices are in range by construction)
        schur = np.empty((sum(heights), k, size), dtype=complex)
        factor_sv, start = [], 0
        for (block, at, value), height in zip(self._groups, heights):
            G, rows, width = block.shape
            Qg, Rg = np.linalg.qr(np.take(confined, block, axis=1), mode="complete")
            # the class's rows of S: conj(Q2_g[at[c], :]) times column c's value in group g
            part = schur[start : start + height].reshape(G, rows - width, k, size)
            np.take(Qg[..., width:].transpose(1, 3, 0, 2), at, axis=-1, out=part, mode="clip")
            np.conjugate(part, out=part)
            part *= np.take(other, value, axis=1).transpose(1, 0, 2)[:, None]
            start += height
            if width:
                factor_sv.append(np.linalg.svd(Rg[..., :width, :], compute_uv=False).reshape(k, -1, width))
        schur = schur.swapaxes(0, 1)  # (k, rows, size)
        factor_sv.append(np.linalg.svd(schur[:, :size], compute_uv=False)[:, None])
        largest = np.concatenate([sv[..., 0] for sv in factor_sv], axis=1)  # per factor
        smallest = np.concatenate([sv[..., -1] for sv in factor_sv], axis=1)
        ratio = np.divide(smallest, largest, out=np.zeros(largest.shape), where=largest > 0)
        sv = np.concatenate([sv.reshape(k, -1) for sv in factor_sv], axis=1)  # the n singular values
        logs = np.log(sv, out=np.full(sv.shape, -np.inf), where=sv > 0)
        return logs.sum(axis=1), ratio.min(axis=1)


def assemble_jacobian(Z: np.ndarray, s: np.ndarray, x: np.ndarray, chain: PilotChain) -> np.ndarray:
    """The square Jacobian [(B  [A]^D)]_I of the cell chain.dims at the point (s, x), an (n, n) complex array.

    A stack of one. Column order is the fading vector first (R T_eff Q
    columns), then the data entries of x in ascending flat index.
    """
    dims = chain.dims
    require_coloring(Z, dims)
    x = split_tx(np.asarray(x, dtype=complex), dims)
    s = split_fading(np.asarray(s, dtype=complex), dims)
    return JacobianLayout(chain).assemble(Z, s.reshape(1, -1), x.reshape(1, -1))[0]


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    G = standard_complex_gaussian(rng, (n, n))
    U, _ = np.linalg.qr(G)
    return U


def witness_construct(chain: PilotChain, seed: int = 0, exact: bool = False):
    """Build a triple (Z, s, x) whose recovery Jacobian has nonzero determinant.

    chain is the cell's PilotChain, R' = T_eff..R, as pilot_chain(dims)
    returns it; its stacked masks are read and nothing is dealt here. x is
    the all-one vector. Receive rows 1..T_eff form the base: s_{r,t} = 0 for
    r != t, the pilot rows of (Z_{r,1} ... Z_{r,T_eff}) are filled with a
    nonsingular square block, and the data rows of Z_{r,r} replicate
    s_{r,r}^H so every diagonal derivative entry is nonzero. Each further
    receive row r uses the partition of its own cell, row r - T_eff of the chain: the anchor block rows of
    Z_{r,t} get a nonsingular Q x Q fill, s_{r,t} is chosen orthogonal to all
    anchor rows except the one at the pilot face g_t, the dropped-pilot rows
    replicate s_{r,t}^H, and everything else in the pool is zero. Each choice
    keeps one block of a block-triangular factorization nonsingular, so the
    full determinant is a product of nonzero factors.

    With exact=True all fills are identity blocks and no random generator is
    made; every entry is then 0 or 1, exactly representable, and the
    determinant can be certified nonzero in exact integer arithmetic (see
    certify_witness_exact). Row r depends only on the cell with r
    receive antennas, so the exact witness of a cell is the prefix Z[:R],
    s[:R T_eff Q], x of the witness of any cell above it on its chain. The
    default draws seeded random unitary fills, row by row, which keeps the
    matrix well conditioned. The fills of all rows are then written at once
    from the 0-based positions of the pilot, data, anchor and dropped faces
    in the chain's masks.
    """
    if not isinstance(chain, PilotChain):
        raise InvalidConfigurationError("witness_construct needs the pilot chain R' = T_eff..R of one cell")
    dims = chain.dims
    Teff, R, N, Q = dims.T_eff, dims.R, dims.N, dims.Q
    above = len(chain) - 1  # receive rows past T_eff

    # base_fill[r] fills the pilot rows of receive row r, s_base[r] is s_{r,r},
    # and anchor_fill[k, t] fills the anchor rows of Z_{T_eff+k+1, t}
    if exact:
        base_fill = np.broadcast_to(np.eye(Teff * Q, dtype=complex), (Teff, Teff * Q, Teff * Q))
        s_base = np.zeros((Teff, Q), dtype=complex)
        s_base[:, 0] = 1.0
        anchor_fill = np.broadcast_to(np.eye(Q, dtype=complex), (above, Teff, Q, Q))
    else:
        rng = np.random.default_rng(seed)
        base_fill = np.empty((Teff, Teff * Q, Teff * Q), dtype=complex)
        s_base = np.empty((Teff, Q), dtype=complex)
        for r in range(Teff):
            base_fill[r] = _random_unitary(rng, Teff * Q)
            g = standard_complex_gaussian(rng, Q)
            s_base[r] = g / np.linalg.norm(g)
        anchor_fill = np.empty((above, Teff, Q, Q), dtype=complex)
        for k in range(above):
            for t in range(Teff):
                anchor_fill[k, t] = _random_unitary(rng, Q)

    Zb = np.zeros((R, Teff, N, Q), dtype=complex)
    sv = np.zeros((R, Teff, Q), dtype=complex)
    r = np.arange(Teff)
    # pilot face k of antenna r, column c = t Q + q of (Z_{r,1} ... Z_{r,T_eff})
    pilot_rows = np.nonzero(chain.P[0])[1].reshape(Teff, Teff * Q)
    c = np.arange(Teff * Q)
    Zb[r[:, None, None], c // Q, pilot_rows[:, :, None], c % Q] = base_fill
    sv[r, r] = s_base
    t, i = np.nonzero(~chain.P[0])  # data face i of antenna t
    Zb[t, t, i] = np.conj(s_base)[t]

    if above:
        k = np.arange(above)[:, None]  # receive row T_eff + k
        g_rows = np.nonzero(chain.G[1:])[2].reshape(above, Teff, Q)  # [k, t, j]: face j of G_t
        Zb[Teff + k[..., None, None], r[:, None, None], g_rows[..., None], np.arange(Q)] = anchor_fill
        k0 = (g_rows == chain.anchors[1:, :, None]).argmax(axis=-1)  # the anchor's place in G_t
        sv[Teff:] = np.conj(anchor_fill[k, r, k0])
        # (receive row, antenna, face) of every dropped face, in L_t
        k, t, i = np.nonzero(chain.L[1:])
        Zb[Teff + k, t, i] = np.conj(sv[Teff + k, t])

    x = np.ones(Teff * N, dtype=complex)
    Zb.setflags(write=False)
    return Zb, sv.reshape(-1), x


def _witness_det(J: np.ndarray) -> int:
    """Exact determinant of a square 0/1 matrix that peels to nothing: 1, -1 or 0.

    A row with one nonzero among the remaining columns, or a column with one
    nonzero among the remaining rows, is a one-term Laplace expansion: it is
    removed with its pivot, repeatedly. Every entry is 1, so a matrix that
    peels whole has as determinant the sign of the permutation sending each
    row to its pivot column, and 0 as soon as a row or column empties. Raises
    InvalidConfigurationError for a non-square matrix, for a nonzero entry
    other than 1, and for a core with no singleton row or column: there is no
    other path to fall back on. O(nnz) on row and column sets.
    """
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise InvalidConfigurationError(f"determinant of a non-square matrix of shape {J.shape}")
    n = len(J)
    at = np.flatnonzero(J != 0)  # from the mask: flatnonzero of a complex array is slower
    if not np.all(J.ravel()[at] == 1):
        raise InvalidConfigurationError("matrix has entries other than 0 and 1; expected an exact witness")
    row_cols = [set() for _ in range(n)]
    col_rows = [set() for _ in range(n)]
    for i, j in zip(*(axis.tolist() for axis in np.divmod(at, n))):
        row_cols[i].add(j)
        col_rows[j].add(i)
    if not (all(row_cols) and all(col_rows)):
        return 0  # a zero row or column
    rows_todo = [i for i in range(n) if len(row_cols[i]) == 1]
    cols_todo = [j for j in range(n) if len(col_rows[j]) == 1]
    perm = [-1] * n  # peeled row -> its pivot column
    while rows_todo or cols_todo:
        if rows_todo:
            i = rows_todo.pop()
            if perm[i] >= 0:
                continue
            (j,) = row_cols[i]
        else:
            j = cols_todo.pop()
            if col_rows[j] is None:
                continue
            (i,) = col_rows[j]
        perm[i] = j
        for c in row_cols[i]:
            if c != j:
                rest = col_rows[c]
                rest.discard(i)
                if not rest:
                    return 0
                if len(rest) == 1:
                    cols_todo.append(c)
        for r in col_rows[j]:
            if r != i:
                rest = row_cols[r]
                rest.discard(j)
                if not rest:
                    return 0
                if len(rest) == 1:
                    rows_todo.append(r)
        col_rows[j] = None
    if -1 in perm:
        raise InvalidConfigurationError(
            f"{perm.count(-1)} rows are left in a core with no singleton row or column; not certified"
        )
    # the sign of the permutation is (-1)^(n - number of cycles)
    parity, seen = n, bytearray(n)
    for start in range(n):
        if not seen[start]:
            parity -= 1
            k = start
            while not seen[k]:
                seen[k] = 1
                k = perm[k]
    return -1 if parity % 2 else 1


def certify_witness_exact(chain: PilotChain, witness) -> int:
    """Exact-arithmetic certificate that the witness determinant of the cell chain.dims is nonzero.

    witness is the exact witness (Z, s, x) of the cell, or of a cell above
    it on its chain (same T_eff, N and Q, R at least chain.dims.R), such as
    the top of the chain that chain is a cut of; the cell is certified on the
    prefix, which is its own witness, so one build serves every cell of a
    chain. The Jacobian has
    0/1 entries and is block triangular, one receive antenna per step, so it
    peels to nothing (see _witness_det). Returns the determinant as an exact
    int, 1, -1 or 0; nonzero certifies nonsingularity with no floating-point
    error. Any other matrix, a seeded float witness among them, raises
    InvalidConfigurationError.
    """
    Z, s, x = witness
    d = chain.dims
    J = assemble_jacobian(Z[: d.R], s[: d.R * d.T_eff * d.Q], x, chain)
    return _witness_det(J)


def witness_report(dims: Dims, seed: int = 0, exact: bool = False, export: bool = False) -> dict:
    """What `fadingdof jacobian-witness` prints: the witness Jacobian's dims and spectral statistics.

    The keys are dims, sigma_min, abs_det, spectral_norm, nonsingular and
    bezout_bound (a decimal string); the three floats and the verdict come
    from one SVD, abs_det as exp of the summed log singular values (0.0 when
    one is zero, inf past float range). exact=True builds the 0/1 witness and
    adds its exact_det ({"re", "im"} decimal strings) and certified_nonzero.
    With export the matrix, coloring and s follow as JSON [re, im] pairs;
    without, sparsity_pattern renders the matrix as one line per row, "#"
    for a nonzero entry and "." for a zero, from one pass over its nonzero
    mask.
    """
    chain = pilot_chain(dims)
    Z, s, x = witness_construct(chain, seed=seed, exact=exact)
    J = assemble_jacobian(Z, s, x, chain)
    sv = np.linalg.svd(J, compute_uv=False)
    with np.errstate(divide="ignore", over="ignore"):
        abs_det = float(np.exp(np.log(sv).sum()))
    report = {
        "dims": dims_to_dict(dims),
        "sigma_min": float(sv[-1]),
        "abs_det": abs_det,
        "spectral_norm": float(sv[0]),
        "nonsingular": bool(sv[-1] > NONSINGULAR_TOL * sv[0]),
        "bezout_bound": str(bezout_bound(chain)),
    }
    if exact:
        det = _witness_det(J)
        report["exact_det"] = {"re": str(det), "im": "0"}
        report["certified_nonzero"] = det != 0
    if export:
        report.update(matrix=complex_to_pairs(J), coloring=coloring_to_dict(Z), s=complex_to_pairs(s))
    else:
        chars = np.where(J != 0, ord("#"), ord(".")).astype(np.uint8)
        lines = np.concatenate([chars, np.full((len(chars), 1), ord("\n"), np.uint8)], axis=1)
        report["sparsity_pattern"] = lines.tobytes().decode("ascii")[:-1]
    return report


@dataclass(frozen=True)
class ProbeStats:
    """Nonsingularity statistics of a genericity probe; the last three are None without trials.

    A trial is nonsingular when every factor of its grouped elimination
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
    chain: PilotChain,
    trials: int,
    seed: int,
    coloring: np.ndarray | None = None,
) -> ProbeStats:
    """Draw (Z, s, x) i.i.d. CN(0,1) repeatedly and record singularity statistics.

    A fixed coloring (e.g. the constant model) can be supplied to probe a
    specific correlation structure with random (s, x) only; it must conform
    to the cell chain.dims, even when trials = 0, which yields empty
    statistics; a negative trials count is refused. Each
    trial draws Z (unless fixed), s and x, in that order, from its own child
    of SeedSequence(seed). The trials' Jacobians are eliminated in stacks of
    JacobianLayout.per_stack, one QR and one SVD call per shape class of
    groups and one SVD call for the Schur blocks per stack.
    """
    dims = chain.dims
    if trials < 0:
        raise InvalidConfigurationError(f"trials must be non-negative, got {trials}")
    if coloring is not None:
        require_coloring(coloring, dims)
    if trials == 0:
        return ProbeStats(0, 0, None, None, None)
    layout = JacobianLayout(chain)
    shape = (dims.R, dims.T_eff, dims.N, dims.Q)
    sizes = (dims.R * dims.T_eff * dims.Q, dims.T_eff * dims.N)
    if coloring is None:
        sizes = (math.prod(shape), *sizes)
    children = np.random.SeedSequence(seed).spawn(trials)
    n_nonsingular = 0
    min_log_det = math.inf
    min_ratio = math.inf
    for start in range(0, trials, layout.per_stack):
        chunk = children[start : start + layout.per_stack]
        draws = [complex_gaussian_draws(np.random.default_rng(child), 1, *sizes) for child in chunk]
        *drawn, S, X = (np.concatenate(column) for column in zip(*draws))  # drawn is [] for a fixed coloring
        Z = drawn[0].reshape(len(chunk), *shape) if drawn else coloring
        log_abs_det, ratio = layout.eliminate(Z, S, X)
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
