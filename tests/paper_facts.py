"""Helpers for the paper facts that the tests check and no library call computes.

Each is a few lines of numpy on top of the channel model: the 1-D log-moment
calibration, the rank gap between constant and generic coloring, the
per-antenna scaling ambiguity, distinct-solution counting, the virtual-SIMO
noise split of the upper bound and the determinant-preserving block reduction.
The dense block-diagonal B is the oracle of the library's forward map, and
the per-draw Jacobian assembly the oracle that its stacked assembly must match
bit for bit; it assembles non-square cases too. probe_draws replays the draws
of a genericity probe one at a time, for full-SVD oracles of its verdicts.
The brute-force maximum of the lower bound and the constant model's peak are
the Fraction oracles of the library's N-scaled closed forms; the scalar
N-scaled brute force is the oracle of the library's grid of it. The
per-(r, t) witness fill loop is the oracle that the library's vectorised
witness must match bit for bit, in both modes; it reads its sets from the
tuple construction of the pilot assignments, a deal into a card-index table
of (face, flat position, card number) and one threshold pass per antenna over
it, which is the oracle of every view the library derives from its
card-number masks. The pilot-property oracle checks each cell of a chain by
set arithmetic on its 1-based view, against the flat pilots of that deal. The
multi-modular determinant (int64 elimination modulo word-size primes, joined
by the Chinese remainder theorem) is the fast exact oracle beside the tests'
Bareiss elimination.
"""

import math
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fadingdof.dof import _chi_low_scaled, chi_const, chi_low, ell
from fadingdof.jacobian import NONSINGULAR_TOL
from fadingdof.model import (
    Dims,
    InvalidConfigurationError,
    constant_model,
    random_coloring,
    regime_chains,
    require_coloring,
    split_fading,
    split_tx,
    standard_complex_gaussian,
)
from fadingdof.pilots import assignment_to_dict, card_deal, pilot_count


def chi_low_star_brute(T: int, R: int, N: int, Q: int) -> Fraction:
    """Oracle: chi_low maximized by enumeration over integer T_eff in [0 : min(T, R)].

    T_eff = 0 contributes 0 (an inactive transmitter yields a trivial bound);
    without it the maximum can be negative while the closed form floors at 0.
    """
    return max(chi_low(t, R, N, Q) for t in range(min(T, R) + 1))


def chi_low_star_brute_scaled(T: int, R: int, N: int, Q: int) -> int:
    """Oracle: N chi_low_star as the maximum of N chi_low over integer T_eff in [0 : min(T, R)]."""
    return max(_chi_low_scaled(t, R, N, Q) for t in range(min(T, R) + 1))


def chi_const_max(N: int) -> Fraction:
    """Oracle: maximal constant-model DoF over antenna counts, attained at T = R = floor(N/2)."""
    return chi_const(N // 2, N // 2, N)


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
    row_power = np.sum(np.abs(Z) ** 2, axis=(1, 3))  # (R, N)
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
    require_coloring(Z, dims)
    xt = split_tx(np.asarray(x, dtype=complex), dims)
    R, Teff, N, Q = dims.R, dims.T_eff, dims.N, dims.Q
    B = np.zeros((R * N, R * Teff * Q), dtype=complex)
    for r in range(R):
        # block[t] = diag(x_t) Z_{r,t}
        block = xt[:, :, None] * Z[r]
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
            a = Z[r, t] @ sv[r, t]
            idx = np.arange(N)
            A[r * N + idx, t * N + idx] = a
    return A


def assemble_jacobian_loop(Z, s, x, chain):
    """Oracle: the Jacobian of chain.dims from the full B and diagonal grid, data columns picked, useful rows cut.

    The useful rows are the first chain.n_useful; the matrix may be non-square.
    """
    dims = chain.dims
    B = build_B(Z, x, dims)
    A = diagonal_grid_loop(Z, s, dims)
    return np.hstack([B, A[:, chain.data_index]])[: chain.n_useful, :]


def probe_draws(dims, trials, seed, coloring=None):
    """The (Z, s, x) of each trial of genericity_probe(chain, trials, seed, coloring), one at a time.

    dims is chain.dims; the draws depend on nothing else of the chain.
    """
    for child in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(child)
        Z = standard_complex_gaussian(rng, (dims.R, dims.T_eff, dims.N, dims.Q)) if coloring is None else coloring
        s = standard_complex_gaussian(rng, dims.R * dims.T_eff * dims.Q)
        x = standard_complex_gaussian(rng, dims.T_eff * dims.N)
        yield Z, s, x


def full_svd_verdict(M) -> bool:
    """Oracle verdict on one Jacobian: sigma_min(M) > NONSINGULAR_TOL ||M||_2, from a full SVD."""
    sv = np.linalg.svd(M, compute_uv=False)
    return bool(sv[-1] > NONSINGULAR_TOL * sv[0])


def witness_construct_loop(dims, seed: int = 0, exact: bool = False):
    """Oracle: the witness (Z, s, x) filled block by block, one (r, t) at a time.

    The sets come from the tuple construction (tuple_chain). The random fills
    are drawn in the same order as the library's: per base row a unitary
    T_eff Q fill then s_{r,r}, then per further row and antenna a unitary
    Q x Q fill.
    """
    from fadingdof.jacobian import _random_unitary

    Teff, R, N, Q = dims.T_eff, dims.R, dims.N, dims.Q
    rng = None if exact else np.random.default_rng(seed)
    Zb = np.zeros((R, Teff, N, Q), dtype=complex)
    sv = np.zeros((R, Teff, Q), dtype=complex)
    chain = tuple_chain(dims)
    base = chain[0]
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
        pa = chain[rr - Teff]
        for t in range(Teff):
            g_rows = np.asarray(pa.G_sets[t], dtype=int) - 1
            fill = np.eye(Q, dtype=complex) if exact else _random_unitary(rng, Q)
            Zb[rr - 1, t][g_rows, :] = fill
            srt = np.conj(fill[pa.G_sets[t].index(pa.anchors[t])])
            sv[rr - 1, t] = srt
            Zb[rr - 1, t][np.asarray(pa.L_sets[t], dtype=int) - 1, :] = np.conj(srt)[None, :]
    return Zb, sv.reshape(-1), np.ones(Teff * N, dtype=complex)


@dataclass(frozen=True)
class TupleAssignment:
    """The tuple construction's assignment: every set 1-based, in ascending order.

    pilot_sets[t-1] is P_t and data_sets the complements; pilots/data are
    their flat embeddings i + (t-1)N. L_sets, G_sets, G_pool and anchors are
    None at R = T_eff.
    """

    dims: Dims
    theta_R: int
    pilot_sets: tuple
    data_sets: tuple
    pilots: tuple
    data: tuple
    ell: int
    L_sets: tuple | None = None
    G_sets: tuple | None = None
    G_pool: tuple | None = None
    anchors: tuple | None = None


def witness_anchors(cards, T_eff: int, N: int, theta: int) -> tuple[int, ...]:
    """One pilot face per player taken from the tail of the deal ``cards``, in player order.

    The window is [theta - T_eff + 1 : theta] unless a multiple n*cycle of the
    deal cycle falls strictly inside it, in which case the second half is
    shifted back one cycle; either way each player appears exactly once.
    """
    cycle = math.lcm(T_eff, N)
    lo = theta - T_eff + 1
    n = (theta - 1) // cycle
    if n >= 1 and n * cycle >= lo:
        window = [*range(lo, n * cycle + 1), *range((n - 1) * cycle + 1, theta - cycle + 1)]
    else:
        window = range(lo, theta + 1)
    anchors = [0] * T_eff
    for j in window:
        t, i = cards[j - 1]
        if anchors[t - 1]:
            raise AssertionError(f"anchor window dealt player {t} twice (theta={theta})")
        anchors[t - 1] = i
    if 0 in anchors:
        raise AssertionError(f"anchor window missed a player (theta={theta})")
    return tuple(anchors)


def deal(n_cards: int, T_eff: int, N: int):
    """Cards 1..n_cards of the deal to T_eff players: (cards, table).

    cards lists the (player, face) pairs in card order. table is the card-index
    table: table[t-1][i-1] is (i, i + (t-1)N, j), face i of player t, its flat
    embedding and the number j of the card that dealt it, or n_cards + 1 if no
    card did, which is above every theta the deal serves.
    """
    cards = [card_deal(j, T_eff, N) for j in range(1, n_cards + 1)]
    numbers = [[n_cards + 1] * N for _ in range(T_eff)]
    for j, (t, i) in enumerate(cards, start=1):
        numbers[t - 1][i - 1] = j
    offsets = range(0, T_eff * N, N)
    return cards, [[(i, i + off, j) for i, j in enumerate(row, 1)] for off, row in zip(offsets, numbers)]


def tuple_assignment(dims: Dims, deal) -> TupleAssignment:
    """The assignment for dims (in the regime) from a deal of at least theta_{R-1} cards.

    One threshold pass per player over its row of the card-index table splits
    the faces in ascending order: card <= theta_R makes a pilot (P_t), any other
    a data face, and theta_R < card <= theta_{R-1} a face dropped from P_t going
    from R-1 to R receive antennas (L_t, when R > T_eff); the flat embeddings
    are read in the same pass. The anchors g_t come from the tail window of
    the deal, and each G_t is the anchor plus Q-1 filler faces taken in
    ascending order from the remaining pool.
    """
    cards, table = deal
    T_eff, R, N, Q = dims.T_eff, dims.R, dims.N, dims.Q
    theta = pilot_count(T_eff, R, N, Q)
    theta_prev = pilot_count(T_eff, R - 1, N, Q) if R > T_eff else theta
    # Tuples are built from lists: tuple() of a generator grows by reallocs, and
    # in a process that builds many assignments that fragments the heap for good.
    pilot_sets, data_sets, L_sets, pilots, data = [], [], [], [], []
    for row in table:
        p, d, lost = [], [], []
        for i, flat, j in row:
            if j <= theta:
                p.append(i)
                pilots.append(flat)
            else:
                d.append(i)
                data.append(flat)
                if j <= theta_prev:
                    lost.append(i)
        pilot_sets.append(tuple(p))
        data_sets.append(tuple(d))
        L_sets.append(tuple(lost))
    l = ell(T_eff, R, N, Q)

    G_sets = G_pool = anchors = None
    if R > T_eff:
        dropped = set().union(*L_sets)
        G_pool = tuple([g for g in range(1, N - l + 1) if g not in dropped])
        anchors = witness_anchors(cards, T_eff, N, theta)
        taken = set(anchors)
        filler = [g for g in G_pool if g not in taken] if Q > 1 else []  # Q = 1 takes none
        groups, k = [], Q - 1
        for t, g in enumerate(anchors):
            faces = filler[t * k : t * k + k]
            insort(faces, g)
            groups.append(tuple(faces))
        G_sets = tuple(groups)

    return TupleAssignment(
        dims=dims,
        theta_R=theta,
        pilot_sets=tuple(pilot_sets),
        data_sets=tuple(data_sets),
        pilots=tuple(pilots),
        data=tuple(data),
        ell=l,
        L_sets=tuple(L_sets) if R > T_eff else None,
        G_sets=G_sets,
        G_pool=G_pool,
        anchors=anchors,
    )


def regime_cells(n_max: int):
    """All (T_eff, R, N, Q) in the constructive regime with N <= n_max, T = T_eff: the cells of every regime chain.

    Cells come in the order N, Q, T_eff, R, each ascending.
    """
    for top in regime_chains(n_max):
        for R in range(top.T_eff, top.R + 1):
            yield top.with_rx(R)


def cuts(chain) -> list:
    """The cells R' = T_eff..R of a PilotChain, each as its cut chain.cut(R'), in order."""
    return [chain.cut(R) for R in range(chain.dims.T_eff, chain.dims.R + 1)]


def tuple_chain(dims: Dims) -> list:
    """Oracle: the tuple assignments for R' = T_eff..R, from one deal of the T_eff^2 Q cards."""
    dims.require_regime()
    T_eff, N = dims.T_eff, dims.N
    cards = deal(pilot_count(T_eff, T_eff, N, dims.Q), T_eff, N)
    return [tuple_assignment(dims.with_rx(r), cards) for r in range(T_eff, dims.R + 1)]


def _last_clash(sets):
    """The last face found in two sets, with the 1-based indices of both, or None."""
    seen: dict[int, int] = {}
    clash = None
    for t, faces in enumerate(sets, start=1):
        for i in faces:
            if i in seen:
                clash = {"face": i, "antennas": (seen[i], t)}
            seen[i] = t
    return clash


# The failure payload of each pilot property, from one cell's 1-based view, built only when it fails
_COUNTEREXAMPLES = {
    "pilot_total": lambda a: {"total": sum(map(len, a["pilot_sets"])), "theta_R": a["theta_R"]},
    "pilot_size_cap": lambda a: {
        "oversized": [(t, len(p)) for t, p in enumerate(a["pilot_sets"], 1) if len(p) > a["cap"]],
        "cap": a["cap"],
    },
    "flat_embedding": lambda a: {"pilots": a["pilots"], "expected": a["expected"]},
    "useful_output_size": lambda a: {"useful": a["useful_outputs"][1], "expected": a["expected_useful"]},
    "L_disjoint": lambda a: _last_clash(a["L_sets"]),
    "L_in_range": lambda a: {
        "outside": [(t, i) for t, ls in enumerate(a["L_sets"], 1) for i in ls if not 1 <= i <= a["top"]],
        "range": (1, a["top"]),
    },
    "G_size": lambda a: {
        "bad": [(t, len(g)) for t, g in enumerate(a["G_sets"], 1) if len(g) != a["dims"]["Q"]],
        "expected": a["dims"]["Q"],
    },
    "G_disjoint": lambda a: _last_clash(a["G_sets"]),
    "G_meets_pilots": lambda a: {
        "antennas": [t for t, (g, p) in enumerate(zip(a["G_sets"], a["pilot_sets"]), 1) if set(g).isdisjoint(p)]
    },
    "G_covers": lambda a: {
        "union": sorted(set().union(*a["G_sets"])),
        "expected": sorted(set(range(1, a["top"] + 1)).difference(*a["L_sets"])),
    },
}


def pilot_property_oracle(chains) -> list:
    """Oracle of verify_pilot_properties: the same failures, by set arithmetic on each cell's 1-based view.

    Each cell is read as assignment_to_dict prints it and checked property by
    property; a family of sets is disjoint when its sizes sum to the size of
    its union. The expected flat pilots are the embeddings i + (t-1)N of the
    first theta_R cards of the tuple construction's deal.
    """
    failures = []
    for chain in chains:
        T_eff, N, Q = chain.dims.T_eff, chain.dims.N, chain.dims.Q
        cards, _ = deal(T_eff * N, T_eff, N)
        for cell in cuts(chain):
            a = assignment_to_dict(cell)
            a["expected"] = sorted([i + (t - 1) * N for t, i in cards[: a["theta_R"]]])
            a["expected_useful"] = cell.dims.R * T_eff * Q + len(a["data"])
            a["cap"], a["top"] = T_eff * Q, N - a["ell"]
            sizes = list(map(len, a["pilot_sets"]))
            verdicts = {
                "pilot_total": sum(sizes) == a["theta_R"],
                "pilot_size_cap": max(sizes, default=0) <= a["cap"],
                "flat_embedding": a["pilots"] == a["expected"],
                "useful_output_size": a["useful_outputs"][1] == a["expected_useful"],
            }
            if cell.dims.R > T_eff:
                dropped, union = set().union(*a["L_sets"]), set().union(*a["G_sets"])
                verdicts["L_disjoint"] = sum(map(len, a["L_sets"])) == len(dropped)
                verdicts["L_in_range"] = not dropped or 1 <= min(dropped) and max(dropped) <= a["top"]
                verdicts["G_size"] = set(map(len, a["G_sets"])) <= {Q}
                verdicts["G_disjoint"] = sum(map(len, a["G_sets"])) == len(union)
                verdicts["G_meets_pilots"] = not any(map(set.isdisjoint, map(set, a["G_sets"]), a["pilot_sets"]))
                verdicts["G_covers"] = union == set(range(1, a["top"] + 1)) - dropped
            if not all(verdicts.values()):
                report = {
                    name: {"ok": True, "detail": None} if ok else {"ok": False, "detail": _COUNTEREXAMPLES[name](a)}
                    for name, ok in verdicts.items()
                }
                failures.append((cell.dims, report))
    return failures


# Word-size primes below 2^31, largest first. Residues stay below 2^31, so
# every product of two stays below 2^62 and int64 elimination cannot
# overflow. multimodular_det takes as many as the Hadamard bound of its matrix
# needs; all 32 together cover |det| up to about 2^990.
DET_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543, 2147483497,
    2147483489, 2147483477, 2147483423, 2147483399, 2147483353, 2147483323, 2147483269, 2147483249,
    2147483237, 2147483179, 2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
    2147483053, 2147483033, 2147483029, 2147482951, 2147482949, 2147482943, 2147482937, 2147482921,
)


def det_mod_primes(A: np.ndarray, primes) -> np.ndarray:
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


def multimodular_det(A: np.ndarray) -> int:
    """Oracle: det A of a square int64 array, residues mod the primes its Hadamard bound needs, joined by CRT.

    The Hadamard bound H = prod of the row norms fixes how many primes of
    DET_PRIMES are needed, (prod p)^2 > 4 H^2 checked in integer arithmetic;
    det is rebuilt as the residue of least magnitude, exact since |det| <= H <
    (prod p) / 2. A matrix whose bound needs more primes than the table holds
    raises instead of guessing.
    """
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
    for r, q in zip(det_mod_primes(A, DET_PRIMES[:count]).tolist(), DET_PRIMES):
        det += P * ((r - det) * pow(P, -1, q) % q)
        P *= q
    return det - P if 2 * det > P else det
