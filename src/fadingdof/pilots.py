"""Pilot-placement combinatorics.

A total of theta_R = max{T_eff, R T_eff Q - (R - T_eff) N} input positions are
pinned as pilots, spread over the T_eff active antennas by a card-dealing
bijection: card j (1-based) shows face j mod* N and goes to player
(j + floor((j-1)/lcm(T_eff, N))) mod* T_eff, where a mod* b is the residue in
[1:b]. The offset term skips one player each time a full deal cycle would
repeat, which keeps the faces dealt to any one player distinct.

A pilot chain, the cells R' = T_eff..R of one (N, Q, T_eff), is one
card-number array: cards[t, i] is the number of the card that deals face i to
antenna t. theta_R' falls as R' grows, so every cell deals a prefix of the
same cards and is a set of boolean masks over the array: P (card <=
theta_R'), L (theta_R' < card <= theta_{R'-1}) and G (the anchor plus Q - 1
pool fillers). pilot_chains deals any list of chains in one pass over grids
padded to their largest T_eff and N, and each chain is a set of read-only
views into it; pilot_chain is the batch of one. A cell is the chain whose top
it is: every caller takes a chain and reads its top row, and chain.cut(R) is
the cell R' = R below the top, on views of the first rows. Code that indexes
arrays reads 0-based positions off the masks; 1-based sets exist only in
output: the pilots table, its JSON form and the checker's failure payloads.
verify_pilot_properties checks every cell of any number of chains in one
array pass over their masks, copied into one padded grid. Everything is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .model import Dims, InvalidConfigurationError, dims_to_dict
from .dof import ell

__all__ = [
    "mod_star",
    "card_deal",
    "pilot_count",
    "PilotChain",
    "PROPERTIES",
    "pilot_chain",
    "pilot_chains",
    "verify_pilot_properties",
    "assignment_to_dict",
    "assignment_table",
]


def mod_star(a: int, b: int) -> int:
    """Residue of a modulo b in [1:b]: a - b*floor((a-1)/b). Multiples of b map to b."""
    if a < 1 or b < 1:
        raise InvalidConfigurationError(f"mod_star needs positive arguments, got ({a}, {b})")
    return a - b * ((a - 1) // b)


def card_deal(j, T_eff, N):
    """Deal card j: returns (player t in [1:T_eff], face i in [1:N]).

    Bijective from [1:T_eff*N] onto [1:T_eff] x [1:N]. j, T_eff and N may
    also be int arrays that broadcast together: each card is dealt in the deal
    of its own T_eff and N, into two arrays of the broadcast shape.
    """
    if any(isinstance(a, np.ndarray) for a in (j, T_eff, N)):
        if ((j < 1) | (j > T_eff * N)).any():
            raise InvalidConfigurationError("card indices outside [1 : T_eff N] of their deal")
        cycle = np.lcm(T_eff, N)
    elif 1 <= j <= T_eff * N:
        cycle = math.lcm(T_eff, N)
    else:
        raise InvalidConfigurationError(f"card index {j} outside [1:{T_eff * N}]")
    player, face = _deal(j - 1, cycle, T_eff, N)
    return player + 1, face + 1


def _deal(c, cycle, T_eff, N):
    """The 0-based (player, face) of the 0-based card c, in a deal of cycle lcm(T_eff, N)."""
    return (c + c // cycle) % T_eff, c % N  # a mod* b = (a - 1) % b + 1 for a >= 1


def pilot_count(T_eff: int, R: int, N: int, Q: int) -> int:
    """Total number of pilot symbols: max{T_eff, R T_eff Q - (R - T_eff) N}."""
    return max(T_eff, R * T_eff * Q - (R - T_eff) * N)


@dataclass(frozen=True, eq=False)
class PilotChain:
    """The cells R' = T_eff..R of one (N, Q, T_eff): one card-number array and the masks derived from it.

    dims is the top cell; cards[t, i] in [1 : T_eff N] deals face i to
    antenna t, and the cards past theta_{T_eff} = T_eff^2 Q are pilots of no
    cell. Row k of the stacked theta and ell (K,), masks P, L and G (K,
    T_eff, N) and anchors (K, T_eff) belongs to R' = T_eff + k; row 0 has no
    partition (L and G empty, anchors -1). A cell is the chain whose top it
    is: the last row holds its pilot/data split, P[-1][t, i] saying whether
    face i of antenna t (0-based) is a pilot, and where R > T_eff its
    induction partition, L[-1] the faces dropped from P_t going from R - 1 to
    R receive antennas (L_t), G[-1] the disjoint Q-face anchor blocks (G_t)
    and anchors[-1][t] the face g_t of G_t in P_t. cut(R) is the cell R' = R
    below the top. All arrays are read-only, a dealt chain's are views into
    the padded grids of the pilot_chains call, and chains with equal fields
    compare equal.
    """

    dims: Dims
    cards: np.ndarray
    theta: np.ndarray
    ell: np.ndarray
    P: np.ndarray
    L: np.ndarray
    G: np.ndarray
    anchors: np.ndarray

    def __len__(self) -> int:
        return len(self.theta)

    def __eq__(self, other):
        if not isinstance(other, PilotChain):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @property
    def data_index(self) -> np.ndarray:
        """The flat positions t N + i of the top cell's data faces, ascending."""
        return np.flatnonzero(~self.P[-1])

    @property
    def n_useful(self) -> int:
        """The top cell's useful outputs, the first R N - ell."""
        return self.dims.R * self.dims.N - int(self.ell[-1])

    def cut(self, R: int) -> "PilotChain":
        """The chain of the cell R' = R, T_eff <= R <= dims.R: views of the first R - T_eff + 1 rows, no copy.

        The cut equals pilot_chain(dims.with_rx(R)) field by field; at the top it is the chain itself.
        """
        T_eff = self.dims.T_eff
        if not T_eff <= R <= self.dims.R:
            raise InvalidConfigurationError(f"R={R} outside the chain R' = {T_eff}..{self.dims.R}")
        if R == self.dims.R:
            return self
        k = R - T_eff + 1
        rows = (self.theta, self.ell, self.P, self.L, self.G, self.anchors)
        return PilotChain(self.dims.with_rx(R), self.cards, *(a[:k] for a in rows))


def pilot_chains(tops) -> list[PilotChain]:
    """The chains R' = T_eff..R of the cells tops, in their order, dealt together in one padded pass.

    The card numbers of each chain's deal of all its T_eff N cards fill its
    rows of one (chains, max T_eff, max N) grid, padded with a number past
    every threshold. Each mask is a comparison of the card numbers with the
    cells' thresholds over one (cells, max T_eff, max N) grid: P (card <=
    theta_R') and L (theta_R' < card <= theta_{R'-1}). The anchors are the last
    T_eff cards up to theta_R', the part of that window past a multiple of the
    deal cycle lcm(T_eff, N) taken one cycle earlier, one per antenna; G_t is
    g_t plus Q - 1 fillers taken in ascending order from the pool, the faces
    below N - ell less the dropped faces and the anchors. Each chain's fields
    are read-only views of its rows, cut to its own T_eff and N.
    """
    tops = list(tops)
    if not tops:
        return []
    t_max, n_max = max(top.T_eff for top in tops), max(top.N for top in tops)
    size = t_max * n_max
    # per chain: T_eff, N, T_eff N, the cycle and its place in the flat card grid; per cell: theta_R',
    # theta_{R'-1}, ell_R', the end of the filler pool and the fillers per antenna (no drop at R' = T_eff, no
    # pool there or at Q = 1); per cell past its chain's first: its place in the flat anchors and its anchor
    # window, the cards base + (r + u) % cycle for u < T_eff in the flat card grid
    deals, cells, window, sizes, pooled = [], [[], [], [], [], []], [], [], False
    theta, prev, ells, pool_end, fillers = cells
    for c, top in enumerate(tops):
        top.require_regime()
        T_eff, N, Q = top.T_eff, top.N, top.Q
        R = range(T_eff, top.R + 1)
        th, ls, cycle = [pilot_count(T_eff, r, N, Q) for r in R], [ell(T_eff, r, N, Q) for r in R], math.lcm(T_eff, N)
        deals.append((T_eff, N, T_eff * N, cycle, c * size))
        for k, t in enumerate(th[1:], len(theta) + 1):
            window.append((k * t_max, c * size + (t - T_eff) // cycle * cycle, (t - T_eff) % cycle, cycle, T_eff - 1))
        theta += th
        prev += th[:1] + th[:-1]
        ells += ls
        pool_end += [0] + [(N - l) * (Q > 1) for l in ls[1:]]
        fillers += [Q - 1 or 1] * len(R)
        sizes.append(len(R))
        pooled |= Q > 1 and len(R) > 1
    # the deal's integers take the narrowest type with room for twice its places: every cell copies its cards
    dtype = np.min_scalar_type(-2 * len(tops) * size)
    T, N, deck, cycle, offset = np.array(deals, dtype=dtype).T[:, :, None]
    card = np.arange(size, dtype=dtype) % deck  # chain c deals its cards, and those past its T_eff N once more
    players, faces = _deal(card, cycle, T, N)
    card += 1
    cards = np.empty(len(tops) * size, dtype=dtype)
    cards.fill(size + 1)
    cards[players * n_max + faces + offset] = card
    cards = cards.reshape(len(tops), t_max, n_max)
    anchors = np.empty((len(theta), t_max), dtype=dtype)
    anchors.fill(-1)
    if window:  # the antennas past a cell's T_eff repeat its last card
        at, base, r, cycle, last = np.array(window).T[:, :, None]
        dealt = (r + np.minimum(np.arange(t_max), last)) % cycle + base
        anchors.reshape(-1)[at + players.take(dealt)] = faces.take(dealt)
    cells = np.array(cells)
    masks = np.empty((3, *anchors.shape, n_max), dtype=bool)  # P, L and G
    np.less_equal(cards.repeat(sizes, axis=0), cells[:2, :, None, None], out=masks[:2])
    masks[1] ^= masks[0]
    G, face = masks[2], np.arange(n_max)
    np.equal(anchors[:, :, None], face, out=G)
    if pooled:
        pool = (face < cells[3, :, None]) > np.logical_or.reduce(masks[1] | G, axis=1)
        owner = (np.add.accumulate(pool, axis=1, dtype=dtype) - 1) // cells[4, :, None]  # each filler's antenna by rank
        G |= pool[:, None] & (owner[:, None] == np.arange(t_max)[:, None])
    for a in (cards, anchors, cells, masks):
        a.flags.writeable = False
    chains, k = [], 0
    for c, (top, K) in enumerate(zip(tops, sizes)):
        t, n, cell = top.T_eff, top.N, slice(k, k + K)
        chains.append(PilotChain(top, cards[c, :t, :n], cells[0, cell], cells[2, cell], masks[0, cell, :t, :n],
                                 masks[1, cell, :t, :n], masks[2, cell, :t, :n], anchors[cell, :t]))
        k += K
    return chains


def pilot_chain(dims: Dims) -> PilotChain:
    """The chain R' = T_eff..R of dims in the valid regime, pilot_chains([dims])[0]: the cell dims."""
    return pilot_chains([dims])[0]


# the last six concern the induction partition, so they are checked only where R > T_eff
PROPERTIES = ("pilot_total", "pilot_size_cap", "flat_embedding", "useful_output_size",
              "L_disjoint", "L_in_range", "G_size", "G_disjoint", "G_meets_pilots", "G_covers")


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


# The failure payload of each property, from one cell's 1-based sets, built only when it fails
_COUNTEREXAMPLES = {
    "pilot_total": lambda a: {"total": sum(map(len, a.P)), "theta_R": a.theta_R},
    "pilot_size_cap": lambda a: {
        "oversized": [(t, len(p)) for t, p in enumerate(a.P, 1) if len(p) > a.T_eff * a.Q],
        "cap": a.T_eff * a.Q,
    },
    "flat_embedding": lambda a: {"pilots": a.pilots, "expected": a.expected},
    "useful_output_size": lambda a: {"useful": a.R * a.N - a.ell, "expected": a.R * a.T_eff * a.Q + a.n_data},
    "L_disjoint": lambda a: _last_clash(a.L),
    "L_in_range": lambda a: {
        "outside": [(t, i) for t, ls in enumerate(a.L, 1) for i in ls if not 1 <= i <= a.N - a.ell],
        "range": (1, a.N - a.ell),
    },
    "G_size": lambda a: {"bad": [(t, len(g)) for t, g in enumerate(a.G, 1) if len(g) != a.Q], "expected": a.Q},
    "G_disjoint": lambda a: _last_clash(a.G),
    "G_meets_pilots": lambda a: {"antennas": [t for t, (g, p) in enumerate(zip(a.G, a.P), 1) if set(g).isdisjoint(p)]},
    "G_covers": lambda a: {
        "union": sorted(set().union(*a.G)),
        "expected": sorted(set(range(1, a.N - a.ell + 1)).difference(*a.L)),
    },
}


def verify_pilot_properties(chains) -> list:
    """Check the PROPERTIES on every cell of the chains in one array pass: the (dims, report) of each failing cell.

    The failures come in cell order, [] when all hold. report maps each
    property checked on the cell (the last six only where R > T_eff) to
    {"ok": bool, "detail": payload}, the detail a 1-based counterexample
    built only on failure. Each cell's P, L and G, and the pilots its deal
    gives (cards up to theta_R'), are copied into one boolean grid of shape
    (cells, max T_eff, max N), padded with False, and each verdict is a
    reduction over it: set sizes are sums over the face axis, and a family
    of sets is disjoint when no column sum over the antenna axis exceeds 1.
    """
    chains = list(chains)
    sizes = [len(chain) for chain in chains]
    tops = np.array([(c.dims.T_eff, c.dims.N, c.dims.Q) for c in chains], dtype=int).reshape(-1, 3)
    T_eff, N, Q = np.repeat(tops, sizes, axis=0).T
    k, t_max, n_max = len(T_eff), tops[:, 0].max(initial=1), tops[:, 1].max(initial=1)
    grid = np.zeros((4, k, t_max, n_max), dtype=bool)
    P, L, G, dealt = grid
    start = 0
    for chain, size in zip(chains, sizes):
        cells = np.s_[start : start + size, : chain.dims.T_eff, : chain.dims.N]
        P[cells], L[cells], G[cells] = chain.P, chain.L, chain.G
        dealt[cells] = chain.cards <= chain.theta[:, None, None]
        start += size
    R = T_eff + np.arange(k) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    theta, ells = (np.concatenate([np.zeros(0, int), *(getattr(c, f) for c in chains)]) for f in ("theta", "ell"))

    small = np.min_scalar_type(max(t_max, n_max))  # holds any per-face or per-antenna count
    counts = P.sum(axis=2, dtype=small)  # |P_t| per (cell, antenna)
    n_data = T_eff * N - counts.sum(axis=1, dtype=int)
    absent = np.arange(t_max) >= T_eff[:, None]  # antennas past a cell's T_eff
    top = (N - ells)[:, None]
    dropped, union = L.sum(axis=1, dtype=small), G.sum(axis=1, dtype=small)  # how many antennas hold each face
    face = np.arange(n_max)
    verdicts = {
        "pilot_total": counts.sum(axis=1, dtype=int) == theta,
        "pilot_size_cap": counts.max(axis=1) <= T_eff * Q,
        "flat_embedding": ~(P ^ dealt).any(axis=(1, 2)),
        "useful_output_size": R * N - ells == R * T_eff * Q + n_data,
        "L_disjoint": dropped.max(axis=1) <= 1,
        "L_in_range": ~((dropped > 0) & (face >= top)).any(axis=1),
        "G_size": ((G.sum(axis=2, dtype=small) == Q[:, None]) | absent).all(axis=1),
        "G_disjoint": union.max(axis=1) <= 1,
        "G_meets_pilots": ((G & P).any(axis=2) | absent).all(axis=1),
        "G_covers": ((union > 0) == ((face < top) & (dropped == 0))).all(axis=1),
    }
    ok = np.logical_and.reduce([verdicts[name] for name in PROPERTIES[:4]])
    ok &= np.logical_and.reduce([verdicts[name] for name in PROPERTIES[4:]]) | (R <= T_eff)
    owner = np.repeat(np.arange(len(chains)), sizes)
    failures = []
    for c in np.flatnonzero(~ok).tolist():
        r, n, t = R[c].item(), N[c].item(), T_eff[c].item()
        P_c, L_c, G_c, dealt_c = grid[:, c, :t, :n]
        a = SimpleNamespace(
            R=r, N=n, Q=Q[c].item(), T_eff=t, theta_R=theta[c].item(), ell=ells[c].item(), n_data=n_data[c].item(),
            P=_faces(P_c), L=_faces(L_c), G=_faces(G_c),
            pilots=(np.flatnonzero(P_c) + 1).tolist(), expected=(np.flatnonzero(dealt_c) + 1).tolist(),
        )
        report = {
            name: {"ok": True, "detail": None} if verdicts[name][c] else {"ok": False, "detail": _COUNTEREXAMPLES[name](a)}
            for name in PROPERTIES[: 10 if r > t else 4]
        }
        failures.append((chains[owner[c]].dims.with_rx(r), report))
    return failures


def _faces(masks) -> list:
    """The 1-based faces of each row of masks, ascending."""
    return [(np.flatnonzero(row) + 1).tolist() for row in masks]


def assignment_to_dict(chain: PilotChain) -> dict:
    """JSON form of the chain's top cell with sorted index arrays (all 1-based)."""
    P, ell_R = chain.P[-1], int(chain.ell[-1])
    out = {
        "dims": dims_to_dict(chain.dims),
        "theta_R": int(chain.theta[-1]),
        "pilot_sets": _faces(P),
        "data_sets": _faces(~P),
        "pilots": (np.flatnonzero(P) + 1).tolist(),
        "data": (chain.data_index + 1).tolist(),
        "ell": ell_R,
        "useful_outputs": [1, chain.n_useful],
    }
    if len(chain) > 1:
        L = chain.L[-1]
        out["L_sets"] = _faces(L)
        out["G_sets"] = _faces(chain.G[-1])
        (out["G_pool"],) = _faces([~L.any(axis=0)[: chain.dims.N - ell_R]])
        out["anchors"] = (chain.anchors[-1] + 1).tolist()
    return out


def assignment_table(chain: PilotChain) -> str:
    """Text form of the chain's top cell, read off its JSON form: the dealing table, each P_t and the flat pilots."""
    dims, a = chain.dims, assignment_to_dict(chain)
    lines = [
        f"dealing {a['theta_R']} pilot positions to {dims.T_eff} antennas "
        f"(block length {dims.N}):"
    ]
    for j in range(1, a["theta_R"] + 1):
        t, i = card_deal(j, dims.T_eff, dims.N)
        lines.append(f"  card {j:>3}: face {i:>3} -> antenna {t}")
    for t, p in enumerate(a["pilot_sets"], start=1):
        lines.append(f"  P_{t} = {set(p)}")
    lines.append(f"  flat pilot set = {set(a['pilots'])}  (ell = {a['ell']})")
    return "\n".join(lines) + "\n"
