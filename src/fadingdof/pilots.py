"""Pilot-placement combinatorics.

A total of theta_R = max{T_eff, R T_eff Q - (R - T_eff) N} input positions are
pinned as pilots, spread over the T_eff active antennas by a card-dealing
bijection: card j (1-based) shows face j mod* N and goes to player
(j + floor((j-1)/lcm(T_eff, N))) mod* T_eff, where a mod* b is the residue in
[1:b]. The offset term skips one player each time a full deal cycle would
repeat, which keeps the faces dealt to any one player distinct. The cards are
dealt once into a card-index table (per player, face -> card number or none),
and each assignment is one threshold pass per player over it: card <= theta_R
is a pilot face, any other a data face, theta_R < card <= theta_{R-1} a face
of L_t. All of a pilot chain's assignments read one table.

All index sets in this module are 1-based, matching the mod* convention;
jacobian subtracts 1 where it indexes arrays with them, and identify once
per recovery call.
Everything is pure and safe for parallel sweeps.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

from .model import Dims, InvalidConfigurationError, dims_to_dict
from .dof import ell

__all__ = [
    "mod_star",
    "card_deal",
    "pilot_count",
    "PilotAssignment",
    "build_pilot_sets",
    "pilot_chain",
    "verify_pilot_properties",
    "assignment_to_dict",
    "assignment_table",
]


def mod_star(a: int, b: int) -> int:
    """Residue of a modulo b in [1:b]: a - b*floor((a-1)/b). Multiples of b map to b."""
    if a < 1 or b < 1:
        raise InvalidConfigurationError(f"mod_star needs positive arguments, got ({a}, {b})")
    return a - b * ((a - 1) // b)


def card_deal(j: int, T_eff: int, N: int) -> tuple[int, int]:
    """Deal card j: returns (player t in [1:T_eff], face i in [1:N]).

    Bijective from [1:T_eff*N] onto [1:T_eff] x [1:N].
    """
    if not 1 <= j <= T_eff * N:
        raise InvalidConfigurationError(f"card index {j} outside [1:{T_eff * N}]")
    # a mod* b = (a - 1) % b + 1 for a >= 1
    return (j - 1 + (j - 1) // math.lcm(T_eff, N)) % T_eff + 1, (j - 1) % N + 1


def pilot_count(T_eff: int, R: int, N: int, Q: int) -> int:
    """Total number of pilot symbols: max{T_eff, R T_eff Q - (R - T_eff) N}."""
    return max(T_eff, R * T_eff * Q - (R - T_eff) * N)


@dataclass(frozen=True)
class PilotAssignment:
    """Pilot/data split of the input vector plus the induction partition.

    ``pilot_sets[t-1]`` is P_t, the pilot faces of antenna t; ``data_sets`` the
    complements. ``pilots``/``data`` are their flat embeddings i + (t-1)N in
    [1:T_eff*N]. The useful output set I is [1:RN - ell]. When R > T_eff the
    fields ``L_sets`` (faces whose pilot role is dropped going from R-1 to R
    receive antennas), ``G_sets`` (disjoint Q-element anchor blocks), ``G_pool``
    (their union) and ``anchors`` (the element of G_t that lies in P_t) carry
    the partition used by the inductive witness construction; they are None at
    R = T_eff.
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

    @property
    def useful_outputs(self) -> range:
        """I = [1 : RN - ell], 1-based."""
        return range(1, self.dims.R * self.dims.N - self.ell + 1)

    @property
    def n_useful(self) -> int:
        return self.dims.R * self.dims.N - self.ell


def _witness_anchors(cards, T_eff: int, N: int, theta: int) -> tuple[int, ...]:
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


def _deal(n_cards: int, T_eff: int, N: int):
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


def _assignment(dims: Dims, deal) -> PilotAssignment:
    """The assignment for dims (in the regime) from a _deal of at least theta_{R-1} cards.

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
        anchors = _witness_anchors(cards, T_eff, N, theta)
        taken = set(anchors)
        filler = [g for g in G_pool if g not in taken] if Q > 1 else []  # Q = 1 takes none
        groups, k = [], Q - 1
        for t, g in enumerate(anchors):
            faces = filler[t * k : t * k + k]
            insort(faces, g)
            groups.append(tuple(faces))
        G_sets = tuple(groups)

    return PilotAssignment(
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


def build_pilot_sets(dims: Dims) -> PilotAssignment:
    """Construct the pilot assignment for dims in the valid regime.

    Pilot faces are dealt with card_deal over [1:theta_R]; when R > T_eff the
    deal runs on to theta_{R-1} cards for the induction partition (see
    PilotAssignment).
    """
    dims.require_regime()
    T_eff, R, N, Q = dims.T_eff, dims.R, dims.N, dims.Q
    n_cards = pilot_count(T_eff, R - 1 if R > T_eff else R, N, Q)
    return _assignment(dims, _deal(n_cards, T_eff, N))


def pilot_chain(dims: Dims) -> list[PilotAssignment]:
    """The assignments for R' = T_eff..R, in that order, from one card-index table.

    theta_{R'} falls as R' grows, so every assignment on the chain deals a
    prefix of the theta_{T_eff} = T_eff^2 Q cards of the square case. They
    are dealt once into the table, and each R' is a threshold pass over it at
    theta_{R'} (and theta_{R'-1} for L_t). Element k equals
    build_pilot_sets(dims.with_rx(T_eff + k)).
    """
    dims.require_regime()
    T_eff, N = dims.T_eff, dims.N
    cards = _deal(pilot_count(T_eff, T_eff, N, dims.Q), T_eff, N)
    return [_assignment(dims.with_rx(r), cards) for r in range(T_eff, dims.R + 1)]


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


def _expected_flat(a: PilotAssignment) -> list[int]:
    """The flat embeddings i + (t-1)N of the faces in a.pilot_sets, sorted."""
    offsets = range(0, len(a.pilot_sets) * a.dims.N, a.dims.N)
    return sorted([i + off for off, p in zip(offsets, a.pilot_sets) for i in p])


def _expected_useful(a: PilotAssignment) -> int:
    return a.dims.R * a.dims.T_eff * a.dims.Q + len(a.data)


# The failure payload of each property, built from the assignment only when it fails
_COUNTEREXAMPLES = {
    "pilot_total": lambda a: {"total": sum(map(len, a.pilot_sets)), "theta_R": a.theta_R},
    "pilot_size_cap": lambda a: {
        "oversized": [(t, len(p)) for t, p in enumerate(a.pilot_sets, 1) if len(p) > a.dims.T_eff * a.dims.Q],
        "cap": a.dims.T_eff * a.dims.Q,
    },
    "flat_embedding": lambda a: {"pilots": list(a.pilots), "expected": _expected_flat(a)},
    "useful_output_size": lambda a: {"useful": len(a.useful_outputs), "expected": _expected_useful(a)},
    "L_disjoint": lambda a: _last_clash(a.L_sets),
    "L_in_range": lambda a: {
        "outside": [(t, i) for t, ls in enumerate(a.L_sets, 1) for i in ls if not 1 <= i <= a.dims.N - a.ell],
        "range": (1, a.dims.N - a.ell),
    },
    "G_size": lambda a: {
        "bad": [(t, len(g)) for t, g in enumerate(a.G_sets, 1) if len(g) != a.dims.Q],
        "expected": a.dims.Q,
    },
    "G_disjoint": lambda a: _last_clash(a.G_sets),
    "G_meets_pilots": lambda a: {
        "antennas": [t for t, (g, p) in enumerate(zip(a.G_sets, a.pilot_sets), 1) if set(g).isdisjoint(p)]
    },
    "G_covers": lambda a: {
        "union": sorted(set().union(*a.G_sets)),
        "expected": sorted(set(range(1, a.dims.N - a.ell + 1)).difference(*a.L_sets)),
    },
}


def verify_pilot_properties(assignment: PilotAssignment):
    """Check the structural properties of a pilot assignment one by one.

    Returns {property: {"ok": bool, "detail": payload}}; the detail carries a
    counterexample on failure and is built only then. Any assignment is
    checked as given, so corrupted ones can be checked directly. Each verdict
    comes from sizes, one min and max, or set arithmetic: a family of sets is
    disjoint when its sizes sum to the size of its union.
    """
    a = assignment
    T_eff, R, N, Q = a.dims.T_eff, a.dims.R, a.dims.N, a.dims.Q
    sizes = list(map(len, a.pilot_sets))
    verdicts = {
        "pilot_total": sum(sizes) == a.theta_R,
        "pilot_size_cap": max(sizes, default=0) <= T_eff * Q,
        "flat_embedding": list(a.pilots) == _expected_flat(a),
        "useful_output_size": len(a.useful_outputs) == _expected_useful(a),
    }
    if R > T_eff:
        dropped, union = set().union(*a.L_sets), set().union(*a.G_sets)
        top = N - a.ell
        verdicts["L_disjoint"] = sum(map(len, a.L_sets)) == len(dropped)
        verdicts["L_in_range"] = not dropped or 1 <= min(dropped) and max(dropped) <= top
        verdicts["G_size"] = set(map(len, a.G_sets)) <= {Q}
        verdicts["G_disjoint"] = sum(map(len, a.G_sets)) == len(union)
        verdicts["G_meets_pilots"] = not any(map(set.isdisjoint, map(set, a.G_sets), a.pilot_sets))
        verdicts["G_covers"] = union == set(range(1, top + 1)) - dropped
    return {
        name: {"ok": True, "detail": None} if ok else {"ok": False, "detail": _COUNTEREXAMPLES[name](a)}
        for name, ok in verdicts.items()
    }


def assignment_to_dict(a: PilotAssignment) -> dict:
    """JSON form with sorted index arrays (all 1-based)."""
    out = {
        "dims": dims_to_dict(a.dims),
        "theta_R": a.theta_R,
        "pilot_sets": [list(p) for p in a.pilot_sets],
        "data_sets": [list(ds) for ds in a.data_sets],
        "pilots": list(a.pilots),
        "data": list(a.data),
        "ell": a.ell,
        "useful_outputs": [a.useful_outputs.start, a.useful_outputs.stop - 1],
    }
    if a.L_sets is not None:
        out["L_sets"] = [list(s) for s in a.L_sets]
        out["G_sets"] = [list(s) for s in a.G_sets]
        out["G_pool"] = list(a.G_pool)
        out["anchors"] = list(a.anchors)
    return out


def assignment_table(a: PilotAssignment) -> str:
    """Text form: the card-dealing table, each P_t and the flat pilot set."""
    dims = a.dims
    lines = [
        f"dealing {a.theta_R} pilot positions to {dims.T_eff} antennas "
        f"(block length {dims.N}):"
    ]
    for j in range(1, a.theta_R + 1):
        t, i = card_deal(j, dims.T_eff, dims.N)
        lines.append(f"  card {j:>3}: face {i:>3} -> antenna {t}")
    for t, p in enumerate(a.pilot_sets, start=1):
        lines.append(f"  P_{t} = {set(p)}")
    lines.append(f"  flat pilot set = {set(a.pilots)}  (ell = {a.ell})")
    return "\n".join(lines) + "\n"
