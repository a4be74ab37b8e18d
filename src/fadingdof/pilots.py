"""Pilot-placement combinatorics.

A total of theta_R = max{T_eff, R T_eff Q - (R - T_eff) N} input positions are
pinned as pilots, spread over the T_eff active antennas by a card-dealing
bijection: card j (1-based) shows face j mod* N and goes to player
(j + floor((j-1)/lcm(T_eff, N))) mod* T_eff, where a mod* b is the residue in
[1:b]. The offset term skips one player each time a full deal cycle would
repeat, which keeps the faces dealt to any one player distinct.

All index sets in this module are 1-based, matching the mod* convention;
jacobian subtracts 1 where it indexes arrays with them, and identify once
per recovery call.
Everything is pure and safe for parallel sweeps.
"""

from __future__ import annotations

import math
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
    cycle = math.lcm(T_eff, N)
    t = mod_star(j + (j - 1) // cycle, T_eff)
    i = mod_star(j, N)
    return t, i


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


def _faces_by_player(cards, T_eff: int) -> tuple[tuple[int, ...], ...]:
    """Faces of the dealt (player, face) cards, grouped by player and sorted."""
    sets: list[list[int]] = [[] for _ in range(T_eff)]
    for t, i in cards:
        sets[t - 1].append(i)
    return tuple([tuple(sorted(s)) for s in sets])


def _witness_anchors(cards, T_eff: int, N: int, theta: int) -> dict[int, int]:
    """One pilot face per player taken from the tail of the deal ``cards``.

    The window is [theta - T_eff + 1 : theta] unless a multiple n*cycle of the
    deal cycle falls strictly inside it, in which case the second half is
    shifted back one cycle; either way each player appears exactly once.
    """
    cycle = math.lcm(T_eff, N)
    lo = theta - T_eff + 1
    n = (theta - 1) // cycle
    if n >= 1 and n * cycle >= lo:
        window = list(range(lo, n * cycle + 1)) + list(
            range((n - 1) * cycle + 1, theta - cycle + 1)
        )
    else:
        window = list(range(lo, theta + 1))
    anchors: dict[int, int] = {}
    for j in window:
        t, i = cards[j - 1]
        if t in anchors:
            raise AssertionError(f"anchor window dealt player {t} twice (theta={theta})")
        anchors[t] = i
    if len(anchors) != T_eff:
        raise AssertionError(f"anchor window missed a player (theta={theta})")
    return anchors


def _deal(n_cards: int, T_eff: int, N: int) -> list[tuple[int, int]]:
    """Cards 1..n_cards of the deal to T_eff players, as (player, face) pairs."""
    return [card_deal(j, T_eff, N) for j in range(1, n_cards + 1)]


def _assignment(dims: Dims, cards) -> PilotAssignment:
    """The assignment for dims (in the regime) from a deal prefix of at least theta_{R-1} cards.

    P_t comes from the first theta_R cards. When R > T_eff the partition data
    for the inductive step comes from the (R-1)-antenna deal of theta_{R-1} >=
    theta_R cards, which extends this one: L_t collects the faces of the extra
    cards dealt to antenna t (those dropped from P_t), the anchors g_t come
    from the tail window of the deal, and each G_t is the anchor plus Q-1
    filler faces taken in ascending order from the remaining pool.
    """
    T_eff, R, N, Q = dims.T_eff, dims.R, dims.N, dims.Q
    theta = pilot_count(T_eff, R, N, Q)
    # Tuples are built from lists: tuple() of a generator grows by reallocs, and
    # in a process that builds many assignments that fragments the heap for good.
    pilot_sets = _faces_by_player(cards[:theta], T_eff)
    data_sets = tuple(
        [tuple([i for i in range(1, N + 1) if i not in taken]) for taken in map(set, pilot_sets)]
    )
    # player t's faces embed into [(t-1)N + 1 : tN], so the flat sets come out sorted
    pilots = tuple([i + t * N for t, p in enumerate(pilot_sets) for i in p])
    data = tuple([i + t * N for t, d in enumerate(data_sets) for i in d])
    l = ell(T_eff, R, N, Q)

    L_sets = G_sets = G_pool = anchors = None
    if R > T_eff:
        theta_prev = pilot_count(T_eff, R - 1, N, Q)
        L_sets = _faces_by_player(cards[theta:theta_prev], T_eff)
        dropped = {i for faces in L_sets for i in faces}
        G_pool = tuple([g for g in range(1, N - l + 1) if g not in dropped])
        anchor_map = _witness_anchors(cards, T_eff, N, theta)
        anchors = tuple([anchor_map[t] for t in range(1, T_eff + 1)])
        anchor_set = set(anchors)
        filler = [g for g in G_pool if g not in anchor_set]
        G_sets = tuple(
            [
                tuple(sorted([anchors[t], *filler[t * (Q - 1) : (t + 1) * (Q - 1)]]))
                for t in range(T_eff)
            ]
        )

    return PilotAssignment(
        dims=dims,
        theta_R=theta,
        pilot_sets=pilot_sets,
        data_sets=data_sets,
        pilots=pilots,
        data=data,
        ell=l,
        L_sets=L_sets,
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
    """The assignments for R' = T_eff..R, in that order, from one deal.

    theta_{R'} falls as R' grows, so every assignment on the chain deals a
    prefix of the theta_{T_eff} = T_eff^2 Q cards of the square case; they
    are dealt once. Element k equals build_pilot_sets(dims.with_rx(T_eff + k)).
    """
    dims.require_regime()
    T_eff, N = dims.T_eff, dims.N
    cards = _deal(pilot_count(T_eff, T_eff, N, dims.Q), T_eff, N)
    return [_assignment(dims.with_rx(r), cards) for r in range(T_eff, dims.R + 1)]


def verify_pilot_properties(assignment: PilotAssignment):
    """Check the structural properties of a pilot assignment one by one.

    Returns {property: {"ok": bool, "detail": payload}}; the detail carries a
    counterexample on failure and is built only then. Any assignment is
    checked as given, so corrupted ones can be checked directly.
    """
    a = assignment
    d = a.dims
    T_eff, R, N, Q = d.T_eff, d.R, d.N, d.Q
    cap = T_eff * Q
    report: dict[str, dict] = {}

    def record(name, ok, detail):
        """detail() builds the failure payload; it is not called when ok."""
        report[name] = {"ok": True, "detail": None} if ok else {"ok": False, "detail": detail()}

    total = sum(len(p) for p in a.pilot_sets)
    record("pilot_total", total == a.theta_R, lambda: {"total": total, "theta_R": a.theta_R})

    record(
        "pilot_size_cap",
        all(len(p) <= cap for p in a.pilot_sets),
        lambda: {
            "oversized": [(t + 1, len(p)) for t, p in enumerate(a.pilot_sets) if len(p) > cap],
            "cap": cap,
        },
    )

    expected_flat = sorted(i + t * N for t, p in enumerate(a.pilot_sets) for i in p)
    record(
        "flat_embedding",
        list(a.pilots) == expected_flat,
        lambda: {"pilots": list(a.pilots), "expected": expected_flat},
    )

    n_useful = len(a.useful_outputs)
    expected_useful = R * T_eff * Q + len(a.data)
    record(
        "useful_output_size",
        n_useful == expected_useful,
        lambda: {"useful": n_useful, "expected": expected_useful},
    )

    if R == T_eff:
        return report

    def last_clash(sets):
        """The last face found in two sets, with the 1-based indices of both, or None."""
        seen: dict[int, int] = {}
        clash = None
        for t, faces in enumerate(sets, start=1):
            for i in faces:
                if i in seen:
                    clash = {"face": i, "antennas": (seen[i], t)}
                seen[i] = t
        return clash

    clash = last_clash(a.L_sets)
    record("L_disjoint", clash is None, lambda: clash)

    top = N - a.ell
    record(
        "L_in_range",
        all(1 <= i <= top for ls in a.L_sets for i in ls),
        lambda: {
            "outside": [
                (t + 1, i) for t, ls in enumerate(a.L_sets) for i in ls if not 1 <= i <= top
            ],
            "range": (1, top),
        },
    )

    record(
        "G_size",
        all(len(g) == Q for g in a.G_sets),
        lambda: {
            "bad": [(t + 1, len(g)) for t, g in enumerate(a.G_sets) if len(g) != Q],
            "expected": Q,
        },
    )

    g_clash = last_clash(a.G_sets)
    record("G_disjoint", g_clash is None, lambda: g_clash)

    missing = [
        t + 1
        for t, (g, p) in enumerate(zip(a.G_sets, a.pilot_sets))
        if set(g).isdisjoint(p)
    ]
    record("G_meets_pilots", not missing, lambda: {"antennas": missing})

    union = {i for g in a.G_sets for i in g}
    dropped = {i for ls in a.L_sets for i in ls}
    expected_pool = {i for i in range(1, top + 1) if i not in dropped}
    record(
        "G_covers",
        union == expected_pool,
        lambda: {"union": sorted(union), "expected": sorted(expected_pool)},
    )

    return report


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
