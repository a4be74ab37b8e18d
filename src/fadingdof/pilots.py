"""Pilot-placement combinatorics.

A total of theta_R = max{T_eff, R T_eff Q - (R - T_eff) N} input positions are
pinned as pilots, spread over the T_eff active antennas by a card-dealing
bijection: card j (1-based) shows face j mod* N and goes to player
(j + floor((j-1)/lcm(T_eff, N))) mod* T_eff, where a mod* b is the residue in
[1:b]. The offset term skips one player each time a full deal cycle would
repeat, which keeps the faces dealt to any one player distinct.

All index sets in this module are 1-based, matching the mod* convention. The
conversion to 0-based array indices happens exactly once, at the array-model
boundary. Everything is pure and safe for parallel sweeps.
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


def _deal_sets(T_eff: int, N: int, count: int) -> list[list[int]]:
    """Faces dealt to each player among the first ``count`` cards, sorted."""
    sets: list[list[int]] = [[] for _ in range(T_eff)]
    for j in range(1, count + 1):
        t, i = card_deal(j, T_eff, N)
        sets[t - 1].append(i)
    return [sorted(s) for s in sets]


def _witness_anchors(T_eff: int, N: int, theta: int) -> dict[int, int]:
    """One pilot face per player taken from the tail of the deal.

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
        t, i = card_deal(j, T_eff, N)
        if t in anchors:
            raise AssertionError(f"anchor window dealt player {t} twice (theta={theta})")
        anchors[t] = i
    if len(anchors) != T_eff:
        raise AssertionError(f"anchor window missed a player (theta={theta})")
    return anchors


def build_pilot_sets(dims: Dims) -> PilotAssignment:
    """Construct the pilot assignment for dims in the valid regime.

    Pilot faces are dealt with card_deal over [1:theta_R]. When R > T_eff the
    partition data for the inductive step is derived from the (R-1)-antenna
    assignment: L_t collects the faces dropped from P_t, the anchors g_t come
    from the tail window of the deal, and each G_t is the anchor plus Q-1
    filler faces taken in ascending order from the remaining pool.
    """
    dims.require_regime()
    T_eff, R, N, Q = dims.T_eff, dims.R, dims.N, dims.Q
    theta = pilot_count(T_eff, R, N, Q)
    pilot_sets = _deal_sets(T_eff, N, theta)
    data_sets = [sorted(set(range(1, N + 1)) - set(p)) for p in pilot_sets]
    pilots = sorted(i + t * N for t, p in enumerate(pilot_sets) for i in p)
    data = sorted(set(range(1, T_eff * N + 1)) - set(pilots))
    l = ell(T_eff, R, N, Q)

    L_sets = G_sets = G_pool = anchors = None
    if R > T_eff:
        theta_prev = pilot_count(T_eff, R - 1, N, Q)
        prev_sets = _deal_sets(T_eff, N, theta_prev)
        L_sets = tuple(
            tuple(sorted(set(prev) - set(cur))) for prev, cur in zip(prev_sets, pilot_sets)
        )
        dropped = set().union(*(set(s) for s in L_sets))
        pool = sorted(set(range(1, N - l + 1)) - dropped)
        anchor_map = _witness_anchors(T_eff, N, theta)
        anchors = tuple(anchor_map[t] for t in range(1, T_eff + 1))
        filler = [g for g in pool if g not in set(anchors)]
        g_sets = []
        for t in range(T_eff):
            extra, filler = filler[: Q - 1], filler[Q - 1 :]
            g_sets.append(tuple(sorted([anchors[t], *extra])))
        G_sets = tuple(g_sets)
        G_pool = tuple(pool)

    return PilotAssignment(
        dims=dims,
        theta_R=theta,
        pilot_sets=tuple(tuple(p) for p in pilot_sets),
        data_sets=tuple(tuple(d) for d in data_sets),
        pilots=tuple(pilots),
        data=tuple(data),
        ell=l,
        L_sets=L_sets,
        G_sets=G_sets,
        G_pool=G_pool,
        anchors=anchors,
    )


def verify_pilot_properties(dims: Dims | None = None, assignment: PilotAssignment | None = None):
    """Check the structural properties of a pilot assignment one by one.

    Returns {property: {"ok": bool, "detail": payload}}; the detail carries a
    counterexample on failure. Builds the assignment from dims when one is not
    supplied, so corrupted assignments can be checked directly.
    """
    if assignment is None:
        if dims is None:
            raise InvalidConfigurationError("need dims or an assignment")
        assignment = build_pilot_sets(dims)
    a = assignment
    d = a.dims
    T_eff, R, N, Q = d.T_eff, d.R, d.N, d.Q
    cap = T_eff * Q
    report: dict[str, dict] = {}

    def record(name, ok, detail=None):
        report[name] = {"ok": bool(ok), "detail": None if ok else detail}

    total = sum(len(p) for p in a.pilot_sets)
    record("pilot_total", total == a.theta_R, {"total": total, "theta_R": a.theta_R})

    oversized = [(t + 1, len(p)) for t, p in enumerate(a.pilot_sets) if len(p) > cap]
    record("pilot_size_cap", not oversized, {"oversized": oversized, "cap": cap})

    expected_flat = sorted(i + t * N for t, p in enumerate(a.pilot_sets) for i in p)
    record(
        "flat_embedding",
        list(a.pilots) == expected_flat,
        {"pilots": list(a.pilots), "expected": expected_flat},
    )

    n_useful = len(a.useful_outputs)
    record(
        "useful_output_size",
        n_useful == R * T_eff * Q + len(a.data),
        {"useful": n_useful, "expected": R * T_eff * Q + len(a.data)},
    )

    if R == T_eff:
        return report

    seen: dict[int, int] = {}
    clash = None
    for t, ls in enumerate(a.L_sets, start=1):
        for i in ls:
            if i in seen:
                clash = {"face": i, "antennas": (seen[i], t)}
            seen[i] = t
    record("L_disjoint", clash is None, clash)

    out = [
        (t + 1, i)
        for t, ls in enumerate(a.L_sets)
        for i in ls
        if not 1 <= i <= N - a.ell
    ]
    record("L_in_range", not out, {"outside": out, "range": (1, N - a.ell)})

    bad_size = [(t + 1, len(g)) for t, g in enumerate(a.G_sets) if len(g) != Q]
    record("G_size", not bad_size, {"bad": bad_size, "expected": Q})

    seen, clash = {}, None
    for t, gs in enumerate(a.G_sets, start=1):
        for i in gs:
            if i in seen:
                clash = {"face": i, "antennas": (seen[i], t)}
            seen[i] = t
    record("G_disjoint", clash is None, clash)

    missing = [
        t + 1
        for t, (g, p) in enumerate(zip(a.G_sets, a.pilot_sets))
        if not set(g) & set(p)
    ]
    record("G_meets_pilots", not missing, {"antennas": missing})

    union = sorted(set().union(*(set(g) for g in a.G_sets)))
    expected_pool = sorted(
        set(range(1, N - a.ell + 1)) - set().union(*(set(ls) for ls in a.L_sets))
    )
    record("G_covers", union == expected_pool, {"union": union, "expected": expected_pool})

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
