"""Pilot-set combinatorics: dealing bijection, set construction, properties."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from paper_facts import tuple_chain

from fadingdof.model import Dims, InvalidConfigurationError, regime_cells, regime_chains
from fadingdof.pilots import (
    PROPERTIES,
    PilotCells,
    assignment_to_dict,
    build_pilot_sets,
    card_deal,
    mod_star,
    pilot_chain,
    pilot_count,
    verify_pilot_properties,
)


def faces(masks):
    """The 1-based faces of each row of masks, as sets."""
    return [set((np.flatnonzero(row) + 1).tolist()) for row in masks]


def cells_of(dims, view):
    """A batch of one cell from its 1-based view (assignment_to_dict's keys), sets in the given order."""

    def triples(sets):
        return np.array([(0, t, i - 1) for t, row in enumerate(sets) for i in row], dtype=int).reshape(-1, 3).T

    return PilotCells(
        dims=np.array([[dims.T, dims.R, dims.N, dims.Q, dims.T_eff]]),
        theta_R=np.array([view["theta_R"]]),
        ell=np.array([view["ell"]]),
        n_data=np.array([len(view["data"])]),
        P=triples(view["pilot_sets"]),
        pilots=np.array([(0, j - 1) for j in view["pilots"]], dtype=int).reshape(-1, 2).T,
        L=triples(view.get("L_sets", ())),
        G=triples(view.get("G_sets", ())),
    )


def test_mod_star_values():
    assert mod_star(6, 3) == 3  # exact multiples map to b, not 0
    assert mod_star(7, 3) == 1
    assert mod_star(14, 4) == 2
    with pytest.raises(InvalidConfigurationError):
        mod_star(0, 3)


def test_card_deal_values():
    assert card_deal(13, 4, 6) == (2, 1)
    for T_eff, N in [(1, 1), (3, 5), (4, 6)]:
        assert card_deal(1, T_eff, N) == (1, 1)


def test_card_deal_deals_an_array_of_cards_as_the_scalar_calls_do():
    for T_eff, N in [(1, 1), (3, 5), (4, 6), (5, 16)]:
        cards = np.arange(1, T_eff * N + 1)
        players, faces = card_deal(cards, T_eff, N)
        assert list(zip(players.tolist(), faces.tolist())) == [card_deal(j, T_eff, N) for j in cards.tolist()]
    assert [a.shape for a in card_deal(np.arange(1, 7).reshape(2, 3), 2, 3)] == [(2, 3), (2, 3)]
    for bad in ([0, 1], [1, 7]):
        with pytest.raises(InvalidConfigurationError, match="outside"):
            card_deal(np.array(bad), 2, 3)


def test_card_deal_small_image_is_full():
    image = {card_deal(j, 2, 3) for j in range(1, 7)}
    assert image == set(itertools.product([1, 2], [1, 2, 3]))


def test_card_deal_bijective_small_grid():
    for T_eff in range(1, 9):
        for N in range(1, 9):
            image = {card_deal(j, T_eff, N) for j in range(1, T_eff * N + 1)}
            assert len(image) == T_eff * N


def test_player_preimages_partition_domain():
    for T_eff in range(1, 7):
        for N in range(1, 9):
            buckets = {}
            for j in range(1, T_eff * N + 1):
                buckets.setdefault(card_deal(j, T_eff, N)[0], []).append(j)
            assert sorted(j for b in buckets.values() for j in b) == list(
                range(1, T_eff * N + 1)
            )
            assert set(buckets) == set(range(1, T_eff + 1))


def test_face_map_injective_on_short_windows():
    # the face j mod* N repeats only with period N
    for N in range(1, 9):
        for start in range(1, 3 * N):
            faces = [mod_star(j, N) for j in range(start, start + N)]
            assert len(set(faces)) == N


def test_window_counting_bound_sampled():
    import random

    rnd = random.Random(1234)
    for _ in range(2000):
        b = rnd.randint(2, 9)
        c = rnd.randint(1, b)
        a = rnd.randint(0, 12)
        p = rnd.randint(0, 40)
        q = rnd.randint(p + 1, p + 45)
        count = sum(1 for j in range(p + 1, q + 1) if mod_star(j + a, b) == c)
        assert count <= -(-(q - p) // b)


def test_worked_dealing_instance():
    # T_eff=4, N=6 with 14 pilots lands exactly on the worked table
    dims = Dims(T=4, R=5, N=6, Q=1, T_eff=4)
    assert pilot_count(4, 5, 6, 1) == 14
    pa = build_pilot_sets(dims)
    assert assignment_to_dict(pa)["pilot_sets"] == [[1, 3, 5], [1, 2, 4, 6], [1, 2, 3, 5], [2, 4, 6]]


def test_small_example_pilot_positions():
    pa = build_pilot_sets(Dims.create(2, 3, 4, 1))
    assert pa.theta_R == max(2, 6 - 4) == 2
    assert pa.P.sum(axis=1).tolist() == [1, 1]
    assert pa.pilot_index.tolist() == [0, 5]  # 0-based flat positions t N + i
    assert pa.data_index.tolist() == [1, 2, 3, 4, 6, 7]
    assert pa.ell == 0 and pa.n_useful == 12


def test_square_case_pilot_sets_are_maximal():
    # R = T_eff forces |P_t| = T_eff*Q for every antenna
    for dims in [Dims.create(2, 2, 5, 1, T_eff=2), Dims.create(3, 3, 7, 2, T_eff=3)]:
        pa = build_pilot_sets(dims)
        assert (pa.P.sum(axis=1) == dims.T_eff * dims.Q).all()
        assert pa.L is None and pa.G is None and pa.anchors is None


def test_regime_violation_raises():
    with pytest.raises(InvalidConfigurationError):
        build_pilot_sets(Dims(T=2, R=3, N=4, Q=2, T_eff=2))  # N = T_eff*Q
    with pytest.raises(InvalidConfigurationError):
        build_pilot_sets(Dims(T=2, R=12, N=4, Q=1, T_eff=2))  # R too large


def test_properties_hold_on_regime_grid():
    cells = PilotCells.of(pilot_chain(top) for top in regime_chains(8))
    assert len(cells) == len(list(regime_cells(8))) == 320
    assert cells.dims.tolist() == [[d.T, d.R, d.N, d.Q, d.T_eff] for d in regime_cells(8)]
    assert verify_pilot_properties(cells) == []


def test_pilot_count_drop_identity():
    # going from R to R-1 receive antennas frees exactly N - T_eff*Q - ell pilots
    from fadingdof.dof import ell

    for dims in regime_cells(10):
        if dims.R == dims.T_eff:
            continue
        d = dims
        drop = pilot_count(d.T_eff, d.R - 1, d.N, d.Q) - pilot_count(d.T_eff, d.R, d.N, d.Q)
        assert drop == d.N - d.T_eff * d.Q - ell(d.T_eff, d.R, d.N, d.Q)


def test_one_deal_matches_two_deal_oracle():
    # the (R-1)-antenna deal extends the R-antenna one; the oracle deals both
    # and takes L_t as the set difference of the two pilot sets
    def dealt(d, R):
        sets = [set() for _ in range(d.T_eff)]
        for j in range(1, pilot_count(d.T_eff, R, d.N, d.Q) + 1):
            t, i = card_deal(j, d.T_eff, d.N)
            sets[t - 1].add(i)
        return sets

    cells = [d for d in regime_cells(10) if d.R > d.T_eff]
    assert len(cells) == 632
    for d in cells:
        pa = build_pilot_sets(d)
        cur, prev = dealt(d, d.R), dealt(d, d.R - 1)
        assert faces(pa.P) == cur, d
        assert faces(pa.L) == [p - c for p, c in zip(prev, cur)], d


def assert_chain_matches_per_R_builds(top):
    chain = pilot_chain(top)
    assert [pa.dims.R for pa in chain] == list(range(top.T_eff, top.R + 1))
    for pa in chain:
        assert pa == build_pilot_sets(top.with_rx(pa.dims.R)), pa.dims


def test_one_deal_chain_equals_per_R_builds_on_every_cell_up_to_N_10():
    tops = list(regime_chains(10))
    assert len(tops) == 100
    assert sum(top.R - top.T_eff + 1 for top in tops) == len(list(regime_cells(10))) == 732
    for top in tops:
        assert_chain_matches_per_R_builds(top)
    # a chain may stop below rx_needed
    assert_chain_matches_per_R_builds(Dims(T=3, R=5, N=8, Q=2, T_eff=3))


@st.composite
def regime_cell(draw, n_max=16):
    N = draw(st.integers(2, n_max))
    Q = draw(st.integers(1, N - 1))
    T_eff = draw(st.integers(1, (N - 1) // Q))
    top = Dims(T=T_eff, R=T_eff, N=N, Q=Q, T_eff=T_eff).rx_needed
    T = draw(st.integers(T_eff, T_eff + 2))
    return Dims(T=T, R=draw(st.integers(T_eff, top)), N=N, Q=Q, T_eff=T_eff)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(regime_cell())
def test_one_deal_chain_equals_per_R_builds_on_random_cells(dims):
    assert_chain_matches_per_R_builds(dims)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(regime_cell())
def test_chain_properties_on_random_cells(dims):
    chain = pilot_chain(dims)
    assert verify_pilot_properties(PilotCells.of([chain])) == []
    # P_t(R'-1) is the disjoint union of P_t(R') and L_t(R')
    for prev, pa in zip(chain, chain[1:]):
        assert np.array_equal(prev.P, pa.P | pa.L) and not (pa.P & pa.L).any(), pa.dims
    T_eff, N = dims.T_eff, dims.N
    image = [card_deal(j, T_eff, N) for j in range(1, T_eff * N + 1)]
    assert sorted(image) == list(itertools.product(range(1, T_eff + 1), range(1, N + 1)))


def test_chain_rejects_cells_outside_the_regime():
    with pytest.raises(InvalidConfigurationError):
        pilot_chain(Dims(T=2, R=12, N=4, Q=1, T_eff=2))


def test_corrupted_assignment_fails_checks():
    dims = Dims.create(2, 2, 5, 1, T_eff=2)
    view = assignment_to_dict(build_pilot_sets(dims))
    P = view["pilot_sets"]
    # drop one pilot index: the total-count property must fail
    [(failed, report)] = verify_pilot_properties(cells_of(dims, {**view, "pilot_sets": [P[0][1:], P[1]]}))
    assert failed == dims and list(report) == list(PROPERTIES[:4])  # R = T_eff: no partition to check
    assert not report["pilot_total"]["ok"]
    assert report["pilot_total"]["detail"]["total"] == view["theta_R"] - 1
    # move an index across antennas: the per-antenna cap must fail
    moved = [P[0][1:], sorted(P[1] + P[0][:1])]
    [(_, report)] = verify_pilot_properties(cells_of(dims, {**view, "pilot_sets": moved}))
    assert not report["pilot_size_cap"]["ok"]


# (3,5,8,2): theta_R = 14, cap T_eff Q = 6, faces up to N - ell = 8, G_pool = [1:6]
#   P = (1,2,4,5,7), (2,3,5,6,8), (1,3,4,6); L = (8,), (), (7,); G = (1,5), (2,6), (3,4)
CORRUPTIONS = {
    "pilot_total": ({"theta_R": 15}, {"pilot_total": {"total": 14, "theta_R": 15}}),
    "pilot_size_cap": (
        # faces 3 and 6 move from antenna 2 to antenna 1; the flat set follows
        {
            "pilot_sets": ((1, 2, 3, 4, 5, 6, 7), (2, 5, 8), (1, 3, 4, 6)),
            "pilots": (1, 2, 3, 4, 5, 6, 7, 10, 13, 16, 17, 19, 20, 22),
        },
        {"pilot_size_cap": {"oversized": [(1, 7)], "cap": 6}},
    ),
    "flat_embedding": (
        {"pilots": (1, 2, 4, 5, 7, 10, 11, 13, 14, 16, 17, 19, 20, 23)},
        {
            "flat_embedding": {
                "pilots": [1, 2, 4, 5, 7, 10, 11, 13, 14, 16, 17, 19, 20, 23],
                "expected": [1, 2, 4, 5, 7, 10, 11, 13, 14, 16, 17, 19, 20, 22],
            }
        },
    ),
    "useful_output_size": (
        {"data": (3, 6, 8, 9, 12, 15, 18, 21, 23)},
        {"useful_output_size": {"useful": 40, "expected": 39}},
    ),
    # face 7 is in L_1 and L_2, then face 8 in L_1 and L_3: the last clash is reported
    "L_disjoint": ({"L_sets": ((7, 8), (7,), (8,))}, {"L_disjoint": {"face": 8, "antennas": (1, 3)}}),
    "L_in_range": (
        {"L_sets": ((0, 8), (), (7, 9))},
        {"L_in_range": {"outside": [(1, 0), (3, 9)], "range": (1, 8)}},
    ),
    "G_size": ({"G_sets": ((1, 5, 6), (2,), (3, 4))}, {"G_size": {"bad": [(1, 3), (2, 1)], "expected": 2}}),
    # two Q-sets that share a face cannot cover the T_eff Q faces of the pool
    "G_disjoint": (
        {"G_sets": ((1, 5), (2, 6), (4, 5))},
        {
            "G_disjoint": {"face": 5, "antennas": (1, 3)},
            "G_covers": {"union": [1, 2, 4, 5, 6], "expected": [1, 2, 3, 4, 5, 6]},
        },
    ),
    "G_meets_pilots": ({"G_sets": ((3, 6), (2, 4), (1, 5))}, {"G_meets_pilots": {"antennas": [1]}}),
    "G_covers": (
        {"G_sets": ((1, 7), (2, 6), (3, 4))},
        {"G_covers": {"union": [1, 2, 3, 4, 6, 7], "expected": [1, 2, 3, 4, 5, 6]}},
    ),
}


@pytest.mark.parametrize("prop", PROPERTIES)
def test_each_pilot_property_fails_on_its_corruption(prop):
    dims = Dims(T=3, R=5, N=8, Q=2, T_eff=3)
    view = assignment_to_dict(build_pilot_sets(dims))
    assert verify_pilot_properties(cells_of(dims, view)) == []
    changes, failures = CORRUPTIONS[prop]
    [(failed, report)] = verify_pilot_properties(cells_of(dims, {**view, **changes}))
    assert failed == dims and list(report) == list(PROPERTIES)
    assert {name: r["detail"] for name, r in report.items() if not r["ok"]} == failures
    assert all(r["detail"] is None for r in report.values() if r["ok"])


def test_a_face_listed_twice_counts_twice():
    # P_1 = (1, 1, 2, 4, 5, 7): six faces on five positions, so the total and the flat list both fail
    dims = Dims(T=3, R=5, N=8, Q=2, T_eff=3)
    view = assignment_to_dict(build_pilot_sets(dims))
    P = [[1, *view["pilot_sets"][0]], *view["pilot_sets"][1:]]
    [(_, report)] = verify_pilot_properties(cells_of(dims, {**view, "pilot_sets": P}))
    assert {name for name, r in report.items() if not r["ok"]} == {"pilot_total", "flat_embedding"}
    assert report["pilot_total"]["detail"] == {"total": 15, "theta_R": 14}
    assert report["flat_embedding"]["detail"]["expected"][:2] == [1, 1]


def test_a_dropped_face_past_the_useful_range_fails_only_L_in_range():
    # L_3 = (9,), one face past N - ell = 8; with L_1 = (7, 8) the pool G covers is unchanged
    dims = Dims(T=3, R=5, N=8, Q=2, T_eff=3)
    view = assignment_to_dict(build_pilot_sets(dims))
    [(_, report)] = verify_pilot_properties(cells_of(dims, {**view, "L_sets": [[7, 8], [], [9]]}))
    assert {name: r["detail"] for name, r in report.items() if not r["ok"]} == {
        "L_in_range": {"outside": [(3, 9)], "range": (1, 8)}
    }


def test_the_batch_reports_each_failing_cell_in_order():
    top = Dims(T=3, R=5, N=8, Q=2, T_eff=3)
    chain = pilot_chain(top)  # R' = 3, 4, 5
    cells = PilotCells.of([chain, chain])
    theta = cells.theta_R.copy()
    theta[[1, 5]] += 1  # R' = 4 of the first copy and R' = 5 of the second
    failures = verify_pilot_properties(dataclasses.replace(cells, theta_R=theta))
    assert [dims for dims, _ in failures] == [top.with_rx(4), top]
    for _, report in failures:
        assert [name for name, r in report.items() if not r["ok"]] == ["pilot_total"]


def test_pilots_interleaved_across_cells_are_read_cell_by_cell_in_their_order():
    cells = PilotCells.of([pilot_chain(Dims(T=3, R=5, N=8, Q=2, T_eff=3))])
    cell = cells.pilots[0]
    rank = np.arange(cell.size) - np.searchsorted(cell, cell)  # place within its cell
    order = np.lexsort((cell, rank))  # round robin over the cells, each in its order
    assert verify_pilot_properties(dataclasses.replace(cells, pilots=cells.pilots[:, order])) == []
    swapped = cells.pilots.copy()
    swapped[1, [0, 1]] = swapped[1, [1, 0]]  # the first cell's first two pilots out of order
    [(failed, report)] = verify_pilot_properties(dataclasses.replace(cells, pilots=swapped[:, order]))
    assert failed.R == 3 and [name for name, r in report.items() if not r["ok"]] == ["flat_embedding"]


@pytest.mark.parametrize(
    "field, bad",
    [("P", (1, 0, 0)), ("P", (0, 3, 0)), ("P", (0, -1, 0)), ("L", (-1, 0, 0)), ("G", (0, 3, 0)), ("pilots", (2, 0))],
)
def test_the_checker_refuses_a_cell_or_antenna_the_batch_lacks(field, bad):
    dims = Dims(T=3, R=5, N=8, Q=2, T_eff=3)
    cells = cells_of(dims, assignment_to_dict(build_pilot_sets(dims)))
    given = np.concatenate([getattr(cells, field), np.array(bad)[:, None]], axis=1)
    with pytest.raises(InvalidConfigurationError, match="outside the batch"):
        verify_pilot_properties(dataclasses.replace(cells, **{field: given}))


def test_every_view_equals_the_tuple_construction_up_to_N_16():
    # P_t, the data sets, flat pilots and data, ell, L_t, G_t, G_pool and anchors, 1-based as printed,
    # from the masks of one card-number array per chain against the oracle's deal and threshold passes
    cells = 0
    for top in regime_chains(16):
        for pa, oracle in zip(pilot_chain(top), tuple_chain(top), strict=True):
            view = assignment_to_dict(pa)
            want = {k: v for k, v in dataclasses.asdict(oracle).items() if v is not None and k != "dims"}
            assert set(view) - {"dims", "useful_outputs"} == set(want), pa.dims
            assert json.dumps({k: view[k] for k in want}) == json.dumps(want), pa.dims
            cells += 1
    assert cells == 3870


def test_a_chain_is_read_only_and_indexes_as_a_list():
    chain = pilot_chain(Dims(T=3, R=5, N=8, Q=2, T_eff=3))
    assert len(chain) == 3 and chain[-1] == chain[2] == build_pilot_sets(chain.dims)
    assert isinstance(chain[1:], list) and [pa.dims.R for pa in chain[::-1]] == [5, 4, 3]
    with pytest.raises(IndexError):
        chain[3]
    for a in (chain.cards, chain.theta, chain.ell, chain.P, chain.L, chain.G, chain.anchors, chain[2].P):
        assert not a.flags.writeable
    # the full deal: each card number once, those past theta_{T_eff} = T_eff^2 Q pilots of no cell
    assert sorted(chain.cards.ravel().tolist()) == list(range(1, 25)) and chain.theta.tolist() == [18, 16, 14]
    assert chain[0].L is None and not chain.L[0].any() and not chain.G[0].any() and (chain.anchors[0] == -1).all()


def test_assignment_json_dump_is_sorted():
    pa = build_pilot_sets(Dims.create(2, 3, 4, 1))
    d = assignment_to_dict(pa)
    assert d["pilots"] == sorted(d["pilots"])
    assert d["pilot_sets"] == [sorted(p) for p in d["pilot_sets"]]
    assert d["useful_outputs"] == [1, 12]
    assert d["L_sets"] == [[3], [4]]
