"""Pilot-set combinatorics: dealing bijection, set construction, properties."""

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from paper_facts import cuts, pilot_property_oracle, regime_cells, tuple_chain

from fadingdof.model import Dims, InvalidConfigurationError, regime_chains
from fadingdof.pilots import (
    PROPERTIES,
    assignment_to_dict,
    card_deal,
    mod_star,
    pilot_chain,
    pilot_chains,
    pilot_count,
    verify_pilot_properties,
)


def faces(masks):
    """The 1-based faces of each row of masks, as sets."""
    return [set((np.flatnonzero(row) + 1).tolist()) for row in masks]


def with_cell(chain, k, **changes):
    """chain with row k changed: theta to a value, each of P, L and G given to its 1-based faces per antenna."""
    arrays = {}
    for name, value in changes.items():
        a = getattr(chain, name).copy()
        if name == "theta":
            a[k] = value
        else:
            a[k] = False
            for t, row in enumerate(value):
                a[k, t, np.array(row, dtype=int) - 1] = True
        arrays[name] = a
    return dataclasses.replace(chain, **arrays)


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


def test_card_deal_broadcast_over_deals_equals_the_scalar_calls():
    # a row for each T_eff, N <= 12: its cards 1..T_eff N, then T_eff N repeated
    T_eff, N = np.indices((12, 12)).reshape(2, -1, 1) + 1
    players, faces = card_deal(np.minimum(np.arange(1, 145), T_eff * N), T_eff, N)
    assert players.shape == faces.shape == (144, 144)
    for row, (t, n) in enumerate(zip(T_eff.ravel().tolist(), N.ravel().tolist())):
        scalar = [card_deal(j, t, n) for j in range(1, t * n + 1)]
        assert list(zip(players[row, : t * n].tolist(), faces[row, : t * n].tolist())) == scalar, (t, n)
    # T_eff and N alone may be arrays too, and a scalar deal still gives Python ints
    assert card_deal(13, np.array([4, 5]), 6)[0].tolist() == [2, 3]
    assert all(type(a) is int for a in card_deal(13, 4, 6))


@pytest.mark.parametrize("row, card", [(0, 7), (0, 0), (1, 10), (1, -1)])
def test_card_deal_broadcast_refuses_a_card_outside_its_own_deal(row, card):
    # (T_eff, N) = (2, 3) in row 0 and (3, 3) in row 1: card 7 is in the second deal but not the first
    T_eff, N, cards = np.array([[2], [3]]), np.array([[3], [3]]), np.array([[1, 2, 3, 4, 5, 6], [1, 2, 3, 7, 8, 9]])
    card_deal(cards, T_eff, N)
    cards[row, 2] = card
    with pytest.raises(InvalidConfigurationError, match="outside"):
        card_deal(cards, T_eff, N)


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
    chain = pilot_chain(dims)
    assert assignment_to_dict(chain)["pilot_sets"] == [[1, 3, 5], [1, 2, 4, 6], [1, 2, 3, 5], [2, 4, 6]]


def test_small_example_pilot_positions():
    chain = pilot_chain(Dims.create(2, 3, 4, 1))  # the top row is the cell's
    assert chain.theta[-1] == max(2, 6 - 4) == 2
    assert chain.P[-1].sum(axis=1).tolist() == [1, 1]
    assert np.flatnonzero(chain.P[-1]).tolist() == [0, 5]  # 0-based flat positions t N + i
    assert chain.data_index.tolist() == [1, 2, 3, 4, 6, 7]
    assert chain.ell[-1] == 0 and chain.n_useful == 12


def test_square_case_pilot_sets_are_maximal():
    # R = T_eff forces |P_t| = T_eff*Q for every antenna
    for dims in [Dims.create(2, 2, 5, 1, T_eff=2), Dims.create(3, 3, 7, 2, T_eff=3)]:
        chain = pilot_chain(dims)
        assert (chain.P[-1].sum(axis=1) == dims.T_eff * dims.Q).all()
        # a chain of one cell: no partition, L and G empty and the anchors -1
        assert len(chain) == 1 and not chain.L.any() and not chain.G.any() and (chain.anchors == -1).all()


def test_regime_violation_raises():
    with pytest.raises(InvalidConfigurationError):
        pilot_chain(Dims(T=2, R=3, N=4, Q=2, T_eff=2))  # N = T_eff*Q
    with pytest.raises(InvalidConfigurationError):
        pilot_chain(Dims(T=2, R=12, N=4, Q=1, T_eff=2))  # R too large


def test_properties_hold_on_regime_grid():
    chains = [pilot_chain(top) for top in regime_chains(8)]
    assert [cell.dims for chain in chains for cell in cuts(chain)] == list(regime_cells(8))
    assert sum(map(len, chains)) == 320
    assert verify_pilot_properties(chains) == []


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
        chain = pilot_chain(d)
        cur, prev = dealt(d, d.R), dealt(d, d.R - 1)
        assert faces(chain.P[-1]) == cur, d
        assert faces(chain.L[-1]) == [p - c for p, c in zip(prev, cur)], d


def assert_chain_matches_per_R_builds(top):
    # each cut equals the chain built for its own cell, field by field, on read-only views of the top's rows
    chain = pilot_chain(top)
    assert chain.cut(top.R) is chain
    assert [cell.dims.R for cell in cuts(chain)] == list(range(top.T_eff, top.R + 1))
    for cell in cuts(chain):
        assert cell == pilot_chain(top.with_rx(cell.dims.R)), cell.dims
        for name in CHAIN_FIELDS:
            a = getattr(cell, name)
            assert np.shares_memory(a, getattr(chain, name)) and not a.flags.writeable, (cell.dims, name)


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
    assert verify_pilot_properties([chain]) == []
    # P_t(R'-1) is the disjoint union of P_t(R') and L_t(R')
    assert np.array_equal(chain.P[:-1], chain.P[1:] | chain.L[1:]) and not (chain.P[1:] & chain.L[1:]).any()
    T_eff, N = dims.T_eff, dims.N
    image = [card_deal(j, T_eff, N) for j in range(1, T_eff * N + 1)]
    assert sorted(image) == list(itertools.product(range(1, T_eff + 1), range(1, N + 1)))


def test_chain_rejects_cells_outside_the_regime():
    with pytest.raises(InvalidConfigurationError):
        pilot_chain(Dims(T=2, R=12, N=4, Q=1, T_eff=2))


def test_corrupted_assignment_fails_checks():
    dims = Dims.create(2, 2, 5, 1, T_eff=2)
    chain = pilot_chain(dims)  # one cell, R = T_eff
    P = assignment_to_dict(chain)["pilot_sets"]
    # drop one pilot face: the total-count property must fail
    [(failed, report)] = verify_pilot_properties([with_cell(chain, 0, P=[P[0][1:], P[1]])])
    assert failed == dims and list(report) == list(PROPERTIES[:4])  # R = T_eff: no partition to check
    assert not report["pilot_total"]["ok"]
    assert report["pilot_total"]["detail"]["total"] == chain.theta[0] - 1
    # move a face across antennas: the per-antenna cap must fail
    [(_, report)] = verify_pilot_properties([with_cell(chain, 0, P=[P[0][1:], sorted(P[1] + P[0][:1])])])
    assert not report["pilot_size_cap"]["ok"]


# Each corruption changes the top cell of one chain. (3,5,8,2): theta_R = 14, cap T_eff Q = 6, faces up to
# N - ell = 8, G_pool = [1:6], cards 15 and 16 deal faces 7 and 8 to antennas 3 and 1
#   P = (1,2,4,5,7), (2,3,5,6,8), (1,3,4,6); L = (8,), (), (7,); G = (1,5), (2,6), (3,4)
CELL = Dims(T=3, R=5, N=8, Q=2, T_eff=3)
# (2,3,6,1): ell = 2, so faces up to N - ell = 4; P = (1,), (2,); L = (3,), (4,); G = (1,), (2,)
CELL_WITH_ELL = Dims(T=2, R=3, N=6, Q=1, T_eff=2)
DEALT = [1, 2, 4, 5, 7, 10, 11, 13, 14, 16, 17, 19, 20, 22]  # the flat pilots of CELL, from the deal
CORRUPTIONS = {
    # theta_R = 15 asks for card 15 too, so the pilots of the deal no longer equal P
    "pilot_total": (
        {"theta": 15},
        {"pilot_total": {"total": 14, "theta_R": 15}, "flat_embedding": {"pilots": DEALT, "expected": DEALT + [23]}},
    ),
    # faces 3 and 6 move from antenna 2 to antenna 1
    "pilot_size_cap": (
        {"P": ((1, 2, 3, 4, 5, 6, 7), (2, 5, 8), (1, 3, 4, 6))},
        {
            "pilot_size_cap": {"oversized": [(1, 7)], "cap": 6},
            "flat_embedding": {"pilots": [1, 2, 3, 4, 5, 6, 7, 10, 13, 16, 17, 19, 20, 22], "expected": DEALT},
        },
    ),
    # face 6 of antenna 3 gives way to face 7: the sizes hold, the deal does not
    "flat_embedding": (
        {"P": ((1, 2, 4, 5, 7), (2, 3, 5, 6, 8), (1, 3, 4, 7))},
        {"flat_embedding": {"pilots": DEALT[:-1] + [23], "expected": DEALT}},
    ),
    # cards 1..15 dealt as pilots and theta_R = 15 agree, but one data face is missing from the RN - ell outputs
    "useful_output_size": (
        {"theta": 15, "P": ((1, 2, 4, 5, 7), (2, 3, 5, 6, 8), (1, 3, 4, 6, 7))},
        {"useful_output_size": {"useful": 40, "expected": 39}},
    ),
    # face 7 is in L_1 and L_2, then face 8 in L_1 and L_3: the last clash is reported
    "L_disjoint": ({"L": ((7, 8), (7,), (8,))}, {"L_disjoint": {"face": 8, "antennas": (1, 3)}}),
    # on CELL_WITH_ELL: faces 5 and 6 lie past N - ell = 4, so the pool G covers is unchanged
    "L_in_range": ({"L": ((3, 6), (4, 5))}, {"L_in_range": {"outside": [(1, 6), (2, 5)], "range": (1, 4)}}),
    "G_size": ({"G": ((1, 5, 6), (2,), (3, 4))}, {"G_size": {"bad": [(1, 3), (2, 1)], "expected": 2}}),
    # two Q-sets that share a face cannot cover the T_eff Q faces of the pool
    "G_disjoint": (
        {"G": ((1, 5), (2, 6), (4, 5))},
        {
            "G_disjoint": {"face": 5, "antennas": (1, 3)},
            "G_covers": {"union": [1, 2, 4, 5, 6], "expected": [1, 2, 3, 4, 5, 6]},
        },
    ),
    "G_meets_pilots": ({"G": ((3, 6), (2, 4), (1, 5))}, {"G_meets_pilots": {"antennas": [1]}}),
    "G_covers": (
        {"G": ((1, 7), (2, 6), (3, 4))},
        {"G_covers": {"union": [1, 2, 3, 4, 6, 7], "expected": [1, 2, 3, 4, 5, 6]}},
    ),
}


@pytest.mark.parametrize("prop", PROPERTIES)
def test_each_pilot_property_fails_on_its_corruption(prop):
    dims = CELL_WITH_ELL if prop == "L_in_range" else CELL
    chain = pilot_chain(dims)
    assert verify_pilot_properties([chain]) == []
    changes, failures = CORRUPTIONS[prop]
    corrupted = [with_cell(chain, -1, **changes)]
    [(failed, report)] = verify_pilot_properties(corrupted)
    assert failed == dims and list(report) == list(PROPERTIES)
    assert {name: r["detail"] for name, r in report.items() if not r["ok"]} == failures
    assert all(r["detail"] is None for r in report.values() if r["ok"])
    assert pilot_property_oracle(corrupted) == [(failed, report)]


def test_a_dropped_face_past_the_useful_range_fails_only_L_in_range():
    # L_2 = (4, 6): face 6 lies past N - ell = 4, while face 4 stays dropped, so G_covers still holds
    chain = pilot_chain(CELL_WITH_ELL)
    [(_, report)] = verify_pilot_properties([with_cell(chain, -1, L=[[3], [4, 6]])])
    assert {name: r["detail"] for name, r in report.items() if not r["ok"]} == {
        "L_in_range": {"outside": [(2, 6)], "range": (1, 4)}
    }


def test_flat_embedding_compares_P_with_the_deal():
    # swap the cards of faces 6 (card 6) and 7 (card 15) of antenna 3: the masks stay, but only R' = 5 has
    # theta_R' = 14 between the two cards, so only its P differs from the deal's first theta_R' cards
    chain = pilot_chain(CELL)
    cards = chain.cards.copy()
    cards[2, [5, 6]] = cards[2, [6, 5]]
    [(failed, report)] = verify_pilot_properties([dataclasses.replace(chain, cards=cards)])
    assert failed == CELL
    assert {name: r["detail"] for name, r in report.items() if not r["ok"]} == {
        "flat_embedding": {"pilots": DEALT, "expected": DEALT[:-1] + [23]}
    }


def test_the_first_cell_of_a_chain_has_no_partition_to_check():
    # R' = T_eff drops no face, so bits set in its L and G rows are read by no property
    chain = pilot_chain(CELL)
    assert verify_pilot_properties([with_cell(chain, 0, L=[[1], [2], [3]], G=[[1, 2, 3], [], []])]) == []


def test_a_failing_cell_keeps_the_transmit_antennas_of_its_chain():
    top = Dims(T=5, R=4, N=8, Q=2, T_eff=3)
    chain = pilot_chain(top)  # R' = 3, 4
    corrupted = with_cell(with_cell(chain, 0, theta=chain.theta[0] - 1), 1, theta=chain.theta[1] - 1)
    assert [dims for dims, _ in verify_pilot_properties([corrupted])] == [top.with_rx(3), top]


def test_each_chain_reads_alike_alone_and_in_a_padded_batch():
    # the small chain's cells sit in a grid padded to the large one's 9 antennas and 10 faces
    small = with_cell(pilot_chain(CELL_WITH_ELL), -1, L=[[3], [4, 6]])
    large = with_cell(pilot_chain(Dims(T=9, R=12, N=10, Q=1, T_eff=9)), 3, G=[[1]] * 9)
    alone = [verify_pilot_properties([chain]) for chain in (large, small, large)]
    assert all(alone) and verify_pilot_properties([large, small, large]) == [f for failures in alone for f in failures]


def test_the_checker_takes_any_iterable_of_chains():
    assert verify_pilot_properties([]) == []
    bad = with_cell(pilot_chain(CELL), -1, theta=15)

    def chains():
        yield from (pilot_chain(top) for top in regime_chains(5))
        yield bad

    failures = verify_pilot_properties(chains())
    assert [dims for dims, _ in failures] == [CELL] and failures == verify_pilot_properties([bad])


def test_the_set_oracle_finds_no_failure_on_the_regime_grid():
    assert pilot_property_oracle(pilot_chain(top) for top in regime_chains(8)) == []


def test_the_batch_reports_each_failing_cell_in_order():
    chain = pilot_chain(CELL)  # R' = 3, 4, 5
    first, second = (with_cell(chain, k, theta=chain.theta[k] + 1) for k in (1, 2))
    failures = verify_pilot_properties([first, second])
    assert [dims for dims, _ in failures] == [CELL.with_rx(4), CELL]
    for _, report in failures:
        assert [name for name, r in report.items() if not r["ok"]] == ["pilot_total", "flat_embedding"]


@st.composite
def corrupted_chain(draw):
    """A chain with N <= 10 and one cell changed: one bit of its P, L or G flipped, or its theta moved by 1."""
    chain = pilot_chain(draw(regime_cell(n_max=10)))
    # L and G count only past a chain's first cell, R' = T_eff
    name = draw(st.sampled_from(["P", "L", "G", "theta"] if len(chain) > 1 else ["P", "theta"]))
    k = draw(st.integers(name in "LG", len(chain) - 1))
    a = getattr(chain, name).copy()
    if name == "theta":
        a[k] += draw(st.sampled_from([-1, 1]))
    else:
        t, i = draw(st.integers(0, chain.dims.T_eff - 1)), draw(st.integers(0, chain.dims.N - 1))
        a[k, t, i] ^= True
    return dataclasses.replace(chain, **{name: a})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(corrupted_chain(), regime_cell(n_max=10))
def test_the_checker_agrees_with_the_set_oracle_on_one_flipped_bit(chain, other):
    # a sound chain of another shape rides along, so the padded grid must keep the cells apart
    chains = [pilot_chain(other), chain]
    assert verify_pilot_properties(chains) == pilot_property_oracle(chains)


def assert_views_equal_the_tuple_construction(tops, chains):
    """Each chain's cells against the oracle's, 1-based as printed; returns the number of cells."""
    cells = 0
    for top, chain in zip(tops, chains, strict=True):
        assert chain.dims == top
        for cell, oracle in zip(cuts(chain), tuple_chain(top), strict=True):
            view = assignment_to_dict(cell)
            want = {k: v for k, v in dataclasses.asdict(oracle).items() if v is not None and k != "dims"}
            assert set(view) - {"dims", "useful_outputs"} == set(want), cell.dims
            assert json.dumps({k: view[k] for k in want}) == json.dumps(want), cell.dims
            cells += 1
    return cells


def test_every_view_equals_the_tuple_construction_up_to_N_16():
    # P_t, the data sets, flat pilots and data, ell, L_t, G_t, G_pool and anchors, 1-based as printed,
    # from the masks of one card-number array per chain against the oracle's deal and threshold passes
    tops = list(regime_chains(16))
    assert assert_views_equal_the_tuple_construction(tops, [pilot_chain(top) for top in tops]) == 3870


def test_one_deal_of_every_chain_up_to_N_16_equals_the_tuple_construction():
    # the 314 chains in one padded pass, to 15 antennas and 16 faces
    tops = list(regime_chains(16))
    assert assert_views_equal_the_tuple_construction(tops, pilot_chains(tops)) == 3870


CHAIN_FIELDS = ("cards", "theta", "ell", "P", "L", "G", "anchors")


def chain_shapes(dims):
    """The shape of each field of the chain of dims: no padding of a batch shows."""
    K, T_eff, N = dims.R - dims.T_eff + 1, dims.T_eff, dims.N
    return [(T_eff, N), (K,), (K,), (K, T_eff, N), (K, T_eff, N), (K, T_eff, N), (K, T_eff)]


@st.composite
def regime_cells_with_repeats(draw):
    """Regime cells of mixed N, Q and T_eff, some at R = T_eff, below rx_needed or with T > T_eff, some repeated."""
    cells = draw(st.lists(regime_cell(n_max=12), min_size=1, max_size=6))
    repeats = draw(st.lists(st.integers(0, len(cells) - 1), max_size=3))
    return draw(st.permutations(cells + [cells[i] for i in repeats]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(regime_cells_with_repeats())
@example([Dims(T=1, R=1, N=2, Q=1, T_eff=1), Dims(T=6, R=11, N=40, Q=3, T_eff=6), Dims(T=4, R=3, N=8, Q=2, T_eff=3),
          Dims(T=1, R=1, N=2, Q=1, T_eff=1), Dims(T=9, R=9, N=10, Q=1, T_eff=9), Dims(T=3, R=5, N=8, Q=2, T_eff=3)])
def test_chains_dealt_together_equal_each_chain_dealt_alone(tops):
    chains = pilot_chains(tops)
    assert [chain.dims for chain in chains] == tops
    for top, chain in zip(tops, chains, strict=True):
        alone = pilot_chain(top)
        assert [getattr(chain, f).shape for f in CHAIN_FIELDS] == chain_shapes(top), top
        for name in CHAIN_FIELDS:
            assert np.array_equal(getattr(chain, name), getattr(alone, name)), (top, name)
            assert not getattr(chain, name).flags.writeable, (top, name)
        assert chain == alone, top


def test_a_batch_deals_nothing_for_no_cells_and_refuses_any_cell_outside_the_regime():
    assert pilot_chains([]) == [] and pilot_chains(iter([])) == []
    cells = [CELL, Dims(T=2, R=12, N=4, Q=1, T_eff=2), CELL_WITH_ELL]  # the second needs R <= 3
    with pytest.raises(InvalidConfigurationError, match="outside valid regime"):
        pilot_chains(cells)


def test_a_chain_is_read_only_and_cuts_to_each_cell():
    chain = pilot_chain(Dims(T=3, R=5, N=8, Q=2, T_eff=3))
    assert len(chain) == 3 and chain.cut(5) is chain and chain == pilot_chain(chain.dims)
    # a cut keeps T and the rows up to its own cell; it is no sequence of cells
    below = chain.cut(4)
    assert below.dims == Dims(T=3, R=4, N=8, Q=2, T_eff=3) and len(below) == 2 and below.cut(4) is below
    assert below.cards is chain.cards and below != chain and below.theta.tolist() == [18, 16]
    with pytest.raises(TypeError):
        chain[0]
    for a in (chain.cards, chain.theta, chain.ell, chain.P, chain.L, chain.G, chain.anchors, below.P):
        assert not a.flags.writeable
    # the full deal: each card number once, those past theta_{T_eff} = T_eff^2 Q pilots of no cell
    assert sorted(chain.cards.ravel().tolist()) == list(range(1, 25)) and chain.theta.tolist() == [18, 16, 14]
    assert not chain.L[0].any() and not chain.G[0].any() and (chain.anchors[0] == -1).all()


def test_a_cut_outside_the_chain_is_refused():
    chain = pilot_chain(CELL)  # R' = 3, 4, 5
    for R in (2, 6):  # T_eff - 1 and dims.R + 1
        with pytest.raises(InvalidConfigurationError, match=f"R={R} outside the chain R' = 3..5"):
            chain.cut(R)
    with pytest.raises(InvalidConfigurationError, match="outside the chain R' = 3..4"):
        chain.cut(4).cut(5)  # a cut ends at its own cell


def test_assignment_json_dump_is_sorted():
    chain = pilot_chain(Dims.create(2, 3, 4, 1))
    d = assignment_to_dict(chain)
    assert d["pilots"] == sorted(d["pilots"])
    assert d["pilot_sets"] == [sorted(p) for p in d["pilot_sets"]]
    assert d["useful_outputs"] == [1, 12]
    assert d["L_sets"] == [[3], [4]]
