"""Pilot-set combinatorics: dealing bijection, set construction, properties."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadingdof.model import Dims, InvalidConfigurationError, regime_cells, regime_chains
from fadingdof.pilots import (
    assignment_to_dict,
    build_pilot_sets,
    card_deal,
    mod_star,
    pilot_chain,
    pilot_count,
    verify_pilot_properties,
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
    assert pa.pilot_sets == ((1, 3, 5), (1, 2, 4, 6), (1, 2, 3, 5), (2, 4, 6))


def test_small_example_pilot_positions():
    pa = build_pilot_sets(Dims.create(2, 3, 4, 1))
    assert pa.theta_R == max(2, 6 - 4) == 2
    assert all(len(p) == 1 for p in pa.pilot_sets)
    assert pa.pilots == (1, 6)
    assert pa.data == (2, 3, 4, 5, 7, 8)
    assert pa.ell == 0 and len(pa.useful_outputs) == 12


def test_square_case_pilot_sets_are_maximal():
    # R = T_eff forces |P_t| = T_eff*Q for every antenna
    for dims in [Dims.create(2, 2, 5, 1, T_eff=2), Dims.create(3, 3, 7, 2, T_eff=3)]:
        pa = build_pilot_sets(dims)
        assert all(len(p) == dims.T_eff * dims.Q for p in pa.pilot_sets)
        assert pa.L_sets is None


def test_regime_violation_raises():
    with pytest.raises(InvalidConfigurationError):
        build_pilot_sets(Dims(T=2, R=3, N=4, Q=2, T_eff=2))  # N = T_eff*Q
    with pytest.raises(InvalidConfigurationError):
        build_pilot_sets(Dims(T=2, R=12, N=4, Q=1, T_eff=2))  # R too large


def test_properties_hold_on_regime_grid():
    for dims in regime_cells(8):
        report = verify_pilot_properties(build_pilot_sets(dims))
        bad = {k: v for k, v in report.items() if not v["ok"]}
        assert not bad, (dims, bad)


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
    def faces(d, R):
        sets = [set() for _ in range(d.T_eff)]
        for j in range(1, pilot_count(d.T_eff, R, d.N, d.Q) + 1):
            t, i = card_deal(j, d.T_eff, d.N)
            sets[t - 1].add(i)
        return sets

    cells = [d for d in regime_cells(10) if d.R > d.T_eff]
    assert len(cells) == 632
    for d in cells:
        pa = build_pilot_sets(d)
        cur, prev = faces(d, d.R), faces(d, d.R - 1)
        assert pa.pilot_sets == tuple(tuple(sorted(c)) for c in cur), d
        assert pa.L_sets == tuple(tuple(sorted(p - c)) for p, c in zip(prev, cur)), d


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
    for pa in chain:
        assert all(v["ok"] for v in verify_pilot_properties(pa).values()), pa.dims
    # P_t(R'-1) is the disjoint union of P_t(R') and L_t(R')
    for prev, pa in zip(chain, chain[1:]):
        for below, p, lost in zip(prev.pilot_sets, pa.pilot_sets, pa.L_sets):
            assert set(below) == set(p) | set(lost) and len(below) == len(p) + len(lost), pa.dims
    T_eff, N = dims.T_eff, dims.N
    image = [card_deal(j, T_eff, N) for j in range(1, T_eff * N + 1)]
    assert sorted(image) == list(itertools.product(range(1, T_eff + 1), range(1, N + 1)))


def test_chain_rejects_cells_outside_the_regime():
    with pytest.raises(InvalidConfigurationError):
        pilot_chain(Dims(T=2, R=12, N=4, Q=1, T_eff=2))


def test_corrupted_assignment_fails_checks():
    dims = Dims.create(2, 2, 5, 1, T_eff=2)
    pa = build_pilot_sets(dims)
    # drop one pilot index: the total-count property must fail
    smaller = dataclasses.replace(pa, pilot_sets=(pa.pilot_sets[0][1:], pa.pilot_sets[1]))
    report = verify_pilot_properties(assignment=smaller)
    assert not report["pilot_total"]["ok"]
    assert report["pilot_total"]["detail"]["total"] == pa.theta_R - 1
    # move an index across antennas: the per-antenna cap must fail
    moved = dataclasses.replace(
        pa,
        pilot_sets=(
            pa.pilot_sets[0][1:],
            tuple(sorted(pa.pilot_sets[1] + (pa.pilot_sets[0][0],))),
        ),
    )
    report = verify_pilot_properties(assignment=moved)
    assert not report["pilot_size_cap"]["ok"]


PROPERTIES = [
    "pilot_total",
    "pilot_size_cap",
    "flat_embedding",
    "useful_output_size",
    "L_disjoint",
    "L_in_range",
    "G_size",
    "G_disjoint",
    "G_meets_pilots",
    "G_covers",
]

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
    pa = build_pilot_sets(Dims(T=3, R=5, N=8, Q=2, T_eff=3))
    assert verify_pilot_properties(pa) == {name: {"ok": True, "detail": None} for name in PROPERTIES}
    changes, failures = CORRUPTIONS[prop]
    report = verify_pilot_properties(dataclasses.replace(pa, **changes))
    assert list(report) == PROPERTIES
    assert {name: r["detail"] for name, r in report.items() if not r["ok"]} == failures
    assert all(r["detail"] is None for r in report.values() if r["ok"])


def test_assignment_json_dump_is_sorted():
    pa = build_pilot_sets(Dims.create(2, 3, 4, 1))
    d = assignment_to_dict(pa)
    assert d["pilots"] == sorted(d["pilots"])
    assert d["pilot_sets"] == [sorted(p) for p in d["pilot_sets"]]
    assert d["useful_outputs"] == [1, 12]
    assert d["L_sets"] == [[3], [4]]
