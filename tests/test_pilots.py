"""Pilot-set combinatorics: dealing bijection, set construction, properties."""

import dataclasses
import itertools

import pytest

from fadingdof.model import Dims, InvalidConfigurationError, regime_cells
from fadingdof.pilots import (
    assignment_to_dict,
    build_pilot_sets,
    card_deal,
    mod_star,
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
        report = verify_pilot_properties(dims)
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


def test_assignment_json_dump_is_sorted():
    pa = build_pilot_sets(Dims.create(2, 3, 4, 1))
    d = assignment_to_dict(pa)
    assert d["pilots"] == sorted(d["pilots"])
    assert d["pilot_sets"] == [sorted(p) for p in d["pilot_sets"]]
    assert d["useful_outputs"] == [1, 12]
    assert d["L_sets"] == [[3], [4]]
