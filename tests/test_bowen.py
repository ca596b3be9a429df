"""Orbit distances, the greedy counter and the verifiers, cross-checked
against brute force on small inputs, and the greedy count against an exact
tiny-case search."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from polyent import (
    ExpHeights,
    PowerHeights,
    SeparationCheck,
    TowerPoint,
    bowen_dist,
    circle_rotation,
    full_shift,
    make_system,
    periodic_point,
    product_system,
    separated_shift_family,
    spanning_witness,
    sturmian_point,
    sturmian_system,
    tower_dist,
    tower_sample,
    tower_system,
    verify_separated,
    verify_spanning,
)
from polyent import systems
from polyent.systems import ProductSample
from polyent.bowen import bowen_block, greedy_separated_mask
from polyent.estimation import METHOD_GREEDY_SEPARATED, count_table

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# orbit distances

def test_bowen_dist_rotation_is_constant_in_n():
    system = circle_rotation(0.1)
    assert bowen_dist(system, 0.0, 0.2, 5) == pytest.approx(0.2, abs=1e-15)
    assert bowen_dist(system, 0.0, 0.2, 1) == pytest.approx(0.2, abs=1e-15)
    assert bowen_dist(system, 0.3, 0.3, 7) == 0.0
    with pytest.raises(ValueError):
        bowen_dist(system, 0.0, 0.2, 0)


def test_bowen_dist_tower_grows_with_window():
    fam = ExpHeights()
    system = tower_system(fam)
    x, y = TowerPoint(0.0, 1), TowerPoint(0.0, 2)
    # iterates in closed form, angle + k * height
    expected = max(tower_dist(TowerPoint(k * math.exp(-1), 1), TowerPoint(k * math.exp(-2), 2),
                              fam)
                   for k in range(10))
    assert bowen_dist(system, x, y, 10) == pytest.approx(expected, abs=1e-12)
    assert bowen_dist(system, x, y, 10) > bowen_dist(system, x, y, 1)


def test_subshift_kernel_matches_stepping():
    system = sturmian_system(GOLDEN)
    base = sturmian_point(GOLDEN)
    pts = [base.shifted(i) for i in (0, 1, 4, 9)]
    for n in (1, 3, 10):
        got = bowen_block(system, pts, pts, n)
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                assert got[i, j] == bowen_dist(system, x, y, n)


def test_full_shift_kernel_matches_stepping():
    system = full_shift(2)
    pts = system.sampler(4)
    assert bowen_block(system, [pts[0]], [pts[3]], 2)[0, 0] == bowen_dist(system, pts[0], pts[3], 2)


def test_bowen_block_matches_pointwise_and_kernel():
    system = tower_system(PowerHeights(2))
    pa = tower_sample(3, [0, 1, 3])
    pb = tower_sample(2, [2])
    n = 8
    by_hand = np.array([[bowen_dist(system, p, q, n) for q in pb] for p in pa])
    assert np.allclose(bowen_block(system, pa, pb, n), by_hand, atol=1e-12)


# ---------------------------------------------------------------------------
# greedy families

def _kept(system, sample, n, eps, **kwargs):
    # sample indices of the points the greedy counter keeps, in order
    return np.flatnonzero(greedy_separated_mask(system, sample, n, eps, **kwargs)).tolist()


def test_greedy_separated_exact_on_dyadic_grid():
    system = circle_rotation(0.0)
    sample = [j / 8 for j in range(8)]
    assert _kept(system, sample, 3, 0.25) == [0, 2, 4, 6]


def test_greedy_separated_validations_and_duplicates():
    system = circle_rotation(0.0)
    with pytest.raises(ValueError):
        greedy_separated_mask(system, [0.0], 3, 0.0)
    with pytest.raises(ValueError):
        greedy_separated_mask(system, [0.0], 0, 0.1)
    assert _kept(system, [0.2, 0.2, 0.2], 2, 0.1) == [0]
    # scale above the diameter keeps only the first point
    assert _kept(system, [j / 8 for j in range(8)], 2, 0.75) == [0]


def test_greedy_separated_is_chunk_invariant():
    fam = PowerHeights(2)
    system = tower_system(fam)
    sample = tower_sample(11, range(0, 7))
    assert _kept(system, sample, 16, 0.1) == _kept(system, sample, 16, 0.1, chunk=3)


def _sequential_rule(d, eps):
    # the points the sequential rule keeps, given all pair distances
    kept = []
    for k in range(len(d)):
        if all(d[k, j] >= eps for j in kept):
            kept.append(k)
    return kept


def _greedy_by_hand(system, sample, n, eps):
    return _sequential_rule(bowen_block(system, sample, sample, n), eps)


# tower grids tie many pairs at dyadic distances and repeat points, deep
# levels crowd the height band, and the product and the shift take their
# own pair lists
_GRID = tower_sample(8, [0, 1, 3])
_DEEP = [TowerPoint(0.5, lv) for lv in (40, 41, 900, 901, 902)]
_GOLDEN_SHIFTS = [sturmian_point(GOLDEN).shifted(i) for i in range(0, 40, 3)]
GREEDY_CASES = [
    (tower_system(PowerHeights(2)), list(_GRID), (1, 3, 40), (0.05, 0.125, 0.25, 0.5)),
    (tower_system(PowerHeights(2)), _GRID[:9] + _GRID[2:6] + _DEEP + _GRID[::5],
     (1, 3, 40), (0.05, 0.125, 0.25, 0.5)),
    (product_system(tower_system(PowerHeights(2)), sturmian_system(GOLDEN)),
     [(p, q) for p in _GRID[::3] for q in _GOLDEN_SHIFTS[:4]], (1, 5), (0.125, 0.25, 0.5)),
    (full_shift(2), full_shift(2).sampler(40), (1, 3, 6), (0.125, 0.5, 1.0)),
]


@pytest.mark.parametrize("chunk", range(1, 8))
def test_greedy_separated_matches_the_sequential_rule(chunk):
    for system, sample, ns, epss in GREEDY_CASES:
        for n in ns:
            for eps in epss:
                got = _kept(system, sample, n, eps, chunk=chunk)
                assert got == _greedy_by_hand(system, sample, n, eps)


# small tower samples that repeat points, so a row's band holds its own
# duplicates and other points of its level next to points across heights
_STEPPED_SAMPLES = [
    (PowerHeights(1), list(tower_sample(7, [0, 2, 30, 31])) * 2),
    (ExpHeights(), [TowerPoint(x, lv) for x in (0.0, 0.31, 0.3, 0.98) for lv in (0, 1, 4, 40)]
     + [TowerPoint(0.31, 4), TowerPoint(0.0, 40), TowerPoint(0.0, 0)]),
]


@pytest.mark.parametrize("fam,sample", _STEPPED_SAMPLES, ids=["power:1", "exp"])
def test_greedy_separated_matches_a_stepped_sequential_loop(fam, sample):
    system = tower_system(fam)
    for n in (2, 3, 40):
        # every pair stepped by the reference
        d = np.array([[bowen_dist(system, p, q, n) for q in sample] for p in sample])
        for eps in (0.013, 0.07, 0.123, 0.27):
            # no pair sits within float reach of the scale, so stepping and
            # the closed-form kernel cannot split a tie
            assert np.abs(d - eps).min() > 1e-9
            want = _sequential_rule(d, eps)
            for chunk in (1, 7, 2048):
                assert _kept(system, sample, n, eps, chunk=chunk) == want


def test_greedy_drift_scans_only_rows_with_a_survivor_across_heights(monkeypatch):
    # one rule for rows and blocks: a query drift-scans once if one of its
    # step-0 survivors lies at another height, and not at all otherwise.
    # The evaluator keeps exactly its step-0 survivors, so the kept pairs
    # tell which queries must scan
    scans = []
    real_peak = systems._drift_peak

    def peak(*args):
        scans.append(1)
        return real_peak(*args)

    # per kind: queries, and queries with a survivor across heights
    queries = {"row": [0, 0], "block": [0, 0]}

    def evaluate(a, b, i, j, n, cap):
        before = len(scans)
        live, d = systems._tower_evaluate(a, b, i, j, n, cap)
        cross = bool((a["height"][i[live]] != b["height"][j[live]]).any())
        assert len(scans) - before == cross
        kind = queries["row" if len(a) == 1 else "block"]
        kind[0] += 1
        kind[1] += cross
        return live, d

    monkeypatch.setattr(systems, "_drift_peak", peak)
    system = dataclasses.replace(tower_system(PowerHeights(1)), evaluate=evaluate)
    # grid 300 makes the sample span more than one chunk, so the greedy
    # loop asks block queries as well as row queries
    record, = count_table(system, [32], [0.1], METHOD_GREEDY_SEPARATED, grid=300)
    assert record.count > 0
    for total, cross in queries.values():
        assert 0 < cross < total
    # a block whose band holds a second level, 1.1e-5 higher, but whose
    # step-0 survivors all share the rows' level: no drift scan
    n, cap = 32, 0.1
    a = system.pack([TowerPoint(x / 10, 300) for x in range(5)], n)
    b = system.pack([TowerPoint(x / 10, 300) for x in range(10)]
                    + [TowerPoint(x, 301) for x in (0.65, 0.75, 0.85)], n)
    assert (np.abs(b["height"] - a["height"][0]) <= systems._band_width(n, cap)).all()
    before = len(scans)
    i, j, d = system.orbit_pairs(a, b, n, cap)
    assert len(scans) == before and i.size
    assert (b["height"][j] == a["height"][0]).all()


def _spanning_by_hand(system, centers, sample, n, eps):
    d = bowen_block(system, sample, centers, n)
    near = d.min(axis=1) if len(centers) else np.full(len(sample), np.inf)
    misses = np.flatnonzero(near > eps)
    return (len(misses), int(misses[0]) if misses.size else None,
            misses.size == 0 and not (near == eps).any())


@pytest.mark.parametrize("chunk", range(1, 8))
def test_verify_spanning_matches_a_full_scan(chunk):
    # base-circle centers a quarter turn apart put base grid points exactly
    # at eps = 1/8 and cover them strictly at 0.2; the upper levels and the
    # sparse centers leave points uncovered
    fam = PowerHeights(2)
    system = tower_system(fam)
    base = list(tower_sample(16, [0])) + _DEEP
    full = list(tower_sample(16, [0, 1, 2])) + _DEEP
    families = [tower_sample(4, [0]), tower_sample(4, [0, 2]),
                [TowerPoint(0.0, 0), TowerPoint(0.5, 1)] + _DEEP[::2], []]
    for sample in (base, full):
        for centers in families:
            for n in (1, 3, 40):
                for eps in (0.0625, 0.125, 0.2, 0.25):
                    check = verify_spanning(system, centers, sample, n, eps, chunk=chunk)
                    assert ((check.uncovered_count, check.first_uncovered,
                             check.all_strict)
                            == _spanning_by_hand(system, centers, sample, n, eps))
    rotation = circle_rotation(0.3)
    points = [j / 16 for j in range(16)]
    for eps in (0.0625, 0.125, 0.25):
        check = verify_spanning(rotation, [0.0, 0.25, 0.5], points, 7, eps, chunk=chunk)
        assert ((check.uncovered_count, check.first_uncovered, check.all_strict)
                == _spanning_by_hand(rotation, [0.0, 0.25, 0.5], points, 7, eps))


def _greedy_whole_pack(system, sample, n, eps):
    """The sequential greedy rule over one pack of the whole sample."""
    packed = system.pack(sample, n)
    keep = np.ones(len(packed), bool)
    for i in range(len(packed)):
        if keep[i]:
            _, j, d = system.orbit_pairs(packed[i:i + 1], packed[i + 1:], n, eps)
            keep[i + 1 + j[d < eps]] = False
    return keep


def _streamed_cases():
    """(id, system, sample, centers, n, eps) over every built-in sample
    kind: grids over a stepped range and a tuple, lazy products in both
    factor orders, tower x shift included, and plain lists."""
    tower, exp = tower_system(PowerHeights(1)), tower_system(ExpHeights())
    grid = tower_sample(9, range(25, 0, -2))
    cases = [("grid stepped", tower, grid, tower_sample(4, range(25, 0, -4)), 5, 0.2),
             ("grid tuple", exp, tower_sample(12, (0, 7, 2, 30, 7, 1)),
              tower_sample(3, (0, 2)), 9, 0.15),
             ("tower list", tower, list(grid), list(grid)[::7], 5, 0.2)]
    for spec in (f"tower-power:2,sturmian:{GOLDEN!r}", f"sturmian:{GOLDEN!r},tower-power:2"):
        system = make_system("product:" + spec)
        sample = system.sampler(4)
        cases.append((spec, system, sample, list(sample)[::5], 6, 0.3))
    sample = ProductSample(tower_sample(3, range(4)), tower_sample(4, range(5, 0, -1)))
    cases.append(("tower x tower", product_system(exp, tower), sample, list(sample)[::5], 6, 0.3))
    sturmian = sturmian_system(GOLDEN)
    cases.append(("sturmian list", sturmian, sturmian.sampler(60),
                  sturmian.sampler(60)[::4], 7, 0.25))
    return cases


@pytest.mark.parametrize("chunk", [1, 7, 2048])
@pytest.mark.parametrize("case", _streamed_cases(), ids=lambda c: c[0])
def test_streamed_counter_and_audit_match_a_whole_pack(case, chunk):
    # both routines pack one block of sample rows at a time; the references
    # pack the whole sample once
    _, system, sample, centers, n, eps = case
    keep = greedy_separated_mask(system, sample, n, eps, chunk=chunk)
    assert (keep == _greedy_whole_pack(system, sample, n, eps)).all()
    assert 0 < keep.sum() < len(sample)
    check = verify_spanning(system, centers, sample, n, eps, chunk=chunk)
    assert check.sample_size == len(sample) and check.centers == len(centers)
    assert ((check.uncovered_count, check.first_uncovered, check.all_strict)
            == _spanning_by_hand(system, centers, sample, n, eps))
    assert check.ok == (check.uncovered_count == 0)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_counter_and_audit_memory_does_not_grow_with_the_sample():
    # a tower grid of 200 angles on 1,000 and then 4,000 exp levels: 3.2
    # and 12.8 MB packed whole. Streamed, the traced peak grows by the keep
    # mask (a byte per row) and the open rows only; deep levels lie near the
    # base circle, so the greedy keeps and the audit leaves open few rows
    fam = ExpHeights()
    system = tower_system(fam)
    centers = spanning_witness(64, 0.2, fam).points
    calls = (lambda grid: greedy_separated_mask(system, grid, 32, 0.1),
             lambda grid: verify_spanning(system, centers, grid, 64, 0.2))
    for call in calls:
        small, large = (_traced_peak(lambda: call(tower_sample(200, range(levels))))
                        for levels in (1000, 4000))
        assert large - small < 1 << 20


def _rung_kinds(system, centers, sample, n, eps):
    # how many sample points have their nearest center below eps/4, in
    # [eps/4, eps/2) (both settled by the first rung, eps/2), in [eps/2,
    # eps), exactly at eps and beyond eps
    near = bowen_block(system, sample, centers, n).min(axis=1)
    return [int(k.sum()) for k in (near < eps / 4, (near >= eps / 4) & (near < eps / 2),
                                   (near >= eps / 2) & (near < eps),
                                   near == eps, near > eps)]


# base-circle centers a quarter turn apart put base grid points at every
# multiple of 1/32 up to eps = 1/8 from their nearest center, exactly at
# eps/4, eps/2 and eps included; level 3 sits 1/9 above the base, between
# the rungs' thresholds eps/2 and eps at n = 1 and drifting away past eps
# at n = 3, and level 2 is missed
_RUNG_CENTERS = tower_sample(4, [0])
_RUNG_SAMPLE = tower_sample(32, [0, 2, 3])


@pytest.mark.parametrize("chunk", range(1, 8))
def test_verify_spanning_rungs_match_a_full_scan(chunk):
    system = tower_system(PowerHeights(2))
    for n in (1, 3):
        kinds = _rung_kinds(system, _RUNG_CENTERS, _RUNG_SAMPLE, n, 0.125)
        assert all(kinds), kinds
        for eps in (0.0625, 0.1, 0.125):
            check = verify_spanning(system, _RUNG_CENTERS, _RUNG_SAMPLE, n, eps, chunk=chunk)
            assert ((check.uncovered_count, check.first_uncovered, check.all_strict)
                    == _spanning_by_hand(system, _RUNG_CENTERS, _RUNG_SAMPLE, n, eps))


def test_verify_spanning_rungs_match_a_full_scan_on_wide_blocks(monkeypatch):
    # 2048 sample rows against 156 centers make first-rung blocks of
    # 319,488 pairs, all through the angle band
    fam = PowerHeights(2)
    system = tower_system(fam)
    centers = tower_sample(4, [0, 1] + list(range(3, 40)))
    sample = tower_sample(1024, [0, 2, 3, 10, 39, 45])
    calls = []

    def angle_band(a, b, *args):
        calls.append(len(a) * len(b))
        return band(a, b, *args)

    band = systems._tower_angle_band
    monkeypatch.setattr(systems, "_tower_angle_band", angle_band)
    for n, eps in ((3, 0.125), (40, 0.125), (40, 0.1)):
        assert all(_rung_kinds(system, centers, sample, n, 0.125))
        check = verify_spanning(system, centers, sample, n, eps)
        assert ((check.uncovered_count, check.first_uncovered, check.all_strict)
                == _spanning_by_hand(system, centers, sample, n, eps))
    assert calls and max(calls) == 2048 * len(centers)


def test_verify_spanning_ignores_lower_bounds_in_the_first_rung():
    # the pair contract lets a kernel list any pair at or above the cap
    # with a lower bound of at least the cap; this one lists every pair
    # and reads each such pair as exactly the cap, which the prefix's calls
    # (capped just past eps/32 and eps/2) and the first rung (just past
    # eps/2) must not take for a cover below eps
    tower = tower_system(PowerHeights(2))

    def lower_bounds(a, b, i, j, n, cap):
        live, d = tower.evaluate(a, b, i, j, n, np.inf)
        return live, np.minimum(d, cap)

    stub = dataclasses.replace(tower, candidates=lambda a, b, n, cap: systems._every_pair(a, b),
                               evaluate=lower_bounds)
    check = verify_spanning(stub, [TowerPoint(0.0, 0)], [TowerPoint(0.2, 0)], 3, 0.125)
    assert not check.ok and check.first_uncovered == 0
    for n in (1, 3):
        assert all(_rung_kinds(tower, _RUNG_CENTERS, _RUNG_SAMPLE, n, 0.125))
        for eps in (0.0625, 0.1, 0.125):
            for chunk in (3, 2048):
                check = verify_spanning(stub, _RUNG_CENTERS, _RUNG_SAMPLE, n, eps, chunk=chunk)
                assert ((check.uncovered_count, check.first_uncovered, check.all_strict)
                        == _spanning_by_hand(tower, _RUNG_CENTERS, _RUNG_SAMPLE, n, eps))


@pytest.mark.parametrize("chunk", [3, 2048])
def test_verify_spanning_without_sample_locality(chunk):
    # the grid's points listed in stride order: each row sits three sample
    # levels and 17/32 of a turn from its neighbours, so neighbouring rows
    # share no center below eps and a block's covering centers hardly ever
    # cover its other rows; the ladder must settle what the prefix leaves.
    # Levels 2 and 45 carry no centers, so points are missed too
    fam = PowerHeights(2)
    system = tower_system(fam)
    centers = tower_sample(4, [0, 1, 3, 10, 11, 38, 39, 40])
    grid = tower_sample(32, [0, 2, 3, 10, 39, 45])
    m = len(grid)
    sample = [grid[k * 113 % m] for k in range(m)]
    for n in (1, 3, 40):
        near = bowen_block(system, sample, centers, n) < 0.125
        assert near.any() and not (near[1:] & near[:-1]).any()
        for eps in (0.1, 0.125):
            check = verify_spanning(system, centers, sample, n, eps, chunk=chunk)
            assert ((check.uncovered_count, check.first_uncovered, check.all_strict)
                    == _spanning_by_hand(system, centers, sample, n, eps))


@pytest.mark.parametrize("n", [1, 3, 40])
def test_verify_spanning_settles_most_rows_on_their_blocks_covering_centers(n):
    # every sample level carries centers 1/8 apart, so each point lies at
    # most 1/16 = eps/2 from a center of its own level. The narrow scan
    # settles the points within eps/32 of a center and names the centers
    # each block touches; the scan over those centers settles every other
    # point but the 32 midpoints between centers, which sit exactly at
    # eps/2. Only those 32 of 4,096 rows (0.8 %) reach the wider scans
    # over all centers
    fam = PowerHeights(2)
    tower = tower_system(fam)
    centers = tower_sample(8, range(0, 40))
    sample = tower_sample(1024, [0, 3, 10, 39])
    eps = 0.125
    narrow = float(np.nextafter(eps / 32, np.inf))
    ladder, cover = set(), []

    def candidates(a, b, n, cap):
        if len(b) < len(centers):
            cover.append(len(b))
        elif cap > narrow:
            ladder.update(a.tolist())
        return tower.candidates(a, b, n, cap)

    stub = dataclasses.replace(tower, candidates=candidates)
    check = verify_spanning(stub, centers, sample, n, eps)
    assert check.ok and check.all_strict
    assert cover
    assert len(ladder) <= 0.01 * len(sample)


def test_routines_agree_on_a_grid_and_its_points():
    # a packed grid and the fromiter pack of its points are the same batch,
    # and the blocks here are wide enough for the angle band
    fam = PowerHeights(2)
    system = tower_system(fam)
    sample = tower_sample(150, range(0, 9))
    centers = tower_sample(11, range(0, 40))
    n, eps = 50, 0.1
    assert (verify_spanning(system, centers, sample, n, eps)
            == verify_spanning(system, list(centers), list(sample), n, eps))
    assert (verify_separated(system, sample, n, eps)
            == verify_separated(system, list(sample), n, eps))
    assert _kept(system, sample, n, eps) == _kept(system, list(sample), n, eps)


def test_greedy_separated_passes_both_verifiers():
    fam = PowerHeights(2)
    system = tower_system(fam)
    sample = tower_sample(17, range(0, 8))
    n, eps = 24, 0.1
    kept = [sample[i] for i in _kept(system, sample, n, eps)]
    assert verify_separated(system, kept, n, eps).ok
    # maximality: every rejected point is within eps of a kept one
    assert verify_spanning(system, kept, sample, n, eps).ok


def test_greedy_separated_keeps_one_shift_per_distinct_block():
    system = sturmian_system(GOLDEN)
    base = sturmian_point(GOLDEN)
    sample = [base.shifted(i) for i in range(31)]
    assert len(_kept(system, sample, 5, 1.0)) == 6


# ---------------------------------------------------------------------------
# verifiers

def test_verify_separated_reports_tight_pair():
    system = circle_rotation(0.0)
    pts = [0.0, 0.2, 0.4]
    check = verify_separated(system, pts, 4, 0.2)
    assert check.ok and not check.all_strict
    assert check.min_value == 0.2
    assert check.min_pair == (0, 1)
    assert check.pairs == 3
    failed = verify_separated(system, pts, 4, 0.25)
    assert not failed.ok
    assert failed.min_pair == (0, 1)


def test_verify_separated_trivial_families():
    system = circle_rotation(0.0)
    for pts in ([], [0.3]):
        check = verify_separated(system, pts, 2, 0.1)
        assert check.ok and check.all_strict
        assert check.pairs == 0 and check.min_pair is None
        assert math.isinf(check.min_value)


def test_verify_separated_matches_brute_force_min():
    rng = np.random.default_rng(5)
    fam = PowerHeights(2)
    system = tower_system(fam)
    pts = [TowerPoint(float(rng.random()), int(rng.integers(0, 5))) for _ in range(9)]
    n = 11
    check = verify_separated(system, pts, n, 0.05, chunk=4)
    best = min((bowen_dist(system, p, q, n), (i, j))
               for i, p in enumerate(pts) for j, q in enumerate(pts) if i < j)
    assert check.min_value == pytest.approx(best[0], abs=1e-12)
    assert check.min_pair == best[1]


def _separation_by_blocks(system, pts, n, eps, chunk):
    # uncapped distances scanned in verify_separated's block order, with
    # the first strictly smaller block minimum winning
    d = bowen_block(system, pts, pts, n)
    m = len(pts)
    best, pair = np.inf, None
    for lo in range(0, m, chunk):
        for clo in range(lo, m, chunk):
            for i in range(lo, min(lo + chunk, m)):
                for j in range(max(clo, i + 1), min(clo + chunk, m)):
                    if d[i, j] < best:
                        best, pair = float(d[i, j]), (i, j)
    return SeparationCheck(best >= eps, best > eps, n, eps, m * (m - 1) // 2, best, pair)


@pytest.mark.parametrize("chunk", range(1, 8))
def test_verify_separated_capped_scan_matches_uncapped(chunk):
    # grid angles tie many pairs at one minimum, repeated points tie at 0,
    # eps = 0.3 lies in the height band and eps = 0.4 past it, on the
    # dense path. The shifts tie many pairs at powers of 2: a Sturmian
    # factor-shift family with one offset repeated, and periodic points of
    # a full shift, two of them one sequence under different rules
    grid = tower_sample(4, [0, 1, 3])
    deep = [TowerPoint(0.5, lv) for lv in (40, 41, 900, 901, 902)]
    families = [grid, grid[:5] + grid[2:4] + deep, deep + grid[::3]]
    word = sturmian_system(GOLDEN).word_fn(0, 80)
    offsets = separated_shift_family(word, 8)
    periodic = [periodic_point(p) for p in ((0, 1), (1, 1, 0), (0, 1, 0, 1), (0, 0, 1))]
    for system, pts in ((tower_system(PowerHeights(2)), families[0]),
                        (tower_system(PowerHeights(2)), families[1]),
                        (tower_system(PowerHeights(1)), families[2]),
                        (sturmian_system(GOLDEN),
                         [word.point().shifted(k) for k in offsets + offsets[4:5]]),
                        (full_shift(2), full_shift(2).sampler(8) + periodic)):
        for n in (1, 3, 40):
            for eps in (0.05, 0.25, 0.3, 0.4):
                check = verify_separated(system, pts, n, eps, chunk=chunk)
                assert check == _separation_by_blocks(system, pts, n, eps, chunk)


def _recording_caps(system):
    # the system with a candidates stage that records each call's shape and cap
    calls = []

    def candidates(a, b, n, cap):
        calls.append((len(a), len(b), cap))
        return system.candidates(a, b, n, cap)

    return dataclasses.replace(system, candidates=candidates), calls


@pytest.mark.parametrize("chunk", [7, 2048])
def test_verify_separated_caps_factor_shifts_at_one(chunk):
    # distinct length-30 blocks put every pair at distance 1: the one-pair
    # seed reads pair (0, 1) uncapped, and every block after is capped at
    # 1.0, where only key-equal pairs are candidates
    system = sturmian_system(GOLDEN)
    word = system.word_fn(0, systems.word_window(system, 30) - 1)
    points = [word.point().shifted(k) for k in separated_shift_family(word, 30)]
    stub, calls = _recording_caps(system)
    check = verify_separated(stub, points, 30, 1.0, chunk=chunk)
    assert (check.min_value, check.min_pair) == (1.0, (0, 1))
    assert calls[0] == (1, 1, math.inf)
    assert len(calls) > 1 and all(cap <= 1.0 for *_, cap in calls[1:])


def test_verify_separated_caps_blocks_at_the_running_minimum():
    # the running minimum before each block, from the dense block in chunk
    # order: no block may ask for more
    system = tower_system(PowerHeights(2))
    pts = tower_sample(8, range(0, 6))
    m, n, chunk = len(pts), 5, 7
    d = bowen_block(system, pts, pts, n)
    running = [d[0, 1]]
    for lo in range(0, m, chunk):
        for clo in range(lo, m, chunk):
            block = [d[i, j] for i in range(lo, min(lo + chunk, m))
                     for j in range(max(clo, i + 1), min(clo + chunk, m))]
            running.append(min([running[-1]] + block))
    stub, calls = _recording_caps(system)
    check = verify_separated(stub, pts, n, 0.1, chunk=chunk)
    assert check.min_value == running[-1] < running[0]
    assert len(calls) == len(running)
    assert all(cap <= low for (*_, cap), low in zip(calls[1:], running))


@pytest.mark.parametrize("chunk", [1, 3, 5, 2048])
def test_verify_separated_stops_at_a_zero_minimum(chunk):
    # points 4 and 6 come back as points 9 and 13: the audit reads 0.0 at
    # pair (4, 9) and asks for no block after that pair's
    grid = list(tower_sample(4, [0, 1, 3]))
    pts = grid[:9] + grid[4:5] + grid[9:] + grid[6:7]
    stub, calls = _recording_caps(tower_system(PowerHeights(2)))
    check = verify_separated(stub, pts, 3, 0.1, chunk=chunk)
    assert (check.min_value, check.min_pair) == (0.0, (4, 9))
    blocks = [(lo, clo) for lo in range(0, len(pts), chunk)
              for clo in range(lo, len(pts), chunk)]
    assert len(calls) == 2 + blocks.index((4 // chunk * chunk, 9 // chunk * chunk))


def test_verify_spanning_semantics():
    system = circle_rotation(0.0)
    # self-cover is strict: distance zero everywhere
    check = verify_spanning(system, [0.0, 0.5], [0.0, 0.5], 3, 0.1)
    assert check.ok and check.all_strict
    # boundary cover: exactly at eps counts, but not strictly
    check = verify_spanning(system, [0.0], [0.2], 3, 0.2)
    assert check.ok and not check.all_strict
    # misses are counted and the first one located
    check = verify_spanning(system, [0.0], [0.0, 0.3, 0.5], 3, 0.2)
    assert not check.ok
    assert check.uncovered_count == 2
    assert check.first_uncovered == 1
    assert check.sample_size == 3 and check.centers == 1


def test_verify_spanning_empty_centers_cover_nothing():
    system = circle_rotation(0.0)
    check = verify_spanning(system, [], [0.1, 0.2], 2, 0.3)
    assert not check.ok
    assert check.uncovered_count == 2
    assert check.first_uncovered == 0


def test_verify_spanning_is_chunk_invariant():
    fam = ExpHeights()
    system = tower_system(fam)
    sample = tower_sample(13, range(0, 6))
    centers = tower_sample(4, range(0, 6))
    a = verify_spanning(system, centers, sample, 9, 0.2)
    b = verify_spanning(system, centers, sample, 9, 0.2, chunk=5)
    assert a == b


def _proven_cover(system, sample, n, eps):
    # a maximal eps-separated family keeps every other sample point
    # strictly within eps of a kept one, which the covering audit proves
    centers = [sample[i] for i in _kept(system, sample, n, eps)]
    check = verify_spanning(system, centers, sample, n, eps)
    assert check.ok and check.all_strict
    return centers


@pytest.mark.parametrize("n,eps", [(5, 0.1), (20, 0.05)])
def test_separated_at_double_scale_never_beats_spanning(n, eps):
    # pigeonhole: distinct 2eps-separated points need distinct centers
    # within eps of them, when each point lies strictly within eps
    fam = PowerHeights(2)
    system = tower_system(fam)
    sample = tower_sample(20, range(0, 7))
    sep = _kept(system, sample, n, 2 * eps)
    assert len(sep) <= len(_proven_cover(system, sample, n, eps))


def test_separated_vs_spanning_pigeonhole_on_shift():
    system = full_shift(2)
    sample = system.sampler(8)
    sep = _kept(system, sample, 3, 1.0)
    assert len(sep) <= len(_proven_cover(system, sample, 3, 0.5))


# ---------------------------------------------------------------------------
# exact tiny-case search

def max_separated_exact(system, points, n, eps, limit=20):
    """Exact maximum size of an eps-separated subfamily (tiny inputs only).

    Branch and bound over the separation graph; cost is exponential, hence
    the hard ``limit``. Serves as the quality oracle for the greedy bound.
    """
    m = len(points)
    if m > limit:
        raise ValueError(f"exact search limited to {limit} points, got {m}")
    if m == 0:
        return 0
    adj = bowen_block(system, points, points, n) >= eps
    np.fill_diagonal(adj, False)

    best = 0

    def grow(chosen, candidates):
        nonlocal best
        if chosen + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, chosen)
            return
        head, *rest = candidates
        grow(chosen + 1, [j for j in rest if adj[head, j]])
        grow(chosen, rest)

    grow(0, list(range(m)))
    return best


def test_max_separated_exact_known_value():
    system = circle_rotation(0.0)
    pts = [0.0, 0.125, 0.25, 0.375]
    assert max_separated_exact(system, pts, 2, 0.25) == 2
    assert max_separated_exact(system, [], 2, 0.25) == 0
    with pytest.raises(ValueError):
        max_separated_exact(system, [j / 30 for j in range(30)], 2, 0.1)


def test_greedy_never_exceeds_exact_maximum():
    rng = np.random.default_rng(9)
    fam = PowerHeights(2)
    system = tower_system(fam)
    for trial in range(6):
        pts = [TowerPoint(float(rng.random()), int(rng.integers(0, 4)))
               for _ in range(10)]
        for eps in (0.05, 0.1, 0.2):
            greedy = len(_kept(system, pts, 8, eps))
            exact = max_separated_exact(system, pts, 8, eps)
            assert greedy <= exact <= len(pts)
