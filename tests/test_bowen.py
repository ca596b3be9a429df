"""Orbit distances, the greedy counter and the verifiers, cross-checked
against brute force on small inputs, and the greedy count against an exact
tiny-case search."""

import dataclasses
import math

import numpy as np
import pytest

from polyent import (
    ExpHeights,
    PowerHeights,
    SeparationCheck,
    SystemHandle,
    TowerPoint,
    bowen_dist,
    circle_rotation,
    full_shift,
    greedy_separated,
    product_system,
    sturmian_point,
    sturmian_system,
    tower_dist,
    tower_sample,
    tower_system,
    verify_separated,
    verify_spanning,
)
from polyent import systems
from polyent.bowen import bowen_block
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
    pa = tower_sample(system.heights, 3, [0, 1, 3])
    pb = tower_sample(system.heights, 2, [2])
    n = 8
    by_hand = np.array([[bowen_dist(system, p, q, n) for q in pb] for p in pa])
    assert np.allclose(bowen_block(system, pa, pb, n), by_hand, atol=1e-12)


# ---------------------------------------------------------------------------
# greedy families

def test_greedy_separated_exact_on_dyadic_grid():
    system = circle_rotation(0.0)
    sample = [j / 8 for j in range(8)]
    kept = greedy_separated(system, sample, 3, 0.25)
    assert kept == [0.0, 0.25, 0.5, 0.75]


def test_greedy_separated_validations_and_duplicates():
    system = circle_rotation(0.0)
    with pytest.raises(ValueError):
        greedy_separated(system, [0.0], 3, 0.0)
    with pytest.raises(ValueError):
        greedy_separated(system, [0.0], 0, 0.1)
    assert greedy_separated(system, [0.2, 0.2, 0.2], 2, 0.1) == [0.2]
    # scale above the diameter keeps only the first point
    assert greedy_separated(system, [j / 8 for j in range(8)], 2, 0.75) == [0.0]


def test_greedy_separated_is_chunk_invariant():
    fam = PowerHeights(2)
    system = tower_system(fam)
    sample = tower_sample(fam, 11, range(0, 7))
    a = greedy_separated(system, sample, 16, 0.1)
    b = greedy_separated(system, sample, 16, 0.1, chunk=3)
    assert a == b


def _sequential_rule(d, eps):
    # the points the sequential rule keeps, given all pair distances
    kept = []
    for k in range(len(d)):
        if all(d[k, j] >= eps for j in kept):
            kept.append(k)
    return kept


def _greedy_by_hand(system, sample, n, eps):
    d = bowen_block(system, sample, sample, n)
    return [sample[k] for k in _sequential_rule(d, eps)]


# tower grids tie many pairs at dyadic distances and repeat points, deep
# levels crowd the height band, and the product and the shift take their
# own pair lists
_GRID = tower_sample(PowerHeights(2), 8, [0, 1, 3])
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
                got = greedy_separated(system, sample, n, eps, chunk=chunk)
                assert got == _greedy_by_hand(system, sample, n, eps)


# small tower samples that repeat points, so a row's band holds its own
# duplicates and other points of its level next to points across heights
_STEPPED_SAMPLES = [
    (PowerHeights(1), list(tower_sample(PowerHeights(1), 7, [0, 2, 30, 31])) * 2),
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
            want = [sample[k] for k in _sequential_rule(d, eps)]
            for chunk in (1, 7, 2048):
                assert greedy_separated(system, sample, n, eps, chunk=chunk) == want


def test_greedy_drift_scans_only_rows_with_a_survivor_across_heights(monkeypatch):
    # a block query drift-scans its step-0 survivors once; a row query does
    # so only when one of its survivors lies at another height
    scans = []
    real_peak = systems._drift_peak

    def peak(*args):
        scans.append(1)
        return real_peak(*args)

    queries = {"block": 0, "row": 0, "cross": 0}

    def pairs(a, b, n, cap):
        i, j, d = systems._tower_orbit_pairs(a, b, n, cap)
        if len(a) > 1:
            queries["block"] += 1
        else:
            queries["row"] += 1
            queries["cross"] += bool((b["height"][j] != a["height"][0]).any())
        return i, j, d

    monkeypatch.setattr(systems, "_drift_peak", peak)
    system = dataclasses.replace(tower_system(PowerHeights(1)), orbit_pairs=pairs)
    record, = count_table(system, [32], [0.1], METHOD_GREEDY_SEPARATED, grid=60)
    assert record.count > 0
    assert len(scans) == queries["block"] + queries["cross"]
    assert 0 < queries["cross"] < queries["row"]


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
    base = list(tower_sample(fam, 16, [0])) + _DEEP
    full = list(tower_sample(fam, 16, [0, 1, 2])) + _DEEP
    families = [tower_sample(fam, 4, [0]), tower_sample(fam, 4, [0, 2]),
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


def _rung_kinds(system, centers, sample, n, eps):
    # how many sample points have their nearest center below eps/4, in
    # [eps/4, eps/2), in [eps/2, eps), exactly at eps and beyond eps
    near = bowen_block(system, sample, centers, n).min(axis=1)
    return [int(k.sum()) for k in (near < eps / 4, (near >= eps / 4) & (near < eps / 2),
                                   (near >= eps / 2) & (near < eps),
                                   near == eps, near > eps)]


# base-circle centers a quarter turn apart put base grid points at every
# multiple of 1/32 up to eps = 1/8 from their nearest center, exactly at
# eps/4, eps/2 and eps included; level 3 sits 1/9 above the base, between
# the rungs at n = 1 and drifting away past eps at n = 3, and level 2 is
# missed
_RUNG_CENTERS = tower_sample(PowerHeights(2), 4, [0])
_RUNG_SAMPLE = tower_sample(PowerHeights(2), 32, [0, 2, 3])


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
    # 319,488 pairs, past the angle band's threshold
    fam = PowerHeights(2)
    system = tower_system(fam)
    centers = tower_sample(fam, 4, [0, 1] + list(range(3, 40)))
    sample = tower_sample(fam, 1024, [0, 2, 3, 10, 39, 45])
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
    assert calls and max(calls) >= systems._ANGLE_BAND_PAIRS


def test_verify_spanning_ignores_lower_bounds_in_the_first_rung():
    # the pair contract lets a kernel list any pair at or above the cap
    # with a lower bound of at least the cap; this one lists every pair
    # and reads each such pair as exactly the cap, which the first two
    # rungs (capped just past eps/4 and eps/2) must not take for a cover
    # below eps
    tower = tower_system(PowerHeights(2))

    def lower_bounds(a, b, n, cap):
        i, j, d = tower.orbit_pairs(a, b, n, np.inf)
        return i, j, np.minimum(d, cap)

    stub = dataclasses.replace(tower, orbit_pairs=lower_bounds)
    check = verify_spanning(stub, [TowerPoint(0.0, 0)], [TowerPoint(0.2, 0)], 3, 0.125)
    assert not check.ok and check.first_uncovered == 0
    for n in (1, 3):
        assert all(_rung_kinds(tower, _RUNG_CENTERS, _RUNG_SAMPLE, n, 0.125))
        for eps in (0.0625, 0.1, 0.125):
            for chunk in (3, 2048):
                check = verify_spanning(stub, _RUNG_CENTERS, _RUNG_SAMPLE, n, eps, chunk=chunk)
                assert ((check.uncovered_count, check.first_uncovered, check.all_strict)
                        == _spanning_by_hand(tower, _RUNG_CENTERS, _RUNG_SAMPLE, n, eps))


def test_routines_agree_on_a_grid_and_its_points():
    # a packed grid and the fromiter pack of its points are the same batch,
    # and the blocks here are wide enough for the angle band
    fam = PowerHeights(2)
    system = tower_system(fam)
    sample = tower_sample(fam, 150, range(0, 9))
    centers = tower_sample(fam, 11, range(0, 40))
    n, eps = 50, 0.1
    assert (verify_spanning(system, centers, sample, n, eps)
            == verify_spanning(system, list(centers), list(sample), n, eps))
    assert (verify_separated(system, sample, n, eps)
            == verify_separated(system, list(sample), n, eps))
    kept = greedy_separated(system, sample, n, eps)
    assert kept == greedy_separated(system, list(sample), n, eps)
    assert all(isinstance(p, TowerPoint) for p in kept)


def test_routines_refuse_a_handle_without_a_kernel():
    rotation = circle_rotation(0.3)
    bare = SystemHandle(name="bare", metric=rotation.metric, step=rotation.step)
    for call in (lambda: greedy_separated(bare, [0.0, 0.5], 3, 0.1),
                 lambda: verify_separated(bare, [0.0], 3, 0.1),
                 lambda: verify_spanning(bare, [0.0], [0.5], 3, 0.1),
                 lambda: bowen_block(bare, [0.0], [0.5], 3)):
        with pytest.raises(ValueError, match="bare has no distance kernel"):
            call()
    # the stepping reference needs none
    assert bowen_dist(bare, 0.0, 0.5, 3) == 0.5


def test_greedy_separated_passes_both_verifiers():
    fam = PowerHeights(2)
    system = tower_system(fam)
    sample = tower_sample(fam, 17, range(0, 8))
    n, eps = 24, 0.1
    kept = greedy_separated(system, sample, n, eps)
    assert verify_separated(system, kept, n, eps).ok
    # maximality: every rejected point is within eps of a kept one
    assert verify_spanning(system, kept, sample, n, eps).ok


def test_greedy_separated_keeps_one_shift_per_distinct_block():
    system = sturmian_system(GOLDEN)
    base = sturmian_point(GOLDEN)
    sample = [base.shifted(i) for i in range(31)]
    kept = greedy_separated(system, sample, 5, 1.0)
    assert len(kept) == 6


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
    # and eps = 0.3 lies past the height band, on the dense path
    grid = tower_sample(PowerHeights(2), 4, [0, 1, 3])
    deep = [TowerPoint(0.5, lv) for lv in (40, 41, 900, 901, 902)]
    families = [grid, grid[:5] + grid[2:4] + deep, deep + grid[::3]]
    for system, pts in ((tower_system(PowerHeights(2)), families[0]),
                        (tower_system(PowerHeights(2)), families[1]),
                        (tower_system(PowerHeights(1)), families[2])):
        for n in (1, 3, 40):
            for eps in (0.05, 0.25, 0.3):
                check = verify_separated(system, pts, n, eps, chunk=chunk)
                assert check == _separation_by_blocks(system, pts, n, eps, chunk)


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
    sample = tower_sample(fam, 13, range(0, 6))
    centers = tower_sample(fam, 4, range(0, 6))
    a = verify_spanning(system, centers, sample, 9, 0.2)
    b = verify_spanning(system, centers, sample, 9, 0.2, chunk=5)
    assert a == b


def _proven_cover(system, sample, n, eps):
    # a maximal eps-separated family keeps every other sample point
    # strictly within eps of a kept one, which the covering audit proves
    centers = greedy_separated(system, sample, n, eps)
    check = verify_spanning(system, centers, sample, n, eps)
    assert check.ok and check.all_strict
    return centers


@pytest.mark.parametrize("n,eps", [(5, 0.1), (20, 0.05)])
def test_separated_at_double_scale_never_beats_spanning(n, eps):
    # pigeonhole: distinct 2eps-separated points need distinct centers
    # within eps of them, when each point lies strictly within eps
    fam = PowerHeights(2)
    system = tower_system(fam)
    sample = tower_sample(fam, 20, range(0, 7))
    sep = greedy_separated(system, sample, n, 2 * eps)
    assert len(sep) <= len(_proven_cover(system, sample, n, eps))


def test_separated_vs_spanning_pigeonhole_on_shift():
    system = full_shift(2)
    sample = system.sampler(8)
    sep = greedy_separated(system, sample, 3, 1.0)
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
            greedy = len(greedy_separated(system, pts, 8, eps))
            exact = max_separated_exact(system, pts, 8, eps)
            assert greedy <= exact <= len(pts)
