"""Metrics, height families, tower dynamics, and symbolic points.

The vectorized orbit-distance kernels are checked against the step-by-step
reference here; everything downstream trusts that agreement.
"""

import functools
import importlib
import math
import pkgutil
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from polyent import (
    ExpHeights,
    PowerHeights,
    SymbolicWord,
    SystemHandle,
    TowerPoint,
    circle_dist,
    circle_rotation,
    full_shift,
    make_system,
    one_defect_point,
    periodic_point,
    product_system,
    shift_metric,
    sturmian_generate,
    sturmian_point,
    sturmian_system,
    tower_dist,
    tower_map,
    tower_sample,
    tower_system,
)
import polyent
from polyent import constructions, systems
from polyent.bowen import bowen_block, bowen_dist
from polyent.systems import (
    POWER_EXPONENT_LIMIT,
    AngleLevelGrid,
    ProductSample,
    _drift_peak,
    _floor_multiples,
    _heights_array,
    tower_inverse,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0

FAMILIES = [
    ExpHeights(),
    PowerHeights(1),
    PowerHeights(2),
    PowerHeights(3),
]


def _capped(system, pa, pb, n, cap):
    """The pair list over a block that reads cap wherever nothing is
    listed: unlisted pairs lie at or above cap."""
    a, b = system.pack(pa, n), system.pack(pb, n)
    i, j, d = system.orbit_pairs(a, b, n, cap)
    assert np.unique(i * len(pb) + j).size == i.size
    out = np.full((len(pa), len(pb)), cap)
    out[i, j] = d
    return out


def _random_tower_points(rng, fam, count):
    return [TowerPoint(float(rng.random()), int(rng.integers(0, 7)))
            for _ in range(count)]


# ---------------------------------------------------------------------------
# circle arithmetic

def test_circle_dist_examples():
    assert circle_dist(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert circle_dist(0.0, 0.5) == 0.5
    assert circle_dist(0.25, 0.25) == 0.0


def test_circle_dist_reduces_mod_one():
    assert circle_dist(1.3, 0.1) == pytest.approx(circle_dist(0.3, 0.1), abs=1e-15)
    assert circle_dist(-0.2, 0.1) == pytest.approx(0.3, abs=1e-15)


def test_circle_dist_is_a_metric_on_samples():
    rng = np.random.default_rng(1)
    for _ in range(300):
        x, y, z = rng.random(3)
        assert circle_dist(x, y) == circle_dist(y, x)
        assert 0.0 <= circle_dist(x, y) <= 0.5
        assert circle_dist(x, z) <= circle_dist(x, y) + circle_dist(y, z) + 1e-12


# ---------------------------------------------------------------------------
# height families

def test_exp_heights():
    fam = ExpHeights()
    assert fam.height(1) == math.exp(-1)
    assert fam.height(5) == math.exp(-5)
    assert fam.label == "exp"
    with pytest.raises(ValueError):
        fam.height(0)


def test_power_heights_integer_exponent_is_exact():
    fam = PowerHeights(2)
    assert fam.height(3) == 1.0 / 9.0
    assert fam.height(4) == 0.0625
    assert fam.label == "power:2"
    assert fam.integer_c == 2


def test_power_heights_fractional_exponent():
    fam = PowerHeights(1.5)
    assert fam.height(4) == pytest.approx(4.0 ** -1.5, rel=1e-15)
    assert fam.integer_c is None
    assert fam.label == "power:1.5"


def test_power_heights_rejects_small_exponent():
    with pytest.raises(ValueError):
        PowerHeights(0.5)


def test_power_heights_refuse_exponents_past_the_limit():
    # at the limit level 2's height 2^-c is still a normal float
    assert PowerHeights(POWER_EXPONENT_LIMIT).height(2) == 2.0 ** -POWER_EXPONENT_LIMIT
    for c in (POWER_EXPONENT_LIMIT + 1, 1e20, math.inf, math.nan):
        with pytest.raises(ValueError, match="decay exponent must be in"):
            PowerHeights(c)
    with pytest.raises(ValueError, match="decay exponent must be in"):
        make_system("tower-power:1e20")


@pytest.mark.parametrize("c", [1, 2, 3, 5, 7, 400, 1022, 1.5, 17.3])
def test_power_heights_are_one_rule_per_level(c):
    # every level reads the same bits alone, through height(), as in any
    # batch: levels on both sides of the exact-integer edge n^c < 2^62
    # (n = 2^31 for c = 2, 1,664,510 for c = 3, 5,404 for c = 5, 463 for
    # c = 7) and far past it, where heights underflow
    fam = PowerHeights(c)
    edges = [463, 464, 5404, 5405, 1664510, 1664511, 2 ** 31 - 1, 2 ** 31]
    levels = np.unique(np.concatenate((np.arange(1, 2000), edges, 10 ** np.arange(4, 12))))
    batch = _heights_array(fam, levels)
    alone = np.array([fam.height(int(n)) for n in levels])
    assert batch.tobytes() == alone.tobytes()
    for part in (levels[:3], levels[-3:], levels[::7]):
        picked = batch[np.searchsorted(levels, part)]
        assert _heights_array(fam, part).tobytes() == picked.tobytes()
    if fam.integer_c is not None:
        # below the edge a height is the exact power, rounded once
        exact = [n for n in levels.tolist() if n ** fam.integer_c < 2 ** 62]
        assert [fam.height(n) for n in exact] == [1.0 / n ** fam.integer_c for n in exact]


def test_exp_heights_are_one_rule_per_level():
    # math.exp and numpy's exp disagree in the last bit at some levels
    # (first at 26, 31, 36 and 61 on an AVX-512 build), so height() must
    # read the batch rule; the sweep runs past level 745, where e^-n
    # underflows to 0
    fam = ExpHeights()
    levels = np.concatenate((np.arange(1, 800), 10 ** np.arange(3, 10)))
    alone = np.array([fam.height(int(n)) for n in levels])
    assert alone.tobytes() == _heights_array(fam, levels).tobytes()
    for part in (levels[:3], levels[25:62], levels[::7]):
        assert (_heights_array(fam, part).tobytes()
                == np.array([fam.height(int(n)) for n in part]).tobytes())


def test_power_heights_level_does_not_depend_on_its_batch():
    # level 5 of power:5 next to level 10^6, whose fifth power is past 2^62
    fam = PowerHeights(5)
    assert _heights_array(fam, np.array([5, 10 ** 6]))[0] == 1.0 / 3125
    assert fam.height(5) == 1.0 / 3125
    # past the float range a height underflows instead of overflowing
    assert PowerHeights(400).height(10) == 0.0


# ---------------------------------------------------------------------------
# tower points and dynamics

def test_tower_point_normalizes_angle_and_checks_level():
    p = TowerPoint(1.25, 2)
    assert p.angle == 0.25
    assert p.level == 2
    with pytest.raises(ValueError):
        TowerPoint(0.1, -1)


def test_tower_dist_examples():
    fam = ExpHeights()
    base = TowerPoint(0.1, 0)
    lifted = TowerPoint(0.1, 1)
    assert tower_dist(base, lifted, fam) == math.exp(-1)
    assert tower_dist(lifted, lifted, fam) == 0.0
    # two base points only see the arc
    assert tower_dist(TowerPoint(0.0, 0), TowerPoint(0.4, 0), fam) == pytest.approx(0.4)


def test_tower_map_rotates_by_own_height():
    fam = ExpHeights()
    q = tower_map(TowerPoint(0.25, 1), fam)
    assert q.level == 1
    assert q.angle == pytest.approx(0.25 + math.exp(-1), abs=1e-15)
    # the base circle is fixed pointwise
    assert tower_map(TowerPoint(0.77, 0), fam) == TowerPoint(0.77, 0)
    # height 1 is a full turn
    r = tower_map(TowerPoint(0.9, 1), PowerHeights(1))
    assert circle_dist(r.angle, 0.9) <= 1e-12


def test_tower_iterate_examples():
    # level 2 of power:2 has height 1/4, so 4 steps close the circle
    q = TowerPoint(0.3, 2)
    for _ in range(4):
        q = tower_map(q, PowerHeights(2))
    assert circle_dist(q.angle, 0.3) <= 1e-12 and q.level == 2
    r = TowerPoint(0.0, 1)
    for _ in range(10):
        r = tower_map(r, ExpHeights())
    assert r.angle == pytest.approx(0.6787944117144233, abs=1e-12)


def test_tower_iterate_matches_repeated_stepping():
    # repeated steps drift from the closed form angle + k * height by
    # accumulated rounding only
    fam = ExpHeights()
    cur = TowerPoint(0.123, 3)
    for _ in range(1000):
        cur = tower_map(cur, fam)
    assert circle_dist(cur.angle, 0.123 + 1000 * math.exp(-3)) <= 1e-9


def test_tower_inverse_undoes_map_and_preserves_level():
    fam = PowerHeights(3)
    for level in range(0, 5):
        p = TowerPoint(0.37, level)
        q = tower_inverse(tower_map(p, fam), fam)
        assert q.level == level
        assert circle_dist(q.angle, p.angle) <= 1e-15


def test_tower_dist_triangle_inequality_sampled():
    fam = PowerHeights(2)
    rng = np.random.default_rng(3)
    pts = _random_tower_points(rng, fam, 30)
    for _ in range(300):
        x, y, z = (pts[i] for i in rng.integers(0, len(pts), 3))
        assert tower_dist(x, z, fam) <= tower_dist(x, y, fam) + tower_dist(y, z, fam) + 1e-12


def test_tower_sample_layout():
    pts = tower_sample(3, [0, 2])
    assert list(pts) == [TowerPoint(0.0, 0), TowerPoint(1 / 3, 0), TowerPoint(2 / 3, 0),
                   TowerPoint(0.0, 2), TowerPoint(1 / 3, 2), TowerPoint(2 / 3, 2)]
    with pytest.raises(ValueError):
        tower_sample(0, [0])


def test_angle_level_grid_lives_in_systems_and_checks_levels():
    assert constructions.AngleLevelGrid is AngleLevelGrid
    grid = AngleLevelGrid(4, (0, 3))
    # numpy indices give the same plain-float points as int indices
    assert grid[np.int64(5)] == grid[5] == TowerPoint(0.25, 3)
    assert type(grid[np.int64(5)].angle) is float
    with pytest.raises(ValueError, match="level must be >= 0"):
        AngleLevelGrid(2, [1, -1])
    with pytest.raises(ValueError, match="level must be >= 0"):
        AngleLevelGrid(2, range(-1, 3))
    with pytest.raises(TypeError):
        AngleLevelGrid(2, [1.5])


GRID_FAMILIES = [PowerHeights(1), PowerHeights(2), PowerHeights(1.5), ExpHeights()]


@pytest.mark.parametrize("fam", GRID_FAMILIES, ids=lambda f: f.label)
def test_tower_pack_of_a_grid_matches_its_points_bitwise(fam):
    # the grid path builds angles as np.arange(r) / r and heights per level,
    # the point path reads TowerPoint(j / r, level) back: same bits
    system = tower_system(fam)
    top = 3000
    for levels in ([0, 2, 1, top, 0], [top], range(0, min(top, 8) + 1),
                   range(1, top + 1, 97), range(top, -1, -113), range(0)):
        for r in (1, 7, 600):
            grid = tower_sample(r, levels)
            packed = system.pack(grid, 5)
            assert packed.tobytes() == system.pack(list(grid), 5).tobytes()
            assert len(packed) == len(grid) == r * len(levels)


# ---------------------------------------------------------------------------
# symbolic words and points

def test_sturmian_golden_prefix():
    word = sturmian_generate(GOLDEN, 0, 4)
    assert word.symbols.tolist() == [0, 1, 0, 1, 1]
    assert word.symbols.dtype == np.int8 and not word.symbols.flags.writeable
    assert word.alphabet_size == 2
    assert word.start == 0 and word.end == 5


def test_sturmian_matches_floor_formula():
    word = sturmian_generate(SILVER, -50, 200)
    assert word.symbols.tolist() == [math.floor((k + 1) * SILVER) - math.floor(k * SILVER)
                                     for k in range(-50, 201)]


def test_sturmian_symbol_density_tracks_slope():
    word = sturmian_generate(GOLDEN, 0, 10 ** 4 - 1)
    assert word.symbols.sum() / 10 ** 4 == pytest.approx(GOLDEN, abs=1e-3)


def test_sturmian_rejects_rational_and_out_of_range_slopes():
    for bad in (0.5, 2.0 / 7.0, 0.0, 1.0, 1.2, -0.1):
        with pytest.raises(ValueError):
            sturmian_generate(bad, 0, 10)
    with pytest.raises(ValueError):
        sturmian_generate(GOLDEN, 5, 4)


# 1/(40 + golden): a partial quotient of 40, so its first 1 sits at index 40;
# 12345 / 2^20 has a binary exponent below 26; 5e-12 passes the rational
# guard, has exponent 90 > 26 + 63, and k * 5e-12 passes 1/4 near k = 2^36
EXACT_SLOPES = (GOLDEN, SILVER, 0.02461960616500969, 12345 / 2 ** 20, 5e-12)


@pytest.mark.parametrize("alpha", EXACT_SLOPES)
def test_sturmian_generation_is_exact_on_the_binary_slope(alpha):
    exact = Fraction(alpha)
    edge = 2 ** 36 - 2
    for lo, hi in ((-5000, 5000), (2 ** 31 - 200, 2 ** 31 + 200),
                   (-2 ** 31 - 200, -2 ** 31 + 200), (edge - 200, edge),
                   (-edge, -edge + 200)):
        word = sturmian_generate(alpha, lo, hi)
        want = [math.floor((k + 1) * exact) - math.floor(k * exact)
                for k in range(lo, hi + 1)]
        assert word.symbols.tolist() == want
        # the floors themselves, which a shared offset would hide from the
        # symbols
        index = np.arange(lo, hi + 1, dtype=np.int64)
        assert _floor_multiples(alpha, index).tolist() == \
            [math.floor(k * exact) for k in range(lo, hi + 1)]
        # the lazy rule is the same integer formula
        assert word.rule(index).tolist() == want
    for lo, hi in ((edge - 5, edge + 1), (-2 ** 36, -2 ** 36 + 5)):
        with pytest.raises(ValueError, match="exact range"):
            sturmian_generate(alpha, lo, hi)


def test_sturmian_recurrence_matches_morse_hedlund():
    # golden convergent denominators are 1, 1, 2, 3, 5, 8, 13, ...
    recurrence = sturmian_system(GOLDEN).recurrence
    assert [recurrence(n) for n in (1, 2, 3, 4, 5, 12)] == [3, 6, 10, 11, 17, 32]
    # 12345 / 2^20 = [0; 84, 1, 15, 2, 13, 2, 1, 2, 3], denominators 1, 84,
    # 85, ..., 310793, 2^20: its word repeats with period 2^20, so block
    # lengths from 2^20 on are refused
    recurrence = sturmian_system(12345 / 2 ** 20).recurrence
    assert recurrence(1) == 84 + 1 + 1 - 1
    assert recurrence(2 ** 20 - 1) == 2 ** 20 + 310793 + 2 ** 20 - 2
    with pytest.raises(ValueError, match="last convergent"):
        recurrence(2 ** 20)
    with pytest.raises(ValueError):
        recurrence(0)


def test_word_extends_past_materialized_range_via_rule():
    word = sturmian_generate(GOLDEN, 0, 4)
    assert word.rule(np.array([10])).tolist() == [
        math.floor(11 * GOLDEN) - math.floor(10 * GOLDEN)]
    assert word.rule(np.arange(3, 6))[:2].tolist() == word.symbols[3:].tolist()
    assert _symbols_of(word.point(3), range(3)) == word.rule(np.arange(3, 6)).tolist()


def test_word_without_rule_raises_outside_range():
    word = SymbolicWord(symbols=(0, 1, 1), start=0)
    with pytest.raises(ValueError, match="without a rule"):
        word.point()
    with pytest.raises(ValueError):
        SymbolicWord(symbols=(0, 2), alphabet_size=2)
    with pytest.raises(ValueError):
        SymbolicWord(symbols=(0,), alphabet_size=1)
    with pytest.raises(ValueError):
        SymbolicWord(symbols=(0, -1), alphabet_size=2)
    with pytest.raises(ValueError):
        SymbolicWord(symbols=[[0, 1]], alphabet_size=2)
    with pytest.raises(ValueError):
        SymbolicWord(symbols=(0.5, 1), alphabet_size=2)
    assert SymbolicWord(symbols=()).end == 0


def test_word_symbols_are_a_private_read_only_array():
    source = np.array([0, 1, 2], dtype=np.uint8)
    word = SymbolicWord(symbols=source, alphabet_size=3)
    source[0] = 2
    assert word.symbols.tolist() == [0, 1, 2]
    assert not word.symbols.flags.writeable
    assert SymbolicWord(symbols=(1, 0)).symbols.dtype.kind == "i"


def _symbols_of(p, ks):
    # the point's symbols at the indices ks, read through its rule
    return p.rule(np.asarray(ks, np.int64) + p.offset).tolist()


def test_symbolic_point_shifting():
    p = sturmian_point(GOLDEN)
    q = p.shifted(3)
    assert _symbols_of(q, range(-5, 5)) == _symbols_of(p, range(-2, 8))
    assert q.shifted(-3).offset == p.offset
    assert _symbols_of(p, [-2]) == [math.floor(-GOLDEN) - math.floor(-2 * GOLDEN)]


def test_periodic_point_cycles_both_directions():
    p = periodic_point((0, 1, 1))
    assert _symbols_of(p, range(-3, 4)) == [0, 1, 1, 0, 1, 1, 0]
    with pytest.raises(ValueError):
        periodic_point(())


def test_one_defect_point_shape():
    p = one_defect_point()
    assert _symbols_of(p, [0, 1, -1, 100]) == [0, 1, 1, 1]


def test_shift_metric_values():
    ones = periodic_point((1,))
    defect = one_defect_point()
    assert shift_metric(defect, ones) == 1.0
    assert shift_metric(defect, defect) == 0.0
    # first difference at coordinate +-3 gives 2^-3
    assert shift_metric(ones, defect.shifted(3)) == 0.125
    assert shift_metric(ones, defect.shifted(-3)) == 0.125


def test_shift_metric_is_window_limited():
    ones = periodic_point((1,))
    far = one_defect_point().shifted(100)
    assert shift_metric(ones, far, window=64) == 0.0
    assert shift_metric(ones, far, window=128) == 2.0 ** -100
    assert shift_metric(ones, far, window=100) == 2.0 ** -100
    assert shift_metric(ones, far, window=99) == 0.0


def _packed_rows(symbol, offsets, n, window):
    # the subshift pack's columns: the block 0..n-1, then -1, n, -2, n + 1,
    # ... out to the coding window
    cols = list(range(n)) + [c for m in range(1, window + 1) for c in (-m, n + m - 1)]
    return np.array([[symbol(o + c) for c in cols] for o in offsets])


# the last offsets o whose packed windows (n = 5, coding window 64) stay
# inside the Sturmian rule's exact range: the rule reads floors at k and
# k + 1 for k in o - 64 .. o + 68, all strictly inside (-2^36, 2^36)
NEAR_TOP = 2 ** 36 - 70
NEAR_BOTTOM = -2 ** 36 + 65
PACK_OFFSETS = (list(range(-300, 301)) + list(range(NEAR_TOP - 3, NEAR_TOP + 1))
                + list(range(NEAR_BOTTOM, NEAR_BOTTOM + 4)))


@pytest.mark.parametrize("alpha", EXACT_SLOPES)
def test_packed_sturmian_rows_are_the_exact_floors(alpha):
    exact = Fraction(alpha)

    @functools.cache
    def symbol(k):
        return math.floor((k + 1) * exact) - math.floor(k * exact)

    system, base = sturmian_system(alpha), sturmian_point(alpha)
    packed = system.pack([base.shifted(o) for o in PACK_OFFSETS], 5)
    assert packed["rows"].tolist() == _packed_rows(symbol, PACK_OFFSETS, 5, 64).tolist()
    # one index past either end of the exact range is refused, not computed
    for o in (NEAR_TOP + 1, NEAR_BOTTOM - 1):
        with pytest.raises(ValueError, match="exact range"):
            system.pack([base.shifted(0), base.shifted(o)], 5)


def test_packed_rule_group_reads_merged_windows_exactly():
    # one rule group whose windows [o - 64, o + 69) at n = 5 come unsorted,
    # repeated, overlapping, exactly touching (gap n + 128 = 133), one past
    # touching and far apart, beside a one-member group of another rule
    golden, silver = Fraction(GOLDEN), Fraction(SILVER)

    def symbol(exact):
        return functools.cache(lambda k: math.floor((k + 1) * exact) - math.floor(k * exact))

    offsets = [1267, 1000, NEAR_TOP, 1133, 1000, 1317, NEAR_BOTTOM, 1133, -7]
    lone = 77
    base = sturmian_point(GOLDEN)
    points = [base.shifted(o) for o in offsets]
    points.insert(3, sturmian_point(SILVER).shifted(lone))
    rows = sturmian_system(GOLDEN).pack(points, 5)["rows"]
    assert rows[3].tolist() == _packed_rows(symbol(silver), [lone], 5, 64)[0].tolist()
    group = np.delete(rows, 3, axis=0)
    assert group.tolist() == _packed_rows(symbol(golden), offsets, 5, 64).tolist()
    # the merged runs keep the least and the greatest index, so a group past
    # the exact range is refused with the message a call per row gives: the
    # rule reads the floors at k + 1 first, which leave the range at the top
    for far, first in ((NEAR_TOP + 1, 1), (NEAR_BOTTOM - 1, 0)):
        for group in ([1000, far, 1133], [far]):
            lo, hi = min(group) - 64 + first, max(group) + 5 + 63 + first
            message = re.escape(f"indices {lo}..{hi} leave the exact range")
            with pytest.raises(ValueError, match=message):
                sturmian_system(GOLDEN).pack([base.shifted(o) for o in group], 5)


def test_packed_periodic_and_defect_rows_are_their_rules():
    # one batch of three rule groups: two periodic patterns and the defect
    patterns = ((0, 1, 1), (1, 0, 1, 1, 0))
    bases = [periodic_point(pat) for pat in patterns] + [one_defect_point()]
    symbols = [lambda k, pat=pat: pat[k % len(pat)] for pat in patterns]
    symbols.append(lambda k: 0 if k == 0 else 1)
    points = [base.shifted(o) for o in PACK_OFFSETS for base in bases]
    rows = full_shift(2).pack(points, 5)["rows"]
    for g, symbol in enumerate(symbols):
        assert rows[g::3].tolist() == _packed_rows(symbol, PACK_OFFSETS, 5, 64).tolist()


# ---------------------------------------------------------------------------
# system handles

def test_circle_rotation_handle():
    system = circle_rotation(0.3)
    assert system.metric(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert system.step(0.9) == pytest.approx(0.2, abs=1e-15)
    assert system.inverse(system.step(0.4)) == pytest.approx(0.4, abs=1e-15)
    assert system.sampler(4) == [0.0, 0.25, 0.5, 0.75]
    # isometry: the orbit distance is the plain distance at any window
    assert bowen_block(system, [0.0], [0.2], 50)[0, 0] == pytest.approx(0.2, abs=1e-15)


def test_system_handle_sets_pack_and_kernel_together():
    # the sampler and the kernel are required fields; the canonical word
    # and its recurrence come as a pair
    kernel = circle_rotation(0.3)
    required = {"sampler": kernel.sampler, "pack": kernel.pack,
                "candidates": kernel.candidates, "evaluate": kernel.evaluate}
    for missing in required:
        given = {k: v for k, v in required.items() if k != missing}
        with pytest.raises(TypeError, match=missing):
            SystemHandle(name="half", metric=circle_dist, step=kernel.step, **given)
    SystemHandle(name="whole", metric=circle_dist, step=kernel.step, **required)
    words = sturmian_system(GOLDEN)
    for half in ({"word_fn": words.word_fn}, {"recurrence": words.recurrence}):
        with pytest.raises(ValueError, match="set together"):
            SystemHandle(name="half", metric=circle_dist, step=kernel.step,
                         **required, **half)


def test_tower_system_handle():
    system = tower_system(ExpHeights())
    assert system.heights == ExpHeights()
    # the kernel is exact past a quarter turn: this pair's drift wraps
    x, y = TowerPoint(0.0, 0), TowerPoint(0.4, 1)
    assert (bowen_block(system, [x], [y], 6)[0, 0]
            == pytest.approx(bowen_dist(system, x, y, 6), abs=1e-12))
    assert bowen_dist(system, x, y, 6) > 0.4
    p = TowerPoint(0.2, 1)
    assert system.metric(p, TowerPoint(0.2, 0)) == math.exp(-1)
    assert system.step(p).angle == pytest.approx(0.2 + math.exp(-1), abs=1e-15)
    sample = system.sampler(2)
    assert len(sample) == 2 * 9  # base plus the default 8 levels
    assert {q.level for q in sample} == set(range(9))


def test_full_shift_sampler_enumerates_periodic_points():
    system = full_shift(2)
    pts = system.sampler(4)
    assert len(pts) == 4
    seen = {tuple(_symbols_of(p, range(2))) for p in pts}
    assert seen == {(0, 0), (1, 0), (0, 1), (1, 1)}
    with pytest.raises(ValueError):
        full_shift(1)


def test_sturmian_system_handle():
    system = sturmian_system(GOLDEN)
    word = system.word_fn(0, 4)
    assert word.symbols.tolist() == [0, 1, 0, 1, 1]
    pts = system.sampler(3)
    assert [p.offset for p in pts] == [0, 1, 2]
    assert system.metric(pts[0], pts[0]) == 0.0
    assert system.step(pts[0]).offset == 1


def test_product_system_uses_max_metric():
    a = circle_rotation(0.3)
    b = full_shift(2)
    prod = product_system(a, b)
    ones = periodic_point((1,))
    x = (0.0, one_defect_point())
    y = (0.1, ones)
    assert prod.metric(x, y) == max(a.metric(0.0, 0.1), 1.0)
    sx = prod.step(x)
    assert sx[0] == pytest.approx(0.3) and sx[1].offset == 1
    assert prod.parts == (a, b)
    assert len(prod.sampler(2)) == 4


def test_make_system_specs():
    assert make_system("tower-exp").heights == ExpHeights()
    assert make_system("tower-power:2").heights == PowerHeights(2.0)
    assert make_system(f"sturmian:{GOLDEN!r}").word_fn is not None
    assert make_system("full-shift:3").name == "full-shift:3"
    prod = make_system("product:tower-power:2,tower-power:2")
    assert prod.parts is not None
    for bad in ("bogus", "product:tower-exp", "product:product:a,b,c"):
        with pytest.raises(ValueError):
            make_system(bad)
    with pytest.raises(ValueError):
        make_system("sturmian:0.5")


def test_public_names_resolve_and_every_family_carries_its_kernel():
    # every module but the entry point, which runs the CLI on import
    names = ["polyent"] + [f"polyent.{m.name}" for m in pkgutil.iter_modules(polyent.__path__)
                           if m.name != "__main__"]
    for name in names:
        module = importlib.import_module(name)
        assert len(set(module.__all__)) == len(module.__all__), name
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
    for spec in ("tower-exp", "tower-power:2", f"sturmian:{GOLDEN!r}", "full-shift:3",
                 f"product:tower-power:2,sturmian:{GOLDEN!r}"):
        system = make_system(spec)
        sample = system.sampler(2)
        batch = system.pack(sample, 3)
        i, j, d = system.orbit_pairs(batch, batch, 3, math.inf)
        assert len(d) == len(sample) ** 2, spec
        assert d[i == j].max() == 0.0, spec


# ---------------------------------------------------------------------------
# vectorized kernels against the stepping reference

def test_rotation_kernel_matches_pairwise_metric():
    system = circle_rotation(0.37)
    a = [0.0, 0.2, 0.55, 0.9]
    b = [0.1, 0.8]
    got = bowen_block(system, a, b, 17)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            assert got[i, j] == pytest.approx(circle_dist(x, y), abs=1e-15)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label)
def test_tower_kernel_matches_reference(fam):
    rng = np.random.default_rng(11)
    system = tower_system(fam)
    pa = _random_tower_points(rng, fam, 12)
    pb = _random_tower_points(rng, fam, 12)
    for n in (1, 2, 5, 33):
        got = bowen_block(system, pa, pb, n)
        for i, p in enumerate(pa):
            for j, q in enumerate(pb):
                assert got[i, j] == pytest.approx(bowen_dist(system, p, q, n), abs=1e-12)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.label)
def test_tower_kernel_cap_contract(fam):
    rng = np.random.default_rng(17)
    system = tower_system(fam)
    pa = _random_tower_points(rng, fam, 10)
    pb = _random_tower_points(rng, fam, 10)
    for n in (2, 9, 40):
        dense = bowen_block(system, pa, pb, n)
        for cap in (0.05, 0.125, 0.2, 0.2500001):
            got = _capped(system, pa, pb, n, cap)
            below = got < cap
            # threshold classification must agree with the dense kernel,
            # sub-cap entries must be the same exact values
            assert np.array_equal(below, dense < cap)
            assert (got[below] == dense[below]).all()
            assert (got[~below] <= dense[~below] + 1e-12).all()


def test_tower_kernel_window_one_is_plain_metric():
    fam = PowerHeights(2)
    system = tower_system(fam)
    pa = [TowerPoint(0.1, 0), TowerPoint(0.3, 2)]
    pb = [TowerPoint(0.6, 1)]
    got = bowen_block(system, pa, pb, 1)
    for i, p in enumerate(pa):
        assert got[i, 0] == pytest.approx(tower_dist(p, pb[0], fam), abs=1e-15)
    with pytest.raises(ValueError):
        bowen_block(system, pa, pb, 0)


def test_drift_peak_is_quiet_on_vanishing_exp_drifts():
    # exp heights past level ~709 drift by a subnormal or zero amount, so
    # the crossing step overflows to inf before the clip to n - 1
    levels = np.arange(690.0, 800.0)
    delta = np.exp(-levels)
    theta = np.linspace(0.0, 0.99, levels.size)
    n = 40
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _drift_peak(theta.copy(), delta.copy(), n)
    u = theta[:, None] + np.arange(n)[None, :] * delta[:, None]
    assert np.array_equal(got, np.abs(u - np.rint(u)).max(axis=1))


def test_product_kernel_is_max_of_factors_and_forwards_cap():
    rng = np.random.default_rng(23)
    a = tower_system(PowerHeights(2))
    b = tower_system(ExpHeights())
    prod = product_system(a, b)
    pa = [(p, q) for p, q in zip(_random_tower_points(rng, a.heights, 8),
                                 _random_tower_points(rng, b.heights, 8))]
    pb = [(p, q) for p, q in zip(_random_tower_points(rng, a.heights, 8),
                                 _random_tower_points(rng, b.heights, 8))]
    n = 12
    da = bowen_block(a, [p[0] for p in pa], [q[0] for q in pb], n)
    db = bowen_block(b, [p[1] for p in pa], [q[1] for q in pb], n)
    dense = bowen_block(prod, pa, pb, n)
    assert np.array_equal(dense, np.maximum(da, db))
    for cap in (0.1, 0.2):
        got = _capped(prod, pa, pb, n, cap)
        below = got < cap
        assert np.array_equal(below, dense < cap)
        assert (got[below] == dense[below]).all()
        assert (got[~below] <= dense[~below] + 1e-12).all()


# ---------------------------------------------------------------------------
# packed-byte budget and lazy product samples

_BUDGET_SYSTEMS = {
    "tower": lambda: tower_system(PowerHeights(2)),
    "rotation": lambda: circle_rotation(0.3),
    "full-shift:3": lambda: full_shift(3),
    "full-shift:300": lambda: full_shift(300),
    "sturmian": lambda: sturmian_system(GOLDEN),
    "tower x sturmian": lambda: make_system(f"product:tower-power:2,sturmian:{GOLDEN!r}"),
    "sturmian x tower": lambda: make_system(f"product:sturmian:{GOLDEN!r},tower-power:2"),
}


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("name", list(_BUDGET_SYSTEMS))
def test_pack_limit_sizes_a_family_as_pack_lays_it_out(monkeypatch, name, n):
    # the bytes check_pack_limit refuses past are those the pack takes
    system = _BUDGET_SYSTEMS[name]()
    sample = system.sampler(3)
    nbytes = system.pack(sample, n).nbytes
    monkeypatch.setattr(systems, "PACK_LIMIT", nbytes)
    systems.check_pack_limit("packing", system, len(sample), n)
    monkeypatch.setattr(systems, "PACK_LIMIT", nbytes - 1)
    with pytest.raises(ValueError, match=f"packing packs a family of {len(sample)} points "
                                         f"into {nbytes} bytes, beyond the limit of {nbytes - 1}"):
        systems.check_pack_limit("packing", system, len(sample), n)


def test_shift_row_at_the_budget_packs_and_one_symbol_more_is_refused(monkeypatch):
    # a subshift row holds 2n + 128 one-byte symbols
    system = sturmian_system(GOLDEN)
    n, row = 100, 2 * 100 + 128
    monkeypatch.setattr(systems, "PACK_LIMIT", row)
    assert system.pack([], n).itemsize == row
    assert system.pack(system.sampler(3), n).nbytes == 3 * row
    monkeypatch.setattr(systems, "PACK_LIMIT", row - 1)
    with pytest.raises(ValueError, match=f"a window of {n} packs {row} bytes per point, "
                                         f"beyond the limit of {row - 1}"):
        system.pack([], n)


def test_shift_family_is_sized_without_building_its_rows():
    # n = 2^24 - 64 fills the 32 MiB budget with one row; its empty batch
    # builds no index array of n + 128 entries (134 MB of int64)
    system = full_shift(2)
    tracemalloc.start()
    try:
        assert system.pack([], 2 ** 24 - 64).itemsize == systems.PACK_LIMIT
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # numpy may sum field sizes in 32 bits: a 2^30 window would report a
    # negative row size, so it is refused before any dtype is made
    with pytest.raises(ValueError, match="a window of 1073741824 packs 2147483776 bytes"):
        system.pack([], 2 ** 30)


@pytest.mark.parametrize("spec", [f"product:tower-power:2,sturmian:{GOLDEN!r}",
                                  f"product:sturmian:{GOLDEN!r},full-shift:2"])
def test_product_sample_is_the_a_major_pair_list(spec):
    system = make_system(spec)
    sample = system.sampler(4)
    assert isinstance(sample, ProductSample)
    pairs = [(pa, pb) for pa in sample.sa for pb in sample.sb]
    assert len(sample) == len(pairs) and list(sample) == pairs
    assert sample[-1] == pairs[-1] and sample[5] == pairs[5]
    with pytest.raises(IndexError):
        sample[len(pairs)]
    # the factor samples are the factors' own canonical samples
    a, b = system.parts
    assert len(sample.sa) == len(a.sampler(4)) and len(sample.sb) == len(b.sampler(4))


@pytest.mark.parametrize("spec", ["tower-power:2,sturmian:{g}", "sturmian:{g},tower-power:2",
                                  "sturmian:{g},full-shift:2", "full-shift:2,sturmian:{g}",
                                  "tower-exp,tower-power:1"])
def test_product_pack_of_a_sample_matches_its_pair_list_bitwise(spec):
    system = make_system("product:" + spec.format(g=repr(GOLDEN)))
    sample = system.sampler(5)
    for n in (1, 9):
        lazy, listed = system.pack(sample, n), system.pack(list(sample), n)
        assert lazy.dtype == listed.dtype
        assert lazy.tobytes() == listed.tobytes()


@pytest.mark.parametrize("spec", [f"product:tower-power:1,sturmian:{GOLDEN!r}",
                                  f"product:sturmian:{GOLDEN!r},tower-exp"])
def test_product_sample_slices_are_lists_of_pairs(spec):
    # as a grid's slices are lists of points: every slice form, the
    # reproducer included, gives the pairs of its indices
    sample = make_system(spec).sampler(3)
    pairs = [sample[i] for i in range(len(sample))]
    assert sample[1:3] == pairs[1:3] and isinstance(sample[1:3], list)
    for cut in (slice(None), slice(-4, None), slice(None, None, -5), slice(5, 2),
                slice(2, 1000, 7)):
        assert sample[cut] == pairs[cut]


def _row_range_samples():
    """(id, system, sample) for every built-in sample kind: grids over a
    stepped range, a tuple and an empty level list, lazy products in both
    factor orders, and plain lists."""
    tower, exp = tower_system(PowerHeights(2)), tower_system(ExpHeights())
    cases = [("grid stepped", tower, tower_sample(7, range(40, 3, -7))),
             ("grid tuple", exp, tower_sample(5, (0, 5, 2, 900, 5, 0))),
             ("grid empty", tower, tower_sample(3, range(0)))]
    for spec in (f"tower-power:2,sturmian:{GOLDEN!r}", f"sturmian:{GOLDEN!r},tower-power:2",
                 "tower-exp,tower-power:1", f"sturmian:{GOLDEN!r},full-shift:2"):
        system = make_system("product:" + spec)
        cases.append((spec, system, system.sampler(5)))
        cases.append((spec + " list", system, list(system.sampler(4))))
    for system in (tower, sturmian_system(GOLDEN), full_shift(3), circle_rotation(0.3)):
        cases.append((system.name + " list", system, list(system.sampler(30))))
    return cases


@pytest.mark.parametrize("case", _row_range_samples(), ids=lambda c: c[0])
def test_row_range_pack_is_the_same_rows_of_the_whole_pack(case):
    # ranges that split a level or a factor row, empty ones, ones reaching
    # past the end, and the whole sample
    _, system, sample = case
    m = len(sample)
    ranges = [(0, None), (0, 0), (m, m), (3, 3), (5, 2), (0, 1), (1, m - 1), (3, 17),
              (m - 8, m), (m - 3, m + 10), (m + 4, m + 9)]
    for n in (1, 9):
        whole = system.pack(sample, n)
        assert len(whole) == m
        for lo, hi in ranges:
            part = system.pack(sample, n, lo, hi)
            assert part.dtype == whole.dtype
            assert part.tobytes() == whole[lo:hi].tobytes(), (lo, hi)


@pytest.mark.parametrize("levels", [range(40, 3, -7), range(0, 3000, 113), (0, 5, 2, 900, 5)])
def test_grid_rows_are_its_points_axes_bitwise(levels):
    grid = tower_sample(7, levels)
    for lo, hi in ((0, None), (3, 20), (6, 8), (9, 9)):
        angles, lv = grid.rows(lo, hi)
        points = grid[lo:hi]
        assert angles.tobytes() == np.array([p.angle for p in points]).tobytes()
        assert lv.dtype == np.int64 and lv.tolist() == [p.level for p in points]
