"""Witness families and their certifiers.

Threshold counts are checked against exact rational re-derivations, so a
float rounding drift in the construction arithmetic cannot pass unnoticed.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyent import (
    CustomHeights,
    ExpHeights,
    PowerHeights,
    SystemHandle,
    TowerPoint,
    backward_orbit,
    certified_factor_shifts,
    certified_separated_witness,
    certified_spanning_witness,
    circle_dist,
    circle_rotation,
    drift_cutoff,
    floor_reciprocal,
    full_shift,
    one_defect_point,
    separated_shift_family,
    separated_witness,
    separation_depth,
    separation_levels,
    spanning_witness,
    sturmian_generate,
    sturmian_system,
    tower_system,
    verify_separated,
)
from polyent import constructions, systems
from polyent.constructions import AngleLevelGrid
from polyent.systems import SymbolicWord

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

EPS_GRID = (0.2, 0.1, 0.05, 0.02)


# ---------------------------------------------------------------------------
# threshold arithmetic

def test_floor_reciprocal_is_exact_on_decimal_scales():
    # the binary values of 0.2, 0.1, 0.05, 0.02 sit just above the nominal
    # reciprocals, so the floors land one below the naive 5, 10, 20, 50
    assert [floor_reciprocal(e) for e in EPS_GRID] == [4, 9, 19, 49]
    assert floor_reciprocal(0.5) == 2
    assert floor_reciprocal(0.25) == 4
    assert floor_reciprocal(0.6) == 1
    assert floor_reciprocal(1.0) == 1
    with pytest.raises(ValueError):
        floor_reciprocal(0.0)


def test_drift_cutoff_frozen_values():
    assert drift_cutoff(100, 0.1, ExpHeights()) == 7
    assert drift_cutoff(100, 0.1, PowerHeights(2)) == 32
    # window 1 with the first height already below scale
    assert drift_cutoff(1, 0.5, ExpHeights()) == 1


def test_drift_cutoff_is_minimal_exp():
    fam = ExpHeights()
    for window in (10, 100, 10 ** 4):
        for eps in EPS_GRID:
            h = drift_cutoff(window, eps, fam)
            assert window * fam.height(h) < eps
            if h > 1:
                assert window * fam.height(h - 1) >= eps


@pytest.mark.parametrize("c", [1, 2, 3])
def test_drift_cutoff_is_minimal_power_in_exact_arithmetic(c):
    fam = PowerHeights(c)
    for window in (10, 100, 10 ** 4):
        for eps in EPS_GRID:
            h = drift_cutoff(window, eps, fam)
            f = Fraction(eps)
            assert Fraction(window, h ** c) < f
            if h > 1:
                assert Fraction(window, (h - 1) ** c) >= f


def test_drift_cutoff_custom_scan_and_exhaustion():
    fam = CustomHeights((0.5, 0.2, 0.05))
    assert drift_cutoff(1, 0.1, fam) == 3
    with pytest.raises(ValueError, match="sequence too short"):
        drift_cutoff(1, 0.01, fam)


def test_drift_cutoff_monotonicity():
    fam = PowerHeights(2)
    cuts = [drift_cutoff(w, 0.1, fam) for w in (10, 100, 1000, 10 ** 4)]
    assert cuts == sorted(cuts)
    cuts = [drift_cutoff(100, e, fam) for e in (0.2, 0.1, 0.05)]
    assert cuts == sorted(cuts)


def test_separation_depth_formula():
    assert separation_depth(10, 0.5, 1) == pytest.approx(math.sqrt(20.0), rel=1e-12)
    assert separation_depth(1000, 0.1, 2) == pytest.approx(
        (2 * 1000 / 0.1) ** (1 / 3), rel=1e-12)
    with pytest.raises(ValueError):
        separation_depth(0, 0.1, 2)
    with pytest.raises(ValueError):
        separation_depth(10, 0.1, 0.5)


@pytest.mark.parametrize("c", [1, 2, 3])
def test_separation_levels_exact_for_integer_exponents(c):
    for window in (100, 1000, 10 ** 4):
        for eps in (0.2, 0.1):
            lv = separation_levels(window, eps, c)
            f = Fraction(eps)
            assert lv ** (c + 1) * f < c * window
            assert (lv + 1) ** (c + 1) * f >= c * window


def test_separation_levels_frozen_values():
    assert separation_levels(1000, 0.1, 2) == 27
    assert separation_levels(10, 0.5, 1) == 4
    assert separation_levels(100, 0.2, 2) == 9


def test_separation_levels_raises_when_depth_collapses():
    with pytest.raises(ValueError, match="no usable levels"):
        separation_levels(1, 1.9, 1.0)


# ---------------------------------------------------------------------------
# lazy angle-level grid

def test_angle_level_grid_indexing():
    grid = AngleLevelGrid(3, [0, 4])
    assert len(grid) == 6
    assert grid[0] == TowerPoint(0.0, 0)
    assert grid[2] == TowerPoint(2 / 3, 0)
    assert grid[3] == TowerPoint(0.0, 4)
    assert grid[-1] == TowerPoint(2 / 3, 4)
    assert grid[1:3] == [TowerPoint(1 / 3, 0), TowerPoint(2 / 3, 0)]
    with pytest.raises(IndexError):
        grid[6]
    with pytest.raises(ValueError):
        AngleLevelGrid(0, [0])


def test_angle_level_grid_stays_lazy_over_huge_ranges():
    grid = AngleLevelGrid(5, range(10 ** 7 + 1))
    assert len(grid) == 5 * (10 ** 7 + 1)
    assert grid[-1] == TowerPoint(4 / 5, 10 ** 7)
    assert grid[7] == TowerPoint(2 / 5, 1)


# ---------------------------------------------------------------------------
# witness builders

def test_spanning_witness_shape_and_frozen_sizes():
    rep = spanning_witness(100, 0.1, ExpHeights())
    assert rep.size == rep.predicted_size == 80
    assert rep.cutoff == 7
    assert rep.kind == "spanning-witness"
    assert rep.points[0] == TowerPoint(0.0, 0)
    assert spanning_witness(100, 0.1, PowerHeights(2)).size == 330
    assert spanning_witness(10, 0.2, ExpHeights()).size == 25


def test_spanning_witness_accepts_coarse_scales():
    rep = spanning_witness(50, 0.6, ExpHeights())
    angles = sorted({p.angle for p in rep.points})
    assert angles == [0.0, 0.5]


def test_separated_witness_shape_and_frozen_sizes():
    rep = separated_witness(10, 0.5, 1)
    assert rep.size == rep.predicted_size == 8
    assert rep.levels == 4
    levels = {p.level for p in rep.points}
    assert levels == {1, 2, 3, 4}
    rep = separated_witness(1000, 0.1, 2)
    assert rep.size == 243
    assert rep.levels == 27
    assert rep.depth == pytest.approx((2 * 1000 / 0.1) ** (1 / 3), rel=1e-12)
    with pytest.raises(ValueError):
        separated_witness(10, 0.6, 1)


def test_separated_witness_angles_are_equally_spaced():
    rep = separated_witness(1000, 0.1, 2)
    first_level = [p.angle for p in rep.points if p.level == 1]
    assert first_level == [j / 9 for j in range(9)]
    gap = circle_dist(first_level[0], first_level[1])
    assert gap > 0.1


# ---------------------------------------------------------------------------
# shift families and backward orbits

def test_separated_shift_family_golden():
    word = sturmian_generate(GOLDEN, 0, 40)
    indices = separated_shift_family(word, 3)
    assert len(indices) == 4
    factors = [word.factor(i, 3) for i in indices]
    assert len(set(factors)) == 4
    # first occurrences come out in scan order
    assert indices == sorted(indices)
    assert separated_shift_family(word, 1) == [0, 1]
    with pytest.raises(ValueError):
        separated_shift_family(word, 0)


def _tuple_scan(word, n):
    # the first-occurrence scan over block tuples that the ranked version
    # replaced; None where it finds fewer than n + 1 distinct blocks
    seen, indices = set(), []
    for i in range(word.start, word.end - n + 1):
        block = word.factor(i, n)
        if block not in seen:
            seen.add(block)
            indices.append(i)
            if len(indices) == n + 1:
                return indices
    return None


@st.composite
def _scan_cases(draw):
    size = draw(st.sampled_from([2, 3, 17]))
    length = draw(st.integers(1, 120))
    if draw(st.booleans()):
        # periodic words with a few defects: distinct blocks are scarce, so
        # both outcomes (a family, a refusal) occur
        motif = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=6))
        symbols = [motif[i % len(motif)] for i in range(length)]
        for i in draw(st.lists(st.integers(0, length - 1), max_size=3)):
            symbols[i] = draw(st.integers(0, size - 1))
    else:
        symbols = draw(st.lists(st.integers(0, size - 1),
                                min_size=length, max_size=length))
    word = SymbolicWord(symbols=tuple(symbols), start=draw(st.integers(-20, 20)),
                        alphabet_size=size)
    return word, draw(st.integers(1, length + 2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_scan_cases())
def test_separated_shift_family_matches_tuple_scan(case):
    word, n = case
    expected = _tuple_scan(word, n)
    if expected is None:
        with pytest.raises(ValueError, match="periodic or range too short"):
            separated_shift_family(word, n)
    else:
        assert separated_shift_family(word, n) == expected


def test_separated_shift_family_rejects_periodic_words():
    word = SymbolicWord(symbols=(0, 1) * 10, start=0)
    with pytest.raises(ValueError, match="periodic or range too short"):
        separated_shift_family(word, 2)


def test_backward_orbit_rotation():
    system = circle_rotation(0.3)
    orbit = backward_orbit(system, 0.0, 3)
    assert len(orbit) == 4
    for got, want in zip(orbit, (0.0, 0.7, 0.4, 0.1)):
        assert circle_dist(got, want) <= 1e-12
    assert backward_orbit(system, 0.25, 0) == [0.25]
    with pytest.raises(ValueError):
        backward_orbit(system, 0.0, -1)


def test_backward_orbit_needs_an_inverse():
    handle = SystemHandle(name="one-way", metric=circle_dist, step=lambda x: x)
    with pytest.raises(ValueError, match="no inverse"):
        backward_orbit(handle, 0.0, 2)


# ---------------------------------------------------------------------------
# certifiers

def test_certified_spanning_witness_passes_strictly():
    rep, check = certified_spanning_witness(100, 0.1, ExpHeights(), grid=200)
    assert rep.verified and rep.strict
    assert check.ok and check.all_strict
    assert rep.size == 80
    # sample covers base plus levels 1..cutoff+5 at the requested resolution
    assert check.sample_size == 200 * (rep.cutoff + 6)


@pytest.mark.parametrize("limit,what", [(646, "center family of 6410"),
                                        (6410, "sample of 64600")])
def test_certified_spanning_witness_refuses_past_the_sample_limit(monkeypatch, limit, what):
    # power:1 at n = 64 and eps 0.1 has drift cutoff 640: grid 1 samples
    # 646 points against 10 x 641 = 6,410 centers (the float 0.1 lies just
    # above 1/10), and grid 100 samples 64,600; the audit is never reached
    monkeypatch.setattr(systems, "TOWER_SAMPLE_LIMIT", limit)
    monkeypatch.setattr(constructions, "verify_spanning", None)
    grid = 1 if what.startswith("center") else 100
    with pytest.raises(ValueError, match=f"{what} points, beyond the limit of {limit}"):
        certified_spanning_witness(64, 0.1, PowerHeights(1), grid=grid)


def test_certified_separated_witness_passes_at_full_depth():
    rep, check = certified_separated_witness(100, 0.1, 1)
    assert rep.verified and rep.strict
    assert check.ok and check.all_strict
    assert rep.levels == 31
    assert rep.size == 9 * 31
    assert rep.notes == ()
    assert check.min_value > 0.1


def test_certified_factor_shifts():
    system = sturmian_system(GOLDEN)
    word = system.word_fn(0, 55)
    rep, check = certified_factor_shifts(system, word, 5)
    # distinct blocks differ inside the window, so the separation value is
    # exactly 1.0 = eps: verified, but never strict
    assert rep.verified and not rep.strict
    assert check.min_value == 1.0
    assert rep.size == rep.predicted_size == 6
    assert rep.window == 5 and rep.eps == 1.0
    assert check.pairs == 15
    # the reported points are the shift offsets themselves
    assert all(isinstance(i, int) for i in rep.points)


def test_certified_separated_matches_direct_verification():
    rep = separated_witness(1000, 0.1, 2)
    system = tower_system(PowerHeights(2))
    check = verify_separated(system, rep.points, 1000, 0.1)
    assert check.ok and check.all_strict


def test_one_defect_backward_orbit_is_separated():
    system = full_shift(2)
    x = one_defect_point()
    m = 6
    orbit = backward_orbit(system, x, m)
    check = verify_separated(system, orbit, m, 1.0)
    assert check.ok
    assert len(orbit) == m + 1
