"""Witness families and their certifiers.

Threshold counts are checked against exact rational re-derivations, so a
float rounding drift in the construction arithmetic cannot pass unnoticed.
"""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyent import (
    ExpHeights,
    PowerHeights,
    TowerPoint,
    backward_orbit,
    certified_factor_shifts,
    certified_separated_witness,
    certified_spanning_witness,
    circle_dist,
    circle_rotation,
    count_table,
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


@pytest.mark.parametrize("window,eps,cutoff", [
    (25, 0.2, 25), (50, 0.05, 100), (54, 0.25, 36), (100, 0.1, 100)])
def test_drift_cutoff_is_exact_at_power_one_and_a_half(window, eps, cutoff):
    # at each cell the product window * height(cutoff) of the floats lies
    # below eps (or height(cutoff - 1) at or above it) by less than the
    # float product resolves, so a float comparison put the cutoff one
    # level up: 26, 101, 37 and 101
    fam = PowerHeights(1.5)
    assert drift_cutoff(window, eps, fam) == cutoff
    assert Fraction(window) * Fraction(fam.height(cutoff)) < Fraction(eps)
    assert Fraction(window) * Fraction(fam.height(cutoff - 1)) >= Fraction(eps)


@pytest.mark.parametrize("fam", [ExpHeights(), PowerHeights(1.5), PowerHeights(2.5)],
                         ids=lambda fam: fam.label)
def test_drift_cutoff_is_minimal_in_exact_arithmetic(fam):
    for window in list(range(1, 101)) + [2 ** 10, 2 ** 20]:
        for eps in EPS_GRID:
            h = drift_cutoff(window, eps, fam)
            assert Fraction(window) * Fraction(fam.height(h)) < Fraction(eps)
            if h > 1:
                assert Fraction(window) * Fraction(fam.height(h - 1)) >= Fraction(eps)


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


def _gap_passes(window, eps, c, level):
    # the exact gap rule, re-derived: the height gap g from the level below,
    # in rationals of the float heights, reads eps at step 0 or by drift
    if level == 1:
        return True
    fam = PowerHeights(c)
    g = Fraction(fam.height(level - 1)) - Fraction(fam.height(level))
    return g >= Fraction(eps) or (window - 1) * g >= Fraction(eps)


@pytest.mark.parametrize("c", [1, 2, 3])
def test_separation_levels_exact_for_integer_exponents(c):
    # the same rule holds at every c; the generated sweep below covers c 1.5
    for window in (1, 2, 100, 1000, 10 ** 4):
        for eps in (1 / 3, 0.2, 0.1):
            lv = separation_levels(window, eps, c)
            assert all(_gap_passes(window, eps, c, level) for level in range(1, lv + 1))
            assert not _gap_passes(window, eps, c, lv + 1)


def test_separation_levels_frozen_values():
    assert separation_levels(1000, 0.1, 2) == 27
    assert separation_levels(100, 0.2, 2) == 10
    # one step reads only the step-0 height gap: 1/2 from level 1 to 2, 1/6
    # from 2 to 3. At eps <= 1/3 level 1 always qualifies; past 1/3 the rule
    # refuses, so no window is too short for every level
    assert separation_levels(1, 1 / 3, 1) == 2
    for window, eps in ((10, 0.5), (1, 1.9), (10, 0.0)):
        with pytest.raises(ValueError, match=r"\(0, 1/3\] for a separated family"):
            separation_levels(window, eps, 1)


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
    # 4 angles on the levels L with 9 (1/(L-1) - 1/L) >= 0.25
    rep = separated_witness(10, 0.25, 1)
    assert rep.size == rep.predicted_size == 24
    assert rep.levels == 6
    levels = {p.level for p in rep.points}
    assert levels == {1, 2, 3, 4, 5, 6}
    rep = separated_witness(1000, 0.1, 2)
    assert rep.size == 243
    assert rep.levels == 27
    assert rep.depth == pytest.approx((2 * 1000 / 0.1) ** (1 / 3), rel=1e-12)
    with pytest.raises(ValueError, match=r"\(0, 1/3\]"):
        separated_witness(10, 0.34, 1)


def test_separated_witness_refuses_scales_past_a_third():
    # at power 1, levels 2 and 6 differ by exactly 1/3: the pair at one angle
    # drifts by 0, 1/3 and 2/3 in turn and never reads more than 1/3, so two
    # angles per level do not separate at 0.34
    check = verify_separated(tower_system(PowerHeights(1)),
                             AngleLevelGrid(2, range(1, 55)), 1000, 0.34)
    assert not check.ok and check.min_value == pytest.approx(1 / 3)
    for which in (separation_levels, separated_witness, certified_separated_witness):
        with pytest.raises(ValueError, match=r"\(0, 1/3\] for a separated family, got 0.34"):
            which(1000, 0.34, 1)
    assert separated_witness(1000, 1 / 3, 1).size == 3 * 55


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([1, 1.5, 2, 3]), st.integers(1, 200),
       st.one_of(st.floats(0.05, 1 / 3), st.sampled_from([1 / 3, 0.25, 1 / 6, 1 / 7])))
def test_separated_witnesses_up_to_a_third_pass_their_audit(c, n, eps):
    # the only failure left is a tie on one level, where 1/eps is an integer
    # and rounding puts a neighbouring gap just below eps
    rep, check = certified_separated_witness(n, eps, c)
    if not rep.verified:
        angles = floor_reciprocal(eps)
        i, j = check.min_pair
        assert i // angles == j // angles
        assert 1 / eps == angles


SWEEP_WINDOWS = [*range(1, 41), 64, 100, 256, 1000]
SWEEP_SCALES = [1 / 3, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05, 0.02]


@pytest.mark.parametrize("c", [1, 1.5, 2, 3])
def test_separated_levels_are_certified_and_maximal_over_the_sweep(c):
    # every analytic-separated cell is the family its certifier verifies; the
    # family with one more level fails between its two top levels; and the
    # boundary walk agrees with a scan up from level 1
    system = tower_system(PowerHeights(c))
    table = count_table(system, SWEEP_WINDOWS, SWEEP_SCALES, "analytic-separated")
    for record in table:
        n, eps = record.n, record.eps
        rep, check = certified_separated_witness(n, eps, c)
        assert record.count == rep.size
        angles, top = floor_reciprocal(eps), rep.levels
        i, j = check.min_pair
        assert check.ok
        assert check.all_strict or (i // angles == j // angles and 1 / eps == angles)
        over = verify_separated(system, AngleLevelGrid(angles, range(1, top + 2)), n, eps)
        i, j = over.min_pair
        assert not over.ok and {i // angles + 1, j // angles + 1} == {top, top + 1}
        scanned = 1
        while _gap_passes(n, eps, c, scanned + 1):
            scanned += 1
        assert top == scanned == separation_levels(n, eps, c)


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
    factors = [tuple(word.symbols[i:i + 3].tolist()) for i in indices]
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
        block = tuple(word.symbols[i - word.start:i - word.start + n].tolist())
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
    handle = dataclasses.replace(circle_rotation(0.3), name="one-way", inverse=None)
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
    # above 1/10), and grid 100 samples 64,600; the audit is never reached.
    # A tower row packs into 16 bytes.
    monkeypatch.setattr(systems, "PACK_LIMIT", 16 * limit)
    monkeypatch.setattr(constructions, "verify_spanning", None)
    grid = 1 if what.startswith("center") else 100
    kind, size = what.rsplit(" of ", 1)
    with pytest.raises(ValueError, match=f"audit's {kind} at n=64, eps=0.1 packs a family of "
                                         f"{size} points into {16 * int(size)} bytes, "
                                         f"beyond the limit of {16 * limit}"):
        certified_spanning_witness(64, 0.1, PowerHeights(1), grid=grid)


def test_certified_separated_witness_passes_at_full_depth():
    rep, check = certified_separated_witness(100, 0.1, 1)
    assert rep.verified and rep.strict
    assert check.ok and check.all_strict
    assert rep.levels == 31
    assert rep.size == 9 * 31
    assert check.min_value > 0.1


def _recorded_audits(monkeypatch):
    checks = []
    real = constructions.verify_separated

    def audit(*args):
        checks.append(real(*args))
        return checks[-1]

    monkeypatch.setattr(constructions, "verify_separated", audit)
    return checks


@pytest.mark.parametrize("eps,angles,levels", [(0.25, 4, 63), (1 / 3, 3, 55),
                                                (0.125, 8, 89)])
def test_certified_separated_witness_keeps_every_level_at_a_tight_scale(
        monkeypatch, eps, angles, levels):
    # with 1/eps an integer, neighbouring angles of one level sit exactly eps
    # apart on every level: the one audit holds, not strictly, and its
    # closest pair lies on one level
    checks = _recorded_audits(monkeypatch)
    rep, check = certified_separated_witness(1000, eps, 1)
    assert checks == [check]
    assert rep.verified and not rep.strict
    assert check.ok and check.min_value == eps
    i, j = check.min_pair
    assert i // angles == j // angles
    assert rep.levels == levels and rep.size == rep.predicted_size == angles * levels


@pytest.mark.parametrize("eps,angles,levels", [pytest.param(1 / 6, 6, 77, id="1/6"),
                                                pytest.param(1 / 7, 7, 84, id="1/7")])
def test_certified_separated_witness_stops_at_a_same_level_failure(
        monkeypatch, eps, angles, levels):
    # one level's gap 1 - (angles - 1)/angles rounds just below eps, so the
    # one audit fails on a pair within one level; every level carries the
    # same angles, so no choice of levels could mend it
    checks = _recorded_audits(monkeypatch)
    rep, check = certified_separated_witness(1000, eps, 1)
    assert checks == [check]
    assert not rep.verified and not check.ok
    i, j = check.min_pair
    assert i // angles == j // angles
    assert rep.levels == levels and rep.size == rep.predicted_size == angles * levels


def test_certified_separated_witness_audits_once(monkeypatch):
    # at n 2, eps 0.2 the third level lies within eps of the second, drift
    # included, so the family stops at two levels and holds strictly
    checks = _recorded_audits(monkeypatch)
    rep, check = certified_separated_witness(2, 0.2, 1)
    assert checks == [check]
    assert rep.verified and rep.strict and check.all_strict
    assert rep.levels == 2 and rep.size == rep.predicted_size == 8


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


def test_factor_shift_families_are_sized_in_bytes_before_packing(monkeypatch):
    # a subshift row holds 2n + 128 bytes, so n = 4063 is the longest window
    # whose n + 1 rows fit in 32 MiB
    system = sturmian_system(GOLDEN)
    systems.check_pack_limit("audit", system, 4064, 4063)
    with pytest.raises(ValueError, match="into 33560640 bytes, beyond the limit of 33554432"):
        systems.check_pack_limit("audit", system, 4065, 4064)
    # refused before the word is scanned
    calls = []
    monkeypatch.setattr(constructions, "separated_shift_family", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="factor-shift audit at n=4064 packs"):
        certified_factor_shifts(system, system.word_fn(0, 10), 4064)
    assert calls == []


def test_largest_factor_shift_audit_traces_under_100_mib():
    # n = 4063 is the largest family PACK_LIMIT admits: its 4,064 rows pack
    # into 33.5 MB, each rule group is read by one call over its merged
    # windows, and each block's keys join by one sort, not a rows x cols
    # byte compare
    system = sturmian_system(GOLDEN)
    n = 4063
    word = system.word_fn(0, systems.word_window(system, n) - 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rep, check = certified_factor_shifts(system, word, n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.verified and rep.size == n + 1 and check.min_value == 1.0
    assert peak < 100 * 2 ** 20


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
