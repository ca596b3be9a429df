"""Recurrence, distality, and word-complexity probes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyent import (
    ExpHeights,
    SystemHandle,
    TowerPoint,
    circle_dist,
    circle_rotation,
    distality_gap,
    full_shift,
    one_defect_point,
    return_time,
    sturmian_generate,
    tower_system,
    uniform_recurrence_check,
    word_complexity,
)
from polyent.systems import SymbolicWord

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0


def _ceil_reciprocal(eps: float) -> int:
    f = Fraction(eps)
    return -(-f.denominator // f.numerator)


# ---------------------------------------------------------------------------
# return times

def test_return_time_identity_map():
    system = circle_rotation(0.0)
    assert return_time(system, 0.3, 0.1, 5) == 1


def test_return_time_rotation_example():
    system = circle_rotation(0.3)
    assert return_time(system, 0.0, 0.25, 10) == 3


def test_return_time_can_miss():
    system = full_shift(2)
    assert return_time(system, one_defect_point(), 1.0, 10) is None
    with pytest.raises(ValueError):
        return_time(system, one_defect_point(), 1.0, 0)
    with pytest.raises(ValueError):
        return_time(system, one_defect_point(), 0.0, 5)


def test_rotation_pigeonhole_bound():
    # ceil(1/eps) steps always suffice for a rotation, whatever the angle
    rng = np.random.default_rng(13)
    for theta in rng.random(20):
        system = circle_rotation(float(theta))
        for eps in (0.5, 0.25, 0.1, 0.05):
            bound = _ceil_reciprocal(eps)
            t = return_time(system, 0.0, eps, bound)
            assert t is not None and t <= bound


# ---------------------------------------------------------------------------
# uniform recurrence

def test_uniform_recurrence_on_exp_tower():
    system = tower_system(ExpHeights())
    sample = system.sampler(20)
    report = uniform_recurrence_check(system, sample, 0.25, 4)
    assert report.all_within
    assert report.eps == 0.25 and report.m_bound == 4
    assert len(report.times) == len(sample)
    assert all(1 <= t <= 4 for _, t in report.times)


def test_uniform_recurrence_flags_non_returning_points():
    system = full_shift(2)
    sample = [one_defect_point(), system.sampler(2)[0]]
    report = uniform_recurrence_check(system, sample, 1.0, 8)
    assert not report.all_within
    assert report.times[0][1] is None
    assert report.times[1][1] == 1


# ---------------------------------------------------------------------------
# distality

def test_distality_gap_is_exactly_the_height_gap():
    fam = ExpHeights()
    system = tower_system(fam)
    x, y = TowerPoint(0.0, 1), TowerPoint(0.0, 2)
    dh = fam.height(1) - fam.height(2)
    assert distality_gap(system, x, y, 50) == dh
    # the gap survives long windows unchanged: heights are invariant
    assert distality_gap(system, x, y, 10 ** 4) == dh


def test_distality_gap_same_circle_is_constant():
    system = tower_system(ExpHeights())
    x, y = TowerPoint(0.1, 3), TowerPoint(0.4, 3)
    gap = distality_gap(system, x, y, 200)
    assert gap == pytest.approx(circle_dist(0.1, 0.4), rel=1e-12)


def test_distality_gap_validations():
    system = tower_system(ExpHeights())
    p = TowerPoint(0.2, 1)
    with pytest.raises(ValueError, match="coincide"):
        distality_gap(system, p, p, 10)
    one_way = SystemHandle(name="one-way", metric=circle_dist, step=lambda x: x)
    with pytest.raises(ValueError, match="no inverse"):
        distality_gap(one_way, 0.1, 0.3, 5)
    # window 0 needs no inverse at all
    assert distality_gap(one_way, 0.1, 0.3, 0) == pytest.approx(0.2, abs=1e-15)


def test_tower_iterates_preserve_level_over_long_windows():
    fam = ExpHeights()
    system = tower_system(fam)
    p = TowerPoint(0.37, 4)
    forward = p
    backward = p
    for _ in range(100):
        forward = system.step(forward)
        backward = system.inverse(backward)
    assert forward.level == backward.level == 4


# ---------------------------------------------------------------------------
# word complexity

def test_word_complexity_golden_prefix():
    word = sturmian_generate(GOLDEN, 0, 60)
    assert [word_complexity(word, n) for n in range(1, 6)] == [2, 3, 4, 5, 6]


def test_word_complexity_degenerate_words():
    constant = SymbolicWord(symbols=(1,) * 30, start=0)
    assert word_complexity(constant, 1) == 1
    assert word_complexity(constant, 7) == 1
    periodic = SymbolicWord(symbols=(0, 1) * 15, start=0)
    assert word_complexity(periodic, 1) == 2
    assert word_complexity(periodic, 2) == 2
    assert word_complexity(periodic, 9) == 2


def test_word_complexity_validations():
    word = SymbolicWord(symbols=(0, 1, 0), start=0)
    with pytest.raises(ValueError):
        word_complexity(word, 0)
    with pytest.raises(ValueError, match="shorter than block length"):
        word_complexity(word, 4)


@st.composite
def _words_and_lengths(draw):
    size = draw(st.sampled_from([2, 3, 4, 17, 256]))
    length = draw(st.integers(1, 300))
    if draw(st.booleans()):
        # a repeated motif with a few changed symbols has few distinct
        # blocks, so ranking folds many ranks per round; free words do not
        motif = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8))
        symbols = [motif[i % len(motif)] for i in range(length)]
        for i in draw(st.lists(st.integers(0, length - 1), max_size=3)):
            symbols[i] = draw(st.integers(0, size - 1))
    else:
        symbols = draw(st.lists(st.integers(0, size - 1),
                                min_size=length, max_size=length))
    n = draw(st.integers(1, length))
    start = draw(st.integers(-20, 20))
    return SymbolicWord(symbols=tuple(symbols), start=start, alphabet_size=size), n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_words_and_lengths())
def test_word_complexity_matches_brute_force(case):
    word, n = case
    symbols = tuple(word.symbols.tolist())
    brute = len({symbols[i:i + n] for i in range(len(symbols) - n + 1)})
    assert word_complexity(word, n) == brute


def test_word_complexity_growth_bounds():
    word = sturmian_generate(SILVER, 0, 400)
    prev = 0
    for n in range(1, 30):
        p = word_complexity(word, n)
        assert p >= prev
        assert p <= min(2 ** n, 401 - n + 1)
        prev = p


def test_word_complexity_one_defect():
    symbols = tuple(0 if k == 0 else 1 for k in range(-20, 21))
    word = SymbolicWord(symbols=symbols, start=-20)
    assert [word_complexity(word, n) for n in (1, 3, 5)] == [2, 4, 6]


def test_complexity_dichotomy_at_small_lengths():
    # aperiodic words clear n+1 everywhere; periodic words dip below n
    for alpha in (GOLDEN, SILVER):
        word = sturmian_generate(alpha, 0, 330)
        assert all(word_complexity(word, n) >= n + 1 for n in range(1, 31))
    periodic = SymbolicWord(symbols=(0, 1, 1) * 40, start=0)
    assert any(word_complexity(periodic, n) <= n for n in range(1, 31))
