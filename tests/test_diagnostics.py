"""Recurrence and word-complexity probes, and tower level invariance."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyent import (
    ExpHeights,
    TowerPoint,
    circle_rotation,
    full_shift,
    one_defect_point,
    return_time,
    sturmian_generate,
    sturmian_system,
    tower_system,
    word_complexities,
)
from polyent import diagnostics
from polyent.constructions import separated_shift_family
from polyent.diagnostics import block_codes
from polyent.systems import SymbolicWord, word_window

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
# distality

def _stepped_distality(system, x, y, window):
    """Least orbit distance of x and y over the iterates |k| <= window, by
    stepping both points both ways."""
    gap = system.metric(x, y)
    fx, fy, bx, by = x, y, x, y
    for _ in range(window):
        fx, fy = system.step(fx), system.step(fy)
        bx, by = system.inverse(bx), system.inverse(by)
        gap = min(gap, system.metric(fx, fy), system.metric(bx, by))
    return gap


def test_distality_gap_is_exactly_the_height_gap():
    fam = ExpHeights()
    system = tower_system(fam)
    x, y = TowerPoint(0.0, 1), TowerPoint(0.0, 2)
    dh = fam.height(1) - fam.height(2)
    assert _stepped_distality(system, x, y, 50) == dh
    # the gap survives long windows unchanged: heights are invariant
    assert _stepped_distality(system, x, y, 10 ** 4) == dh


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
    assert [word_complexities(word, [n], [word.end])[0] for n in range(1, 6)] == [2, 3, 4, 5, 6]


def test_word_complexity_degenerate_words():
    constant = SymbolicWord(symbols=(1,) * 30, start=0)
    assert word_complexities(constant, [1], [constant.end])[0] == 1
    assert word_complexities(constant, [7], [constant.end])[0] == 1
    periodic = SymbolicWord(symbols=(0, 1) * 15, start=0)
    assert word_complexities(periodic, [1], [periodic.end])[0] == 2
    assert word_complexities(periodic, [2], [periodic.end])[0] == 2
    assert word_complexities(periodic, [9], [periodic.end])[0] == 2


def test_word_complexity_validations():
    word = SymbolicWord(symbols=(0, 1, 0), start=0)
    with pytest.raises(ValueError):
        word_complexities(word, [0], [word.end])
    with pytest.raises(ValueError, match="shorter than block length"):
        word_complexities(word, [4], [word.end])


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
    assert word_complexities(word, [n], [word.end])[0] == brute


@st.composite
def _words_lengths_and_stops(draw):
    # ascending lengths from one drawn length; short gaps fold packed
    # symbols, long ones (past 63 // bits symbols, or past the codes' int64
    # headroom) must rank the codes first
    word, n = draw(_words_and_lengths())
    lengths = [n]
    for _ in range(draw(st.integers(0, 5))):
        gap = draw(st.one_of(st.integers(0, 3), st.integers(4, 120)))
        if lengths[-1] + gap > word.symbols.size:
            break
        lengths.append(lengths[-1] + gap)
    stops = [draw(st.integers(word.start + length, word.end)) for length in lengths]
    return word, lengths, stops


def _brute_complexities(word, lengths, stops):
    symbols = tuple(word.symbols.tolist())
    return [len({symbols[i:i + n] for i in range(stop - word.start - n + 1)})
            for n, stop in zip(lengths, stops)]


def _motif_with_a_high_bit(size, lengths):
    # period-5 motif whose symbol 20 is raised by half the alphabet: with
    # 256 symbols the blocks at 20 and 25 then differ only in their first
    # symbol's top bit, which an int64 code of 9 8-bit symbols pushes out
    symbols = [k % 5 % size for k in range(60)]
    symbols[20] += size // 2
    word = SymbolicWord(symbols=tuple(symbols), start=3, alphabet_size=size)
    return word, lengths, [word.end] * len(lengths)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_words_lengths_and_stops())
@example(_motif_with_a_high_bit(256, [7, 9]))
@example(_motif_with_a_high_bit(256, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]))
@example(_motif_with_a_high_bit(17, [12, 13, 40]))
@example(_motif_with_a_high_bit(2, [1, 60]))
def test_word_complexities_match_brute_force_on_each_prefix(case):
    word, lengths, stops = case
    assert word_complexities(word, lengths, stops) == _brute_complexities(word, lengths, stops)


def test_word_complexities_stop_at_each_range():
    # a stop ends the range: the 1 at index 4 is seen only by stops past it
    word = SymbolicWord(symbols=(0,) * 6 + (1,) + (0,) * 5, start=-2)
    assert word_complexities(word, [1, 1, 2, 2, 2], [4, 5, 4, 5, 6]) == [1, 2, 1, 2, 3]


def test_word_complexities_validations():
    word = SymbolicWord(symbols=(0, 1, 0, 1), start=10)
    assert word_complexities(word, [], []) == []
    with pytest.raises(ValueError, match="stops"):
        word_complexities(word, [1, 2], [14])
    with pytest.raises(ValueError, match="ascending"):
        word_complexities(word, [2, 1], [14, 14])
    with pytest.raises(ValueError, match="beyond"):
        word_complexities(word, [1], [15])
    with pytest.raises(ValueError, match="shorter than block length"):
        word_complexities(word, [3], [12])


def test_word_complexities_take_unsigned_symbols():
    # no bitwise loop mixes uint64 with the int64 codes
    symbols = np.array([0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0], np.uint64)
    word = SymbolicWord(symbols=symbols, start=0)
    lengths, stops = [1, 2, 4, 5], [word.end] * 4
    assert word_complexities(word, lengths, stops) == _brute_complexities(word, lengths, stops)


# ---------------------------------------------------------------------------
# the rank ladder across its levels

# lengths past the packed width and two or more ranked levels of every
# ladder word below, with a gap of 636 symbols
LADDER_LENGTHS = [1, 63, 64, 700, 701, 5000]


def _ladder_word(seed, alphabet, dtype, motif):
    # 6,000 symbols: free, or a random motif repeated with a few symbols
    # changed, where long blocks recur, so equal blocks must get equal codes
    # at every level while the changes keep distinct ones apart
    rng = np.random.default_rng(seed)
    if motif:
        symbols = np.resize(rng.integers(0, alphabet, int(rng.integers(40, 400))), 6000)
        changed = rng.integers(0, symbols.size, 12)
        symbols[changed] = rng.integers(0, alphabet, changed.size)
    else:
        symbols = rng.integers(0, alphabet, 6000)
    return SymbolicWord(symbols=symbols.astype(dtype), start=int(rng.integers(-50, 50)),
                        alphabet_size=alphabet)


def _block_bytes(symbols, n):
    # each length-n block of the symbols as bytes, by start
    raw, size = np.ascontiguousarray(symbols).tobytes(), symbols.itemsize
    return [raw[i * size:(i + n) * size] for i in range(symbols.size - n + 1)]


def _counted_ranks(monkeypatch):
    # the size of every code array the ladder ranks
    calls = []
    real = diagnostics._ranks

    def counted(code):
        calls.append(code.size)
        return real(code)

    monkeypatch.setattr(diagnostics, "_ranks", counted)
    return calls


@pytest.mark.parametrize("motif", [True, False], ids=["motif", "free"])
@pytest.mark.parametrize("alphabet,dtype", [(2, np.int8), (3, np.int8), (5, np.int16),
                                            (3, np.uint64), (5, np.uint64)])
@pytest.mark.parametrize("seed", range(2))
def test_word_complexities_match_brute_force_across_ladder_levels(monkeypatch, seed,
                                                                  alphabet, dtype, motif):
    word = _ladder_word(seed, alphabet, dtype, motif)
    rng = np.random.default_rng(1000 + seed)
    # drawn lengths add repeats and more gaps wider than 63 // bits symbols
    drawn = rng.integers(1, 5001, 4).tolist() + rng.choice(LADDER_LENGTHS, 2).tolist()
    lengths = sorted(LADDER_LENGTHS + drawn)
    stops = [int(rng.integers(word.start + n, word.end + 1)) for n in lengths]
    ranks = _counted_ranks(monkeypatch)
    lows = []
    real_distinct = diagnostics._distinct

    def distinct(code):
        lows.append(int(code.min()))
        return real_distinct(code)

    monkeypatch.setattr(diagnostics, "_distinct", distinct)
    counts = word_complexities(word, lengths, stops)
    assert len(ranks) >= 3
    # no shift or fold pushes a code past a nonnegative int64
    assert min(lows) >= 0
    assert counts == [len(set(_block_bytes(word.symbols[:stop - word.start], n)))
                      for n, stop in zip(lengths, stops)]


@pytest.mark.parametrize("n", [64, 700, 5000])
@pytest.mark.parametrize("alphabet,dtype", [(2, np.int8), (5, np.uint64)])
def test_block_codes_classes_match_brute_force_across_ladder_levels(alphabet, dtype, n):
    # two starts share a code exactly when their blocks are equal: each
    # start's first start with an equal code is its first with an equal block
    word = _ladder_word(7, alphabet, dtype, motif=True)
    codes = block_codes(word.symbols, alphabet, n)
    by_code, by_block = {}, {}
    assert codes.size == word.symbols.size - n + 1
    assert [by_code.setdefault(c, i) for i, c in enumerate(codes.tolist())] == \
        [by_block.setdefault(b, i) for i, b in enumerate(_block_bytes(word.symbols, n))]


@pytest.mark.parametrize("k,arity", [(1, 63), (2, 63), (3, 39), (64, 10), (631, 6),
                                     (3781, 5), (18901, 4), (2 ** 31, 2)])
def test_ladder_arity_folds_the_most_ranks_an_int64_holds(k, arity):
    # the Sturmian levels of 63, 630, 3,780 and 18,900 symbols hold 64,
    # 631, 3,781 and 18,901 distinct blocks
    assert diagnostics._arity(k) == arity
    assert k ** arity <= 2 ** 63 and (arity == 63 or k ** (arity + 1) > 2 ** 63)


def test_complexity_table_ranks_each_ladder_level_once(monkeypatch):
    # the diagnose --check complexity --n-max 4000 path: every length from
    # 1 to 4,000 on one word, over the ranked levels of 63, 630 and 3,780
    # symbols; ranking the codes whenever a length outgrew them made 94 ranks
    system = sturmian_system(GOLDEN)
    word = system.word_fn(0, word_window(system, 4000) - 1)
    ranks = _counted_ranks(monkeypatch)
    assert word_complexities(word, range(1, 4001), [word.end] * 4000) == list(range(2, 4002))
    assert len(ranks) == 3


def _traced_peak(fn, *args):
    # the call's result and the peak of the memory it traced
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_word_complexities_trace_at_most_40_bytes_per_symbol():
    # the n = 32,768 cell of a three-scale golden estimate: spans n, n + 2
    # and n + 4 over their own recurrence windows of one 107,796-symbol
    # word. Ranks overwrite the codes they rank and extra symbols shift into
    # the codes in place; a ladder that keeps a second code array, or the
    # previous round's codes while the next one sorts, traces about 56
    system = sturmian_system(GOLDEN)
    spans = [32768, 32770, 32772]
    stops = [word_window(system, span) for span in spans]
    assert stops == [107792, 107794, 107796]
    word = system.word_fn(0, max(stops) - 1)
    counts, peak = _traced_peak(word_complexities, word, spans, stops)
    assert counts == [span + 1 for span in spans]
    assert peak <= 40 * word.symbols.size


def test_separated_shift_family_traces_within_the_counting_peak():
    # the factor-shift pick of the n = 32,768 audit over its 107,792-symbol
    # word: 75,025 block codes, 5.6 bytes per symbol. The first-occurrence
    # selection sorts them in place and traces 11.2 bytes per symbol on top
    # of them, under the rank ladder's own peak of 24.1; np.unique(codes,
    # return_index=True) traced 22.3 on top of them, which put the whole
    # pick at 27.8
    system = sturmian_system(GOLDEN)
    n = 32768
    word = system.word_fn(0, word_window(system, n) - 1)
    assert word.symbols.size == 107792
    first, peak = _traced_peak(separated_shift_family, word, n)
    assert peak <= 26 * word.symbols.size
    codes = block_codes(word.symbols, word.alphabet_size, n)
    unique_first = np.sort(np.unique(codes, return_index=True)[1])
    assert first == unique_first[:n + 1].tolist()


def test_word_complexity_growth_bounds():
    word = sturmian_generate(SILVER, 0, 400)
    prev = 0
    for n in range(1, 30):
        p = word_complexities(word, [n], [word.end])[0]
        assert p >= prev
        assert p <= min(2 ** n, 401 - n + 1)
        prev = p


def test_word_complexity_one_defect():
    symbols = tuple(0 if k == 0 else 1 for k in range(-20, 21))
    word = SymbolicWord(symbols=symbols, start=-20)
    assert [word_complexities(word, [n], [word.end])[0] for n in (1, 3, 5)] == [2, 4, 6]


def test_complexity_dichotomy_at_small_lengths():
    # aperiodic words clear n+1 everywhere; periodic words dip below n
    for alpha in (GOLDEN, SILVER):
        word = sturmian_generate(alpha, 0, 330)
        assert all(word_complexities(word, [n], [word.end])[0] >= n + 1 for n in range(1, 31))
    periodic = SymbolicWord(symbols=(0, 1, 1) * 40, start=0)
    assert any(word_complexities(periodic, [n], [periodic.end])[0] <= n for n in range(1, 31))
