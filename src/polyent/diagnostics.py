"""Dynamical side-checks: recurrence and word complexity.

These are cheap probes used to cross-examine the counting results: systems
with slow orbit growth should show short return times (every point comes
back near itself quickly), and symbolic systems expose their complexity
directly through distinct-block counts. Tower distality needs no probe:
each level is invariant, so two levels stay exactly their height gap apart
for all time.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from .systems import SymbolicWord, SystemHandle

__all__ = [
    "return_time",
    "block_codes",
    "word_complexities",
]


def return_time(system: SystemHandle, x: Any, eps: float, m_max: int) -> int | None:
    """Least n in [1, m_max] with f^n(x) strictly within eps of x, else None.

    A miss is not a contradiction by itself, but a point that misses feeds
    the separated-family construction: its backward orbit to depth m_max
    is an (m_max, eps)-separated family (see the constructions module),
    which is how slow recurrence certifies fast orbit growth.
    """
    if m_max < 1:
        raise ValueError(f"step bound must be >= 1, got {m_max}")
    if not eps > 0.0:
        raise ValueError(f"scale must be positive, got {eps}")
    cur = x
    for n in range(1, m_max + 1):
        cur = system.step(cur)
        if system.metric(cur, x) < eps:
            return n
    return None


# every code stays below this bound, so it fits a nonnegative int64
_CODE_LIMIT = 1 << 63


def _ranks(code: np.ndarray) -> int:
    """Overwrite the codes with their dense ranks 0..K-1, equal codes equal
    ranks, and return K: one argsort, the sorted codes gathered, their
    adjacent-change mask written over the codes (which the scatter
    overwrites anyway), and its cumsum written over the sorted codes and
    scattered back. No bool mask is kept beside them, so a rank traces 24
    bytes per code, the codes included. ``np.unique(return_inverse=True)``
    would sort too and then hash."""
    order = np.argsort(code)
    ordered = code[order]
    code[0] = 0
    np.not_equal(ordered[1:], ordered[:-1], out=code[1:])
    np.cumsum(code, out=ordered)
    code[order] = ordered
    return int(ordered[-1]) + 1


def _distinct(code: np.ndarray) -> int:
    """Number of distinct values in a nonempty code array: a sort and a
    count of adjacent changes."""
    ordered = np.sort(code)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def _packed(symbols: np.ndarray, bits: int, width: int) -> np.ndarray:
    """One int64 per start of a length-``width`` block of ``symbols``, its
    symbols packed ``bits`` apiece (bits * width <= 63, or width 1): the
    packed width doubles by in-place shifts."""
    m = symbols.size
    code = symbols.astype(np.int64)
    length = 1
    while length < width:
        # append the next `grow` symbols, read as the low bits of the code
        # of the length-sized block ending where the longer block ends
        grow = min(length, width - length)
        count = m - length - grow + 1
        tail = code[grow:grow + count] & ((1 << bits * grow) - 1)
        code = code[:count]
        code <<= bits * grow
        code |= tail
        length += grow
    return code


def _fold(code: np.ndarray, level: np.ndarray, base: int,
          offsets: Sequence[int]) -> np.ndarray:
    """Fold into each start's code, in place, the level's values at the
    given offsets from that start: ``code = code * base + level[start +
    offset]``, offset by offset. Symbols shift in with base 2^b, ranks
    fold in with base K."""
    for off in offsets:
        code *= base
        code += level[off:off + code.size]
    return code


def _arity(k: int) -> int:
    """How many ranks below k fold into one code below ``_CODE_LIMIT``:
    the largest a with k^a <= 2^63, at least 2 and at most 63."""
    arity = 2
    while arity < 63 and k ** (arity + 1) <= _CODE_LIMIT:
        arity += 1
    return arity


def _ladder(symbols: np.ndarray, bits: int, lengths: Sequence[int],
            ends: Sequence[int], take: Callable[[np.ndarray, int], Any]) -> list:
    """``take(codes, i)`` for each ascending ``lengths[i]``, the codes being
    one int64 per start of a length-``lengths[i]`` block of ``symbols``,
    equal exactly when the blocks are, for at least the starts of the
    blocks that end by ``ends[i]``.

    A length n takes the codes of the length before by shifting its extra
    symbols in when their bound stays below ``_CODE_LIMIT``. Otherwise, up
    to w = 63 // b symbols (b bits per symbol), it packs them; past w it
    folds ceil(n / L) overlapping ranks of one ranked level (Karp, Miller
    and Rosenberg): the dense ranks of the length-L blocks over the whole
    word, L = w first. Either covers only the starts that n and the
    lengths shifted from it count. Only when n > L * arity(K), K the
    level's rank count, does the level rise: one fold of arity(K) ranks,
    its predecessor dropped, then one rank. So each level is ranked once
    for every length.
    """
    if symbols.dtype == np.uint64:
        # no bitwise loop mixes uint64 with int64; the symbols are small
        symbols = symbols.view(np.int64)
    width = max(1, 63 // bits)
    level, results, i = None, [], 0
    while i < len(lengths):
        n = lengths[i]
        code = None  # the last lengths' codes go before a level is ranked
        if level is None and n <= width:
            bound = 1 << bits * n
        else:
            if level is None:
                level, size = _packed(symbols, bits, width), width
                k = _ranks(level)
            while n > size * (a := _arity(k)):
                level = _fold(level[:level.size - (a - 1) * size].copy(), level, k,
                              range(size, a * size, size))
                size *= a
                k = _ranks(level)
            parts = -(-n // size)
            bound = k ** parts
        # the lengths after n whose extra symbols shift into its codes; the
        # bound stays strictly below the limit, so the shift base does too
        j, end = i + 1, ends[i]
        while j < len(lengths) and bound << bits * (lengths[j] - n) < _CODE_LIMIT:
            end = max(end, ends[j])
            j += 1
        if level is None:
            code = _packed(symbols[:end], bits, n)
        else:
            code = _fold(level[:end - n + 1].copy(), level, k,
                         [*range(size, (parts - 1) * size, size), n - size])
        for t in range(i, j):
            # the extra symbols of lengths[t] shift into the codes
            code = _fold(code[:code.size - (lengths[t] - n)], symbols, 1 << bits,
                         range(n, lengths[t]))
            n = lengths[t]
            results.append(take(code, t))
        i = j
    return results


def block_codes(symbols: np.ndarray, alphabet_size: int, n: int) -> np.ndarray:
    """One int64 code per start of a length-n block of ``symbols``, two
    starts getting equal codes exactly when their blocks are equal: the
    codes ``_ladder`` reaches for n over the whole word. Fewer than n
    symbols give no codes."""
    if symbols.size < n:
        return np.empty(0, np.int64)
    bits = (alphabet_size - 1).bit_length()
    return _ladder(symbols, bits, [n], [symbols.size], lambda code, i: code)[0]


def word_complexities(word: SymbolicWord, lengths: Sequence[int],
                      stops: Sequence[int]) -> list[int]:
    """Number of distinct length-``lengths[i]`` blocks of the word within
    the indices [word.start, stops[i]), for each i; lengths ascending,
    repeats allowed.

    Counts observed blocks only. A range of at least ``word_window``
    symbols holds every block of a Sturmian word (its recurrence function),
    and callers report the range alongside the count so any undercount is
    attributable.

    One ``_ladder`` serves every length, so each rank level is ranked once
    for all of them. Each count sorts its prefix of the codes and counts
    adjacent changes rather than calling ``np.unique``, which hashes and is
    many times slower on int64 codes.
    """
    if len(lengths) != len(stops):
        raise ValueError(f"{len(lengths)} block lengths but {len(stops)} stops")
    if any(b < a for a, b in zip(lengths, lengths[1:])):
        raise ValueError(f"block lengths must be ascending, got {list(lengths)}")
    for n, stop in zip(lengths, stops):
        if n < 1:
            raise ValueError(f"block length must be >= 1, got {n}")
        if stop > word.end:
            raise ValueError(
                f"stop {stop} beyond the materialized range [{word.start}, {word.end})")
        if stop - word.start < n:
            raise ValueError(
                f"materialized range [{word.start}, {stop}) shorter than block length {n}")
    if not lengths:
        return []
    ends = [stop - word.start for stop in stops]
    symbols = word.symbols[:max(ends)]
    bits = (word.alphabet_size - 1).bit_length()
    return _ladder(symbols, bits, lengths, ends,
                   lambda code, i: _distinct(code[:ends[i] - lengths[i] + 1]))
