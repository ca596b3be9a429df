"""Dynamical side-checks: recurrence and word complexity.

These are cheap probes used to cross-examine the counting results: systems
with slow orbit growth should show short return times (every point comes
back near itself quickly), and symbolic systems expose their complexity
directly through distinct-block counts. Tower distality needs no probe:
each level is invariant, so two levels stay exactly their height gap apart
for all time.
"""

from __future__ import annotations

from collections.abc import Sequence
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


def _ranks(code: np.ndarray) -> int:
    """Overwrite the codes with their dense ranks 0..K-1, equal codes equal
    ranks, and return K: one argsort, then the cumsum of the sorted codes'
    adjacent-change mask in the gathered buffer, scattered back. The mask
    is copied into that buffer and summed in place, because a cumsum from
    bool into int64 casts through a temporary of the full int64 size."""
    order = np.argsort(code)
    ordered = code[order]
    change = np.empty(code.size, bool)
    change[0] = False
    np.not_equal(ordered[1:], ordered[:-1], out=change[1:])
    ordered[:] = change
    np.cumsum(ordered, out=ordered)
    code[order] = ordered
    return int(ordered[-1]) + 1


def _distinct(code: np.ndarray) -> int:
    """Number of distinct values in a nonempty code array: a sort and a
    count of adjacent changes."""
    ordered = np.sort(code)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def _fold_ranks(code: np.ndarray, length: int,
                n: int) -> tuple[np.ndarray, int, int]:
    """One round from codes of the length-``length`` blocks towards the
    length-n blocks, n > length: the longer blocks' codes, their length and
    the bound the codes stay below.

    The round overwrites ``code`` with its dense ranks 0..K-1 and folds as
    many consecutive ranks into one int64 as K^a < 2^63 allows, so the
    block length grows by a factor a per sort. A round that reaches n lets
    its final part overlap the one before, ending exactly at length n.
    Callers loop over rounds, rebinding their codes to each round's result,
    so no frame keeps the previous round's codes while the next one sorts.
    """
    m = code.size + length - 1
    k = _ranks(code)
    parts = -(-n // length)
    arity = 2
    while arity < parts and k ** (arity + 1) < 2 ** 63:
        arity += 1
    if arity == parts:
        offsets = [t * length for t in range(parts - 1)] + [n - length]
    else:
        offsets = [t * length for t in range(arity)]
    count = m - (offsets[-1] + length) + 1
    folded = code[:count].copy()
    for off in offsets[1:]:
        folded *= k
        folded += code[off:off + count]
    return folded, offsets[-1] + length, k ** len(offsets)


def _block_codes(symbols: np.ndarray, alphabet_size: int,
                 n: int) -> tuple[np.ndarray, int, int]:
    """Packed codes of the blocks of ``symbols``: one int64 per start of a
    length-w block, w = min(n, 63 // b), two starts getting equal codes
    exactly when their blocks are equal, together with w and a bound the
    codes stay below.

    Each block's w symbols are packed b bits apiece, b being the bit width
    of the alphabet, by doubling the packed width with in-place shifts.
    :func:`block_codes` and :func:`word_complexities` take the codes the
    rest of the way to length n by looping over ``_fold_ranks`` rounds,
    each of which overwrites the codes it is given with their ranks. The
    ranks come from an argsort rather than
    ``np.unique(return_inverse=True)``, which sorts too and then hashes.
    """
    m = symbols.size
    if m < n:
        return np.empty(0, np.int64), n, 1
    bits = (alphabet_size - 1).bit_length()
    width = min(n, 63 // bits)
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
    return code, length, 1 << bits * width


def block_codes(symbols: np.ndarray, alphabet_size: int, n: int) -> np.ndarray:
    """One int64 code per start of a length-n block of ``symbols``, two
    starts getting equal codes exactly when their blocks are equal: the
    packed codes of ``_block_codes`` taken to length n by ``_fold_ranks``
    rounds. Fewer than n symbols give no codes."""
    codes, length, _ = _block_codes(symbols, alphabet_size, n)
    while length < n:
        codes, length, _ = _fold_ranks(codes, length, n)
    return codes


def word_complexities(word: SymbolicWord, lengths: Sequence[int],
                      stops: Sequence[int]) -> list[int]:
    """Number of distinct length-``lengths[i]`` blocks of the word within
    the indices [word.start, stops[i]), for each i; lengths ascending,
    repeats allowed.

    Counts observed blocks only. A range of at least ``word_window``
    symbols holds every block of a Sturmian word (its recurrence function),
    and callers report the range alongside the count so any undercount is
    attributable.

    One ladder serves every length: ``_block_codes`` packs the first, and
    each longer one shifts its extra d symbols into the codes in place,
    ``code <<= b; code |= symbol`` once per symbol, while the codes' bound
    times 2^(b*d) stays below 2^63 (b bits per symbol, d <= 63 // b);
    otherwise ``_fold_ranks`` rounds rank the codes over themselves and
    fold overlapping ranks until the length is reached. Each count sorts
    its prefix of the codes and counts adjacent changes rather than calling
    ``np.unique``, which hashes and is many times slower on int64 codes.
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
    symbols = word.symbols[:max(stops) - word.start]
    if symbols.dtype == np.uint64:
        # no bitwise loop mixes uint64 with int64; the symbols are small
        symbols = symbols.view(np.int64)
    bits = (word.alphabet_size - 1).bit_length()
    code, length, bound = _block_codes(symbols, word.alphabet_size, lengths[0])
    counts = []
    for n, stop in zip(lengths, stops):
        d = n - length
        if 0 < d <= 63 // bits and bound < 1 << (63 - bits * d):
            count = code.size - d
            code = code[:count]
            for t in range(length, n):
                code <<= bits
                code |= symbols[t:t + count]
            length, bound = n, bound << bits * d
        while length < n:
            code, length, bound = _fold_ranks(code, length, n)
        counts.append(_distinct(code[:stop - word.start - n + 1]))
    return counts
