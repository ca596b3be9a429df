"""Dynamical side-checks: recurrence, distality, and word complexity.

These are cheap probes used to cross-examine the counting results: systems
with slow orbit growth should show short return times (every point comes
back near itself quickly), tower levels should keep their height gaps
forever (distality), and symbolic systems expose their complexity directly
through distinct-block counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .systems import SymbolicWord, SystemHandle

__all__ = [
    "return_time",
    "RecurrenceReport",
    "uniform_recurrence_check",
    "distality_gap",
    "word_complexity",
]


def return_time(system: SystemHandle, x: Any, eps: float, m_max: int) -> int | None:
    """Least n in [1, m_max] with f^n(x) strictly within eps of x, else None."""
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


@dataclass(frozen=True, slots=True)
class RecurrenceReport:
    """Return times of a sample under one (eps, step-bound) probe.

    ``times`` pairs each sample point with its first return step, or None
    when no return happened within the bound; ``all_within`` summarizes.
    """

    eps: float
    m_bound: int
    times: tuple[tuple[Any, int | None], ...]
    all_within: bool


def uniform_recurrence_check(system: SystemHandle, sample, eps: float,
                             m: int) -> RecurrenceReport:
    """Probe every sample point for an eps-return within m steps.

    A miss is not a contradiction by itself, but a missing point feeds the
    separated-family construction: its backward orbit to depth m is an
    (m, eps)-separated family (see the constructions module), which is how
    slow recurrence certifies fast orbit growth.
    """
    times = tuple((x, return_time(system, x, eps, m)) for x in sample)
    return RecurrenceReport(
        eps=eps,
        m_bound=m,
        times=times,
        all_within=all(t is not None for _, t in times),
    )


def distality_gap(system: SystemHandle, x: Any, y: Any, window: int) -> float:
    """Min orbit distance over iterates |n| <= window; upper-bounds the
    infimum over all time, and is reported only as such.

    Needs the inverse map for the backward half. Coincident points are
    rejected: their gap is identically zero and says nothing about
    distality.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    gap = system.metric(x, y)
    if gap == 0.0:
        raise ValueError("points coincide; the distality gap is trivially 0")
    if window >= 1 and system.inverse is None:
        raise ValueError(f"system {system.name} has no inverse map")
    fx, fy = x, y
    bx, by = x, y
    for _ in range(window):
        fx, fy = system.step(fx), system.step(fy)
        bx, by = system.inverse(bx), system.inverse(by)
        gap = min(gap, system.metric(fx, fy), system.metric(bx, by))
    return gap


def _block_codes(symbols: np.ndarray, alphabet_size: int, n: int) -> np.ndarray:
    """One int64 code per start of a length-n block of ``symbols``; two
    starts get equal codes exactly when their blocks are equal.

    The first min(n, 63 // b) symbols of each block are packed b bits
    apiece, b being the bit width of the alphabet, by doubling the packed
    width. Each further round turns the codes into dense ranks 0..K-1 with
    one sorting ``np.unique`` and folds as many consecutive ranks into one
    int64 as K^a < 2^63 allows, so the block length grows by a factor a
    per sort. The last round lets its final part overlap the one before,
    ending exactly at length n, and its codes need no ranking.
    """
    m = symbols.size
    if m < n:
        return np.empty(0, np.int64)
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
        code = (code[:count] << bits * grow) | tail
        length += grow
    while length < n:
        values, rank = np.unique(code, return_inverse=True)
        k = values.size
        parts = -(-n // length)
        arity = 2
        while arity < parts and k ** (arity + 1) < 2 ** 63:
            arity += 1
        if arity == parts:
            offsets = [t * length for t in range(parts - 1)] + [n - length]
        else:
            offsets = [t * length for t in range(arity)]
        count = m - (offsets[-1] + length) + 1
        code = rank[:count].astype(np.int64)
        for off in offsets[1:]:
            code *= k
            code += rank[off:off + count]
        length = offsets[-1] + length
    return code


def word_complexity(word: SymbolicWord, n: int) -> int:
    """Number of distinct length-n blocks in the word's materialized range.

    Counts observed blocks only. A range of at least ``word_window`` symbols
    holds every block of a Sturmian word (its recurrence function), and
    callers report the range alongside the count so any undercount is
    attributable.

    Blocks are coded by ``_block_codes``: bit packing, then multi-rank
    folding, which on a Sturmian word at n = 32772 sorts the start
    positions four times where plain rank doubling sorted them sixteen
    times; the distinct codes are counted with one hashed ``np.unique``.
    """
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    m = word.end - word.start
    if m < n:
        raise ValueError(
            f"materialized range [{word.start}, {word.end}) shorter than block length {n}")
    return int(np.unique(_block_codes(word.symbols, word.alphabet_size, n)).size)
