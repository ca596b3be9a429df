"""Two-sided symbol sequences: words, shift-orbit points and their rules.

A symbolic point is a rule plus a shift offset. A rule takes an int64
index array and returns the symbols there, so the subshift ``pack`` fills
all rows of one rule with one call. Built-in rules are exact for |k| <
2^36; the Sturmian rule's int64 floors (``_floor_multiples``) refuse
indices beyond with ``ValueError``.

The subshifts built on these points (``systems.full_shift`` and
``systems.sturmian_system``) read them through the coding metric
``shift_metric``, which compares the coordinates within ``_CODING_WINDOW``
of the origin.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

__all__ = [
    "SymbolicWord",
    "SymbolicPoint",
    "sturmian_generate",
    "sturmian_point",
    "periodic_point",
    "one_defect_point",
    "shift_metric",
]


# ---------------------------------------------------------------------------
# symbolic words and points

@dataclass(frozen=True, eq=False)
class SymbolicWord:
    """A materialized window of a symbol sequence, optionally rule-backed.

    ``symbols`` is a read-only one-dimensional integer array (a sequence
    passed in is copied into one); ``symbols[i]`` is the symbol at index
    ``start + i``. ``rule``, when set, gives the symbols of the whole
    sequence: int64 index array in, symbols out, exact for |k| < 2^36
    (module docstring).
    """

    symbols: np.ndarray
    start: int = 0
    alphabet_size: int = 2
    rule: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.alphabet_size < 2:
            raise ValueError("alphabet must have at least 2 symbols")
        symbols = self.symbols
        if not isinstance(symbols, np.ndarray):
            # no dtype here: a cast would truncate float symbols unseen
            symbols = np.array(symbols)
            if symbols.size == 0:
                symbols = symbols.astype(np.int64)
        elif symbols.flags.writeable:
            symbols = symbols.copy()
        symbols.flags.writeable = False
        if symbols.ndim != 1 or symbols.dtype.kind not in "iu":
            raise ValueError("symbols must be a one-dimensional integer sequence")
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.alphabet_size):
            raise ValueError("symbol out of alphabet range")
        object.__setattr__(self, "symbols", symbols)

    @property
    def end(self) -> int:
        """One past the last materialized index."""
        return self.start + len(self.symbols)

    def point(self, offset: int = 0) -> "SymbolicPoint":
        """View the word as a shift-orbit point through its rule."""
        if self.rule is None:
            raise ValueError("a word without a rule is no shift-orbit point")
        return SymbolicPoint(rule=self.rule, offset=offset)


@dataclass(frozen=True)
class SymbolicPoint:
    """A two-sided sequence given by an evaluation rule plus a shift offset.

    The rule maps an int64 index array to its symbols, exact for |k| <
    2^36 (module docstring). Points sharing one rule object compare equal
    exactly when their offsets agree, so shift orbits of a common base are
    well-behaved dict keys.
    """

    rule: Callable[[np.ndarray], np.ndarray]
    offset: int = 0

    def shifted(self, j: int) -> "SymbolicPoint":
        return SymbolicPoint(self.rule, self.offset + j)


def _sturmian_rule(alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"slope must be in (0, 1), got {alpha}")
    _reject_rational(alpha)

    def rule(k: np.ndarray) -> np.ndarray:
        return _floor_multiples(alpha, k + 1) - _floor_multiples(alpha, k)

    return rule


# |k| below 2^36 keeps k * (p >> 26) and k * (p mod 2^26) inside int64 for
# any 53-bit numerator p
_EXACT_INDEX = 1 << 36
_SPLIT = 26


def _floor_multiples(alpha: float, k: np.ndarray) -> np.ndarray:
    """floor(k * alpha) for an int64 index array k, exact on the binary64
    alpha; indices outside (-2^36, 2^36) are refused.

    With alpha = p / 2^e, split p = hi * 2^26 + lo: then k * p = (k * hi +
    floor(k * lo / 2^26)) * 2^26 + r with 0 <= r < 2^26, and the leftover r
    cannot change the floor of the quotient by 2^e once e >= 26. A shift of
    63 already gives floor(c / 2^m) = 0 or -1 for every |c| < 2^63, m >= 63.
    """
    if k.size and (k.min() <= -_EXACT_INDEX or k.max() >= _EXACT_INDEX):
        raise ValueError(f"indices {k.min()}..{k.max()} leave the exact range "
                         f"(-2^36, 2^36)")
    p, q = alpha.as_integer_ratio()
    e = q.bit_length() - 1
    if e <= _SPLIT:
        # alpha < 1 makes p < 2^e, so k * p itself fits
        return (k * p) >> e
    c = k * (p >> _SPLIT)
    c += (k * (p & ((1 << _SPLIT) - 1))) >> _SPLIT
    return c >> min(e - _SPLIT, 63)


def _sturmian_recurrence(alpha: float) -> Callable[[int], int]:
    """The recurrence function R of the mechanical word of slope alpha.

    Every factor of length R(n) contains all factors of length n, and by
    Morse and Hedlund (1940) R(n) = q_{k+1} + q_k + n - 1 for q_k <= n <
    q_{k+1}, where q_k are the denominators of the convergents of alpha's
    continued fraction (q_0 = 1). The expansion is taken of the binary64
    value, which is rational: its word repeats with the period of the last
    denominator, so block lengths from there on are refused.
    """
    p, q = Fraction(alpha).as_integer_ratio()
    dens, prev = [1], 0
    num, den = q, p
    while den:
        a, (num, den) = num // den, (den, num % den)
        dens.append(a * dens[-1] + prev)
        prev = dens[-2]

    def recurrence(n: int) -> int:
        if n < 1:
            raise ValueError(f"block length must be >= 1, got {n}")
        k = bisect.bisect_right(dens, n) - 1
        if k + 1 == len(dens):
            raise ValueError(
                f"block length {n} reaches the last convergent denominator "
                f"{dens[-1]} of the binary64 slope {alpha!r}, whose word is "
                f"periodic from there on")
        return dens[k + 1] + dens[k] + n - 1

    return recurrence


# a slope this close to a fraction with a denominator this small is refused
_RATIONAL_MAX_DEN = 1000
_RATIONAL_TOL = 1e-12


def _reject_rational(alpha: float) -> None:
    # guards the coding against eventually periodic degenerate slopes
    approx = Fraction(alpha).limit_denominator(_RATIONAL_MAX_DEN)
    if abs(alpha - float(approx)) < _RATIONAL_TOL:
        raise ValueError(
            f"slope {alpha!r} is within {_RATIONAL_TOL} of {approx}; "
            f"rational slopes (denominator <= {_RATIONAL_MAX_DEN}) produce periodic words"
        )


def sturmian_generate(alpha: float, k_lo: int, k_hi: int) -> SymbolicWord:
    """Mechanical binary word s_k = floor((k+1)*alpha) - floor(k*alpha).

    Materializes indices k_lo..k_hi inclusive as a read-only int8 array and
    keeps the rule for lazy extension. Both take the floors through
    ``_floor_multiples``, exactly on the binary64 value of alpha, so both
    are exact for -2^36 < k < 2^36 - 1 and refuse indices outside that.
    Slopes too close to a small-denominator rational are rejected (see
    ``_reject_rational`` for the documented thresholds).
    """
    rule = _sturmian_rule(alpha)
    if k_hi < k_lo:
        raise ValueError("empty index range")
    k = np.arange(k_lo, k_hi + 2, dtype=np.int64)
    symbols = np.diff(_floor_multiples(alpha, k)).astype(np.int8)
    symbols.flags.writeable = False
    return SymbolicWord(symbols=symbols, start=k_lo, alphabet_size=2, rule=rule)


def sturmian_point(alpha: float, offset: int = 0) -> SymbolicPoint:
    return SymbolicPoint(_sturmian_rule(alpha), offset)


def periodic_point(pattern: Sequence[int]) -> SymbolicPoint:
    pat = np.array([int(s) for s in pattern], np.int64)
    if not pat.size:
        raise ValueError("pattern must be nonempty")
    period = pat.size

    def rule(k: np.ndarray) -> np.ndarray:
        return pat[k % period]

    return SymbolicPoint(rule)


def one_defect_point() -> SymbolicPoint:
    """All symbols 1 except a single 0 at the origin.

    Aperiodic, and its forward orbit never comes within coding distance 1 of
    itself, so its backward orbit is a ready-made separated family.
    """

    def rule(k: np.ndarray) -> np.ndarray:
        return (k != 0).astype(np.int64)

    return SymbolicPoint(rule)


# coordinates on each side of a block that the subshifts' coding metric reads
_CODING_WINDOW = 64


def shift_metric(x: SymbolicPoint, y: SymbolicPoint, window: int = _CODING_WINDOW) -> float:
    """Coding metric 2^-m, m = min{|k| <= window : x_k != y_k}; 0 if none.

    A zero return is window-limited, not a proof of equality: a wider
    window may still find a difference. Each point's rule reads the whole
    window, so every index within it must lie in the rule's exact range.
    """
    k = np.arange(-window, window + 1)
    differ = np.abs(k[x.rule(k + x.offset) != y.rule(k + y.offset)])
    return 2.0 ** -int(differ.min()) if differ.size else 0.0


