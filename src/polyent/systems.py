"""Concrete dynamical systems for orbit-counting experiments.

Three families are provided, all with unit-time maps and explicit metrics:

* circle rotations (angles in [0, 1), arc metric);
* rotation towers: a stack of circles indexed by a strictly decreasing
  positive height sequence, plus a fixed base circle at height 0, where the
  circle at height h rotates by h per step;
* two-sided subshifts over a finite alphabet (full shifts and Sturmian
  orbits), with the 2^-k coding metric.

Products of any two systems use the max metric and the coordinatewise map.

Each system is wrapped in a :class:`SystemHandle` carrying the metric, the
step map, an optional inverse, a canonical sampler, and one vectorized
Bowen-distance kernel over numpy batches of points made by ``pack``:
``orbit_pairs`` lists the pairs below a cap as ``(i, j, d)``. Every
built-in kernel is exact at every threshold; the stepping
``bowen.bowen_dist`` is the oracle the tests hold the kernels to.

``orbit_pairs(a, b, n, cap)`` is a fixed-radius near-neighbour query
(Bentley, Stanat and Williams 1977). Every pair whose distance is below
cap is listed exactly once, and its listed ``d`` is exact. Other listed
pairs read exactly or as a lower bound of at least cap, so at ``cap =
inf`` every pair is listed, with its exact distance. No order is
promised, and callers compare ``d`` with their own threshold. The kernel
does not filter ``d < cap`` itself: the band paths already drop almost
every pair, and a filter copies the survivors three more times per call.
Measured on the spanning audit of a tower (power:2, n 500, eps 0.1, grid
1000), such a filter took the step from about 0.35 to 0.46 s and its minor
page faults from 20.7k to 71.1k: the copies are returned to the system and
faulted in again on every call.

A tower pair with angle gap theta and height gap dh drifts by delta =
dh - rint(dh) per step, and its Bowen distance over n steps is the larger
of |dh| and the max over k < n of ||theta + k delta||, the distance to the
nearest integer. While the total drift (n-1)|delta| stays under one turn
that sawtooth peaks at most once, so the max sits at a window end or next
to the first half-integer crossing. Once the drift wraps, the max is 1/2
minus the nearest approach of phi + k delta, phi = theta - 1/2, to an
integer, found by a continued-fraction descent (the view behind the
three-distance theorem; Alessandri and Berthé 1998). With delta reflected
into [0, 1/2], an integer j that the orbit crosses between steps k and
k + 1 is approached within delta ||(j - phi)/delta||, so the crossed
integers form a new orbit of step 1/delta mod 1, rescaled by delta and at
most half as long. A wrapped pair lies at least max(|delta|,
1/2 - |delta|/2) >= 1/3 away, so no pair below a cap of 1/4 needs it.

The tower kernel prunes by height when given a cap in (0, 1/4]. A pair at
Bowen distance below cap has height gap |dh| < cap <= 1/4, so its per-step
drift is dh itself, and consecutive iterates (dh apart) cannot jump between
the cap-neighbourhoods of different integers; the first and last iterates
lie within cap of one integer, so (n-1)|dh| < 2 cap. Sorting one batch by
height turns |dh| <= min(cap, 2 cap/(n-1)), widened by a float margin, into
one contiguous run per row; only those pairs, and among them only those
whose step-0 term is below cap, are evaluated exactly and listed. Every
other pair has distance at least cap, so it need not be listed.

Blocks of at least ``_ANGLE_BAND_PAIRS`` nominal pairs also prune by angle.
The step-0 term is at least the arc distance between the two angles, so a
pair whose angles lie cap or more apart mod 1 is settled without being
formed. The longer batch is sorted by height and then by the key
angle + 4g, where g numbers its runs of equal height; each point of the
other batch looks up, in every run of its height band, one window per wrap
image theta - 1, theta, theta + 1 of its angle, widened by the same margin
as the height band. A spacing of 4 keeps each window inside its own run,
and float rounding of keys and window ends is monotone, so it can only
admit extra pairs, which the exact step-0 test then drops. Thinner blocks
keep the height band alone, where the extra sort costs more than it saves,
and a single row, such as the greedy loop's 1 x k queries, scans b for its
band instead of sorting it. A pair of equal heights has zero drift, so its
window max is its step-0 term or ||theta - floor(theta)||, whichever is
larger, bit for bit what the drift scan returns at delta = 0; the row scan
reads that directly and drift-scans only its candidates across heights,
which most greedy rows do not have. The two sorting paths keep one drift
scan for all candidates: most pairs of their wide blocks lie across
heights, and the split made the tower-certify benchmark 12-23% slower. All
three paths list the same pairs with bitwise the same distances, because
they test band membership alike and every pair they evaluate is the same
a - b arithmetic.

Tower samples and witness families are :class:`AngleLevelGrid` objects: a
uniform angle grid crossed with a level list, indexed lazily. The tower
``pack`` builds a grid's batch from its two axes, so no point object is
made on the counting paths; only indexing a grid (output, returned kept
points, the tests' stepping oracle) builds ``TowerPoint`` objects.
"""

from __future__ import annotations

import bisect
import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

__all__ = [
    "circle_dist",
    "ExpHeights",
    "PowerHeights",
    "POWER_EXPONENT_LIMIT",
    "CustomHeights",
    "HeightFamily",
    "TowerPoint",
    "AngleLevelGrid",
    "tower_dist",
    "tower_map",
    "tower_inverse",
    "tower_sample",
    "TOWER_SAMPLE_LIMIT",
    "WORD_SYMBOL_LIMIT",
    "SymbolicWord",
    "SymbolicPoint",
    "sturmian_generate",
    "sturmian_point",
    "periodic_point",
    "one_defect_point",
    "shift_metric",
    "SystemHandle",
    "word_window",
    "circle_rotation",
    "tower_system",
    "full_shift",
    "sturmian_system",
    "product_system",
    "make_system",
]


# ---------------------------------------------------------------------------
# circle arithmetic

def circle_dist(x: float, y: float) -> float:
    """Arc distance on the unit circle (angles as fractions of a turn).

    Inputs are reduced mod 1; the result is in [0, 1/2].
    """
    d = abs(x % 1.0 - y % 1.0)
    return d if d <= 0.5 else 1.0 - d


# ---------------------------------------------------------------------------
# height sequences

@dataclass(frozen=True, slots=True)
class ExpHeights:
    """Heights h(n) = e^-n; drift dies fast enough for zero polynomial slope.

    ``height`` reads numpy's exp on a one-level array, as batches do:
    ``math.exp`` differs from it in the last bit at some levels.
    """

    label: str = field(default="exp", init=False)
    max_level: None = field(default=None, init=False)

    def height(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"level index must be >= 1, got {n}")
        return _exp_height(n)


@functools.lru_cache(maxsize=1 << 16)
def _exp_height(n: int) -> float:
    # cached: the stepping paths ask for a level's height at every step,
    # and a one-level numpy call costs far more than math.exp
    return float(_heights_array(ExpHeights(), np.array([n], np.int64))[0])


# Largest decay exponent a power family takes: past it, level 2's height
# 2^-c is no longer a normal float, and exact integer powers of the level
# thresholds grow without bound.
POWER_EXPONENT_LIMIT = 1022


@dataclass(frozen=True, slots=True)
class PowerHeights:
    """Heights h(n) = n^-c for a fixed decay exponent 1 <= c <= 1022.

    ``height`` follows the rule of ``_power_heights``, so a level reads the
    same bits alone as in any batch.
    """

    c: float = 1.0

    def __post_init__(self) -> None:
        if not 1.0 <= self.c <= POWER_EXPONENT_LIMIT:
            raise ValueError(f"decay exponent must be in [1, {POWER_EXPONENT_LIMIT}], "
                             f"got {self.c}")

    @property
    def label(self) -> str:
        c = self.c
        return f"power:{int(c) if float(c).is_integer() else c}"

    @property
    def max_level(self) -> None:
        return None

    @property
    def integer_c(self) -> int | None:
        return int(self.c) if float(self.c).is_integer() else None

    def height(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"level index must be >= 1, got {n}")
        c = self.integer_c
        if c is not None and n <= _exact_power_top(c):
            # _power_heights' exact branch: the int64 power, rounded once
            # to float and once by the division
            return 1.0 / (n ** c)
        return float(_power_heights(self, np.array([n], np.int64))[0])


@dataclass(frozen=True, slots=True)
class CustomHeights:
    """A finite, strictly decreasing, positive height list (1-indexed)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("height list must be nonempty")
        if any(v <= 0.0 for v in vals):
            raise ValueError("heights must be positive")
        if any(b >= a for a, b in zip(vals, vals[1:])):
            raise ValueError("heights must be strictly decreasing")
        object.__setattr__(self, "values", vals)

    @property
    def label(self) -> str:
        return f"custom[{len(self.values)}]"

    @property
    def max_level(self) -> int:
        return len(self.values)

    def height(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"level index must be >= 1, got {n}")
        if n > len(self.values):
            raise ValueError(
                f"sequence too short: level {n} requested, only {len(self.values)} heights"
            )
        return self.values[n - 1]


HeightFamily = ExpHeights | PowerHeights | CustomHeights


@functools.lru_cache(maxsize=None)
def _exact_power_top(c: int) -> int:
    """The largest level n with n^c < 2^62, so n^c is exact in int64."""
    n = int(2.0 ** (62.0 / c))
    while n ** c >= 1 << 62:
        n -= 1
    while (n + 1) ** c < 1 << 62:
        n += 1
    return n


def _power_heights(fam: PowerHeights, levels: np.ndarray) -> np.ndarray:
    """n^-c for levels n >= 1, by one rule per level.

    With an integer c, a level whose n^c stays below 2^62 takes the exact
    integer power and one rounded division; every other level takes
    numpy's vectorized float power. The rule looks at each level alone, so
    a level's height does not depend on the batch it comes in.
    ``PowerHeights.height`` takes the float branch on a one-level array,
    because numpy's vectorized power can round differently from the scalar
    ``**``.
    """
    c = fam.integer_c
    exact = levels <= (0 if c is None else _exact_power_top(c))
    out = np.empty(levels.shape)
    out[~exact] = levels[~exact].astype(np.float64) ** -fam.c
    if c is not None:
        out[exact] = 1.0 / (levels[exact].astype(np.int64) ** c).astype(np.float64)
    return out


def _heights_array(fam: HeightFamily, levels: np.ndarray) -> np.ndarray:
    """Vectorized heights with level 0 mapped to the base height 0."""
    if isinstance(fam, ExpHeights):
        out = np.exp(-levels.astype(np.float64))
    elif isinstance(fam, PowerHeights):
        out = _power_heights(fam, np.maximum(levels, 1))
    else:
        table = np.concatenate(([0.0], np.asarray(fam.values, dtype=np.float64)))
        if levels.size and int(levels.max()) > fam.max_level:
            raise ValueError("sequence too short for requested levels")
        out = table[levels]
    return np.where(levels > 0, out, 0.0)


# ---------------------------------------------------------------------------
# tower points and dynamics

@dataclass(frozen=True, slots=True)
class TowerPoint:
    """A point of the rotation tower: an angle and a circle index.

    ``level`` 0 is the base circle (height 0, fixed pointwise); level n >= 1
    sits at the n-th height of the family. The height itself is always derived
    from the family, never stored.
    """

    angle: float
    level: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", self.angle % 1.0)
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")


def _height_of(p: TowerPoint, fam: HeightFamily) -> float:
    return fam.height(p.level) if p.level > 0 else 0.0


def tower_dist(p: TowerPoint, q: TowerPoint, fam: HeightFamily) -> float:
    """Tower metric: max of the arc distance and the height gap."""
    return max(circle_dist(p.angle, q.angle), abs(_height_of(p, fam) - _height_of(q, fam)))


def tower_map(p: TowerPoint, fam: HeightFamily) -> TowerPoint:
    """One step: rotate the point's circle by its own height."""
    return TowerPoint(p.angle + _height_of(p, fam), p.level)


def tower_inverse(p: TowerPoint, fam: HeightFamily) -> TowerPoint:
    return TowerPoint(p.angle - _height_of(p, fam), p.level)


class AngleLevelGrid(Sequence):
    """Lazy product of a uniform angle grid with a level list.

    Indexing is level-major with the angle running fastest and yields
    ``TowerPoint(j / angle_count, level)``; nothing is materialized, so
    million-level families keep O(1) length and element access, and the
    tower ``pack`` builds a grid's batch from its two axes without making
    a single point. Slices return lists.
    """

    def __init__(self, angle_count: int, levels: Sequence[int]):
        if angle_count < 1:
            raise ValueError(f"angle count must be >= 1, got {angle_count}")
        # a range stays a range: cutoff walks can reach 10^7+ levels and the
        # whole point of this class is to never materialize them
        if isinstance(levels, range):
            low = min(levels[0], levels[-1]) if levels else 0
        else:
            levels = tuple(operator.index(lv) for lv in levels)
            low = min(levels, default=0)
        if low < 0:
            raise ValueError(f"level must be >= 0, got {low}")
        self.angle_count = angle_count
        self.levels = levels

    def __len__(self) -> int:
        return self.angle_count * len(self.levels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        m = len(self)
        if i < 0:
            i += m
        if not 0 <= i < m:
            raise IndexError(i)
        lv, j = divmod(i, self.angle_count)
        return TowerPoint(j / self.angle_count, self.levels[lv])

    def __repr__(self) -> str:
        return f"AngleLevelGrid(angle_count={self.angle_count}, levels={self.levels!r})"


def tower_sample(fam: HeightFamily, grid: int, levels: Sequence[int]) -> AngleLevelGrid:
    """Canonical sample: ``grid`` equally spaced angles on each listed circle.

    Levels are taken in the given order; angle index runs fastest.
    """
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    return AngleLevelGrid(grid, levels)


# ---------------------------------------------------------------------------
# symbolic words and points

@dataclass(frozen=True, eq=False)
class SymbolicWord:
    """A materialized window of a symbol sequence, optionally rule-backed.

    ``symbols`` is a read-only one-dimensional integer array (a sequence
    passed in is copied into one); ``symbols[i]`` is the symbol at index
    ``start + i``. When ``rule`` is set, indices outside the window are
    computed on demand (the window itself is never mutated).
    """

    symbols: np.ndarray
    start: int = 0
    alphabet_size: int = 2
    rule: Callable[[int], int] | None = None

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

    def symbol(self, k: int) -> int:
        if self.start <= k < self.end:
            return int(self.symbols[k - self.start])
        if self.rule is not None:
            return self.rule(k)
        raise IndexError(f"index {k} outside materialized range [{self.start}, {self.end})")

    def factor(self, i: int, n: int) -> tuple[int, ...]:
        """The length-n block starting at index i."""
        return tuple(self.symbol(i + j) for j in range(n))

    def point(self, offset: int = 0) -> "SymbolicPoint":
        """View the word as a shift-orbit point (rule-backed if possible)."""
        rule = self.rule if self.rule is not None else self.symbol
        return SymbolicPoint(rule=rule, offset=offset, alphabet_size=self.alphabet_size)


@dataclass(frozen=True)
class SymbolicPoint:
    """A two-sided sequence given by an evaluation rule plus a shift offset.

    Points sharing one rule object compare equal exactly when their offsets
    agree, so shift orbits of a common base are well-behaved dict keys.
    """

    rule: Callable[[int], int]
    offset: int = 0
    alphabet_size: int = 2

    def symbol(self, k: int) -> int:
        return self.rule(k + self.offset)

    def shifted(self, j: int) -> "SymbolicPoint":
        return SymbolicPoint(self.rule, self.offset + j, self.alphabet_size)


def _sturmian_rule(alpha: float) -> Callable[[int], int]:
    # floors taken exactly on the binary64 value p / 2^e of the slope
    p, q = Fraction(alpha).as_integer_ratio()

    def rule(k: int) -> int:
        return (k + 1) * p // q - k * p // q

    return rule


# |k| below 2^36 keeps k * (p >> 26) and k * (p mod 2^26) inside int64 for
# any 53-bit numerator p
_EXACT_INDEX = 1 << 36
_SPLIT = 26


def _floor_multiples(alpha: float, k_lo: int, k_hi: int) -> np.ndarray:
    """floor(k * alpha) for k = k_lo..k_hi, exact on the binary64 alpha.

    With alpha = p / 2^e, split p = hi * 2^26 + lo: then k * p = (k * hi +
    floor(k * lo / 2^26)) * 2^26 + r with 0 <= r < 2^26, and the leftover r
    cannot change the floor of the quotient by 2^e once e >= 26. A shift of
    63 already gives floor(c / 2^m) = 0 or -1 for every |c| < 2^63, m >= 63.
    """
    p, q = Fraction(alpha).as_integer_ratio()
    e = q.bit_length() - 1
    k = np.arange(k_lo, k_hi + 1, dtype=np.int64)
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


def _reject_rational(alpha: float, max_den: int = 1000, tol: float = 1e-12) -> None:
    # guards the coding against eventually periodic degenerate slopes
    approx = Fraction(alpha).limit_denominator(max_den)
    if abs(alpha - float(approx)) < tol:
        raise ValueError(
            f"slope {alpha!r} is within {tol} of {approx}; "
            f"rational slopes (denominator <= {max_den}) produce periodic words"
        )


def sturmian_generate(alpha: float, k_lo: int, k_hi: int) -> SymbolicWord:
    """Mechanical binary word s_k = floor((k+1)*alpha) - floor(k*alpha).

    Materializes indices k_lo..k_hi inclusive as a read-only int8 array and
    keeps the rule for lazy extension. Both take the floors exactly on the
    binary64 value of alpha; the array is computed in int64 arithmetic,
    which is exact for -2^36 < k_lo <= k_hi < 2^36 - 1, and ranges outside
    that are refused (the rule is exact at every index). Slopes too close
    to a small-denominator rational are rejected (see ``_reject_rational``
    for the documented thresholds).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"slope must be in (0, 1), got {alpha}")
    _reject_rational(alpha)
    if k_hi < k_lo:
        raise ValueError("empty index range")
    if k_lo <= -_EXACT_INDEX or k_hi + 1 >= _EXACT_INDEX:
        raise ValueError(f"index range [{k_lo}, {k_hi}] leaves the exact range "
                         f"(-2^36, 2^36 - 1)")
    symbols = np.diff(_floor_multiples(alpha, k_lo, k_hi + 1)).astype(np.int8)
    symbols.flags.writeable = False
    return SymbolicWord(
        symbols=symbols,
        start=k_lo,
        alphabet_size=2,
        rule=_sturmian_rule(alpha),
    )


def sturmian_point(alpha: float, offset: int = 0) -> SymbolicPoint:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"slope must be in (0, 1), got {alpha}")
    _reject_rational(alpha)
    return SymbolicPoint(_sturmian_rule(alpha), offset, 2)


def periodic_point(pattern: Sequence[int], alphabet_size: int = 2) -> SymbolicPoint:
    pat = tuple(int(s) for s in pattern)
    if not pat:
        raise ValueError("pattern must be nonempty")
    period = len(pat)

    def rule(k: int) -> int:
        return pat[k % period]

    return SymbolicPoint(rule, 0, alphabet_size)


def one_defect_point(alphabet_size: int = 2) -> SymbolicPoint:
    """All symbols 1 except a single 0 at the origin.

    Aperiodic, and its forward orbit never comes within coding distance 1 of
    itself, so its backward orbit is a ready-made separated family.
    """

    def rule(k: int) -> int:
        return 0 if k == 0 else 1

    return SymbolicPoint(rule, 0, alphabet_size)


def shift_metric(x: SymbolicPoint, y: SymbolicPoint, window: int = 64) -> float:
    """Coding metric 2^-m, m = min{|k| <= window : x_k != y_k}; 0 if none.

    A zero return is window-limited, not a proof of equality: a wider
    window may still find a difference.
    """
    if x.symbol(0) != y.symbol(0):
        return 1.0
    for j in range(1, window + 1):
        if x.symbol(j) != y.symbol(j) or x.symbol(-j) != y.symbol(-j):
            return 2.0 ** (-j)
    return 0.0


# ---------------------------------------------------------------------------
# system handles

@dataclass(frozen=True)
class SystemHandle:
    """A dynamical system packaged for the counting and diagnostic code.

    ``metric``/``step``/``inverse`` act on opaque points. ``sampler(res)``
    returns the canonical finite sample at the requested resolution.
    The kernel is ``pack`` and ``orbit_pairs``, set together, and the
    counting and verifying code refuses a handle without it:
    ``pack(points, n)`` makes a numpy batch (points on axis 0) for window
    n, and ``orbit_pairs(a, b, n, cap)`` returns index and distance arrays
    ``(i, j, d)`` that list every pair of two batches whose Bowen distance
    is below ``cap`` exactly once, with that distance exact. Other listed
    pairs read exactly or as a lower bound of at least ``cap``, so at
    ``cap = inf`` every pair is listed with its exact distance; there is no
    order, and the kernel leaves the comparison with a threshold to the
    caller (the module docstring says why).
    ``heights`` is set for towers, ``word_fn`` for subshifts with a
    canonical word, and ``parts`` for products, so closed-form counts can
    multiply through. ``word_fn(lo, hi)`` materializes indices lo..hi of the
    canonical word, and ``recurrence(n)``, set with it, is a length such
    that every stretch of the word that long holds every length-n block.
    """

    name: str
    metric: Callable[[Any, Any], float]
    step: Callable[[Any], Any]
    inverse: Callable[[Any], Any] | None = None
    sampler: Callable[[int], Sequence] | None = None
    pack: Callable[[Sequence, int], np.ndarray] | None = None
    orbit_pairs: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
    heights: HeightFamily | None = None
    word_fn: Callable[[int, int], SymbolicWord] | None = None
    recurrence: Callable[[int], int] | None = None
    parts: tuple["SystemHandle", "SystemHandle"] | None = None

    def __post_init__(self) -> None:
        if (self.pack is None) != (self.orbit_pairs is None):
            raise ValueError(f"system {self.name}: pack and orbit_pairs must be set together")
        if (self.word_fn is None) != (self.recurrence is None):
            raise ValueError(f"system {self.name}: word_fn and recurrence must be set together")


# Largest tower sample the greedy counter takes on: 32 MiB packed, and the
# greedy loop's work grows with the square of the sample in the worst case.
TOWER_SAMPLE_LIMIT = 1 << 21

# Longest canonical word the counting code materializes. Counting the
# blocks of a Sturmian word peaks at about 56 bytes per symbol (int64 codes,
# ranks, sort permutations and change counts; tracemalloc on a 2^20-symbol
# word), so about 0.44 GiB at this limit.
WORD_SYMBOL_LIMIT = 1 << 23


def word_window(system: SystemHandle, span: int) -> int:
    """Length of a stretch of the system's canonical word that holds every
    block of length ``span`` (its recurrence function); lengths beyond
    ``WORD_SYMBOL_LIMIT`` are refused."""
    if system.recurrence is None:
        raise ValueError(f"{system.name} carries no canonical word")
    length = system.recurrence(span)
    if length > WORD_SYMBOL_LIMIT:
        raise ValueError(
            f"length-{span} blocks need a word of {length} symbols, beyond the "
            f"limit of {WORD_SYMBOL_LIMIT}")
    return length


def _pairs_below(d: np.ndarray, cap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (i, j, d) list of a dense block's entries below cap."""
    i, j = np.nonzero(d < cap)
    return i, j, d[i, j]


def circle_rotation(theta: float) -> SystemHandle:
    """Rigid rotation by theta on the unit circle; points are plain angles."""
    th = theta % 1.0

    def dense(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
        # rotations are isometries: the Bowen distance is the plain
        # distance, computed as in circle_dist
        d = np.abs(np.mod(a, 1.0)[:, None] - np.mod(b, 1.0)[None, :])
        return np.minimum(d, 1.0 - d)

    return SystemHandle(
        name=f"rotation:{th!r}",
        metric=circle_dist,
        step=lambda x: (x + th) % 1.0,
        inverse=lambda x: (x - th) % 1.0,
        sampler=lambda res: [j / res for j in range(res)],
        pack=lambda points, n: np.fromiter(points, np.float64, len(points)),
        orbit_pairs=lambda a, b, n, cap: _pairs_below(dense(a, b, n), cap),
    )


# the height band needs cap <= 1/4: below it the drift is dh itself, and no
# listed pair wraps (module docstring)
_TOWER_BAND_CAP = 0.25


def _drift_peak(theta: np.ndarray, delta: np.ndarray, n: int) -> np.ndarray:
    """Max over k in 0..n-1 of the distance from theta + k*delta to Z.

    That sawtooth peaks once per unit of accumulated drift, so the max sits
    at a window endpoint or adjacent to the first half-integer crossing:
    exact while the total drift stays under one turn, and at least
    1/2 - |delta| once it wraps. Mutates both argument arrays.
    """
    np.negative(theta, out=theta, where=delta < 0.0)
    delta = np.abs(delta)
    theta -= np.floor(theta)

    t0 = 0.5 - theta
    t0 += t0 < 0.0
    # a subnormal drift (exp heights past level ~709) overflows to inf here,
    # which the bound n - 1 absorbs
    with np.errstate(divide="ignore", over="ignore"):
        k1 = np.floor(np.divide(t0, delta, out=t0, where=delta > 0.0))
    np.maximum(k1, 0.0, out=k1)
    np.minimum(k1, float(n - 1), out=k1)

    u = np.rint(theta)
    np.abs(theta - u, out=u)
    best = u
    for k in (float(n - 1), k1, None):
        if k is None:
            # k1 + 1 >= 1, so only the upper bound can bind
            k1 += 1.0
            np.minimum(k1, float(n - 1), out=k1)
            k = k1
        u = theta + k * delta
        u -= np.rint(u)
        np.abs(u, out=u)
        np.maximum(best, u, out=best)
    return best


def _step0(theta: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """The step-0 term of (broadcast) pairs: the larger of the initial arc
    offset and the height gap, both lower bounds on the window max."""
    u = np.rint(theta)
    np.abs(theta - u, out=u)
    return np.maximum(u, np.abs(dh), out=u)


def _reflect(phi: np.ndarray, delta: np.ndarray) -> None:
    """Reduce delta mod 1 into [0, 1/2] and phi mod 1 into [0, 1], in place,
    negating phi where delta is reflected: ||phi + k delta|| equals
    ||-phi + k (1 - delta)|| for every integer k."""
    delta -= np.floor(delta)
    flip = delta > 0.5
    np.subtract(1.0, delta, out=delta, where=flip)
    np.negative(phi, out=phi, where=flip)
    phi -= np.floor(phi)


def _nearest_approach(phi: np.ndarray, delta: np.ndarray, n: int) -> np.ndarray:
    """Min over k in 0..n-1 of the distance from phi + k*delta to Z, by the
    continued-fraction descent (module docstring); mutates both arrays.

    Each round reads the orbit's two ends, its nearest points to every
    integer outside it, then replaces the orbit by the integers j inside
    it, as the orbit (j - phi)/delta of step 1/delta, whose distances to Z
    are those approaches divided by delta. With delta in (0, 1/2] a round
    at most halves the orbit, so about log2(n) rounds finish.
    """
    _reflect(phi, delta)
    best = np.full(phi.shape, np.inf)
    live = np.arange(phi.size)
    count = np.full(phi.shape, float(n))
    scale = np.ones(phi.shape)
    while live.size:
        last = phi + (count - 1.0) * delta
        ends = np.minimum(np.abs(phi - np.rint(phi)), np.abs(last - np.rint(last)))
        best[live] = np.minimum(best[live], scale * ends)
        first = np.ceil(phi)
        inner = np.floor(last) - first + 1.0
        # an orbit of at most two points is its ends; under a zero step
        # only an orbit sitting on an integer holds one, and it read 0
        keep = np.flatnonzero((count >= 3.0) & (inner >= 1.0) & (delta > 0.0))
        live, phi, delta = live[keep], phi[keep], delta[keep]
        count, scale = inner[keep], scale[keep] * delta
        phi = (first[keep] - phi) / delta
        delta = 1.0 / delta
        _reflect(phi, delta)
    return best


def _tower_exact(theta: np.ndarray, dh: np.ndarray, n: int) -> np.ndarray:
    """Tower Bowen distances from the angle and height differences of
    (broadcast) pairs, exact at every threshold; mutates ``theta``."""
    base = _step0(theta, dh)
    if n == 1:
        return base
    delta = dh - np.rint(dh)
    # the drift scan is exact until the drift wraps; past that the peak is
    # 1/2 less the nearest approach of theta - 1/2 + k delta to Z
    wrapped = np.abs(delta) * (n - 1) >= 1.0
    phi, step = theta[wrapped] - 0.5, delta[wrapped]
    best = _drift_peak(theta, delta, n)
    best[wrapped] = 0.5 - _nearest_approach(phi, step, n)
    return np.maximum(best, base, out=best)


def _below_cap(theta: np.ndarray, dh: np.ndarray, n: int,
               cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the candidate pairs whose step-0 term is below cap, and
    their exact distances over n >= 2 steps; only these need the drift
    scan, which reuses their step-0 terms."""
    step0 = _step0(theta, dh)
    live = np.flatnonzero(step0 < cap)
    dh = dh[live]
    best = _drift_peak(theta[live], dh - np.rint(dh), n)
    return live, np.maximum(best, step0[live], out=best)


def _tower_height_band(a: np.ndarray, b: np.ndarray, n: int, cap: float,
                       w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # b sorted by height; each row of a meets one contiguous run of it
    order = np.argsort(b["height"], kind="stable")
    hb = b["height"][order]
    lo = np.searchsorted(hb, a["height"] - w, "left")
    counts = np.searchsorted(hb, a["height"] + w, "right") - lo
    ends = np.cumsum(counts)
    # band pairs row by row, as positions in the sorted b
    pos = np.arange(counts.sum()) + np.repeat(lo - ends + counts, counts)
    theta = np.repeat(a["angle"], counts) - b["angle"][order][pos]
    dh = np.repeat(a["height"], counts) - hb[pos]
    live, dist = _below_cap(theta, dh, n, cap)
    return np.searchsorted(ends, live, "right"), order[pos[live]], dist


def _tower_row_band(a: np.ndarray, b: np.ndarray, n: int, cap: float,
                    w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # a single row (the greedy loop's queries) finds its band in one scan
    # of b, by the height band's own float test, without sorting b. A
    # step-0 survivor of the row's own height has zero drift: it reads what
    # _drift_peak returns at delta = 0, the larger of its step-0 term and
    # ||theta - floor(theta)||, and only survivors across heights get the
    # drift scan. The sorting paths keep _below_cap whole (module
    # docstring). Rows are short, so contiguous copies, scalar operands and
    # ndarray.nonzero save most of the per-call overhead.
    h = a["height"].item()
    hb = b["height"].copy()
    col = ((hb >= h - w) & (hb <= h + w)).nonzero()[0]
    theta = a["angle"].item() - b["angle"][col]
    dh = h - hb[col]
    dist = _step0(theta, dh)
    live = (dist < cap).nonzero()[0]
    theta, dh = theta[live], dh[live]
    peak = theta - np.floor(theta)
    np.abs(peak - np.rint(peak), out=peak)
    cross = dh.nonzero()[0]
    if cross.size:
        dh = dh[cross]
        peak[cross] = _drift_peak(theta[cross], dh - np.rint(dh), n)
    return np.zeros(live.size, np.intp), col[live], np.maximum(peak, dist[live], out=peak)


def _tower_angle_band(a: np.ndarray, b: np.ndarray, n: int, cap: float,
                      w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Angle band (module docstring). The longer batch s is sorted by height,
    # then by the key angle + 4 g, g numbering its runs of equal height; each
    # row of the shorter batch q looks up, in every run of its height band,
    # the windows of half-width c around its angle's wrap images theta - 1,
    # theta and theta + 1. Packed angles lie in [0, 1] (1.0 included:
    # TowerPoint(-1e-300, 1).angle == 1.0), so run g's keys fill [4g, 4g + 1]
    # and its windows stay inside [4g - 2, 4g + 3], clear of the other runs;
    # the three windows are disjoint, as 2c < 1. Rounding of the keys and of
    # the window ends is monotone: it can admit extra pairs, which the step-0
    # test below removes, but never drops one inside the margin on c.
    c = cap + 1e-9 * cap + 1e-9
    s_is_a = len(a) >= len(b)
    s, q = (a, b) if s_is_a else (b, a)
    order = np.lexsort((s["angle"], s["height"]))
    hs = s["height"][order]
    first = np.empty(len(hs), bool)
    first[0] = True
    np.not_equal(hs[1:], hs[:-1], out=first[1:])
    run_height = hs[first]
    key = s["angle"][order] + 4.0 * (np.cumsum(first) - 1)
    # runs in the height band, by the thin path's own float test
    # h_b in [h_a - w, h_a + w], so band membership is identical
    if s_is_a:
        glo = np.searchsorted(run_height + w, q["height"], "left")
        ghi = np.searchsorted(run_height - w, q["height"], "right")
    else:
        glo = np.searchsorted(run_height, q["height"] - w, "left")
        ghi = np.searchsorted(run_height, q["height"] + w, "right")
    counts = ghi - glo
    qi = np.repeat(np.arange(len(q)), counts)
    run = np.arange(counts.sum()) + np.repeat(glo - np.cumsum(counts) + counts, counts)
    images = q["angle"][qi, None] + np.array([-1.0, 0.0, 1.0])
    offset = 4.0 * run[:, None]
    lo = np.searchsorted(key, (images - c) + offset, "left").ravel()
    counts = np.searchsorted(key, (images + c) + offset, "right").ravel() - lo
    pos = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    si, qi = order[pos], np.repeat(np.repeat(qi, 3), counts)
    ia, ib = (si, qi) if s_is_a else (qi, si)
    # the caller's orientation a - b keeps every distance bitwise equal to
    # the thin path's
    live, dist = _below_cap(a["angle"][ia] - b["angle"][ib],
                            a["height"][ia] - b["height"][ib], n, cap)
    return ia[live], ib[live], dist


# Blocks with fewer nominal pairs than this take the height band alone: there
# the angle band's sort and run bookkeeping cost more than the pairs it skips
# (on a 2-core Xeon KVM guest, 1 x 720 sample-to-center rows took 0.20 ms
# against 0.13 ms, 256 x 720 blocks 0.45 ms against 0.34 ms), while full
# 2048 x 720 spanning-audit blocks ran about 1.8x faster with it. Single
# rows take the row scan at any length.
_ANGLE_BAND_PAIRS = 1 << 18


def _tower_dense(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    # serves n = 1 and caps outside (0, 1/4] of _tower_orbit_pairs
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    return _tower_exact(a["angle"][:, None] - b["angle"][None, :],
                        a["height"][:, None] - b["height"][None, :], n)


def _tower_orbit_pairs(a: np.ndarray, b: np.ndarray, n: int,
                       cap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if n <= 1 or not 0.0 < cap <= _TOWER_BAND_CAP:
        return _pairs_below(_tower_dense(a, b, n), cap)
    # Height band (module docstring): a pair below cap <= 1/4 has |dh| < cap,
    # so delta = dh and its iterates, dh apart, stay within cap of one
    # integer from first to last, hence (n-1)|dh| < 2 cap. Only pairs with
    # |h_a - h_b| <= w can lie below cap. The margin on w absorbs the
    # kernel's own rounding (an angle gap rounded inward can put a pair one
    # ulp past the edge just below cap), so every pair the exact kernel puts
    # below cap is listed. Wide blocks also skip the band pairs whose angles
    # lie more than c (cap with the same margin) apart mod 1: their step-0
    # arc term is at least cap. Only pairs whose step-0 term is below cap
    # get the drift scan, and those are all listed, whatever it reads. The
    # path is chosen from the block's shape alone, and all three list the
    # same pairs with bitwise the same distances.
    w = min(cap, 2.0 * cap / (n - 1))
    w += 1e-9 * w + 1e-9
    if len(a) == 1:
        return _tower_row_band(a, b, n, cap, w)
    if len(a) * len(b) < _ANGLE_BAND_PAIRS:
        return _tower_height_band(a, b, n, cap, w)
    return _tower_angle_band(a, b, n, cap, w)


def tower_system(fam: HeightFamily, level_cap: int = 8) -> SystemHandle:
    """The rotation tower over a height family.

    The default sampler places ``res`` angles on the base circle and on levels
    1..level_cap; counting experiments pass their own level policy instead.
    """
    if fam.max_level is not None:
        level_cap = min(level_cap, fam.max_level)

    def sampler(res: int) -> AngleLevelGrid:
        return tower_sample(fam, res, range(0, level_cap + 1))

    def pack(points: Sequence[TowerPoint], n: int) -> np.ndarray:
        batch = np.empty(len(points), [("angle", np.float64), ("height", np.float64)])
        if isinstance(points, AngleLevelGrid):
            # np.arange(r) / r is the same correctly rounded j / r that
            # TowerPoint(j / r, level) holds, so no point is ever built
            r, lv = points.angle_count, points.levels
            levels = (np.arange(lv.start, lv.stop, lv.step, dtype=np.int64)
                      if isinstance(lv, range) else np.array(lv, np.int64))
            batch["angle"] = np.tile(np.arange(r) / r, len(levels))
            batch["height"] = np.repeat(_heights_array(fam, levels), r)
            return batch
        batch["angle"] = np.fromiter((p.angle for p in points), np.float64, len(points))
        levels = np.fromiter((p.level for p in points), np.int64, len(points))
        batch["height"] = _heights_array(fam, levels)
        return batch

    return SystemHandle(
        name=f"tower-{fam.label}",
        metric=lambda p, q: tower_dist(p, q, fam),
        step=lambda p: tower_map(p, fam),
        inverse=lambda p: tower_inverse(p, fam),
        sampler=sampler,
        pack=pack,
        orbit_pairs=_tower_orbit_pairs,
        heights=fam,
    )


def _shift_dynamics(window: int, alphabet_size: int) -> dict[str, Callable]:
    """Shift map, coding metric and block kernel shared by the subshifts."""
    symbol = np.min_scalar_type(alphabet_size - 1)

    def pack(points: Sequence[SymbolicPoint], n: int) -> np.ndarray:
        # rows hold the symbols at 0..n-1, then at -1, n, -2, n+1, ... out to
        # the coding window, so the first mismatch in column n + m lies at
        # distance m // 2 + 1 from the block; the central n symbols are also
        # kept as one opaque byte string so blocks compare in a single test
        outward = np.stack((-np.arange(1, window + 1), np.arange(n, n + window)), axis=1)
        order = np.concatenate((np.arange(n), outward.ravel()))
        key = np.dtype((np.void, n * symbol.itemsize))
        batch = np.empty(len(points), [("rows", symbol, (order.size,)), ("key", key)])
        groups: dict[Callable[[int], int], list[int]] = {}
        for i, p in enumerate(points):
            groups.setdefault(p.rule, []).append(i)
        for rule, members in groups.items():
            # shifts of one sequence overlap, so each needed index of the
            # shared rule is evaluated once
            offsets = np.array([points[i].offset for i in members], np.int64)
            index = offsets[:, None] + order
            need, where = np.unique(index, return_inverse=True)
            values = np.array([rule(k) for k in need.tolist()], symbol)
            batch["rows"][members] = values[where.reshape(index.shape)]
        batch["key"] = np.ascontiguousarray(batch["rows"][:, :n]).view(key)[:, 0]
        return batch

    def same_block_pairs(a: np.ndarray, b: np.ndarray,
                         n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Bowen max over k in [0, n) of the coding metric = 2^-(distance from
        # the nearest differing coordinate to the index block [0, n-1]); a
        # pair with different central blocks is at distance 1, and only
        # pairs with equal ones need the outward scan, which is exact
        ii, jj = np.nonzero(a["key"][:, None] == b["key"][None, :])
        diff = a["rows"][ii, n:] != b["rows"][jj, n:]
        hit = diff.any(axis=1)
        d = np.zeros(len(ii))
        d[hit] = 2.0 ** -(diff[hit].argmax(axis=1) // 2 + 1)
        return ii, jj, d

    def dense(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
        out = np.ones((len(a), len(b)))
        ii, jj, d = same_block_pairs(a, b, n)
        out[ii, jj] = d
        return out

    def pairs(a: np.ndarray, b: np.ndarray, n: int,
              cap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if cap > 1.0:
            # pairs at distance 1 lie below cap too (the factor-shift audit
            # at eps 1.0 asks for them)
            return _pairs_below(dense(a, b, n), cap)
        return same_block_pairs(a, b, n)

    return {
        "metric": lambda x, y: shift_metric(x, y, window),
        "step": lambda x: x.shifted(1),
        "inverse": lambda x: x.shifted(-1),
        "pack": pack,
        "orbit_pairs": pairs,
    }


def full_shift(alphabet_size: int = 2, window: int = 64) -> SystemHandle:
    """Two-sided full shift on ``alphabet_size`` symbols."""
    if alphabet_size < 2:
        raise ValueError("alphabet must have at least 2 symbols")

    def sampler(res: int) -> list[SymbolicPoint]:
        # periodic points of the shortest period covering the resolution
        period = 1
        while alphabet_size ** period < res:
            period += 1
        pts = []
        for code in range(min(alphabet_size ** period, res)):
            digits = []
            c = code
            for _ in range(period):
                digits.append(c % alphabet_size)
                c //= alphabet_size
            pts.append(periodic_point(tuple(digits), alphabet_size))
        return pts

    return SystemHandle(
        name=f"full-shift:{alphabet_size}",
        sampler=sampler,
        **_shift_dynamics(window, alphabet_size),
    )


def sturmian_system(alpha: float, window: int = 64) -> SystemHandle:
    """Shift orbit of the mechanical word with slope alpha."""
    base = sturmian_point(alpha)

    return SystemHandle(
        name=f"sturmian:{alpha!r}",
        sampler=lambda res: [base.shifted(i) for i in range(res)],
        **_shift_dynamics(window, 2),
        word_fn=lambda lo, hi: sturmian_generate(alpha, lo, hi),
        recurrence=_sturmian_recurrence(alpha),
    )


def product_system(a: SystemHandle, b: SystemHandle) -> SystemHandle:
    """Product with the max metric and the coordinatewise map."""

    def metric(p, q):
        return max(a.metric(p[0], q[0]), b.metric(p[1], q[1]))

    inverse = None
    if a.inverse is not None and b.inverse is not None:
        inverse = lambda p: (a.inverse(p[0]), b.inverse(p[1]))  # noqa: E731

    sampler = None
    if a.sampler is not None and b.sampler is not None:
        def sampler(res: int) -> list:
            return [(pa, pb) for pa in a.sampler(res) for pb in b.sampler(res)]

    pack = orbit_pairs = None
    if a.orbit_pairs is not None and b.orbit_pairs is not None:
        def pack(points: Sequence, n: int) -> np.ndarray:
            pa = a.pack([p[0] for p in points], n)
            pb = b.pack([p[1] for p in points], n)
            batch = np.empty(len(points), [("a", pa.dtype), ("b", pb.dtype)])
            batch["a"], batch["b"] = pa, pb
            return batch

        def orbit_pairs(x: np.ndarray, y: np.ndarray, n: int,
                        cap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            # under the max metric a pair lies below cap iff it does in both
            # factors, so both lists hold it; a factor distance at or above
            # cap is exact or a lower bound >= cap, and so is their max
            ia, ja, da = a.orbit_pairs(x["a"], y["a"], n, cap)
            ib, jb, db = b.orbit_pairs(x["b"], y["b"], n, cap)
            ka, kb = ia * len(y) + ja, ib * len(y) + jb
            # intersect on the key through one flag per pair of the block,
            # which is several times faster than sorting both lists when
            # repeated factor coordinates make them long; only the common
            # keys are sorted, to line the two lists up
            flag = np.zeros(len(x) * len(y), bool)
            flag[kb] = True
            sa = np.flatnonzero(flag[ka])
            flag[kb] = False
            flag[ka[sa]] = True
            sb = np.flatnonzero(flag[kb])
            sa, sb = sa[np.argsort(ka[sa])], sb[np.argsort(kb[sb])]
            return ia[sa], ja[sa], np.maximum(da[sa], db[sb])

    return SystemHandle(
        name=f"product({a.name},{b.name})",
        metric=metric,
        step=lambda p: (a.step(p[0]), b.step(p[1])),
        inverse=inverse,
        sampler=sampler,
        pack=pack,
        orbit_pairs=orbit_pairs,
        parts=(a, b),
    )


def make_system(spec: str) -> SystemHandle:
    """Build a system from a short spec string.

    Accepted forms: ``tower-exp``, ``tower-power:C``, ``sturmian:ALPHA``,
    ``full-shift:L``, ``product:SPEC,SPEC`` (components must not themselves be
    products).
    """
    spec = spec.strip()
    if spec.startswith("product:"):
        body = spec[len("product:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"product spec needs exactly two components: {spec!r}")
        for part in parts:
            if part.strip().startswith("product:"):
                raise ValueError("nested product specs are not supported")
        return product_system(make_system(parts[0]), make_system(parts[1]))
    if spec == "tower-exp":
        return tower_system(ExpHeights())
    if spec.startswith("tower-power:"):
        return tower_system(PowerHeights(float(spec.split(":", 1)[1])))
    if spec.startswith("sturmian:"):
        return sturmian_system(float(spec.split(":", 1)[1]))
    if spec.startswith("full-shift:"):
        return full_shift(int(spec.split(":", 1)[1]))
    raise ValueError(f"unrecognized system spec {spec!r}")
