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
Bowen-distance kernel over numpy batches of points (``pack`` and
``orbit_cdist``). Kernel values are exact whenever the true orbit distance is
below ``exact_cap``; above the cap they are certified lower bounds, which is
all a threshold comparison needs. For thresholds beyond the cap, and for
handles without a kernel, the counting code steps ``bowen.bowen_dist``.

The tower kernel prunes by height when given a cap in (0, 1/4]. A pair at
Bowen distance below cap has height gap |dh| < cap <= 1/4, so its per-step
drift is dh itself, and consecutive iterates (dh apart) cannot jump between
the cap-neighbourhoods of different integers; the first and last iterates
lie within cap of one integer, so (n-1)|dh| < 2 cap. Sorting one batch by
height turns |dh| <= min(cap, 2 cap/(n-1)), widened by a float margin, into
one contiguous run per row; only those pairs, and among them only those
whose step-0 term is below cap, are evaluated exactly. Every other entry
reads ``cap``: its distance is at least cap, so cap is a valid lower bound.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "circle_point",
    "circle_dist",
    "ExpHeights",
    "PowerHeights",
    "CustomHeights",
    "HeightFamily",
    "TowerPoint",
    "tower_dist",
    "tower_map",
    "tower_inverse",
    "tower_iterate",
    "tower_sample",
    "WORD_SYMBOL_LIMIT",
    "SymbolicWord",
    "SymbolicPoint",
    "sturmian_generate",
    "sturmian_point",
    "periodic_point",
    "one_defect_point",
    "shift_metric",
    "first_difference",
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

def circle_point(angle: float) -> float:
    """Normalize an angle to the canonical representative in [0, 1)."""
    return angle % 1.0


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
    """Heights h(n) = e^-n; drift dies fast enough for zero polynomial slope."""

    label: str = field(default="exp", init=False)
    max_level: None = field(default=None, init=False)

    def height(self, n: int) -> float:
        if n < 1:
            raise ValueError(f"level index must be >= 1, got {n}")
        return math.exp(-n)


@dataclass(frozen=True, slots=True)
class PowerHeights:
    """Heights h(n) = n^-c for a fixed decay exponent c >= 1."""

    c: float = 1.0

    def __post_init__(self) -> None:
        if not self.c >= 1.0:
            raise ValueError(f"decay exponent must be >= 1, got {self.c}")

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
        if c is not None:
            return 1.0 / (n ** c)
        return float(n) ** (-self.c)


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


def _heights_array(fam: HeightFamily, levels: np.ndarray) -> np.ndarray:
    """Vectorized heights with level 0 mapped to the base height 0."""
    if isinstance(fam, ExpHeights):
        out = np.exp(-levels.astype(np.float64))
    elif isinstance(fam, PowerHeights):
        c = fam.integer_c
        lv = np.maximum(levels, 1)
        if c is not None and (levels.size == 0 or int(lv.max()) ** c < 2 ** 62):
            out = 1.0 / (lv.astype(np.int64) ** c).astype(np.float64)
        else:
            out = lv.astype(np.float64) ** (-fam.c)
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


def tower_iterate(p: TowerPoint, k: int, fam: HeightFamily) -> TowerPoint:
    """k-th iterate in one multiply: angle + k*height mod 1.

    Avoids accumulating k rounding errors; agrees with repeated stepping to
    about 1e-9 over |k| <= 1e6.
    """
    return TowerPoint(p.angle + k * _height_of(p, fam), p.level)


def tower_sample(fam: HeightFamily, grid: int, levels: Sequence[int]) -> list[TowerPoint]:
    """Canonical sample: ``grid`` equally spaced angles on each listed circle.

    Levels are taken in the given order; angle index runs fastest.
    """
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    return [TowerPoint(j / grid, lv) for lv in levels for j in range(grid)]


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

    A zero return is window-limited, not a proof of equality; use
    :func:`first_difference` when the distinction matters.
    """
    m = first_difference(x, y, window)
    return 0.0 if m is None else 2.0 ** (-m)


def first_difference(x: SymbolicPoint, y: SymbolicPoint, window: int) -> int | None:
    """Smallest |k| <= window where the sequences differ, or None."""
    if x.symbol(0) != y.symbol(0):
        return 0
    for j in range(1, window + 1):
        if x.symbol(j) != y.symbol(j) or x.symbol(-j) != y.symbol(-j):
            return j
    return None


# ---------------------------------------------------------------------------
# system handles

@dataclass(frozen=True)
class SystemHandle:
    """A dynamical system packaged for the counting and diagnostic code.

    ``metric``/``step``/``inverse`` act on opaque points. ``sampler(res)``
    returns the canonical finite sample at the requested resolution.
    The optional kernel is a pair set together: ``pack(points, n)`` makes a
    numpy batch (points on axis 0) for window n, ``orbit_cdist(a, b, n,
    cap=None)`` the Bowen distances between two batches: exact below both
    ``exact_cap`` and ``cap``, otherwise certified lower bounds at least as
    large as the smaller of the two, which is all a threshold test needs.
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
    sampler: Callable[[int], list] | None = None
    pack: Callable[[Sequence, int], np.ndarray] | None = None
    orbit_cdist: Callable[..., np.ndarray] | None = None
    exact_cap: float = math.inf
    heights: HeightFamily | None = None
    word_fn: Callable[[int, int], SymbolicWord] | None = None
    recurrence: Callable[[int], int] | None = None
    parts: tuple["SystemHandle", "SystemHandle"] | None = None

    def __post_init__(self) -> None:
        if (self.pack is None) != (self.orbit_cdist is None):
            raise ValueError(f"system {self.name}: pack and orbit_cdist must be set together")
        if (self.word_fn is None) != (self.recurrence is None):
            raise ValueError(f"system {self.name}: word_fn and recurrence must be set together")


# Longest canonical word the counting code materializes. Counting the
# blocks of a Sturmian word peaks at about 66 bytes per symbol (int64 codes,
# ranks and sort permutations), so about 0.55 GiB at this limit.
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


def circle_rotation(theta: float) -> SystemHandle:
    """Rigid rotation by theta on the unit circle; points are plain angles."""
    th = theta % 1.0

    def cdist(a: np.ndarray, b: np.ndarray, n: int,
              cap: float | None = None) -> np.ndarray:
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
        orbit_cdist=cdist,
    )


# distances below a quarter turn are exact (a wrapped drift reads at least
# 1/2 - |delta| >= 1/4), and the height band needs cap <= 1/4
_TOWER_EXACT_CAP = 0.25


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
    # which the clip to n - 1 absorbs
    with np.errstate(divide="ignore", over="ignore"):
        k1 = np.floor(np.divide(t0, delta, out=t0, where=delta > 0.0))
    np.clip(k1, 0.0, float(n - 1), out=k1)

    u = np.rint(theta)
    np.abs(theta - u, out=u)
    best = u
    for k in (float(n - 1), k1, None):
        if k is None:
            k1 += 1.0
            np.clip(k1, 0.0, float(n - 1), out=k1)
            k = k1
        u = theta + k * delta
        u -= np.rint(u)
        np.abs(u, out=u)
        np.maximum(best, u, out=best)
    return best


def _tower_exact(theta: np.ndarray, dh: np.ndarray, n: int) -> np.ndarray:
    """Tower Bowen distances from the angle and height differences of
    (broadcast) pairs; mutates ``theta``."""
    # step-0 term: height gap and initial arc offset, both lower bounds on
    # the window max
    u = np.rint(theta)
    np.abs(theta - u, out=u)
    base = np.maximum(u, np.abs(dh), out=u)
    if n == 1:
        return base
    best = _drift_peak(theta, dh - np.rint(dh), n)
    return np.maximum(best, base, out=best)


def _tower_orbit_cdist(a: np.ndarray, b: np.ndarray, n: int,
                       cap: float | None = None) -> np.ndarray:
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    if n == 1 or cap is None or not 0.0 < cap <= _TOWER_EXACT_CAP:
        return _tower_exact(a["angle"][:, None] - b["angle"][None, :],
                            a["height"][:, None] - b["height"][None, :], n)
    # Height band (module docstring): a pair below cap <= 1/4 has |dh| < cap,
    # so delta = dh and its iterates, dh apart, stay within cap of one
    # integer from first to last, hence (n-1)|dh| < 2 cap. Only the b-points
    # with |h_a - h_b| <= w, one contiguous run of b sorted by height, can
    # lie below cap. The margin on w absorbs the kernel's own rounding (an
    # angle gap rounded inward can put a pair one ulp past the edge just
    # below cap), so every pair the exact kernel puts below cap is kept.
    w = min(cap, 2.0 * cap / (n - 1))
    w += 1e-9 * w + 1e-9
    order = np.argsort(b["height"], kind="stable")
    hb = b["height"][order]
    ab = b["angle"][order]
    lo = np.searchsorted(hb, a["height"] - w, "left")
    counts = np.searchsorted(hb, a["height"] + w, "right") - lo
    ends = np.cumsum(counts)
    # band pairs row by row, as positions in the sorted b
    pos = np.arange(counts.sum()) + np.repeat(lo - ends + counts, counts)
    theta = np.repeat(a["angle"], counts) - ab[pos]
    dh = np.repeat(a["height"], counts) - hb[pos]
    # only band pairs whose step-0 term is below cap need the drift scan
    step0 = np.rint(theta)
    np.abs(theta - step0, out=step0)
    np.maximum(step0, np.abs(dh), out=step0)
    live = np.flatnonzero(step0 < cap)
    # every other entry reads cap, a valid lower bound: the pair is pruned
    # by the band or settled at step 0, so its distance is at least cap
    out = np.full((len(a), len(b)), cap)
    rows = np.searchsorted(ends, live, "right")
    out.ravel()[rows * len(b) + order[pos[live]]] = _tower_exact(theta[live], dh[live], n)
    return out


def tower_system(fam: HeightFamily, level_cap: int = 8) -> SystemHandle:
    """The rotation tower over a height family.

    The default sampler places ``res`` angles on the base circle and on levels
    1..level_cap; counting experiments pass their own level policy instead.
    """
    if fam.max_level is not None:
        level_cap = min(level_cap, fam.max_level)

    def sampler(res: int) -> list[TowerPoint]:
        return tower_sample(fam, res, list(range(0, level_cap + 1)))

    def pack(points: Sequence[TowerPoint], n: int) -> np.ndarray:
        batch = np.empty(len(points), [("angle", np.float64), ("height", np.float64)])
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
        orbit_cdist=_tower_orbit_cdist,
        exact_cap=_TOWER_EXACT_CAP,
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

    def cdist(a: np.ndarray, b: np.ndarray, n: int,
              cap: float | None = None) -> np.ndarray:
        # Bowen max over k in [0, n) of the coding metric = 2^-(distance from
        # the nearest differing coordinate to the index block [0, n-1]); only
        # pairs with equal central blocks need the outward scan, and it is
        # exact, so the cap is never needed
        same = a["key"][:, None] == b["key"][None, :]
        out = np.where(same, 0.0, 1.0)
        ii, jj = np.nonzero(same)
        diff = a["rows"][ii, n:] != b["rows"][jj, n:]
        hit = diff.any(axis=1)
        out[ii[hit], jj[hit]] = 2.0 ** -(diff[hit].argmax(axis=1) // 2 + 1)
        return out

    return {
        "metric": lambda x, y: shift_metric(x, y, window),
        "step": lambda x: x.shifted(1),
        "inverse": lambda x: x.shifted(-1),
        "pack": pack,
        "orbit_cdist": cdist,
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

    pack = orbit_cdist = None
    if a.orbit_cdist is not None and b.orbit_cdist is not None:
        def pack(points: Sequence, n: int) -> np.ndarray:
            pa = a.pack([p[0] for p in points], n)
            pb = b.pack([p[1] for p in points], n)
            batch = np.empty(len(points), [("a", pa.dtype), ("b", pb.dtype)])
            batch["a"], batch["b"] = pa, pb
            return batch

        def orbit_cdist(x: np.ndarray, y: np.ndarray, n: int,
                        cap: float | None = None) -> np.ndarray:
            # a factor below cap is exact, at or above cap it is a lower
            # bound >= cap, and the max of the factors preserves both cases
            return np.maximum(a.orbit_cdist(x["a"], y["a"], n, cap),
                              b.orbit_cdist(x["b"], y["b"], n, cap))

    return SystemHandle(
        name=f"product({a.name},{b.name})",
        metric=metric,
        step=lambda p: (a.step(p[0]), b.step(p[1])),
        inverse=inverse,
        sampler=sampler,
        pack=pack,
        orbit_cdist=orbit_cdist,
        exact_cap=min(a.exact_cap, b.exact_cap),
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
