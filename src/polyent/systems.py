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
Bowen-distance kernel over numpy batches of points made by ``pack``, in
two stages, ``candidates`` then the exact evaluator ``evaluate``, which
:meth:`SystemHandle.orbit_pairs` composes: a fixed-radius near-neighbour
query (Bentley, Stanat and Williams 1977). Every built-in kernel is exact
at every threshold; the stepping ``bowen.bowen_dist`` is the oracle the
tests hold the kernels to. No list is filtered down to ``d < cap`` past
what its evaluator keeps: the tower bands already drop almost every pair,
and a filter would copy the survivors three more times per call. A product
takes its candidates from one factor, the tower when there is one, as its
bands list far fewer candidates than a shift's key join.

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
1/2 - |delta|/2) >= 1/3 away, so no pair below a float cap of at most
1/3 needs it.

The tower kernel has three candidate generators, and its evaluator keeps
the candidates a - b whose step-0 term is below cap and gives each its
exact distance; a pair that a generator leaves out or the evaluator drops
lies at or above cap. A pair of equal heights has zero drift, so its
window max is its step-0 term or ||theta - floor(theta)||, whichever is
larger, bit for bit what the drift scan returns at delta = 0: a call whose
survivors all share one height, as most greedy row queries do, reads that
and makes no drift scan. The dense generator, every pair of the block,
serves n = 1 and the caps outside the bands' range (0, (1 - 2^-50)/3].

For a cap in (0, 1/3] the kernel prunes by height. A pair at Bowen distance
below cap has height gap |dh| < cap <= 1/3, so its per-step drift is dh
itself, and every iterate lies strictly within cap of an integer. Moving
into the next integer's neighbourhood takes a step longer than 1 - 2 cap,
and 1 - 2 cap >= cap > |dh|, so all iterates stay near one integer; the
first and last lie within cap of it, so (n-1)|dh| < 2 cap. Above 1/3 the
bound fails: at cap 0.45 and n = 40, the points of angle 0 on heights 0 and
1/5 lie 0.4 apart, their iterates hopping from one integer's neighbourhood
to the next. Sorting one batch by height turns |dh| <= min(cap, 2
cap/(n-1)), widened by the float margin below, into one contiguous run per
row. A single row, such as the greedy loop's 1 x k queries, scans b for its
band by the same float test instead of sorting it.

Blocks of more than one row also prune by angle. The step-0 term is at
least the arc distance between the two angles, so a pair whose angles lie
cap or more apart mod 1 is settled without being formed. The longer batch
is sorted by height and then by the key angle + 4g, where g numbers its
runs of equal height; each point of the other batch looks up, in every run
of its height band, one window per wrap image theta - 1, theta, theta + 1
of its angle, of half-width cap plus a float margin. A spacing of
4 keeps each window inside its own run, and float rounding of keys and
window ends is monotone, so it can only admit extra pairs, which the exact
step-0 test then drops.

The float margins follow from the standard model of rounding (Higham,
*Accuracy and Stability of Numerical Algorithms*, ch. 2): each operation
is exact up to a relative error of at most u = 2^-53, so a result below 2
in magnitude is off by at most u. Angles and heights lie in [0, 1]. The
evaluator reads theta = fl(theta_a - theta_b) and dh = fl(h_a - h_b), one
rounding each, and a pair it keeps has |dh| < cap, so dh is its own drift.
While the drift stays under a turn, every term the drift scan evaluates
is the reduced angle (one rounding) plus fl(k dh) (one rounding of a
number below 1), summed with one more rounding, so it lies within 2.5 u of
the exact term ||theta + k dh|| of the float inputs; the scan evaluates
the window's largest term, so the computed window max undershoots the
exact one by at most eta = 2^-51. A pair read below cap thus has every
exact iterate within cap + eta of an integer, and the argument above, run
at cap + eta, gives (n-1)|dh| < 2 (cap + eta). That run needs 1 - 2 (cap +
eta) >= cap, which is why the bands stop at (1 - 2^-50)/3 rather than 1/3.
The band's half-width is therefore min(cap, 2 cap/(n-1)) + 2 eta/(n-1),
enlarged for the roundings of dh and of the quotient (relative u each)
and of the band ends h +- w (absolute u, as heights are at most 1):
``_band_width`` adds 2^-50 (w + 1/(n-1)) + 2^-52. The angle windows need
cap plus the roundings of theta (u/2), of the wrap image theta +- 1 and of
its window end (u each), and take cap + 2^-51. The height band admits a
wrapped drift only once (n-1) 2^-52 reaches 1 - 2 cap, past n = 1.5 *
10^15;
the evaluator would read such a pair exactly, at or above cap.

Tower points and the lazy samples, :class:`AngleLevelGrid` and
:class:`ProductSample`, live in :mod:`polyent.samples`. Every ``pack``
takes a run of rows, ``pack(points, n, lo, hi)``: the greedy counter and
the covering audit pack one block at a time. The tower ``pack`` builds a
run of a grid from its two axes, so no point object is made on the
counting paths; only indexing a grid (output, the tests' stepping oracle)
builds ``TowerPoint`` objects. The product ``pack`` packs only the factor
rows a run spans, each once.

Subshift points are the rule-backed ``SymbolicPoint`` objects of
:mod:`polyent.symbolic`. The subshift ``pack`` gives each point one row,
its coding window [offset - 64, offset + n + 64) in natural order, and a
second field of the same dtype, the key, views the row's central n
symbols as one opaque byte string, so no block is stored twice. A rule
group of two or more points takes one rule call over the merged runs of
its windows, cast to the symbol dtype, and reads each row from a sliding
view of those symbols, so no rows x (n + 128) index array is built; a
one-member group, as every full-shift sample point is, calls its rule on
its row's own indices, which costs less than merging. The evaluator reads
the two flanks outward, -1, n, -2, n + 1, ..., so the first mismatch it
meets is the nearest. At a cap of at most 1 the subshift candidates are
the pairs of equal keys. Two batches of two or more rows join on the keys, the
cell list of the tower bands: the longer batch is stably sorted once and
each key of the other finds its run of equal keys by binary search. numpy
orders void keys by their bytes, so the join lists exactly the key-equal
pairs, with no hash to collide. A single row, such as the greedy loop's
1 x k queries, compares by broadcasting instead, which sorts nothing: a
sort per query measured several times slower.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .samples import AngleLevelGrid, ProductSample, TowerPoint
from .symbolic import (
    _CODING_WINDOW,
    SymbolicPoint,
    SymbolicWord,
    _floor_multiples,
    _sturmian_recurrence,
    one_defect_point,
    periodic_point,
    shift_metric,
    sturmian_generate,
    sturmian_point,
)

__all__ = [
    "circle_dist",
    "ExpHeights",
    "PowerHeights",
    "POWER_EXPONENT_LIMIT",
    "HeightFamily",
    "TowerPoint",
    "AngleLevelGrid",
    "ProductSample",
    "tower_dist",
    "tower_map",
    "tower_inverse",
    "tower_sample",
    "PACK_LIMIT",
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

    def height(self, n: int) -> float:
        return _level_height(self, n)


@functools.lru_cache(maxsize=1 << 16)
def _level_height(fam: HeightFamily, n: int) -> float:
    # the batch rule on one level, cached: the tower's step map reads its
    # level's height at every step, and a one-level numpy call costs far
    # more than a cache lookup
    if n < 1:
        raise ValueError(f"level index must be >= 1, got {n}")
    return float(_heights_array(fam, np.array([n], np.int64))[0])


# Largest decay exponent a power family takes: past it, level 2's height
# 2^-c is no longer a normal float, and exact integer powers of the level
# thresholds grow without bound.
POWER_EXPONENT_LIMIT = 1022


@dataclass(frozen=True, slots=True)
class PowerHeights:
    """Heights h(n) = n^-c for a fixed decay exponent 1 <= c <= 1022.

    ``height`` reads ``_power_heights`` on a one-level array, as batches
    do: numpy's vectorized power can round differently from the scalar
    ``**``.
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
    def integer_c(self) -> int | None:
        return int(self.c) if float(self.c).is_integer() else None

    def height(self, n: int) -> float:
        return _level_height(self, n)


HeightFamily = ExpHeights | PowerHeights


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
    else:
        out = _power_heights(fam, np.maximum(levels, 1))
    return np.where(levels > 0, out, 0.0)


# ---------------------------------------------------------------------------
# tower points and dynamics

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


def tower_sample(grid: int, levels: Sequence[int]) -> AngleLevelGrid:
    """Canonical sample: ``grid`` equally spaced angles on each listed circle.

    Levels are taken in the given order; angle index runs fastest.
    """
    return AngleLevelGrid(grid, levels)


# ---------------------------------------------------------------------------
# system handles

@dataclass(frozen=True)
class SystemHandle:
    """A dynamical system packaged for the counting and diagnostic code.

    ``metric``/``step``/``inverse`` act on opaque points; ``inverse`` is None
    for a non-invertible map. ``sampler(res)`` returns the canonical finite
    sample at the requested resolution, possibly a lazy sequence.
    ``pack(points, n, lo, hi)`` makes a numpy batch (points on axis 0) for
    window n of the points lo to hi - 1, all by default, as a slice picks
    them; a lazy sample packs such a run without building its points.
    :meth:`orbit_pairs` composes the kernel's two stages on two such
    batches, under its contract: ``candidates(a, b, n, cap)`` lists index
    pairs ``(i, j)``, each at most once, a superset of the pairs below
    ``cap``; ``evaluate(a, b, i, j, n, cap)`` reads given pairs, repeats
    allowed, and returns the positions ``live`` of those it keeps and their
    distances ``d``. ``heights`` is set for towers, ``word_fn`` for subshifts
    with a canonical word, and ``parts`` for products, so closed-form counts
    can multiply through. ``word_fn(lo, hi)`` materializes indices lo..hi of
    the canonical word, and ``recurrence(n)``, set with it, is a length such
    that every stretch of the word that long holds every length-n block.
    """

    name: str
    metric: Callable[[Any, Any], float]
    step: Callable[[Any], Any]
    sampler: Callable[[int], Sequence]
    pack: Callable[..., np.ndarray]
    candidates: Callable[..., tuple[np.ndarray, np.ndarray]]
    evaluate: Callable[..., tuple[np.ndarray, np.ndarray]]
    inverse: Callable[[Any], Any] | None = None
    heights: HeightFamily | None = None
    word_fn: Callable[[int, int], SymbolicWord] | None = None
    recurrence: Callable[[int], int] | None = None
    parts: tuple["SystemHandle", "SystemHandle"] | None = None

    def __post_init__(self) -> None:
        if (self.word_fn is None) != (self.recurrence is None):
            raise ValueError(f"system {self.name}: word_fn and recurrence must be set together")

    def orbit_pairs(self, a: np.ndarray, b: np.ndarray, n: int,
                    cap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The candidate pairs of two batches that the evaluator keeps, as
        ``(i, j, d)``, each at most once. Every pair whose Bowen distance
        over n steps is below ``cap`` is listed with that distance, exact and
        with the same bits; any other listed pair reads exactly or as a lower
        bound of at least ``cap``, so at ``cap = inf`` every distance is
        exact. There is no order: the caller compares ``d`` with its own
        threshold."""
        i, j = self.candidates(a, b, n, cap)
        live, d = self.evaluate(a, b, i, j, n, cap)
        return i[live], j[live], d


# Bytes a packed family may take, 2^21 tower rows of 16: the greedy loop's
# work grows with the square of its sample in the worst case.
PACK_LIMIT = 1 << 25

# Levels a counting or audit sample takes past the deepest level its
# witness family resolves: deeper circles sit closer to the base circle
# than any point the family must tell apart.
TOWER_SAMPLE_SLACK = 5

# Longest canonical word the counting code materializes. Generating a
# Sturmian word and counting its blocks each peak at 24 traced bytes per
# symbol, the counting beside the word's own byte (int64 codes that their
# ranks overwrite, a sort permutation and the gathered sorted codes;
# tracemalloc on an 832,038-symbol word), so about 0.2 GiB at this limit.
WORD_SYMBOL_LIMIT = 1 << 23


def check_pack_limit(task: str, system: SystemHandle, size: int, n: int) -> None:
    """Refuse a ``task`` whose ``size`` points, packed for window n, would
    take more than ``PACK_LIMIT`` bytes; a tower row holds 16 bytes and a
    subshift row n + 128, so n + 1 subshift rows pass up to n = 5728."""
    nbytes = size * system.pack([], n).itemsize
    if nbytes > PACK_LIMIT:
        raise ValueError(f"{task} packs a family of {size} points into {nbytes} bytes, "
                         f"beyond the limit of {PACK_LIMIT}")


def sized_tower_sample(grid: int, top: int) -> AngleLevelGrid:
    """The counting or audit sample of a witness family resolving levels up
    to ``top``: ``grid`` angles on levels 0 to top + ``TOWER_SAMPLE_SLACK``."""
    return tower_sample(grid, range(0, top + TOWER_SAMPLE_SLACK + 1))


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


def _every_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair of two batches, row-major."""
    return tuple(np.indices((len(a), len(b))).reshape(2, -1))


def circle_rotation(theta: float) -> SystemHandle:
    """Rigid rotation by theta on the unit circle; points are plain angles."""
    th = theta % 1.0

    def evaluate(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray, n: int,
                 cap: float) -> tuple[np.ndarray, np.ndarray]:
        # rotations are isometries: the Bowen distance is the plain
        # distance, computed as in circle_dist
        d = np.abs(np.mod(a[i], 1.0) - np.mod(b[j], 1.0))
        np.minimum(d, 1.0 - d, out=d)
        live = (d < cap).nonzero()[0]
        return live, d[live]

    return SystemHandle(
        name=f"rotation:{th!r}",
        metric=circle_dist,
        step=lambda x: (x + th) % 1.0,
        inverse=lambda x: (x - th) % 1.0,
        sampler=lambda res: [j / res for j in range(res)],
        pack=lambda points, n, lo=0, hi=None: np.fromiter(points[lo:hi], np.float64),
        candidates=lambda a, b, n, cap: _every_pair(a, b),
        evaluate=evaluate,
    )


# the height band needs cap + 2^-51 <= (1 - cap)/2: below it a pair read
# below cap drifts by dh itself and its iterates stay near one integer
# (module docstring)
_TOWER_BAND_CAP = (1.0 - 2.0 ** -50) / 3.0


def _drift_peak(theta: np.ndarray, delta: np.ndarray, n: int) -> np.ndarray:
    """Max over k in 0..n-1 of the distance from theta + k*delta to Z, exact
    at every drift (module docstring): the sawtooth's one peak while the
    total drift stays under a turn, the descent once it wraps. Mutates
    theta."""
    mag = np.abs(delta)
    wrapped = (mag * (n - 1) >= 1.0).nonzero()[0]
    if wrapped.size:
        far = 0.5 - _nearest_approach(theta[wrapped] - 0.5, delta[wrapped], n)
    np.negative(theta, out=theta, where=delta < 0.0)
    delta = mag
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
    if wrapped.size:
        best[wrapped] = far
    return best


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


def _tower_evaluate(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray,
                    n: int, cap: float) -> tuple[np.ndarray, np.ndarray]:
    """The tower kernel's one evaluator: the positions of the candidate pairs
    (i, j) whose step-0 term is below cap, and their exact distances over n
    steps. A call whose survivors all share one height makes no drift scan
    (module docstring). Every valid i of a single row is 0, so a row's gaps
    take scalar operands, which saves most of a row query's overhead."""
    if len(a) == 1:
        i = 0
    theta = a["angle"][i] - b["angle"][j]
    dh = a["height"][i] - b["height"][j]
    # the step-0 term max(||theta||, |dh|), a lower bound on the window max
    dist = np.rint(theta)
    np.abs(theta - dist, out=dist)
    np.maximum(dist, np.abs(dh), out=dist)
    live = (dist < cap).nonzero()[0]
    dist = dist[live]
    if n == 1:
        return live, dist
    theta, dh = theta[live], dh[live]
    if dh.any():
        peak = _drift_peak(theta, dh - np.rint(dh), n)
    else:
        peak = theta - np.floor(theta)
        np.abs(peak - np.rint(peak), out=peak)
    return live, np.maximum(peak, dist, out=peak)


def _band_width(n: int, cap: float) -> float:
    """Half-width of the height band of a cap in the bands' range over n >= 2
    steps, with the float margin (module docstring)."""
    w = min(cap, 2.0 * cap / (n - 1))
    return w + (2.0 ** -50 * (w + 1.0 / (n - 1)) + 2.0 ** -52)


def _run_positions(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions lo[r], ..., lo[r] + counts[r] - 1 of every run r, in
    run order."""
    return np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)


def _tower_angle_band(a: np.ndarray, b: np.ndarray, cap: float,
                      w: float) -> tuple[np.ndarray, np.ndarray]:
    # Angle band (module docstring). The longer batch s is sorted by height,
    # then by the key angle + 4 g, g numbering its runs of equal height; each
    # row of the shorter batch q looks up, in every run of its height band,
    # the windows of half-width c around its angle's wrap images theta - 1,
    # theta and theta + 1. Packed angles lie in [0, 1] (1.0 included:
    # TowerPoint(-1e-300, 1).angle == 1.0), so run g's keys fill [4g, 4g + 1]
    # and its windows stay inside [4g - 2, 4g + 3], clear of the other runs;
    # the three windows are disjoint, as 2c < 1. Rounding of the keys and of
    # the window ends is monotone: it can admit extra pairs, which the
    # evaluator's step-0 test drops, but never drops one inside the margin on c.
    c = cap + 2.0 ** -51
    s_is_a = len(a) >= len(b)
    s, q = (a, b) if s_is_a else (b, a)
    order = np.lexsort((s["angle"], s["height"]))
    hs = s["height"][order]
    first = np.empty(len(hs), bool)
    first[0] = True
    np.not_equal(hs[1:], hs[:-1], out=first[1:])
    run_height = hs[first]
    key = s["angle"][order] + 4.0 * (np.cumsum(first) - 1)
    # runs in the height band, by the row scan's own float test
    # h_b in [h_a - w, h_a + w], so band membership is identical
    if s_is_a:
        glo = np.searchsorted(run_height + w, q["height"], "left")
        ghi = np.searchsorted(run_height - w, q["height"], "right")
    else:
        glo = np.searchsorted(run_height, q["height"] - w, "left")
        ghi = np.searchsorted(run_height, q["height"] + w, "right")
    counts = ghi - glo
    qi = np.repeat(np.arange(len(q)), counts)
    run = _run_positions(glo, counts)
    images = q["angle"][qi, None] + np.array([-1.0, 0.0, 1.0])
    offset = 4.0 * run[:, None]
    lo = np.searchsorted(key, (images - c) + offset, "left").ravel()
    counts = np.searchsorted(key, (images + c) + offset, "right").ravel() - lo
    si, qi = order[_run_positions(lo, counts)], np.repeat(np.repeat(qi, 3), counts)
    return (si, qi) if s_is_a else (qi, si)


def _tower_candidates(a: np.ndarray, b: np.ndarray, n: int,
                      cap: float) -> tuple[np.ndarray, np.ndarray]:
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    if n == 1 or not len(a) * len(b) or not 0.0 < cap <= _TOWER_BAND_CAP:
        # every pair is a candidate (an empty block has none)
        return _every_pair(a, b)
    # Height band and angle windows (module docstring). Their margin absorbs the
    # kernel's own rounding (an angle gap rounded inward can put a pair one ulp
    # past the edge just below cap), so every pair the evaluator puts below cap
    # is listed. The path is chosen from the block's shape alone.
    w = _band_width(n, cap)
    if len(a) > 1:
        return _tower_angle_band(a, b, cap, w)
    # a single row (the greedy loop's queries) finds its band in one scan of
    # b, by the height band's own float test, without sorting b. Rows are
    # short, so a contiguous copy and ndarray.nonzero save most of the
    # per-call overhead.
    h = a["height"].item()
    hb = b["height"].copy()
    col = ((hb >= h - w) & (hb <= h + w)).nonzero()[0]
    return np.zeros(col.size, np.intp), col


# levels above the base circle that a tower's canonical sampler covers
_SAMPLER_LEVELS = 8


def tower_system(fam: HeightFamily) -> SystemHandle:
    """The rotation tower over a height family.

    The canonical sampler places ``res`` angles on the base circle and on
    levels 1..8; counting experiments pass their own level policy instead.
    """

    def pack(points: Sequence[TowerPoint], n: int, lo: int = 0,
             hi: int | None = None) -> np.ndarray:
        if isinstance(points, AngleLevelGrid):
            angles, levels = points.rows(lo, hi)
        else:
            points = points[lo:hi]
            angles = np.fromiter((p.angle for p in points), np.float64, len(points))
            levels = np.fromiter((p.level for p in points), np.int64, len(points))
        batch = np.empty(len(angles), [("angle", np.float64), ("height", np.float64)])
        batch["angle"], batch["height"] = angles, _heights_array(fam, levels)
        return batch

    return SystemHandle(
        name=f"tower-{fam.label}",
        metric=lambda p, q: tower_dist(p, q, fam),
        step=lambda p: tower_map(p, fam),
        inverse=lambda p: tower_inverse(p, fam),
        sampler=lambda res: tower_sample(res, range(0, _SAMPLER_LEVELS + 1)),
        pack=pack,
        candidates=_tower_candidates,
        evaluate=_tower_evaluate,
        heights=fam,
    )


def _key_join(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair of two key arrays whose keys are equal, each once.
    The longer array is stably sorted once, and each key of the other finds
    its run of equal keys by binary search (module docstring)."""
    s_is_a = len(a) >= len(b)
    s, q = (a, b) if s_is_a else (b, a)
    order = np.argsort(s, kind="stable")
    lo = np.searchsorted(s, q, "left", sorter=order)
    counts = np.searchsorted(s, q, "right", sorter=order) - lo
    si, qi = order[_run_positions(lo, counts)], np.repeat(np.arange(len(q)), counts)
    return (si, qi) if s_is_a else (qi, si)


def _windowed_rows(rule: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, width: int,
                   symbol: np.dtype) -> np.ndarray:
    """The packed rows [lo, lo + width) of a rule group of two or more
    points: one rule call over the merged runs of their windows, each row
    then read from a sliding view of the symbols (module docstring). The
    merged runs keep the least and the greatest index, so the rule refuses
    exactly what a call per row would."""
    starts = np.sort(lo)
    # a run breaks where a window starts past the end of the one before
    cut = np.flatnonzero(np.diff(starts) > width) + 1
    run_lo = starts[np.concatenate(([0], cut))]
    lengths = starts[np.concatenate((cut - 1, [-1]))] + width - run_lo
    base = np.cumsum(lengths) - lengths
    symbols = rule(_run_positions(run_lo, lengths)).astype(symbol)
    run = np.searchsorted(run_lo, lo, "right") - 1
    view = np.lib.stride_tricks.sliding_window_view(symbols, width)
    return view[lo - run_lo[run] + base[run]]


def _shift_dynamics(alphabet_size: int) -> dict[str, Callable]:
    """Shift map, coding metric and block kernel shared by the subshifts
    (module docstring)."""
    symbol = np.min_scalar_type(alphabet_size - 1)

    def pack(points: Sequence[SymbolicPoint], n: int, lo: int = 0,
             hi: int | None = None) -> np.ndarray:
        # a row holds the coding window [offset - 64, offset + n + 64) in
        # natural order, and the key field views its central n symbols as
        # one opaque byte string, so blocks compare and sort as one key. A
        # row past the budget is refused before any dtype is made: numpy
        # makes no dtype with a row of 2^31 symbols or more.
        w = _CODING_WINDOW
        width = n + 2 * w
        if width * symbol.itemsize > PACK_LIMIT:
            raise ValueError(f"a window of {n} packs {width * symbol.itemsize} bytes "
                             f"per point, beyond the limit of {PACK_LIMIT}")
        points = points[lo:hi]
        batch = np.empty(len(points), {
            "names": ["rows", "key"],
            "formats": [(symbol, (width,)), (np.void, n * symbol.itemsize)],
            "offsets": [0, w * symbol.itemsize]})
        groups: dict[Callable[[np.ndarray], np.ndarray], list[int]] = {}
        for i, p in enumerate(points):
            groups.setdefault(p.rule, []).append(i)
        for rule, members in groups.items():
            starts = np.array([points[i].offset - w for i in members], np.int64)
            if len(members) == 1:
                # a lone point (every full-shift sample point has its own
                # rule) reads its row's indices directly
                batch["rows"][members] = rule(starts[:, None] + np.arange(width))
            else:
                batch["rows"][members] = _windowed_rows(rule, starts, width, symbol)
        return batch

    def outward_scan(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray,
                     n: int) -> np.ndarray:
        # Bowen max over k in [0, n) of the coding metric = 2^-(distance from
        # the nearest differing coordinate to the index block [0, n-1]) for
        # pairs with equal central blocks; any other pair lies at distance 1.
        # The flanks are read outward, -1, n, -2, n + 1, ..., so the first
        # mismatch in column c lies at distance c // 2 + 1 from the block.
        w = _CODING_WINDOW
        diff = np.empty((len(i), w, 2), bool)
        np.not_equal(a["rows"][i, w - 1::-1], b["rows"][j, w - 1::-1], out=diff[:, :, 0])
        np.not_equal(a["rows"][i, w + n:], b["rows"][j, w + n:], out=diff[:, :, 1])
        diff = diff.reshape(len(i), 2 * w)
        hit = diff.any(axis=1)
        d = np.zeros(len(diff))
        d[hit] = 2.0 ** -(diff[hit].argmax(axis=1) // 2 + 1)
        return d

    def candidates(a: np.ndarray, b: np.ndarray, n: int,
                   cap: float) -> tuple[np.ndarray, np.ndarray]:
        if cap > 1.0:
            # pairs at distance 1 lie below cap too
            return _every_pair(a, b)
        if len(a) < 2 or len(b) < 2:
            # a single row (the greedy loop's queries) compares by
            # broadcasting, which sorts nothing and gathers no pair's key
            return np.nonzero(a["key"][:, None] == b["key"][None, :])
        return _key_join(a["key"], b["key"])

    def evaluate(a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray, n: int,
                 cap: float) -> tuple[np.ndarray, np.ndarray]:
        same = (a["key"][i] == b["key"][j]).nonzero()[0]
        if cap > 1.0:
            d = np.ones(len(i))
            d[same] = outward_scan(a, b, i[same], j[same], n)
            return np.arange(len(i)), d
        return same, outward_scan(a, b, i[same], j[same], n)

    return {
        "metric": shift_metric,
        "step": lambda x: x.shifted(1),
        "inverse": lambda x: x.shifted(-1),
        "pack": pack,
        "candidates": candidates,
        "evaluate": evaluate,
    }


def full_shift(alphabet_size: int = 2) -> SystemHandle:
    """Two-sided full shift on ``alphabet_size`` symbols."""
    if alphabet_size < 2:
        raise ValueError("alphabet must have at least 2 symbols")

    def sampler(res: int) -> list[SymbolicPoint]:
        # periodic points of the shortest period covering the resolution
        period = 1
        while alphabet_size ** period < res:
            period += 1
        return [periodic_point([code // alphabet_size ** k % alphabet_size
                                for k in range(period)])
                for code in range(min(alphabet_size ** period, res))]

    return SystemHandle(
        name=f"full-shift:{alphabet_size}",
        sampler=sampler,
        **_shift_dynamics(alphabet_size),
    )


def sturmian_system(alpha: float) -> SystemHandle:
    """Shift orbit of the mechanical word with slope alpha."""
    base = sturmian_point(alpha)

    return SystemHandle(
        name=f"sturmian:{alpha!r}",
        sampler=lambda res: [base.shifted(i) for i in range(res)],
        **_shift_dynamics(2),
        word_fn=lambda lo, hi: sturmian_generate(alpha, lo, hi),
        recurrence=_sturmian_recurrence(alpha),
    )


def _factor_rows(system: SystemHandle, sample: Sequence, n: int, k: np.ndarray) -> np.ndarray:
    """Rows k of a factor sample, packing only its rows k.min() to k.max()."""
    first = int(k.min(initial=len(sample)))
    return system.pack(sample, n, first, int(k.max(initial=0)) + 1)[k - first]


def product_system(a: SystemHandle, b: SystemHandle) -> SystemHandle:
    """Product with the max metric and the coordinatewise map, invertible
    when both factors are."""

    def pack(points: Sequence, n: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
        if isinstance(points, ProductSample):
            # each factor packs only the rows the run spans, once
            k = range(len(points))[lo:hi]
            q, r = np.divmod(np.arange(k.start, k.stop), len(points.sb))
            pa, pb = _factor_rows(a, points.sa, n, q), _factor_rows(b, points.sb, n, r)
        else:
            points = points[lo:hi]
            pa = a.pack([p[0] for p in points], n)
            pb = b.pack([p[1] for p in points], n)
        batch = np.empty(len(pa), [("a", pa.dtype), ("b", pb.dtype)])
        batch["a"], batch["b"] = pa, pb
        return batch

    # the tower lists, when there is one (module docstring); a tie keeps a first
    (f, lister), (s, other) = sorted((("a", a), ("b", b)), key=lambda p: p[1].heights is None)

    def evaluate(x: np.ndarray, y: np.ndarray, i: np.ndarray, j: np.ndarray, n: int,
                 cap: float) -> tuple[np.ndarray, np.ndarray]:
        # under the max metric a pair lies below cap iff it does in both
        # factors, so the lister's candidates hold it and both factors keep
        # it; a factor distance at or above cap is exact or a lower bound
        # >= cap, and so is their max
        live, d = lister.evaluate(x[f], y[f], i, j, n, cap)
        keep, d2 = other.evaluate(x[s], y[s], i[live], j[live], n, cap)
        return live[keep], np.maximum(d[keep], d2)

    return SystemHandle(
        name=f"product({a.name},{b.name})",
        metric=lambda p, q: max(a.metric(p[0], q[0]), b.metric(p[1], q[1])),
        step=lambda p: (a.step(p[0]), b.step(p[1])),
        inverse=None if a.inverse is None or b.inverse is None
        else lambda p: (a.inverse(p[0]), b.inverse(p[1])),
        sampler=lambda res: ProductSample(a.sampler(res), b.sampler(res)),
        pack=pack,
        candidates=lambda x, y, n, cap: lister.candidates(x[f], y[f], n, cap),
        evaluate=evaluate,
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
        if any(part.strip().startswith("product:") for part in parts):
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
