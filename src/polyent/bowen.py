"""Bowen orbit distances and finite (n, eps) counting.

The orbit distance over a window of length n is the max of the plain metric
along the first n iterates (steps 0 through n-1). On top of it sit:

* greedy separated-set extraction (a maximal family with pairwise orbit
  distance >= eps, hence a lower bound on the separation number);
* verifiers for externally constructed witness sets, which also report
  whether the strict form of each inequality held.

All bulk routines are chunked so no full pairwise matrix is materialized.
Each call packs points with the system's ``pack`` and asks its kernel for
pair lists (``orbit_pairs``), never for dense blocks: a pair that is not
listed lies at or above the cap, and every listed distance is compared
with the routine's own threshold. Every built-in kernel is exact at every
threshold. The greedy counter and the covering audit pack their sample one
block of ``chunk`` rows at a time, and keep packed only what later blocks
read: the greedy counter its kept rows in sample order, the audit each
block's still-open rows with their indices. Their working memory thus
grows with the kept or open rows, not with the sample; the separation
audit, which needs every pair, packs its family whole. The greedy
counter queries one row at a time, and only for rows still alive when
their turn comes: the rows still to query sit in an index list that drops
the rows each query kills. The counter returns a keep mask
(:func:`greedy_separated_mask`), so no point is built only to be counted.
The covering audit first tries each block of sample rows against the
block's own covering centers: a narrow scan of all centers, capped just
past eps/32, names the centers the block comes near, and a scan of those
centers alone settles the block's points below eps/2. Only the points
still open then go through two rungs over all centers, capped just past
eps/2 and eps: the first settles the points with a center below eps/2,
and only the points it leaves open go on to the second. A scan costs
about the square of its cap, so the narrow scan is cheap, and
neighbouring sample points share their covering centers, so the scan of
those few centers takes most points before any wide rung runs. Each rung
runs over every open point before the next starts.
No routine here calls the two test helpers: :func:`bowen_dist` steps
both points of a pair explicitly, the oracle the kernels are tested
against, and :func:`bowen_block`, the one dense view, writes the uncapped
pair list into an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .systems import SystemHandle

__all__ = [
    "bowen_dist",
    "bowen_block",
    "CountRecord",
    "BOUND_SEPARATED_LOWER",
    "BOUND_SPANNING_UPPER",
    "BOUND_EXACT",
    "greedy_separated_mask",
    "SeparationCheck",
    "SpanningCheck",
    "verify_separated",
    "verify_spanning",
]

DEFAULT_CHUNK = 2048

BOUND_SEPARATED_LOWER = "separated-lower-bound"
BOUND_SPANNING_UPPER = "spanning-upper-bound"
BOUND_EXACT = "exact"


def bowen_dist(system: SystemHandle, x: Any, y: Any, n: int) -> float:
    """Reference orbit distance: max metric over iterates 0..n-1.

    Steps both points explicitly, ignoring any fast kernel; this is the
    ground truth the kernels are tested against.
    """
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    best = 0.0
    cx, cy = x, y
    for k in range(n):
        if k:
            cx = system.step(cx)
            cy = system.step(cy)
        best = max(best, system.metric(cx, cy))
    return best


def _check_scale(n: int, eps: float) -> None:
    if not eps > 0.0:
        raise ValueError(f"scale must be positive, got {eps}")
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")


def bowen_block(system: SystemHandle, pa: Sequence, pb: Sequence, n: int) -> np.ndarray:
    """Exact pairwise orbit distances between two point lists, as a dense
    array: the kernel's uncapped pair list written into a block prefilled
    with NaN, so a pair the kernel fails to list reads NaN."""
    i, j, d = system.orbit_pairs(system.pack(pa, n), system.pack(pb, n), n, np.inf)
    out = np.full((len(pa), len(pb)), np.nan)
    out[i, j] = d
    return out


@dataclass(frozen=True, slots=True)
class CountRecord:
    """One measurement: window length, scale, count, and what the count means.

    ``bound`` is one of the module constants: a separated family certifies a
    lower bound on the separation number, a covering family an upper bound on
    the spanning number of its sample, and closed-form or exhaustive counts
    are exact.
    """

    n: int
    eps: float
    count: int
    method: str
    bound: str

    def __post_init__(self) -> None:
        _check_scale(self.n, self.eps)
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")


# ---------------------------------------------------------------------------
# greedy families

def greedy_separated_mask(system: SystemHandle, sample: Sequence, n: int, eps: float,
                          chunk: int = DEFAULT_CHUNK) -> np.ndarray:
    """Keep mask of the maximal eps-separated subfamily, greedily in sample
    order.

    A point is kept iff its orbit distance to every earlier kept point is
    >= eps; every rejected point therefore sits within eps of some kept one,
    so the kept points both certify a separation lower bound and cover the
    sample. The chunked evaluation reproduces the sequential rule exactly.
    """
    _check_scale(n, eps)
    m = len(sample)
    pairs = system.orbit_pairs
    keep = np.ones(m, dtype=bool)
    # the kept rows of the blocks before, in sample order: the only packed
    # rows a later block reads
    kept = system.pack([], n)
    for lo in range(0, m, chunk):
        rows = system.pack(sample, n, lo, lo + chunk)
        alive = keep[lo:lo + chunk]
        for clo in range(0, len(kept), chunk):
            i, _, d = pairs(rows, kept[clo:clo + chunk], n, eps)
            alive[i[d < eps]] = False
        # one row query per survivor: a chunk-wide conflict list would
        # mostly hold pairs among rows the sequential rule kills anyway.
        # The survivors still to query shrink after every query, and the
        # last one has no later row left to kill.
        todo = np.flatnonzero(alive)
        while todo.size > 1:
            i = todo[0]
            _, j, d = pairs(rows[i:i + 1], rows[i + 1:], n, eps)
            alive[i + 1 + j[d < eps]] = False
            todo = todo[1:]
            todo = todo[alive[todo]]
        kept = np.concatenate((kept, rows[alive]))
    return keep


# ---------------------------------------------------------------------------
# witness verification

@dataclass(frozen=True, slots=True)
class SeparationCheck:
    """Outcome of an all-pairs separation audit.

    ``ok`` certifies the non-strict inequality (every pair >= eps);
    ``all_strict`` additionally reports whether every pair exceeded eps,
    since the analytic constructions promise the strict form.
    """

    ok: bool
    all_strict: bool
    n: int
    eps: float
    pairs: int
    min_value: float
    min_pair: tuple[int, int] | None


@dataclass(frozen=True, slots=True)
class SpanningCheck:
    """Outcome of a covering audit of sample points by a center family.

    ``ok`` means every sample point is within eps of some center (closed
    balls); ``all_strict`` reports whether a strictly closer center existed
    for every point.
    """

    ok: bool
    all_strict: bool
    n: int
    eps: float
    sample_size: int
    centers: int
    uncovered_count: int
    first_uncovered: int | None


def verify_separated(system: SystemHandle, points: Sequence, n: int, eps: float,
                     chunk: int = DEFAULT_CHUNK) -> SeparationCheck:
    """Audit that every pair of ``points`` has orbit distance >= eps.

    Reports the minimum distance and the first pair in chunk order that
    attains it, both exactly as an uncapped scan finds them, and whether
    strict separation held everywhere. Other pairs are only settled as
    lying at or above the running minimum: each block is capped at it.
    """
    _check_scale(n, eps)
    m = len(points)
    if m < 2:
        return SeparationCheck(True, True, n, eps, 0, np.inf, None)
    pairs = system.orbit_pairs
    pts = system.pack(points, n)
    # Pair (0, 1) comes first in chunk order, so its distance starts the
    # running minimum. Each block is capped at it: every pair below it is
    # listed exactly, and a pair at or above it cannot lower it. Nothing
    # lies below 0, and a cap of 0 would send the tower kernel to its dense
    # every-pair path, so the scan stops there.
    min_value = float(pairs(pts[0:1], pts[1:2], n, np.inf)[2][0])
    min_pair = (0, 1)
    blocks = ((lo, clo) for lo in range(0, m, chunk) for clo in range(lo, m, chunk))
    for lo, clo in blocks:
        if min_value == 0.0:
            break
        cols = min(chunk, m - clo)
        i, j, d = pairs(pts[lo:lo + chunk], pts[clo:clo + chunk], n, min_value)
        if clo == lo:
            # keep the strictly upper triangle of the global matrix
            upper = i < j
            i, j, d = i[upper], j[upper], d[upper]
        value = d.min(initial=min_value)
        if value < min_value:
            # the first pair attaining it in row-major block order, as a
            # dense argmin would find it
            first = int((i * cols + j)[d == value].min())
            min_value = float(value)
            min_pair = (lo + first // cols, clo + first % cols)
    return SeparationCheck(
        ok=min_value >= eps,
        all_strict=min_value > eps,
        n=n,
        eps=eps,
        pairs=m * (m - 1) // 2,
        min_value=min_value,
        min_pair=min_pair,
    )


def _nearest(pairs: Callable, rows: np.ndarray, ctr: np.ndarray, n: int, t: float,
             chunk: int, step: int, hits: list | None = None) -> np.ndarray:
    """Least listed distance from each row to the centers, in blocks of
    ``step`` rows, each scanned against blocks of ``chunk`` centers capped
    one ulp past t; a row leaves the scan once it reads below t. ``hits``
    collects the centers listed below t."""
    # every distance below t is listed exactly, and one at or above t is
    # never taken for less than t; at t = eps the open cap also reports
    # distances equal to eps exactly, for the settled-vs-boundary split
    cap = float(np.nextafter(t, np.inf))
    near = np.full(len(rows), np.inf)
    for lo in range(0, len(rows), step):
        live = np.arange(lo, min(lo + step, len(rows)))
        for clo in range(0, len(ctr), chunk):
            if live.size == 0:
                break
            i, j, d = pairs(rows[live], ctr[clo:clo + chunk], n, cap)
            np.minimum.at(near, live[i], d)
            if hits is not None:
                hits.append(clo + j[d < t])
            live = live[~(near[live] < t)]
            # a block's pair list must not outlive it into the next call
            del i, j, d
    return near


def verify_spanning(system: SystemHandle, centers: Sequence, sample: Sequence,
                    n: int, eps: float,
                    chunk: int = DEFAULT_CHUNK) -> SpanningCheck:
    """Audit that every sample point is within eps of some center.

    A sample point leaves the scan as soon as a strictly closer center is
    found, so cost stays near one center pass when the cover is comfortable;
    points covered only at exactly eps are flagged via ``all_strict``.

    A prefix first meets each block of ``chunk`` sample rows, in sample
    order, with the block's own covering centers, in two kernel calls. A
    narrow call over all centers, capped one ulp past eps/32, settles the
    rows it lists below eps/32, and the centers it lists below eps/32
    become the block's covering centers. A call over those centers alone,
    capped one ulp past eps/2, settles the block's open rows below eps/2.
    Why: ``spanning_witness`` spaces its centers less than eps apart on
    every level it covers, and two points of one level keep their step-0
    arc distance for the whole window, so every sample point on those
    levels lies below eps/2 of a center of its own level, and neighbouring
    sample points share those centers. A call's cost grows with the square
    of its cap, because the kernel's height band and angle window both
    scale with it: the narrow call costs about 1/256 of a scan of all
    centers capped at eps/2, and where sample order has no locality the
    prefix settles little for about that cost.

    The points the prefix leaves open are scanned against all centers in
    two rungs, with thresholds eps/2 and eps. Each rung asks for pairs
    below one ulp past its threshold t and settles every point with a
    listed distance below t; only the points the first leaves open are
    scanned again in the second, which decides covered, boundary and
    missed. A call settles a row only on a distance it lists below its own
    threshold, never on a listed lower bound. Each rung runs over every
    point still open before the next starts, in blocks of ``chunk``/2 rows
    on the first rung and ``chunk``/4 on the second: doubling the cap about
    quadruples a row's candidate pairs, and smaller blocks bound the
    temporaries of the wide rungs. The midpoints between two centers of a
    level sit exactly at eps/2, so they reach the last rung.
    """
    _check_scale(n, eps)
    pairs = system.orbit_pairs
    ctr = system.pack(centers, n)
    m = len(sample)
    # the prefix (docstring), one block of sample rows packed at a time; a
    # block keeps packed only the rows it leaves open, with their indices
    kept, packed = [np.arange(0)], [system.pack([], n)]
    for lo in range(0, m, chunk):
        rows = system.pack(sample, n, lo, lo + chunk)
        hits: list[np.ndarray] = []
        near = _nearest(pairs, rows, ctr, n, eps / 32, chunk, chunk, hits)
        left = np.flatnonzero(~(near < eps / 32))
        if left.size and hits:
            idx = np.sort(np.concatenate(hits))  # np.unique would import numpy.ma
            cover = ctr[idx[np.diff(idx, prepend=-1) > 0]]
            near = _nearest(pairs, rows[left], cover, n, eps / 2, chunk, chunk)
            left = left[~(near < eps / 2)]
        kept.append(lo + left)
        packed.append(rows[left])
    open_idx, packed = np.concatenate(kept), np.concatenate(packed)
    # the ladder over all centers for the points the prefix leaves open
    for k, t in enumerate((eps / 2, eps), start=1):
        # a row's candidate pairs grow with the square of the cap, so the
        # rungs take chunk/2 and chunk/4 rows per block, which bounds the
        # block temporaries (docstring)
        near = _nearest(pairs, packed, ctr, n, t, chunk, max(1, chunk >> k))
        left = ~(near < t)
        open_idx, packed, near = open_idx[left], packed[left], near[left]
    # every point still open reads eps exactly (boundary) or beyond (missed)
    misses = open_idx[near > eps]
    return SpanningCheck(
        ok=misses.size == 0,
        all_strict=open_idx.size == 0,
        n=n,
        eps=eps,
        sample_size=m,
        centers=len(ctr),
        uncovered_count=int(misses.size),
        first_uncovered=int(misses[0]) if misses.size else None,
    )
