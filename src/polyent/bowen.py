"""Bowen orbit distances and finite (n, eps) counting.

The orbit distance over a window of length n is the max of the plain metric
along the first n iterates (steps 0 through n-1). On top of it sit:

* greedy separated-set extraction (a maximal family with pairwise orbit
  distance >= eps, hence a lower bound on the separation number);
* verifiers for externally constructed witness sets, which also report
  whether the strict form of each inequality held.

All bulk routines are chunked so no full pairwise matrix is materialized.
Each call packs its points once with the system's ``pack`` and asks its
kernel for pair lists (``orbit_pairs``), never for dense blocks: a pair
that is not listed lies at or above the cap, and every listed distance is
compared with the routine's own threshold. Every built-in kernel is exact
at every threshold, and a handle without a kernel is refused. The greedy
counter queries one row at a time, and only for rows still alive when
their turn comes. The covering audit scans in two rungs: a pass capped
just past eps/2 settles every point with a center below eps/2, which on
the closed-form witnesses is nearly every point, and only the points left
open get the pass capped just past eps. No routine here calls the two test
helpers: :func:`bowen_dist` steps both points of a pair explicitly, the
oracle the kernels are tested against, and :func:`bowen_block`, the one
dense view, writes the uncapped pair list into an array.
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
    "greedy_separated",
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
    if eps <= 0.0:
        raise ValueError(f"scale must be positive, got {eps}")
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")


def _kernel(system: SystemHandle) -> tuple[Callable, Callable]:
    """The system's ``pack`` and ``orbit_pairs``; refuses a handle without
    a kernel."""
    if system.orbit_pairs is None:
        raise ValueError(f"{system.name} has no distance kernel")
    return system.pack, system.orbit_pairs


def bowen_block(system: SystemHandle, pa: Sequence, pb: Sequence, n: int) -> np.ndarray:
    """Exact pairwise orbit distances between two point lists, as a dense
    array: the kernel's uncapped pair list written into a block prefilled
    with NaN, so a pair the kernel fails to list reads NaN."""
    pack, pairs = _kernel(system)
    i, j, d = pairs(pack(pa, n), pack(pb, n), n, np.inf)
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
        if self.n < 1:
            raise ValueError(f"window must be >= 1, got {self.n}")
        if not self.eps > 0.0:
            raise ValueError(f"scale must be positive, got {self.eps}")
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")


# ---------------------------------------------------------------------------
# greedy families

def greedy_separated(system: SystemHandle, sample: Sequence, n: int, eps: float,
                     chunk: int = DEFAULT_CHUNK) -> list:
    """A maximal eps-separated subfamily, greedily in sample order.

    A point is kept iff its orbit distance to every earlier kept point is
    >= eps; every rejected point therefore sits within eps of some kept one,
    so the result both certifies a separation lower bound and covers the
    sample. The chunked evaluation reproduces the sequential rule exactly.
    """
    _check_scale(n, eps)
    m = len(sample)
    pack, pairs = _kernel(system)
    packed = pack(sample, n)
    keep = np.ones(m, dtype=bool)
    for lo in range(0, m, chunk):
        rows = packed[lo:lo + chunk]
        alive = keep[lo:lo + chunk]
        kept = packed[:lo][keep[:lo]]
        for clo in range(0, len(kept), chunk):
            i, _, d = pairs(rows, kept[clo:clo + chunk], n, eps)
            alive[i[d < eps]] = False
        # one row query per survivor: a chunk-wide conflict list would
        # mostly hold pairs among rows the sequential rule kills anyway
        for i in np.flatnonzero(alive).tolist():
            if not alive[i]:
                continue
            rest = alive[i + 1:]
            if rest.any():
                _, j, d = pairs(rows[i:i + 1], rows[i + 1:], n, eps)
                rest[j[d < eps]] = False
    return [sample[i] for i in np.flatnonzero(keep)]


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

    def __str__(self) -> str:
        if self.ok:
            verdict = "ok (strict)" if self.all_strict else "ok (tight pair)"
        else:
            verdict = f"violated at pair {self.min_pair}"
        return (f"separation >= {self.eps!r} over {self.pairs} pairs: "
                f"{verdict}, min {self.min_value!r}")


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

    def __str__(self) -> str:
        if self.ok:
            verdict = "ok (strict)" if self.all_strict else "ok (boundary hit)"
        else:
            verdict = (f"{self.uncovered_count} uncovered, first at sample "
                       f"index {self.first_uncovered}")
        return (f"covering <= {self.eps!r} of {self.sample_size} points by "
                f"{self.centers} centers: {verdict}")


def verify_separated(system: SystemHandle, points: Sequence, n: int, eps: float,
                     chunk: int = DEFAULT_CHUNK) -> SeparationCheck:
    """Audit that every pair of ``points`` has orbit distance >= eps.

    Reports the minimum distance and the first pair in chunk order that
    attains it, both exactly as an uncapped scan finds them, and whether
    strict separation held everywhere. Other pairs are only settled as
    lying above the running minimum: each block is capped one ulp above it.
    """
    _check_scale(n, eps)
    m = len(points)
    pack, pairs = _kernel(system)
    if m < 2:
        return SeparationCheck(True, True, n, eps, 0, np.inf, None)
    pts = pack(points, n)
    # Capping one ulp above the running minimum lists every pair at or
    # below it with its exact distance, and every unlisted pair lies
    # strictly above it, so neither the block minimum nor the update below
    # can change. Before any minimum exists, the distance of pair (0, 1),
    # which the first block holding any pair contains, serves as the
    # running minimum.
    seed = float(pairs(pts[0:1], pts[1:2], n, np.inf)[2][0])
    min_value = np.inf
    min_pair: tuple[int, int] | None = None
    for lo in range(0, m, chunk):
        rows = pts[lo:lo + chunk]
        for clo in range(lo, m, chunk):
            cap = float(np.nextafter(min(min_value, seed), np.inf))
            block = pts[clo:clo + chunk]
            cols = len(block)
            i, j, d = pairs(rows, block, n, cap)
            if clo == lo:
                # keep the strictly upper triangle of the global matrix
                upper = i < j
                i, j, d = i[upper], j[upper], d[upper]
            if d.size == 0:
                continue
            value = d.min()
            if value < min_value:
                # the first pair attaining it in row-major block order, as
                # a dense argmin would find it
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


def verify_spanning(system: SystemHandle, centers: Sequence, sample: Sequence,
                    n: int, eps: float,
                    chunk: int = DEFAULT_CHUNK) -> SpanningCheck:
    """Audit that every sample point is within eps of some center.

    A sample point leaves the scan as soon as a strictly closer center is
    found, so cost stays near one center pass when the cover is comfortable;
    points covered only at exactly eps are flagged via ``all_strict``.

    The centers are scanned in two rungs. The first asks for pairs below
    one ulp past eps/2 and settles every point with a
    listed distance below eps/2; only the points it leaves open are scanned
    again at one ulp past eps, which decides covered, boundary and missed.
    Why eps/2: ``spanning_witness`` spaces its centers less than eps apart
    on every level it covers, and two points of one level keep their
    step-0 arc distance for the whole window, so every sample point on
    those levels lies below eps/2 of a center and settles in the first
    rung. The kernel's height and angle bands scale with the cap, so that
    rung costs about a quarter of a full pass, and a point it leaves open
    about 1.25 passes.
    """
    _check_scale(n, eps)
    pack, pairs = _kernel(system)
    ctr = pack(centers, n)
    packed = pack(sample, n)
    m = len(packed)
    uncovered_count = 0
    boundary_count = 0
    first_uncovered: int | None = None
    for lo in range(0, m, chunk):
        rows = packed[lo:lo + chunk]
        open_idx = np.arange(len(rows))
        # each rung lists pairs below one ulp past its threshold t, so every
        # distance below t is listed exactly and one at or above t is never
        # taken for less than t; the last rung's open cap also reports
        # distances equal to eps exactly, for the settled-vs-boundary split
        for t in (eps / 2, eps):
            rung_cap = float(np.nextafter(t, np.inf))
            open_min = np.full(open_idx.size, np.inf)
            for clo in range(0, len(ctr), chunk):
                if open_idx.size == 0:
                    break
                i, _, d = pairs(rows[open_idx], ctr[clo:clo + chunk], n, rung_cap)
                np.minimum.at(open_min, i, d)
                settled = open_min < t
                open_idx = open_idx[~settled]
                open_min = open_min[~settled]
        if open_idx.size:
            weak = open_min <= eps
            boundary_count += int(weak.sum())
            misses = open_idx[~weak]
            if misses.size:
                uncovered_count += int(misses.size)
                if first_uncovered is None:
                    first_uncovered = lo + int(misses[0])
    return SpanningCheck(
        ok=uncovered_count == 0,
        all_strict=uncovered_count == 0 and boundary_count == 0,
        n=n,
        eps=eps,
        sample_size=m,
        centers=len(ctr),
        uncovered_count=uncovered_count,
        first_uncovered=first_uncovered,
    )
