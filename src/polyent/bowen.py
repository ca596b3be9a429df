"""Bowen orbit distances and finite (n, eps) counting.

The orbit distance over a window of length n is the max of the plain metric
along the first n iterates (steps 0 through n-1). On top of it sit:

* greedy separated-set extraction (a maximal family with pairwise orbit
  distance >= eps, hence a lower bound on the separation number);
* greedy covering (an upper bound on the spanning number of the sample);
* verifiers for externally constructed witness sets, which also report
  whether the strict form of each inequality held;
* an exact maximum-separated-set search for tiny samples, used to audit the
  greedy lower-bound quality in tests.

All bulk routines are chunked so no full pairwise matrix is materialized.
Each call packs its points once and uses the system's block kernel when the
threshold it decides sits inside the kernel's exact range (``exact_cap``),
else the stepping reference :func:`bowen_dist`, which is always exact.
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
    "greedy_spanning",
    "SeparationCheck",
    "SpanningCheck",
    "verify_separated",
    "verify_spanning",
    "max_separated_exact",
]

DEFAULT_CHUNK = 2048

BOUND_SEPARATED_LOWER = "separated-lower-bound"
BOUND_SPANNING_UPPER = "spanning-upper-bound"
BOUND_EXACT = "exact"


def bowen_dist(system: SystemHandle, x: Any, y: Any, n: int,
               stop_at: float | None = None) -> float:
    """Reference orbit distance: max metric over iterates 0..n-1.

    Steps both points explicitly, ignoring any fast kernel; this is the
    ground truth the kernels are tested against. With ``stop_at`` the loop
    exits once the running max reaches it, returning that partial max (a
    lower bound on the full value, sufficient for threshold decisions).
    """
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")
    best = 0.0
    cx, cy = x, y
    for k in range(n):
        if k:
            cx = system.step(cx)
            cy = system.step(cy)
        d = system.metric(cx, cy)
        if d > best:
            best = d
            if stop_at is not None and best >= stop_at:
                break
    return best


def _check_scale(n: int, eps: float) -> None:
    if eps <= 0.0:
        raise ValueError(f"scale must be positive, got {eps}")
    if n < 1:
        raise ValueError(f"window must be >= 1, got {n}")


def _distance_path(system: SystemHandle, threshold: float) -> tuple[Callable, Callable]:
    """A (pack, orbit_cdist) pair that decides d >= threshold correctly:
    the system kernel, or object arrays stepped by :func:`bowen_dist`."""
    # A kernel is exact below exact_cap and reports >= exact_cap above it,
    # so it decides d >= t for every t <= exact_cap. Separation checks ask
    # d >= eps and pass eps; covering checks ask d <= eps, which is
    # "not d >= nextafter(eps)", and pass that. At eps == exact_cap a
    # distance just above eps may come back as exactly exact_cap and read as
    # covered, so covering then takes the reference path.
    if system.orbit_cdist is not None and threshold <= system.exact_cap:
        return system.pack, system.orbit_cdist

    def pack(points: Sequence, n: int) -> np.ndarray:
        return np.fromiter(points, dtype=object, count=len(points))

    def block(pa: np.ndarray, pb: np.ndarray, n: int,
              cap: float | None = None) -> np.ndarray:
        out = np.empty((len(pa), len(pb)), dtype=np.float64)
        for i, p in enumerate(pa):
            for j, q in enumerate(pb):
                out[i, j] = bowen_dist(system, p, q, n, stop_at=cap)
        return out

    return pack, block


def bowen_block(system: SystemHandle, pa: Sequence, pb: Sequence, n: int,
                stop_at: float | None = None) -> np.ndarray:
    """Pairwise orbit distances between two point lists.

    ``stop_at`` is a shortcut threshold: entries reported below it are
    exact, entries at or above it may be partial maxima or kernel lower
    bounds, so pass it only when the caller merely compares against that
    same threshold. Without it every entry is exact.
    """
    pack, block = _distance_path(system, np.inf if stop_at is None else stop_at)
    return block(pack(pa, n), pack(pb, n), n, stop_at)


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
    pack, block = _distance_path(system, eps)
    packed = pack(sample, n)
    keep = np.ones(len(packed), dtype=bool)
    for lo in range(0, len(packed), chunk):
        rows = packed[lo:lo + chunk]
        alive = keep[lo:lo + chunk]
        kept = packed[:lo][keep[:lo]]
        if len(kept):
            mins = np.full(len(rows), np.inf)
            for clo in range(0, len(kept), chunk):
                d = block(rows, kept[clo:clo + chunk], n, eps)
                np.minimum(mins, d.min(axis=1), out=mins)
            alive &= mins >= eps
        for i in range(len(rows)):
            if not alive[i]:
                continue
            rest = alive[i + 1:]
            if rest.any():
                rest &= block(rows[i:i + 1], rows[i + 1:], n, eps)[0] >= eps
    return [sample[i] for i in np.flatnonzero(keep)]


def greedy_spanning(system: SystemHandle, sample: Sequence, n: int, eps: float,
                    chunk: int = DEFAULT_CHUNK) -> list:
    """A covering subfamily of the sample, largest-gain-first.

    Each round picks the sample point whose closed orbit eps-ball covers the
    most still-uncovered sample points (first index winning ties) until all
    are covered. The result size is an upper bound on the minimal cover of
    the sample at this scale.
    """
    _check_scale(n, eps)
    # coverage tests only compare against eps; values equal to eps count as
    # covered, so the cap sits one ulp above to keep those entries exact
    cap = float(np.nextafter(eps, np.inf))
    pack, block = _distance_path(system, cap)
    packed = pack(sample, n)
    m = len(packed)
    uncovered = np.ones(m, dtype=bool)
    chosen: list = []
    while uncovered.any():
        unc_idx = np.nonzero(uncovered)[0]
        unc_pts = packed[unc_idx]
        best_i = -1
        best_gain = 0
        for lo in range(0, m, chunk):
            cand = packed[lo:lo + chunk]
            gains = np.zeros(len(cand), dtype=np.int64)
            for clo in range(0, len(unc_pts), chunk):
                d = block(cand, unc_pts[clo:clo + chunk], n, cap)
                gains += (d <= eps).sum(axis=1)
            gi = int(np.argmax(gains))
            if int(gains[gi]) > best_gain:
                best_gain = int(gains[gi])
                best_i = lo + gi
        if best_i < 0:
            # an uncovered point failed to cover itself: metric is broken
            raise RuntimeError("covering made no progress; metric violates d(x,x)=0")
        chosen.append(sample[best_i])
        for clo in range(0, len(unc_pts), chunk):
            d = block(packed[best_i:best_i + 1], unc_pts[clo:clo + chunk], n, cap)[0]
            uncovered[unc_idx[clo:clo + chunk][d <= eps]] = False
    return chosen


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
    pack, block = _distance_path(system, eps)
    pts = pack(points, n)
    m = len(pts)
    if m < 2:
        return SeparationCheck(True, True, n, eps, 0, np.inf, None)
    # Capping one ulp above the running minimum keeps every entry at or
    # below it exact and reads every other entry strictly above it, so
    # neither the block argmin nor the update below can change. Before any
    # minimum exists, the distance of pair (0, 1), which the first block
    # holding any pair contains, serves as the running minimum.
    seed = float(block(pts[0:1], pts[1:2], n)[0, 0])
    min_value = np.inf
    min_pair: tuple[int, int] | None = None
    for lo in range(0, m, chunk):
        rows = pts[lo:lo + chunk]
        for clo in range(lo, m, chunk):
            cap = float(np.nextafter(min(min_value, seed), np.inf))
            d = block(rows, pts[clo:clo + chunk], n, cap)
            if clo == lo:
                # keep strictly-upper-triangular entries of the global
                # matrix, in place in the block's own array
                np.copyto(d, np.inf, where=np.tri(*d.shape, dtype=bool))
            i, j = divmod(int(np.argmin(d)), d.shape[1])
            value = float(d[i, j])
            # drop the block before the next one is built, so only one is
            # alive at a time
            del d
            if value < min_value:
                min_value = value
                min_pair = (lo + i, clo + j)
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
    """
    _check_scale(n, eps)
    # distances beyond eps never matter here, but the settled-vs-boundary
    # split needs values equal to eps reported exactly, hence the open cap
    cap = float(np.nextafter(eps, np.inf))
    pack, block = _distance_path(system, cap)
    ctr = pack(centers, n)
    packed = pack(sample, n)
    m = len(packed)
    uncovered_count = 0
    boundary_count = 0
    first_uncovered: int | None = None
    for lo in range(0, m, chunk):
        rows = packed[lo:lo + chunk]
        open_idx = np.arange(len(rows))
        open_min = np.full(len(rows), np.inf)
        for clo in range(0, len(ctr), chunk):
            if open_idx.size == 0:
                break
            d = block(rows[open_idx], ctr[clo:clo + chunk], n, cap)
            np.minimum(open_min, d.min(axis=1), out=open_min)
            settled = open_min < eps
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


def max_separated_exact(system: SystemHandle, points: Sequence, n: int,
                        eps: float, limit: int = 20) -> int:
    """Exact maximum size of an eps-separated subfamily (tiny inputs only).

    Branch and bound over the separation graph; cost is exponential, hence
    the hard ``limit``. Serves as the quality oracle for the greedy bound.
    """
    m = len(points)
    if m > limit:
        raise ValueError(f"exact search limited to {limit} points, got {m}")
    if m == 0:
        return 0
    d = bowen_block(system, points, points, n, stop_at=eps)
    adj = d >= eps
    np.fill_diagonal(adj, False)

    best = 0

    def grow(chosen: int, candidates: list[int]) -> None:
        nonlocal best
        if chosen + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, chosen)
            return
        head, *rest = candidates
        grow(chosen + 1, [j for j in rest if adj[head, j]])
        grow(chosen, rest)

    grow(0, list(range(m)))
    return best
