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
Each call packs its points once and uses the system's kernel when the
threshold it decides sits inside the kernel's exact range (``exact_cap``),
else the stepping reference :func:`bowen_dist`, which is always exact. The
routines ask the kernel for pair lists (``orbit_pairs``), never for dense
blocks: a pair that is not listed lies at or above the cap, and every
listed distance is compared with the routine's own threshold. The greedy
counter queries one row at a time, and only for rows still alive when
their turn comes. On the kernel path the covering audit scans in two
rungs: a pass capped just past eps/2 settles every point with a center
below eps/2, which on the closed-form witnesses is nearly every point,
and only the points left open get the pass capped just past eps. The
stepping reference runs in Python, so a routine that would take it on
more than ``systems.REFERENCE_PAIR_STEPS`` pair-steps is refused before
any work; the covering audit keeps a single pass on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from . import systems
from .systems import SystemHandle, _pairs_below

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


def _on_kernel(system: SystemHandle, threshold: float) -> bool:
    """Whether the system kernel decides d >= threshold correctly."""
    # A kernel is exact below exact_cap and reports >= exact_cap above it,
    # so it decides d >= t for every t <= exact_cap. Separation checks ask
    # d >= eps and pass eps; covering checks ask d <= eps, which is
    # "not d >= nextafter(eps)", and pass that. At eps == exact_cap a
    # distance just above eps may come back as exactly exact_cap and read as
    # covered, so covering then takes the reference path.
    return system.orbit_pairs is not None and threshold <= system.exact_cap


def _object_pack(points: Sequence, n: int) -> np.ndarray:
    return np.fromiter(points, dtype=object, count=len(points))


def _stepped(system: SystemHandle, pa: np.ndarray, pb: np.ndarray, n: int,
             stop_at: float | None = None) -> np.ndarray:
    out = np.empty((len(pa), len(pb)), dtype=np.float64)
    for i, p in enumerate(pa):
        for j, q in enumerate(pb):
            out[i, j] = bowen_dist(system, p, q, n, stop_at=stop_at)
    return out


def _distance_path(system: SystemHandle, threshold: float) -> tuple[Callable, Callable]:
    """A (pack, orbit_cdist) pair of exact dense distances: the system
    kernel if it decides d >= threshold, else object arrays stepped by
    :func:`bowen_dist`."""
    if _on_kernel(system, threshold):
        return system.pack, system.orbit_cdist
    return _object_pack, lambda pa, pb, n: _stepped(system, pa, pb, n)


def _pair_path(system: SystemHandle, threshold: float) -> tuple[Callable, Callable]:
    """A (pack, orbit_pairs) pair that decides d >= threshold correctly, on
    the path :func:`_distance_path` picks; the reference stops stepping a
    pair once it reaches the cap."""
    if _on_kernel(system, threshold):
        return system.pack, system.orbit_pairs
    return _object_pack, lambda pa, pb, n, cap: _pairs_below(
        _stepped(system, pa, pb, n, cap), cap)


def _check_reference_budget(system: SystemHandle, threshold: float, pairs: int,
                            n: int) -> None:
    """Refuse work that would step up to ``pairs`` pairs over window n by
    the reference, beyond ``systems.REFERENCE_PAIR_STEPS``."""
    if not _on_kernel(system, threshold) and pairs * n > systems.REFERENCE_PAIR_STEPS:
        raise ValueError(
            f"{system.name} at threshold {threshold!r} needs the stepping reference "
            f"on up to {pairs} pairs over window {n}, {pairs * n} pair-steps, beyond "
            f"the budget of {systems.REFERENCE_PAIR_STEPS}")


def bowen_block(system: SystemHandle, pa: Sequence, pb: Sequence, n: int,
                stop_at: float | None = None) -> np.ndarray:
    """Pairwise orbit distances between two point lists.

    ``stop_at`` is a threshold the caller merely compares against: it lets
    the system kernel serve, whose entries at or above ``exact_cap`` are
    certified lower bounds. Entries below ``stop_at`` are always exact, and
    without it every entry is.
    """
    pack, cdist = _distance_path(system, np.inf if stop_at is None else stop_at)
    return cdist(pack(pa, n), pack(pb, n), n)


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
    _check_reference_budget(system, eps, m * (m - 1) // 2, n)
    pack, pairs = _pair_path(system, eps)
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
    m = len(sample)
    # every round queries every candidate against the uncovered points
    _check_reference_budget(system, cap, m * m, n)
    pack, pairs = _pair_path(system, cap)
    packed = pack(sample, n)
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
                i, _, d = pairs(cand, unc_pts[clo:clo + chunk], n, cap)
                gains += np.bincount(i[d <= eps], minlength=len(cand))
            gi = int(np.argmax(gains))
            if int(gains[gi]) > best_gain:
                best_gain = int(gains[gi])
                best_i = lo + gi
        if best_i < 0:
            # an uncovered point failed to cover itself: metric is broken
            raise RuntimeError("covering made no progress; metric violates d(x,x)=0")
        chosen.append(sample[best_i])
        for clo in range(0, len(unc_pts), chunk):
            _, j, d = pairs(packed[best_i:best_i + 1], unc_pts[clo:clo + chunk], n, cap)
            uncovered[unc_idx[clo:clo + chunk][j[d <= eps]]] = False
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
    m = len(points)
    _check_reference_budget(system, eps, m * (m - 1) // 2, n)
    if m < 2:
        return SeparationCheck(True, True, n, eps, 0, np.inf, None)
    pack, pairs = _pair_path(system, eps)
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

    On the kernel path the centers are scanned in two rungs. The first asks
    for pairs below one ulp past eps/2 and settles every point with a
    listed distance below eps/2; only the points it leaves open are scanned
    again at one ulp past eps, which decides covered, boundary and missed.
    Why eps/2: ``spanning_witness`` spaces its centers less than eps apart
    on every level it covers, and two points of one level keep their
    step-0 arc distance for the whole window, so every sample point on
    those levels lies below eps/2 of a center and settles in the first
    rung. The kernel's height and angle bands scale with the cap, so that
    rung costs about a quarter of a full pass, and a point it leaves open
    about 1.25 passes. The stepping reference keeps a single pass at eps:
    it already stops each pair at its cap, and the reference budget counts
    one pass.
    """
    _check_scale(n, eps)
    # distances beyond eps never matter here, but the settled-vs-boundary
    # split needs values equal to eps reported exactly, hence the open cap
    cap = float(np.nextafter(eps, np.inf))
    _check_reference_budget(system, cap, len(centers) * len(sample), n)
    pack, pairs = _pair_path(system, cap)
    # each rung lists pairs below one ulp past its threshold t, so every
    # distance below t is listed exactly and one at or above t is never
    # taken for less than t
    rungs = (eps / 2, eps) if _on_kernel(system, cap) else (eps,)
    ctr = pack(centers, n)
    packed = pack(sample, n)
    m = len(packed)
    uncovered_count = 0
    boundary_count = 0
    first_uncovered: int | None = None
    for lo in range(0, m, chunk):
        rows = packed[lo:lo + chunk]
        open_idx = np.arange(len(rows))
        for t in rungs:
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
