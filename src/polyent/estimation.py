"""Count tables and growth-exponent estimation.

A count table is a list of :class:`~polyent.bowen.CountRecord` over a grid
of window lengths and scales, produced by one of four methods: the greedy
separated counter on a sampled system, the two closed-form witness sizes for
towers, or exact block counting for symbolic systems. Slope fits then
regress log(count) on log(n) (polynomial regime; ``fit_exp_rate`` regresses
on n instead) over a tail of the window grid, and a scale sweep assembles
per-eps polynomial fits with a max-over-grid headline standing in for the
vanishing-scale limit.

Fits are computed with an explicit centered least-squares formula in fixed
summation order; no BLAS-backed solver is involved, so results are
bit-identical across thread counts.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from . import systems
from .bowen import (
    BOUND_EXACT,
    BOUND_SEPARATED_LOWER,
    BOUND_SPANNING_UPPER,
    CountRecord,
    greedy_separated_mask,
)
from .constructions import (
    drift_cutoff,
    floor_reciprocal,
    separation_depth,
    separation_levels,
)
from .diagnostics import word_complexities
from .systems import AngleLevelGrid, PowerHeights, SystemHandle, tower_sample, word_window

__all__ = [
    "METHOD_GREEDY_SEPARATED",
    "METHOD_ANALYTIC_SPANNING",
    "METHOD_ANALYTIC_SEPARATED",
    "METHOD_SYMBOLIC_EXACT",
    "COUNT_METHODS",
    "analytic_methods",
    "count_table",
    "SlopeFit",
    "fit_poly_slope",
    "fit_exp_rate",
    "EntropyEstimate",
    "eps_sweep",
]

METHOD_GREEDY_SEPARATED = "greedy-separated"
METHOD_ANALYTIC_SPANNING = "analytic-spanning"
METHOD_ANALYTIC_SEPARATED = "analytic-separated"
METHOD_SYMBOLIC_EXACT = "symbolic-exact"

COUNT_METHODS = (
    METHOD_GREEDY_SEPARATED,
    METHOD_ANALYTIC_SPANNING,
    METHOD_ANALYTIC_SEPARATED,
    METHOD_SYMBOLIC_EXACT,
)

_BOUND_OF = {
    METHOD_GREEDY_SEPARATED: BOUND_SEPARATED_LOWER,
    METHOD_ANALYTIC_SPANNING: BOUND_SPANNING_UPPER,
    METHOD_ANALYTIC_SEPARATED: BOUND_SEPARATED_LOWER,
    METHOD_SYMBOLIC_EXACT: BOUND_EXACT,
}


# ---------------------------------------------------------------------------
# per-cell counts

def _factor_heights(system: SystemHandle) -> list:
    if system.parts is None:
        return [system.heights]
    return [h for part in system.parts for h in _factor_heights(part)]


def analytic_methods(system: SystemHandle) -> tuple[str, ...]:
    """Closed-form methods for the system; counts multiply over products, so
    covering needs heights on every factor, separation power-law heights."""
    heights = _factor_heights(system)
    if any(h is None for h in heights):
        return ()
    if all(isinstance(h, PowerHeights) for h in heights):
        return (METHOD_ANALYTIC_SPANNING, METHOD_ANALYTIC_SEPARATED)
    return (METHOD_ANALYTIC_SPANNING,)


def _analytic_count(system: SystemHandle, method: str, n: int, eps: float) -> int:
    if method not in analytic_methods(system):
        raise ValueError(f"closed-form {method} counts do not apply to {system.name}")
    if method == METHOD_ANALYTIC_SPANNING:
        return math.prod((floor_reciprocal(eps) + 1) * (drift_cutoff(n, eps, fam) + 1)
                         for fam in _factor_heights(system))
    return math.prod(floor_reciprocal(eps) * separation_levels(n, eps, fam.c)
                     for fam in _factor_heights(system))


def _dyadic_index(eps: float) -> int:
    """Largest j >= 0 with 2^-j >= eps (coding metrics take dyadic values).

    Exact: with eps = f * 2^e, 1/2 <= f < 1, eps is 2^-(1-e) when f = 1/2
    and lies strictly between 2^-(1-e) and 2^-(-e) otherwise. A float
    log2(1/eps) would round eps one ulp above 2^-j to j.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"symbolic counting needs eps in (0, 1], got {eps}")
    f, e = math.frexp(eps)
    return max(0, 1 - e if f == 0.5 else -e)


def _symbolic_span(n: int, eps: float) -> int:
    # a pair separates at scale eps iff some coordinate in [-j, n-1+j]
    # differs, i.e. iff the blocks of length n + 2j around the window differ
    return n + 2 * _dyadic_index(eps)


def _symbolic_counts(system: SystemHandle, ns: list[int],
                     epss: list[float]) -> dict[tuple[float, int], int]:
    """Exact block counts of every (eps, n) cell. Each window n takes one
    word, as long as its largest span needs, and counts every eps's span
    over that span's own ``word_window`` only."""
    counts = {}
    for n in ns:
        spans = [_symbolic_span(n, eps) for eps in epss]
        stops = [word_window(system, span) for span in spans]
        word = system.word_fn(0, max(stops) - 1)
        for eps, count in zip(epss, word_complexities(word, spans, stops)):
            counts[eps, n] = count
    return counts


def _tower_sample_for(system: SystemHandle, n: int, eps: float,
                      grid: int) -> AngleLevelGrid:
    fam = system.heights
    if isinstance(fam, PowerHeights):
        top = int(math.ceil(separation_depth(n, eps, fam.c))) + 5
    else:
        top = drift_cutoff(n, eps, fam) + 5
    if fam.max_level is not None:
        top = min(top, fam.max_level)
    return tower_sample(fam, grid, range(0, top + 1))


def count_table(system: SystemHandle, ns: list[int], epss: list[float],
                method: str, grid: int | None = None) -> list[CountRecord]:
    """One CountRecord per (eps, n) cell, eps in given order, n ascending.

    The greedy method needs ``grid``: angles per circle for towers (the
    level range follows the witness thresholds for the cell, plus slack),
    or the sampler resolution for other systems. Closed-form and symbolic
    methods ignore it. A greedy tower cell whose sample would hold more
    than ``systems.TOWER_SAMPLE_LIMIT`` points is refused before any
    counting.
    """
    if method not in COUNT_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {COUNT_METHODS}")
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("window grid must be nonempty and strictly increasing")
    if ns[0] < 1:
        raise ValueError(f"windows must be >= 1, got {ns[0]}")
    if not epss or any(b >= a for a, b in zip(epss, epss[1:])):
        raise ValueError("scale grid must be nonempty and strictly decreasing")

    bound = _BOUND_OF[method]
    greedy = method == METHOD_GREEDY_SEPARATED
    if greedy and grid is None:
        raise ValueError(f"method {method!r} needs a sample resolution (grid)")

    symbolic: dict[tuple[float, int], int] = {}
    if method == METHOD_SYMBOLIC_EXACT:
        # the last cell needs the longest word: refuse it before counting
        word_window(system, _symbolic_span(ns[-1], epss[-1]))
        symbolic = _symbolic_counts(system, ns, epss)

    samples: dict[tuple[float, int], Sequence] = {}
    if greedy and system.heights is None:
        if system.sampler is None:
            raise ValueError(f"{system.name} has no sampler for greedy counting")
        samples = dict.fromkeys(((eps, n) for eps in epss for n in ns),
                                system.sampler(grid))
    elif greedy:
        # tower samples are lazy grids of known length: every cell is sized
        # before any counting starts
        for eps in epss:
            for n in ns:
                sample = _tower_sample_for(system, n, eps, grid)
                if len(sample) > systems.TOWER_SAMPLE_LIMIT:
                    raise ValueError(
                        f"greedy counting at n={n}, eps={eps!r} needs a sample of "
                        f"{len(sample)} points, beyond the limit of "
                        f"{systems.TOWER_SAMPLE_LIMIT}")
                samples[eps, n] = sample

    records: list[CountRecord] = []
    for eps in epss:
        for n in ns:
            if method in (METHOD_ANALYTIC_SPANNING, METHOD_ANALYTIC_SEPARATED):
                count = _analytic_count(system, method, n, eps)
            elif method == METHOD_SYMBOLIC_EXACT:
                count = symbolic[eps, n]
            else:
                count = int(greedy_separated_mask(system, samples[eps, n], n, eps).sum())
            records.append(CountRecord(n, eps, count, method, bound))
    return records


# ---------------------------------------------------------------------------
# slope fits

@dataclass(frozen=True, slots=True)
class SlopeFit:
    """Least-squares line over a tail of the count table.

    ``slope`` is the growth exponent (or rate), ``residual`` the RMS of the
    fit residuals, ``window`` the (smallest, largest) window length used.
    """

    slope: float
    intercept: float
    residual: float
    window: tuple[int, int]
    points_used: int


def _tail_size(points: int, eps: float, tail_fraction: float) -> int:
    """How many of ``points`` windows at one eps the tail fit uses."""
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail fraction must be in (0, 1], got {tail_fraction}")
    keep = math.ceil(tail_fraction * points)
    if keep < 3:
        raise ValueError(f"need at least 3 tail points at eps {eps!r}, have {keep}")
    return keep


def _tail_records(records: list[CountRecord], eps: float,
                  tail_fraction: float) -> list[CountRecord]:
    at_eps = sorted((r for r in records if r.eps == eps), key=lambda r: r.n)
    return at_eps[len(at_eps) - _tail_size(len(at_eps), eps, tail_fraction):]


def _least_squares(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    # centered normal equations, fixed accumulation order
    m = len(xs)
    xm = math.fsum(xs) / m
    ym = math.fsum(ys) / m
    sxx = math.fsum((x - xm) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all window lengths equal")
    sxy = math.fsum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ym - slope * xm
    rss = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    return slope, intercept, math.sqrt(rss / m)


def _fit(records: list[CountRecord], eps: float, tail_fraction: float,
         log_x: bool) -> SlopeFit:
    tail = _tail_records(records, eps, tail_fraction)
    if any(r.count < 1 for r in tail):
        raise ValueError("cannot fit log of a zero count")
    xs = [math.log(r.n) if log_x else float(r.n) for r in tail]
    ys = [math.log(r.count) for r in tail]
    slope, intercept, residual = _least_squares(xs, ys)
    return SlopeFit(
        slope=slope,
        intercept=intercept,
        residual=residual,
        window=(tail[0].n, tail[-1].n),
        points_used=len(tail),
    )


def fit_poly_slope(records: list[CountRecord], eps: float,
                   tail_fraction: float = 0.5) -> SlopeFit:
    """Polynomial growth exponent: slope of log(count) against log(n)."""
    return _fit(records, eps, tail_fraction, log_x=True)


def fit_exp_rate(records: list[CountRecord], eps: float,
                 tail_fraction: float = 0.5) -> SlopeFit:
    """Exponential growth rate: slope of log(count) against n."""
    return _fit(records, eps, tail_fraction, log_x=False)


# ---------------------------------------------------------------------------
# scale sweep

@dataclass(frozen=True, slots=True)
class EntropyEstimate:
    """Per-scale slope fits plus the max-over-scales headline.

    The headline is a finite-resolution surrogate for the vanishing-scale
    limit: for true counts the per-scale exponent grows as eps shrinks, so
    the max over the supplied grid is the best available stand-in.
    ``records`` is the count table the fits were made on.
    """

    per_eps: dict[float, SlopeFit]
    headline: float
    records: list[CountRecord]


def eps_sweep(system: SystemHandle, ns: list[int], epss: list[float],
              method: str, grid: int | None = None,
              tail_fraction: float = 0.5) -> EntropyEstimate:
    """Count, fit the polynomial exponent per scale, and take the max slope
    as the headline."""
    # each eps gets one record per window, so an unfittable grid is known
    # before any counting
    for eps in epss:
        _tail_size(len(ns), eps, tail_fraction)
    records = count_table(system, ns, epss, method, grid=grid)
    per_eps = {eps: fit_poly_slope(records, eps, tail_fraction) for eps in epss}
    headline = max(f.slope for f in per_eps.values())
    return EntropyEstimate(per_eps=per_eps, headline=headline, records=records)
