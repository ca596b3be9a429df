"""Count tables and growth-exponent estimation.

A count table is a list of :class:`~polyent.bowen.CountRecord` over a grid
of window lengths and scales, produced by one of five methods: the two
greedy counters on a sampled system, the two closed-form witness sizes for
towers, or exact block counting for symbolic systems. Slope fits then
regress log(count) on log(n) (polynomial regime) or on n (exponential
regime) over a tail of the window grid, and a scale sweep assembles per-eps
fits with a max-over-grid headline standing in for the vanishing-scale
limit.

Fits are computed with an explicit centered least-squares formula in fixed
summation order; no BLAS-backed solver is involved, so results are
bit-identical across thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bowen import (
    BOUND_EXACT,
    BOUND_SEPARATED_LOWER,
    BOUND_SPANNING_UPPER,
    CountRecord,
    greedy_separated,
    greedy_spanning,
)
from .constructions import (
    drift_cutoff,
    floor_reciprocal,
    separation_depth,
    separation_levels,
)
from .diagnostics import word_complexity
from .systems import PowerHeights, SystemHandle, tower_sample

__all__ = [
    "METHOD_GREEDY_SEPARATED",
    "METHOD_GREEDY_SPANNING",
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
METHOD_GREEDY_SPANNING = "greedy-spanning"
METHOD_ANALYTIC_SPANNING = "analytic-spanning"
METHOD_ANALYTIC_SEPARATED = "analytic-separated"
METHOD_SYMBOLIC_EXACT = "symbolic-exact"

COUNT_METHODS = (
    METHOD_GREEDY_SEPARATED,
    METHOD_GREEDY_SPANNING,
    METHOD_ANALYTIC_SPANNING,
    METHOD_ANALYTIC_SEPARATED,
    METHOD_SYMBOLIC_EXACT,
)

_BOUND_OF = {
    METHOD_GREEDY_SEPARATED: BOUND_SEPARATED_LOWER,
    METHOD_GREEDY_SPANNING: BOUND_SPANNING_UPPER,
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
    """Largest j >= 0 with 2^-j >= eps (coding metrics take dyadic values)."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"symbolic counting needs eps in (0, 1], got {eps}")
    return max(0, math.floor(math.log2(1.0 / eps)))


def _symbolic_exact_count(system: SystemHandle, n: int, eps: float) -> int:
    if system.word_fn is None:
        raise ValueError(f"{system.name} carries no canonical word to count blocks of")
    j = _dyadic_index(eps)
    # a pair separates at scale eps iff some coordinate in [-j, n-1+j]
    # differs, i.e. iff the blocks of length n + 2j around the window differ
    span = n + 2 * j
    word = system.word_fn(0, 11 * span)
    return word_complexity(word, span)


def _tower_sample_for(system: SystemHandle, method: str, n: int, eps: float,
                      grid: int) -> list:
    fam = system.heights
    if method == METHOD_GREEDY_SEPARATED and isinstance(fam, PowerHeights):
        top = int(math.ceil(separation_depth(n, eps, fam.c))) + 5
    else:
        top = drift_cutoff(n, eps, fam) + 5
    if fam.max_level is not None:
        top = min(top, fam.max_level)
    return tower_sample(fam, grid, range(0, top + 1))


def count_table(system: SystemHandle, ns: list[int], epss: list[float],
                method: str, grid: int | None = None) -> list[CountRecord]:
    """One CountRecord per (eps, n) cell, eps in given order, n ascending.

    Greedy methods need ``grid``: angles per circle for towers (the level
    range follows the witness thresholds for the cell, plus slack), or the
    sampler resolution for other systems. Closed-form and symbolic methods
    ignore it.
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
    greedy = method in (METHOD_GREEDY_SEPARATED, METHOD_GREEDY_SPANNING)
    if greedy and grid is None:
        raise ValueError(f"method {method!r} needs a sample resolution (grid)")

    fixed_sample: list | None = None
    if greedy and system.heights is None:
        if system.sampler is None:
            raise ValueError(f"{system.name} has no sampler for greedy counting")
        fixed_sample = system.sampler(grid)

    records: list[CountRecord] = []
    for eps in epss:
        for n in ns:
            if method in (METHOD_ANALYTIC_SPANNING, METHOD_ANALYTIC_SEPARATED):
                count = _analytic_count(system, method, n, eps)
            elif method == METHOD_SYMBOLIC_EXACT:
                count = _symbolic_exact_count(system, n, eps)
            else:
                sample = (fixed_sample if fixed_sample is not None
                          else _tower_sample_for(system, method, n, eps, grid))
                if method == METHOD_GREEDY_SEPARATED:
                    count = len(greedy_separated(system, sample, n, eps))
                else:
                    count = len(greedy_spanning(system, sample, n, eps))
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


def _tail_records(records: list[CountRecord], eps: float,
                  tail_fraction: float) -> list[CountRecord]:
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail fraction must be in (0, 1], got {tail_fraction}")
    at_eps = sorted((r for r in records if r.eps == eps), key=lambda r: r.n)
    keep = math.ceil(tail_fraction * len(at_eps))
    tail = at_eps[len(at_eps) - keep:]
    if len(tail) < 3:
        raise ValueError(
            f"need at least 3 tail points at eps {eps!r}, have {len(tail)}")
    return tail


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

    mode: str
    per_eps: dict[float, SlopeFit]
    headline: float
    records: list[CountRecord]


def eps_sweep(system: SystemHandle, ns: list[int], epss: list[float],
              method: str, grid: int | None = None,
              mode: str = "polynomial",
              tail_fraction: float = 0.5) -> EntropyEstimate:
    """Count, fit per scale, and take the max slope as the headline."""
    if mode not in ("polynomial", "topological"):
        raise ValueError(f"mode must be polynomial or topological, got {mode!r}")
    records = count_table(system, ns, epss, method, grid=grid)
    fit = fit_poly_slope if mode == "polynomial" else fit_exp_rate
    per_eps = {eps: fit(records, eps, tail_fraction) for eps in epss}
    headline = max(f.slope for f in per_eps.values())
    return EntropyEstimate(mode=mode, per_eps=per_eps, headline=headline,
                           records=records)
