"""Count tables and growth-exponent estimation.

A count table is a list of :class:`~polyent.bowen.CountRecord` over a grid
of window lengths and scales, produced by one of four methods, each declared
once with its bound tag and its counter: the greedy separated counter on a
sampled system, the sizes of the two tower witness families of
:mod:`polyent.constructions`, or exact block counting for symbolic systems.
Slope fits then regress log(count) on log(n) (polynomial regime;
``fit_exp_rate`` regresses on n instead) over the larger half of the window
grid (``TAIL_FRACTION``), and a scale sweep assembles per-eps polynomial
fits with a max-over-grid headline standing in for the vanishing-scale limit.

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
from .constructions import drift_cutoff, separated_witness, separation_depth, spanning_witness
from .diagnostics import word_complexities
from .systems import HeightFamily, PowerHeights, SystemHandle, word_window

__all__ = [
    "METHOD_GREEDY_SEPARATED",
    "METHOD_ANALYTIC_SPANNING",
    "METHOD_ANALYTIC_SEPARATED",
    "METHOD_SYMBOLIC_EXACT",
    "COUNT_METHODS",
    "METHOD_CHOICES",
    "count_methods",
    "TAIL_FRACTION",
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

# share of a scale's windows, the largest, that its slope fit uses
TAIL_FRACTION = 0.5


# ---------------------------------------------------------------------------
# counters: (system, ns, epss, grid) -> {(eps, n): count}; each refuses before counting

def _factor_heights(system: SystemHandle) -> list:
    if system.parts is None:
        return [system.heights]
    return [h for part in system.parts for h in _factor_heights(part)]


def _tower_heights(system: SystemHandle) -> list[HeightFamily]:
    heights = _factor_heights(system)
    if any(h is None for h in heights):
        raise ValueError(f"analytic counts need a tower system, got {system.name}")
    return heights


def _spanning_counts(system: SystemHandle, ns: list[int], epss: list[float],
                     grid: int | None) -> dict[tuple[float, int], int]:
    """Covering-family sizes, multiplied over a product's factors."""
    heights = _tower_heights(system)
    return {(eps, n): math.prod(spanning_witness(n, eps, fam).size for fam in heights)
            for eps in epss for n in ns}


def _separated_counts(system: SystemHandle, ns: list[int], epss: list[float],
                      grid: int | None) -> dict[tuple[float, int], int]:
    """Separated-family sizes, multiplied over a product's factors."""
    heights = _tower_heights(system)
    if not all(isinstance(h, PowerHeights) for h in heights):
        raise ValueError(f"analytic separated counts need a power-law tower, got {system.name}")
    return {(eps, n): math.prod(separated_witness(n, eps, fam.c).size for fam in heights)
            for eps in epss for n in ns}


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


def _symbolic_counts(system: SystemHandle, ns: list[int], epss: list[float],
                     grid: int | None) -> dict[tuple[float, int], int]:
    """Exact block counts of every (eps, n) cell from one word, as long as
    the last cell needs, and one ``word_complexities`` call: the cells'
    spans in ascending order, each counted over its own ``word_window``."""
    cells = sorted((_symbolic_span(n, eps), eps, n) for eps in epss for n in ns)
    spans = [span for span, _, _ in cells]
    # the last cell needs the longest word: refuse it before counting
    word_window(system, spans[-1])
    stops = [word_window(system, span) for span in spans]
    word = system.word_fn(0, max(stops) - 1)
    counts = word_complexities(word, spans, stops)
    return {(eps, n): count for (_, eps, n), count in zip(cells, counts)}


def _greedy_sample(system: SystemHandle, grid: int, n: int, eps: float) -> Sequence:
    """One cell's greedy sample: a tower's spans the levels its (n, eps)
    witness family resolves; any other system's is its canonical sample."""
    fam = system.heights
    if fam is None:
        return system.sampler(grid)
    if isinstance(fam, PowerHeights):
        return systems.sized_tower_sample(grid, math.ceil(separation_depth(n, eps, fam.c)))
    return systems.sized_tower_sample(grid, drift_cutoff(n, eps, fam))


def _greedy_counts(system: SystemHandle, ns: list[int], epss: list[float],
                   grid: int | None) -> dict[tuple[float, int], int]:
    """Greedy separated counts over each cell's ``_greedy_sample``."""
    if grid is None:
        raise ValueError(f"method {METHOD_GREEDY_SEPARATED!r} needs a sample resolution (grid)")
    # samples are sequences of known length, lazy where they grow large:
    # every cell is sized before any counting starts
    samples: dict[tuple[float, int], Sequence] = {}
    for eps in epss:
        for n in ns:
            samples[eps, n] = sample = _greedy_sample(system, grid, n, eps)
            systems.check_pack_limit(f"greedy counting at n={n}, eps={eps!r}",
                                     system, len(sample), n)
    return {(eps, n): int(greedy_separated_mask(system, sample, n, eps).sum())
            for (eps, n), sample in samples.items()}


# every count method, once: its --method choice, its bound tag and its counter
_METHODS = {
    METHOD_GREEDY_SEPARATED: ("greedy", BOUND_SEPARATED_LOWER, _greedy_counts),
    METHOD_ANALYTIC_SPANNING: ("analytic", BOUND_SPANNING_UPPER, _spanning_counts),
    METHOD_ANALYTIC_SEPARATED: ("analytic", BOUND_SEPARATED_LOWER, _separated_counts),
    METHOD_SYMBOLIC_EXACT: ("symbolic", BOUND_EXACT, _symbolic_counts),
}
COUNT_METHODS = tuple(_METHODS)

# what the CLI's --method picks: every count method of one kind that applies
METHOD_CHOICES = tuple(dict.fromkeys(choice for choice, _, _ in _METHODS.values()))


def count_methods(choice: str, system: SystemHandle) -> tuple[str, ...]:
    """The count methods a choice in ``METHOD_CHOICES`` runs on the system.

    Greedy counts any system. Analytic gives every witness family that
    applies: counts multiply over products, so covering needs heights on
    every factor, separation power-law heights. Symbolic needs a canonical
    word.
    """
    if choice not in METHOD_CHOICES:
        raise ValueError(f"unknown method choice {choice!r}; expected one of {METHOD_CHOICES}")
    if choice == "symbolic" and system.word_fn is None:
        raise ValueError(f"symbolic counts need a canonical word, got {system.name}")
    if choice == "analytic" and not all(isinstance(h, PowerHeights)
                                        for h in _tower_heights(system)):
        return (METHOD_ANALYTIC_SPANNING,)
    return tuple(m for m, (kind, _, _) in _METHODS.items() if kind == choice)


def count_table(system: SystemHandle, ns: list[int], epss: list[float],
                method: str, grid: int | None = None) -> list[CountRecord]:
    """One CountRecord per (eps, n) cell, eps in given order, n ascending.

    The greedy method needs ``grid``: angles per circle for towers (the
    level range follows the witness thresholds for the cell, plus slack),
    or the sampler resolution for other systems; the others ignore it.
    Each counter refuses before it counts: a greedy sample packing past
    ``systems.PACK_LIMIT`` bytes, a word past ``word_window``'s limit, a
    cell its witness family refuses.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {COUNT_METHODS}")
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("window grid must be nonempty and strictly increasing")
    if ns[0] < 1:
        raise ValueError(f"windows must be >= 1, got {ns[0]}")
    if not epss or any(b >= a for a, b in zip(epss, epss[1:])):
        raise ValueError("scale grid must be nonempty and strictly decreasing")
    _, bound, counter = _METHODS[method]
    counts = counter(system, ns, epss, grid)
    return [CountRecord(n, eps, counts[eps, n], method, bound) for eps in epss for n in ns]


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


def _tail_size(points: int, eps: float) -> int:
    """How many of ``points`` windows at one eps the tail fit uses."""
    keep = math.ceil(TAIL_FRACTION * points)
    if keep < 3:
        raise ValueError(f"need at least 3 tail points at eps {eps!r}, have {keep}")
    return keep


def _tail_records(records: list[CountRecord], eps: float) -> list[CountRecord]:
    at_eps = sorted((r for r in records if r.eps == eps), key=lambda r: r.n)
    return at_eps[len(at_eps) - _tail_size(len(at_eps), eps):]


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


def _fit(records: list[CountRecord], eps: float, log_x: bool) -> SlopeFit:
    tail = _tail_records(records, eps)
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


def fit_poly_slope(records: list[CountRecord], eps: float) -> SlopeFit:
    """Polynomial growth exponent: slope of log(count) against log(n)."""
    return _fit(records, eps, log_x=True)


def fit_exp_rate(records: list[CountRecord], eps: float) -> SlopeFit:
    """Exponential growth rate: slope of log(count) against n."""
    return _fit(records, eps, log_x=False)


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
              method: str, grid: int | None = None) -> EntropyEstimate:
    """Count, fit the polynomial exponent per scale, and take the max slope
    as the headline."""
    # each eps gets one record per window, so an unfittable grid is known
    # before any counting
    for eps in epss:
        _tail_size(len(ns), eps)
    records = count_table(system, ns, epss, method, grid=grid)
    per_eps = {eps: fit_poly_slope(records, eps) for eps in epss}
    headline = max(f.slope for f in per_eps.values())
    return EntropyEstimate(per_eps=per_eps, headline=headline, records=records)
