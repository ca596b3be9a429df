"""Closed-form witness families for the rotation tower and for subshifts.

Three constructions, each paired with a certifier that runs the generic
verifier from :mod:`polyent.bowen` over it:

* a covering family for the tower: a uniform angle grid crossed with every
  level whose accumulated drift over the window stays visible, plus the
  base circle;
* a separated family for power-law towers: well-spread angles crossed with
  the levels below the depth where neighboring drifts stop diverging by a
  full scale within the window;
* a separated family of shift orbits picked at first occurrences of
  distinct length-n blocks of an aperiodic word.

Threshold counts (grid sizes, cutoffs, level depths) are computed in exact
rational arithmetic on the binary64 value of eps. Near decimal scales like
0.1 the float sits a hair off the nominal value, and a naive float floor of
1/eps lands on the wrong side of the boundary, producing witness families
that miss their own strictness guarantee; the exact floor keeps the counts
and the verifier in agreement.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import systems
from .bowen import SeparationCheck, SpanningCheck, verify_separated, verify_spanning
from .diagnostics import _block_codes
from .systems import (
    AngleLevelGrid,
    CustomHeights,
    ExpHeights,
    HeightFamily,
    PowerHeights,
    SymbolicWord,
    SystemHandle,
    tower_sample,
    tower_system,
)

__all__ = [
    "floor_reciprocal",
    "drift_cutoff",
    "separation_depth",
    "separation_levels",
    "AngleLevelGrid",
    "ConstructionReport",
    "spanning_witness",
    "separated_witness",
    "separated_shift_family",
    "backward_orbit",
    "certified_spanning_witness",
    "certified_separated_witness",
    "certified_factor_shifts",
]


def floor_reciprocal(eps: float) -> int:
    """floor(1 / eps), computed exactly on the binary value of eps."""
    if not eps > 0.0:
        raise ValueError(f"scale must be positive, got {eps}")
    f = Fraction(eps)
    return f.denominator // f.numerator


def drift_cutoff(window: int, eps: float, fam: HeightFamily) -> int:
    """First level whose total drift over the window drops below eps.

    Returns min {n >= 1 : window * height(n) < eps}. Closed-form candidate
    plus a boundary walk; for integer-exponent power families the comparison
    is done in exact integers so boundary cases cannot flip on rounding.
    Custom families are scanned directly.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not eps > 0.0:
        raise ValueError(f"scale must be positive, got {eps}")

    if isinstance(fam, CustomHeights):
        for n in range(1, fam.max_level + 1):
            if window * fam.height(n) < eps:
                return n
        raise ValueError(
            f"sequence too short: drift stays >= {eps} through all "
            f"{fam.max_level} listed heights"
        )

    if isinstance(fam, PowerHeights) and fam.integer_c is not None:
        c = fam.integer_c
        f = Fraction(eps)

        def below(n: int) -> bool:
            return window * f.denominator < f.numerator * n ** c

        cand = math.ceil((window / eps) ** (1.0 / c))
    else:
        def below(n: int) -> bool:
            return window * fam.height(n) < eps

        if isinstance(fam, ExpHeights):
            cand = math.ceil(math.log(window / eps)) if window / eps > 1.0 else 1
        else:
            cand = math.ceil((window / eps) ** (1.0 / fam.c))

    n = max(1, cand)
    while n > 1 and below(n - 1):
        n -= 1
    while not below(n):
        n += 1
    return n


def separation_depth(window: int, eps: float, c: float) -> float:
    """Real-valued level depth (c * window / eps)^(1/(c+1)).

    Below this depth, adjacent levels of a power-c tower drift apart by at
    least eps somewhere inside the window (mean-value bound on the height
    differences); it caps the usable levels of the separated family.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not eps > 0.0:
        raise ValueError(f"scale must be positive, got {eps}")
    if not c >= 1.0:
        raise ValueError(f"decay exponent must be >= 1, got {c}")
    return (c * window / eps) ** (1.0 / (c + 1.0))


def separation_levels(window: int, eps: float, c: float) -> int:
    """Number of whole levels strictly below the separation depth.

    Exact integer comparison when c is an integer: the largest L with
    L^(c+1) * eps < c * window. Raises when not even level 1 qualifies.
    """
    depth = separation_depth(window, eps, c)
    if float(c).is_integer():
        ci = int(c)
        f = Fraction(eps)

        def inside(n: int) -> bool:
            return n ** (ci + 1) * f.numerator < ci * window * f.denominator
    else:
        def inside(n: int) -> bool:
            return float(n) < depth

    level = max(0, int(depth))
    while level > 0 and not inside(level):
        level -= 1
    while inside(level + 1):
        level += 1
    if level < 1:
        raise ValueError(
            f"window {window} too small for eps {eps!r}, c {c}: no usable levels"
        )
    return level


@dataclass(frozen=True)
class ConstructionReport:
    """A witness family plus the numbers that pin down its shape.

    ``cutoff`` is set for covering families (first drift-quiet level),
    ``depth``/``levels`` for separated tower families. ``verified`` stays
    None until a certifier has run; ``strict`` records whether the strong
    form of the inequality held everywhere.
    """

    kind: str
    window: int
    eps: float
    family: str
    points: Sequence
    predicted_size: int
    cutoff: int | None = None
    depth: float | None = None
    levels: int | None = None
    verified: bool | None = None
    strict: bool | None = None
    notes: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return len(self.points)


def spanning_witness(window: int, eps: float, fam: HeightFamily) -> ConstructionReport:
    """Covering family for the tower at scale eps over the given window.

    floor(1/eps) + 1 equally spaced angles (gap below eps) on the base
    circle and on every level up to the drift cutoff. Its size satisfies the
    closed form (floor(1/eps) + 1) * (cutoff + 1) by construction. Spacing
    arguments need no upper bound on eps here, so any positive eps is
    accepted; coarse scales just produce few angles.
    """
    r = floor_reciprocal(eps) + 1
    cutoff = drift_cutoff(window, eps, fam)
    grid = AngleLevelGrid(r, range(cutoff + 1))
    return ConstructionReport(
        kind="spanning-witness",
        window=window,
        eps=eps,
        family=fam.label,
        points=grid,
        predicted_size=r * (cutoff + 1),
        cutoff=cutoff,
    )


def _separated_points(angle_count: int, levels: int) -> AngleLevelGrid:
    return AngleLevelGrid(angle_count, range(1, levels + 1))


def separated_witness(window: int, eps: float, c: float) -> ConstructionReport:
    """Separated family for the power-c tower at scale eps over the window.

    floor(1/eps) equally spaced angles on each level strictly below the
    separation depth. Equal spacing puts every angle pair at least
    1/floor(1/eps) > eps apart; an arithmetic progression with step eps
    would not survive the strict audit, because float rounding nudges some
    of its pair gaps just below the nominal scale.
    """
    if not eps <= 0.5:
        raise ValueError(f"scale must be in (0, 1/2] for a separated family, got {eps}")
    m = floor_reciprocal(eps)
    depth = separation_depth(window, eps, c)
    levels = separation_levels(window, eps, c)
    return ConstructionReport(
        kind="separated-witness",
        window=window,
        eps=eps,
        family=PowerHeights(c).label,
        points=_separated_points(m, levels),
        predicted_size=m * levels,
        depth=depth,
        levels=levels,
    )


def separated_shift_family(word: SymbolicWord, n: int) -> list[int]:
    """First-occurrence indices of n + 1 distinct length-n blocks.

    The shifts of the word by these indices pairwise differ somewhere in
    their first n coordinates, so they form an (n, 1)-separated family
    under the coding metric. Only the word's materialized range is scanned.
    """
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    codes, _ = _block_codes(word.symbols, word.alphabet_size, n)
    first = np.sort(np.unique(codes, return_index=True)[1])
    if first.size <= n:
        raise ValueError(
            f"word periodic or range too short: {first.size} distinct "
            f"length-{n} blocks in [{word.start}, {word.end})"
        )
    return [word.start + int(i) for i in first[:n + 1]]


def backward_orbit(system: SystemHandle, x, m: int) -> list:
    """The list [x, f^-1 x, ..., f^-m x] (length m + 1)."""
    if m < 0:
        raise ValueError(f"depth must be >= 0, got {m}")
    if system.inverse is None:
        raise ValueError(f"system {system.name} has no inverse map")
    orbit = [x]
    for _ in range(m):
        orbit.append(system.inverse(orbit[-1]))
    return orbit


# ---------------------------------------------------------------------------
# certifiers: construction + generic verification in one call

def certified_spanning_witness(window: int, eps: float, fam: HeightFamily,
                               grid: int, extra_levels: int = 5,
                               ) -> tuple[ConstructionReport, SpanningCheck]:
    """Build the covering family and audit it against a canonical sample.

    The sample puts ``grid`` angles on the base circle and on every level
    up to cutoff + extra_levels; levels beyond that sit closer to the base
    circle than any point the family must resolve. A sample or family of
    more than ``systems.TOWER_SAMPLE_LIMIT`` points is refused before
    anything is packed.
    """
    report = spanning_witness(window, eps, fam)
    system = tower_system(fam)
    sample = tower_sample(fam, grid, range(0, report.cutoff + extra_levels + 1))
    for what, size in (("sample", len(sample)), ("center family", report.size)):
        if size > systems.TOWER_SAMPLE_LIMIT:
            raise ValueError(
                f"the spanning audit at n={window}, eps={eps!r} needs a {what} of "
                f"{size} points, beyond the limit of {systems.TOWER_SAMPLE_LIMIT}")
    check = verify_spanning(system, report.points, sample, window, eps)
    return replace(report, verified=check.ok, strict=check.all_strict), check


def certified_separated_witness(window: int, eps: float, c: float,
                                ) -> tuple[ConstructionReport, SeparationCheck]:
    """Build the separated family and audit every pair strictly.

    The level depth comes from a mean-value bound whose step count is off by
    one from the window convention used here; if that slack ever bites, it
    bites at the deepest level, so on a non-strict audit the family retries
    with the top level dropped (recorded in the report notes) before giving
    up. In practice the audit passes at full depth.
    """
    report = separated_witness(window, eps, c)
    system = tower_system(PowerHeights(c))
    m = floor_reciprocal(eps)
    levels = report.levels
    notes: list[str] = []
    while True:
        check = verify_separated(system, report.points, window, eps)
        if (check.ok and check.all_strict) or levels <= 1:
            break
        levels -= 1
        notes.append(
            f"dropped level {levels + 1}: separation not strict at depth boundary"
        )
        report = replace(report, points=_separated_points(m, levels),
                         predicted_size=m * levels, levels=levels)
    return (
        replace(report, verified=check.ok, strict=check.all_strict,
                notes=tuple(notes)),
        check,
    )


def certified_factor_shifts(system: SystemHandle, word: SymbolicWord, n: int,
                            ) -> tuple[ConstructionReport, SeparationCheck]:
    """Pick the shift family of distinct length-n blocks and audit it.

    ``system`` must be the shift dynamics the word lives in (its metric and
    step are used for the audit); separation scale is 1, a difference at
    the leading coordinate.
    """
    indices = separated_shift_family(word, n)
    base = word.point()
    points = [base.shifted(i) for i in indices]
    check = verify_separated(system, points, n, 1.0)
    report = ConstructionReport(
        kind="factor-shifts",
        window=n,
        eps=1.0,
        family=system.name,
        points=indices,
        predicted_size=n + 1,
        verified=check.ok,
        strict=check.all_strict,
    )
    return report, check
