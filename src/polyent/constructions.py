"""Closed-form witness families for the rotation tower and for subshifts.

Three constructions, each paired with a certifier that runs the generic
verifier from :mod:`polyent.bowen` over it:

* a covering family for the tower: a uniform angle grid crossed with every
  level whose accumulated drift over the window stays visible, plus the
  base circle;
* a separated family for power-law towers at scales up to 1/3: well-spread
  angles crossed with every level whose height gap to the level below
  drifts by a full scale within the window;
* a separated family of shift orbits picked at first occurrences of
  distinct length-n blocks of an aperiodic word.

The sizes of the two tower families are the analytic counts of
:mod:`polyent.estimation`; their closed forms live here only.

Grid sizes and separation levels are computed in exact rational arithmetic
on the binary64 value of eps (levels also on the float heights). Near
decimal scales like 0.1 the float sits a hair off the nominal value, and a
naive float floor of 1/eps lands on the wrong side of the boundary,
producing witness families that miss their own strictness guarantee.
Drift cutoffs compare ``window * height(n)`` with eps exactly, on the
float heights the kernel reads.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import systems
from .bowen import SeparationCheck, SpanningCheck, verify_separated, verify_spanning
from .diagnostics import block_codes
from .systems import (
    AngleLevelGrid,
    ExpHeights,
    HeightFamily,
    PowerHeights,
    SymbolicWord,
    SystemHandle,
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
    plus a boundary walk. The comparison is exact, so boundary cases cannot
    flip on rounding: in integers for integer-exponent power families, in
    ``Fraction``s of the float height and eps otherwise.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not eps > 0.0:
        raise ValueError(f"scale must be positive, got {eps}")

    if isinstance(fam, PowerHeights) and fam.integer_c is not None:
        c = fam.integer_c
        f = Fraction(eps)

        def below(n: int) -> bool:
            return window * f.denominator < f.numerator * n ** c

        cand = math.ceil((window / eps) ** (1.0 / c))
    else:
        f = Fraction(eps)

        def below(n: int) -> bool:
            return window * Fraction(fam.height(n)) < f

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

    The mean-value estimate of where adjacent levels of a power-c tower stop
    drifting apart by eps within the window. Separated reports carry it as
    their ``depth``, and greedy tower samples reach up to it; the family's
    own level count is the exact ``separation_levels``.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not eps > 0.0:
        raise ValueError(f"scale must be positive, got {eps}")
    if not c >= 1.0:
        raise ValueError(f"decay exponent must be >= 1, got {c}")
    return (c * window / eps) ** (1.0 / (c + 1.0))


def separation_levels(window: int, eps: float, c: float) -> int:
    """Levels of the separated power-c family: the last level L whose height
    gap g to level L - 1 passes g >= eps or (window - 1) g >= eps, that is
    reach g >= eps with reach = max(window - 1, 1).

    The gaps are exact rationals of the float heights the kernel reads,
    walked to the boundary from the closed-form candidate
    (c reach / eps)^(1/(c+1)). At eps <= 1/3 the test certifies the family
    of ``separated_witness``, and level 1 always qualifies:

    * pairs at different angles are at least 1/floor(1/eps) >= eps apart
      at step 0;
    * a pair at one angle with g <= eps <= 1/3 first passes eps at a drift
      below 2 eps <= 1 - eps, so it passes before it can wrap;
    * gaps shrink as the level grows, so adjacent levels decide.

    Larger scales are refused: at power 1, levels 2 and 6 differ by exactly
    1/3, so that pair drifts by 0, 1/3 and 2/3 in turn.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not 0.0 < eps <= 1 / 3:
        raise ValueError(f"scale must be in (0, 1/3] for a separated family, got {eps}")
    fam = PowerHeights(c)
    reach = max(window - 1, 1)
    f = Fraction(eps)

    def passes(n: int) -> bool:
        return n == 1 or reach * (Fraction(fam.height(n - 1)) - Fraction(fam.height(n))) >= f

    n = max(1, int((c * reach / eps) ** (1.0 / (c + 1.0))))
    while not passes(n):
        n -= 1
    while passes(n + 1):
        n += 1
    return n


@dataclass(frozen=True)
class ConstructionReport:
    """A witness family plus the numbers that pin down its shape.

    ``cutoff`` is set for covering families (first drift-quiet level);
    separated tower families set ``depth``, the mean-value estimate of
    ``separation_depth``, and ``levels``, the exact ``separation_levels``.
    ``verified`` stays None until a certifier has run; ``strict`` records
    whether the strong form of the inequality held everywhere.
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

    floor(1/eps) equally spaced angles on each of the levels 1..L that
    ``separation_levels`` picks (it refuses scales above 1/3). Equal
    spacing puts every angle pair at least 1/floor(1/eps) >= eps apart,
    with equality up to rounding when 1/eps is an integer (eps 0.25, 1/3,
    0.125, ...): there neighbouring angles of a level sit about eps apart
    for the whole window, so no family of this shape passes the strict
    audit, and at some such scales (1/6, 1/7) rounding puts one of those
    gaps just below eps. An arithmetic progression with step eps would fail
    the audit at every scale, because float rounding nudges some of its
    pair gaps just below the nominal scale.
    """
    levels = separation_levels(window, eps, c)
    m = floor_reciprocal(eps)
    return ConstructionReport(
        kind="separated-witness",
        window=window,
        eps=eps,
        family=PowerHeights(c).label,
        points=_separated_points(m, levels),
        predicted_size=m * levels,
        depth=separation_depth(window, eps, c),
        levels=levels,
    )


def _first_occurrences(code: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct code,
    sorting the codes in place: a stable argsort puts each code's first
    index first among its equals, and the sorted codes give the
    adjacent-change mask that picks it. No sorted copy is gathered, so this
    traces 16 bytes per code on top of the codes, where
    ``np.unique(code, return_index=True)`` traces 32."""
    order = np.argsort(code, kind="stable")
    code.sort()
    change = np.empty(code.size, bool)
    change[:1] = True
    np.not_equal(code[1:], code[:-1], out=change[1:])
    return np.sort(order[change])


def separated_shift_family(word: SymbolicWord, n: int) -> list[int]:
    """First-occurrence indices of n + 1 distinct length-n blocks.

    The shifts of the word by these indices pairwise differ somewhere in
    their first n coordinates, so they form an (n, 1)-separated family
    under the coding metric. Only the word's materialized range is scanned.
    """
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    first = _first_occurrences(block_codes(word.symbols, word.alphabet_size, n))
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
                               grid: int) -> tuple[ConstructionReport, SpanningCheck]:
    """Build the covering family and audit it against a canonical sample.

    The sample puts ``grid`` angles on the levels up to the cutoff, plus
    slack (``systems.sized_tower_sample``). A sample or family that would
    pack into more than ``systems.PACK_LIMIT`` bytes is refused before
    anything is packed.
    """
    report = spanning_witness(window, eps, fam)
    system = tower_system(fam)
    sample = systems.sized_tower_sample(grid, report.cutoff)
    for what, family in (("sample", sample), ("center family", report.points)):
        systems.check_pack_limit(f"the spanning audit's {what} at n={window}, eps={eps!r}",
                                 system, len(family), window)
    check = verify_spanning(system, report.points, sample, window, eps)
    return replace(report, verified=check.ok, strict=check.all_strict), check


def certified_separated_witness(window: int, eps: float, c: float,
                                ) -> tuple[ConstructionReport, SeparationCheck]:
    """Build the separated family and audit every pair once.

    A family past ``systems.PACK_LIMIT`` packed bytes is refused unpacked.
    The audit is strict except where 1/eps is an integer, at the ties on
    one level that ``separated_witness`` describes.
    """
    report = separated_witness(window, eps, c)
    system = tower_system(PowerHeights(c))
    systems.check_pack_limit(f"the separated audit at n={window}, eps={eps!r}",
                             system, report.size, window)
    check = verify_separated(system, report.points, window, eps)
    return replace(report, verified=check.ok, strict=check.all_strict), check


def certified_factor_shifts(system: SystemHandle, word: SymbolicWord, n: int,
                            ) -> tuple[ConstructionReport, SeparationCheck]:
    """Pick the shift family of distinct length-n blocks and audit it.

    ``system`` must be the shift dynamics the word lives in (its metric and
    step are used for the audit); separation scale is 1, a difference at
    the leading coordinate. A family that would pack into more bytes than
    ``systems.check_pack_limit`` allows is refused unpacked.
    """
    systems.check_pack_limit(f"the factor-shift audit at n={n}", system, n + 1, n)
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
