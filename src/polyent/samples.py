"""Points and lazy finite samples of the rotation towers and products.

A tower point is an angle on one circle of the tower. Tower samples and
witness families are :class:`AngleLevelGrid` objects, a uniform angle grid
crossed with a level list, and product samples are :class:`ProductSample`
objects, the a-major pairs of two factor samples. Both are indexed lazily,
so their length and element access cost O(1) however many points they
hold, and slicing either returns a plain list.

The greedy counter and the covering audit of :mod:`polyent.bowen` pack
their samples one block of rows at a time, so a system's ``pack`` reads
any run of a lazy sample's rows without building a point: a grid's as
angle and level arrays (:meth:`AngleLevelGrid.rows`), a product's by
packing only the factor rows the run spans.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["TowerPoint", "AngleLevelGrid", "ProductSample"]


@dataclass(frozen=True, slots=True)
class TowerPoint:
    """A point of the rotation tower: an angle and a circle index.

    ``level`` 0 is the base circle (height 0, fixed pointwise); level n >= 1
    sits at the n-th height of the family. The height itself is always derived
    from the family, never stored.
    """

    angle: float
    level: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", self.angle % 1.0)
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")


class AngleLevelGrid(Sequence):
    """Lazy product of a uniform angle grid with a level list.

    Indexing is level-major with the angle running fastest and yields
    ``TowerPoint(j / angle_count, level)``; nothing is materialized, so
    million-level families keep O(1) length and element access. Slices
    return lists of points; :meth:`rows` gives any run of rows as angle and
    level arrays, which the tower ``pack`` reads, so the counting paths make
    no point.
    """

    def __init__(self, angle_count: int, levels: Sequence[int]):
        if angle_count < 1:
            raise ValueError(f"angle count must be >= 1, got {angle_count}")
        # a range stays a range: cutoff walks can reach 10^7+ levels and the
        # whole point of this class is to never materialize them
        if isinstance(levels, range):
            low = min(levels[0], levels[-1]) if levels else 0
        else:
            levels = tuple(operator.index(lv) for lv in levels)
            low = min(levels, default=0)
        if low < 0:
            raise ValueError(f"level must be >= 0, got {low}")
        self.angle_count = angle_count
        self.levels = levels

    def __len__(self) -> int:
        return self.angle_count * len(self.levels)

    def __getitem__(self, i):
        k = range(len(self))[i]
        if isinstance(k, range):
            return [self[j] for j in k]
        lv, j = divmod(k, self.angle_count)
        return TowerPoint(j / self.angle_count, self.levels[lv])

    def rows(self, lo: int = 0, hi: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The angles and levels of rows lo to hi - 1 (all by default), bit
        for bit those of the points: j / r is the correctly rounded quotient
        that ``TowerPoint(j / r, level)`` holds. Only the levels the rows
        span are converted."""
        k, r = range(len(self))[lo:hi], self.angle_count
        span = self.levels[k.start // r:-(-k.stop // r)]
        levels = (np.arange(span.start, span.stop, span.step, dtype=np.int64)
                  if isinstance(span, range) else np.array(span, np.int64))
        lv, j = np.divmod(np.arange(k.start, k.stop), r)
        return j / r, levels[lv - k.start // r]

    def __repr__(self) -> str:
        return f"AngleLevelGrid(angle_count={self.angle_count}, levels={self.levels!r})"


@dataclass(frozen=True)
class ProductSample(Sequence):
    """Lazy a-major product of two factor samples: item i is the pair
    ``(sa[i // len(sb)], sb[i % len(sb)])``, and slices return lists of
    pairs. The product ``pack`` reads a run of its rows by packing only the
    factor rows the run spans."""

    sa: Sequence
    sb: Sequence

    def __len__(self) -> int:
        return len(self.sa) * len(self.sb)

    def __getitem__(self, i):
        k = range(len(self))[i]
        if isinstance(k, range):
            return [self[j] for j in k]
        return self.sa[k // len(self.sb)], self.sb[k % len(self.sb)]
