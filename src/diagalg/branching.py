"""The branching graph shared by the Brauer, BMW, and q-Brauer towers.

Level n of the graph carries the labels (la, n) where la is a partition with
|la| <= n and n - |la| even; an edge joins (la, n) to (mu, n+1) exactly when
mu is obtained from la by adding or removing one box.  The number of paths
from ((), 0) to (la, n) is the dimension of the corresponding cell module.

Levels are ordered by the reflected dominance order: (la, n) >= (mu, n) when
|la| < |mu|, or |la| = |mu| and la dominates mu.  Smaller partitions sit
higher because the ideal generated by a Temperley-Lieb generator e_{n-1}
consists of the layers with |la| < n, and ideals must be up-sets.
"""

from __future__ import annotations

from functools import cache

from .exactalg import Record
from .partitions import Ordering, Partition, dominance_cmp, partitions_of, size


class ReflectedLabel(Record):
    """A node (shape, level) of the branching graph."""

    __slots__ = ("shape", "level")
    shape: Partition
    level: int

    def __init__(self, shape: Partition, level: int):
        if level < 0:
            raise ValueError(f"negative level {level}")
        if size(shape) > level or (level - size(shape)) % 2:
            raise ValueError(f"shape {shape} cannot appear at level {level}")
        super().__init__(shape, level)


def young_neighbors(la: Partition) -> tuple[Partition, ...]:
    """Returns the shapes reachable from la by adding one box, then those
    reachable by removing one box, each top row first.

    Removing the box of a one-box row drops that row, which is the last."""
    out = []
    for i in range(len(la) + 1):
        row = la[i] if i < len(la) else 0
        above = la[i - 1] if i > 0 else None
        if above is None or row < above:
            out.append(la[:i] + (row + 1,) + la[i + 1 :])
    for i in range(len(la)):
        below = la[i + 1] if i + 1 < len(la) else 0
        if la[i] > below:
            shorter = (la[i] - 1,) if la[i] > 1 else ()
            out.append(la[:i] + shorter + la[i + 1 :])
    return tuple(out)


def reflected_level(n: int) -> tuple[ReflectedLabel, ...]:
    """Returns the labels of level n, largest shapes first.

    reflected_level(2) lists ((2), 2), ((1,1), 2), ((), 2).
    """
    if n < 0:
        raise ValueError(f"negative level {n}")
    out = []
    for k in range(n, -1, -2):
        for la in partitions_of(k):
            out.append(ReflectedLabel(la, n))
    return tuple(out)


def reflected_cmp(x: ReflectedLabel, y: ReflectedLabel) -> Ordering:
    """Compares two labels of the same level in the reflected dominance order.

    The label with the smaller shape is GREATER; equal-size shapes compare by
    dominance and may be INCOMPARABLE.
    """
    if x.level != y.level:
        raise ValueError(f"labels at different levels: {x} vs {y}")
    nx, ny = size(x.shape), size(y.shape)
    if nx < ny:
        return Ordering.GREATER
    if nx > ny:
        return Ordering.LESS
    return dominance_cmp(x.shape, y.shape)


def in_order_ideal_zero(x: ReflectedLabel) -> bool:
    """Returns True when x lies in the up-set of shapes strictly smaller than
    the level, i.e. the labels of the ideal generated by e_{n-1}."""
    return size(x.shape) < x.level


@cache
def _level_counts(n: int) -> dict[Partition, int]:
    """Path counts from ((), 0) to every shape at level n."""
    if n == 0:
        return {(): 1}
    prev = _level_counts(n - 1)
    counts: dict[Partition, int] = {}
    for la, c in prev.items():
        for mu in young_neighbors(la):
            counts[mu] = counts.get(mu, 0) + c
    return counts


def path_count(x: ReflectedLabel) -> int:
    """Returns the number of branching-graph paths from ((), 0) to x.

    These are the dimensions of the cell modules; their squares summed over a
    level give the dimension (2n-1)!! of the diagram algebra.
    """
    return _level_counts(x.level).get(x.shape, 0)


def double_factorial_odd(n: int) -> int:
    """Returns (2n-1)!! = 1 * 3 * 5 * ... * (2n-1), the diagram count."""
    if n < 0:
        raise ValueError(f"negative n {n}")
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out
