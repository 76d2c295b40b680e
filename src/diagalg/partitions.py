"""Integer partitions, hooks, and the box statistics controlling weight vanishing.

A partition is stored as a weakly decreasing tuple of positive integers; the
empty partition is ().  Boxes of the Young diagram are 1-based pairs (i, j)
with 1 <= i <= len(la) and 1 <= j <= la[i-1].

The three box statistics attached to a partition la are

    a(i, j) = la_i + la_j - i - j
    b(i, j) = -la'_i - la'_j + i + j - 2
    d(i, j) = a(i, j) if i <= j, else b(i, j)

where la_k (resp. la'_k) is the k-th part of la (resp. of its conjugate),
taken to be 0 past the end.  On the diagonal, d(i, i) = 2*la_i - 2*i >= 0 and
b(i, i) = -2*la'_i + 2*i - 2 is always even and <= -2.  Weight numerators for
the Brauer-type algebras are products of (delta + d) over boxes, and their
denominators are products of hook lengths, so these statistics are the whole
combinatorial core of the semisimplicity criteria.  `box_statistics` yields
d, b and the hook length of every box (a is needed only where i <= j, and
there it equals d) for the weights and the full box scans; the diagonal
search of `criteria` reads d(i, i) and b(i, i) from the formulas above.
"""

from __future__ import annotations

import enum
from typing import Iterator

Partition = tuple[int, ...]
Box = tuple[int, int]


class Ordering(enum.Enum):
    """Result of comparing two elements of a partial order."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def size(la: Partition) -> int:
    """Returns |la|, the number of boxes."""
    return sum(la)


def part(la: Partition, i: int) -> int:
    """Returns la_i (1-based), which is 0 for i past the last row."""
    if i < 1:
        raise ValueError(f"row index {i} must be >= 1")
    return la[i - 1] if i <= len(la) else 0


def conjugate(la: Partition) -> Partition:
    """Returns the conjugate (transposed) partition.

    conjugate((3, 1)) == (2, 1, 1).
    """
    conj: list[int] = []
    i = len(la)
    for row in reversed(la):
        if row > len(conj):  # the columns past the rows below have height i
            conj += [i] * (row - len(conj))
        i -= 1
    return tuple(conj)


def box_statistics(la: Partition) -> Iterator[tuple[Box, int, int, int]]:
    """Yields (box, d, b, h) for each box (i, j) of la in row-major order:
    the statistics d(i, j) and b(i, j) and the hook length

        h(i, j) = la_i + la'_j + 1 - i - j >= 1.

    The conjugate is built once per shape."""
    conj = conjugate(la)
    part = (0,) + la + (0,) * len(conj)  # part[j] = la_j for every column j
    cpart = (0,) + conj + (0,) * len(la)  # cpart[i] = la'_i for every row i
    for i in range(1, len(la) + 1):
        li, ci = part[i], cpart[i]
        for j in range(1, li + 1):
            b = i + j - 2 - ci - cpart[j]
            d = li + part[j] - i - j if i <= j else b
            yield (i, j), d, b, li + cpart[j] + 1 - i - j


def dominance_cmp(la: Partition, mu: Partition) -> Ordering:
    """Compares two partitions of the same size in dominance order.

    la dominates mu (GREATER) when every prefix sum of la is >= the matching
    prefix sum of mu.  Partitions of different sizes are rejected.
    """
    if size(la) != size(mu):
        raise ValueError(f"dominance needs equal sizes, got {la} and {mu}")
    if la == mu:
        return Ordering.EQUAL
    ge = True  # la >= mu so far
    le = True
    acc_la = acc_mu = 0
    for k in range(max(len(la), len(mu))):
        acc_la += part(la, k + 1)
        acc_mu += part(mu, k + 1)
        if acc_la < acc_mu:
            ge = False
        if acc_la > acc_mu:
            le = False
    if ge:
        return Ordering.GREATER
    if le:
        return Ordering.LESS
    return Ordering.INCOMPARABLE


def partitions_of(n: int) -> Iterator[Partition]:
    """Yields the partitions of n one at a time, in lexicographically
    decreasing order; a negative n is refused with ValueError at the call.

    list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)].

    Each partition follows from the last in place (Knuth, TAOCP 4A,
    7.2.1.4, Algorithm P): the rightmost part greater than 1 drops by one,
    and the ones after it plus the freed unit are refilled greedily with
    parts of that new size, the last part taking the remainder.  Only the
    current partition is held, so a scan of every partition of n takes
    memory linear in n, not in the number of partitions.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    return _algorithm_p(n)


def _algorithm_p(n: int) -> Iterator[Partition]:
    """The generator behind partitions_of, for n >= 0."""
    if n == 0:
        yield ()
        return
    a = [n]
    yield (n,)
    k = 0 if n > 1 else -1  # index of the rightmost part > 1
    while k >= 0:
        x = a[k] - 1
        q, r = divmod(a[k] + len(a) - 1 - k, x)  # a[k:] is a[k] followed by ones
        a[k:] = [x] * q + [r] if r else [x] * q
        yield tuple(a)
        if r > 1:
            k = len(a) - 1
        elif x > 1:
            k += q - 1
        else:
            k -= 1  # every part before k is at least 2
