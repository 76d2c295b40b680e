"""Tests for partitions: hooks, box statistics, dominance, enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagalg.partitions import (
    Ordering,
    avalue,
    boxes,
    bvalue,
    conjugate,
    dominance_cmp,
    dvalue,
    hook,
    partition,
    partitions_of,
    size,
)


@st.composite
def partitions_st(draw, max_part=7, max_rows=6):
    rows = draw(st.lists(st.integers(1, max_part), max_size=max_rows))
    return tuple(sorted(rows, reverse=True))


def test_partition_canonicalizes():
    assert partition([3, 1, 0, 0]) == (3, 1)
    assert partition([]) == ()
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([2, -1])


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((1, 1)) == (2,)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    # column j has la'_j = #{i : la_i >= j}
    for n in range(13):
        for la in partitions_of(n):
            columns = range(1, la[0] + 1) if la else ()
            assert conjugate(la) == tuple(sum(1 for x in la if x >= j) for j in columns)


def test_hook_examples():
    assert hook((2, 1), (1, 1)) == 3
    assert hook((2, 1), (1, 2)) == 1
    assert hook((2, 1), (2, 1)) == 1
    # hooks of the staircase (3, 2, 1) at the diagonal
    assert [hook((3, 2, 1), (i, i)) for i in (1, 2)] == [5, 1]


def test_box_statistics_examples():
    # d on the diagonal is 2*la_i - 2*i
    assert dvalue((2,), (1, 1)) == 2
    assert dvalue((1, 1), (1, 1)) == 0
    assert avalue((2, 1), (1, 2)) == 2 + 1 - 1 - 2
    # b-value from the paper formula; the conjugate of (1,1) is (2)
    assert bvalue((1, 1), (1, 1)) == -4
    assert bvalue((2, 1), (2, 1)) == -1 - 2 + 2 + 1 - 2
    # off-diagonal d dispatches on i <= j
    assert dvalue((2, 1), (2, 1)) == bvalue((2, 1), (2, 1))
    assert dvalue((2, 1), (1, 2)) == avalue((2, 1), (1, 2))


def test_dvalue_table_matches_paper_grid():
    # First boxes of a large diagram: d(1,2) = la1 + la2 - 3, d(2,1) = -la'1 - la'2 + 1
    la = (5, 4, 2, 1)
    conj = conjugate(la)
    assert dvalue(la, (1, 2)) == la[0] + la[1] - 3
    assert dvalue(la, (2, 1)) == -conj[0] - conj[1] + 1
    assert dvalue(la, (3, 2)) == -conj[1] - conj[2] + 3


def test_dominance_examples():
    assert dominance_cmp((2, 2), (2, 1, 1)) is Ordering.GREATER
    assert dominance_cmp((2, 1, 1), (2, 2)) is Ordering.LESS
    assert dominance_cmp((2, 1), (2, 1)) is Ordering.EQUAL
    assert dominance_cmp((3, 1, 1, 1), (2, 2, 2)) is Ordering.INCOMPARABLE
    with pytest.raises(ValueError):
        dominance_cmp((2,), (1,))


def test_partitions_of_order_and_counts():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_of(0) == ((),)
    # partition numbers p(0..9) = 1, 1, 2, 3, 5, 7, 11, 15, 22, 30
    assert [len(partitions_of(n)) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert [len(partitions_of(n)) for n in (20, 30, 40)] == [627, 5604, 37338]

    def recursive(remaining, largest):
        # largest first part, then the partitions of the rest below it
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in recursive(remaining - first, first):
                yield (first,) + rest

    for n in range(19):
        assert partitions_of(n) == tuple(recursive(n, n)), n


@given(partitions_st())
@settings(max_examples=200)
def test_conjugate_is_an_involution(la):
    assert conjugate(conjugate(la)) == la
    assert size(conjugate(la)) == size(la)


@given(partitions_st())
@settings(max_examples=200)
def test_hooks_are_positive_and_corner_iff_hook_one(la):
    conj = conjugate(la)
    for i, j in boxes(la):
        h = hook(la, (i, j))
        assert h >= 1
        is_corner = la[i - 1] == j and conj[j - 1] == i
        assert (h == 1) == is_corner


@given(partitions_st())
@settings(max_examples=200)
def test_box_statistics_conjugation_identity(la):
    # b_{la'}(j, i) = -a_la(i, j) - 2 for every box; restricted to i <= j this
    # says the lower-triangular d-values of la' mirror the upper ones of la.
    conj = conjugate(la)
    for i, j in boxes(la):
        assert bvalue(conj, (j, i)) == -avalue(la, (i, j)) - 2
        if i < j:
            assert dvalue(conj, (j, i)) == -dvalue(la, (i, j)) - 2


@given(partitions_st())
@settings(max_examples=200)
def test_diagonal_statistics(la):
    for i, j in boxes(la):
        if i == j:
            assert dvalue(la, (i, i)) == 2 * la[i - 1] - 2 * i >= 0
            b = bvalue(la, (i, i))
            assert b <= -2 and b % 2 == 0


@given(partitions_st())
@settings(max_examples=150)
def test_dvalue_monotone_along_rows_and_columns(la):
    # d decreases rightward/downward while i <= j, increases while i > j
    for i, j in boxes(la):
        right, down = (i, j + 1), (i + 1, j)
        for nxt in (right, down):
            if not (1 <= nxt[0] <= len(la) and nxt[1] <= la[nxt[0] - 1]):
                continue
            if i <= j and nxt[0] <= nxt[1]:
                assert dvalue(la, nxt) <= dvalue(la, (i, j))
            if i > j and nxt[0] > nxt[1]:
                assert dvalue(la, nxt) >= dvalue(la, (i, j))


@given(st.integers(0, 11))
def test_partitions_of_is_strictly_lex_decreasing(n):
    ps = partitions_of(n)
    assert all(ps[k] > ps[k + 1] for k in range(len(ps) - 1))
    assert all(size(la) == n for la in ps)
