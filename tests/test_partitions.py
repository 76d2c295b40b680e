"""Tests for partitions: hooks, box statistics, dominance, enumeration."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagalg.partitions import (
    Ordering,
    box_statistics,
    conjugate,
    dominance_cmp,
    partitions_of,
    size,
)


@st.composite
def partitions_st(draw, max_part=7, max_rows=6):
    rows = draw(st.lists(st.integers(1, max_part), max_size=max_rows))
    return tuple(sorted(rows, reverse=True))


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


def _stats(la):
    """box -> (d, b, h), as box_statistics yields them."""
    return {box: (d, b, h) for box, d, b, h in box_statistics(la)}


def test_hook_examples():
    assert {box: h for box, (_, _, h) in _stats((2, 1)).items()} == {(1, 1): 3, (1, 2): 1, (2, 1): 1}
    # hooks of the staircase (3, 2, 1) at the diagonal
    assert [_stats((3, 2, 1))[(i, i)][2] for i in (1, 2)] == [5, 1]


def test_box_statistics_examples():
    # row-major, as (box, d, b, h)
    assert list(box_statistics((2, 1))) == [((1, 1), 2, -4, 3), ((1, 2), 0, -2, 1), ((2, 1), -2, -2, 1)]
    assert list(box_statistics(())) == []
    # d on the diagonal is 2*la_i - 2*i
    assert _stats((2,))[(1, 1)][0] == 2
    assert _stats((1, 1))[(1, 1)][0] == 0
    # above the diagonal d is a(i, j)
    assert _stats((2, 1))[(1, 2)][0] == 2 + 1 - 1 - 2
    # b-value from the paper formula; the conjugate of (1,1) is (2)
    assert _stats((1, 1))[(1, 1)][1] == -4
    assert _stats((2, 1))[(2, 1)][1] == -1 - 2 + 2 + 1 - 2
    # below the diagonal d is b(i, j)
    assert _stats((2, 1))[(2, 1)][0] == _stats((2, 1))[(2, 1)][1]


def test_dvalue_table_matches_paper_grid():
    # First boxes of a large diagram: d(1,2) = la1 + la2 - 3, d(2,1) = -la'1 - la'2 + 1
    la = (5, 4, 2, 1)
    conj = conjugate(la)
    stats = _stats(la)
    assert stats[(1, 2)][0] == la[0] + la[1] - 3
    assert stats[(2, 1)][0] == -conj[0] - conj[1] + 1
    assert stats[(3, 2)][0] == -conj[1] - conj[2] + 3


def test_box_statistics_match_the_definitions():
    # every |la| <= 12: the boxes row-major, and a, b, d and h as the module
    # docstring defines them, with la_k and la'_k 0 past the end
    for n in range(13):
        for la in partitions_of(n):
            conj = conjugate(la)

            def row(k):
                return la[k - 1] if k <= len(la) else 0

            def col(k):
                return conj[k - 1] if k <= len(conj) else 0

            want = []
            for i in range(1, len(la) + 1):
                for j in range(1, la[i - 1] + 1):
                    a = row(i) + row(j) - i - j
                    b = -col(i) - col(j) + i + j - 2
                    want.append(((i, j), a if i <= j else b, b, row(i) + col(j) + 1 - i - j))
            assert list(box_statistics(la)) == want, la


def test_dominance_examples():
    assert dominance_cmp((2, 2), (2, 1, 1)) is Ordering.GREATER
    assert dominance_cmp((2, 1, 1), (2, 2)) is Ordering.LESS
    assert dominance_cmp((2, 1), (2, 1)) is Ordering.EQUAL
    assert dominance_cmp((3, 1, 1, 1), (2, 2, 2)) is Ordering.INCOMPARABLE
    with pytest.raises(ValueError):
        dominance_cmp((2,), (1,))


def test_partitions_of_order_and_counts():
    assert tuple(partitions_of(4)) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert tuple(partitions_of(0)) == ((),)
    # partition numbers p(0..9) = 1, 1, 2, 3, 5, 7, 11, 15, 22, 30
    assert [len(tuple(partitions_of(n))) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert [len(tuple(partitions_of(n))) for n in (20, 30, 40)] == [627, 5604, 37338]

    def recursive(remaining, largest):
        # largest first part, then the partitions of the rest below it
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in recursive(remaining - first, first):
                yield (first,) + rest

    for n in range(19):
        assert tuple(partitions_of(n)) == tuple(recursive(n, n)), n


def test_partitions_of_is_lazy_and_refuses_negative_n_at_the_call():
    # the first partitions of a huge n come at once: nothing past them is built
    assert list(islice(partitions_of(10**6), 3)) == [(10**6,), (10**6 - 1, 1), (10**6 - 2, 2)]
    with pytest.raises(ValueError, match="cannot partition -1"):
        partitions_of(-1)
    assert list(partitions_of(0)) == [()]


@given(partitions_st())
@settings(max_examples=200)
def test_conjugate_is_an_involution(la):
    assert conjugate(conjugate(la)) == la
    assert size(conjugate(la)) == size(la)


@given(partitions_st())
@settings(max_examples=200)
def test_hooks_are_positive_and_corner_iff_hook_one(la):
    conj = conjugate(la)
    for (i, j), (_, _, h) in _stats(la).items():
        assert h >= 1
        is_corner = la[i - 1] == j and conj[j - 1] == i
        assert (h == 1) == is_corner


@given(partitions_st())
@settings(max_examples=200)
def test_box_statistics_conjugation_identity(la):
    # b_{la'}(j, i) = -a_la(i, j) - 2 for every box, and a = d where i <= j;
    # off the diagonal the d-values of la' mirror those of la.
    stats, mirror = _stats(la), _stats(conjugate(la))
    for (i, j), (d, _, _) in stats.items():
        if i <= j:
            assert mirror[(j, i)][1] == -d - 2
        if i != j:
            assert mirror[(j, i)][0] == -d - 2


@given(partitions_st())
@settings(max_examples=200)
def test_diagonal_statistics(la):
    for (i, j), (d, b, _) in _stats(la).items():
        if i == j:
            assert d == 2 * la[i - 1] - 2 * i >= 0
            assert b <= -2 and b % 2 == 0


@given(partitions_st())
@settings(max_examples=150)
def test_dvalue_monotone_along_rows_and_columns(la):
    # d decreases rightward/downward while i <= j, increases while i > j
    stats = _stats(la)
    for (i, j), (d, _, _) in stats.items():
        right, down = (i, j + 1), (i + 1, j)
        for nxt in (right, down):
            if nxt not in stats:
                continue
            if i <= j and nxt[0] <= nxt[1]:
                assert stats[nxt][0] <= d
            if i > j and nxt[0] > nxt[1]:
                assert stats[nxt][0] >= d


@given(st.integers(0, 11))
def test_partitions_of_is_strictly_lex_decreasing(n):
    ps = tuple(partitions_of(n))
    assert all(ps[k] > ps[k + 1] for k in range(len(ps) - 1))
    assert all(size(la) == n for la in ps)
