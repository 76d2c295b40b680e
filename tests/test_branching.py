"""Tests for the branching graph: neighbors, reflected order, path counts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagalg.branching import (
    ReflectedLabel,
    double_factorial_odd,
    in_order_ideal_zero,
    path_count,
    reflected_cmp,
    reflected_level,
    young_neighbors,
)
from diagalg.partitions import Ordering, size


@st.composite
def labels_st(draw, max_level=8):
    n = draw(st.integers(0, max_level))
    level = reflected_level(n)
    return draw(st.sampled_from(level))


def test_young_neighbors_examples():
    # the add-a-box shapes, then the remove-a-box shapes, top row first
    assert young_neighbors((1,)) == ((2,), (1, 1), ())
    assert young_neighbors((2, 1)) == ((3, 1), (2, 2), (2, 1, 1), (1, 1), (2,))
    assert young_neighbors(()) == ((1,),)


def test_reflected_level_example():
    assert [x.shape for x in reflected_level(2)] == [(2,), (1, 1), ()]
    assert [x.shape for x in reflected_level(1)] == [(1,)]
    assert [x.shape for x in reflected_level(0)] == [()]


def test_reflected_label_validation():
    with pytest.raises(ValueError):
        ReflectedLabel((1,), 2)  # parity mismatch
    with pytest.raises(ValueError):
        ReflectedLabel((3,), 1)  # too large


def test_reflected_cmp_examples():
    a = ReflectedLabel((1,), 3)
    b = ReflectedLabel((3,), 3)
    assert reflected_cmp(a, b) is Ordering.GREATER
    assert reflected_cmp(b, a) is Ordering.LESS
    assert reflected_cmp(a, a) is Ordering.EQUAL
    c = ReflectedLabel((2, 1), 3)
    assert reflected_cmp(b, c) is Ordering.GREATER  # (3) dominates (2,1)
    x = ReflectedLabel((3, 1, 1, 1), 6)
    y = ReflectedLabel((2, 2, 2), 6)
    assert reflected_cmp(x, y) is Ordering.INCOMPARABLE


def test_path_count_examples():
    assert path_count(ReflectedLabel((1,), 3)) == 3
    assert path_count(ReflectedLabel((), 2)) == 1
    assert path_count(ReflectedLabel((2,), 2)) == 1
    assert path_count(ReflectedLabel((1, 1), 2)) == 1
    assert path_count(ReflectedLabel((), 4)) == 3


def test_double_factorial_values():
    assert [double_factorial_odd(n) for n in range(9)] == [
        1, 1, 3, 15, 105, 945, 10395, 135135, 2027025,
    ]


@pytest.mark.parametrize("n", range(9))
def test_sum_of_squared_path_counts_is_diagram_count(n):
    total = sum(path_count(x) ** 2 for x in reflected_level(n))
    assert total == double_factorial_odd(n)


def test_path_count_at_full_size_equals_standard_tableau_count():
    # at |la| = n the only paths go straight up Young's lattice
    from diagalg.cellular import standard_tableaux

    for n in range(6):
        for x in reflected_level(n):
            if size(x.shape) == n:
                assert path_count(x) == len(standard_tableaux(x.shape))


@given(labels_st())
@settings(max_examples=150)
def test_order_ideal_is_upward_closed(x):
    if not in_order_ideal_zero(x):
        return
    for y in reflected_level(x.level):
        if reflected_cmp(y, x) is Ordering.GREATER:
            assert in_order_ideal_zero(y)


@given(labels_st())
@settings(max_examples=100)
def test_reflected_cmp_antisymmetry(x):
    for y in reflected_level(x.level):
        xy = reflected_cmp(x, y)
        yx = reflected_cmp(y, x)
        flip = {
            Ordering.LESS: Ordering.GREATER,
            Ordering.GREATER: Ordering.LESS,
            Ordering.EQUAL: Ordering.EQUAL,
            Ordering.INCOMPARABLE: Ordering.INCOMPARABLE,
        }
        assert yx is flip[xy]
        assert (xy is Ordering.EQUAL) == (x == y)
