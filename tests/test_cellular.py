"""Tests for the cellular basis built from Murphy elements and coset pairs."""

from fractions import Fraction

import pytest

from diagalg import gram
from diagalg.branching import ReflectedLabel, double_factorial_odd, reflected_level
from diagalg.brauer import (
    AlgebraElement,
    all_diagrams,
    generator,
    identity_diagram,
    perm_diagram,
    through_count,
)
from diagalg.cellular import (
    expand_in_gl_basis,
    gl_basis,
    ideal_identification,
    involution_swaps_indices,
    layer_membership,
    left_action_triangular,
    murphy_m,
    row_reading_tableau,
    standard_tableaux,
    tableau_permutation,
    transition_det,
    transition_matrix,
    weak_coherence_check,
)
from diagalg.partitions import partitions_of


def factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def _exact_det(mat) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def test_standard_tableaux_counts():
    assert len(standard_tableaux(())) == 1
    assert len(standard_tableaux((2, 1))) == 2
    assert len(standard_tableaux((2, 2))) == 2
    assert len(standard_tableaux((3, 1))) == 3
    for n in range(1, 6):
        total = sum(len(standard_tableaux(la)) ** 2 for la in partitions_of(n))
        assert total == factorial(n)


def test_standard_tableaux_are_standard():
    for t in standard_tableaux((3, 2)):
        flat = [x for row in t for x in row]
        assert sorted(flat) == list(range(1, 6))
        for row in t:
            assert list(row) == sorted(row)
        for i in range(1):
            for j in range(len(t[i + 1])):
                assert t[i][j] < t[i + 1][j]


def test_row_reading_tableau_gives_identity_permutation():
    for n in range(1, 6):
        for la in partitions_of(n):
            t = row_reading_tableau(la)
            assert tableau_permutation(t) == tuple(range(1, n + 1))


def _murphy_matrix(n: int):
    perms = [d for d in all_diagrams(n) if through_count(d) == n]
    idx = {d: i for i, d in enumerate(perms)}
    rows = []
    for la in partitions_of(n):
        for sa in standard_tableaux(la):
            for t in standard_tableaux(la):
                x = murphy_m(sa, t, n)
                row = [0] * len(perms)
                for d, c in x.terms.items():
                    row[idx[d]] = int(c)
                rows.append(row)
    return tuple(tuple(r) for r in rows)


def test_murphy_elements_form_a_basis_of_the_symmetric_group_algebra():
    # regression guard: with the wrong composition order the n = 4 matrix
    # drops to rank 14 while n <= 3 still passes
    for n in range(1, 5):
        mat = _murphy_matrix(n)
        assert len(mat) == factorial(n)
        assert gram.rank(mat) == factorial(n)
        assert _exact_det(mat) in (1, -1)


def test_murphy_m_level_two():
    s1 = perm_diagram((2, 1))
    one = AlgebraElement.from_diagram(identity_diagram(2))
    t2 = standard_tableaux((2,))[0]
    assert murphy_m(t2, t2, 2) == AlgebraElement(2, {identity_diagram(2): 1, s1: 1})
    t11 = standard_tableaux((1, 1))[0]
    assert murphy_m(t11, t11, 2) == one


def test_gl_basis_level_two_structure():
    basis = gl_basis(2)
    assert len(basis) == 3
    by_label = {c.label.shape: c for c in basis}
    assert set(by_label) == {(2,), (1, 1), ()}
    one = identity_diagram(2)
    assert by_label[(2,)].element == AlgebraElement(2, {one: 1, perm_diagram((2, 1)): 1})
    assert by_label[(1, 1)].element == AlgebraElement.from_diagram(one)
    assert by_label[()].element == AlgebraElement.from_diagram(generator("e", 1, 2))


def test_gl_basis_counts():
    for n in range(5):
        assert len(gl_basis(n)) == double_factorial_odd(n)


def test_transition_matrix_is_unimodular():
    for n in range(5):
        assert transition_det(n) in (1, -1)
    t = transition_matrix(2)
    assert len(t) == 3 and all(len(row) == 3 for row in t)


def test_expand_in_gl_basis_round_trip():
    n = 3
    basis = gl_basis(n)
    ds = all_diagrams(n)
    x = AlgebraElement(n, {ds[0]: 2, ds[5]: -1, ds[9]: 7})
    coeffs = expand_in_gl_basis(x)
    back = {}
    for i, c in coeffs.items():
        for d, v in basis[i].element.scale(c).terms.items():
            back[d] = back.get(d, 0) + v
    assert AlgebraElement(n, back) == x


def test_layer_membership_level_two():
    one = AlgebraElement.from_diagram(identity_diagram(2))
    e1 = AlgebraElement.from_diagram(generator("e", 1, 2))
    top = ReflectedLabel((), 2)
    mid = ReflectedLabel((2,), 2)
    low = ReflectedLabel((1, 1), 2)
    # e_1 spans the highest layer (the ideal is an up-set)
    assert layer_membership(e1, top) == {"above": True, "strictly_above": False}
    assert layer_membership(one, low) == {"above": True, "strictly_above": False}
    assert layer_membership(one, mid) == {"above": False, "strictly_above": False}
    assert layer_membership(e1, low)["strictly_above"]


def test_left_action_triangularity():
    for n in range(4):
        assert left_action_triangular(n)


def test_involution_swaps_indices():
    for n in range(4):
        assert involution_swaps_indices(n)


def test_ideal_identification():
    for n in range(4):
        assert ideal_identification(n)


def test_weak_coherence_small_levels():
    for n in range(4):
        for m in range(n % 2, n + 1, 2):
            if (n - m) // 2 > 2:
                continue
            for label in reflected_level(m):
                members = [c.element for c in gl_basis(m) if c.label == label]
                for x in members[:2]:
                    assert weak_coherence_check(x, label, n)


def test_weak_coherence_rejects_parity_mismatch():
    with pytest.raises(ValueError):
        weak_coherence_check(AlgebraElement.from_diagram(identity_diagram(2)), ReflectedLabel((2,), 2), 3)
