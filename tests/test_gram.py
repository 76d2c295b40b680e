"""Tests for trace-form Gram matrices and exact rank computations."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagalg import gram
from diagalg.brauer import all_diagrams, involute_diagram
from diagalg.criteria import decide
from diagalg.exactalg import PrimeFieldElement
from diagalg.gram import (
    _SCREEN_PRIME,
    _relations,
    first_degenerate_level,
    generic_structure_check,
    gram_exponents,
    gram_matrix,
    level_rank,
    rank,
    rank_mod_p,
)
from diagalg.weights import BrauerParams, IntegerDelta, ParameterError, vanishing_level


def test_gram_exponents_small():
    assert gram_exponents(0) == ((0,),)
    assert gram_exponents(1) == ((0,),)
    m = gram_exponents(2)
    assert len(m) == 3
    # symmetric, diagonal zero (tr(b b*) = delta^0), off-diagonal <= 0
    for i in range(3):
        assert m[i][i] == 0
        for j in range(3):
            assert m[i][j] == m[j][i]
            assert m[i][j] <= 0


def _reference_exponent(a, b) -> int:
    """k(a, b) = cycles(a.matching + flip(b.matching)) - n, flip(v) = v +- n:
    closing a * b joins a's top row to b's bottom row, so b read upside down
    shares a's vertices and each cycle of the two matchings is one loop."""
    n = a.n
    flip = [v + n if v < n else v - n for v in range(2 * n)]
    mb = [0] * (2 * n)
    for v, w in enumerate(b.matching):
        mb[flip[v]] = flip[w]
    seen = [False] * (2 * n)
    cycles = 0
    for v0 in range(2 * n):
        if seen[v0]:
            continue
        cycles += 1
        v = v0
        while not seen[v]:
            w = a.matching[v]
            seen[v] = seen[w] = True
            v = mb[w]
    return cycles - n


def test_gram_exponents_match_cycle_count_reference():
    for n in range(5):
        ds = all_diagrams(n)
        expected = tuple(tuple(_reference_exponent(a, b) for b in ds) for a in ds)
        assert gram_exponents(n) == expected


def test_gram_matrix_values_small():
    g = gram_matrix(2, Fraction(5))
    assert g[0][0] == 1
    assert all(g[i][j] in (1, Fraction(1, 5)) for i in range(3) for j in range(3))
    # an int delta gives the same exact entries, never floats
    assert gram_matrix(2, 5) == g
    assert all(type(x) in (int, Fraction) for row in gram_matrix(2, 5) for x in row)


def test_gram_structure_k_zero_iff_involute():
    for n in range(1, 5):
        ds = all_diagrams(n)
        m = gram_exponents(n)
        for i, b in enumerate(ds):
            for j, bp in enumerate(ds):
                assert (m[i][j] == 0) == (bp == involute_diagram(b))
        assert generic_structure_check(n)


def test_rank_examples():
    assert rank(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))) == 4
    g1 = gram_matrix(2, 1, scaled=True)
    assert rank(g1) == 1  # all-ones matrix
    g5 = gram_matrix(2, 5, scaled=True)
    assert rank(g5) == 3


def _fraction_rank(mat) -> int:
    """Gauss-Jordan elimination over Fraction: the rank oracle over Q."""
    m = [[Fraction(x) for x in row] for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_mod_p():
    mat = ((2, 4), (1, 2))
    assert len(rank_mod_p(mat, 5).columns) == 1
    assert len(rank_mod_p(((1, 0), (0, 3)), 3).columns) == 1
    assert len(rank_mod_p(((1, 2), (3, 4)), 7).columns) == 2


def _reference_rank_mod_p(matrix, p: int) -> int:
    """Row echelon over F_p on lists of residues, one row operation per
    list comprehension: the oracle for the packed-lane `rank_mod_p`."""
    m = [[x % p for x in row] for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        inv = pow(top[c], -1, p)
        for i in range(r + 1, rows):
            if m[i][c]:
                f = m[i][c] * inv % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], top)]
        r += 1
    return r


_RANK_PRIMES = (2, 3, 7, 2**31 - 1, _SCREEN_PRIME)


@st.composite
def _integer_matrices(draw):
    """Rectangular (possibly empty) matrices with negative and huge entries,
    some rows and columns zeroed and some rows rational combinations of
    others."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.sets(st.integers(0, 6), max_size=3)):
        if i < rows:
            m[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, 6), max_size=3)):
        for row in m:
            if j < cols:
                row[j] = 0
    if rows >= 2 and draw(st.booleans()):
        a, b, c = draw(st.integers(-3, 3)), draw(st.integers(-3, 3)), draw(st.integers(1, 4))
        m.append([a * x + b * y for x, y in zip(m[0], m[1])])
        m[0] = [c * x for x in m[0]]  # the new row is (a/c) m[0] + b m[1]
    return m


@given(_integer_matrices(), st.sampled_from(_RANK_PRIMES))
@example([], 2)
@example([[], []], _SCREEN_PRIME)
@example([[0, 0], [0, 0]], 7)
@settings(max_examples=300, deadline=None)
def test_rank_mod_p_matches_the_list_echelon(matrix, p):
    assert len(rank_mod_p(matrix, p).columns) == _reference_rank_mod_p(matrix, p)


def test_rank_mod_p_matches_the_list_echelon_on_gram_matrices():
    for n in range(5):
        for delta in range(-8, 9):
            if delta:
                g = gram_matrix(n, delta, scaled=True)
                for p in (3, 5, 7, _SCREEN_PRIME):
                    assert len(rank_mod_p(g, p).columns) == _reference_rank_mod_p(g, p), (n, delta, p)


def test_rank_mod_p_lanes_do_not_carry_at_the_worst_case():
    """Pivot rows t_k = (0, ..., 0, 1, p-1, ..., p-1) with the 1 in column
    k, then v = sum t_k: every update adds (p-1) * t_k, so the last lane of v
    takes cols - 1 increments of (p-1)^2, the growth the lane width is sized
    for.  v is in the span; v plus one in its last entry is not.  With 300
    columns bits(cols) = 9 widens the lane past what 255 columns need."""
    cols = 300
    for p in _RANK_PRIMES:
        pivots = [[0] * k + [1] + [p - 1] * (cols - 1 - k) for k in range(cols - 1)]
        v = [sum(col) % p for col in zip(*pivots)]
        w = v[:-1] + [v[-1] + 1]
        for last, expected in ((v, cols - 1), (w, cols)):
            m = pivots + [last]
            assert len(rank_mod_p(m, p).columns) == _reference_rank_mod_p(m, p) == expected
        full = [[p - 1] * cols for _ in range(4)]
        assert len(rank_mod_p(full, p).columns) == _reference_rank_mod_p(full, p) == 1


@given(_integer_matrices(), st.sampled_from(_RANK_PRIMES))
@settings(max_examples=200, deadline=None)
def test_column_relations_of_the_echelon_hold_mod_p(matrix, p):
    """Back-substitution: each non-pivot column is its relations' combination
    of the pivot columns, mod p, in every row."""
    echelon = rank_mod_p(matrix, p)
    if matrix and matrix[0]:
        free, relations = _relations(echelon, len(matrix[0]))
        assert sorted(free + echelon.columns) == list(range(len(matrix[0])))
        for c, coefficients in zip(free, relations):
            for row in matrix:
                assert (sum(a * row[k] for a, k in zip(coefficients, echelon.columns)) - row[c]) % p == 0


@given(_integer_matrices())
@example([[_SCREEN_PRIME, 0], [0, 1]])
@settings(max_examples=300, deadline=None)
def test_rank_over_q_matches_fraction_elimination(matrix):
    assert rank(matrix) == _fraction_rank(matrix)


def _screens(monkeypatch) -> list[int]:
    """The primes of every `rank_mod_p` call from now on, in order."""
    primes = []
    screen = gram.rank_mod_p

    def counted(matrix, p):
        primes.append(p)
        return screen(matrix, p)

    monkeypatch.setattr(gram, "rank_mod_p", counted)
    return primes


P, Q, R = _SCREEN_PRIME, 67_108_837, 67_108_819  # the first three screen primes


def test_rank_over_q_screens_more_primes_without_a_certificate(monkeypatch):
    screens = _screens(monkeypatch)
    # deficient only mod the screen prime: no relation among the columns
    # exists, and the rank is full mod Q
    assert rank([[P, 0], [0, 1]]) == 2
    assert screens == [P, Q]
    # column 1 is 10007/9973 times column 0, past the reconstruction bound
    # sqrt(P/2) in both numerator and denominator; rank 1 mod P and mod Q,
    # and (PQ)^2 is past the Hadamard bound 2^2 (5 * 10007)^4
    assert isqrt(P // 2) < 9973
    screens.clear()
    assert rank([[9973, 10007], [-2 * 9973, -2 * 10007], [5 * 9973, 5 * 10007]]) == 1
    assert screens == [P, Q]
    # a relation with denominator 2 is reconstructed: one screen
    screens.clear()
    assert rank([[2, 1], [4, 2], [6, 3]]) == 1
    assert screens == [P]
    # column 4 is (1, k, k^2, k^3) on the unimodular columns 0-3: an integral
    # relation with an entry past sqrt(P/2) is not reconstructed
    k = 300
    assert isqrt(P // 2) < k**3 < P // 2
    bidiagonal = [[1, 0, 0, 0, 1], [-k, 1, 0, 0, 0], [0, -k, 1, 0, 0], [0, 0, -k, 1, 0], [0, 0, 0, 0, 0]]
    screens.clear()
    assert rank(bidiagonal) == 4
    assert screens == [P, Q]


def test_certificate_packs_the_columns_once(monkeypatch):
    packs = []
    pack = gram._packed_columns

    def counted(matrix, size):
        packs.append(size)
        return pack(matrix, size)

    monkeypatch.setattr(gram, "_packed_columns", counted)
    screens = _screens(monkeypatch)
    # the relation has denominator D = 2, found before the one check
    assert rank([[2, 1], [4, 2], [6, 3]]) == 1
    assert packs == [4] and screens == [P]
    # the Gram matrix at delta = -1, n = 4 has D = 2 as well
    packs.clear()
    screens.clear()
    assert rank(gram_matrix(4, -1, scaled=True)) == 91
    assert len(packs) == 1 and screens == [P]


# the deficient char-0 levels (n, delta) with n <= 4 and |delta| <= 8, and
# their ranks
_DEFICIENT = {(2, -2): 2, (2, 1): 1,
              (3, -4): 14, (3, -2): 5, (3, 1): 1, (3, 2): 10,
              (4, -6): 104, (4, -4): 84, (4, -2): 14, (4, -1): 91, (4, 1): 1, (4, 2): 35, (4, 3): 91}


def test_char_zero_levels_are_certified_without_bareiss(monkeypatch):
    screen = gram.rank_mod_p

    def refuse(matrix, p):
        if p != P:
            raise AssertionError(f"screened mod {p}")
        return screen(matrix, p)

    monkeypatch.setattr(gram, "rank_mod_p", refuse)
    levels = {-8: None, -7: None, -6: 4, -5: None, -4: 3, -3: None, -2: 2, -1: 4,
              1: 2, 2: 3, 3: 4, 4: None, 5: None, 6: None, 7: None, 8: None}
    for delta, level in levels.items():
        assert first_degenerate_level(BrauerParams(0, IntegerDelta(delta)), 4) == level, delta
    # every level, past the first degenerate one too: delta = -1 at n = 4
    # needs the denominator D = 2
    for n in range(5):
        for delta in levels:
            expected = _DEFICIENT.get((n, delta), len(all_diagrams(n)))
            assert level_rank(BrauerParams(0, IntegerDelta(delta)), n) == expected, (n, delta)


def test_levels_deficient_only_mod_the_screen_primes_have_full_rank(monkeypatch):
    # delta = a + kP is a degenerate value a mod P, and with |k| <= 64 its
    # entries stay within 128 bits at n = 4, so the certificate runs and
    # fails; the screen mod Q is full
    for (n, a) in _DEFICIENT:
        for k in (-64, -1, 1, 63):
            assert level_rank(BrauerParams(0, IntegerDelta(a + k * P)), n) == len(all_diagrams(n)), (n, a, k)
    # 1 + PQ is 1 mod P and mod Q, where the rank is 1: the third prime
    # settles it
    screens = _screens(monkeypatch)
    for n in (2, 3):
        screens.clear()
        assert level_rank(BrauerParams(0, IntegerDelta(1 + P * Q)), n) == len(all_diagrams(n))
        assert screens == [P, Q, R]


def test_rank_dispatches_on_prime_field_entries():
    m = tuple(
        tuple(PrimeFieldElement(5, v) for v in row) for row in ((2, 4), (1, 2))
    )
    assert rank(m) == 1


def test_first_degenerate_level_char_zero():
    cases = {1: 2, -2: 2, 2: 3, -4: 3, -1: 4, 3: 4}
    for d, level in cases.items():
        spec = BrauerParams(0, IntegerDelta(d))
        assert first_degenerate_level(spec, 4) == level
    assert first_degenerate_level(BrauerParams(0, IntegerDelta(5)), 4) is None


def test_first_degenerate_level_char_p():
    spec = BrauerParams(5, IntegerDelta(2))
    assert first_degenerate_level(spec, 3) == 3
    # scanning past the evaluability cap n_1 = p - 1 is rejected
    with pytest.raises(ParameterError):
        first_degenerate_level(spec, 5)


def test_a_bound_at_the_cap_with_no_witness_is_not_degenerate():
    # in characteristic 3 at delta = 2 the bound m = 2 is the cap n_1 = p - 1
    # alone: level 2 is the last semisimple level, and neither the Gram form
    # nor a weight degenerates up to it
    spec = BrauerParams(3, IntegerDelta(2))
    verdict = decide(spec)
    assert verdict.m == 2 and verdict.witness is None
    assert first_degenerate_level(spec, 2) is None
    assert vanishing_level(spec, 2) is None


def test_first_degenerate_level_validates():
    with pytest.raises(ParameterError):
        first_degenerate_level(BrauerParams(0, IntegerDelta(0)), 4)
    # a scan over no level would report a vacuous pass
    for n_max in (1, 0, -3):
        with pytest.raises(ParameterError):
            first_degenerate_level(BrauerParams(0, IntegerDelta(2)), n_max)


def test_level_rank_respects_the_n1_cap():
    spec = BrauerParams(3, IntegerDelta(1))
    assert level_rank(spec, 2) == 1  # delta = 1: the all-ones matrix
    with pytest.raises(ParameterError):
        level_rank(spec, 3)


def test_rank_over_q_past_the_budget_raises_before_bareiss():
    # PQ divides the first entry, so both screens have rank 1, and the
    # Hadamard bound 2^2 (PQ 2^300)^4, about 2^1410, needs more than the
    # 24 primes whose squared product is about 2^1248
    with pytest.raises(ParameterError, match=f"mod 2 primes, P = {P} down to {Q}, give rank at most 1.*more than 24"):
        rank([[P * Q * 2**300, 0], [0, 1]])
    # a 226-bit entry is past the certificate's budget, and the screen mod Q
    # is full
    assert rank([[P * 2**200, 0], [0, 1]]) == 2
    # a full screen needs no exact step, whatever the size of the entries
    assert rank([[P * 2**200 + 1, 0], [0, 1]]) == 2


def test_rank_over_q_needs_no_row_budget(monkeypatch):
    screens = _screens(monkeypatch)
    # the screen mod P is zero and no certificate holds; mod Q it is full
    for rows in (105, 106):
        assert rank([[P if i == j else 0 for j in range(rows)] for i in range(rows)]) == rows
    assert screens == [P, Q, P, Q]
    # delta = P screens as delta = 0 mod P, and its 130-bit entries are past
    # the certificate's budget; a 945-row level has full rank mod Q
    screens.clear()
    assert level_rank(BrauerParams(0, IntegerDelta(P)), 5) == 945
    assert screens == [P, Q]
