"""Tests for trace-form Gram matrices and exact rank computations."""

import re
import sys
import tracemalloc
from fractions import Fraction
from math import factorial, isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagalg import gram
from diagalg.branching import double_factorial_odd
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
    assert gram_exponents(0) == (bytes([0]),)
    assert gram_exponents(1) == (bytes([1]),)
    m = gram_exponents(2)
    assert len(m) == 3
    # symmetric, diagonal n (tr(b b*) = delta^0), off-diagonal <= n
    for i in range(3):
        assert m[i][i] == 2
        for j in range(3):
            assert m[i][j] == m[j][i]
            assert m[i][j] <= 2


def test_gram_exponents_of_level_five_take_about_a_megabyte():
    # 945 rows of 945 bytes, where a tuple of tuples of ints takes about 7 MB
    rows = gram_exponents(5)
    assert len(rows) == 945 and all(type(row) is bytes and len(row) == 945 for row in rows)
    assert sum(map(sys.getsizeof, rows)) < 1.2e6


def _reference_exponent(a, b) -> int:
    """k(a, b) = cycles(a + flip(b)) - n, flip(v) = v +- n, with
    tr(a * b) = delta^k:
    closing a * b joins a's top row to b's bottom row, so b read upside down
    shares a's vertices and each cycle of the two matchings is one loop."""
    n = len(a) // 2
    flip = [v + n if v < n else v - n for v in range(2 * n)]
    mb = [0] * (2 * n)
    for v, w in enumerate(b):
        mb[flip[v]] = flip[w]
    seen = [False] * (2 * n)
    cycles = 0
    for v0 in range(2 * n):
        if seen[v0]:
            continue
        cycles += 1
        v = v0
        while not seen[v]:
            w = a[v]
            seen[v] = seen[w] = True
            v = mb[w]
    return cycles - n


def test_gram_exponents_match_cycle_count_reference():
    for n in range(5):
        ds = all_diagrams(n)
        expected = tuple(bytes(_reference_exponent(a, b) + n for b in ds) for a in ds)
        rows = gram_exponents(n)
        assert rows == expected
        assert all(type(row) is bytes and len(row) == double_factorial_odd(n) for row in rows)


def test_gram_exponents_compose_one_pair_per_transpose_star_orbit(monkeypatch):
    # k(a, b) = k(b, a) = k(a*, b*) = k(b*, a*): one composition per orbit
    calls = []
    compose = gram.compose_diagrams
    monkeypatch.setattr(gram, "compose_diagrams", lambda a, b: calls.append((a, b)) or compose(a, b))
    for n, expected in enumerate((1, 1, 6, 76, 2965)):
        ds = all_diagrams(n)
        star = [ds.index(involute_diagram(d)) for d in ds]
        orbits = {
            frozenset({(i, j), (j, i), (star[i], star[j]), (star[j], star[i])})
            for i in range(len(ds))
            for j in range(len(ds))
        }
        calls.clear()
        gram_exponents.__wrapped__(n)
        assert len(calls) == len(orbits) == expected


def test_gram_matrix_values_small():
    g = gram_matrix(2, Fraction(5))
    assert g[0][0] == 1
    assert all(g[i][j] in (1, Fraction(1, 5)) for i in range(3) for j in range(3))
    # an int delta gives the same exact entries, never floats
    assert gram_matrix(2, 5) == g
    assert all(type(x) in (int, Fraction) for row in gram_matrix(2, 5) for x in row)
    # each row reads delta^(c + shift) through its exponent bytes: by
    # length, iteration, index and as a column of zip(*matrix)
    for n in range(4):
        rows = gram_exponents(n)
        for delta, scaled in ((3, True), (3, False), (Fraction(-2, 3), False), (PrimeFieldElement(7, 3), True)):
            base = Fraction(delta) if isinstance(delta, int) and not scaled else delta
            expected = [[base ** (c + (0 if scaled else -n)) for c in row] for row in rows]
            matrix = gram_matrix(n, delta, scaled)
            assert len(matrix) == len(rows)
            for row, want in zip(matrix, expected):
                assert len(row) == len(want) and list(row) == want
                assert [row[j] for j in range(len(row))] == want
                assert all(type(x) is type(base) for x in row)
            assert list(zip(*matrix)) == list(zip(*expected))


def test_gram_structure_k_zero_iff_involute():
    for n in range(1, 5):
        ds = all_diagrams(n)
        m = gram_exponents(n)
        for i, b in enumerate(ds):
            for j, bp in enumerate(ds):
                assert (m[i][j] == n) == (bp == involute_diagram(b))
        assert generic_structure_check(n)


def _partitions(n: int, top: int | None = None):
    """The partitions of n with parts at most `top`, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, top or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _standard_tableaux(shape) -> int:
    """f^shape by the hook length formula."""
    columns = [sum(1 for part in shape if part > j) for j in range(shape[0])] if shape else []
    hooks = prod(part - j + columns[j] - i - 1 for i, part in enumerate(shape) for j in range(part))
    return factorial(sum(shape)) // hooks


def _spectrum_rank(n: int, delta: int, p: int) -> int:
    """The sum of f^(2 lambda) over the lambda |- n with no cell (i, j),
    1-based, where delta = i + 1 - 2j, mod p when p is nonzero: the rank of
    the trace form on Br_n(delta) for p > 2n (Hanlon and Wales 1989; the
    hook length formula, Macdonald VII.2)."""
    def alive(shape):
        contents = (i + 1 - 2 * j - delta for i, part in enumerate(shape, 1) for j in range(1, part + 1))
        return all(c % p if p else c for c in contents)

    return sum(_standard_tableaux(tuple(2 * part for part in shape)) for shape in _partitions(n) if alive(shape))


def test_gram_ranks_match_the_spectrum_of_the_trace_form():
    for n in range(1, 5):
        for delta in range(-8, 9):
            if delta:
                for p in (0, 11, 13):
                    g = gram_matrix(n, delta % p if p else delta, scaled=True)
                    assert rank(g, p) == _spectrum_rank(n, delta, p), (n, delta, p)


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


@given(_integer_matrices(), st.sampled_from(_RANK_PRIMES))
@example([[0, 0], [0, 0]], 7)
@settings(max_examples=200, deadline=None)
def test_rank_mod_p_reads_prime_field_entries_in_place(matrix, p):
    # the pivot columns of a matrix over F_p are those of its values
    field = [[PrimeFieldElement(p, v) for v in row] for row in matrix]
    values = [[x.value for x in row] for row in field]
    assert rank_mod_p(field, p).columns == rank_mod_p(values, p).columns


def test_rank_mod_p_matches_the_list_echelon_on_gram_matrices():
    for n in range(5):
        for delta in range(-8, 9):
            if delta:
                g = gram_matrix(n, delta, scaled=True)
                for p in (3, 5, 7, _SCREEN_PRIME):
                    assert len(rank_mod_p(g, p).columns) == _reference_rank_mod_p(g, p), (n, delta, p)


def test_gram_rows_pack_as_their_entries_do():
    # a GramRow is packed straight from its exponent bytes; the echelon,
    # pivot columns and lanes, is that of the same entries as plain lists
    for n in range(5):
        for delta in range(-8, 9):
            for p in (2, 3, 5, 7, 11, 13, _SCREEN_PRIME) if delta else ():
                for entries in (delta, PrimeFieldElement(p, delta)):
                    g = gram_matrix(n, entries, scaled=True)
                    assert rank_mod_p(g, p) == rank_mod_p([list(row) for row in g], p), (n, delta, p, entries)


def _worst_case(p: int, cols: int) -> list[list[int]]:
    """Pivot rows t_k = (0, ..., 0, 1, p-1, ..., p-1) with the 1 in column
    k, then v = sum t_k: every update adds (p-1) * t_k, so the last lane of v
    takes cols - 1 increments of (p-1)^2, the growth the lane width is sized
    for.  v is in the span, so the rank is cols - 1."""
    pivots = [[0] * k + [1] + [p - 1] * (cols - 1 - k) for k in range(cols - 1)]
    return pivots + [[sum(col) % p for col in zip(*pivots)]]


def test_rank_mod_p_lanes_do_not_carry_at_the_worst_case():
    """v of `_worst_case` is in the span; v plus one in its last entry is
    not.  With 300 columns bits(cols) = 9 widens the lane past what 255
    columns need."""
    cols = 300
    for p in _RANK_PRIMES:
        m = _worst_case(p, cols)
        assert len(rank_mod_p(m, p).columns) == _reference_rank_mod_p(m, p) == cols - 1
        m[-1][-1] += 1
        assert len(rank_mod_p(m, p).columns) == _reference_rank_mod_p(m, p) == cols
        full = [[p - 1] * cols for _ in range(4)]
        assert len(rank_mod_p(full, p).columns) == _reference_rank_mod_p(full, p) == 1


def test_rank_mod_p_lanes_do_not_carry_at_each_lane_size_boundary():
    # a lane stays at most (p-1) + cols (p-1)^2: the largest cols for which
    # that fits in 1 or 2 bytes takes that lane, and one column more takes
    # the next size; the worst case does not carry at either
    for p in (2, 3, 5, 17):
        for size in (1, 2):
            top = ((1 << 8 * size) - 1 - (p - 1)) // (p - 1) ** 2
            if not 0 < top <= 300:  # p = 17 fits no column in a byte; p <= 5 fit thousands in 2
                continue
            for cols, width in ((top, 8 * size), (top + 1, 16 * size)):
                m = _worst_case(p, cols)
                echelon = rank_mod_p(m, p)
                assert echelon.width == width and len(echelon.columns) == cols - 1, (p, cols)
                m[-1][-1] += 1
                echelon = rank_mod_p(m, p)
                assert echelon.width == width and len(echelon.columns) == cols, (p, cols)


@given(_integer_matrices(), st.sampled_from(_RANK_PRIMES))
@settings(max_examples=200, deadline=None)
def test_column_relations_of_the_echelon_hold_mod_p(matrix, p):
    """Back-substitution: each non-pivot column is its relations' combination
    of the pivot columns, mod p, in every row."""
    echelon = rank_mod_p(matrix, p)
    if matrix and matrix[0]:
        free = [c for c in range(len(matrix[0])) if c not in echelon.columns]
        relations = _relations(echelon, len(matrix[0]))
        assert sorted(free + echelon.columns) == list(range(len(matrix[0]))) and len(relations) == len(free)
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
    pack = gram._packed_column

    def counted(column, size):
        packs.append(size)
        return pack(column, size)

    monkeypatch.setattr(gram, "_packed_column", counted)
    screens = _screens(monkeypatch)
    # the relation has denominator D = 2, found before the one check: the
    # pivot column and the free column are packed once each, in the one size
    # that fits D = 2, the lifted relation D X = 1 and entries up to 6
    assert rank([[2, 1], [4, 2], [6, 3]]) == 1
    assert packs == [gram._lane_size(1, 1, 2, 6)] * 2 and screens == [P]
    # the Gram matrix at delta = -1, n = 4 has D = 2 as well
    packs.clear()
    screens.clear()
    assert rank(gram_matrix(4, -1, scaled=True)) == 91
    assert len(packs) == 105 and len(set(packs)) == 1 and screens == [P]


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
    assert rank(m, 5) == 1
    with pytest.raises(ParameterError, match="^a matrix over F_5 cannot be ranked over F_7$"):
        rank(m, 7)


def test_rank_refuses_malformed_matrices():
    five, seven = PrimeFieldElement(5, 1), PrimeFieldElement(7, 1)
    # a ragged row, after the rank is already full or past its lanes
    with pytest.raises(ParameterError, match="^the matrix is ragged: row 1 has 2 entries and row 0 has 1$"):
        rank([[1], [2, 3]])
    with pytest.raises(ParameterError, match="^the matrix is ragged: row 1 has 3 entries and row 0 has 2$"):
        rank([[0, 0], [0, 1, 5]])
    # two fields, in one row or in two
    with pytest.raises(ParameterError, match=r"^the entry PrimeFieldElement\(p=7, value=1\) in row 0 cannot be ranked over F_5$"):
        rank([[five, seven], [five, five]])
    with pytest.raises(ParameterError, match=r"^the entry PrimeFieldElement\(p=7, value=1\) in row 1 cannot be ranked over F_5$"):
        rank([[five, five], [seven, seven]])
    # ints and PrimeFieldElements, either one first
    with pytest.raises(ParameterError, match="^a matrix of PrimeFieldElements has the entry 2 in row 1$"):
        rank([[five, five], [five, 2]])
    with pytest.raises(ParameterError, match=r"^a matrix of ints has the entry PrimeFieldElement\(p=5, value=1\) in row 0$"):
        rank([[1, five], [2, 3]], 5)
    with pytest.raises(ParameterError, match=r"^a matrix of ints has the entry PrimeFieldElement\(p=5, value=1\) in row 1$"):
        rank([[1, 2], [five, 3]])
    # Fractions and floats, which survive the reduction mod p, also after the rank is full
    with pytest.raises(ParameterError, match=r"^a matrix of ints has the entry Fraction\(1, 1\) in row 0$"):
        rank(gram_matrix(2, 5))
    with pytest.raises(ParameterError, match=r"^a matrix of ints has the entry 1\.5 in row 0$"):
        rank([[1.5, 1], [1, 2]])
    with pytest.raises(ParameterError, match=r"^a matrix of ints has the entry Fraction\(1, 2\) in row 2$"):
        rank([[1, 0], [0, 1], [Fraction(1, 2), 0]], 7)


def _refusal(matrix, p: int) -> str:
    with pytest.raises(ParameterError) as refused:
        rank(matrix, p)
    return str(refused.value)


def test_gram_rows_are_refused_as_their_entries_are():
    # a GramRow whose bytes name an entry of its power table that is not an
    # int, or not of the matrix's field, goes through the per-entry check:
    # the same text and row number as the same entries given as lists
    ints = gram_matrix(3, 4, scaled=True)
    five = gram_matrix(3, PrimeFieldElement(5, 4), scaled=True)
    assert rank(ints, 7) == rank(five) == 15
    seven = PrimeFieldElement(7, 3)

    def retabled(rows, c, entry):
        powers = list(rows[0].powers)
        powers[c] = entry
        return [gram.GramRow(row.exponents, tuple(powers)) for row in rows]

    cases = [
        # c = n = 3 is every row's diagonal entry, so row 0 names it
        (retabled(ints, 3, Fraction(64)), 7, r"a matrix of ints has the entry Fraction\(64, 1\) in row 0"),
        (retabled(ints, 2, None), 7, r"a matrix of ints has the entry None in row \d+"),
        (retabled(five, 1, seven), 5, r"the entry PrimeFieldElement\(p=7, value=3\) in row \d+ cannot be ranked over F_5"),
        # rows with a second table, bad from row 15 on, after the rank is full
        (ints + retabled(ints, 3, Fraction(1, 2)), 7, r"a matrix of ints has the entry Fraction\(1, 2\) in row 15"),
        (five + retabled(five, 3, 8), 5, "a matrix of PrimeFieldElements has the entry 8 in row 15"),
        (five + retabled(five, 3, seven), 5, r"the entry PrimeFieldElement\(p=7, value=3\) in row 15 cannot be ranked over F_5"),
        # a short row after the rank is full
        (ints + [gram.GramRow(ints[0].exponents[:-1], ints[0].powers)], 7,
         "the matrix is ragged: row 15 has 14 entries and row 0 has 15"),
    ]
    for rows, p, text in cases:
        refused = _refusal(rows, p)
        assert re.fullmatch(text, refused), refused
        assert refused == _refusal([list(row) for row in rows], p)
    # rows with two good tables pack as their entries do, also when the
    # second table's residues need fewer bytes of a lane than the first's
    for first, second, p in ((4, 2, 7), (300, 4, _SCREEN_PRIME)):
        mixed = gram_matrix(3, first, scaled=True)[:7] + gram_matrix(3, second, scaled=True)[7:]
        assert rank_mod_p(mixed, p) == rank_mod_p([list(row) for row in mixed], p), (first, second, p)


def test_rank_reads_a_prime_field_matrix_without_copying_it():
    # a 945 x 945 list of entries alone takes about 7 MB: the rows read the
    # cached exponent bytes through one power table, and the certificate
    # over Q packs one free column at a time
    gram_exponents(5)
    cases = (
        (lambda: rank(gram_matrix(5, PrimeFieldElement(7, 2), scaled=True)), 2e6),
        (lambda: level_rank(BrauerParams(0, IntegerDelta(2)), 5), 6e6),
    )
    for ranked, limit in cases:
        tracemalloc.start()
        try:
            assert ranked() == 126
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, peak


def test_rank_refuses_a_p_that_is_not_zero_or_a_prime():
    for p in (4, 1, -3, -2, 9):
        with pytest.raises(ParameterError, match=f"^p must be 0 or a prime, got {p}$"):
            rank([[1, 2], [2, 4]], p)
    assert rank([[1, 2], [2, 4]], 2) == rank([[1, 2], [2, 4]]) == 1


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
