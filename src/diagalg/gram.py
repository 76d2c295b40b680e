"""Gram matrices of the Markov trace on Br_n(delta), and their exact ranks.

The bilinear form is (b, b') -> tr(b * b'); on diagrams the value is a pure
power delta^k with k = loops(b, b') + cycles(b b') - n <= 0, and k = 0
exactly when b' = b*.  Scaling the matrix by delta^n clears denominators, so
for integral delta the scaled Gram matrix is an integer matrix and ranks can
be computed fraction-free (Bareiss); over F_p a plain modular elimination is
used.  Matrices are plain lists of rows; entries may be int, Fraction,
PrimeFieldElement, or LaurentPoly, and the elimination dispatches on the
entry type for exact division.

`level_rank` is the rank of one level at an integer delta: for characteristic
zero it screens the level with a fast modular rank (full rank mod P
certifies full rank over Q) and only confirms genuine deficiencies with the
integer Bareiss elimination.  `first_degenerate_level` walks n = 2, 3, ...
and reports the first level at which the form degenerates.  Both refuse
levels past MAX_LEVEL before enumerating anything.
"""

from __future__ import annotations

from functools import cache

from .branching import double_factorial_odd
from .brauer import all_diagrams, compose_diagrams, full_closure_cycles, involute_diagram
from .exactalg import LaurentPoly, PrimeFieldElement
from .weights import BrauerParams, IntegerDelta, ParameterError, validate_params

_SCREEN_PRIME = 2**61 - 1  # a Mersenne prime, used only as a rank screen
MAX_LEVEL = 5  # (2*5-1)!! = 945 diagrams: the largest dense matrix built


@cache
def gram_exponents(n: int) -> tuple[tuple[int, ...], ...]:
    """The integer matrix k with tr(b_i * b_j) = delta^k[i][j]."""
    ds = all_diagrams(n)
    size = len(ds)
    k = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            d, loops = compose_diagrams(ds[i], ds[j])
            k[i][j] = k[j][i] = loops + full_closure_cycles(d) - n
    return tuple(tuple(row) for row in k)


def gram_matrix(n: int, delta, scaled: bool = False) -> list[list]:
    """The Gram matrix in the all_diagrams(n) basis; `scaled` multiplies by
    delta^n, making entries polynomial (integral for integral delta)."""
    shift = n if scaled else 0
    return [[delta ** (k + shift) for k in row] for row in gram_exponents(n)]


def gram_matrix_symbolic(n: int, scaled: bool = False) -> list[list[LaurentPoly]]:
    """Gram matrix over Z[delta^(+-1)] with delta a Laurent variable."""
    delta = LaurentPoly.monomial(1, variable="delta")
    return gram_matrix(n, delta, scaled)


def _is_zero(x) -> bool:
    if isinstance(x, LaurentPoly):
        return x.is_zero
    return x == 0


def _exact_div(a, b):
    """a / b when the division is exact in the entry domain."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise ArithmeticError("non-exact integer division in elimination")
        return q
    if isinstance(a, LaurentPoly):
        return a.exact_div(b if isinstance(b, LaurentPoly) else LaurentPoly.constant(b, a.variable))
    return a / b


def bareiss_rank(matrix: list[list]) -> int:
    """Rank by fraction-free Gaussian elimination with column pivoting."""
    m = [list(row) for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if not _is_zero(m[i][c])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        zero = m[r][c] - m[r][c]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = _exact_div(m[i][j] * m[r][c] - m[i][c] * m[r][j], prev)
            m[i][c] = zero
        prev = m[r][c]
        r += 1
    return r


def bareiss_det(matrix: list[list]):
    """Determinant by fraction-free elimination (exact in any domain)."""
    m = [list(row) for row in matrix]
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for c in range(size):
        piv = next((i for i in range(c, size) if not _is_zero(m[i][c])), None)
        if piv is None:
            return m[0][0] - m[0][0]
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, size):
            for j in range(c + 1, size):
                m[i][j] = _exact_div(m[i][j] * m[c][c] - m[i][c] * m[c][j], prev)
            m[i][c] = m[c][c] - m[c][c]
        prev = m[c][c]
    return m[size - 1][size - 1] * sign


def rank_mod_p(matrix: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over F_p by modular elimination."""
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
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return r


def rank(matrix: list[list]) -> int:
    """Exact rank for int/Fraction/LaurentPoly/PrimeFieldElement entries."""
    if matrix and matrix[0] and isinstance(matrix[0][0], PrimeFieldElement):
        p = matrix[0][0].p
        return rank_mod_p([[x.value for x in row] for row in matrix], p)
    return bareiss_rank(matrix)


def _scaled_integer_gram(n: int, delta: int) -> list[list[int]]:
    return [[delta ** (k + n) for k in row] for row in gram_exponents(n)]


def _rank_over_q(n: int, delta: int) -> int:
    """Rank of gram(n) at an integer delta != 0 over Q, with a modular screen."""
    m = _scaled_integer_gram(n, delta)
    screened = rank_mod_p(m, _SCREEN_PRIME)
    if screened == len(m):
        return screened  # full rank mod P certifies full rank over Q
    return bareiss_rank(m)


def generic_structure_check(n: int) -> bool:
    """Checks tr(b b') = delta^k with k <= 0, and k = 0 iff b' = b*.

    This is the structural reason the Gram determinant is nonzero for
    generic delta: the only delta^0 entries form a permutation matrix.
    """
    ds = all_diagrams(n)
    k = gram_exponents(n)
    for i, b in enumerate(ds):
        star = involute_diagram(b)
        for j, bp in enumerate(ds):
            if k[i][j] > 0:
                return False
            if (k[i][j] == 0) != (bp == star):
                return False
    return True


def generic_nonsingularity(n: int) -> bool:
    """Whether gram(n) is nonsingular over Q(delta).

    For n <= 3 the symbolic determinant is computed outright; for larger n a
    nonzero value at delta = 5 certifies the rational function is nonzero.
    """
    if n <= 3:
        det = bareiss_det(gram_matrix_symbolic(n, scaled=True))
        return not det.is_zero
    return _rank_over_q(n, 5) == len(all_diagrams(n))


def _integer_delta(params) -> int:
    if not isinstance(params, BrauerParams) or not isinstance(params.delta, IntegerDelta):
        raise ParameterError("Gram ranks need a Brauer spec with integer delta")
    validate_params(params)
    return params.delta.value


def _check_budget(n: int) -> None:
    """Rejects a level past MAX_LEVEL before any diagram is enumerated."""
    if n > MAX_LEVEL:
        count = double_factorial_odd(n) if n < 64 else f"{2 * n - 1}!!"
        raise ParameterError(
            f"level n = {n} has (2n-1)!! = {count} diagrams; Gram matrices are limited "
            f"to {double_factorial_odd(MAX_LEVEL)} diagrams (n <= {MAX_LEVEL})"
        )


def level_rank(params: BrauerParams, n: int) -> int:
    """Rank of the scaled Gram matrix of Br_n(delta) at the integer delta of
    `params`: over F_p by rank_mod_p on delta mod p in characteristic p,
    over Q by a modular screen confirmed by Bareiss in characteristic 0."""
    delta = _integer_delta(params)
    _check_budget(n)
    p = params.characteristic
    if p:
        return rank_mod_p(_scaled_integer_gram(n, delta % p), p)
    return _rank_over_q(n, delta)


def first_degenerate_level(params, n_max: int) -> int | None:
    """The first level 2 <= n <= n_max at which the trace form on Br_n(delta)
    degenerates, or None if it stays nondegenerate.

    `params` is a weights.BrauerParams with an IntegerDelta; characteristic
    p restricts to n_max <= p - 1 (beyond that the form's hook denominators
    are meaningless).
    """
    _integer_delta(params)
    p = params.characteristic
    if p and n_max > p - 1:
        raise ParameterError(f"n_max = {n_max} exceeds n_1 = {p - 1} in characteristic {p}")
    _check_budget(n_max)
    for n in range(2, n_max + 1):
        if level_rank(params, n) < len(all_diagrams(n)):
            return n
    return None
