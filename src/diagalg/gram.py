"""Gram matrices of the Markov trace on Br_n(delta), and their exact ranks.

The bilinear form is (b, b') -> tr(b * b'); on diagrams the value is a pure
power delta^k with k = loops(b, b') + cycles(b b') - n <= 0, and k = 0
exactly when b' = b*.  Scaling the matrix by delta^n clears denominators, so
for integral delta the scaled Gram matrix is an integer matrix.  Matrices are
plain lists of rows whose entries are ints (ranks over Q) or
PrimeFieldElements of one field F_p (ranks over F_p).

There is one elimination per field.  `rank_mod_p` is row echelon form over
F_p.  `bareiss_rank` is fraction-free elimination over Z (Bareiss, Math.
Comp. 22, 1968).  `rank` is the entry point: over Q it screens with a rank
mod a large prime (full rank mod P certifies full rank over Q) and runs
Bareiss only to confirm a deficiency.

`level_rank` is the rank of one level at an integer delta, and
`first_degenerate_level` walks n = 2, 3, ... and reports the first level at
which the form degenerates.  Both check the level against the MAX_LEVEL
budget and, in characteristic p, against n_1 = p - 1 before enumerating
anything.
"""

from __future__ import annotations

from functools import cache

from .branching import double_factorial_odd
from .brauer import all_diagrams, compose_diagrams, full_closure_cycles, involute_diagram
from .exactalg import PrimeFieldElement
from .weights import BrauerParams, IntegerDelta, ParameterError, n1_cap, validate_params

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
    delta^n, making entries polynomial (integral for integral delta).  Each
    distinct power of delta is computed once and shared by its entries."""
    shift = n if scaled else 0
    k = gram_exponents(n)
    powers = {e: delta ** (e + shift) for e in set().union(*k)}
    return [[powers[e] for e in row] for row in k]


def bareiss_rank(matrix: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = [list(row) for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        for i in range(r + 1, rows):
            row = m[i]
            for j in range(c + 1, cols):
                q, rem = divmod(row[j] * top[c] - row[c] * top[j], prev)
                if rem:
                    raise ArithmeticError("non-exact integer division in elimination")
                row[j] = q
            row[c] = 0
        prev = top[c]
        r += 1
    return r


def rank_mod_p(matrix: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over F_p by row echelon elimination."""
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


def rank(matrix: list[list]) -> int:
    """Exact rank: over F_p for PrimeFieldElement entries, over Q for ints."""
    if matrix and matrix[0] and isinstance(matrix[0][0], PrimeFieldElement):
        p = matrix[0][0].p
        return rank_mod_p([[x.value for x in row] for row in matrix], p)
    screened = rank_mod_p(matrix, _SCREEN_PRIME)
    if not matrix or screened == min(len(matrix), len(matrix[0])):
        return screened  # full rank mod P certifies full rank over Q
    return bareiss_rank(matrix)


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


def _checked_delta(params, n: int) -> int:
    """The integer delta of `params`, once level n is known to be within the
    MAX_LEVEL budget and, in characteristic p, at most n_1 = p - 1 (beyond
    that the form's hook denominators are meaningless).  Runs before any
    diagram is enumerated."""
    if not isinstance(params, BrauerParams) or not isinstance(params.delta, IntegerDelta):
        raise ParameterError("Gram ranks need a Brauer spec with integer delta")
    validate_params(params)
    if n > MAX_LEVEL:
        count = double_factorial_odd(n) if n < 64 else f"{2 * n - 1}!!"
        raise ParameterError(
            f"level n = {n} has (2n-1)!! = {count} diagrams; Gram matrices are limited "
            f"to {double_factorial_odd(MAX_LEVEL)} diagrams (n <= {MAX_LEVEL})"
        )
    cap = n1_cap(params)
    if cap is not None and n > cap:
        raise ParameterError(f"level n = {n} exceeds n_1 = {cap} in characteristic {params.characteristic}")
    return params.delta.value


def level_rank(params: BrauerParams, n: int) -> int:
    """Rank of the scaled Gram matrix of Br_n(delta) at the integer delta of
    `params`: over F_p on delta mod p in characteristic p, else over Q."""
    delta = _checked_delta(params, n)
    p = params.characteristic
    if p:
        return rank_mod_p(gram_matrix(n, delta % p, scaled=True), p)
    return rank(gram_matrix(n, delta, scaled=True))


def first_degenerate_level(params, n_max: int) -> int | None:
    """The first level 2 <= n <= n_max at which the trace form on Br_n(delta)
    degenerates, or None if it stays nondegenerate.

    `params` is a weights.BrauerParams with an IntegerDelta; characteristic
    p restricts to n_max <= p - 1.
    """
    _checked_delta(params, n_max)
    if n_max < 2:
        raise ParameterError(f"n_max must be at least 2, got {n_max}")
    for n in range(2, n_max + 1):
        if level_rank(params, n) < len(all_diagrams(n)):
            return n
    return None
