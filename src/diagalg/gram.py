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

`rank_mod_p` packs each row into one Python int, entry c in the lane of
bits [c*w, (c+1)*w), w a whole number of bytes with w >= 2*bits(p) +
bits(cols) + 1 (rounded up to 4 or 8 bytes when it fits in 8, so that a
memoryview can read the lanes).  Rows come in one at a time.  Each pivot
row is stored reduced, lanes in [0, p) and 1 in its pivot lane, and is zero
in the pivot lanes of the pivots found before it; so reducing an incoming
row against the pivots in the order they were found costs, per pivot, one
lane extraction (x >> shift) & mask and one multiply-add x += g*t with
0 <= g < p.  A lane starts below p and gains less than p^2 per pivot, and
there are at most cols pivots, so it stays below p + cols*p^2 <= 2^w: no
lane carries into the next, and the rank is exact for every p.  The row is
then unpacked once; its first lane that is nonzero mod p makes it a new
pivot, and a row with none is dropped.

`level_rank` is the rank of one level at an integer delta, and
`first_degenerate_level` walks n = 2, 3, ... and reports the first level at
which the form degenerates.  Both check the level against the MAX_LEVEL
budget and, in characteristic p, against n_1 = p - 1 before enumerating
anything.
"""

from __future__ import annotations

import sys
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
    """Rank of an integer matrix over F_p by row-incremental echelon form on
    rows packed into one int each (see the module docstring)."""
    if not matrix or not matrix[0]:
        return 0
    cols = len(matrix[0])
    size = (2 * p.bit_length() + cols.bit_length() + 8) // 8  # bytes per lane
    if size <= 8:
        size = 4 if size <= 4 else 8  # a lane memoryview.cast can read
    width, length = 8 * size, size * cols
    mask = (1 << width) - 1
    fmt = {4: "I", 8: "Q"}.get(size) if sys.byteorder == "little" else None

    def pack(values) -> int:
        return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in values), "little")

    def residues(x: int) -> list[int]:
        data = x.to_bytes(length, "little")
        if fmt:
            lanes = memoryview(data).cast(fmt)
        else:
            lanes = (int.from_bytes(data[i : i + size], "little") for i in range(0, length, size))
        return [v % p for v in lanes]

    pivots = []  # (shift of the pivot lane, packed reduced row with 1 in that lane)
    for row in matrix:
        x = pack(v % p for v in row)
        for shift, t in pivots:
            g = -(x >> shift & mask) % p
            if g:
                x += g * t
        lanes = residues(x)
        c = next((c for c, v in enumerate(lanes) if v), None)
        if c is not None:
            inv = pow(lanes[c], -1, p)
            pivots.append((width * c, pack(v * inv % p for v in lanes)))
            if len(pivots) == cols:
                break
    return len(pivots)


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
    index = {d: i for i, d in enumerate(ds)}
    return all(
        max(row) <= 0 and row.count(0) == 1 and row[index[involute_diagram(b)]] == 0
        for b, row in zip(ds, gram_exponents(n))
    )


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
