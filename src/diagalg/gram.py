"""Gram matrices of the Markov trace on Br_n(delta), and their exact ranks.

The bilinear form is (b, b') -> tr(b * b'); on diagrams the value is a pure
power delta^k with k = loops(b, b') + cycles(b b') - n <= 0, and k = 0
exactly when b' = b*.  Scaling the matrix by delta^n clears denominators, so
for integral delta the scaled Gram matrix is an integer matrix.  Matrices are
plain lists of rows.  `rank` takes entries that are ints or
PrimeFieldElements of one field F_p.  `gram_matrix` gives entries of
delta's type (int, Fraction or PrimeFieldElement), except that an unscaled
matrix at an int delta has Fraction entries, never floats.

`rank` is the one entry point, and every rank is one modular elimination:
`rank_mod_p`, row echelon form over F_p, which returns the echelon (the
pivot column of each pivot row, and the rows).  Over Q the eliminations run
mod the screen primes: P = _SCREEN_PRIME, then the primes below it.  The
rank r mod any prime is at most the rank over Q, since a minor that is
nonzero mod a prime is nonzero over Z, so a full r settles it.  A deficient
screen mod P is certified from the other side.  Back-substitution gives,
for the pivot columns C and the others C', the X with G[:, C] X = G[:, C']
mod P.  X is rationally reconstructed first (Wang, Guy and Davenport,
SIGSAM Bull. 16, 1982): one denominator D <= sqrt(P/2) is found with every
entry of X congruent to a fraction whose numerator is at most sqrt(P/2) and
whose denominator divides D, and D = 1 when every residue of X is small
already.  Then D G[:, C'] = G[:, C] (D X), with D X lifted to symmetric
residues, is checked exactly over Z; if it holds, every column is a
combination of the r columns C, and the rank over Q is exactly r.  Only
when no D exists or the identity fails does the matrix go on to further
screens, each a prime below the last (Cabay, SYMSAM 1971), and r becomes
the largest rank seen; the Hadamard bound in `rank` says when they have
settled it.  Both steps run within a budget: the certificate only on
entries of at most CERTIFY_MAX_BITS bits, and the screens only while the
bound needs at most MAX_SCREENS primes; past it the rank raises
ParameterError (for example delta = -1 - P*Q at n = 4, which is -1 mod P
and mod Q and has 208-bit entries).

Every answer is exact whatever P is: a P that divides a minor, or relations
with large numerators or denominators, only send the matrix to further
screens, or past the budget to an error.
Every trace Gram level with n <= 5 and |delta| <= 12 is certified by P the
largest prime below 2^26, and D is 1, 2 or 12 on each deficient one.  A
Gram level that is deficient over Q has delta a root, |delta| <= 8 at
n <= 5, so every such level is certified mod P; only arbitrary matrices can
be deficient over Q, uncertified and past the budget of screens, such as a
105 x 105 matrix of rank 104 with 128-bit entries.  Every screen prime is
below 2^26, so 2*bits(q) + bits(cols) + 1 <= 64 up to 2047 columns, and
every lane of the elimination below is 8 bytes, which a memoryview reads.

`rank_mod_p` packs each row into one Python int, entry c in the lane of
bits [c*w, (c+1)*w), w a whole number of bytes with w >= 2*bits(p) +
bits(cols) + 1 (rounded up to 4 or 8 bytes when it fits in 8).  Rows come
in one at a time.  Each pivot row is stored reduced, lanes in [0, p) and 1
in its pivot lane, and is zero in the pivot lanes of the pivots found before
it; so reducing an incoming row against the pivots in the order they were
found costs, per pivot, one lane extraction (x >> shift) & mask and one
multiply-add x += g*t with 0 <= g < p.  A lane starts below p and gains less
than p^2 per pivot, and there are at most cols pivots, so it stays below
p + cols*p^2 <= 2^w: no lane carries into the next, and the rank is exact
for every p.  The row is then unpacked once; its first lane that is nonzero
mod p makes it a new pivot, and a row with none is dropped.
Back-substitution runs on the same lanes with the same bound.  The check
over Z packs each column of G once into signed lanes, one per row, wide
enough for every lane of the difference, so that each column of
G[:, C] (D X) costs one multiply-add per nonzero entry of D X.

`level_rank` is the rank of one level at an integer delta, and
`first_degenerate_level` walks n = 2, 3, ... and reports the first level at
which the form degenerates.  Both check the level against the MAX_LEVEL
budget and, in characteristic p, against n_1 = p - 1 before enumerating
anything.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import cache
from math import isqrt
from typing import NamedTuple

from .branching import double_factorial_odd
from .brauer import all_diagrams, compose_diagrams, full_closure_cycles, involute_diagram
from .exactalg import PrimeFieldElement, is_prime
from .weights import BrauerParams, IntegerDelta, ParameterError, n1_cap, validate_params

_SCREEN_PRIME = 67_108_859  # the largest prime below 2^26: the char-0 screen
MAX_LEVEL = 5  # (2*5-1)!! = 945 diagrams: the largest dense matrix built

# The budget of the exact work behind a deficient char-0 screen; a full
# screen needs none.  The certificate runs only on entries of at most
# CERTIFY_MAX_BITS bits, and the screens only while the Hadamard bound of
# `rank` needs at most MAX_SCREENS primes.  24 primes below 2^26 have a
# squared product past 2^1247, which proves a rank r of entries below 2^b
# whenever (r+1) (log2(r+1) + 2b) < 1247: every matrix of at most 7
# columns with entries below 2^73 (21 primes), or of rank 1 with entries
# below 2^310.  Every level with n <= 5 and delta = P, 64P, P - 1 or P - 2
# is settled by the second screen (each 3-5 s at n = 5 on a 2-vCPU VM);
# delta = -1 - P*Q, -1 mod both, exits 2 after it.
CERTIFY_MAX_BITS = 128
MAX_SCREENS = 24


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
    delta = delta if scaled or not isinstance(delta, int) else Fraction(delta)  # int ** -k is a float
    k = gram_exponents(n)
    powers = {e: delta ** (e + shift) for e in set().union(*k)}
    return [[powers[e] for e in row] for row in k]


_LANE_FORMATS = {4: "I", 8: "Q"} if sys.byteorder == "little" else {}


def _lane_bytes(bits: int) -> int:
    """Bytes per lane for lanes of at least `bits` bits: 4 or 8 when that
    is enough, so that array and memoryview read them natively."""
    size = (bits + 7) // 8
    return size if size > 8 else 4 if size <= 4 else 8


def _pack(values, size: int) -> int:
    """Nonnegative ints below 2^(8*size) as lanes of one int, the first
    value in the lowest lane."""
    fmt = _LANE_FORMATS.get(size)
    data = array(fmt, values).tobytes() if fmt else b"".join(v.to_bytes(size, "little") for v in values)
    return int.from_bytes(data, "little")


def _unpack(x: int, size: int, count: int):
    """The `count` lanes of the nonnegative int x, lowest first."""
    data = x.to_bytes(size * count, "little")
    fmt = _LANE_FORMATS.get(size)
    if fmt:
        return memoryview(data).cast(fmt)
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]


class Echelon(NamedTuple):
    """Row echelon form of an integer matrix over F_p, in packed lanes of
    `width` bits (see the module docstring).  The rank is len(columns)."""

    p: int
    width: int
    columns: list[int]  # the pivot column of each pivot row, in the order found
    rows: list[int]  # lanes in [0, p), 1 at its own pivot, 0 at the pivots before it


def rank_mod_p(matrix: list[list[int]], p: int) -> Echelon:
    """Row echelon form of an integer matrix over F_p by row-incremental
    elimination on rows packed into one int each (see the module docstring)."""
    cols = len(matrix[0]) if matrix else 0
    size = _lane_bytes(2 * p.bit_length() + cols.bit_length() + 1)
    width = 8 * size
    mask = (1 << width) - 1
    pivots = []  # (shift of the pivot lane, packed pivot row)
    for row in matrix:
        x = _pack([v % p for v in row], size)
        for shift, t in pivots:
            g = -(x >> shift & mask) % p
            if g:
                x += g * t
        lanes = [v % p for v in _unpack(x, size, cols)]
        c = next((c for c, v in enumerate(lanes) if v), None)
        if c is not None:
            inv = pow(lanes[c], -1, p)
            pivots.append((width * c, _pack([v * inv % p for v in lanes], size)))
            if len(pivots) == cols:
                break
    return Echelon(p, width, [shift // width for shift, _ in pivots], [t for _, t in pivots])


def _relations(echelon: Echelon, cols: int) -> tuple[list[int], list[list[int]]]:
    """The non-pivot columns C' and, for each, its coefficients on the pivot
    columns C mod p: the columns of X with G[:, C] X = G[:, C'] mod p.
    Back-substitution makes each pivot row zero at every other pivot, and
    its lanes at C' then form a row of X."""
    p, size, columns = echelon.p, echelon.width // 8, echelon.columns
    pivot = set(columns)
    free = [c for c in range(cols) if c not in pivot]
    reduced = [0] * len(columns)
    rows = [[]] * len(columns)
    for k in reversed(range(len(columns))):
        x = echelon.rows[k]
        lanes = _unpack(x, size, cols)
        for j in range(k + 1, len(columns)):
            g = -lanes[columns[j]] % p
            if g:
                x += g * reduced[j]
        rows[k] = [v % p for v in _unpack(x, size, cols)]
        reduced[k] = _pack(rows[k], size)
    return free, [[row[c] for row in rows] for c in free]


def _lane_size(count: int, top_x: int, d: int, top_g: int) -> int:
    """Bytes per signed lane wide enough for every lane of d G[:, c'] -
    G[:, C] x, for count pivot columns C, |x| <= top_x and |G| <= top_g."""
    return _lane_bytes(((count * top_x + d) * top_g).bit_length() + 1)


def _packed_columns(matrix, size: int) -> list[int]:
    """Each column of an integer matrix as one int of signed lanes of
    `size` bytes, one per row, the first row in the lowest lane."""
    bias = 1 << (8 * size - 1)
    ones = _pack([1] * len(matrix), size)
    return [_pack([v + bias for v in column], size) - bias * ones for column in zip(*matrix)]


def _combination_holds(packed: list[int], columns: list[int], free: list[int], x: list[list[int]], d: int) -> bool:
    """Whether d G[:, c'] = sum_k x[j][k] G[:, columns[k]] in the packed
    columns of G for each free column c' = free[j]: one multiply-add per
    nonzero coefficient and one comparison of packed ints.  A packed column
    is the exact sum of its entries times 2^(lane * row), so in lanes as
    wide as _lane_size asks the two ints are equal exactly when the columns
    are."""
    basis = [packed[c] for c in columns]
    for c, coefficients in zip(free, x):
        combination = 0
        for t, a in zip(basis, coefficients):
            if a:
                combination += a * t
        if combination != d * packed[c]:
            return False
    return True


def _common_denominator(x: list[list[int]], p: int) -> int | None:
    """A D <= sqrt(p/2) such that every entry of x is congruent mod p to a
    fraction a/b with |a| <= sqrt(p/2) and b dividing D, or None.  Each
    entry that D does not yet clear is reconstructed as a fraction a/b,
    |a|, b <= sqrt(p/2), by the extended Euclidean algorithm on p and D x
    stopped at the first remainder <= sqrt(p/2), and D takes the factor b."""
    bound = isqrt(p // 2)
    d = 1
    for coefficients in x:
        for v in coefficients:
            y = d * v % p
            if min(y, p - y) <= bound:
                continue
            r0, r1, t0, t1 = p, y, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            d *= abs(t1)
            if d > bound:
                return None
    return d


def _certified(matrix: list[list[int]], echelon: Echelon, top_g: int) -> bool:
    """Whether the pivot columns of a screen of `matrix`, whose entries are
    at most top_g in absolute value, span every column over Q, shown by one
    exact integer identity (see the module docstring): D G[:, C'] =
    G[:, C] (D X), with the columns of G packed once in lanes that fit
    every lane of the difference."""
    p, columns = echelon.p, echelon.columns
    free, relations = _relations(echelon, len(matrix[0]))
    d = _common_denominator(relations, p)
    if d is None:
        return False
    lifted = [[(d * v + p // 2) % p - p // 2 for v in coefficients] for coefficients in relations]
    top_x = max((max(map(abs, coefficients), default=0) for coefficients in lifted), default=0)
    size = _lane_size(len(columns), top_x, d, top_g)
    return _combination_holds(_packed_columns(matrix, size), columns, free, lifted, d)


def _screen_primes():
    """The screen primes over Q: P = _SCREEN_PRIME, which needs no test,
    then the primes below it in descending order."""
    yield _SCREEN_PRIME
    yield from (q for q in range(_SCREEN_PRIME - 1, 1, -1) if is_prime(q))


def rank(matrix: list[list], p: int = 0) -> int:
    """Exact rank of an integer matrix: over F_p for a prime p, over Q for
    p = 0.  A matrix of PrimeFieldElements is ranked over their field.

    Over Q the matrix is screened mod P, then mod the primes below it, and
    r is the largest rank seen.  A full screen returns r, and so does the
    first screen when its certificate holds (see the module docstring).
    Otherwise the Hadamard bound decides: every screened prime q has rank
    mod q <= r, so q divides every (r+1)-minor; a nonzero (r+1)-minor has
    absolute value at most (sqrt(r+1) max|g|)^(r+1); so once (prod q)^2 >
    (r+1)^(r+1) max|g|^(2r+2), every (r+1)-minor is zero and the rank over
    Q is exactly r.  The second screen always runs, since it settles a
    delta that is degenerate only mod P; after it, a bound that would need
    more than MAX_SCREENS primes raises ParameterError."""
    if matrix and matrix[0] and isinstance(matrix[0][0], PrimeFieldElement):
        p = matrix[0][0].p
        matrix = [[x.value for x in row] for row in matrix]
    if p:
        return len(rank_mod_p(matrix, p).columns)
    full = min(len(matrix), len(matrix[0])) if matrix else 0
    r, product = 0, 1
    for count, q in enumerate(_screen_primes(), 1):
        screen = rank_mod_p(matrix, q)
        r = max(r, len(screen.columns))
        if r == full:
            return r
        if count == 1:
            top_g = max(max(map(abs, row)) for row in matrix)
            if top_g.bit_length() <= CERTIFY_MAX_BITS and _certified(matrix, screen, top_g):
                return r
        product *= q
        bound = (r + 1) ** (r + 1) * top_g ** (2 * r + 2)
        if product**2 > bound:
            return r
        if count > 1 and (product * q ** (MAX_SCREENS - count)) ** 2 <= bound:
            raise ParameterError(
                f"the screens mod {count} primes, P = {_SCREEN_PRIME} down to {q}, give rank at most {r}, "
                f"below full, and the rank over Q is past the budget: no certificate holds, and the Hadamard "
                f"bound needs more than {MAX_SCREENS} primes"
            )


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
    """The integer delta of `params`, once level n is known to be at least 0,
    within the MAX_LEVEL budget and, in characteristic p, at most
    n_1 = p - 1 (beyond that the form's hook denominators are meaningless).
    Runs before any diagram is enumerated."""
    if not isinstance(params, BrauerParams) or not isinstance(params.delta, IntegerDelta):
        raise ParameterError("Gram ranks need a Brauer spec with integer delta")
    validate_params(params)
    if n < 0:
        raise ParameterError(f"level n = {n} is negative")
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
    return rank(gram_matrix(n, delta % p if p else delta, scaled=True), p)


def first_degenerate_level(params, n_max: int) -> int | None:
    """The first level 2 <= n <= n_max at which the trace form on Br_n(delta)
    degenerates, or None if it stays nondegenerate.

    `params` is a weights.BrauerParams with an IntegerDelta; characteristic
    p restricts to n_max <= p - 1.
    """
    if n_max < 2:
        raise ParameterError(f"n_max must be at least 2, got {n_max}")
    _checked_delta(params, n_max)
    for n in range(2, n_max + 1):
        if level_rank(params, n) < len(all_diagrams(n)):
            return n
    return None
