"""Gram matrices of the Markov trace on Br_n(delta), and their exact ranks.

The bilinear form is (b, b') -> tr(b * b'); on diagrams the value is a pure
power delta^(c - n), where c = c(b, b') = loops(b, b') + cycles(b b') is
the number of closed loops when b b' is closed up: c <= n, and c = n
exactly when b' = b*.  The exponents are symmetric under a group of four:
c(a, b) = c(b, a), because the Markov trace is a trace, and c(a, b) =
c(b*, a*) = c(a*, b*), because * is an anti-automorphism, (ab)* = b* a*,
that fixes the trace.  So `gram_exponents` composes one pair of diagrams
per orbit of {transpose, *} and writes the orbit's entries from it into
one bytearray per row, where 0 marks an entry not yet filled (c >= 1 for
n >= 1); each row is frozen to bytes at the end.  At n = 5 the 945 rows
take about 0.9 MB, where a tuple of tuples of ints takes about 7 MB.

Scaling the matrix by delta^n clears denominators: the scaled entry is
delta^c, so for integral delta the scaled Gram matrix is an integer
matrix.  A matrix is a list of rows.  `gram_matrix` gives one GramRow per
diagram, which holds the diagram's exponent bytes and the one table of the
powers of delta that occur, shared by every row; the row reads entry j as
the power at its byte j, one entry at a time, so no 945 x 945 list of
entries is ever built.  Entries are of delta's type (int, Fraction or
PrimeFieldElement), except that an unscaled matrix at an int delta has
Fraction entries, never floats.  `rank` takes rows of ints or of
PrimeFieldElements of one field F_p: GramRows or any sequences.  As it
packs a row, `rank_mod_p` reads each PrimeFieldElement's value in place, so
a matrix over F_p is never copied as ints, and it refuses a ragged row, or
an entry of another kind or field than the matrix's, with ParameterError.

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
below 2^26, so its lanes (below) are 8 bytes, which a memoryview reads, up
to 4096 columns.

`rank_mod_p` packs each row into one Python int, entry c in the lane of
bits [c*w, (c+1)*w), w the narrowest native lane of 8, 16, 32 or 64 bits
that holds (p-1) + cols*(p-1)^2, or a whole number of bytes past 64 bits:
2 bytes mod 7 at 945 columns, where the bound is 34,026.  Rows come in one
at a time.  A GramRow is packed straight from its exponent bytes: its power
table is checked once, entry by entry, and turned into one bytes.translate
table per byte of a lane that its residues need, so that a row costs one
translate per such byte into an interleaved bytearray (one mod 7, four mod
P) and no Python object per entry; a row that names an entry of its table
that fails the check, and every row that is not a GramRow, is read entry by
entry and refused with the same error.  Each pivot row is stored reduced,
lanes in [0, p) and 1 in its pivot lane, and is zero in the pivot lanes of
the pivots found before it; so reducing an incoming row against the pivots
in the order they were found costs, per pivot, one lane extraction and one
multiply-add x += g*t with 0 <= g < p.  A lane in the lower half of the row
is extracted as (x & low) >> shift, low the mask of the lanes up to it, and
one in the upper half as (x >> shift) & mask, so an extraction reads only
the lanes on its shorter side.  A lane starts at most p - 1 and gains at
most (p-1)^2 per pivot, and there are fewer than cols pivots, so it stays
at most (p-1) + cols*(p-1)^2 < 2^w: no lane carries into the next, and the
rank is exact for every p.  The row is then unpacked once and reduced mod
p; a row with no nonzero lane is dropped, and otherwise its first nonzero
lane makes it a new pivot.  Back-substitution runs on the same lanes with
the same bound, and keeps each back-substituted row packed until all are
done, then as its lanes, one row at a time: never a list of ints per row.
The check over Z lifts D X to symmetric residues in place and packs each
pivot column of G once into signed lanes, one per row, wide enough for
every lane of the difference, so that each column of G[:, C] (D X) costs
one multiply-add per nonzero entry of D X; each free column of G is packed
only while it is checked, so the check holds r packed columns, not one per
column of G.  The Hadamard bound and the lanes read max|g| of a GramRow
from the entries of its power table that its bytes name.

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
from itertools import repeat
from math import isqrt
from operator import getitem

from .branching import double_factorial_odd
from .brauer import all_diagrams, compose_diagrams, full_closure_cycles, involute_diagram
from .exactalg import PrimeFieldElement, Record, is_prime
from .weights import BrauerParams, IntegerDelta, ParameterError, rule

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
def involute_indices(n: int) -> tuple[int, ...]:
    """The index in all_diagrams(n) of the involute b* of each diagram b."""
    ds = all_diagrams(n)
    index = {d: i for i, d in enumerate(ds)}
    return tuple(index[involute_diagram(d)] for d in ds)


@cache
def gram_exponents(n: int) -> tuple[bytes, ...]:
    """One bytes row per diagram: row i holds c(b_i, b_j), the number of
    closed loops of b_i b_j closed up, so tr(b_i * b_j) = delta^(c - n).  One
    composition per {transpose, *} orbit of pairs fills a bytearray per row,
    where 0 marks an entry not yet filled (see the module docstring)."""
    ds = all_diagrams(n)
    star = involute_indices(n)
    size = len(ds)
    c = [bytearray(size) for _ in range(size)]
    for i in range(size):
        a, row, si = ds[i], c[i], star[i]
        for j in range(i, size):
            if not row[j]:
                d, loops = compose_diagrams(a, ds[j])
                sj = star[j]
                row[j] = c[j][i] = c[si][sj] = c[sj][si] = loops + full_closure_cycles(d)
    return tuple(map(bytes, c))


class GramRow(Record):
    """One row of a Gram matrix: entry j is powers[exponents[j]], read
    through the power table that every row of the matrix shares.  It has a
    length, integer indexing and iteration, which maps the exponent bytes
    through the table one entry at a time and builds no list."""

    __slots__ = ("exponents", "powers")
    exponents: bytes  # the row of gram_exponents(n)
    powers: tuple  # powers[c] = delta^(c + shift) for each c that occurs

    def __len__(self):
        return len(self.exponents)

    def __getitem__(self, j: int):
        return self.powers[self.exponents[j]]

    def __iter__(self):
        # operator.getitem reads a tuple about twice as fast as the tuple's
        # bound __getitem__, a slot wrapper
        return map(getitem, repeat(self.powers), self.exponents)


def gram_matrix(n: int, delta, scaled: bool = False) -> list[GramRow]:
    """The Gram matrix in the all_diagrams(n) basis; `scaled` multiplies by
    delta^n, making entries polynomial (integral for integral delta).  Each
    power of delta that occurs is computed once, into a table indexed by c,
    and each row reads its exponent bytes through it."""
    shift = 0 if scaled else -n
    delta = delta if scaled or not isinstance(delta, int) else Fraction(delta)  # int ** -k is a float
    rows = gram_exponents(n)
    powers = [None] * (n + 1)
    for c in range(n + 1):
        if any(c in row for row in rows):  # a byte search per row, where a set of every entry reads 893k at n = 5
            powers[c] = delta ** (c + shift)
    powers = tuple(powers)
    return [GramRow(row, powers) for row in rows]


_LANE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


def _lane_bytes(bits: int) -> int:
    """Bytes per lane for lanes of at least `bits` bits: 1, 2, 4 or 8 when
    that is enough, so that array and memoryview read them natively."""
    size = (bits + 7) // 8
    return size if size > 8 else 1 << (size - 1).bit_length()


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


class Echelon(Record):
    """Row echelon form of an integer matrix over F_p, in packed lanes of
    `width` bits (see the module docstring).  The rank is len(columns)."""

    __slots__ = ("p", "width", "columns", "rows")
    p: int
    width: int
    columns: list[int]  # the pivot column of each pivot row, in the order found
    rows: list[int]  # lanes in [0, p), 1 at its own pivot, 0 at the pivots before it


def _residues(row, i: int, cols: int, p: int, field: bool) -> list[int]:
    """Row i of a matrix as residues mod p: the values of a row of
    PrimeFieldElements, read in place, or the ints of a row reduced.  A row
    of another length than row 0, or an entry of another kind or another
    field than the matrix's, is a ParameterError; so is a Fraction or a float
    in a row of ints, which `%` reduces to its own type, caught by the type
    of the row's sum rather than by a test per entry."""
    if len(row) != cols:
        raise ParameterError(f"the matrix is ragged: row {i} has {len(row)} entries and row 0 has {cols}")
    try:
        residues = [v.value for v in row if v.p == p] if field else [v % p for v in row]
    except (AttributeError, TypeError):
        residues = None
    if residues is None or len(residues) != cols or not field and type(sum(residues)) is not int:
        kind = PrimeFieldElement if field else int
        odd = next(v for v in row if not isinstance(v, kind) or field and v.p != p)
        if isinstance(odd, PrimeFieldElement) and field:
            raise ParameterError(f"the entry {odd!r} in row {i} cannot be ranked over F_{p}")
        raise ParameterError(f"a matrix of {kind.__name__}s has the entry {odd!r} in row {i}")
    return residues


def _translations(powers: tuple, p: int, field: bool) -> tuple[bytes, list[bytearray]]:
    """How GramRows that read `powers` pack: the bytes c whose entry
    powers[c] is an int, or an element of F_p when `field`, each entry
    checked once; and for each byte k of a lane up to the last that some
    residue needs, the bytes.translate table that maps every such c to byte
    k of its residue."""
    kind = PrimeFieldElement if field else int
    residues = {
        c: v.value if field else v % p
        for c, v in enumerate(powers[:256])
        if type(v) is kind and (not field or v.p == p)
    }
    tables = [bytearray(256) for _ in range((max(residues.values(), default=0).bit_length() + 7) // 8)]
    for c, residue in residues.items():
        for k, table in enumerate(tables):
            table[c] = residue >> 8 * k & 255
    return bytes(residues), tables


def _packed_rows(matrix: list, cols: int, p: int, field: bool, size: int):
    """Each row of a matrix as residues mod p packed into lanes of `size`
    bytes, checked as `_residues` checks it.  A GramRow whose exponent
    bytes name only checked entries of its power table is packed straight
    from them, one bytes.translate per byte of a lane that its residues
    need, written into an interleaved bytearray whose other bytes stay 0;
    every other row goes through `_residues`, which refuses it with the same
    error as any row."""
    powers = None
    for i, row in enumerate(matrix):
        if type(row) is GramRow and len(row.exponents) == cols:
            if row.powers is not powers:
                powers = row.powers
                named, tables = _translations(powers, p, field)
                lanes = bytearray(size * cols)
            if not row.exponents.translate(None, named):
                for k, table in enumerate(tables):
                    lanes[k::size] = row.exponents.translate(table)
                yield int.from_bytes(lanes, "little")
                continue
        yield _pack(_residues(row, i, cols, p, field), size)


def rank_mod_p(matrix: list[list], p: int) -> Echelon:
    """Row echelon form over F_p of a matrix of ints, or of PrimeFieldElements
    of F_p, by row-incremental elimination on rows packed into one int each
    (see the module docstring).  Every row is checked as it is packed, also
    the rows after the rank is full."""
    cols = len(matrix[0]) if matrix else 0
    field = cols > 0 and isinstance(matrix[0][0], PrimeFieldElement)
    size = _lane_bytes((p - 1 + cols * (p - 1) ** 2).bit_length())
    width = 8 * size
    mask = (1 << width) - 1
    pivots = []  # (shift of the pivot lane, packed pivot row, mask of the lanes up to it or 0)
    for x in _packed_rows(matrix, cols, p, field, size):
        if len(pivots) == cols:
            continue
        for shift, t, low in pivots:
            g = -((x & low) >> shift if low else x >> shift & mask) % p
            if g:
                x += g * t
        lanes = [v % p for v in _unpack(x, size, cols)]
        if any(lanes):
            c = lanes.index(next(filter(None, lanes)))
            inv = pow(lanes[c], -1, p)
            low = (1 << width * (c + 1)) - 1 if 2 * c < cols else 0
            pivots.append((width * c, _pack([v * inv % p for v in lanes], size), low))
    return Echelon(p, width, [shift // width for shift, _, _ in pivots], [t for _, t, _ in pivots])


def _relations(echelon: Echelon, cols: int) -> list[list[int]]:
    """For each non-pivot column in C' = the columns not in C, in order, its
    coefficients on the pivot columns C mod p: the columns of X with
    G[:, C] X = G[:, C'] mod p.  Back-substitution makes each pivot row zero
    at every other pivot, and its lanes at C' then form a row of X."""
    p, size, columns = echelon.p, echelon.width // 8, echelon.columns
    pivot = set(columns)
    reduced = [0] * len(columns)
    for k in reversed(range(len(columns))):
        x = echelon.rows[k]
        lanes = _unpack(x, size, cols)
        for j in range(k + 1, len(columns)):
            g = -lanes[columns[j]] % p
            if g:
                x += g * reduced[j]
        reduced[k] = _pack([v % p for v in _unpack(x, size, cols)], size)
    for k, x in enumerate(reduced):
        reduced[k] = _unpack(x, size, cols)  # one row at a time, so the ints and the lanes are never all held
    return [[row[c] for row in reduced] for c in range(cols) if c not in pivot]


def _lane_size(count: int, top_x: int, d: int, top_g: int) -> int:
    """Bytes per signed lane wide enough for every lane of d G[:, c'] -
    G[:, C] x, for count pivot columns C, |x| <= top_x and |G| <= top_g."""
    return _lane_bytes(((count * top_x + d) * top_g).bit_length() + 1)


def _packed_column(column, size: int) -> int:
    """A column of an integer matrix as one int of signed lanes of `size`
    bytes, one per row, the first row in the lowest lane.  The column is
    packed in two's complement; flipping the top bit of every lane adds
    half the lane range to it, which one subtraction then takes off."""
    fmt = _LANE_FORMATS.get(size)
    if fmt:
        data = array(fmt.lower(), column).tobytes()
    else:
        data = b"".join(v.to_bytes(size, "little", signed=True) for v in column)
    bias = int.from_bytes((1 << (8 * size - 1)).to_bytes(size, "little") * len(column), "little")
    return (int.from_bytes(data, "little") ^ bias) - bias


def _combination_holds(basis: list[int], free_columns, x: list[list[int]], d: int) -> bool:
    """Whether d g = sum_k x[j][k] basis[k] for the j-th packed free column
    g, with basis[k] the packed pivot column of pivot k: one multiply-add
    per nonzero coefficient and one comparison of packed ints.  A packed
    column is the exact sum of its entries times 2^(lane * row), so in lanes
    as wide as _lane_size asks the two ints are equal exactly when the
    columns are.  The free columns are read one at a time, and the first
    that fails ends the check."""
    for g, coefficients in zip(free_columns, x):
        combination = 0
        for t, a in zip(basis, coefficients):
            if a:
                combination += a * t
        if combination != d * g:
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


def _certified(matrix: list, echelon: Echelon, top_g: int) -> bool:
    """Whether the pivot columns of a screen of `matrix`, whose entries are
    at most top_g in absolute value, span every column over Q, shown by one
    exact integer identity (see the module docstring): D G[:, C'] =
    G[:, C] (D X), with D X lifted to symmetric residues in place, the pivot
    columns of G packed once, and each free column packed only while it is
    checked, in lanes that fit every lane of the difference."""
    p, columns = echelon.p, echelon.columns
    relations = _relations(echelon, len(matrix[0]))
    d = _common_denominator(relations, p)
    if d is None:
        return False
    half, top_x = p // 2, 0
    for coefficients in relations:
        coefficients[:] = [(d * v + half) % p - half for v in coefficients]
        top_x = max(top_x, max(map(abs, coefficients), default=0))
    size = _lane_size(len(columns), top_x, d, top_g)
    basis = [_packed_column([row[c] for row in matrix], size) for c in columns]
    pivot = set(columns)
    free_columns = (_packed_column(column, size) for c, column in enumerate(zip(*matrix)) if c not in pivot)
    return _combination_holds(basis, free_columns, relations, d)


def _top_entry(row) -> int:
    """max |g| over a row of ints; a GramRow reads it from the entries of
    its power table that its exponent bytes name."""
    if type(row) is GramRow:
        return max(abs(v) for c, v in enumerate(row.powers) if c in row.exponents)
    return max(map(abs, row))


def _screen_primes():
    """The screen primes over Q: P = _SCREEN_PRIME, which needs no test,
    then the primes below it in descending order."""
    yield _SCREEN_PRIME
    yield from (q for q in range(_SCREEN_PRIME - 1, 1, -1) if is_prime(q))


def rank(matrix: list[list], p: int = 0) -> int:
    """Exact rank of an integer matrix: over F_p for a prime p, over Q for
    p = 0.  A matrix of PrimeFieldElements is ranked over their field, which
    a nonzero p must name; any other p is a ParameterError, and so is a
    ragged matrix or one that mixes ints and PrimeFieldElements or fields.

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
    if p and not is_prime(p):
        raise ParameterError(f"p must be 0 or a prime, got {p}")
    if matrix and matrix[0] and isinstance(matrix[0][0], PrimeFieldElement):
        if p not in (0, matrix[0][0].p):
            raise ParameterError(f"a matrix over F_{matrix[0][0].p} cannot be ranked over F_{p}")
        p = matrix[0][0].p
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
            top_g = max(map(_top_entry, matrix))
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
    """Checks tr(b b') = delta^(c - n) with c <= n, and c = n iff b' = b*.

    This is the structural reason the Gram determinant is nonzero for
    generic delta: the only delta^0 entries form a permutation matrix.
    """
    return all(
        max(row) <= n and row.count(n) == 1 and row[s] == n
        for s, row in zip(involute_indices(n), gram_exponents(n))
    )


def _checked_delta(params, n: int) -> int:
    """The integer delta of `params`, once `weights.rule` has resolved the
    spec (refusing an inadmissible one) and level n is known to be at least
    0, within the MAX_LEVEL budget and, in characteristic p, at most the
    rule's cap n_1 = p - 1 (beyond that the form's hook denominators are
    meaningless).  Runs before any diagram is enumerated."""
    if not isinstance(params, BrauerParams) or not isinstance(params.delta, IntegerDelta):
        raise ParameterError("Gram ranks need a Brauer spec with integer delta")
    cap = rule(params).cap
    if n < 0:
        raise ParameterError(f"level n = {n} is negative")
    if n > MAX_LEVEL:
        count = double_factorial_odd(n) if n < 64 else f"{2 * n - 1}!!"
        raise ParameterError(
            f"level n = {n} has (2n-1)!! = {count} diagrams; Gram matrices are limited "
            f"to {double_factorial_odd(MAX_LEVEL)} diagrams (n <= {MAX_LEVEL})"
        )
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
