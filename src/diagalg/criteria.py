"""Semisimplicity bounds for the Brauer, q-Brauer, and BMW families.

Each algebra in the family is semisimple exactly up to a level m computed
as a minimum of simple quantities: the cap n_1 (where weights stop being
evaluable) and the first levels at which specific box statistics make a
weight factor vanish.  Which factor rule a spec selects and where its cap
lies are decided in `weights`: `rule(spec)` resolves an admissible spec into
a `Rule` (family, N, eps, the vanishing modulus and its `cap`, the orders of
a root of unity) and refuses any other, and this module reads only that
record, never the spec's variants.  A bound is an int, or UNBOUNDED,
which is None: semisimple at every level.  The closed forms here give
each such level in O(1) and its witness, the (shape, box) attaining it,
in time linear in the level; a decision builds the witness of the
minimum only, up to MAX_WITNESS_LEVEL.  The brute-force searches `m_bruteforce` and `mprime_bruteforce`
find the same pairs by an exhaustive scan of the partitions up to a
limit; they are the reference that the tests and `verify` compare the
closed forms against, and no decision calls them.  Kinds 0 and 1 scan every box of each partition
(`_box_tables`), kinds 2 and 3 only its diagonal boxes (`_diagonal_tables`),
so a kind-2 or kind-3 search that finds nothing never scans the
off-diagonal boxes, and a kind-0 or kind-1 search scans them only up to
the level of its hit.  The diagonal scan walks the partition tree in the
order of partitions_of and passes over a whole subtree once no shape in it
could add a first witness: every completion of a prefix (la_1, ..., la_k)
with rem still to place has d(1, 1) = 2(la_1 - 1), d(i, i) even in
[0, 2(la_2 - 2)] for i >= 2, and b(i, i) even in [-2(k + rem), -2], so
once d(1, 1) and every even value of both ranges have a witness, the
subtree is done (up to level 40, 16,248 prefixes visited and 1,199
diagonals read, of 215,308 partitions).  The congruence search
`mprime_bruteforce` reads the same tables through `_residue_table`, the
first witness of each residue class of a level's keys, so it scans no
table key by key.

Box-statistic kinds (for a shape la of size n with box (i, j)):
  kind 0 - any box with d(i,j) = -arg,
  kind 1 - off-diagonal box with d(i,j) = -arg,
  kind 2 - diagonal box with d(i,i) = -arg,
  kind 3 - diagonal box with b(i,i) = -arg.
The primed variants replace equalities by congruences driven by the orders
RootSpec(e, f) of a root of unity q (and by the characteristic-2 merging of
+-1).

`decide(spec)` is the one decision procedure, for all three families: it
reads the Rule from `weights.rule`, takes that family's closed-form
constituents from one builder per family (`_brauer_parts`,
`_qbrauer_parts`, `_bmw_parts`, each given the Rule), and returns a
Verdict: the bound m, the labeled constituents entering the min, the
normalized parameters for root-of-unity cases, and a witness (shape, box)
when the bound is attained by an actual vanishing weight rather than by
the cap n_1 alone.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from .exactalg import Record, RootSpec, signed_power_is_one
from .partitions import Box, Partition, box_statistics, partitions_of
from .weights import ParameterError, ParamSpec, Rule, rule

UNBOUNDED = None  # the bound of an algebra semisimple at every level

Bound = int | None
Witness = tuple[Partition, Box]
Attained = tuple[Bound, Witness | None]
Candidate = tuple[int, int, Box]  # a level, the rank of its shape there, and a box
Part = tuple[str, list[Candidate]]  # a named closed-form constituent


def bound_min(*bounds: Bound) -> Bound:
    """The least of the integer bounds, UNBOUNDED where there is none."""
    return min((b for b in bounds if b is not UNBOUNDED), default=UNBOUNDED)


# --- brute-force definitions -----------------------------------------------


@cache
def _box_tables(n: int) -> tuple[dict, dict]:
    """Per-level first-witness tables of kinds 0 and 1: maps from the value
    of d to (shape, box), over any box (any_d) and over off-diagonal boxes
    (off_d).

    Every box of every partition of n is visited, shapes in the order of
    partitions_of and boxes row-major, with d read from
    `partitions.box_statistics`.  The first witness of each value is kept."""
    any_d: dict[int, Witness] = {}
    off_d: dict[int, Witness] = {}
    for la in partitions_of(n):
        for box, d, _, _ in box_statistics(la):
            witness = (la, box)
            any_d.setdefault(d, witness)
            if box[0] != box[1]:
                off_d.setdefault(d, witness)
    return any_d, off_d


@cache
def _diagonal_tables(n: int) -> tuple[dict, dict]:
    """Per-level first-witness tables of kinds 2 and 3: maps from the value
    of d(i, i) (diag_d) and of b(i, i) (diag_b) to (shape, box).

    Shapes come from `_unsettled_shapes`, in the order of partitions_of,
    and in each only its diagonal boxes (i, i), i up to the Durfee size, in
    order; la'_i is the number of parts >= i, counted down from the last
    part, so no conjugate is built.  These are the entries of the full
    row-major scan restricted to diagonal boxes, in the same order: a shape
    left out could add no key, and a key is set only on its first
    sighting."""
    diag_d: dict[int, Witness] = {}
    diag_b: dict[int, Witness] = {}
    for la in _unsettled_shapes(n, diag_d, diag_b):
        ci = len(la)  # la'_i, the parts >= i; at least i while la_i >= i
        for i, li in enumerate(la, start=1):
            if li < i:
                break
            while la[ci - 1] < i:
                ci -= 1
            v = 2 * (li - i)
            if v not in diag_d:
                diag_d[v] = (la, (i, i))
            v = 2 * (i - 1 - ci)
            if v not in diag_b:
                diag_b[v] = (la, (i, i))
    return diag_d, diag_b


def _unsettled_shapes(n: int, diag_d: dict, diag_b: dict) -> Iterator[Partition]:
    """Yields the partitions of n, in the order of partitions_of, whose
    diagonal could add a key to diag_d or diag_b; the caller adds each
    shape's keys before it takes the next.

    A depth-first walk over prefixes (la_1, ..., la_k), children in
    decreasing order of the next part, on a stack of its own: a deep level
    meets no recursion limit, and fewer than n prefixes wait on the stack,
    the younger siblings of each prefix on the current path.

    Every completion la of a prefix, with rem still to place, has
    d(1, 1) = 2(la_1 - 1); d(i, i) = 2(la_i - i) even in [0, 2(la_2 - 2)]
    for i >= 2, where la_2 <= min(la_1, rem) if k = 1; and b(i, i) =
    2(i - 1 - la'_i) even in [-2(k + rem), -2], as i <= la'_i <= len(la)
    <= k + rem (the narrower range [-2(la'_2 - 1), -2] of the boxes i >= 2
    lies inside it and needs no test of its own).  The walk keeps d_full,
    the largest D with every even value of [0, D] a key of diag_d, and
    b_full, the least B with every even value of [B, -2] a key of diag_b,
    and passes over a whole subtree once d(1, 1) is a key and both ranges
    lie within them.  Keys are never removed, so no shape in that subtree
    could add one when the walk would have reached it."""
    d_full, b_full = -2, 0  # no key yet: both ranges of known keys are empty
    stack = [((p,), n - p) for p in range(1, n + 1)]  # n = 0 yields nothing: () has no diagonal
    while stack:
        la, rem = stack.pop()
        la_2 = la[1] if len(la) > 1 else min(la[0], rem)
        if 2 * (la[0] - 1) in diag_d and 2 * (la_2 - 2) <= d_full and -2 * (len(la) + rem) >= b_full:
            continue
        if rem:  # pushed in increasing order, so the largest next part pops first
            stack += [(la + (p,), rem - p) for p in range(1, min(la[-1], rem) + 1)]
            continue
        yield la
        while d_full + 2 in diag_d:
            d_full += 2
        while b_full - 2 in diag_b:
            b_full -= 2


def _table(kind: int, n: int) -> dict[int, Witness]:
    """The first-witness table of one kind at level n: a full box scan for
    kinds 0 and 1, a diagonal one for kinds 2 and 3."""
    return _box_tables(n)[kind] if kind < 2 else _diagonal_tables(n)[kind - 2]


def m_bruteforce(kind: int, arg: int, search_limit: int = 40):
    """The least n >= 2 admitting a box of the given kind with statistic
    equal to -arg (so that arg + statistic = 0), with its witness; UNBOUNDED
    (witness None) if none exists up to search_limit."""
    if kind not in (0, 1, 2, 3):
        raise ParameterError(f"kind must be 0..3, got {kind}")
    if search_limit < 2:
        raise ParameterError(f"search_limit must be >= 2, got {search_limit}")
    target = -arg
    for n in range(2, search_limit + 1):
        table = _table(kind, n)
        if target in table:
            return n, table[target]
    return UNBOUNDED, None


def mprime_bruteforce(kind: int, N: int, eps: int, spec: RootSpec, char2: bool, search_limit: int = 40):
    """Congruence-driven search: least n >= 2 with a box satisfying
    kind 1: e | N + d (off-diagonal); kind 2: eps*q^(N+d(i,i)) = 1;
    kind 3: eps*q^(N+b(i,i)) = -1; with witness, else UNBOUNDED.

    Each condition holds on whole residue classes of the statistic, mod e
    for kind 1 and mod f = ord(q) for kinds 2 and 3, which
    `signed_power_is_one` picks out once per call from x = 0, ..., f - 1.
    A level's first witness is then the earliest, in the table's order, of
    the first witnesses of those classes in `_residue_table`."""
    if kind not in (1, 2, 3):
        raise ParameterError(f"kind must be 1..3, got {kind}")
    if search_limit < 2:
        raise ParameterError(f"search_limit must be >= 2, got {search_limit}")
    if kind == 1:
        modulus, residues = spec.e, [-N % spec.e]
    else:
        sign = eps if kind == 2 else -eps  # eps*q^x = -1 iff -eps*q^x = 1
        modulus = spec.f
        residues = [(x - N) % modulus for x in range(modulus) if signed_power_is_one(sign, x, spec, char2)]
    for n in range(2, search_limit + 1):
        table = _residue_table(kind, n, modulus)
        hits = [table[r] for r in residues if r in table]
        if hits:
            return n, min(hits)[1]
    return UNBOUNDED, None


@cache
def _residue_table(kind: int, n: int, modulus: int) -> dict[int, tuple[int, Witness]]:
    """The first witness of each residue class mod modulus among the keys
    of the level-n table of a kind, with its place in that table's order."""
    classes: dict[int, tuple[int, Witness]] = {}
    for place, (v, witness) in enumerate(_table(kind, n).items()):
        classes.setdefault(v % modulus, (place, witness))
    return classes


# --- closed forms ----------------------------------------------------------
#
# Each form returns what the search returns: the least level, and the first
# witness there in the search's order (shapes as partitions_of lists them,
# boxes row-major), or (UNBOUNDED, None).  A form is a list of candidates,
# each a tuple (level, shape, box) with the shape one of the three below, so
# that a decision builds a witness only where it can win: the level costs
# O(1), the witness O(level).  The shapes are ranked in the order in which
# partitions_of meets them at one level, (m), then (2, ..., 2[, 1]), then
# (1^m), so candidates compare in the search's order: least level, then the
# lexicographically largest shape, then the first box in row-major order.
# (At m = 2 the two-column shape is the row, and no candidate names it.)

ROW, TWO_COLUMNS, COLUMN = 0, 1, 2


def _candidates(kind: int, arg: int) -> list[Candidate]:
    """The candidates of m_closed(kind, arg); none where it is UNBOUNDED."""
    if kind == 0:
        return _candidates(1, arg) + _candidates(2, arg)
    if kind == 1:  # box (1,2) of one row, or (2,1) of (2, ..., 2[, 1])
        if arg <= 1:
            return [(3 - arg, ROW, (1, 2))]
        return [(arg + 1, TWO_COLUMNS, (2, 1))]
    if kind == 2:  # d(i,i) runs over the even integers >= 0
        if arg > 0 or arg % 2:
            return []
        if arg == 0:
            return [(2, COLUMN, (1, 1))]
        return [(1 - arg // 2, ROW, (1, 1))]
    if kind == 3:  # b(i,i) runs over the even integers <= -2
        if arg <= 0 or arg % 2:
            return []
        if arg == 2:
            return [(2, ROW, (1, 1))]
        return [(arg // 2, COLUMN, (1, 1))]
    raise ParameterError(f"kind must be 0..3, got {kind}")


def _prime_candidates(kind: int, N: int, eps: int, spec: RootSpec, char2: bool) -> list[Candidate]:
    """The candidates of mprime_closed(kind, N, eps, spec, char2).

    Kind 1 is an off-diagonal box with e | N + d: only the shifts N, N-e,
    N+e can be attained minimally.  For kinds 2 and 3 the sign condition on
    the diagonal statistic s = -x reads f | N + s, or N + s = f/2 mod f when
    eps has the other sign (impossible for odd f); either way x runs over
    one class mod f.  The level grows with |x| except that d = 0, 2 and
    b = -2, -4 all sit at level 2, so the two values of the class nearest
    the admissible range decide the minimum and its tie."""
    e = spec.e
    if not -e < N <= 0:
        raise ParameterError(f"normalized exponent must satisfy -e < N <= 0, got N = {N}, e = {e}")
    if kind == 1:
        return _candidates(1, N) + _candidates(1, N - e) + _candidates(1, N + e)
    if kind not in (2, 3):
        raise ParameterError(f"kind must be 1..3, got {kind}")
    f = spec.f
    plain = char2 or eps == (1 if kind == 2 else -1)
    if not plain and f % 2:
        return []
    shift = 0 if plain else f // 2
    if kind == 2:
        x = -((shift - N) % f)  # the largest x <= 0 in the class
        return _candidates(2, x) + _candidates(2, x - f)
    x = (N - shift - 1) % f + 1  # the least x >= 1 in the class
    return _candidates(3, x) + _candidates(3, x + f)


def _first(candidates: list[Candidate]) -> Attained:
    """The candidate the search meets first, the least one, with its
    witness; the only witness built."""
    if not candidates:
        return UNBOUNDED, None
    m, shape, box = min(candidates)
    if shape == ROW:
        return m, ((m,), box)
    if shape == TWO_COLUMNS:
        return m, ((2,) * (m // 2) + (1,) * (m % 2), box)
    return m, ((1,) * m, box)


def m_closed(kind: int, arg: int) -> Attained:
    """Closed form of m_bruteforce(kind, arg), with no search limit: the
    same level and witness, built in O(level)."""
    return _first(_candidates(kind, arg))


def mprime_closed(kind: int, N: int, eps: int, spec: RootSpec, char2: bool) -> Attained:
    """Closed form of mprime_bruteforce(kind, N, eps, spec, char2) for
    -e < N <= 0, with no search limit."""
    return _first(_prime_candidates(kind, N, eps, spec, char2))


# --- verdicts --------------------------------------------------------------

# The deepest witness a decision builds.  A witness at level m has up to m
# parts, so past this level a verdict would cost memory and output linear
# in m (10^7 parts take about 0.5 GB); below it a decision stays in the
# 20 MB of an ordinary query.
MAX_WITNESS_LEVEL = 100_000


class Constituent(Record):
    """One labeled bound entering the min."""

    __slots__ = ("name", "value")
    name: str
    value: Bound


class Verdict(Record):
    """The semisimplicity bound: the algebra at level n is semisimple if
    and only if n <= m; m is UNBOUNDED (None) when it is semisimple at
    every level, and so is a constituent that never vanishes."""

    __slots__ = ("m", "constituents", "witness", "normalized")
    m: Bound
    constituents: tuple[Constituent, ...]
    witness: Witness | None
    normalized: tuple[tuple[str, int], ...]


def _m0_parts(*args: int) -> list[Part]:
    return [(f"m0({a})", _candidates(0, a)) for a in args]


def _brauer_parts(r: Rule) -> tuple[list[Part], tuple]:
    """The Brauer rule, also of q-Brauer and BMW at q = +-1: m0(delta) in
    characteristic 0; in characteristic p, m0 at the two lifts N0 and
    N0 - p of the residue N0 = delta mod p."""
    p = r.modulus
    if p == 0:
        return _m0_parts(r.N), ()
    N0 = r.N % p  # in (0, p); N0 = 0 is refused by `rule`
    return _m0_parts(N0, N0 - p), (("N", N0),)


def _qbrauer_parts(r: Rule) -> tuple[list[Part], tuple]:
    """m0(N) off roots of unity; at a root of order e, m0 at the three
    shifts N0, N0 - e, N0 + e of the residue N0 of N in (-e, 0)."""
    e = r.modulus
    if e == 0:
        return _m0_parts(r.N), ()
    N0 = r.N % e - e  # in (-e, 0); e | N is refused by `rule`
    return _m0_parts(N0, N0 - e, N0 + e), (("N", N0),)


def _bmw_parts(r: Rule) -> tuple[list[Part], tuple]:
    """Off roots of unity m0(N) for eps = 1, m1(N) and m3(N) for eps = -1;
    at a root of unity the primed forms m1', m2', m3' at the normalized
    (eps0, N0) with N0 in (-e, 0].  In characteristic 2 the rule has
    eps = 1."""
    N, eps = r.N, r.eps
    if r.root is None:
        if eps == 1:
            parts = _m0_parts(N)
        else:
            parts = [(f"m1({N})", _candidates(1, N)), (f"m3({N})", _candidates(3, N))]
        if r.char2:
            # +-1 coincide, so the kind-3 vanishing applies as well
            parts.append((f"m3({N})", _candidates(3, N)))
        return parts, ()
    e, f = r.root.e, r.root.f
    rem = N % e
    N0 = rem - e if rem else 0  # in (-e, 0]
    k = (N - N0) // e
    eps0 = eps * (-1) ** k if (f == 2 * e and not r.char2) else eps
    parts = [(f"m{kind}'({N0})", _prime_candidates(kind, N0, eps0, r.root, r.char2)) for kind in (1, 2, 3)]
    return parts, (("eps", eps0), ("N", N0))


_PARTS = {"brauer": _brauer_parts, "qbrauer": _qbrauer_parts, "bmw": _bmw_parts}


def decide(spec: ParamSpec) -> Verdict:
    """The semisimplicity bound of any admissible spec, under the rule r =
    weights.rule(spec) that it selects (which refuses any other spec):
    q = +-1 selects the Brauer rule.
    The cap n1 = r.cap comes first, where there is one, then the family's
    closed forms; a spec with no integer N (a generic or non-integer delta,
    a generic r) gets n0 = UNBOUNDED instead of closed forms.  The witness
    is that of the first closed form attaining the minimum (the cap has
    none), and is the only one built."""
    r = rule(spec)
    levels = [] if r.cap is None else [("n1", r.cap, [])]
    if r.N is None:  # n0 has no candidates, so it is UNBOUNDED
        parts, normalized = [("n0", [])], ()
    else:
        parts, normalized = _PARTS[r.family](r)
    levels += [(name, min(cands)[0] if cands else UNBOUNDED, cands) for name, cands in parts]
    m = bound_min(*(level for _, level, _ in levels))
    winner = next((cands for _, level, cands in levels if level == m and cands), None)
    if winner is not None and m > MAX_WITNESS_LEVEL:
        raise ParameterError(
            f"m = {m} is past the witness budget: decide builds witnesses up to level {MAX_WITNESS_LEVEL}"
        )
    witness = None if winner is None else _first(winner)[1]
    constituents = tuple(Constituent(name, level) for name, level, _ in levels)
    return Verdict(m, constituents, witness, normalized)


# The benchmark calls and traces the decision by this name; the tracer
# names a function after the last module attribute bound to it, so this
# alias, defined after `decide`, counts every decision once.
decide_brauer = decide
