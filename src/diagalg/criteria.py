"""Semisimplicity bounds for the Brauer, q-Brauer, and BMW families.

Each algebra in the family is semisimple exactly up to a level m computed
as a minimum of simple quantities: the cap n_1 (where weights stop being
evaluable) and the first levels at which specific box statistics make a
weight factor vanish.  Which factor rule a spec selects and where its cap
lies are decided in `weights` (`rule`, `n1_cap`), and this module reads
them from there.  The closed forms here give each such level in O(1) and
its witness, the (shape, box) attaining it, in time linear in the level;
a decision builds the witness of the minimum only, up to
MAX_WITNESS_LEVEL.  The brute-force searches `m_bruteforce` and `mprime_bruteforce`
find the same pairs by scanning every partition up to a limit; they are the
reference that the tests and `verify` compare the closed forms against, and
no decision calls them.  Kinds 0 and 1 scan every box of each partition
(`_box_tables`), kinds 2 and 3 only its diagonal boxes (`_diagonal_tables`),
so a kind-2 or kind-3 search that finds nothing never scans the
off-diagonal boxes, and a kind-0 or kind-1 search scans them only up to
the level of its hit.

Box-statistic kinds (for a shape la of size n with box (i, j)):
  kind 0 - any box with d(i,j) = -arg,
  kind 1 - off-diagonal box with d(i,j) = -arg,
  kind 2 - diagonal box with d(i,i) = -arg,
  kind 3 - diagonal box with b(i,i) = -arg.
The primed variants replace equalities by congruences driven by the orders
RootSpec(e, f) of a root of unity q (and by the characteristic-2 merging of
+-1).

`decide(spec)` is the one decision procedure, for all three families: it
reads the family from `weights.rule`, takes that family's closed-form
constituents from one builder per family (`_brauer_parts`,
`_qbrauer_parts`, `_bmw_parts`), and returns a Verdict: the bound m, the
labeled constituents entering the min, the normalized parameters for
root-of-unity cases, and a witness (shape, box) when the bound is attained
by an actual vanishing weight rather than by the cap n_1 alone.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

from .exactalg import RootSpec, signed_power_is_one
from .partitions import Box, Partition, box_statistics, partitions_of
from .weights import (
    BMWParams,
    NotRootOfUnity,
    ParameterError,
    ParamSpec,
    QBrauerParams,
    n1_cap,
    rule,
    validate_params,
)


class UnboundedType:
    """The 'semisimple for all n' value; min-identity, larger than any int."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Unbounded"


UNBOUNDED = UnboundedType()

Bound = int | UnboundedType
Witness = tuple[Partition, Box]
Attained = tuple[Bound, Witness | None]
Candidate = tuple[int, Callable[[], Witness]]  # a level and a builder of its witness
Part = tuple[str, list[Candidate]]  # a named closed-form constituent


def bound_min(*bounds):
    """Minimum of bounds, with UNBOUNDED as the identity."""
    finite = [b for b in bounds if isinstance(b, int)]
    return min(finite) if finite else UNBOUNDED


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

    Shapes are visited in the order of partitions_of, and in each only its
    diagonal boxes (i, i), i up to the Durfee size, in order; la'_i is the
    number of parts >= i, counted down from the last part, so no conjugate
    is built.  These are the entries of the full row-major scan restricted
    to diagonal boxes, in the same order."""
    diag_d: dict[int, Witness] = {}
    diag_b: dict[int, Witness] = {}
    for la in partitions_of(n):
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
    kind 3: eps*q^(N+b(i,i)) = -1; with witness, else UNBOUNDED."""
    if kind not in (1, 2, 3):
        raise ParameterError(f"kind must be 1..3, got {kind}")
    for n in range(2, search_limit + 1):
        table = _table(kind, n)
        if kind == 1:
            hit = next((w for v, w in table.items() if (N + v) % spec.e == 0), None)
        else:
            sign = eps if kind == 2 else -eps  # eps*q^x = -1 iff -eps*q^x = 1
            hit = next((w for v, w in table.items() if signed_power_is_one(sign, N + v, spec, char2)), None)
        if hit is not None:
            return n, hit
    return UNBOUNDED, None


# --- closed forms ----------------------------------------------------------
#
# Each form returns what the search returns: the least level, and the first
# witness there in the search's order (shapes as partitions_of lists them,
# boxes row-major), or (UNBOUNDED, None).  A form is a list of candidates,
# each a level and a builder of its witness, so that a decision builds a
# witness only where it can win: the level costs O(1), the witness O(level).


def _candidates(kind: int, arg: int) -> list[Candidate]:
    """The candidates of m_closed(kind, arg); none where it is UNBOUNDED."""
    if kind == 0:
        return _candidates(1, arg) + _candidates(2, arg)
    if kind == 1:  # box (1,2) of one row, or (2,1) of (2, ..., 2[, 1])
        if arg <= 1:
            return [(3 - arg, lambda: ((3 - arg,), (1, 2)))]
        return [(arg + 1, lambda: ((2,) * ((arg + 1) // 2) + (1,) * ((arg + 1) % 2), (2, 1)))]
    if kind == 2:  # d(i,i) runs over the even integers >= 0
        if arg > 0 or arg % 2:
            return []
        if arg == 0:
            return [(2, lambda: ((1, 1), (1, 1)))]
        return [(1 - arg // 2, lambda: ((1 - arg // 2,), (1, 1)))]
    if kind == 3:  # b(i,i) runs over the even integers <= -2
        if arg <= 0 or arg % 2:
            return []
        if arg == 2:
            return [(2, lambda: ((2,), (1, 1)))]
        return [(arg // 2, lambda: ((1,) * (arg // 2), (1, 1)))]
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
    """The candidate the search meets first: the least level, then the
    lexicographically largest shape, then the first box in row-major order.
    Only the witnesses at the least level are built."""
    m = bound_min(*(level for level, _ in candidates))
    if m is UNBOUNDED:
        return UNBOUNDED, None
    tied = (build() for level, build in candidates if level == m)
    return m, min(tied, key=lambda w: (tuple(-part for part in w[0]), w[1]))


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


@dataclass(frozen=True)
class Constituent:
    """One labeled bound entering the min."""

    name: str
    value: int | UnboundedType


@dataclass(frozen=True)
class Verdict:
    """The semisimplicity bound: the algebra at level n is semisimple if
    and only if n <= m (UNBOUNDED meaning: for all n)."""

    m: int | UnboundedType
    constituents: tuple[Constituent, ...]
    witness: Witness | None
    normalized: tuple[tuple[str, int], ...] = ()


def _m0_parts(*args: int) -> list[Part]:
    return [(f"m0({a})", _candidates(0, a)) for a in args]


def _brauer_parts(spec: ParamSpec, N: int, eps: int) -> tuple[list[Part], tuple]:
    """The Brauer rule, also of q-Brauer and BMW at q = +-1: m0(delta) in
    characteristic 0; in characteristic p, m0 at the two lifts N0 and
    N0 - p of the residue N0 = delta mod p."""
    p = spec.characteristic
    if p == 0:
        return _m0_parts(N), ()
    N0 = N % p  # in (0, p); N0 = 0 is rejected by validation
    return _m0_parts(N0, N0 - p), (("N", N0),)


def _qbrauer_parts(spec: QBrauerParams, N: int, eps: int) -> tuple[list[Part], tuple]:
    """m0(N) off roots of unity; at a root of order e, m0 at the three
    shifts N0, N0 - e, N0 + e of the residue N0 of N in (-e, 0)."""
    if isinstance(spec.q, NotRootOfUnity):
        return _m0_parts(N), ()
    e = spec.q.spec.e
    N0 = N % e - e  # in (-e, 0); e | N is rejected by validation
    return _m0_parts(N0, N0 - e, N0 + e), (("N", N0),)


def _bmw_parts(spec: BMWParams, N: int, eps: int) -> tuple[list[Part], tuple]:
    """Off roots of unity m0(N) for eps = 1, m1(N) and m3(N) for eps = -1;
    at a root of unity the primed forms m1', m2', m3' at the normalized
    (eps0, N0) with N0 in (-e, 0].  In characteristic 2, eps = 1."""
    char2 = spec.characteristic == 2
    if char2:
        eps = 1
    if isinstance(spec.q, NotRootOfUnity):
        if eps == 1:
            parts = _m0_parts(N)
        else:
            parts = [(f"m1({N})", _candidates(1, N)), (f"m3({N})", _candidates(3, N))]
        if char2:
            # +-1 coincide, so the kind-3 vanishing applies as well
            parts.append((f"m3({N})", _candidates(3, N)))
        return parts, ()
    rs = spec.q.spec
    e, f = rs.e, rs.f
    rem = N % e
    N0 = rem - e if rem else 0  # in (-e, 0]
    k = (N - N0) // e
    eps0 = eps * (-1) ** k if (f == 2 * e and not char2) else eps
    parts = [(f"m{kind}'({N0})", _prime_candidates(kind, N0, eps0, rs, char2)) for kind in (1, 2, 3)]
    return parts, (("eps", eps0), ("N", N0))


_PARTS = {"brauer": _brauer_parts, "qbrauer": _qbrauer_parts, "bmw": _bmw_parts}


def decide(spec: ParamSpec) -> Verdict:
    """The semisimplicity bound of any spec, under the rule
    (family, N, eps) = weights.rule(spec) that it selects: q = +-1 selects
    the Brauer rule.  The cap n1 = weights.n1_cap(spec) comes first, where
    there is one, then the family's closed forms; a spec with no integer N
    (a generic or non-integer delta, a generic r) gets n0 = UNBOUNDED
    instead of closed forms.  The witness is that of the first closed form
    attaining the minimum (the cap has none), and is the only one built."""
    validate_params(spec)
    family, N, eps = rule(spec)
    cap = n1_cap(spec)
    levels = [] if cap is None else [("n1", cap, [])]
    if N is None:  # n0 has no candidates, so it is UNBOUNDED
        parts, normalized = [("n0", [])], ()
    else:
        parts, normalized = _PARTS[family](spec, N, eps)
    levels += [(name, bound_min(*(level for level, _ in cands)), cands) for name, cands in parts]
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
