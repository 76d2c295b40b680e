"""Semisimplicity bounds for the Brauer, q-Brauer, and BMW families.

Each algebra in the family is semisimple exactly up to a level m computed
as a minimum of simple quantities: the cap n_1 (where weights stop being
evaluable) and the first levels at which specific box statistics make a
weight factor vanish.  The closed forms here build each such level together
with its witness, the (shape, box) attaining it, in time linear in the
level.  The brute-force searches `m_bruteforce` and `mprime_bruteforce`
find the same pairs by scanning every partition up to a limit; they are the
reference that the tests and `verify` compare the closed forms against, and
no decision calls them.

Box-statistic kinds (for a shape la of size n with box (i, j)):
  kind 0 - any box with d(i,j) = -arg,
  kind 1 - off-diagonal box with d(i,j) = -arg,
  kind 2 - diagonal box with d(i,i) = -arg,
  kind 3 - diagonal box with b(i,i) = -arg.
The primed variants replace equalities by congruences driven by the orders
RootSpec(e, f) of a root of unity q (and by the characteristic-2 merging of
+-1).

The decision procedures return a Verdict: the bound m, the labeled
constituents entering the min, the normalized parameters for root-of-unity
cases, and a witness (shape, box) when the bound is attained by an actual
vanishing weight rather than by the cap n_1 alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .exactalg import RootSpec, signed_power_is_one
from .partitions import Box, Partition, conjugate, partitions_of
from .weights import (
    BMWParams,
    BrauerParams,
    GenericR,
    IntegerDelta,
    NotRootOfUnity,
    ParameterError,
    PlusMinusOne,
    QBrauerParams,
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


def is_bounded(b) -> bool:
    return isinstance(b, int)


def bound_min(*bounds):
    """Minimum of bounds, with UNBOUNDED as the identity."""
    finite = [b for b in bounds if isinstance(b, int)]
    return min(finite) if finite else UNBOUNDED


# --- brute-force definitions -----------------------------------------------


@cache
def _box_tables(n: int) -> tuple[dict, dict, dict, dict]:
    """Per-level first-witness tables: maps from the value of a box
    statistic to (shape, box), for kinds 0..3 in order.

    Every box of every partition of n is visited, shapes in the order of
    partitions_of and boxes row-major; in row i that is the boxes j < i
    (b-statistic), the diagonal box (d and b), then the boxes j > i
    (a-statistic).  A witness tuple is built only for a value not yet in
    its table.  The off-diagonal and diagonal-d keys are subsets of the
    any-d keys, so a value already in off_d or diag_d is in any_d too."""
    any_d: dict[int, Witness] = {}
    off_d: dict[int, Witness] = {}
    diag_d: dict[int, Witness] = {}
    diag_b: dict[int, Witness] = {}
    for la in partitions_of(n):
        conj = conjugate(la)
        rows, cols = len(la), len(conj)
        padded = la + (0,) * (cols - rows)  # la_j for j <= la_1, 0 past the last row
        lower = [j - cj for j, cj in enumerate(conj, start=1)]  # b(i, j) = i - 2 - la'_i + lower[j-1]
        for i, li, ci in zip(range(1, rows + 1), la, conj + (0,) * (rows - cols)):
            base = i - 2 - ci
            j = 0
            for u in lower[: i - 1 if i <= li else li]:  # j < i and j <= la_i
                j += 1
                v = base + u
                if v not in off_d:
                    off_d[v] = w = (la, (i, j))
                    if v not in any_d:
                        any_d[v] = w
            if li < i:
                continue
            v = 2 * (li - i)
            if v not in diag_d:
                diag_d[v] = w = (la, (i, i))
                if v not in any_d:
                    any_d[v] = w
            v = 2 * (i - 1 - ci)
            if v not in diag_b:
                diag_b[v] = (la, (i, i))
            base = li - i  # a(i, j) = base + la_j - j
            j = i
            for lj in padded[i:li]:
                j += 1
                v = base + lj - j
                if v not in off_d:
                    off_d[v] = w = (la, (i, j))
                    if v not in any_d:
                        any_d[v] = w
    return any_d, off_d, diag_d, diag_b


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
        table = _box_tables(n)[kind]
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
        tables = _box_tables(n)
        if kind == 1:
            hit = next((w for v, w in tables[1].items() if (N + v) % spec.e == 0), None)
        else:
            sign = eps if kind == 2 else -eps  # eps*q^x = -1 iff -eps*q^x = 1
            hit = next((w for v, w in tables[kind].items() if signed_power_is_one(sign, N + v, spec, char2)), None)
        if hit is not None:
            return n, hit
    return UNBOUNDED, None


# --- closed forms ----------------------------------------------------------
#
# Each form returns what the search returns: the least level, and the first
# witness there in the search's order (shapes as partitions_of lists them,
# boxes row-major), or (UNBOUNDED, None).


def _first(*candidates: Attained) -> Attained:
    """The candidate the search meets first: the least level, then the
    lexicographically largest shape, then the first box in row-major order."""
    found = [c for c in candidates if c[1] is not None]
    if not found:
        return UNBOUNDED, None
    return min(found, key=lambda c: (c[0], tuple(-part for part in c[1][0]), c[1][1]))


def m_closed(kind: int, arg: int) -> Attained:
    """Closed form of m_bruteforce(kind, arg), with no search limit: the
    same level and witness, built in O(level)."""
    if kind == 0:
        return _first(m_closed(1, arg), m_closed(2, arg))
    if kind == 1:  # box (1,2) of one row, or (2,1) of (2, ..., 2[, 1])
        if arg <= 1:
            return 3 - arg, ((3 - arg,), (1, 2))
        return arg + 1, ((2,) * ((arg + 1) // 2) + (1,) * ((arg + 1) % 2), (2, 1))
    if kind == 2:  # d(i,i) runs over the even integers >= 0
        if arg > 0 or arg % 2:
            return UNBOUNDED, None
        return (2, ((1, 1), (1, 1))) if arg == 0 else (1 - arg // 2, ((1 - arg // 2,), (1, 1)))
    if kind == 3:  # b(i,i) runs over the even integers <= -2
        if arg <= 0 or arg % 2:
            return UNBOUNDED, None
        return (2, ((2,), (1, 1))) if arg == 2 else (arg // 2, ((1,) * (arg // 2), (1, 1)))
    raise ParameterError(f"kind must be 0..3, got {kind}")


def _check_prime_range(N: int, e: int) -> None:
    if not -e < N <= 0:
        raise ParameterError(f"normalized exponent must satisfy -e < N <= 0, got N = {N}, e = {e}")


def _shifted_kind1(N: int, e: int) -> Attained:
    """Off-diagonal box with e | N + d: only the shifts N, N-e, N+e can be
    attained minimally."""
    return _first(*(m_closed(1, x) for x in (N, N - e, N + e)))


def mprime_closed(kind: int, N: int, eps: int, spec: RootSpec, char2: bool) -> Attained:
    """Closed form of mprime_bruteforce(kind, N, eps, spec, char2) for
    -e < N <= 0, with no search limit.

    For kinds 2 and 3 the sign condition on the diagonal statistic s = -x
    reads f | N + s, or N + s = f/2 mod f when eps has the other sign
    (impossible for odd f); either way x runs over one class mod f.  The
    level grows with |x| except that d = 0, 2 and b = -2, -4 all sit at
    level 2, so the two values of the class nearest the admissible range
    decide the minimum and its tie."""
    _check_prime_range(N, spec.e)
    if kind == 1:
        return _shifted_kind1(N, spec.e)
    if kind not in (2, 3):
        raise ParameterError(f"kind must be 1..3, got {kind}")
    f = spec.f
    plain = char2 or eps == (1 if kind == 2 else -1)
    if not plain and f % 2:
        return UNBOUNDED, None
    shift = 0 if plain else f // 2
    if kind == 2:
        x = -((shift - N) % f)  # the largest x <= 0 in the class
        return _first(m_closed(2, x), m_closed(2, x - f))
    x = (N - shift - 1) % f + 1  # the least x >= 1 in the class
    return _first(m_closed(3, x), m_closed(3, x + f))


def _nonzero(delta: int) -> None:
    if delta == 0:
        raise ParameterError("the closed forms exclude delta = 0 (use m_closed or m_bruteforce)")


def m1(delta: int):
    """-delta+3 for negative delta, delta+1 for positive."""
    _nonzero(delta)
    return m_closed(1, delta)[0]


def m2(delta: int):
    """-delta/2+1 for negative even delta, UNBOUNDED otherwise."""
    _nonzero(delta)
    return m_closed(2, delta)[0]


def m0(delta: int):
    """min(m1, m2): first level with any box of d-value -delta."""
    _nonzero(delta)
    return m_closed(0, delta)[0]


def m3(N: int):
    """max(2, N/2) for positive even N, UNBOUNDED otherwise."""
    return m_closed(3, N)[0]


def m1p(N: int, e: int):
    """First level with an off-diagonal box with e | N + d, for -e < N <= 0."""
    _check_prime_range(N, e)
    return _shifted_kind1(N, e)[0]


def m2p(N: int, eps: int, spec: RootSpec, char2: bool):
    """First level with a diagonal box with eps*q^(N+d) = 1."""
    return mprime_closed(2, N, eps, spec, char2)[0]


def m3p(N: int, eps: int, spec: RootSpec, char2: bool):
    """First level with a diagonal box with eps*q^(N+b) = -1."""
    return mprime_closed(3, N, eps, spec, char2)[0]


# --- verdicts --------------------------------------------------------------


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


def _verdict(parts: list[tuple[str, Bound, Witness | None]], normalized=()) -> Verdict:
    """Builds a Verdict from (name, level, witness) triples; the witness is
    that of the first constituent attaining the minimum with one (the cap
    n1 has none)."""
    m = bound_min(*(level for _, level, _ in parts))
    witness = next((w for _, level, w in parts if level == m and w is not None), None)
    return Verdict(m, tuple(Constituent(name, level) for name, level, _ in parts), witness, tuple(normalized))


def _m0_parts(*args: int) -> list[tuple[str, Bound, Witness | None]]:
    return [(f"m0({a})", *m_closed(0, a)) for a in args]


def _cap_only(cap: int | None) -> Verdict:
    """The verdict when nothing but the cap n1 (None: no cap) bounds m."""
    parts = [] if cap is None else [("n1", cap, None)]
    return _verdict(parts + [("n0", UNBOUNDED, None)])


def decide_brauer(spec: BrauerParams) -> Verdict:
    """Semisimplicity bound for the Brauer algebras Br_n(delta)."""
    validate_params(spec)
    p = spec.characteristic
    if not isinstance(spec.delta, IntegerDelta):
        return _cap_only(p - 1 if p else None)
    N = spec.delta.value
    if p == 0:
        return _verdict(_m0_parts(N))
    N0 = N % p  # in (0, p); N0 = 0 is rejected by validation
    return _verdict([("n1", p - 1, None), *_m0_parts(N0, N0 - p)], normalized=(("N", N0),))


def _shared_regimes(spec: QBrauerParams | BMWParams) -> Verdict | None:
    """The q-Brauer and BMW regimes that do not depend on the family: q = +-1
    reduces to the Brauer algebra, and a generic r leaves only the cap."""
    if isinstance(spec.q, PlusMinusOne):
        return decide_brauer(BrauerParams(spec.characteristic, spec.q.delta))
    if isinstance(spec.r, GenericR):
        return _cap_only(None if isinstance(spec.q, NotRootOfUnity) else spec.q.spec.e - 1)
    return None


def decide_qbrauer(spec: QBrauerParams) -> Verdict:
    """Semisimplicity bound for the q-Brauer algebras (r = +-q^N regime)."""
    validate_params(spec)
    shared = _shared_regimes(spec)
    if shared is not None:
        return shared
    N = spec.r.N
    if isinstance(spec.q, NotRootOfUnity):
        return _verdict(_m0_parts(N))
    e = spec.q.spec.e
    N0 = N % e - e  # in (-e, 0); e | N is rejected by validation
    return _verdict([("n1", e - 1, None), *_m0_parts(N0, N0 - e, N0 + e)], normalized=(("N", N0),))


def decide_bmw(spec: BMWParams) -> Verdict:
    """Semisimplicity bound for the BMW algebras (r = eps*q^(N-1) regime)."""
    validate_params(spec)
    shared = _shared_regimes(spec)
    if shared is not None:
        return shared
    char2 = spec.characteristic == 2
    eps, N = spec.r.eps, spec.r.N
    if char2:
        eps = 1
    if isinstance(spec.q, NotRootOfUnity):
        if eps == 1:
            parts = _m0_parts(N)
        else:
            parts = [(f"m1({N})", *m_closed(1, N)), (f"m3({N})", *m_closed(3, N))]
        if char2:
            # +-1 coincide, so the kind-3 vanishing applies as well
            parts.append((f"m3({N})", *m_closed(3, N)))
        return _verdict(parts)
    rs = spec.q.spec
    e, f = rs.e, rs.f
    rem = N % e
    N0 = rem - e if rem else 0  # in (-e, 0]
    k = (N - N0) // e
    eps0 = eps * (-1) ** k if (f == 2 * e and not char2) else eps
    parts = [("n1", e - 1, None)]
    parts += [(f"m{kind}'({N0})", *mprime_closed(kind, N0, eps0, rs, char2)) for kind in (1, 2, 3)]
    return _verdict(parts, normalized=(("eps", eps0), ("N", N0)))
