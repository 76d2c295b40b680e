"""Brauer diagrams and the diagram algebra Br_n(delta).

The algebra is taken over Z[delta, delta^-1], with the loop value delta the
symbolic DELTA defined here; every product, closure and trace in this
module, and every caller of them, uses that one delta.  Numeric values of
delta enter only at the Gram matrices, which are built from loop and cycle
counts directly.

A diagram on n strands is a perfect matching of 2n vertices: top vertices
1..n and bottom vertices 1..n, stored 0-based as a partner tuple of length
2n (top i at index i-1, bottom i at index n+i-1), so a diagram is the
tuple itself, hashed and ordered as one.  The product a * b stacks a over b
(a's bottom row glued to b's top row) and multiplies by delta per closed
loop removed.  Permutation diagrams join bottom i to top pi(i), so
perm_diagram(p) * perm_diagram(q) = perm_diagram(p o q).

A matching is checked where it is assembled from pairs a caller supplies,
in `diagram_from_pairs`, through which every diagram that is neither
enumerated nor derived from another is built.  `all_diagrams` enumerates
partner tuples directly, giving each vertex one partner as it is reached,
and checks the enumeration by its count, (2n-1)!!; the counting suite of
`verify` compares that count with the number of distinct diagrams, and the
tests compare the enumeration with matchings built through
`diagram_from_pairs`.  The derived ones are not checked again: their
outputs are matchings by construction.  `compose_diagrams` joins each
vertex to the other end of its strand (the Gram exponents of level 5
compose 225 369 pairs), and `involute_diagram`, `embed_diagram` and
`closure_diagram` relabel the vertices of a matching, adding or removing
one pair of partners.

The module also provides the tower structure used by the Markov trace:
embed (add a vertical strand on the right), closure (join the last top and
bottom vertices; a strand there closes into a delta loop), the conditional
expectation delta^-1 * closure, and the trace tr(d) = delta^(c(d) - n) where
c(d) counts the cycles of the matching together with the identity matching.
Every diagram factors as u * pi * ex(n, s) * v^-1 with u, v in the coset set
D(n, s), pi a permutation of the leftmost ell = n - 2s strands, and ex(n, s)
the diagram with s nested-free arcs on the rightmost positions.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb, factorial
from typing import Iterator

from .branching import double_factorial_odd
from .exactalg import Frozen, LaurentPoly

DELTA = LaurentPoly.monomial(1)  # the loop value

Perm = tuple[int, ...]  # one-line notation, 1-based values
BrauerDiagram = tuple[int, ...]  # partner tuple, 0-based values, length 2n


def through_count(d: BrauerDiagram) -> int:
    """Number of strands joining the top row to the bottom row."""
    n = len(d) // 2
    return sum(1 for w in d[:n] if w >= n)


def diagram_from_pairs(n: int, pairs) -> BrauerDiagram:
    """Builds a diagram from n 0-based vertex pairs; pairs that do not cover
    each of 0..2n-1 exactly once are a ValueError."""
    pairs = [(x, y) for x, y in pairs]
    if sorted(v for pair in pairs for v in pair) != list(range(2 * n)):
        raise ValueError(f"not a perfect matching of 0..{2 * n - 1}: {pairs}")
    m = [0] * (2 * n)
    for x, y in pairs:
        m[x], m[y] = y, x
    return tuple(m)


def identity_diagram(n: int) -> BrauerDiagram:
    return diagram_from_pairs(n, [(i, n + i) for i in range(n)])


def perm_diagram(p: Perm) -> BrauerDiagram:
    """The diagram of a permutation: bottom i joined to top p(i)."""
    n = len(p)
    return diagram_from_pairs(n, [(p[i] - 1, n + i) for i in range(n)])


def perm_compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def perm_extend(p: Perm, n: int) -> Perm:
    """Extends a permutation of 1..len(p) to 1..n by fixed points."""
    if len(p) > n:
        raise ValueError(f"cannot extend length-{len(p)} permutation to {n}")
    return p + tuple(range(len(p) + 1, n + 1))


def generator(kind: str, j: int, n: int) -> BrauerDiagram:
    """The diagram generator e_j (arcs {j, j+1} top and bottom) or s_j
    (transposition of strands j, j+1), for 1 <= j <= n-1."""
    if not 1 <= j <= n - 1:
        raise ValueError(f"generator index {j} out of range for n={n}")
    if kind == "e":
        pairs = [(j - 1, j), (n + j - 1, n + j)]
        pairs += [(i, n + i) for i in range(n) if i not in (j - 1, j)]
        return diagram_from_pairs(n, pairs)
    if kind == "s":
        swap = list(range(1, n + 1))
        swap[j - 1], swap[j] = swap[j], swap[j - 1]
        return perm_diagram(tuple(swap))
    raise ValueError(f"unknown generator kind {kind!r}")


def ex_diagram(n: int, s: int) -> BrauerDiagram:
    """e_(l+1) * e_(l+3) * ... * e_(n-1) with l = n - 2s: s arcs on the right."""
    ell = n - 2 * s
    if s < 0 or ell < 0:
        raise ValueError(f"need 0 <= s <= n/2, got n={n}, s={s}")
    pairs = [(i, n + i) for i in range(ell)]
    for k in range(s):
        a = ell + 2 * k
        pairs += [(a, a + 1), (n + a, n + a + 1)]
    return diagram_from_pairs(n, pairs)


def compose_diagrams(a: BrauerDiagram, b: BrauerDiagram) -> tuple[BrauerDiagram, int]:
    """Stacks a over b; returns the resulting diagram and the number of
    closed loops removed.

    Middle vertex m is bottom vertex n+m of a and top vertex m of b.  Each
    strand of the product is followed from one of its ends through the
    middle row; middle vertices no strand reaches lie on closed loops.
    """
    n = len(a) // 2
    if len(b) != 2 * n:
        raise ValueError(f"size mismatch: {n} vs {len(b) // 2}")
    seen = [False] * n  # middle vertices met so far
    out = [-1] * (2 * n)
    for v in range(2 * n):
        if out[v] >= 0:
            continue
        # the strand leaves v in a (a top vertex) or in b (a bottom vertex);
        # it ends at the first vertex w outside the middle row
        in_b = v >= n
        w = v
        while True:
            if in_b:
                w = b[w]
                if w >= n:
                    break
                seen[w] = True
                w += n
            else:
                w = a[w]
                if w < n:
                    break
                w -= n
                seen[w] = True
            in_b = not in_b
        out[v], out[w] = w, v
    loops = 0
    for m in range(n):
        if not seen[m]:
            loops += 1
            x = m
            while not seen[x]:
                seen[x] = True
                x = b[x]
                seen[x] = True
                x = a[n + x] - n
    return tuple(out), loops


def involute_diagram(d: BrauerDiagram) -> BrauerDiagram:
    """The anti-automorphism *: reflect top-to-bottom, so the partner of
    v +- n is the partner of v, +- n."""
    n = len(d) // 2
    return tuple(w + n if w < n else w - n for w in d[n:] + d[:n])


def embed_diagram(d: BrauerDiagram) -> BrauerDiagram:
    """iota: add a vertical strand at position n+1, after top n and after
    bottom n, so bottom vertices move up by one."""
    n = len(d) // 2
    top = tuple(w + (w >= n) for w in d[:n])
    bottom = tuple(w + (w >= n) for w in d[n:])
    return top + (2 * n + 1,) + bottom + (n,)


def closure_diagram(d: BrauerDiagram) -> tuple[BrauerDiagram, int]:
    """Joins top n to bottom n; returns (diagram on n-1 strands, loops).

    The partners x, y of the two joined vertices become partners of each
    other, unless the joined vertices are partners (a vertical strand at
    position n): that strand closes into one loop, so cl(iota(x)) is
    delta * x at the element level.  Dropping top n moves the bottom
    vertices down by one.
    """
    n = len(d) // 2
    if n == 0:
        raise ValueError("cannot close the empty diagram")
    t_last, b_last = n - 1, 2 * n - 1
    m = list(d)
    x, y = m[t_last], m[b_last]
    loops = 1 if x == b_last else 0
    if not loops:
        m[x], m[y] = y, x
    del m[b_last], m[t_last]
    return tuple(w - (w >= n) for w in m), loops


def full_closure_cycles(d: BrauerDiagram) -> int:
    """Number of loops after closing every top i with bottom i."""
    n = len(d) // 2
    seen = [False] * (2 * n)
    cycles = 0
    for v0 in range(2 * n):
        if seen[v0]:
            continue
        cycles += 1
        v = v0
        while not seen[v]:
            seen[v] = True
            w = d[v]
            seen[w] = True
            v = w + n if w < n else w - n
    return cycles


def _pairings(values: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """Perfect matchings of a sorted tuple, arcs (lo, hi) sorted by lo."""
    if not values:
        yield ()
        return
    first, rest = values[0], values[1:]
    for k, second in enumerate(rest):
        for sub in _pairings(rest[:k] + rest[k + 1 :]):
            yield ((first, second),) + sub


def _matchings(n: int) -> list[BrauerDiagram]:
    """Every perfect matching of 0..2n-1 as a partner tuple, built on one
    partner list: the lowest free vertex is matched to each later free
    vertex in turn, and the rest is matched the same way."""
    size = 2 * n
    m = [-1] * size
    out: list[BrauerDiagram] = []

    def extend(low: int) -> None:
        while low < size and m[low] >= 0:
            low += 1
        if low == size:
            out.append(tuple(m))
            return
        for w in range(low + 1, size):
            if m[w] < 0:
                m[low], m[w] = w, low
                extend(low + 1)
                m[w] = -1
        m[low] = -1

    extend(0)
    return out


@cache
def all_diagrams(n: int) -> tuple[BrauerDiagram, ...]:
    """All (2n-1)!! diagrams, sorted by through-strand count (descending)
    then by partner tuple; this is the Gram matrix basis order."""
    ds = _matchings(n)
    ds.sort(key=lambda d: (-through_count(d), d))
    if len(ds) != double_factorial_odd(n):
        raise RuntimeError(f"enumerated {len(ds)} diagrams at n = {n}, expected (2n-1)!!")
    return tuple(ds)


class AlgebraElement(Frozen):
    """A finite linear combination of Brauer diagrams on n strands.

    Coefficients are integers or integer-coefficient Laurent polynomials
    in DELTA, the loop value; zero terms are dropped.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[BrauerDiagram, object] | None = None):
        clean = {}
        for d, c in (terms or {}).items():
            if len(d) != 2 * n:
                raise ValueError(f"diagram on {len(d) // 2} strands in an n={n} element")
            if c != 0:
                clean[d] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def from_diagram(cls, d: BrauerDiagram, coeff=1) -> "AlgebraElement":
        return cls(len(d) // 2, {d: coeff})

    def support(self) -> frozenset[BrauerDiagram]:
        return frozenset(self.terms)

    def coeff(self, d: BrauerDiagram):
        return self.terms.get(d, 0)

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement(self.n, {d: c * coeff for d, coeff in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{d}" for d, c in sorted(self.terms.items()))


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The product in Br_n(delta): stack, remove loops, multiply by delta^loops."""
    if x.n != y.n:
        raise ValueError(f"size mismatch: {x.n} vs {y.n}")
    out: dict[BrauerDiagram, object] = {}
    for dx, cx in x.terms.items():
        for dy, cy in y.terms.items():
            d, loops = compose_diagrams(dx, dy)
            c = cx * cy
            if loops:
                c = c * DELTA**loops
            out[d] = out[d] + c if d in out else c
    return AlgebraElement(x.n, out)


def involute(x: AlgebraElement) -> AlgebraElement:
    """The algebra anti-automorphism * (coefficients are fixed)."""
    return AlgebraElement(x.n, {involute_diagram(d): c for d, c in x.terms.items()})


def embed(x: AlgebraElement) -> AlgebraElement:
    """The unital embedding iota: Br_n -> Br_(n+1)."""
    return AlgebraElement(x.n + 1, {embed_diagram(d): c for d, c in x.terms.items()})


def closure(x: AlgebraElement) -> AlgebraElement:
    """cl: Br_n -> Br_(n-1), closing the last strand (delta per loop)."""
    out: dict[BrauerDiagram, object] = {}
    for d, c in x.terms.items():
        dd, loops = closure_diagram(d)
        if loops:
            c = c * DELTA**loops
        out[dd] = out[dd] + c if dd in out else c
    return AlgebraElement(x.n - 1, out)


def cond_exp(x: AlgebraElement) -> AlgebraElement:
    """The conditional expectation E = delta^-1 * cl : Br_n -> Br_(n-1)."""
    return closure(x).scale(DELTA**-1)


def markov_trace(x: AlgebraElement):
    """tr(x) = sum of coeff * delta^(c(d) - n); tr(1) = 1."""
    total = None
    for d, c in x.terms.items():
        t = c * DELTA ** (full_closure_cycles(d) - x.n)
        total = t if total is None else total + t
    return 0 if total is None else total


def _coset_reps(n: int, s: int) -> Iterator[Perm]:
    """Enumerates D(n, s) unsorted and uncached (see gen_D)."""
    ell = n - 2 * s
    if s < 0 or ell < 0:
        raise ValueError(f"need 0 <= s <= n/2, got n={n}, s={s}")
    for through in combinations(range(1, n + 1), ell):
        rest = tuple(sorted(set(range(1, n + 1)) - set(through)))
        for arcs in _pairings(rest):
            yield through + tuple(v for arc in arcs for v in arc)


@cache
def gen_D(n: int, s: int) -> tuple[Perm, ...]:
    """The coset representatives D(n, s), sorted: u(1..l) increasing on
    through values, then arcs (min, max) with minima increasing."""
    out = tuple(sorted(_coset_reps(n, s)))
    if len(out) != comb(n, n - 2 * s) * double_factorial_odd(s):
        raise RuntimeError(f"enumerated {len(out)} coset representatives at n = {n}, s = {s}")
    return out


def factorize(d: BrauerDiagram) -> tuple[Perm, Perm, Perm, int]:
    """Writes d = u * pi * ex(n, s) * v^-1 (zero loops in the product).

    u, v are in gen_D(n, s) and pi permutes the leftmost ell = n - 2s
    strands: d has top arcs (u(l+2k-1), u(l+2k)), bottom arcs from v, and
    through strand bottom v(i) joined to top u(pi(i)).
    """
    n = len(d) // 2
    through_tops = [i + 1 for i in range(n) if d[i] >= n]
    through_bottoms = [j + 1 - n for j in range(n, 2 * n) if d[j] < n]
    # arcs as 1-based (lo, hi) pairs sorted by lo, flattened
    top_arcs = [w for i in range(n) if i < d[i] < n for w in (i + 1, d[i] + 1)]
    bottom_arcs = [w for j in range(n, 2 * n) if j < d[j] for w in (j + 1 - n, d[j] + 1 - n)]
    s = len(top_arcs) // 2
    u = tuple(through_tops + top_arcs)
    v = tuple(through_bottoms + bottom_arcs)
    # through strand bottom beta = v(i) joins top d[n + beta - 1] + 1 = u(pi(i))
    pi = tuple(through_tops.index(d[n + beta - 1] + 1) + 1 for beta in v[: len(through_tops)])
    return u, pi, v, s


def recompose(u: Perm, pi: Perm, v: Perm, s: int) -> tuple[BrauerDiagram, int]:
    """Multiplies u * pi * ex(n, s) * v^-1, returning (diagram, total loops).

    The factorization of any diagram recomposes to it with zero loops.
    """
    n = len(u)
    d1, l1 = compose_diagrams(perm_diagram(u), perm_diagram(perm_extend(pi, n)))
    d2, l2 = compose_diagrams(d1, ex_diagram(n, s))
    d3, l3 = compose_diagrams(d2, perm_diagram(perm_inverse(v)))
    return d3, l1 + l2 + l3


def coset_counting_identity(n: int) -> bool:
    """Checks sum over s of |D(n,s)|^2 * (n-2s)! = (2n-1)!!.

    The representatives are counted as they are enumerated, not through the
    gen_D cache, so a deep check holds no coset set in memory.
    """
    total = sum(
        sum(1 for _ in _coset_reps(n, s)) ** 2 * factorial(n - 2 * s) for s in range(n // 2 + 1)
    )
    return total == double_factorial_odd(n)
