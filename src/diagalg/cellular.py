"""The Graham-Lehrer cellular structure of Br_n(delta).

Cell labels are the branching-graph nodes (la, n) with the reflected
dominance order.  For a label with s = (n - |la|)/2, the basis element
indexed by standard tableaux (sa, t) of shape la and cosets (u, v) in
D(n, s) is

    c = u * m_(sa,t) * ex(n, s) * v^-1

where m_(sa,t) = w(sa) * x_la * w(t)^-1 is the Murphy element of the
symmetric group algebra on the leftmost ell = n - 2s strands (x_la is the
sum of the row stabilizer of the row-reading tableau, and w(t) is the
permutation carrying the row-reading tableau to t; the order of the product
reflects that diagrams compose like functions).  These products never
close a loop, so the transition matrix from the diagram basis is an integer
matrix; it has determinant +-1, which is how `layer_membership` can expand
arbitrary elements exactly.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

from .branching import ReflectedLabel, in_order_ideal_zero, reflected_cmp, reflected_level
from .brauer import (
    AlgebraElement,
    BrauerDiagram,
    Perm,
    all_diagrams,
    embed,
    ex_diagram,
    gen_D,
    generator,
    involute,
    multiply,
    perm_compose,
    perm_diagram,
    perm_extend,
    perm_inverse,
    through_count,
)
from .exactalg import LaurentPoly, Record
from .partitions import Ordering, Partition, size

StandardTableau = tuple[tuple[int, ...], ...]  # rows of entries, 1-based values


def tableau_shape(t: StandardTableau) -> Partition:
    return tuple(len(row) for row in t)


def is_standard(t: StandardTableau) -> bool:
    """Rows and columns strictly increasing, entries 1..n each once."""
    entries = [x for row in t for x in row]
    if sorted(entries) != list(range(1, len(entries) + 1)):
        return False
    for row in t:
        if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
            return False
    for i in range(len(t) - 1):
        if len(t[i]) < len(t[i + 1]):
            return False
        if any(t[i][j] >= t[i + 1][j] for j in range(len(t[i + 1]))):
            return False
    return True


@cache
def standard_tableaux(la: Partition) -> tuple[StandardTableau, ...]:
    """All standard tableaux of shape la, in lexicographic row-reading order."""
    n = size(la)
    if n == 0:
        return ((),)
    out = []
    # remove the largest entry from a removable corner and recurse
    for i in range(len(la)):
        below = la[i + 1] if i + 1 < len(la) else 0
        if la[i] > below:
            smaller = tuple(x for x in la[:i] + (la[i] - 1,) + la[i + 1 :] if x)
            for t in standard_tableaux(smaller):
                rows = [list(r) for r in t]
                while len(rows) <= i:
                    rows.append([])
                rows[i].append(n)
                out.append(tuple(tuple(r) for r in rows))
    out.sort()
    return tuple(out)


def row_reading_tableau(la: Partition) -> StandardTableau:
    """The tableau filling 1..n row by row (the maximal standard tableau)."""
    t, next_val = [], 1
    for row_len in la:
        t.append(tuple(range(next_val, next_val + row_len)))
        next_val += row_len
    return tuple(t)


def tableau_permutation(t: StandardTableau) -> Perm:
    """w(t): the permutation with w(t) applied to the row-reading tableau
    giving t, i.e. w(t)(k) = entry of t in the box where k sits row-reading."""
    ref = row_reading_tableau(tableau_shape(t))
    n = size(tableau_shape(t))
    w = [0] * n
    for ref_row, t_row in zip(ref, t):
        for k, v in zip(ref_row, t_row):
            w[k - 1] = v
    return tuple(w)


@cache
def _row_stabilizer(la: Partition) -> tuple[Perm, ...]:
    """All permutations preserving the rows of the row-reading tableau."""
    ref = row_reading_tableau(la)
    n = size(la)
    perms = [tuple(range(1, n + 1))]
    for row in ref:
        new = []
        for base in perms:
            for arrangement in permutations(row):
                w = list(base)
                for slot, v in zip(row, arrangement):
                    w[slot - 1] = v
                new.append(tuple(w))
        perms = new
    return tuple(perms)


def murphy_m(sa: StandardTableau, t: StandardTableau, n: int) -> AlgebraElement:
    """The Murphy element m_(sa,t) = w(sa) * x_la * w(t)^-1, embedded in Br_n
    as a sum of permutation diagrams on the leftmost |la| strands."""
    la = tableau_shape(sa)
    if tableau_shape(t) != la:
        raise ValueError(f"mismatched shapes {la} vs {tableau_shape(t)}")
    if not (is_standard(sa) and is_standard(t)):
        raise ValueError("Murphy elements need standard tableaux")
    ws = tableau_permutation(sa)
    wt_inv = perm_inverse(tableau_permutation(t))
    terms: dict[BrauerDiagram, object] = {}
    for w in _row_stabilizer(la):
        p = perm_extend(perm_compose(ws, perm_compose(w, wt_inv)), n)
        terms[perm_diagram(p)] = terms.get(perm_diagram(p), 0) + 1
    return AlgebraElement(n, terms)


class CellularBasisElement(Record):
    """One basis element c = u * m_(sa,t) * ex(n,s) * v^-1 of layer (la, n)."""

    __slots__ = ("label", "left_tableau", "right_tableau", "left_coset", "right_coset", "element")
    label: ReflectedLabel
    left_tableau: StandardTableau
    right_tableau: StandardTableau
    left_coset: Perm
    right_coset: Perm
    element: AlgebraElement


@cache
def gl_basis(n: int) -> tuple[CellularBasisElement, ...]:
    """The cellular basis of Br_n, grouped by layer in reflected order."""
    out = []
    for label in reflected_level(n):
        la = label.shape
        s = (n - size(la)) // 2
        cosets = gen_D(n, s)
        exd = AlgebraElement.from_diagram(ex_diagram(n, s))
        tableaux = standard_tableaux(la)
        for sa in tableaux:
            for u in cosets:
                left = AlgebraElement.from_diagram(perm_diagram(u))
                for t in tableaux:
                    m = multiply(left, multiply(murphy_m(sa, t, n), exd))
                    for v in cosets:
                        right = AlgebraElement.from_diagram(perm_diagram(perm_inverse(v)))
                        c = multiply(m, right)
                        out.append(CellularBasisElement(label, sa, t, u, v, c))
    if len(out) != len(all_diagrams(n)):
        raise RuntimeError(f"built {len(out)} cellular basis elements at n = {n}, expected (2n-1)!!")
    return tuple(out)


def _int_coeff(c) -> int:
    """Extracts an integer from a coefficient known to be loop-free: the
    products building gl_basis close no loop, so anything else is a fault."""
    if not isinstance(c, int):
        raise RuntimeError(f"non-integer cellular coefficient {c!r}")
    return c


def transition_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Integer matrix T with T[i][j] = coefficient of diagram j in basis
    element i (diagram order from all_diagrams)."""
    ds = {d: j for j, d in enumerate(all_diagrams(n))}
    basis = gl_basis(n)
    rows = []
    for c in basis:
        row = [0] * len(ds)
        for d, coeff in c.element.terms.items():
            row[ds[d]] = _int_coeff(coeff)
        rows.append(tuple(row))
    return tuple(rows)


def transition_det(n: int) -> int:
    """det of the transition matrix; it is +-1, i.e. a unit (+-delta^0)."""
    return _transition_inverse(n)[0]


@cache
def _transition_inverse(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The determinant of the transition matrix and its integer inverse, by
    Gauss-Jordan elimination with integer row operations (a pivot column is
    cleared by Euclid's algorithm).  Raises RuntimeError unless the
    determinant is +-1, the only case with an integer inverse."""
    t = transition_matrix(n)
    size_ = len(t)
    aug = [list(row) + [int(i == j) for j in range(size_)] for i, row in enumerate(t)]
    det = 1
    for col in range(size_):
        # Euclid down the column: the least nonzero entry at or below the
        # diagonal becomes the pivot and reduces the entries under it
        rows = [r for r in range(col, size_) if aug[r][col]]
        while rows:
            piv = min(rows, key=lambda r: abs(aug[r][col]))
            if piv != col:
                aug[col], aug[piv] = aug[piv], aug[col]
                det = -det
            for r in range(col + 1, size_):
                f = aug[r][col] // aug[col][col]
                if f:
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
            rows = [r for r in range(col + 1, size_) if aug[r][col]]
        if aug[col][col] not in (1, -1):
            raise RuntimeError(f"the cellular basis transition matrix at n = {n} is not unimodular")
        det *= aug[col][col]
        aug[col] = [x * aug[col][col] for x in aug[col]]
        for r in range(size_):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return det, tuple(tuple(row[size_:]) for row in aug)


def expand_in_gl_basis(x: AlgebraElement) -> dict[int, LaurentPoly]:
    """Writes x = sum coeffs[i] * gl_basis(n)[i]; coefficients are
    integer-coefficient Laurent polynomials in delta (exact)."""
    n = x.n
    ds = {d: j for j, d in enumerate(all_diagrams(n))}
    vec: list[LaurentPoly] = [LaurentPoly({})] * len(ds)
    for d, c in x.terms.items():
        vec[ds[d]] = vec[ds[d]] + c
    _, tinv = _transition_inverse(n)
    # coefficient on basis element i is sum_j vec[j] * Tinv[j][i]
    out: dict[int, LaurentPoly] = {}
    for j, vj in enumerate(vec):
        if vj.is_zero:
            continue
        for i in range(len(ds)):
            f = tinv[j][i]
            if f:
                out[i] = out.get(i, LaurentPoly({})) + vj * f
    return {i: c for i, c in out.items() if not c.is_zero}


def layer_membership(x: AlgebraElement, label: ReflectedLabel) -> dict[str, bool]:
    """Whether x lies in the span of layers >= label (`above`) resp.
    strictly above (`strictly_above`) in the reflected order."""
    basis = gl_basis(x.n)
    coeffs = expand_in_gl_basis(x)
    above = strictly = True
    for i in coeffs:
        cmp = reflected_cmp(basis[i].label, label)
        if cmp not in (Ordering.GREATER, Ordering.EQUAL):
            above = False
        if cmp is not Ordering.GREATER:
            strictly = False
    return {"above": above, "strictly_above": strictly}


def left_action_triangular(n: int) -> bool:
    """Checks the cellular left-action axiom on all generators g and basis
    elements c: g * c = sum r_i * c_i with c_i in the same layer and the same
    right index, modulo strictly higher layers, with r_i independent of the
    right index."""
    basis = gl_basis(n)
    gens = [generator(k, j, n) for k in ("s", "e") for j in range(1, n)]
    for g in gens:
        ge = AlgebraElement.from_diagram(g)
        coefficient_tables: dict[tuple, dict[tuple, LaurentPoly]] = {}
        for i, c in enumerate(basis):
            prod = multiply(ge, c.element)
            coeffs = expand_in_gl_basis(prod)
            table: dict[tuple, LaurentPoly] = {}
            for j, r in coeffs.items():
                cj = basis[j]
                cmp = reflected_cmp(cj.label, c.label)
                if cmp is Ordering.GREATER:
                    continue  # strictly higher layers are allowed freely
                if cmp is not Ordering.EQUAL:
                    return False  # escaped below the layer
                if (cj.right_tableau, cj.right_coset) != (c.right_tableau, c.right_coset):
                    return False  # right index changed within the layer
                table[(cj.left_tableau, cj.left_coset)] = r
            key = (g, c.label, c.left_tableau, c.left_coset)
            if key in coefficient_tables:
                if coefficient_tables[key] != table:
                    return False  # depends on the right index
            else:
                coefficient_tables[key] = table
    return True


def involution_swaps_indices(n: int) -> bool:
    """Checks c_(S,T)* = c_(T,S) exactly for the whole basis."""
    basis = gl_basis(n)
    index = {
        (c.label, c.left_tableau, c.left_coset, c.right_tableau, c.right_coset): c
        for c in basis
    }
    for c in basis:
        swapped = index[(c.label, c.right_tableau, c.right_coset, c.left_tableau, c.left_coset)]
        if involute(c.element) != swapped.element:
            return False
    return True


def ideal_identification(n: int) -> bool:
    """Checks that the span of the layers with |la| < n is exactly the
    two-sided ideal generated by e_(n-1): both are spanned by the diagrams
    with at least one arc."""
    if n < 2:
        return True
    arc_diagrams = {d for d in all_diagrams(n) if through_count(d) < n}
    # every lower-layer basis element is supported on arc diagrams
    for c in gl_basis(n):
        if in_order_ideal_zero(c.label):
            if not c.element.support() <= arc_diagrams:
                return False
        else:
            # top layer (|la| = n): a sum of permutation diagrams
            if not all(through_count(d) == n for d in c.element.support()):
                return False
    # the ideal generated by e_(n-1) reaches every arc diagram
    e = AlgebraElement.from_diagram(generator("e", n - 1, n))
    reached: set[BrauerDiagram] = set()
    for a in all_diagrams(n):
        ae = multiply(AlgebraElement.from_diagram(a), e)
        for b in all_diagrams(n):
            prod = multiply(ae, AlgebraElement.from_diagram(b))
            reached.update(prod.support())
    return reached == arc_diagrams


def weak_coherence_check(x: AlgebraElement, label: ReflectedLabel, n: int) -> bool:
    """Checks the restriction-coherence statement for x in the layer of
    `label` at level k = label.level: inside Br_n (same parity, n >= k),
    x * ex(n, (n-k)/2) lies in the layers >= (la, n) but not strictly above.

    Here x is included into Br_n by adding vertical strands on the right.
    """
    k = label.level
    if (n - k) % 2 or n < k:
        raise ValueError(f"level {k} does not include into level {n}")
    y = x
    for _ in range(n - k):
        y = embed(y)
    s = (n - k) // 2
    y = multiply(y, AlgebraElement.from_diagram(ex_diagram(n, s)))
    target = ReflectedLabel(label.shape, n)
    member = layer_membership(y, target)
    return member["above"] and not member["strictly_above"]
