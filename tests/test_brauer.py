"""Tests for Brauer diagrams: products, traces, cosets, factorization."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagalg.branching import double_factorial_odd
from diagalg.brauer import (
    DELTA,
    AlgebraElement,
    all_diagrams,
    closure,
    closure_diagram,
    compose_diagrams,
    cond_exp,
    coset_counting_identity,
    diagram_from_pairs,
    embed,
    embed_diagram,
    ex_diagram,
    factorize,
    full_closure_cycles,
    gen_D,
    generator,
    identity_diagram,
    involute,
    involute_diagram,
    markov_trace,
    multiply,
    perm_compose,
    perm_diagram,
    perm_extend,
    perm_inverse,
    recompose,
)
from diagalg.exactalg import LaurentPoly


def elem(d, coeff=1):
    return AlgebraElement.from_diagram(d, coeff)


def one(n):
    return elem(identity_diagram(n))


def add(x, y):
    """The sum of two elements on the same number of strands."""
    terms = dict(x.terms)
    for d, c in y.terms.items():
        terms[d] = terms[d] + c if d in terms else c
    return AlgebraElement(x.n, terms)


@st.composite
def diagrams_st(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    return draw(st.sampled_from(all_diagrams(n)))


@st.composite
def diagram_pairs_st(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    ds = all_diagrams(n)
    return draw(st.sampled_from(ds)), draw(st.sampled_from(ds))


def test_diagram_validation():
    for n, pairs in [
        (1, [(0, 0)]),  # fixed point
        (2, [(0, 1)]),  # incomplete matching
        (1, [(0, 5)]),  # vertex past 2n - 1
        (1, [(-1, 0)]),  # negative vertex
        (1, [(0, 1), (0, 1)]),  # repeated pair
        (2, [(0, 1), (2, 3), (0, 1)]),  # a complete matching plus a repeat
        (2, [(0, 1), (1, 2)]),  # a shared vertex
        (1, []),  # no pairs
        (0, [(0, 1)]),  # a pair on no vertices
    ]:
        with pytest.raises(ValueError):
            diagram_from_pairs(n, pairs)
    assert diagram_from_pairs(2, zip([0, 1], [3, 2])) == (3, 2, 1, 0)
    assert diagram_from_pairs(0, []) == ()


def test_diagram_counts():
    for n in range(1, 6):
        assert len(all_diagrams(n)) == double_factorial_odd(n)


def _reference_pairings(values):
    """Perfect matchings of a sorted tuple as arc lists, by slicing."""
    if not values:
        yield ()
        return
    first, rest = values[0], values[1:]
    for k, second in enumerate(rest):
        for sub in _reference_pairings(rest[:k] + rest[k + 1 :]):
            yield ((first, second),) + sub


def test_all_diagrams_match_matchings_built_from_pairs():
    # the direct enumeration against matchings checked by diagram_from_pairs,
    # in the Gram basis order: through strands descending, then the tuple
    for n in range(7):
        want = [diagram_from_pairs(n, pairs) for pairs in _reference_pairings(tuple(range(2 * n)))]
        want.sort(key=lambda d: (-sum(w >= n for w in d[:n]), d))
        got = all_diagrams(n)
        assert type(got) is tuple and list(got) == want
        for d in got:  # each a fixed-point-free involution of 0..2n-1
            assert type(d) is tuple and len(d) == 2 * n
            assert all(0 <= d[v] < 2 * n and d[v] != v and d[d[v]] == v for v in range(2 * n))


def test_generators_and_composition_examples():
    e1 = generator("e", 1, 2)
    s1 = generator("s", 1, 2)
    # e1 o s1 = e1 with no loops; e1 o e1 = e1 with one loop
    d, loops = compose_diagrams(e1, s1)
    assert d == e1 and loops == 0
    d, loops = compose_diagrams(s1, e1)
    assert d == e1 and loops == 0
    d, loops = compose_diagrams(e1, e1)
    assert d == e1 and loops == 1
    # (1 + s1) * e1 = 2 * e1
    x = add(one(2), elem(s1))
    assert multiply(x, elem(e1)) == elem(e1, LaurentPoly.constant(2))


def test_permutation_diagrams_compose_functionally():
    p, q = (2, 3, 1), (1, 3, 2)
    dp, l1 = compose_diagrams(perm_diagram(p), perm_diagram(q))
    assert l1 == 0
    assert dp == perm_diagram(perm_compose(p, q))
    assert involute_diagram(perm_diagram(p)) == perm_diagram(perm_inverse(p))


def _components(size: int, edges) -> tuple[list[int], int]:
    """Union-find on vertices 0..size-1: the root of each vertex, and the
    number of components."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in edges:
        parent[find(x)] = find(y)
    roots = [find(x) for x in range(size)]
    return roots, len(set(roots))


def _reference_compose(a, b) -> tuple[tuple[int, ...], int]:
    """a over b on the 3n stacked vertices: a's top row 0..n-1, the middle
    row n..2n-1 (a's bottom, b's top) and b's bottom row 2n..3n-1.  Each
    component holds two outer vertices, the ends of one strand of the
    product, or none, a closed loop in the middle row."""
    n = len(a) // 2
    edges = list(enumerate(a)) + [(v + n, w + n) for v, w in enumerate(b)]
    roots, _ = _components(3 * n, edges)
    outer = list(range(n)) + list(range(2 * n, 3 * n))  # product vertex v is outer[v]
    ends: dict[int, list[int]] = {}
    for v, x in enumerate(outer):
        ends.setdefault(roots[x], []).append(v)
    matching = [-1] * (2 * n)
    for v, w in ends.values():
        matching[v], matching[w] = w, v
    loops = len({roots[x] for x in range(n, 2 * n)} - set(ends))
    return tuple(matching), loops


def test_compose_and_closure_match_union_find_references():
    rng = random.Random(20261019)
    ds5 = all_diagrams(5)
    pairs = [(a, b) for n in range(4) for a in all_diagrams(n) for b in all_diagrams(n)]
    pairs += [(rng.choice(ds5), rng.choice(ds5)) for _ in range(2000)]
    for a, b in pairs:
        d, loops = compose_diagrams(a, b)
        assert (d, loops) == _reference_compose(a, b)
    for d in {d for pair in pairs for d in pair}:
        n = len(d) // 2
        closed = list(enumerate(d)) + [(i, n + i) for i in range(n)]
        assert full_closure_cycles(d) == _components(2 * n, closed)[1]
    with pytest.raises(ValueError, match="^size mismatch: 2 vs 3$"):
        compose_diagrams(identity_diagram(2), identity_diagram(3))


def _reference_involute(d):
    """* from the list of reflected pairs, validated."""
    n = len(d) // 2

    def flip(v):
        return v + n if v < n else v - n

    return diagram_from_pairs(n, [(flip(i), flip(d[i])) for i in range(2 * n) if i < d[i]])


def _reference_embed(d):
    """iota from the list of shifted pairs plus the new strand, validated."""
    n = len(d) // 2

    def remap(v):
        return v if v < n else v + 1

    pairs = [(remap(i), remap(d[i])) for i in range(2 * n) if i < d[i]]
    pairs.append((n, 2 * n + 1))
    return diagram_from_pairs(n + 1, pairs)


def _reference_closure(d):
    """cl from the list of shifted pairs that avoid the joined vertices, plus
    the pair of their partners unless those close a loop, validated."""
    n = len(d) // 2
    t_last, b_last = n - 1, 2 * n - 1

    def remap(v):
        return v if v < n else v - 1

    kept = [(remap(i), remap(d[i])) for i in range(2 * n) if i < d[i] and not {i, d[i]} & {t_last, b_last}]
    if d[t_last] == b_last:
        return diagram_from_pairs(n - 1, kept), 1
    return diagram_from_pairs(n - 1, kept + [(remap(d[t_last]), remap(d[b_last]))]), 0


def test_relabellings_match_pair_list_references():
    """involute, embed and closure skip the matching check, so each result
    must equal its validated reference and be a diagram of its level."""
    levels = [set(all_diagrams(n)) for n in range(6)]
    for n in range(5):
        for d in all_diagrams(n):
            star = involute_diagram(d)
            assert star == _reference_involute(d) and star in levels[n]
            up = embed_diagram(d)
            assert up == _reference_embed(d) and up in levels[n + 1]
            if n:
                closed, loops = closure_diagram(d)
                assert (closed, loops) == _reference_closure(d) and closed in levels[n - 1]
    with pytest.raises(ValueError, match="^cannot close the empty diagram$"):
        closure_diagram(identity_diagram(0))


def test_composition_is_associative_with_loop_totals():
    for n in range(4):
        ds = all_diagrams(n)
        matchings = set(ds)  # compose_diagrams skips the matching check: each product must be one of these
        for a in ds:
            for b in ds:
                ab, l_ab = compose_diagrams(a, b)
                assert ab in matchings
                for c in ds:
                    left, l_left = compose_diagrams(ab, c)
                    bc, l_bc = compose_diagrams(b, c)
                    right, l_right = compose_diagrams(a, bc)
                    assert left == right and l_ab + l_left == l_bc + l_right


def test_involution_reverses_composition():
    for n in range(4):
        ds = all_diagrams(n)
        for a in ds:
            for b in ds:
                ab, loops = compose_diagrams(a, b)
                star = compose_diagrams(involute_diagram(b), involute_diagram(a))
                assert star == (involute_diagram(ab), loops)


def test_involution_examples():
    e1 = generator("e", 1, 3)
    assert involute_diagram(e1) == e1
    s1 = generator("s", 1, 3)
    assert involute_diagram(s1) == s1
    # a diagram that is not self-adjoint: arcs (1,2) on top, (2,3) on bottom
    d = diagram_from_pairs(3, [(0, 1), (4, 5), (2, 3)])
    assert involute_diagram(d) != d
    assert involute_diagram(involute_diagram(d)) == d


def test_embed_examples():
    e1 = generator("e", 1, 2)
    assert embed_diagram(e1) == generator("e", 1, 3)
    assert embed_diagram(identity_diagram(2)) == identity_diagram(3)


def test_closure_examples():
    # closing the identity creates one loop: cl(1_2) = delta * 1_1
    assert closure_diagram(identity_diagram(2)) == (identity_diagram(1), 1)
    # closing e1 bends the arcs into a vertical strand, no loop
    e1 = generator("e", 1, 2)
    assert closure_diagram(e1) == (identity_diagram(1), 0)
    x = closure(one(2))
    assert x == elem(identity_diagram(1), DELTA)
    # the conditional expectation is normalized: E(1_n) = 1_(n-1)
    assert cond_exp(one(2)) == one(1)


def test_closure_undoes_embedding():
    for n in range(1, 4):
        for d in all_diagrams(n):
            x = elem(d)
            assert closure(embed(x)) == x.scale(DELTA)


def test_markov_trace_examples():
    assert markov_trace(one(2)) == LaurentPoly.constant(1)
    e1, s1 = generator("e", 1, 2), generator("s", 1, 2)
    assert markov_trace(elem(e1)) == DELTA**-1
    assert markov_trace(elem(s1)) == DELTA**-1
    assert full_closure_cycles(identity_diagram(3)) == 3


def test_trace_equals_iterated_conditional_expectation():
    for n in range(1, 5):
        for d in all_diagrams(n):
            x = elem(d)
            for _ in range(n):
                x = cond_exp(x)
            assert x.n == 0
            expected = markov_trace(elem(d))
            assert x.coeff(identity_diagram(0)) == expected


def test_trace_is_symmetric_on_random_pairs():
    rng = random.Random(20260814)
    for n in range(1, 6):
        ds = all_diagrams(n)
        for _ in range(500):
            a, b = rng.choice(ds), rng.choice(ds)
            xy = multiply(elem(a), elem(b))
            yx = multiply(elem(b), elem(a))
            assert markov_trace(xy) == markov_trace(yx)


def test_trace_markov_property():
    # tr(delta^-1 e_n * iota(x)) = delta^-2 tr(x) for x in Br_n
    for n in range(1, 4):
        e_n = generator("e", n, n + 1)
        for d in all_diagrams(n):
            lhs = markov_trace(multiply(elem(e_n, DELTA**-1), embed(elem(d))))
            rhs = DELTA**-2 * markov_trace(elem(d))
            assert lhs == rhs


def test_conditional_expectation_bimodule_identity():
    # e_n * iota(x) * e_n = iota^2(cl(x)) * e_n in Br_(n+1), x in Br_n
    for n in range(1, 4):
        e_n = elem(generator("e", n, n + 1))
        for d in all_diagrams(n):
            x = elem(d)
            lhs = multiply(multiply(e_n, embed(x)), e_n)
            rhs = multiply(embed(embed(closure(x))), e_n)
            assert lhs == rhs


def test_temperley_lieb_and_symmetric_group_relations():
    n = 5
    unit = one(n)
    e = {j: elem(generator("e", j, n)) for j in range(1, n)}
    s = {j: elem(generator("s", j, n)) for j in range(1, n)}
    mul = multiply
    for j in range(1, n):
        assert mul(e[j], e[j]) == e[j].scale(DELTA)
        assert mul(s[j], s[j]) == unit
        assert mul(e[j], s[j]) == e[j] == mul(s[j], e[j])
    for j in range(1, n - 1):
        assert mul(e[j], mul(e[j + 1], e[j])) == e[j]
        assert mul(e[j + 1], mul(e[j], e[j + 1])) == e[j + 1]
        assert mul(s[j], mul(s[j + 1], s[j])) == mul(s[j + 1], mul(s[j], s[j + 1]))
        assert mul(s[j], mul(e[j + 1], e[j])) == mul(s[j + 1], e[j])
        assert mul(e[j], mul(e[j + 1], s[j])) == mul(e[j], s[j + 1])
    for i in range(1, n):
        for j in range(i + 2, n):
            assert mul(e[i], e[j]) == mul(e[j], e[i])
            assert mul(s[i], s[j]) == mul(s[j], s[i])
            assert mul(e[i], s[j]) == mul(s[j], e[i])


@given(diagram_pairs_st())
@settings(max_examples=250)
def test_involution_is_an_antiautomorphism(pair):
    a, b = pair
    lhs = involute(multiply(elem(a), elem(b)))
    rhs = multiply(involute(elem(b)), involute(elem(a)))
    assert lhs == rhs


@given(diagram_pairs_st())
@settings(max_examples=250)
def test_embedding_is_multiplicative(pair):
    a, b = pair
    lhs = embed(multiply(elem(a), elem(b)))
    rhs = multiply(embed(elem(a)), embed(elem(b)))
    assert lhs == rhs


@given(diagrams_st())
@settings(max_examples=250)
def test_trace_of_x_xstar_has_exponent_zero(d):
    # tr(b b*) = delta^0; more generally tr(b b') = delta^k with k <= 0
    x = multiply(elem(d), elem(involute_diagram(d)))
    assert markov_trace(x).coeffs.get(0) is not None


def test_ex_diagram_and_coset_examples():
    assert ex_diagram(2, 1) == generator("e", 1, 2)
    assert ex_diagram(3, 0) == identity_diagram(3)
    assert gen_D(2, 1) == ((1, 2),)
    assert gen_D(4, 1) == tuple(sorted(gen_D(4, 1)))
    assert len(gen_D(4, 1)) == 6
    assert len(gen_D(4, 2)) == 3
    assert gen_D(3, 0) == ((1, 2, 3),)
    # D(3, 1): choose the through value, pair the rest
    assert gen_D(3, 1) == ((1, 2, 3), (2, 1, 3), (3, 1, 2))


def test_coset_counting_identity():
    for n in range(1, 7):
        assert coset_counting_identity(n)
    # the identity counts its own enumeration and leaves the gen_D cache alone
    before = gen_D.cache_info().currsize
    assert coset_counting_identity(9)
    assert gen_D.cache_info().currsize == before


def test_coset_representatives_satisfy_pattern_conditions():
    for n in range(1, 6):
        for s in range(n // 2 + 1):
            ell = n - 2 * s
            for u in gen_D(n, s):
                assert sorted(u) == list(range(1, n + 1))
                assert list(u[:ell]) == sorted(u[:ell])
                mins = [u[ell + 2 * k] for k in range(s)]
                assert mins == sorted(mins)
                assert all(u[ell + 2 * k] < u[ell + 2 * k + 1] for k in range(s))


def test_factorization_round_trip_exhaustive():
    for n in range(1, 5):
        for d in all_diagrams(n):
            u, pi, v, s = factorize(d)
            assert u in gen_D(n, s)
            assert v in gen_D(n, s)
            assert sorted(pi) == list(range(1, n - 2 * s + 1))
            back, loops = recompose(u, pi, v, s)
            assert loops == 0
            assert back == d


def test_factorization_of_special_diagrams():
    n = 4
    assert factorize(identity_diagram(n)) == ((1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4), 0)
    u, pi, v, s = factorize(ex_diagram(4, 2))
    assert s == 2 and pi == ()
    assert u == v == (1, 2, 3, 4)


def test_element_arithmetic_drops_zeros():
    e1, s1 = generator("e", 1, 2), generator("s", 1, 2)
    assert AlgebraElement(2, {e1: Fraction(0)}).terms == {}
    x = add(elem(e1, Fraction(1, 2)), elem(e1, Fraction(-1, 2)))
    assert x.terms == {} and x == AlgebraElement(2)
    # (1 - s1) * e1 = e1 - e1 cancels in the product
    assert multiply(add(one(2), elem(s1, -1)), elem(e1)).terms == {}
