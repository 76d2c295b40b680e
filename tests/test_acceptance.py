"""End-to-end acceptance checks at the full specified depths and time bounds.

Each test is a self-contained equivalence between independent computations:
closed forms against brute-force searches, Gram-matrix ranks against weight
vanishing, diagram combinatorics against counting formulas.  Stated runtime
ceilings are asserted so that regressions in algorithmic complexity fail
loudly rather than silently slowing the suite.
"""

import time

from diagalg.branching import double_factorial_odd, path_count, reflected_level
from diagalg.brauer import all_diagrams, coset_counting_identity, factorize, recompose
from diagalg.criteria import (
    decide,
    m_bruteforce,
    m_closed,
    mprime_bruteforce,
    mprime_closed,
)
from diagalg.exactalg import RootSpec
from diagalg.gram import first_degenerate_level, gram_matrix, rank, rank_mod_p
from diagalg.verify import (
    suite_cellular,
    suite_counting,
    suite_specialization,
    suite_trace,
)
from diagalg.weights import (
    BMWParams,
    BrauerParams,
    IntegerDelta,
    QBrauerParams,
    RootOfUnity,
    SignedPower,
    vanishing_level,
)


def _assert_all_passed(results):
    failed = [r for r in results if not r.passed]
    assert not failed, failed


def test_criterion_1_closed_forms_match_search():
    # m0/m1/m2 on [-20, 20] minus 0 and m3 on [-20, 20], search limit 40
    start = time.monotonic()
    for x in range(-20, 21):
        if x != 0:
            assert m_closed(0, x)[0] == m_bruteforce(0, x, 40)[0]
            assert m_closed(1, x)[0] == m_bruteforce(1, x, 40)[0]
            assert m_closed(2, x)[0] == m_bruteforce(2, x, 40)[0]
        assert m_closed(3, x)[0] == m_bruteforce(3, x, 40)[0]
    assert time.monotonic() - start < 10.0


def test_criterion_2_remark_values():
    assert m_bruteforce(0, 0)[0] == 2
    assert m_bruteforce(2, 0)[0] == 2
    assert m_bruteforce(1, 0)[0] == 3


def test_criterion_3_primed_case_table():
    start = time.monotonic()
    for e in range(2, 13):
        for f in (e, 2 * e):
            rs = RootSpec(e, f)
            for N in range(-e + 1, 1):
                for eps in (1, -1):
                    for char2 in (False, True):
                        for kind in (1, 2, 3):
                            closed = mprime_closed(kind, N, eps, rs, char2)
                            assert closed[0] == mprime_bruteforce(kind, N, eps, rs, char2, 40)[0]
    assert time.monotonic() - start < 30.0


def test_criterion_4_worked_examples_reproduced():
    # q-Brauer at odd e with q^e = 1, N odd in (-e, 0)
    for e in range(3, 14, 2):
        for N in (x for x in range(-e + 1, 0) if x % 2):
            want = min(e - 1, (e - N) // 2 + 1, -N + 3, N + e + 1)
            spec = QBrauerParams(0, RootOfUnity(RootSpec(e, e)), SignedPower(1, N))
            assert decide(spec).m == want
    # q-Brauer at even e with q^e = -1, N odd in (-e, 0)
    for e in range(2, 13, 2):
        for N in (x for x in range(-e + 1, 0) if x % 2):
            want = min(e - 1, -N + 3, N + e + 1)
            spec = QBrauerParams(0, RootOfUnity(RootSpec(e, 2 * e)), SignedPower(1, N))
            assert decide(spec).m == want
    # BMW at odd e, f = 2e, r = -q^(N-1), N even in (-e, 0]
    for e in range(3, 14, 2):
        for N in (x for x in range(-e + 1, 1) if x % 2 == 0):
            want = min(e - 1, N + e + 1, -N + 3, N // 2 + e)
            spec = BMWParams(0, RootOfUnity(RootSpec(e, 2 * e)), SignedPower(-1, N))
            assert decide(spec).m == want


def test_criterion_5_gram_cross_validation_char_zero():
    start = time.monotonic()
    expected = {1: 2, -2: 2, 2: 3, -4: 3, -1: 4, 3: 4}
    for d, level in expected.items():
        spec = BrauerParams(0, IntegerDelta(d))
        degenerate = first_degenerate_level(spec, 4)
        vanish = vanishing_level(spec, 4)
        assert degenerate == level
        assert vanish is not None and vanish[0] == level
        assert decide(spec).m == level
    assert time.monotonic() - start < 60.0


def test_criterion_5_gram_ranks_at_level_five_char_zero():
    # deficient 945 x 945 ranks over Q, certified by the first screen; only the
    # eliminations are timed
    matrices = {d: gram_matrix(5, d, scaled=True) for d in (2, -2)}
    start = time.monotonic()
    assert rank(matrices[2]) == 126
    assert rank(matrices[-2]) == 42
    assert time.monotonic() - start < 10.0


def test_criterion_6_gram_cross_validation_char_p():
    start = time.monotonic()
    for p in (5, 7):
        for N in range(1, p):
            predicted = min(p - 1, m_closed(0, N)[0], m_closed(0, N - p)[0])
            if predicted > 4:
                continue
            spec = BrauerParams(p, IntegerDelta(N))
            assert decide(spec).m == predicted
            assert first_degenerate_level(spec, 4) == predicted
    assert time.monotonic() - start < 120.0


def test_gram_ranks_at_level_five():
    # the 945 x 945 scaled Gram matrices; only the eliminations are timed
    matrices = {(p, d): gram_matrix(5, d, scaled=True) for p, d in ((7, 2), (11, 5))}
    start = time.monotonic()
    assert len(rank_mod_p(matrices[7, 2], 7).columns) == 126
    assert len(rank_mod_p(matrices[11, 5], 11).columns) == 909
    assert time.monotonic() - start < 10.0


def test_criterion_7_counting_identities():
    for n in range(9):
        assert sum(path_count(x) ** 2 for x in reflected_level(n)) == double_factorial_odd(n)
        if n:
            assert coset_counting_identity(n)
    for n in range(1, 5):
        for d in all_diagrams(n):
            u, pi, v, s = factorize(d)
            assert recompose(u, pi, v, s) == (d, 0)


def test_criterion_8_trace_identities():
    results = suite_trace(max_n=5, pairs=500)
    _assert_all_passed(results)


def test_criterion_9_weight_normalization():
    results = suite_trace(max_n=5, pairs=1)  # normalization part at n <= 5
    norm = [r for r in results if "weight" in r.name]
    _assert_all_passed(norm)
    results = suite_specialization(max_n=4)
    q_norm = [r for r in results if "normalization" in r.name]
    _assert_all_passed(q_norm)


def test_criterion_10_specialization_at_q_one():
    results = suite_specialization(max_n=6)
    spec = [r for r in results if "q = 1" in r.name]
    _assert_all_passed(spec)


def test_criterion_11_cellular_suite():
    results = suite_cellular(max_n=4)
    _assert_all_passed(results)


def test_counting_suite_end_to_end():
    _assert_all_passed(suite_counting(max_n=8))
