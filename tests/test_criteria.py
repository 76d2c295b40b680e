"""Tests for the closed-form bounds, brute-force oracles, and decisions."""

import itertools
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from diagalg import criteria, verify
from diagalg.criteria import (
    MAX_WITNESS_LEVEL,
    UNBOUNDED,
    Constituent,
    UnboundedType,
    Verdict,
    bound_min,
    decide,
    m_bruteforce,
    m_closed,
    mprime_bruteforce,
    mprime_closed,
)
from diagalg.exactalg import RootSpec
from diagalg.partitions import partitions_of, size
from diagalg.weights import (
    BMWParams,
    BrauerParams,
    GenericDelta,
    GenericR,
    IntegerDelta,
    NonIntegerDelta,
    NotRootOfUnity,
    ParameterError,
    PlusMinusOne,
    QBrauerParams,
    RootOfUnity,
    SignedPower,
    evaluate_weight,
    validate_params,
)


def test_unbounded_is_a_singleton_identity_for_min():
    assert UnboundedType() is UNBOUNDED
    assert bound_min() is UNBOUNDED
    assert bound_min(UNBOUNDED, UNBOUNDED) is UNBOUNDED
    assert bound_min(5, UNBOUNDED, 3) == 3


def test_remark_values_at_zero():
    assert m_bruteforce(0, 0)[0] == 2
    assert m_bruteforce(2, 0)[0] == 2
    assert m_bruteforce(1, 0)[0] == 3
    assert m_closed(3, 0) == (UNBOUNDED, None)


def test_closed_form_examples():
    assert m_closed(0, 3)[0] == 4
    assert m_closed(1, -2)[0] == 5
    assert m_closed(2, -2)[0] == 2
    assert m_closed(0, -2)[0] == 2
    assert m_closed(2, -3)[0] is UNBOUNDED
    assert m_closed(3, 2)[0] == 2
    assert m_closed(3, 6)[0] == 3
    assert m_closed(3, -4)[0] is UNBOUNDED
    assert m_closed(3, 5)[0] is UNBOUNDED


def test_closed_forms_match_bruteforce():
    # levels and witnesses, |arg| <= 20 with search limit 40
    for x in range(-20, 21):
        for kind in range(4):
            assert m_closed(kind, x) == m_bruteforce(kind, x, 40), (kind, x)


# The box statistics written out here from their definitions, apart from
# `partitions.box_statistics`, which the search reads: la_k and la'_k (the
# number of parts >= k) are 0 past the end.


def _boxes(la):
    """The boxes of la in row-major order."""
    return [(i, j) for i, row in enumerate(la, start=1) for j in range(1, row + 1)]


def _contains(la, box):
    i, j = box
    return 1 <= i <= len(la) and 1 <= j <= la[i - 1]


def _bvalue(la, box):
    """b(i, j) = -la'_i - la'_j + i + j - 2."""
    i, j = box
    return -sum(x >= i for x in la) - sum(x >= j for x in la) + i + j - 2


def _dvalue(la, box):
    """d(i, j) = a(i, j) = la_i + la_j - i - j for i <= j, else b(i, j)."""
    i, j = box
    if i > j:
        return _bvalue(la, box)
    return sum(la[k - 1] if k <= len(la) else 0 for k in (i, j)) - i - j


def _reference_box_tables(n):
    """The four first-witness tables straight from the box definitions."""
    any_d, off_d, diag_d, diag_b = {}, {}, {}, {}
    for la in partitions_of(n):
        for i, j in _boxes(la):
            witness = (la, (i, j))
            d = _dvalue(la, (i, j))
            any_d.setdefault(d, witness)
            if i == j:
                diag_d.setdefault(d, witness)
                diag_b.setdefault(_bvalue(la, (i, j)), witness)
            else:
                off_d.setdefault(d, witness)
    return any_d, off_d, diag_d, diag_b


def test_box_tables_match_the_box_definitions():
    # values and first witnesses, in insertion order: kinds 0 and 1 from the
    # full box scan, kinds 2 and 3 from the diagonal one; oracle-equivalence
    # at --max-n 20 builds full box tables up to level 23
    for n in range(24):
        tables = criteria._box_tables(n) + criteria._diagonal_tables(n)
        assert len(tables) == 4
        for got, want in zip(tables, _reference_box_tables(n)):
            assert list(got.items()) == list(want.items()), n


def test_diagonal_tables_match_the_diagonal_boxes():
    # only the boxes (i, i), in insertion order, to level 30
    for n in range(31):
        diag_d, diag_b = {}, {}
        for la in partitions_of(n):
            for i in range(1, len(la) + 1):
                if la[i - 1] >= i:
                    diag_d.setdefault(_dvalue(la, (i, i)), (la, (i, i)))
                    diag_b.setdefault(_bvalue(la, (i, i)), (la, (i, i)))
        got_d, got_b = criteria._diagonal_tables(n)
        assert list(got_d.items()) == list(diag_d.items()), n
        assert list(got_b.items()) == list(diag_b.items()), n


def test_diagonal_searches_build_no_full_box_table():
    # kinds 2 and 3 read diagonal boxes only, even when they find nothing
    criteria._box_tables.cache_clear()
    criteria._diagonal_tables.cache_clear()
    assert m_bruteforce(2, 3, 40) == (UNBOUNDED, None)
    assert m_bruteforce(3, -1, 40) == (UNBOUNDED, None)
    assert mprime_bruteforce(2, -2, -1, RootSpec(5, 10), False, 40) == (UNBOUNDED, None)
    assert mprime_bruteforce(3, -2, 1, RootSpec(5, 5), False, 40) == (UNBOUNDED, None)
    assert criteria._box_tables.cache_info().currsize == 0
    assert criteria._diagonal_tables.cache_info().currsize == 39  # levels 2..40


_RETAINED_AFTER_A_FULL_SEARCH = """
import gc, tracemalloc
tracemalloc.start()
from diagalg import criteria
assert criteria.m_bruteforce(3, 1, 40) == (criteria.UNBOUNDED, None)
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_a_full_search_keeps_only_its_witness_tables():
    # b(i, i) is even, so kind 3 never meets an odd argument and the search
    # enumerates every level to 40 (215,308 partitions); only the per-level
    # tables may stay.  A fresh process, as other tests fill the caches here.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _RETAINED_AFTER_A_FULL_SEARCH],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5 * 2**20


def test_oracle_suite_scans_all_boxes_only_to_its_first_hits(monkeypatch):
    # at depth 15 every kind-0/1 search hits by level 18 (m1(-15) = 18)
    levels = []
    full_scan = criteria._box_tables

    def recording(n):
        levels.append(n)
        return full_scan(n)

    monkeypatch.setattr(criteria, "_box_tables", recording)
    results = verify.suite_oracle_equivalence(15)
    assert all(r.passed for r in results) and len(results) == 3
    assert levels and max(levels) <= 18


def test_bruteforce_witnesses_are_valid():
    for kind, arg in ((0, 3), (0, -2), (1, -4), (2, -6), (3, 4)):
        level, witness = m_bruteforce(kind, arg, 30)
        assert witness is not None
        la, box = witness
        assert size(la) == level and _contains(la, box)
        if kind == 3:
            assert box[0] == box[1] and _bvalue(la, box) == -arg
        else:
            assert _dvalue(la, box) == -arg
            if kind == 1:
                assert box[0] != box[1]
            if kind == 2:
                assert box[0] == box[1]


def test_bruteforce_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        m_bruteforce(4, 1)
    with pytest.raises(ParameterError):
        m_bruteforce(0, 1, 1)
    with pytest.raises(ParameterError):
        mprime_bruteforce(0, 0, 1, RootSpec(3, 3), False)


def test_primed_examples():
    assert mprime_closed(1, -2, 1, RootSpec(5, 5), False)[0] == 4
    assert mprime_closed(2, -1, 1, RootSpec(7, 7), False)[0] == 5
    assert mprime_closed(2, -2, -1, RootSpec(5, 10), False)[0] is UNBOUNDED
    assert mprime_closed(3, -2, -1, RootSpec(5, 10), False)[0] == 4
    # odd f makes the sign conditions unsatisfiable for the "wrong" eps
    assert mprime_closed(2, -1, -1, RootSpec(5, 5), False)[0] is UNBOUNDED
    assert mprime_closed(3, -1, 1, RootSpec(5, 5), False)[0] is UNBOUNDED
    with pytest.raises(ParameterError):
        mprime_closed(1, 1, 1, RootSpec(5, 5), False)
    with pytest.raises(ParameterError):
        mprime_closed(1, -5, 1, RootSpec(5, 5), False)


def test_primed_closed_forms_match_bruteforce():
    # levels and witnesses, e <= 12, f in {e, 2e}, both signs, char 2 or not
    for e in range(2, 13):
        for f in (e, 2 * e):
            rs = RootSpec(e, f)
            for N in range(-e + 1, 1):
                assert mprime_closed(1, N, 1, rs, False) == mprime_bruteforce(1, N, 1, rs, False, 40)
                for eps in (1, -1):
                    for char2 in (False, True):
                        for kind in (2, 3):
                            searched = mprime_bruteforce(kind, N, eps, rs, char2, 40)
                            assert mprime_closed(kind, N, eps, rs, char2) == searched, (kind, N, eps, rs, char2)
    # d = 0 and d = 2 both sit at level 2; the search meets the row (2) first
    assert mprime_closed(2, -1, -1, RootSpec(2, 2), False) == (2, ((2,), (1, 1)))


def test_closed_forms_reject_bad_arguments():
    with pytest.raises(ParameterError):
        m_closed(4, 1)
    with pytest.raises(ParameterError):
        mprime_closed(0, 0, 1, RootSpec(3, 3), False)
    with pytest.raises(ParameterError):
        mprime_closed(2, 1, 1, RootSpec(3, 3), False)


def test_decide_brauer_cases():
    assert decide(BrauerParams(0, GenericDelta())).m is UNBOUNDED
    assert decide(BrauerParams(0, NonIntegerDelta())).m is UNBOUNDED
    assert decide(BrauerParams(7, GenericDelta())).m == 6
    assert decide(BrauerParams(0, IntegerDelta(2))).m == 3
    assert decide(BrauerParams(0, IntegerDelta(5))).m == 6
    assert decide(BrauerParams(0, IntegerDelta(-1))).m == 4
    v = decide(BrauerParams(5, IntegerDelta(2)))
    assert v.m == 3
    assert [c.value for c in v.constituents] == [4, 3, 6]
    assert v.normalized == (("N", 2),)
    # delta reduces mod p before the formula applies
    assert decide(BrauerParams(5, IntegerDelta(7))) == v


def _rui_z(n: int) -> set[int]:
    """Z(n) of Rui (J. Combin. Theory Ser. A 111, 2005): {4 - 2n <= i <=
    n - 2} minus the odd i with 4 - 2n < i <= 3 - n."""
    return {i for i in range(4 - 2 * n, n - 1) if not (i % 2 and 4 - 2 * n < i <= 3 - n)}


def test_decide_brauer_matches_rui_in_char_zero():
    # Rui: for delta != 0 in characteristic 0, Br_n(delta) is semisimple
    # if and only if delta is not in Z(n); m is the last level before that
    for delta in range(-80, 81):
        if delta:
            first = next(n for n in itertools.count(1) if delta in _rui_z(n))
            assert decide(BrauerParams(0, IntegerDelta(delta))).m == first - 1, delta


def test_decide_qbrauer_cases():
    assert decide(QBrauerParams(0, NotRootOfUnity(), GenericR())).m is UNBOUNDED
    assert decide(QBrauerParams(0, RootOfUnity(RootSpec(7, 7)), GenericR())).m == 6
    v = decide(QBrauerParams(0, RootOfUnity(RootSpec(7, 7)), SignedPower(1, -3)))
    assert v.m == 5 and v.normalized == (("N", -3),)
    assert [c.value for c in v.constituents] == [6, 6, 6, 5]
    v = decide(QBrauerParams(0, RootOfUnity(RootSpec(6, 12)), SignedPower(1, -3)))
    assert v.m == 4
    assert [c.value for c in v.constituents] == [5, 6, 12, 4]
    # the sign of r does not matter for the q-Brauer bound
    plus = decide(QBrauerParams(0, RootOfUnity(RootSpec(7, 7)), SignedPower(1, -3)))
    minus = decide(QBrauerParams(0, RootOfUnity(RootSpec(7, 7)), SignedPower(-1, -3)))
    assert plus.m == minus.m == 5
    assert decide(QBrauerParams(0, NotRootOfUnity(), SignedPower(-1, 3))).m == 4
    # q = +-1 reduces to the classical decision
    pm = decide(QBrauerParams(0, PlusMinusOne(IntegerDelta(2)), GenericR()))
    assert pm == decide(BrauerParams(0, IntegerDelta(2)))


def test_decide_bmw_cases():
    assert decide(BMWParams(0, NotRootOfUnity(), GenericR())).m is UNBOUNDED
    assert decide(BMWParams(0, RootOfUnity(RootSpec(9, 9)), GenericR())).m == 8
    v = decide(BMWParams(0, RootOfUnity(RootSpec(5, 10)), SignedPower(-1, -2)))
    assert v.m == 4 and v.normalized == (("eps", -1), ("N", -2))
    assert [c.value for c in v.constituents] == [4, 4, UNBOUNDED, 4]
    assert decide(BMWParams(0, NotRootOfUnity(), SignedPower(-1, 4))).m == 2
    assert decide(BMWParams(0, NotRootOfUnity(), SignedPower(1, -2))).m == 2
    # N = 0 is admissible for eps = -1: the kind-1 form gives the one-row witness
    zero = decide(BMWParams(0, NotRootOfUnity(), SignedPower(-1, 0)))
    assert zero.m == 3 and zero.witness == ((3,), (1, 2))
    # normalization folds the sign through q^e = -1
    a = decide(BMWParams(0, RootOfUnity(RootSpec(5, 10)), SignedPower(1, 3)))
    assert dict(a.normalized) == {"eps": -1, "N": -2}
    assert a.m == v.m


def test_decide_char_two_merges_signs():
    a = decide(BMWParams(2, NotRootOfUnity(), SignedPower(1, 3)))
    b = decide(BMWParams(2, NotRootOfUnity(), SignedPower(-1, 3)))
    assert a.m == b.m
    # in characteristic 2 the diagonal b-condition applies for either sign
    assert any(c.name.startswith("m3") for c in a.constituents)


def test_decide_witnesses_have_vanishing_weights():
    cases = (
        BrauerParams(0, IntegerDelta(2)),
        BrauerParams(5, IntegerDelta(2)),
        QBrauerParams(0, RootOfUnity(RootSpec(7, 7)), SignedPower(1, -3)),
        QBrauerParams(0, NotRootOfUnity(), SignedPower(-1, 3)),
        BMWParams(0, RootOfUnity(RootSpec(5, 10)), SignedPower(-1, -2)),
        BMWParams(0, NotRootOfUnity(), SignedPower(-1, 4)),
        BMWParams(0, NotRootOfUnity(), SignedPower(1, -2)),
        BMWParams(2, NotRootOfUnity(), SignedPower(1, 3)),
        BMWParams(0, NotRootOfUnity(), SignedPower(-1, 0)),
    )
    for spec in cases:
        verdict = decide(spec)
        assert verdict.witness is not None
        la, box = verdict.witness
        assert size(la) == verdict.m
        value = evaluate_weight(la, spec)
        assert value.evaluable and value.is_zero


def test_each_spec_gets_its_own_family_rule():
    # one decision reads the family from the spec; a spec cannot be paired
    # with another family's rule, under either name
    cases = (
        (BMWParams(0, RootOfUnity(RootSpec(5, 10)), SignedPower(-1, -2)), 4),
        (BMWParams(0, NotRootOfUnity(), SignedPower(-1, 4)), 2),
        (QBrauerParams(0, NotRootOfUnity(), SignedPower(-1, 4)), 5),
        (QBrauerParams(0, RootOfUnity(RootSpec(7, 7)), SignedPower(1, -3)), 5),
    )
    for spec, m in cases:
        assert decide(spec).m == m, spec
        assert criteria.decide_brauer(spec).m == m, spec


def test_decide_rejects_degenerate_parameters():
    with pytest.raises(ParameterError):
        decide(BrauerParams(0, IntegerDelta(0)))
    with pytest.raises(ParameterError):
        decide(QBrauerParams(0, RootOfUnity(RootSpec(7, 7)), SignedPower(1, 0)))
    with pytest.raises(ParameterError):
        decide(BMWParams(0, NotRootOfUnity(), SignedPower(1, 0)))


def test_worked_grid_spot_checks():
    # odd e, f = e: min{e-1, (e-N)/2+1, -N+3, N+e+1}
    for e, N in ((5, -1), (7, -3), (13, -11)):
        want = min(e - 1, (e - N) // 2 + 1, -N + 3, N + e + 1)
        got = decide(QBrauerParams(0, RootOfUnity(RootSpec(e, e)), SignedPower(1, N))).m
        assert got == want
    # even e, f = 2e: min{e-1, -N+3, N+e+1}
    for e, N in ((4, -1), (8, -5), (12, -11)):
        want = min(e - 1, -N + 3, N + e + 1)
        got = decide(QBrauerParams(0, RootOfUnity(RootSpec(e, 2 * e)), SignedPower(1, N))).m
        assert got == want
    # BMW, odd e, f = 2e, eps = -1, even N: min{e-1, N+e+1, -N+3, N/2+e}
    for e, N in ((5, -2), (7, 0), (13, -8)):
        want = min(e - 1, N + e + 1, -N + 3, N // 2 + e)
        got = decide(BMWParams(0, RootOfUnity(RootSpec(e, 2 * e)), SignedPower(-1, N))).m
        assert got == want


def test_decisions_never_call_the_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a decision reached the brute-force search")

    for name in ("_box_tables", "_diagonal_tables", "m_bruteforce", "mprime_bruteforce"):
        monkeypatch.setattr(criteria, name, refuse)
    deltas = [GenericDelta(), NonIntegerDelta()] + [IntegerDelta(d) for d in (-1000, -29, -4, -1, 1, 2, 504)]
    qs = [NotRootOfUnity(), *(PlusMinusOne(d) for d in deltas[:4])]
    qs += [RootOfUnity(RootSpec(e, f)) for e in range(2, 9) for f in (e, 2 * e)]
    rs = [GenericR()] + [SignedPower(eps, N) for eps in (1, -1) for N in range(-9, 10)]
    specs = [BrauerParams(p, d) for p in (0, 2, 3, 5, 1009) for d in deltas]
    for p in (0, 2, 3, 5):
        specs += [cls(p, q, r) for cls in (QBrauerParams, BMWParams) for q in qs for r in rs]
    regimes = set()
    for spec in specs:
        try:
            validate_params(spec)
        except (ParameterError, ValueError):
            continue
        verdict = decide(spec)
        if verdict.witness is not None:
            la, box = verdict.witness
            assert size(la) == verdict.m and _contains(la, box)
        fields = [getattr(spec, name) for name in ("delta", "q", "r") if hasattr(spec, name)]
        regimes.add((type(spec), min(spec.characteristic, 3), *map(type, fields)))
    # every family, characteristic 0, 2 and odd, and every delta, q and r regime
    families = [(BrauerParams, d) for d in (GenericDelta, NonIntegerDelta, IntegerDelta)]
    families += [(cls, q, r) for cls in (QBrauerParams, BMWParams)
                 for q in (NotRootOfUnity, PlusMinusOne, RootOfUnity) for r in (GenericR, SignedPower)]
    assert regimes == {(f[0], c) + f[1:] for f in families for c in (0, 2, 3)}


def test_decisions_build_no_losing_witness():
    # m = 4, and each has a losing candidate near level 10^7, whose witness
    # would be a partition with millions of parts
    e, p = 10**7 + 1, 10**7 + 19
    root = RootOfUnity(RootSpec(e, e))
    cases = (
        QBrauerParams(0, root, SignedPower(1, 10**7)),
        BMWParams(0, root, SignedPower(1, 10**7)),
        BrauerParams(p, IntegerDelta(p - 1)),
    )
    for spec in cases:
        tracemalloc.start()
        try:
            verdict = decide(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.m == 4 and peak < 2**20, (spec, peak)


def test_decisions_refuse_witnesses_past_the_budget():
    at_budget = decide(BrauerParams(0, IntegerDelta(MAX_WITNESS_LEVEL - 1)))
    assert at_budget.m == MAX_WITNESS_LEVEL and size(at_budget.witness[0]) == MAX_WITNESS_LEVEL
    for delta in (MAX_WITNESS_LEVEL, 10**7, 10**100):
        start = time.monotonic()
        with pytest.raises(ParameterError, match="witness budget"):
            decide(BrauerParams(0, IntegerDelta(delta)))
        assert time.monotonic() - start < 0.5
    # a bound set by the cap alone has no witness to build
    assert decide(QBrauerParams(0, RootOfUnity(RootSpec(10**7 + 1, 10**7 + 1)), GenericR())).m == 10**7
