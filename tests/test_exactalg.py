"""Tests for the exact scalar layer: Laurent polynomials, rational functions, F_p,
and the immutable records built on `exactalg.Record`."""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagalg.branching import ReflectedLabel
from diagalg.brauer import DELTA, AlgebraElement, identity_diagram
from diagalg.cellular import gl_basis
from diagalg.criteria import UNBOUNDED, Verdict, decide
from diagalg.exactalg import (
    LaurentPoly,
    ParameterError,
    PrimeFieldElement,
    RationalFunction,
    Record,
    RootSpec,
    _order_and_value,
    is_prime,
    qint,
    signed_power_is_one,
)
from diagalg.gram import rank_mod_p
from diagalg.partitions import partitions_of
from diagalg.verify import CheckResult
from diagalg.weights import (
    BMWParams,
    BrauerParams,
    GenericDelta,
    IntegerDelta,
    NotRootOfUnity,
    QBrauerParams,
    RootOfUnity,
    SignedPower,
    box_factors,
    evaluate_weight,
)

Q = LaurentPoly.monomial(1)
QINV = LaurentPoly.monomial(-1)
ONE = LaurentPoly.constant(1)


@st.composite
def laurent_st(draw, max_terms=4, max_exp=5):
    n = draw(st.integers(0, max_terms))
    coeffs = {}
    for _ in range(n):
        k = draw(st.integers(-max_exp, max_exp))
        c = draw(st.integers(-9, 9))
        coeffs[k] = coeffs.get(k, 0) + c
    return LaurentPoly(coeffs)


def test_laurent_ring_examples():
    assert (Q + -QINV) * (Q + QINV) == LaurentPoly({2: 1, -2: -1})
    p = LaurentPoly({2: 1, 0: 1, -2: 1})
    assert repr(p) == "LaurentPoly({2: 1, 0: 1, -2: 1})"
    assert repr(RationalFunction(Q)) == "RationalFunction(LaurentPoly({1: 1}), LaurentPoly({0: 1}))"
    assert RationalFunction(p).evaluate(1) == 3
    assert RationalFunction(p).evaluate(2) == Fraction(4) + 1 + Fraction(1, 4)


def test_laurent_negative_power_needs_monomial():
    # only the units +-v^k of Z[v, v^-1] have negative powers
    assert Q**-3 == LaurentPoly.monomial(-3)
    assert LaurentPoly.monomial(2, -1) ** -3 == LaurentPoly.monomial(-6, -1)
    with pytest.raises(ValueError):
        LaurentPoly.monomial(2, 4) ** -1
    with pytest.raises(ValueError):
        (Q + ONE) ** -1


def test_laurent_coefficients_are_integers():
    with pytest.raises(TypeError):
        LaurentPoly({0: Fraction(1, 2)})
    with pytest.raises(TypeError):
        LaurentPoly({1: 1.0})
    with pytest.raises(TypeError):
        Q * Fraction(1, 2)
    # an integral Fraction or float is refused too, in either form of input
    for bad in (Fraction(2), 2.0, 0.0):
        with pytest.raises(TypeError):
            LaurentPoly({0: bad})
        with pytest.raises(TypeError):
            LaurentPoly([(3, 1), (0, bad)])
    assert all(type(c) is int for c in ((Q + 3) * (Q + -ONE) ** 2).coeffs.values())


@given(laurent_st(), laurent_st(), st.integers(-3, 3), st.integers(0, 4))
@settings(max_examples=200)
def test_ring_results_are_clean(a, b, k, power):
    # the ring operations build their result dicts without the checks of
    # the constructor: each must hold int coefficients, none of them zero,
    # and equal the value the constructor rebuilds from it
    results = [a + b, a + -a, -a, a * b, a * (b + -b), a + k, k * a, a**power]
    results += [c**-power for c in (Q**k, -(Q**k))]
    for r in results:
        assert all(type(c) is int and c for c in r.coeffs.values()), r
        rebuilt = LaurentPoly(dict(r.coeffs))
        assert rebuilt == r and rebuilt.coeffs == r.coeffs
    assert (a + -a).is_zero and (Q + ONE) + -Q == ONE


def _points():
    # rational points a/b with 0 and non-integers among them
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@given(laurent_st(max_terms=6, max_exp=8), _points())
@settings(max_examples=300)
def test_evaluate_matches_the_fraction_sum(p, point):
    x = RationalFunction(p)
    if point == 0 and any(k < 0 for k in p.coeffs):
        with pytest.raises(ZeroDivisionError, match="^pole at 0$"):
            x.evaluate(point)
        return
    want = sum((c * Fraction(point) ** k for k, c in p.coeffs.items()), Fraction(0))
    got = x.evaluate(point)
    assert type(got) is Fraction and got == want
    if point.denominator == 1:
        assert x.evaluate(int(point)) == want


def test_evaluate_takes_only_rational_points():
    # the zero function too: its value is 0 only at a rational point
    for x in (RationalFunction(Q + 3, Q + -ONE), RationalFunction(LaurentPoly({}))):
        for bad in (0.5, 1.0, "1", "x", None):
            with pytest.raises(TypeError, match="^expected a rational point, got "):
                x.evaluate(bad)
    assert RationalFunction(LaurentPoly({})).evaluate(Fraction(1, 2)) == 0


def _slow_deflate(p, point):
    """(m, g(point)) by Fraction division by v - point, one evaluation per
    pass: p = (v - r)^m h = (b v - a)^m g with g = h / b^m."""
    lo = min(p.coeffs)
    if point == 0:
        m, g = lo, {k - lo: c for k, c in p.coeffs.items()}
    else:
        dense = [Fraction(p.coeffs.get(k, 0)) for k in range(lo, max(p.coeffs) + 1)]
        m = 0
        while sum(c * point**i for i, c in enumerate(dense)) == 0:
            quotient, carry = [], Fraction(0)
            for c in reversed(dense[1:]):
                carry = c + point * carry
                quotient.append(carry)
            dense = quotient[::-1]
            m += 1
        g = {lo + i: c / point.denominator**m for i, c in enumerate(dense) if c}
    return m, sum((c * point**k for k, c in g.items()), Fraction(0))


@given(laurent_st(max_terms=5, max_exp=6), _points(), st.integers(0, 3), st.integers(-2, 2))
@settings(max_examples=300)
def test_deflate_matches_a_slow_reference(p, point, k, shift):
    if p.is_zero:
        return
    p = p * (Q * point.denominator + -point.numerator) ** k * Q**shift
    m, c = _order_and_value(p, point)
    assert type(c) is Fraction and (m, c) == _slow_deflate(p, point)


def test_qint_examples():
    assert qint(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert qint(1) == ONE
    assert qint(0).is_zero
    assert qint(-3) == -qint(3)
    assert RationalFunction(qint(4)).evaluate(1) == 4


@given(st.integers(-12, 12), st.integers(-12, 12))
def test_qint_addition_rule(a, b):
    # [a+b] = q^b [a] + q^-a [b], a standard q-integer identity
    lhs = qint(a + b)
    rhs = qint(a) * LaurentPoly.monomial(b) + qint(b) * LaurentPoly.monomial(-a)
    assert lhs == rhs


@given(laurent_st(), laurent_st(), laurent_st())
@settings(max_examples=200)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly({}) == a
    assert a * ONE == a


@given(laurent_st(), st.integers(-5, 5), st.integers(1, 3), st.integers(0, 2))
@settings(max_examples=200)
def test_laurent_deflation(a, num, den, k):
    if a.is_zero:
        return
    point = Fraction(num, den)
    linear = Q * point.denominator + -point.numerator  # v itself at the point 0
    a = a * linear**k  # a root of multiplicity >= k at a nonzero point
    m, c = _order_and_value(a, point)
    assert (m, c) == _slow_deflate(a, point) and c != 0
    if point:
        assert m >= k
    else:  # v is a unit, so m is the least exponent and may be negative
        assert m == min(a.coeffs)


@given(laurent_st(), laurent_st())
def test_reprs_round_trip_through_eval(a, b):
    twin = eval(repr(a))
    assert type(twin) is LaurentPoly and twin.coeffs == a.coeffs
    if not b.is_zero:
        x = eval(repr(RationalFunction(a, b)))
        assert type(x) is RationalFunction and x.num.coeffs == a.coeffs and x.den.coeffs == b.coeffs


def test_deflation_at_a_rational_point():
    # (2v - 1)^2 (v + 3) divides exactly by 2v - 1 over Z, twice and no more
    two_v_minus_one = Q * 2 + -ONE
    half = Fraction(1, 2)
    p = two_v_minus_one**2 * (Q + 3)
    assert RationalFunction(p, two_v_minus_one**2).evaluate(half) == Fraction(7, 2)
    assert RationalFunction(p, two_v_minus_one).evaluate(half) == 0
    with pytest.raises(ZeroDivisionError, match="^pole at 1/2$"):
        RationalFunction(p, two_v_minus_one**3).evaluate(half)
    assert RationalFunction(two_v_minus_one * QINV, two_v_minus_one).evaluate(half) == 2
    # a shared root at 1/2 cancels before evaluating: (2v - 1)(v + 3) / ((2v - 1) v) -> 7/2 / (1/2)
    x = RationalFunction(two_v_minus_one * (Q + 3), two_v_minus_one * Q)
    assert x.evaluate(Fraction(1, 2)) == 7
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Q + 3, two_v_minus_one).evaluate(Fraction(1, 2))


def test_rational_function_equality_and_normalize():
    # (q^2 - q^-2) / (q - q^-1) == q + q^-1 without reducing
    x = RationalFunction(LaurentPoly({2: 1, -2: -1}), Q + -QINV)
    y = RationalFunction(Q + QINV)
    assert x == y


def test_rational_function_evaluate_with_cancellation():
    # (q^3 - q^-3)/(q - q^-1) at q = 1 must cancel the shared zero and give 3
    x = RationalFunction(LaurentPoly({3: 1, -3: -1}), Q + -QINV)
    assert x.evaluate(1) == 3
    assert x.evaluate(-1) == 3  # symbolic limit of [3]
    with pytest.raises(ZeroDivisionError):
        RationalFunction(ONE, Q + -ONE).evaluate(1)
    assert RationalFunction(Q + -ONE, ONE).evaluate(1) == 0
    # at 0 the multiplicity of num and den is their least exponent
    for point in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError, match="^pole at 0$"):
            RationalFunction(Q + 3, Q**2 * (Q + 1)).evaluate(point)
        with pytest.raises(ZeroDivisionError, match="^pole at 0$"):
            RationalFunction(QINV + 3, Q + 1).evaluate(point)
        assert RationalFunction(Q * (Q + 3), Q + 1).evaluate(point) == 0
        assert RationalFunction(ONE, QINV + 2).evaluate(point) == 0  # v / (1 + 2v)
        # a common power of v, positive or negative, cancels: (v + 3) / (2v - 1) -> -3
        for k in range(-3, 4):
            x = RationalFunction((Q + 3) * Q**k, (Q * 2 + -ONE) * Q**k)
            assert x.evaluate(point) == -3


@given(laurent_st(), laurent_st(), laurent_st(), laurent_st())
@settings(max_examples=150)
def test_rational_function_field_axioms(a, b, c, d):
    if b.is_zero or d.is_zero:
        return
    x = RationalFunction(a, b)
    y = RationalFunction(c, d)
    assert x + y == y + x
    assert x * y == y * x
    assert x + x * -1 == RationalFunction(LaurentPoly.constant(0))


def test_prime_field_arithmetic():
    a = PrimeFieldElement(7, 3)
    assert (a**-1).value == 5 and (a**2).value == 2 and (a**0).value == 1
    assert PrimeFieldElement(7, 10).value == 3 == PrimeFieldElement(7, -4).value
    assert PrimeFieldElement(7, 10) == PrimeFieldElement(7, -4)
    assert PrimeFieldElement(7, 3) != PrimeFieldElement(5, 3)
    with pytest.raises(ValueError):
        PrimeFieldElement(6, 1)
    with pytest.raises(ZeroDivisionError):
        PrimeFieldElement(7, 0) ** -1


def test_root_spec_validation_and_consistency():
    assert RootSpec(5, 10).field_consistent
    assert RootSpec(5, 5).field_consistent
    assert not RootSpec(4, 4).field_consistent
    assert RootSpec(4, 8).field_consistent
    with pytest.raises(ParameterError, match="e must be >= 2, got 1"):
        RootSpec(1, 2)
    with pytest.raises(ParameterError, match="f must be e or 2e, got e=4, f=6"):
        RootSpec(4, 6)


_BMW = BMWParams(0, RootOfUnity(RootSpec(5, 10)), SignedPower(-1, -2))
_RECORDS = (
    IntegerDelta(2),
    GenericDelta(),
    RootSpec(5, 10),
    _BMW,
    QBrauerParams(0, NotRootOfUnity(), SignedPower(1, 3)),
    decide(_BMW),
    ReflectedLabel((1,), 3),
    gl_basis(2)[1],
    next(box_factors("bmw", (1,))),
    rank_mod_p([[1, 2], [3, 4]], 7),
    CheckResult("counting", "a check", False, "counterexample: n=2"),
)


def test_records_compare_by_type_and_fields():
    q, b = QBrauerParams(3, NotRootOfUnity(), SignedPower(1, 2)), BMWParams(3, NotRootOfUnity(), SignedPower(1, 2))
    assert q != b and b != q and hash(q) == hash(b)
    assert IntegerDelta(2) != (2,) and (2,) != IntegerDelta(2) and RootSpec(5, 10) != (5, 10)
    assert GenericDelta() == GenericDelta() and GenericDelta() != NotRootOfUnity()
    assert IntegerDelta(2) == IntegerDelta(2) and IntegerDelta(2) != IntegerDelta(3)
    table = {b: "bmw", q: "qbrauer"}
    assert table[BMWParams(3, NotRootOfUnity(), SignedPower(1, 2))] == "bmw"
    for record in _RECORDS:
        twin = type(record)(*record._field_values)
        assert twin == record
        try:
            fields_hash = hash(record._field_values)
        except TypeError:  # a list or an AlgebraElement field: the record is unhashable too
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(twin) == hash(record) == fields_hash


def test_record_repr_names_every_field():
    assert repr(IntegerDelta(2)) == "IntegerDelta(value=2)"
    assert repr(GenericDelta()) == "GenericDelta()"
    assert repr(RootSpec(5, 10)) == "RootSpec(e=5, f=10)"
    assert repr(_BMW) == (
        "BMWParams(characteristic=0, q=RootOfUnity(spec=RootSpec(e=5, f=10)), r=SignedPower(eps=-1, N=-2))"
    )
    assert repr(decide(BrauerParams(0, IntegerDelta(2)))) == (
        "Verdict(m=3, constituents=(Constituent(name='m0(2)', value=3),), witness=((2, 1), (2, 1)), normalized=())"
    )
    assert repr(ReflectedLabel((2, 1), 5)) == "ReflectedLabel(shape=(2, 1), level=5)"
    assert repr(CheckResult("gram", "a check", True, "")) == "CheckResult(suite='gram', name='a check', passed=True, detail='')"


def test_records_are_immutable_and_copy_and_pickle_to_equals():
    # every value type: the records, and the values records hold (a Laurent
    # polynomial, a symbolic weight, a weight's value mod p, a cellular basis
    # element's AlgebraElement with Laurent coefficients)
    values = _RECORDS + (
        LaurentPoly({1: 2, -1: 1}),
        RationalFunction(LaurentPoly({1: 2}), LaurentPoly({0: 1, 2: -3})),
        PrimeFieldElement(7, 3),
        AlgebraElement(1, {identity_diagram(1): DELTA}),
    )
    for value in values:
        before = repr(value)
        for field in type(value).__slots__[:1]:
            with pytest.raises(AttributeError):
                setattr(value, field, 7)
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.other = 1
        assert value == value and repr(value) == before, value
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
    assert copy.copy(UNBOUNDED) is copy.deepcopy(UNBOUNDED) is pickle.loads(pickle.dumps(UNBOUNDED)) is UNBOUNDED


def test_records_take_exactly_their_fields():
    for call in (lambda: IntegerDelta(), lambda: IntegerDelta(1, 2), lambda: GenericDelta(0),
                 lambda: Verdict(3, (), None), lambda: RootSpec(5)):
        with pytest.raises(TypeError):
            call()
    # the annotations document the types of exactly the slotted fields
    assert len(Record.__subclasses__()) >= 15
    for cls in Record.__subclasses__():
        assert cls.__slots__ == tuple(cls.__dict__.get("__annotations__", {})), cls


def test_signed_power_congruences():
    spec = RootSpec(5, 10)  # q of order 10
    assert signed_power_is_one(1, 0, spec)
    assert signed_power_is_one(1, 10, spec)
    assert not signed_power_is_one(1, 5, spec)
    # eps * q^x = -1 is -eps * q^x = 1
    assert signed_power_is_one(-1, 5, spec)  # q^5 = -1 when ord(q) = 10, i.e. -q^5 = 1
    assert signed_power_is_one(1, 0, spec)  # -q^0 = -1
    assert not signed_power_is_one(-1, 4, spec)
    odd = RootSpec(5, 5)
    assert not signed_power_is_one(-1, 0, odd)  # -1 != 1, f odd
    assert not signed_power_is_one(-1, 3, odd)  # q^3 != -1, f odd
    # characteristic 2 collapses signs
    assert signed_power_is_one(-1, 0, odd, char2=True)
    assert signed_power_is_one(-1, 5, odd, char2=True)  # q^5 = -1 = 1
    # no RootSpec: q is not a root of unity, so q^x = 1 only at x = 0, and
    # -q^0 = -1 is 1 only in characteristic 2
    assert signed_power_is_one(1, 0, None) and signed_power_is_one(1, 0, None, char2=True)
    assert not signed_power_is_one(-1, 0, None)
    assert signed_power_is_one(-1, 0, None, char2=True)
    for x in (-7, -1, 1, 2, 10):
        for eps in (1, -1):
            for char2 in (False, True):
                assert not signed_power_is_one(eps, x, None, char2)


def test_prime_utilities():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1) and not is_prime(91) and is_prime(97)


def test_prime_field_tests_its_modulus_once():
    # each evaluation validates the characteristic and builds its value as
    # a PrimeFieldElement, and both test p; only the first call computes
    p = 999983
    is_prime.cache_clear()
    values = [evaluate_weight(la, BrauerParams(p, IntegerDelta(p + 3))).value
              for n in range(8) for la in partitions_of(n)]
    assert len(values) == 45 and all(v.p == p for v in values)
    assert values[1].value == 3 and values[2].value == 5  # (1,) and (2,): delta and (delta+2)(delta-1)/2
    info = is_prime.cache_info()
    assert info.misses == 1 and info.hits >= 2 * len(values) - 1


@given(st.integers(2, 24))
def test_prime_field_root_of_unity_has_exact_order(f):
    # the least prime p = 1 (mod f) has phi(f) elements of order exactly f,
    # and every element's order divides p - 1
    p = f + 1
    while not is_prime(p):
        p += f
    orders = [next(k for k in range(1, p) if (PrimeFieldElement(p, a) ** k).value == 1) for a in range(1, p)]
    assert all((p - 1) % k == 0 for k in orders)
    assert orders.count(f) == sum(1 for k in range(1, f + 1) if gcd(k, f) == 1)
