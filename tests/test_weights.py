"""Tests for symbolic weights, parameter validation, and exact evaluation."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagalg.branching import path_count, reflected_level
from diagalg.brauer import DELTA
from diagalg.exactalg import (
    LaurentPoly,
    PrimeFieldElement,
    RationalFunction,
    RootSpec,
    is_prime,
    qint,
)
from diagalg.partitions import box_statistics, partitions_of
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
    Rule,
    SignedPower,
    bmw_weight_at_power,
    brauer_weight,
    evaluate_weight,
    qbrauer_weight_at_power,
    rule,
    validate_params,
    vanishing_level,
    weight_factor_descriptions,
)

ONE_D = LaurentPoly.constant(1)
Q = LaurentPoly.monomial(1)


def rf(num, den=1):
    return RationalFunction(num, LaurentPoly.constant(den))


def test_brauer_weight_small_shapes():
    assert brauer_weight(()) == rf(ONE_D)
    assert brauer_weight((1,)) == rf(DELTA)
    assert brauer_weight((2,)) == rf((DELTA + 2) * (DELTA + -1), 2)
    assert brauer_weight((1, 1)) == rf(DELTA * (DELTA + -1), 2)


def test_brauer_weight_normalization():
    # the weights decompose the trace of the identity: sum pc * w = delta^n
    for n in range(6):
        total = rf(LaurentPoly.constant(0))
        for x in reflected_level(n):
            total = total + brauer_weight(x.shape) * path_count(x)
        assert total == rf(DELTA**n)


def test_qbrauer_weight_examples():
    one_q = RationalFunction(LaurentPoly.constant(1))
    assert qbrauer_weight_at_power((1, 1), 3) == RationalFunction(qint(3)) * one_q
    assert qbrauer_weight_at_power((1,), 4) == RationalFunction(qint(4))
    # [0] in the numerator makes the weight vanish identically
    assert qbrauer_weight_at_power((1,), 0).is_zero


def test_bmw_weight_of_single_box_is_delta():
    # d_(1) = delta = 1 + (r - r^-1)/(q - q^-1) with r = eps * q^(N-1)
    for eps in (1, -1):
        for N in (-3, -1, 0, 2, 5):
            w = bmw_weight_at_power((1,), N, eps)
            for q0 in (Fraction(2), Fraction(3), Fraction(-2), Fraction(5, 2)):
                r0 = eps * q0 ** (N - 1)
                expected = 1 + (r0 - 1 / r0) / (q0 - 1 / q0)
                assert w.evaluate(q0) == expected


def test_specialization_at_q_one_spot_checks():
    for la in ((2,), (1, 1), (3, 1), (2, 2, 1)):
        for N in (-4, -1, 2, 3):
            classical = brauer_weight(la).evaluate(N)
            assert qbrauer_weight_at_power(la, N).evaluate(1) == classical
            assert bmw_weight_at_power(la, N, 1).evaluate(1) == classical


def test_weight_factor_descriptions_forms():
    brauer = ("(delta+2)/2", "(delta-1)/1")
    assert weight_factor_descriptions((2,), BrauerParams(0, IntegerDelta(3))) == brauer
    qb = QBrauerParams(0, NotRootOfUnity(), SignedPower(-1, 3))
    assert weight_factor_descriptions((1, 1), qb) == ("[3]/[2]", "[2]/[1]")
    # generic r keeps N symbolic instead of flattening
    qb = QBrauerParams(0, RootOfUnity(RootSpec(5, 5)), GenericR())
    assert weight_factor_descriptions((1, 1), qb) == ("[N]/[2]", "[N-1]/[1]")
    # q = +-1 selects the Brauer rule, with delta symbolic
    assert weight_factor_descriptions((2,), BMWParams(0, PlusMinusOne(GenericDelta()), GenericR())) == brauer


def test_validate_params_accepts_good_specs():
    validate_params(BrauerParams(0, IntegerDelta(2)))
    validate_params(BrauerParams(5, GenericDelta()))
    validate_params(QBrauerParams(0, NotRootOfUnity(), SignedPower(-1, 3)))
    validate_params(QBrauerParams(0, RootOfUnity(RootSpec(7, 7)), SignedPower(1, -3)))
    validate_params(BMWParams(0, RootOfUnity(RootSpec(5, 10)), SignedPower(-1, -2)))
    validate_params(BMWParams(2, RootOfUnity(RootSpec(5, 5)), GenericR()))
    validate_params(QBrauerParams(3, PlusMinusOne(IntegerDelta(2)), GenericR()))


@pytest.mark.parametrize(
    "spec",
    [
        BrauerParams(0, IntegerDelta(0)),
        BrauerParams(5, IntegerDelta(10)),
        BrauerParams(4, GenericDelta()),
        QBrauerParams(0, NotRootOfUnity(), SignedPower(1, 0)),
        QBrauerParams(0, RootOfUnity(RootSpec(7, 7)), SignedPower(-1, 14)),
        QBrauerParams(0, RootOfUnity(RootSpec(4, 4)), GenericR()),
        QBrauerParams(2, RootOfUnity(RootSpec(3, 6)), GenericR()),
        QBrauerParams(5, RootOfUnity(RootSpec(5, 5)), GenericR()),
        BMWParams(0, NotRootOfUnity(), SignedPower(1, 0)),
        BMWParams(0, NotRootOfUnity(), SignedPower(-1, 2)),
        BMWParams(2, NotRootOfUnity(), SignedPower(1, 2)),
        BMWParams(0, RootOfUnity(RootSpec(5, 10)), SignedPower(1, 10)),
        BMWParams(0, RootOfUnity(RootSpec(5, 10)), SignedPower(-1, 12)),
    ],
)
def test_validate_params_rejections(spec):
    with pytest.raises(ParameterError):
        validate_params(spec)


def test_validate_params_bounds_the_characteristic():
    validate_params(BrauerParams(2**31 - 1, IntegerDelta(2)))  # a prime
    for p in (2**31 + 11, 10**18 + 3):  # both prime, past the trial-division budget
        with pytest.raises(ParameterError, match="below 2\\^31"):
            validate_params(BrauerParams(p, IntegerDelta(2)))


_P = 2**31 + 11  # a prime past the trial-division budget


@pytest.mark.parametrize(
    "spec, message",
    [
        # one spec per exclusion that rule's docstring lists
        (BrauerParams(4, GenericDelta()), "characteristic must be 0 or prime, got 4"),
        (BrauerParams(_P, IntegerDelta(2)),
         f"characteristic must be below 2^31 (its primality test is trial division), got {_P}"),
        (BrauerParams(0, IntegerDelta(0)), "delta = 0 vanishes in characteristic 0"),
        (BrauerParams(5, IntegerDelta(10)), "delta = 10 vanishes in characteristic 5"),
        (QBrauerParams(3, PlusMinusOne(IntegerDelta(6)), GenericR()), "delta = 6 vanishes in characteristic 3"),
        (BMWParams(0, PlusMinusOne(IntegerDelta(0)), GenericR()), "delta = 0 vanishes in characteristic 0"),
        (QBrauerParams(0, RootOfUnity(RootSpec(4, 4)), GenericR()), "ord(q) = ord(q^2) = 4 is impossible for even 4"),
        (QBrauerParams(5, RootOfUnity(RootSpec(5, 5)), GenericR()), "no element of order 5 in characteristic 5"),
        (BMWParams(2, RootOfUnity(RootSpec(3, 6)), GenericR()), "no element of order 6 in characteristic 2"),
        (QBrauerParams(0, NotRootOfUnity(), SignedPower(2, 1)), "sign must be +-1, got 2"),
        (QBrauerParams(0, NotRootOfUnity(), SignedPower(-1, 0)), "r = +-1 forces delta = 0 in the q-Brauer algebra"),
        (QBrauerParams(0, RootOfUnity(RootSpec(7, 7)), SignedPower(-1, 14)), "e | N forces delta = [N]_q = 0 (e = 7)"),
        (BMWParams(0, NotRootOfUnity(), SignedPower(1, 0)), "r = q^-1 is excluded (it forces delta = 0)"),
        (BMWParams(0, NotRootOfUnity(), SignedPower(-1, 2)), "r = -q is excluded (it forces delta = 0)"),
        (BrauerParams(0, GenericR()), "not a delta parameter: GenericR()"),
        (QBrauerParams(0, GenericDelta(), GenericR()), "not a q parameter: GenericDelta()"),
        (BMWParams(0, NotRootOfUnity(), GenericDelta()), "not an r parameter: GenericDelta()"),
        # a spec failing two checks is refused by the first, in the order
        # characteristic, delta or q, r, the exclusions on N
        (BrauerParams(4, IntegerDelta(0)), "characteristic must be 0 or prime, got 4"),
        (QBrauerParams(0, PlusMinusOne(IntegerDelta(0)), SignedPower(2, 1)), "delta = 0 vanishes in characteristic 0"),
        (QBrauerParams(5, RootOfUnity(RootSpec(5, 5)), SignedPower(3, 5)), "no element of order 5 in characteristic 5"),
        (QBrauerParams(0, RootOfUnity(RootSpec(7, 7)), SignedPower(2, 14)), "sign must be +-1, got 2"),
        (QBrauerParams(0, RootOfUnity(RootSpec(7, 7)), SignedPower(1, 0)), "e | N forces delta = [N]_q = 0 (e = 7)"),
        (BMWParams(0, RootOfUnity(RootSpec(2, 4)), SignedPower(1, 4)), "r = q^-1 is excluded (it forces delta = 0)"),
    ],
)
def test_rule_refuses_what_it_cannot_resolve(spec, message):
    # admissibility is decided as the spec resolves: no Rule exists for an
    # excluded spec, and the first failing check gives the message
    with pytest.raises(ParameterError) as refused:
        rule(spec)
    assert str(refused.value) == message
    assert validate_params is rule


def test_evaluate_brauer_char_zero():
    w = evaluate_weight((2,), BrauerParams(0, IntegerDelta(2)))
    assert w.evaluable and not w.is_zero and w.value == 2
    w = evaluate_weight((2, 1), BrauerParams(0, IntegerDelta(2)))
    assert w.is_zero and w.witness_box == (2, 1) and w.value == 0
    w = evaluate_weight((2,), BrauerParams(0, IntegerDelta(1)))
    assert w.is_zero and w.witness_box == (1, 2)
    w = evaluate_weight((3, 1), BrauerParams(0, GenericDelta()))
    assert w.evaluable and not w.is_zero and w.value is None


def test_evaluate_brauer_char_p():
    # at p = 5 the shape (4,1) has hook length 5: not evaluable
    w = evaluate_weight((4, 1), BrauerParams(5, IntegerDelta(2)))
    assert not w.evaluable and w.is_zero is None
    # delta = 2 = 7 mod 5: same zero-ness either way
    a = evaluate_weight((2, 1), BrauerParams(5, IntegerDelta(2)))
    b = evaluate_weight((2, 1), BrauerParams(5, IntegerDelta(7)))
    assert a.is_zero and b.is_zero
    w = evaluate_weight((2,), BrauerParams(5, IntegerDelta(2)))
    assert w.evaluable and not w.is_zero
    assert isinstance(w.value, PrimeFieldElement) and w.value.p == 5


def test_evaluate_brauer_char_p_congruence_vanishing():
    # delta = 2 and p = 5: the shift m0(2 - 5) would vanish at level 6,
    # but level 3 already vanishes through m0(2)
    spec = BrauerParams(5, IntegerDelta(2))
    assert vanishing_level(spec, 4) == (3, (2, 1), (2, 1))


def test_evaluate_qbrauer_at_root():
    spec = QBrauerParams(0, RootOfUnity(RootSpec(5, 5)), SignedPower(1, -3))
    # (4,1) has a hook of length 5 = e: not evaluable
    w = evaluate_weight((4, 1), spec)
    assert not w.evaluable
    # vanishing iff e | N + d for some box: at (2,1) the box (2,1) has
    # d = -2, so N + d = -5
    w = evaluate_weight((2, 1), spec)
    assert w.evaluable and w.is_zero and w.witness_box == (2, 1)
    w2 = evaluate_weight((2,), spec)
    assert w2.evaluable and not w2.is_zero


def test_generic_r_at_a_root_of_unity_checks_the_hooks():
    # a hook divisible by e makes [h] (or 1 - q^(-2h)) vanish even when r is
    # generic; every other weight is evaluable and nonzero
    outcomes = set()
    for family in (QBrauerParams, BMWParams):
        for e in range(2, 7):
            for f in (e, 2 * e):
                rs = RootSpec(e, f)
                if not rs.field_consistent:
                    continue
                spec = family(0, RootOfUnity(rs), GenericR())
                for n in range(9):
                    for la in partitions_of(n):
                        w = evaluate_weight(la, spec)
                        divisible = any(h % e == 0 for _, _, _, h in box_statistics(la))
                        assert w.evaluable is not divisible
                        assert w.is_zero is (None if divisible else False)
                        outcomes.add(divisible)
                # below n_1 = e - 1 no hook reaches e, so the scan is unchanged
                assert vanishing_level(spec, 8) is None
    assert outcomes == {True, False}
    spec = QBrauerParams(0, RootOfUnity(RootSpec(3, 6)), GenericR())
    assert [evaluate_weight(la, spec).evaluable for la in partitions_of(3)] == [False] * 3


def test_weight_coefficients_are_integers():
    for n in range(7):
        for la in partitions_of(n):
            weights = [brauer_weight(la)]
            for N in range(-5, 6):
                weights.append(qbrauer_weight_at_power(la, N))
                weights += [bmw_weight_at_power(la, N, eps) for eps in (1, -1)]
            for w in weights:
                assert all(type(c) is int for c in (*w.num.coeffs.values(), *w.den.coeffs.values()))


def _symbolic(family, la, N, eps):
    """The public symbolic weight at r = eps*q^N (q-Brauer, up to the sign
    (-1)^|la| for eps = -1) or r = eps*q^(N-1) (BMW), built once per run."""
    if family is QBrauerParams:
        return _built(qbrauer_weight_at_power, la, N)
    return _built(bmw_weight_at_power, la, N, eps)


@cache
def _built(weight, *args):
    return weight(*args)


def test_evaluation_agrees_with_symbolic_weights_off_roots_of_unity():
    # q not a root of unity: a weight vanishes iff its symbolic form in q is
    # identically zero
    seen = set()
    for family in (QBrauerParams, BMWParams):
        for N in range(-8, 9):
            for eps in (1, -1):
                spec = family(0, NotRootOfUnity(), SignedPower(eps, N))
                try:
                    validate_params(spec)
                except ParameterError:
                    continue
                for n in range(7):
                    for la in partitions_of(n):
                        w = evaluate_weight(la, spec)
                        assert w.evaluable and w.is_zero == _symbolic(family, la, N, eps).is_zero
                        seen.add(w.is_zero)
    assert seen == {True, False}


def test_brauer_evaluation_agrees_with_the_symbolic_weight():
    # integer delta: zero-ness and value match brauer_weight at delta, in
    # characteristic 0 and mod p
    seen = set()
    for n in range(7):
        for la in partitions_of(n):
            weight = brauer_weight(la)
            for d in range(-8, 9):
                if d == 0:
                    continue
                exact = weight.evaluate(d)
                w = evaluate_weight(la, BrauerParams(0, IntegerDelta(d)))
                assert w.evaluable and w.is_zero == (exact == 0) and w.value == exact
                seen.add(w.is_zero)
                for p in (3, 5, 7):
                    if d % p == 0:
                        continue
                    w = evaluate_weight(la, BrauerParams(p, IntegerDelta(d)))
                    if not w.evaluable:
                        continue
                    num = RationalFunction(weight.num).evaluate(d)
                    den = RationalFunction(weight.den).evaluate(d)
                    modp = PrimeFieldElement(p, num.numerator * pow(num.denominator * den.numerator, -1, p)
                                             * den.denominator)
                    assert w.value == modp and w.is_zero == (modp.value == 0)
                    seen.add(("p", w.is_zero))
    assert seen == {True, False, ("p", True), ("p", False)}


def _root_of_unity(f):
    """(p, q0): the least prime p = 1 (mod f) and an element q0 of order
    exactly f in F_p, as an integer mod p."""
    p = f + 1
    while not is_prime(p):
        p += f
    for g in range(2, p):
        q0 = pow(g, (p - 1) // f, p)
        if all(pow(q0, k, p) != 1 for k in range(1, f)):
            return p, q0


def _at_root(poly, q0, p):
    """A Laurent polynomial evaluated at q0 in F_p."""
    return sum(c.numerator * pow(c.denominator, -1, p) * pow(q0, k, p) for k, c in poly.coeffs.items()) % p


def _realization_cross_check(family):
    # the public symbolic weight evaluated at an exact order-f root of unity
    # in F_p vanishes exactly when the congruence test says so; e <= 6, both
    # orders f, both signs, shapes up to size 5
    outcomes = set()
    for e in range(2, 7):
        for f in (e, 2 * e):
            rs = RootSpec(e, f)
            if not rs.field_consistent:
                continue
            p, q0 = _root_of_unity(f)
            for N in range(-e, e + 1):
                for eps in (1, -1):
                    spec = family(0, RootOfUnity(rs), SignedPower(eps, N))
                    try:
                        validate_params(spec)
                    except ParameterError:
                        continue
                    for n in range(6):
                        for la in partitions_of(n):
                            w = evaluate_weight(la, spec)
                            if not w.evaluable:
                                continue
                            weight = _symbolic(family, la, N, eps)
                            assert _at_root(weight.den, q0, p) != 0
                            assert (_at_root(weight.num, q0, p) == 0) == w.is_zero
                            outcomes.add(w.is_zero)
    assert outcomes == {True, False}


def test_evaluate_bmw_realization_cross_check():
    _realization_cross_check(BMWParams)


def test_evaluate_qbrauer_realization_cross_check():
    _realization_cross_check(QBrauerParams)


def test_prime_field_root_of_unity_orders():
    # the cross-checks' roots of unity have exactly the order asked for
    assert _root_of_unity(10)[0] == 11
    for f in range(2, 25):
        p, q0 = _root_of_unity(f)
        assert is_prime(p) and (p - 1) % f == 0
        assert pow(q0, f, p) == 1 and all(pow(q0, k, p) != 1 for k in range(1, f))


def test_rule_of_each_regime():
    # the whole resolved rule, and its cap n_1 = modulus - 1, per regime
    r7, r7f, r3 = RootSpec(7, 7), RootSpec(5, 10), RootSpec(3, 3)
    table = [
        (BrauerParams(0, IntegerDelta(3)), Rule("brauer", 3, 1, 0, None, False), None),
        (BrauerParams(5, IntegerDelta(3)), Rule("brauer", 3, 1, 5, None, False), 4),
        (BrauerParams(0, GenericDelta()), Rule("brauer", None, 1, 0, None, False), None),
        (BrauerParams(7, GenericDelta()), Rule("brauer", None, 1, 7, None, False), 6),
        (BrauerParams(3, NonIntegerDelta()), Rule("brauer", None, 1, 3, None, False), 2),
        (BrauerParams(2, IntegerDelta(1)), Rule("brauer", 1, 1, 2, None, True), 1),
        # q = +-1 falls back to the Brauer rule at its delta
        (BMWParams(3, PlusMinusOne(IntegerDelta(2)), GenericR()), Rule("brauer", 2, 1, 3, None, False), 2),
        (QBrauerParams(0, PlusMinusOne(IntegerDelta(-4)), SignedPower(-1, 2)),
         Rule("brauer", -4, 1, 0, None, False), None),
        # each q-family at a root with f = e and f = 2e, and off roots
        (QBrauerParams(0, RootOfUnity(r7), GenericR()), Rule("qbrauer", None, 1, 7, r7, False), 6),
        (QBrauerParams(0, RootOfUnity(r7), SignedPower(1, -3)), Rule("qbrauer", -3, 1, 7, r7, False), 6),
        (QBrauerParams(3, RootOfUnity(r7f), SignedPower(-1, 4)), Rule("qbrauer", 4, -1, 5, r7f, False), 4),
        (QBrauerParams(0, NotRootOfUnity(), GenericR()), Rule("qbrauer", None, 1, 0, None, False), None),
        (QBrauerParams(0, NotRootOfUnity(), SignedPower(-1, 3)), Rule("qbrauer", 3, -1, 0, None, False), None),
        (BMWParams(0, RootOfUnity(r3), SignedPower(-1, -2)), Rule("bmw", -2, -1, 3, r3, False), 2),
        (BMWParams(0, RootOfUnity(r7f), SignedPower(-1, -2)), Rule("bmw", -2, -1, 5, r7f, False), 4),
        (BMWParams(5, NotRootOfUnity(), SignedPower(1, -2)), Rule("bmw", -2, 1, 0, None, False), None),
        (BMWParams(0, RootOfUnity(r7f), GenericR()), Rule("bmw", None, 1, 5, r7f, False), 4),
        # in characteristic 2 the sign of r is invisible: eps reads 1
        (BMWParams(2, RootOfUnity(r3), SignedPower(-1, 4)), Rule("bmw", 4, 1, 3, r3, True), 2),
        (BMWParams(2, NotRootOfUnity(), SignedPower(-1, 4)), Rule("bmw", 4, 1, 0, None, True), None),
    ]
    for spec, want, cap in table:
        validate_params(spec)
        assert (rule(spec), rule(spec).cap) == (want, cap), spec


def test_vanishing_level_examples():
    assert vanishing_level(BrauerParams(0, IntegerDelta(2)), 4) == (3, (2, 1), (2, 1))
    assert vanishing_level(BrauerParams(0, IntegerDelta(1)), 4) == (2, (2,), (1, 2))
    assert vanishing_level(BrauerParams(0, IntegerDelta(5)), 4) is None
    assert vanishing_level(BrauerParams(0, IntegerDelta(-2)), 4) == (2, (2,), (1, 1))
    with pytest.raises(ParameterError):
        vanishing_level(BrauerParams(0, IntegerDelta(2)), 1)


def test_vanishing_level_matches_weight_scan():
    # the reported witness shape really is the first vanishing weight
    for d in (1, -1, 2, -2, 3, -4):
        spec = BrauerParams(0, IntegerDelta(d))
        hit = vanishing_level(spec, 4)
        for n in range(2, 5):
            zero_shapes = [la for la in partitions_of(n) if evaluate_weight(la, spec).is_zero]
            if zero_shapes:
                assert hit is not None and hit[0] == n and hit[1] in zero_shapes
                break
        else:
            assert hit is None


@given(st.integers(-8, 8), st.integers(2, 9))
@settings(max_examples=60)
def test_qbrauer_root_vanishing_matches_congruence(N, e):
    # zero-ness at a root of unity depends only on N mod e
    if N % e == 0:
        return
    spec = QBrauerParams(0, RootOfUnity(RootSpec(e, e if e % 2 else 2 * e)), SignedPower(1, N))
    spec2 = QBrauerParams(0, RootOfUnity(RootSpec(e, e if e % 2 else 2 * e)), SignedPower(1, N - e))
    for la in ((2,), (1, 1), (2, 1), (3,)):
        a = evaluate_weight(la, spec)
        b = evaluate_weight(la, spec2)
        if a.evaluable and b.evaluable:
            assert a.is_zero == b.is_zero
