"""Trace weights of the Brauer, q-Brauer, and BMW algebras.

For the Brauer algebra the weight of a shape la is the rational function

    d_la(delta) = prod over boxes (delta + d(i,j)) / h(i,j),

with d the box statistic from `partitions` and h the hook length.  The
q-Brauer analogue at r = +-q^N replaces each factor by [N + d]_q / [h]_q,
and the BMW analogue at r = eps*q^(N-1) keeps that factor (times eps) on
off-diagonal boxes but replaces the factor of a diagonal box (i,i) by

    (1 - eps*q^(-N-a))(1 + eps*q^(N+b)) / (1 - q^(-2h)).

Weights multiply path counts to give the Markov trace of minimal
idempotents, so their vanishing is what degenerates the trace form; all the
semisimplicity bounds reduce to locating the first vanishing factor.

Each family's factor rule is written once, in `box_factors`: one record per
box holding its numerator terms and its hook.  The symbolic weights, the
factored descriptions and the exact zero test are each read off those
records.

Parameters are described structurally (ParamSpec): the characteristic, the
delta or (q, r) regime, and for roots of unity the pair of orders
RootSpec(e, f) with e = ord(q^2), f = ord(q).  Which rule a spec selects is
decided in one place, `rule`, which resolves the spec into a `Rule`: the
family, N and eps, and the modulus by which factors and hooks vanish (p in
the Brauer rule, e at a root of unity, 0 otherwise), whose `cap` is the
level n_1 = modulus - 1.  q = +-1 falls back to the Brauer rule, and a
generic r leaves N symbolic.  The evaluation, the validation of delta and
the decisions in `criteria` all read the rule from there, and no other
module looks inside a spec to find it.  Evaluation at a root of unity is a
pure congruence test on RootSpec.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Iterator

from .exactalg import (
    LaurentPoly,
    ParameterError,
    PrimeFieldElement,
    RationalFunction,
    Record,
    RootSpec,
    is_prime,
    qint,
    signed_power_is_one,
)
from .partitions import Box, Partition, box_statistics, partitions_of


# --- parameter variants ----------------------------------------------------


class GenericDelta(Record):
    """delta transcendental over the prime field."""

    __slots__ = ()


class NonIntegerDelta(Record):
    """delta not in the image of Z in the field (so delta + d never vanishes)."""

    __slots__ = ()


class IntegerDelta(Record):
    """delta = N * 1 in the field, for an integer N."""

    __slots__ = ("value",)
    value: int


DeltaParam = GenericDelta | NonIntegerDelta | IntegerDelta


class NotRootOfUnity(Record):
    """q of infinite multiplicative order (and q != +-1)."""

    __slots__ = ()


class RootOfUnity(Record):
    """q a root of unity with orders spec = RootSpec(e, f)."""

    __slots__ = ("spec",)
    spec: RootSpec


class PlusMinusOne(Record):
    """q = +-1: the algebra degenerates to the Brauer algebra at `delta`."""

    __slots__ = ("delta",)
    delta: DeltaParam


QParam = NotRootOfUnity | RootOfUnity | PlusMinusOne


class GenericR(Record):
    """r algebraically independent from q (never a signed power)."""

    __slots__ = ()


class SignedPower(Record):
    """r = eps * q^N for the q-Brauer family, r = eps * q^(N-1) for BMW."""

    __slots__ = ("eps", "N")
    eps: int
    N: int


RParam = GenericR | SignedPower


class BrauerParams(Record):
    __slots__ = ("characteristic", "delta")
    characteristic: int
    delta: DeltaParam


class QBrauerParams(Record):
    __slots__ = ("characteristic", "q", "r")
    characteristic: int
    q: QParam
    r: RParam


class BMWParams(Record):
    __slots__ = ("characteristic", "q", "r")
    characteristic: int
    q: QParam
    r: RParam


ParamSpec = BrauerParams | QBrauerParams | BMWParams


# The characteristic is tested for primality by trial division: about
# 23,000 odd divisors just below this bound, but 5 * 10^8 near 10^18.
MAX_CHARACTERISTIC = 2**31


def _validate_characteristic(p: int) -> None:
    if p >= MAX_CHARACTERISTIC:
        raise ParameterError(f"characteristic must be below 2^31 (its primality test is trial division), got {p}")
    if p != 0 and not is_prime(p):
        raise ParameterError(f"characteristic must be 0 or prime, got {p}")


def _validate_q(q: QParam, p: int) -> None:
    if isinstance(q, RootOfUnity):
        f = q.spec.f
        if not q.spec.field_consistent:
            raise ParameterError(f"ord(q) = ord(q^2) = {f} is impossible for even {f}")
        if p and f % p == 0:
            raise ParameterError(f"no element of order {f} in characteristic {p}")
        if p == 2 and f % 2 == 0:
            raise ParameterError("even-order roots of unity do not exist in characteristic 2")
    elif isinstance(q, PlusMinusOne):
        _validate_delta(q.delta, p)
    elif not isinstance(q, NotRootOfUnity):
        raise ParameterError(f"not a q parameter: {q!r}")


def _validate_delta(delta: DeltaParam, p: int) -> None:
    if isinstance(delta, IntegerDelta):
        n = delta.value
        if (p == 0 and n == 0) or (p and n % p == 0):
            raise ParameterError(f"delta = {n} vanishes in characteristic {p}")
    elif not isinstance(delta, (GenericDelta, NonIntegerDelta)):
        raise ParameterError(f"not a delta parameter: {delta!r}")


def _validate_r(r: RParam) -> None:
    if isinstance(r, SignedPower):
        if r.eps not in (1, -1):
            raise ParameterError(f"sign must be +-1, got {r.eps}")
    elif not isinstance(r, GenericR):
        raise ParameterError(f"not an r parameter: {r!r}")


def validate_params(spec: ParamSpec) -> None:
    """Rejects parameter combinations excluded by the theorems.

    Excluded are: a characteristic that is not 0 or a prime, or is at least
    2^31; delta = 0 in the field (delta = 0 in characteristic 0, delta = 0
    mod p in characteristic p), for the Brauer algebra and for q = +-1;
    roots of unity that cannot exist in the given characteristic; a sign
    of r other than +-1; q-Brauer r = +-1 off roots of unity and e | N at a
    root of unity (both force delta = [N]_q = 0); BMW r = q^-1 or r = -q
    (both force delta = 0); and a value that is not a parameter of its
    slot.
    """
    p = spec.characteristic
    _validate_characteristic(p)
    if isinstance(spec, BrauerParams):
        _validate_delta(spec.delta, p)
        return
    _validate_q(spec.q, p)
    _validate_r(spec.r)
    r = rule(spec)
    if r.family == "brauer" or r.N is None:
        return
    if r.family == "qbrauer":  # delta = +-[N]_q vanishes iff [N]_q = 0
        if r.modulus and r.N % r.modulus == 0:
            raise ParameterError(f"e | N forces delta = [N]_q = 0 (e = {r.modulus})")
        if r.N == 0:
            raise ParameterError("r = +-1 forces delta = 0 in the q-Brauer algebra")
    else:  # BMW: delta = 0 iff r = q^-1 (eps*q^N = 1) or r = -q (eps*q^(N-2) = -1)
        if signed_power_is_one(r.eps, r.N, r.root, r.char2):
            raise ParameterError("r = q^-1 is excluded (it forces delta = 0)")
        if signed_power_is_one(-r.eps, r.N - 2, r.root, r.char2):
            raise ParameterError("r = -q is excluded (it forces delta = 0)")


# --- per-box factors ------------------------------------------------------

# A weight is a product of box factors, and each box factor is a product of
# numerator terms over a hook denominator.  A term is (kind, shift); the
# rule's integer N (the integer delta, or the exponent in r) adds to the
# shift, and x = N + shift below.
DELTA = "delta"  # delta + d: zero iff x = 0 in the field, i.e. mod p
QINT = "qint"  # [N + d]_q: zero iff x = 0 mod e (x = 0 off roots of unity)
EPS = "eps"  # the sign eps of r: never zero
ONE_MINUS = "1-"  # 1 - eps*q^-(N+a): zero iff eps*q^x = 1
ONE_PLUS = "1+"  # 1 + eps*q^(N+b): zero iff eps*q^x = -1

# Hook denominators; each is zero iff the same modulus divides h.
HOOK = "h"  # the integer h: zero iff p | h
QHOOK = "[h]"  # [h]_q: zero iff e | h
DIAG_HOOK = "1-q^(-2h)"  # zero iff e | h


class BoxFactor(Record):
    """The factor of one box: the product of `terms` over the hook h
    in the denominator form `den`."""

    __slots__ = ("box", "terms", "hook", "den")
    box: Box
    terms: tuple[tuple[str, int], ...]
    hook: int
    den: str


def box_factors(family: str, la: Partition) -> Iterator[BoxFactor]:
    """The factor record of each box of la, row-major, under the rule of
    `family`: (delta + d)/h for "brauer", [N+d]/[h] for "qbrauer", and for
    "bmw" eps*[N+d]/[h] off the diagonal and
    (1 - eps*q^-(N+a))(1 + eps*q^(N+b)) / (1 - q^(-2h)) on it, where a = d.
    The statistics d, b and h are read from `partitions.box_statistics`."""
    for box, d, b, h in box_statistics(la):
        if family == "brauer":
            yield BoxFactor(box, ((DELTA, d),), h, HOOK)
        elif family == "qbrauer":
            yield BoxFactor(box, ((QINT, d),), h, QHOOK)
        elif box[0] != box[1]:
            yield BoxFactor(box, ((EPS, 0), (QINT, d)), h, QHOOK)
        else:
            yield BoxFactor(box, ((ONE_MINUS, d), (ONE_PLUS, b)), h, DIAG_HOOK)


class Rule(Record):
    """The factor rule a spec selects, resolved.

    `family` names the factors of `box_factors`; N is the integer delta or
    the exponent in r, None where there is none (a generic or non-integer
    delta, a generic r); eps is the sign in r, 1 where there is none and in
    characteristic 2, where the sign is invisible.  A factor or hook
    vanishes by a congruence mod `modulus`: p in the Brauer rule, e at a
    root of unity, 0 (plain equality) otherwise.  `root` is the RootSpec of
    q at a root of unity, else None, and `char2` marks characteristic 2."""

    __slots__ = ("family", "N", "eps", "modulus", "root", "char2")
    family: str
    N: int | None
    eps: int
    modulus: int
    root: RootSpec | None
    char2: bool

    @property
    def cap(self) -> int | None:
        """The level n_1 = modulus - 1 below which every weight stays
        evaluable, None (no cap) when the modulus is 0."""
        return self.modulus - 1 if self.modulus else None


def rule(spec: ParamSpec) -> Rule:
    """The rule a spec selects.  q = +-1 falls back to the Brauer rule at
    its delta."""
    p = spec.characteristic
    if isinstance(spec, BrauerParams) or isinstance(spec.q, PlusMinusOne):
        delta = spec.delta if isinstance(spec, BrauerParams) else spec.q.delta
        return Rule("brauer", delta.value if isinstance(delta, IntegerDelta) else None, 1, p, None, p == 2)
    family = "qbrauer" if isinstance(spec, QBrauerParams) else "bmw"
    root = spec.q.spec if isinstance(spec.q, RootOfUnity) else None
    N, eps = (None, 1) if isinstance(spec.r, GenericR) else (spec.r.N, spec.r.eps)
    return Rule(family, N, 1 if p == 2 else eps, root.e if root else 0, root, p == 2)


# --- symbolic weights ------------------------------------------------------


def _term_poly(kind: str, shift: int, N: int, eps: int) -> LaurentPoly:
    if kind == DELTA:
        return LaurentPoly({1: 1, 0: shift})
    if kind == QINT:
        return qint(N + shift)
    if kind == EPS:
        return LaurentPoly.constant(eps)
    if kind == ONE_MINUS:
        return LaurentPoly([(0, 1), (-N - shift, -eps)])
    return LaurentPoly([(0, 1), (N + shift, eps)])


def _den_poly(den: str, h: int) -> LaurentPoly | int:
    if den == HOOK:
        return h
    return qint(h) if den == QHOOK else LaurentPoly([(0, 1), (-2 * h, -1)])


def _symbolic_weight(family: str, la: Partition, N: int = 0, eps: int = 1) -> RationalFunction:
    num = den = LaurentPoly.constant(1)
    for f in box_factors(family, la):
        num = num * reduce(mul, (_term_poly(kind, shift, N, eps) for kind, shift in f.terms))
        den = den * _den_poly(f.den, f.hook)
    return RationalFunction(num, den)


def brauer_weight(la: Partition) -> RationalFunction:
    """d_la(delta) = prod (delta + d(i,j)) / h(i,j) over the boxes of la."""
    return _symbolic_weight("brauer", la)


def qbrauer_weight_at_power(la: Partition, N: int) -> RationalFunction:
    """The q-Brauer weight at r = q^N: prod [N + d]_q / [h]_q.

    (At r = -q^N the weight is this times (-1)^|la|.)
    """
    return _symbolic_weight("qbrauer", la, N)


def bmw_weight_at_power(la: Partition, N: int, eps: int) -> RationalFunction:
    """The BMW weight at r = eps*q^(N-1).

    Off-diagonal boxes contribute eps*[N+d]_q/[h]_q; a diagonal box (i,i)
    contributes (1 - eps*q^(-N-a))(1 + eps*q^(N+b)) / (1 - q^(-2h)).
    """
    if eps not in (1, -1):
        raise ParameterError(f"sign must be +-1, got {eps}")
    return _symbolic_weight("bmw", la, N, eps)


# --- factored descriptions -------------------------------------------------


def _shifted(base: str, d: int) -> str:
    return base if d == 0 else (f"{base}+{d}" if d > 0 else f"{base}-{-d}")


def _term_text(kind: str, shift: int, N: int | None) -> str:
    """One term as text; delta stays symbolic, and so does N = None."""
    if kind == DELTA:
        return f"({_shifted('delta', shift)})"
    if kind == EPS:
        return "eps*"
    x = _shifted("N", shift) if N is None else str(N + shift)
    if kind == QINT:
        return f"[{x}]"
    if kind == ONE_MINUS:
        return f"(1-eps*q^({f'-({x})' if N is None else -(N + shift)}))"
    return f"(1+eps*q^({x}))"


def _den_text(den: str, h: int) -> str:
    return {HOOK: str(h), QHOOK: f"[{h}]", DIAG_HOOK: f"(1-q^(-{2 * h}))"}[den]


def weight_factor_descriptions(la: Partition, spec: ParamSpec) -> tuple[str, ...]:
    """One human-readable factor per box of la, under the rule spec selects;
    a generic r leaves N symbolic (never flattened)."""
    r = rule(spec)
    return tuple(
        "".join(_term_text(kind, shift, r.N) for kind, shift in f.terms) + "/" + _den_text(f.den, f.hook)
        for f in box_factors(r.family, la)
    )


# --- evaluation ------------------------------------------------------------


class WeightValue(Record):
    """Outcome of evaluating one weight under a ParamSpec.

    `evaluable` is False when a denominator vanishes (only possible past
    n_1); then `is_zero` and `value` are None.  `value` is an exact field
    element for the Brauer rule at an integer delta (Fraction in
    characteristic 0, PrimeFieldElement mod p), else None even though
    zero-ness is decided.
    """

    __slots__ = ("shape", "evaluable", "is_zero", "value", "witness_box")
    shape: Partition
    evaluable: bool
    is_zero: bool | None
    value: Fraction | PrimeFieldElement | None
    witness_box: Box | None


def _term_vanishes(kind: str, x: int, r: Rule) -> bool:
    """Whether a term with x = N + shift is zero under the rule r: delta
    terms and q-integers vanish mod the rule's modulus, as the hooks do."""
    if kind == EPS:
        return False
    if kind in (ONE_MINUS, ONE_PLUS):
        sign = r.eps if kind == ONE_MINUS else -r.eps  # eps*q^x = -1 iff -eps*q^x = 1
        return signed_power_is_one(sign, x, r.root, r.char2)
    return x % r.modulus == 0 if r.modulus else x == 0


def evaluate_weight(la: Partition, spec: ParamSpec) -> WeightValue:
    """Evaluates the weight of la under spec, deciding zero-ness exactly.

    Every factor vanishes by a congruence: mod p in the Brauer rule, and
    at a root of unity on the orders RootSpec(e, f)."""
    validate_params(spec)
    r = rule(spec)
    factors = tuple(box_factors(r.family, la))
    if r.modulus and any(f.hook % r.modulus == 0 for f in factors):
        return WeightValue(la, False, None, None, None)
    if r.N is None:
        return WeightValue(la, True, False, None, None)
    witness = next((f.box for f in factors if any(_term_vanishes(k, r.N + s, r) for k, s in f.terms)), None)
    value = None
    if r.family == "brauer":  # the product of (delta + d)/h over the boxes
        num = den = 1
        for f in factors:
            ((_, d),) = f.terms
            num *= r.N + d
            den *= f.hook
        p = r.modulus
        value = PrimeFieldElement(p, num * pow(den, -1, p)) if p else Fraction(num, den)
    return WeightValue(la, True, witness is not None, value, witness)


# --- levels ----------------------------------------------------------------


def vanishing_level(spec: ParamSpec, n_max: int) -> tuple[int, Partition, Box] | None:
    """The least level n <= min(n_max, n_1) with a vanishing weight among
    the shapes of size n, with a witness (n, la, box); None if no weight
    vanishes that low.  (A weight's vanishing depends only on the shape, so
    scanning exact sizes finds the first level.)"""
    validate_params(spec)
    if n_max < 2:
        raise ParameterError(f"n_max must be at least 2, got {n_max}")
    cap = rule(spec).cap
    top = n_max if cap is None else min(n_max, cap)
    for n in range(2, top + 1):
        for la in partitions_of(n):
            w = evaluate_weight(la, spec)
            if not w.evaluable:
                raise ParameterError(f"weight of {la} not evaluable below n_1")
            if w.is_zero:
                return n, la, w.witness_box
    return None
