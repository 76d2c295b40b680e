"""Trace weights of the Brauer, q-Brauer, and BMW algebras.

For the Brauer algebra the weight of a shape la is the rational function

    d_la(delta) = prod over boxes (delta + d(i,j)) / h(i,j),

with d the box statistic from `partitions` and h the hook length.  The
q-Brauer analogue at r = +-q^N replaces each factor by [N + d]_q / [h]_q,
and the BMW analogue at r = eps*q^(N-1) keeps that factor (times eps) on
off-diagonal boxes but replaces the factor of a diagonal box (i,i) by

    (1 - eps*q^(-N-a))(1 + eps*q^(N+b)) / (1 - q^(-2h)).

Weights multiply path counts to give the Markov trace of minimal
idempotents, so their vanishing is what degerates the trace form; all the
semisimplicity bounds reduce to locating the first vanishing factor.

Parameters are described structurally (ParamSpec): the characteristic, the
delta or (q, r) regime, and for roots of unity the pair of orders
RootSpec(e, f) with e = ord(q^2), f = ord(q).  Evaluation at a root of
unity is a pure congruence test; `realize=True` additionally evaluates the
symbolic weight at an exact order-f root in a prime field as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .exactalg import (
    LaurentPoly,
    PrimeFieldElement,
    RationalFunction,
    RootSpec,
    is_prime,
    prime_field_root_of_unity,
    qint,
    signed_power_is_minus_one,
    signed_power_is_one,
)
from .partitions import Box, Partition, avalue, boxes, bvalue, dvalue, hook, partitions_of, size


class ParameterError(ValueError):
    """Raised for parameter combinations outside the theorems' hypotheses."""


# --- parameter variants ----------------------------------------------------


@dataclass(frozen=True)
class GenericDelta:
    """delta transcendental over the prime field."""


@dataclass(frozen=True)
class NonIntegerDelta:
    """delta not in the image of Z in the field (so delta + d never vanishes)."""


@dataclass(frozen=True)
class IntegerDelta:
    """delta = N * 1 in the field, for an integer N."""

    value: int


DeltaParam = GenericDelta | NonIntegerDelta | IntegerDelta


@dataclass(frozen=True)
class NotRootOfUnity:
    """q of infinite multiplicative order (and q != +-1)."""


@dataclass(frozen=True)
class RootOfUnity:
    """q a root of unity with orders spec = RootSpec(e, f)."""

    spec: RootSpec


@dataclass(frozen=True)
class PlusMinusOne:
    """q = +-1: the algebra degenerates to the Brauer algebra at `delta`."""

    delta: DeltaParam


QParam = NotRootOfUnity | RootOfUnity | PlusMinusOne


@dataclass(frozen=True)
class GenericR:
    """r algebraically independent from q (never a signed power)."""


@dataclass(frozen=True)
class SignedPower:
    """r = eps * q^N for the q-Brauer family, r = eps * q^(N-1) for BMW."""

    eps: int
    N: int


RParam = GenericR | SignedPower


@dataclass(frozen=True)
class BrauerParams:
    characteristic: int
    delta: DeltaParam


@dataclass(frozen=True)
class QBrauerParams:
    characteristic: int
    q: QParam
    r: RParam


@dataclass(frozen=True)
class BMWParams:
    characteristic: int
    q: QParam
    r: RParam


ParamSpec = BrauerParams | QBrauerParams | BMWParams


def _validate_characteristic(p: int) -> None:
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

    Excluded are: non-prime characteristic; Brauer delta = 0; roots of
    unity that cannot exist in the given characteristic; q-Brauer r = +-1
    (which forces delta = [0] = 0); BMW r = q^-1 or r = -q (both force
    delta = 0).
    """
    p = spec.characteristic
    _validate_characteristic(p)
    if isinstance(spec, BrauerParams):
        _validate_delta(spec.delta, p)
        return
    _validate_q(spec.q, p)
    _validate_r(spec.r)
    if isinstance(spec.q, PlusMinusOne) or isinstance(spec.r, GenericR):
        return
    eps, N = spec.r.eps, spec.r.N
    char2 = p == 2
    if isinstance(spec, QBrauerParams):
        # delta = +-[N]_q vanishes iff [N]_q = 0
        if isinstance(spec.q, NotRootOfUnity):
            if N == 0:
                raise ParameterError("r = +-1 forces delta = 0 in the q-Brauer algebra")
        else:
            if N % spec.q.spec.e == 0:
                raise ParameterError(f"e | N forces delta = [N]_q = 0 (e = {spec.q.spec.e})")
    else:  # BMW: delta = 0 iff r = q^-1 (eps*q^N = 1) or r = -q (eps*q^(N-2) = -1)
        if isinstance(spec.q, NotRootOfUnity):
            r_is_qinv = N == 0 and (eps == 1 or char2)
            r_is_minus_q = N == 2 and (eps == -1 or char2)
        else:
            rs = spec.q.spec
            r_is_qinv = signed_power_is_one(eps, N, rs, char2)
            r_is_minus_q = signed_power_is_minus_one(eps, N - 2, rs, char2)
        if r_is_qinv:
            raise ParameterError("r = q^-1 is excluded (it forces delta = 0)")
        if r_is_minus_q:
            raise ParameterError("r = -q is excluded (it forces delta = 0)")


# --- symbolic weights ------------------------------------------------------


def brauer_weight(la: Partition) -> RationalFunction:
    """d_la(delta) = prod (delta + d(i,j)) / h(i,j) over the boxes of la."""
    delta = LaurentPoly.monomial(1, variable="delta")
    num = LaurentPoly.constant(1, "delta")
    den = Fraction(1)
    for b in boxes(la):
        num = num * (delta + dvalue(la, b))
        den *= hook(la, b)
    return RationalFunction(num, LaurentPoly.constant(den, "delta"))


def qbrauer_weight_at_power(la: Partition, N: int) -> RationalFunction:
    """The q-Brauer weight at r = q^N: prod [N + d]_q / [h]_q.

    (At r = -q^N the weight is this times (-1)^|la|.)
    """
    num = LaurentPoly.constant(1, "q")
    den = LaurentPoly.constant(1, "q")
    for b in boxes(la):
        num = num * qint(N + dvalue(la, b))
        den = den * qint(hook(la, b))
    return RationalFunction(num, den)


def bmw_weight_at_power(la: Partition, N: int, eps: int) -> RationalFunction:
    """The BMW weight at r = eps*q^(N-1).

    Off-diagonal boxes contribute eps*[N+d]_q/[h]_q; a diagonal box (i,i)
    contributes (1 - eps*q^(-N-a))(1 + eps*q^(N+b)) / (1 - q^(-2h)).
    """
    if eps not in (1, -1):
        raise ParameterError(f"sign must be +-1, got {eps}")
    one = LaurentPoly.constant(1, "q")
    num = one
    den = one
    for (i, j) in boxes(la):
        h = hook(la, (i, j))
        if i == j:
            a = avalue(la, (i, j))
            b = bvalue(la, (i, j))
            num = num * (one - LaurentPoly.monomial(-N - a, eps)) * (one + LaurentPoly.monomial(N + b, eps))
            den = den * (one - LaurentPoly.monomial(-2 * h))
        else:
            num = num * (qint(N + dvalue(la, (i, j))) * eps)
            den = den * qint(h)
    return RationalFunction(num, den)


# --- factored descriptions -------------------------------------------------


def weight_factor_descriptions(family: str, la: Partition, N: int | None = None) -> tuple[str, ...]:
    """One human-readable factor per box; N = None leaves the exponent
    symbolic (the generic-r presentation, never flattened)."""

    def shifted(base: str, d: int) -> str:
        return base if d == 0 else (f"{base}+{d}" if d > 0 else f"{base}-{-d}")

    out = []
    for b in boxes(la):
        h = hook(la, b)
        if family == "brauer":
            d = dvalue(la, b)
            out.append(f"({shifted('delta', d)})/{h}")
            continue
        if family == "qbrauer" or b[0] != b[1]:
            d = dvalue(la, b)
            top = f"[{N + d}]" if N is not None else f"[{shifted('N', d)}]"
            sign = "eps*" if family == "bmw" else ""
            out.append(f"{sign}{top}/[{h}]")
        else:
            a, bb = avalue(la, b), bvalue(la, b)
            up = f"-({shifted('N', a)})" if N is None else str(-(N + a))
            lo = f"{shifted('N', bb)}" if N is None else str(N + bb)
            out.append(f"(1-eps*q^({up}))(1+eps*q^({lo}))/(1-q^(-{2 * h}))")
    return tuple(out)


# --- evaluation ------------------------------------------------------------


@dataclass(frozen=True)
class WeightValue:
    """Outcome of evaluating one weight under a ParamSpec.

    `evaluable` is False when a denominator vanishes (only possible past
    n_1); then `is_zero` and `value` are None.  `value` is an exact field
    element when one is computable (Fraction in characteristic 0 with
    integral delta, PrimeFieldElement mod p or in a root-of-unity
    realization), else None even though zero-ness is decided.
    """

    shape: Partition
    evaluable: bool
    is_zero: bool | None
    value: Fraction | PrimeFieldElement | None
    witness_box: Box | None


def _evaluate_brauer(la: Partition, p: int, delta: DeltaParam) -> WeightValue:
    if p and any(hook(la, b) % p == 0 for b in boxes(la)):
        return WeightValue(la, False, None, None, None)
    if not isinstance(delta, IntegerDelta):
        return WeightValue(la, True, False, None, None)
    N = delta.value

    def numerator_vanishes(b: Box) -> bool:
        m = N + dvalue(la, b)
        return m % p == 0 if p else m == 0

    witness = next((b for b in boxes(la) if numerator_vanishes(b)), None)
    if p:
        value: Fraction | PrimeFieldElement = reduce(
            lambda acc, b: acc * (PrimeFieldElement(p, N + dvalue(la, b)) / PrimeFieldElement(p, hook(la, b))),
            boxes(la),
            PrimeFieldElement(p, 1),
        )
    else:
        value = reduce(lambda acc, b: acc * Fraction(N + dvalue(la, b), hook(la, b)), boxes(la), Fraction(1))
    return WeightValue(la, True, witness is not None, value, witness)


def _realization_value(la: Partition, family: str, eps: int, N: int, rs: RootSpec) -> PrimeFieldElement:
    """The symbolic weight evaluated at an exact order-f root of unity q0 in
    a prime field.  la has no hook divisible by e, so no denominator factor
    vanishes at q0."""
    _, q0 = prime_field_root_of_unity(rs.f)
    if family == "bmw":
        w = bmw_weight_at_power(la, N, eps)
    else:
        w = qbrauer_weight_at_power(la, N)
    val = w.num.evaluate(q0) / w.den.evaluate(q0)
    if family == "qbrauer" and eps == -1 and size(la) % 2:
        val = -val
    return val


def evaluate_weight(la: Partition, spec: ParamSpec, realize: bool = False) -> WeightValue:
    """Evaluates the weight of la under spec, deciding zero-ness exactly.

    At roots of unity the decision is by congruences on RootSpec; with
    realize=True the weight is additionally evaluated at a concrete root of
    unity in a prime field (only possible for realizable (e, f))."""
    validate_params(spec)
    p = spec.characteristic
    if isinstance(spec, BrauerParams):
        return _evaluate_brauer(la, p, spec.delta)
    if isinstance(spec.q, PlusMinusOne):
        return _evaluate_brauer(la, p, spec.q.delta)
    family = "qbrauer" if isinstance(spec, QBrauerParams) else "bmw"
    if isinstance(spec.r, GenericR):
        return WeightValue(la, True, False, None, None)
    eps, N = spec.r.eps, spec.r.N
    char2 = p == 2

    def box_vanishes(b: Box, rs: RootSpec | None) -> bool:
        i, j = b
        if family == "bmw" and i == j:
            na, nb = N + avalue(la, b), N + bvalue(la, b)
            if rs is None:
                one_hit = na == 0 and (eps == 1 or char2)
                minus_hit = nb == 0 and (eps == -1 or char2)
                return one_hit or minus_hit
            return signed_power_is_one(eps, na, rs, char2) or signed_power_is_minus_one(eps, nb, rs, char2)
        m = N + dvalue(la, b)
        return m == 0 if rs is None else m % rs.e == 0

    if isinstance(spec.q, NotRootOfUnity):
        witness = next((b for b in boxes(la) if box_vanishes(b, None)), None)
        return WeightValue(la, True, witness is not None, None, witness)
    rs = spec.q.spec
    if any(hook(la, b) % rs.e == 0 for b in boxes(la)):
        return WeightValue(la, False, None, None, None)
    witness = next((b for b in boxes(la) if box_vanishes(b, rs)), None)
    value = None
    if realize:
        if char2:
            raise ParameterError("prime-field realizations have odd characteristic")
        value = _realization_value(la, family, eps, N, rs)
    return WeightValue(la, True, witness is not None, value, witness)


# --- levels ----------------------------------------------------------------


def n1_cap(spec: ParamSpec) -> int | None:
    """The level n_1 below which all weights stay evaluable: p - 1 in
    characteristic p for the Brauer regime, e - 1 at a root of unity,
    None (no cap) otherwise."""
    p = spec.characteristic
    if isinstance(spec, BrauerParams) or isinstance(getattr(spec, "q", None), PlusMinusOne):
        return p - 1 if p else None
    if isinstance(spec.q, RootOfUnity):
        return spec.q.spec.e - 1
    return None


def vanishing_level(spec: ParamSpec, n_max: int) -> tuple[int, Partition, Box] | None:
    """The least level n <= min(n_max, n_1) with a vanishing weight among
    the shapes of size n, with a witness (n, la, box); None if no weight
    vanishes that low.  (A weight's vanishing depends only on the shape, so
    scanning exact sizes finds the first level.)"""
    validate_params(spec)
    if n_max < 2:
        raise ParameterError(f"n_max must be at least 2, got {n_max}")
    cap = n1_cap(spec)
    top = n_max if cap is None else min(n_max, cap)
    for n in range(2, top + 1):
        for la in partitions_of(n):
            w = evaluate_weight(la, spec)
            if not w.evaluable:
                raise ParameterError(f"weight of {la} not evaluable below n_1")
            if w.is_zero:
                return n, la, w.witness_box
    return None
