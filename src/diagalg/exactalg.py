"""Exact scalar arithmetic: Laurent polynomials, rational functions, F_p.

Everything downstream (weights, Gram matrices, decision procedures) is exact,
so the scalar layer never touches floating point.  There is one coefficient
ring, Z[v, v^-1], with no name for its variable: v stands for delta in the
Brauer weights, traces and cellular expansions and for q in the q-integers
and q-weights, and no computation combines the two.  Laurent polynomials
are sparse maps exponent -> int, since every one of them has integer
coefficients, and are only the ring.  Rational functions keep an unreduced
numerator / denominator pair (arithmetic and equality never compute gcds;
equality is by cross-multiplication) and are the one type that is
evaluated: at a rational point, 0 included, one Horner pass over the ints
per side finds the order of the point as a zero and the value of the
cofactor, so a shared zero cancels.  Rational numbers (`fractions.Fraction`)
appear only as values of `RationalFunction.evaluate`.  Polynomials and
rational functions print as reprs that `eval` reads back.

Root-of-unity data is carried by RootSpec(e, f): f is the multiplicative
order of q and e = e(q) is the least d >= 1 with [d]_q = 0, i.e. the order of
q^2.  For a field element these satisfy f = 2e, or f = e with e odd, but the
pair is deliberately not constrained to that (the oracle-equivalence suite
of `verify` checks the closed forms on RootSpec(e, e) for even e too, a
pair no field element has).  All conditions of the form
eps * q^x = +-1 reduce to congruences mod f via `signed_power_is_one`
(eps * q^x = -1 is -eps * q^x = 1), which also decides them for q not a
root of unity (no RootSpec), where only x = 0 can hold.

The module also holds three base classes: `Frozen`, from which every
immutable value in the package takes its immutability, copy and pickle;
`Record`, the `Frozen` base of every value with named fields, from
RootSpec, the parameter specs and the verdicts to the results of `verify`;
and `ParameterError`, raised for parameters outside the theorems'
hypotheses (RootSpec refuses e < 2 and f outside {e, 2e} with it).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cache


class Frozen:
    """Base of every immutable value in the package: the arithmetic values
    of this module, the elements of the Brauer algebra and every `Record`.

    Assigning or deleting any attribute raises AttributeError, so a
    subclass's constructor writes its slots with `object.__setattr__`.  Copy
    and pickle rebuild a value by calling its class on its slots, which a
    subclass lists in the order its constructor takes them.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class LaurentPoly(Frozen):
    """A Laurent polynomial sum c_k * v^k with integer coefficients, an
    element of Z[v, v^-1].

    Any other coefficient type is a TypeError.  Instances are immutable and
    repr as `LaurentPoly({k: c_k, ...})`, which `eval` reads back.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]]):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        clean: dict[int, int] = {}
        for k, c in items:
            if not isinstance(c, int):
                raise TypeError(f"Laurent coefficients are integers, got {type(c).__name__}")
            if c:
                c += clean.get(k, 0)
                if c:
                    clean[k] = c
                else:
                    del clean[k]
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _wrap(cls, clean: dict[int, int]) -> "LaurentPoly":
        """A polynomial on a dict that is already clean, int coefficients
        and no zeros, taken as it is: the ring operations build such dicts
        and skip the checks of `__init__`."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", clean)
        return p

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(other)
        return None

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            c += out.get(k, 0)
            if c:
                out[k] = c
            else:
                del out[k]
        return LaurentPoly._wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._wrap({k: -c for k, c in self.coeffs.items()})

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, int] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly._wrap({k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if not self.is_monomial or set(self.coeffs.values()) - {1, -1}:
                raise ValueError("negative powers need a unit +-v^k")
            ((k, c),) = self.coeffs.items()
            return LaurentPoly.monomial(k * n, c**-n)
        out = LaurentPoly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"LaurentPoly({self.coeffs!r})"


def _order_and_value(p: LaurentPoly, point: int | Fraction) -> tuple[int, Fraction]:
    """Returns (m, c) with p = (b*v - a)^m * g and c = g(a/b) != 0, for a
    nonzero p and a rational point a/b in lowest terms.

    At 0 the factor is v, a unit, so m is the least exponent of p (negative
    when p has negative powers) and c is its coefficient.  At a nonzero
    point p = v^lo * q for a polynomial q of degree D, and one Horner pass
    over the ints, from the top coefficient down, makes the partial sums
    h_0, ..., h_D of b^D * q(a/b) = h_D: h_k is b^(k+1) times the
    coefficient of v^(D-1-k) in the quotient of q by b*v - a.  A nonzero
    h_D gives the value; a zero one makes that quotient exact over Z
    (Gauss's lemma), and the pass runs again on it.
    """
    lo = min(p.coeffs)
    if not point:
        return lo, Fraction(p.coeffs[lo])
    a, b = point.numerator, point.denominator
    coeffs = [p.coeffs.get(k, 0) for k in range(max(p.coeffs), lo - 1, -1)]
    m = 0
    while True:
        sums, h, b_power = [], 0, 1
        for c in coeffs:
            h = h * a + c * b_power
            b_power *= b
            sums.append(h)
        if h:  # g(a/b) = (a/b)^lo * h / b^D, D the degree of the last quotient
            return m, Fraction(h, b ** (len(coeffs) - 1)) * Fraction(a, b) ** lo
        coeffs = [s // b ** (k + 1) for k, s in enumerate(sums[:-1])]
        m += 1


class RationalFunction(Frozen):
    """A quotient of Laurent polynomials, kept unreduced.

    Arithmetic cross-multiplies without computing gcds, so instances have no
    canonical form and are not hashable.  The repr names the numerator and
    denominator as they are kept, `RationalFunction(LaurentPoly(...),
    LaurentPoly(...))`, which `eval` reads back.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = LaurentPoly.constant(1)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _coerce(self, other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, LaurentPoly):
            return RationalFunction(other)
        if isinstance(other, int):
            return RationalFunction(LaurentPoly.constant(other))
        return None

    def __add__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def evaluate(self, point: int | Fraction) -> Fraction:
        """Evaluates at a rational point, cancelling any shared zero.

        The order of the point as a zero of the numerator and of the
        denominator (at 0 the least exponent) says whether it is a pole, a
        zero or neither, and the values of their cofactors there give the
        quotient.  Raises ZeroDivisionError if the point is a genuine pole.
        """
        if not isinstance(point, (int, Fraction)):
            raise TypeError(f"expected a rational point, got {type(point).__name__}")
        if self.is_zero:
            return Fraction(0)
        m_num, c_num = _order_and_value(self.num, point)
        m_den, c_den = _order_and_value(self.den, point)
        if m_num < m_den:
            raise ZeroDivisionError(f"pole at {point}")
        if m_num > m_den:
            return Fraction(0)
        return c_num / c_den

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


class ParameterError(ValueError):
    """Raised for parameter combinations outside the theorems' hypotheses."""


class Record(Frozen):
    """Base of every immutable value with named fields in the package: the
    records of the decision chain (RootSpec, the parameter specs of
    `weights`, the verdicts of `criteria`), elements of F_p, branching
    labels, cellular basis elements, box factors, echelon forms and check
    results.

    A subclass names its fields, in order, in `__slots__`; it is built
    positionally, compares equal only to a record of its own type with equal
    fields, hashes as its field tuple and reprs as `Name(field=value, ...)`.
    The tuple of field values is kept in one more slot, so equality and
    hashing build no tuple per call; immutability, copy and pickle come
    from `Frozen`.  A subclass costs no import and no code generated per
    class at start-up, which each query of the command line would pay.
    """

    __slots__ = ("_field_values",)

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        object.__setattr__(self, "_field_values", values)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._field_values == other._field_values

    def __hash__(self):
        return hash(self._field_values)

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"


class PrimeFieldElement(Record):
    """An element of F_p for a prime p, with powers and equality.

    It is a value, not an arithmetic type: a weight's value mod p is one
    quotient of ints reduced once, and Gram entries are powers of delta.  As
    a `Record` it equals only a PrimeFieldElement with the same p and value,
    never an int."""

    __slots__ = ("p", "value")
    p: int
    value: int

    def __init__(self, p: int, value: int):
        if p < 2 or not is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(p, value % p)

    def __pow__(self, n: int):
        if n < 0 and self.value == 0:
            raise ZeroDivisionError("cannot invert 0")
        return PrimeFieldElement(self.p, pow(self.value, n, self.p))


class RootSpec(Record):
    """Order data for q a root of unity: f = ord(q), e = ord(q^2) = e(q).

    Any e >= 2 with f in {e, 2e} is accepted; `field_consistent` flags the
    pairs that can come from an actual field element (f = 2e always works,
    f = e forces e odd).
    """

    __slots__ = ("e", "f")
    e: int
    f: int

    def __init__(self, e: int, f: int):
        if e < 2:
            raise ParameterError(f"e must be >= 2, got {e}")
        if f not in (e, 2 * e):
            raise ParameterError(f"f must be e or 2e, got e={e}, f={f}")
        super().__init__(e, f)

    @property
    def field_consistent(self) -> bool:
        return self.f == 2 * self.e or self.e % 2 == 1


def signed_power_is_one(eps: int, x: int, spec: RootSpec | None, char2: bool = False) -> bool:
    """Whether eps * q^x = 1 for q of order f (eps in {+1, -1}), or for q
    not a root of unity when spec is None: then q^x = 1 only at x = 0.

    In characteristic 2 the sign is invisible, so the condition is f | x
    (x = 0 off roots of unity).
    """
    if eps not in (1, -1):
        raise ValueError(f"eps must be +-1, got {eps}")
    if spec is None:
        return x == 0 and (eps == 1 or char2)
    if char2 or eps == 1:
        return x % spec.f == 0
    return spec.f % 2 == 0 and x % spec.f == spec.f // 2


def qint(d: int) -> LaurentPoly:
    """Returns the q-integer [d] = (q^d - q^-d)/(q - q^-1) symbolically.

    [d] = q^(d-1) + q^(d-3) + ... + q^(1-d); [-d] = -[d] and [0] = 0.
    """
    if d < 0:
        return -qint(-d)
    return LaurentPoly({d - 1 - 2 * k: 1 for k in range(d)})


@cache
def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for the small moduli here;
    cached, since weights.rule tests the characteristic of every weight a
    table or scan evaluates, and every PrimeFieldElement tests its modulus."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True
