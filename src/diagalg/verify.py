"""Named self-check suites cross-validating the library against identities.

Each suite runs a family of exact checks (no floating point anywhere) and
returns structured results; `run_suite` dispatches by name.  Default depths
keep every suite in the seconds range; the caps can be raised through
`max_n` (interpreted per suite: diagram level or partition size), which must
be at least 2 so that every check covers at least one case, and at most the
suite's ceiling in SUITES where some check grows with it unbounded.

Suites:
  counting           dimension and coset identities, factorization round-trip
  trace              Markov trace symmetry, Markov property, iterated
                     conditional expectations, weight normalization
  cellular           basis transition, triangularity, involution, ideals,
                     weak coherence of layers
  oracle-equivalence closed-form bounds and witnesses against brute-force
                     search, decision witnesses against actual weight vanishing
  specialization     q = 1 degeneration of q-weights to classical weights
  gram               the generic structure of the trace form, and the first
                     degenerate Gram level = the first vanishing weight
                     level = the decided bound, over Q and F_3, F_5, F_7
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import product

from .branching import double_factorial_odd, path_count, reflected_level
from .brauer import (
    DELTA,
    AlgebraElement,
    all_diagrams,
    cond_exp,
    coset_counting_identity,
    diagram_from_pairs,
    embed,
    factorize,
    generator,
    identity_diagram,
    markov_trace,
    multiply,
    recompose,
)
from .cellular import (
    gl_basis,
    ideal_identification,
    involution_swaps_indices,
    left_action_triangular,
    transition_det,
    weak_coherence_check,
)
from .criteria import (
    decide,
    m_bruteforce,
    m_closed,
    mprime_bruteforce,
    mprime_closed,
)
from .exactalg import LaurentPoly, RationalFunction, RootSpec, qint
from .gram import first_degenerate_level, generic_structure_check
from .partitions import partitions_of, size
from .weights import (
    BMWParams,
    BrauerParams,
    IntegerDelta,
    NotRootOfUnity,
    QBrauerParams,
    RootOfUnity,
    SignedPower,
    bmw_weight_at_power,
    brauer_weight,
    evaluate_weight,
    n1_cap,
    qbrauer_weight_at_power,
    vanishing_level,
)

_SEED = 20260814


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check inside a suite."""

    suite: str
    name: str
    passed: bool
    detail: str = ""


def _check(suite: str, name: str, check: Callable[[], bool]) -> CheckResult:
    """Runs one check.  The library raises RuntimeError where an internal
    count or inverse comes out wrong; that fails the check, with the error
    as its detail, and the suite goes on.  Every suite builds its results
    here."""
    try:
        return CheckResult(suite, name, bool(check()))
    except RuntimeError as exc:
        return CheckResult(suite, name, False, str(exc))


def suite_counting(max_n: int = 6) -> list[CheckResult]:
    """Dimension identities and the factorization round-trip."""
    n_enum = min(max_n, 6)
    n_fac = min(max_n, 4)
    checks = (
        (f"path-count squares sum to (2n-1)!!, n <= {max_n}",
         lambda: all(sum(path_count(x) ** 2 for x in reflected_level(n)) == double_factorial_odd(n)
                     for n in range(max_n + 1))),
        (f"coset sizes sum to (2n-1)!!, n <= {max_n}",
         lambda: all(coset_counting_identity(n) for n in range(1, max_n + 1))),
        (f"diagram enumeration is exact, n <= {n_enum}",
         lambda: all(len(set(all_diagrams(n))) == double_factorial_odd(n) for n in range(n_enum + 1))),
        (f"factorize/recompose round-trip, n <= {n_fac}",
         lambda: all(recompose(*factorize(d)) == (d, 0) for n in range(1, n_fac + 1) for d in all_diagrams(n))),
    )
    return [_check("counting", name, check) for name, check in checks]


def _iterated_trace(x: AlgebraElement):
    """Trace computed by applying the conditional expectation down to level 0."""
    y = x
    for _ in range(x.n):
        y = cond_exp(y)
    return y.coeff(identity_diagram(0))


def _random_diagram(rng: random.Random, n: int) -> AlgebraElement:
    """A uniformly random diagram on n strands: the 2n vertices shuffled and
    paired off in order."""
    verts = list(range(2 * n))
    rng.shuffle(verts)
    return AlgebraElement.from_diagram(diagram_from_pairs(n, zip(verts[::2], verts[1::2])))


def _trace_is_symmetric(max_n: int, pairs: int) -> bool:
    rng = random.Random(_SEED)
    for n in range(1, max_n + 1):
        for _ in range(pairs):
            a = _random_diagram(rng, n)
            b = _random_diagram(rng, n)
            if markov_trace(multiply(a, b)) != markov_trace(multiply(b, a)):
                return False
    return True


def _markov_property(max_n: int) -> bool:
    for n in range(1, max_n + 1):
        ebar = AlgebraElement.from_diagram(generator("e", n, n + 1), DELTA ** -1)
        for d in all_diagrams(n):
            x = AlgebraElement.from_diagram(d)
            if markov_trace(multiply(ebar, embed(x))) != DELTA ** -2 * markov_trace(x):
                return False
    return True


def _normalization_holds(weight: Callable, delta: LaurentPoly, max_n: int) -> bool:
    """For each level n <= max_n, the sum over the shapes x of the level of
    path_count(x) * weight(x.shape) is delta^n."""
    for n in range(max_n + 1):
        total = RationalFunction(LaurentPoly.constant(0, delta.variable))
        for x in reflected_level(n):
            total = total + weight(x.shape) * path_count(x)
        if total != RationalFunction(delta**n):
            return False
    return True


def suite_trace(max_n: int = 4, pairs: int = 100) -> list[CheckResult]:
    """Markov-trace identities, all in Q(delta)."""
    n_markov = min(max_n, 4)
    n_iter = min(max_n, 4)
    n_norm = min(max_n, 5)
    checks = (
        (f"tr(xy) = tr(yx), {pairs} random pairs per n <= {max_n}", lambda: _trace_is_symmetric(max_n, pairs)),
        (f"tr(ebar_n x) = delta^-2 tr(x), n <= {n_markov}", lambda: _markov_property(n_markov)),
        (f"closure trace = iterated E trace, n <= {n_iter}",
         lambda: all(_iterated_trace(x) == markov_trace(x)
                     for n in range(n_iter + 1) for x in map(AlgebraElement.from_diagram, all_diagrams(n)))),
        (f"sum of path_count * weight = delta^n, n <= {n_norm}",
         lambda: _normalization_holds(brauer_weight, DELTA, n_norm)),
    )
    return [_check("trace", name, check) for name, check in checks]


def _weak_coherence(max_n: int) -> bool:
    for n in range(max_n + 1):
        for m in range(n % 2, n + 1, 2):
            if (n - m) // 2 > 2:
                continue
            for label in reflected_level(m):
                members = [c.element for c in gl_basis(m) if c.label == label]
                if not all(weak_coherence_check(x, label, n) for x in members[:2]):
                    return False
    return True


def suite_cellular(max_n: int = 3) -> list[CheckResult]:
    """Cellular-structure checks for the diagram basis."""
    n_det = min(max_n, 4)
    n_tri = min(max_n, 3)
    levels = range(n_tri + 1)
    checks = (
        (f"basis transition determinant is +-1, n <= {n_det}",
         lambda: all(transition_det(n) in (1, -1) for n in range(n_det + 1))),
        (f"left action is layer-triangular, n <= {n_tri}", lambda: all(map(left_action_triangular, levels))),
        (f"involution swaps tableau indices, n <= {n_tri}", lambda: all(map(involution_swaps_indices, levels))),
        (f"lower layers = ideal of e_(n-1), n <= {n_tri}", lambda: all(map(ideal_identification, levels))),
        (f"weak coherence of layers, k <= 2, n <= {n_det}", lambda: _weak_coherence(n_det)),
    )
    return [_check("cellular", name, check) for name, check in checks]


def _witness_vanishes(spec) -> bool:
    """The decision's witness shape has the decided size and a weight that
    evaluates to zero."""
    verdict = decide(spec)
    if verdict.witness is None:
        return False
    la, _ = verdict.witness
    value = evaluate_weight(la, spec)
    return value.evaluable and value.is_zero and size(la) == verdict.m


def suite_oracle_equivalence(max_n: int = 10) -> list[CheckResult]:
    """Closed-form bounds and their witnesses against brute-force search;
    decision witnesses against actual weight vanishing."""
    limit = 2 * max_n + 10
    e_cap = min(max_n, 8)
    cases = (
        BrauerParams(0, IntegerDelta(2)),
        BrauerParams(5, IntegerDelta(2)),
        QBrauerParams(0, RootOfUnity(RootSpec(7, 7)), SignedPower(1, -3)),
        QBrauerParams(0, NotRootOfUnity(), SignedPower(-1, 3)),
        BMWParams(0, RootOfUnity(RootSpec(5, 10)), SignedPower(-1, -2)),
        BMWParams(0, NotRootOfUnity(), SignedPower(-1, 4)),
        BMWParams(0, NotRootOfUnity(), SignedPower(1, -2)),
    )
    checks = (
        (f"m0/m1/m2/m3 closed form = search, |arg| <= {max_n}",
         lambda: all(m_closed(kind, x) == m_bruteforce(kind, x, limit)
                     for kind, x in product(range(4), range(-max_n, max_n + 1)))),
        (f"m1'/m2'/m3' closed form = search, e <= {e_cap}",
         lambda: all(mprime_closed(kind, N, eps, rs, char2) == mprime_bruteforce(kind, N, eps, rs, char2, limit)
                     for e in range(2, e_cap + 1)
                     for rs in (RootSpec(e, e), RootSpec(e, 2 * e))
                     for N, kind, eps, char2 in product(range(-e + 1, 1), (1, 2, 3), (1, -1), (False, True)))),
        ("decision witnesses have vanishing weights",
         lambda: all(map(_witness_vanishes, cases))),
    )
    return [_check("oracle-equivalence", name, check) for name, check in checks]


def _q_one_degeneration(qb_cap: int, bmw_cap: int) -> bool:
    for n in range(qb_cap + 1):
        for la in partitions_of(n):
            for N in range(-5, 6):
                classical = brauer_weight(la).evaluate(N)
                if qbrauer_weight_at_power(la, N).evaluate(1) != classical:
                    return False
                if n <= bmw_cap and bmw_weight_at_power(la, N, 1).evaluate(1) != classical:
                    return False
    return True


def suite_specialization(max_n: int = 5) -> list[CheckResult]:
    """q = 1 degenerations and the q-analogue of the normalization."""
    qb_cap = min(max_n, 6)
    bmw_cap = min(max_n, 5)
    n_norm = min(max_n, 4)
    checks = (
        (f"weights at q = 1 match delta = N, |la| <= {qb_cap}", lambda: _q_one_degeneration(qb_cap, bmw_cap)),
        (f"q-weight normalization at delta = [N], n <= {n_norm}",
         lambda: all(_normalization_holds(partial(qbrauer_weight_at_power, N=N), qint(N), n_norm)
                     for N in (3, 5, -4))),
    )
    return [_check("specialization", name, check) for name, check in checks]


def _levels_agree(p: int, deltas, max_n: int) -> bool:
    """For each integer delta (a residue in characteristic p), up to level
    top = min(max_n, n_1): a decided bound m <= top with a witness is both
    the first degenerate Gram level and the first level with a vanishing
    weight; otherwise neither exists.  A bound m = n_1 with no witness is the
    last semisimple level, not a degenerate one."""
    for d in deltas:
        spec = BrauerParams(p, IntegerDelta(d))
        cap = n1_cap(spec)
        top = max_n if cap is None else min(max_n, cap)
        verdict = decide(spec)
        m = verdict.m if verdict.witness is not None and verdict.m <= top else None
        vanishing = vanishing_level(spec, top)
        if first_degenerate_level(spec, top) != m or (vanishing and vanishing[0]) != m:
            return False
    return True


def suite_gram(max_n: int = 4) -> list[CheckResult]:
    """The third method against the other two: Gram ranks of the trace form
    against weight vanishing and the decided bound.  Every integer root of a
    Gram determinant at n <= 4 lies in [-6, 3], so 0 < |delta| <= 8 covers
    each one with margin; level 5 (945 diagrams) is left to `diagalg gram`."""
    n_gram = min(max_n, 4)
    checks = (
        (f"delta^0 entries pair each diagram with its involute, n <= {n_gram}",
         lambda: all(generic_structure_check(n) for n in range(1, n_gram + 1))),
        (f"first degenerate Gram level = first vanishing weight = m, char 0, 0 < |delta| <= 8, n <= {n_gram}",
         lambda: _levels_agree(0, [d for d in range(-8, 9) if d], n_gram)),
        (f"the same in chars 3, 5, 7, every residue, n <= min({n_gram}, p - 1)",
         lambda: all(_levels_agree(p, range(1, p), n_gram) for p in (3, 5, 7))),
    )
    return [_check("gram", name, check) for name, check in checks]


# Each suite with the deepest max_n it accepts, None where every check caps
# its own depth.  Past the ceiling the work grows without a cap: the coset
# identity ~4x per level (14: about 14 s, 15: about a minute), tr(xy) on 100
# random pairs per level, quadratic in max_n (250: 17 s, 300: 24 s), and the
# search to level 2*max_n + 10 (20: 4 s and 50 MB, 21: 5 s and 64 MB, most of
# it the partitions of the level being scanned), timed on a 2-vCPU VM.
SUITES = {
    "counting": (suite_counting, 14),
    "trace": (suite_trace, 250),
    "cellular": (suite_cellular, None),
    "oracle-equivalence": (suite_oracle_equivalence, 20),
    "specialization": (suite_specialization, None),
    "gram": (suite_gram, None),
}


def run_suite(name: str, max_n: int | None = None) -> list[CheckResult]:
    """Runs one suite by name (see SUITES); max_n overrides the default depth."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    _check_depth(name, max_n)
    fn = SUITES[name][0]
    return fn() if max_n is None else fn(max_n)


def _check_depth(name: str, max_n: int | None) -> None:
    if max_n is None:
        return
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}: below it some checks cover no case")
    ceiling = SUITES[name][1]
    if ceiling is not None and max_n > ceiling:
        raise ValueError(f"max_n for suite {name!r} must be <= {ceiling}, got {max_n}")


def run_all(max_n: int | None = None) -> list[CheckResult]:
    """Runs every suite in order, after checking max_n against each."""
    for name in SUITES:
        _check_depth(name, max_n)
    results = []
    for name in SUITES:
        results.extend(run_suite(name, max_n))
    return results
