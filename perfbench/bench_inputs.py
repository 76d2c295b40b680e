"""Seeded inputs for the three benchmark workloads.

Queries are plain dicts, so that the generator depends on nothing in the
program: admissibility is built in by construction here and checked against
`diagalg.weights.validate_params` by the benchmark's tests.

A decide query has a `family`, a characteristic `char`, and either a `delta`
(Brauer) or a `q` and an `r` (q-Brauer, BMW):

  delta  {"kind": "int", "value": n} | {"kind": "generic"} | {"kind": "nonint"}
  q      {"kind": "root", "e": e, "f": f} | {"kind": "not-root"}
         | {"kind": "pm-one", "delta": <delta>}
  r      {"kind": "power", "eps": +-1, "N": n} | {"kind": "generic"}

Every seed yields the same make-up: the same strata with the same counts,
and the same deep-witness levels.  The seed only picks the parameters inside
each stratum and the order of the stream.
"""

from __future__ import annotations

import random

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
MAX_E = 24

# Witness levels of the deep stratum.  With 50 queries a round and two
# rounds a run, the 10 slowest samples are the levels 32 and 30 of both
# rounds and six of the ten level-28 samples, so the 90th percentile falls
# inside the level-28 group: an order statistic of ten like samples, not of
# one.  The regular strata have their witnesses below level 24.
DEEP_LEVELS = (20, 24, 28, 28, 28, 28, 28, 30, 32)

# (name, search limit or depth, number of checks the suite reports)
VERIFY_SUITES = (
    ("counting", 8, 4),
    ("trace", 5, 4),
    ("cellular", 4, 5),
    ("oracle-equivalence", 15, 3),  # search limit 2 * 15 + 10 = 40
    ("specialization", 6, 2),
)

GRAM_CHAR0_DELTAS = tuple(d for d in range(-8, 9) if d)
GRAM_PRIMES = (3, 5, 7)
GRAM_N_MAX = 4
GRAM_TOP = {"n": 5, "char": 7, "delta": 2}


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _nonzero_mod(rng: random.Random, lo: int, hi: int, p: int) -> int:
    """An integer in [lo, hi] that is nonzero (char 0) or a unit mod p."""
    while True:
        x = rng.randint(lo, hi)
        if (x != 0) if p == 0 else (x % p != 0):
            return x


def _int_delta(rng, p):
    return {"kind": "int", "value": _nonzero_mod(rng, -12, 12, 0) if p == 0 else _nonzero_mod(rng, -30, 30, p)}


def _root(rng, p, e_lo=2, e_hi=MAX_E):
    """Orders (e, f) of a root of unity that exists in characteristic p:
    f = e needs e odd, an element of order f needs p not dividing f."""
    while True:
        e = rng.randint(e_lo, e_hi)
        f = rng.choice((e, 2 * e))
        if (f == 2 * e or e % 2) and (p == 0 or f % p):
            return {"kind": "root", "e": e, "f": f}


def _q_power(x: int, f: int, target: int, char2: bool) -> bool:
    """Whether q^x = target (+1 or -1) for q of order f."""
    if char2 or target == 1:
        return x % f == 0
    return f % 2 == 0 and x % f == f // 2


def _bmw_admissible(q: dict, r: dict, p: int) -> bool:
    """BMW excludes r = q^-1 and r = -q, where r = eps * q^(N-1)."""
    eps, N = r["eps"], r["N"]
    char2 = p == 2
    if q["kind"] == "not-root":
        qinv = N == 0 and (eps == 1 or char2)
        minus_q = N == 2 and (eps == -1 or char2)
        return not (qinv or minus_q)
    f = q["f"]
    return not (_q_power(N, f, eps, char2) or _q_power(N - 2, f, -eps, char2))


def _power_at_root(rng, family, q, p):
    """r = eps * q^N with N anywhere in [-3e, 3e], avoiding the excluded values."""
    e = q["e"]
    while True:
        r = {"kind": "power", "eps": rng.choice((1, -1)), "N": rng.randint(-3 * e, 3 * e)}
        if family == "qbrauer" and r["N"] % e:
            return r
        if family == "bmw" and _bmw_admissible(q, r, p):
            return r


def _power_not_root(rng, family, p):
    """r = eps * q^N with N != 0.  For BMW, N = 0 with eps = -1 is admissible
    but `decide bmw` rejects it with exit 2 (m1(0) refuses arg 0), so the
    stream leaves N = 0 out to keep every operation succeeding."""
    while True:
        r = {"kind": "power", "eps": rng.choice((1, -1)), "N": rng.randint(-12, 12)}
        if r["N"] and (family == "qbrauer" or _bmw_admissible({"kind": "not-root"}, r, p)):
            return r


def _query(family, char, **params):
    return {"family": family, "char": char, **params}


# --- regular strata ----------------------------------------------------------
# Each maker draws one query.  Witness levels stay at most e + 2 <= 26 for
# roots of unity and at most 15 elsewhere.


def _brauer(p_kind, delta_kind):
    def make(rng):
        p = 0 if p_kind == "0" else rng.choice(SMALL_PRIMES)
        delta = _int_delta(rng, p) if delta_kind == "int" else {"kind": delta_kind}
        return _query("brauer", p, delta=delta)

    return make


def _q_root_power(family, e_lo, e_hi, charp=False):
    def make(rng):
        p = rng.choice(SMALL_PRIMES) if charp else 0
        q = _root(rng, p, e_lo, e_hi)
        return _query(family, p, q=q, r=_power_at_root(rng, family, q, p))

    return make


def _q_root_generic_r(family):
    def make(rng):
        return _query(family, 0, q=_root(rng, 0), r={"kind": "generic"})

    return make


def _q_not_root(family, r_kind, charp=False):
    def make(rng):
        p = rng.choice(SMALL_PRIMES) if charp else 0
        r = _power_not_root(rng, family, p) if r_kind == "power" else {"kind": "generic"}
        return _query(family, p, q={"kind": "not-root"}, r=r)

    return make


def _q_pm_one(family, delta_kind, charp=False):
    def make(rng):
        p = rng.choice(SMALL_PRIMES) if charp else 0
        delta = _int_delta(rng, p) if delta_kind == "int" else {"kind": delta_kind}
        return _query(family, p, q={"kind": "pm-one", "delta": delta}, r={"kind": "generic"})

    return make


def _qbrauer_criterion4_odd(rng):
    """q^e = 1 with e odd and the normalized N odd (acceptance criterion 4)."""
    e = rng.randrange(3, MAX_E, 2)
    N0 = rng.randrange(-e + 1, 0, 2)
    r = {"kind": "power", "eps": rng.choice((1, -1)), "N": N0 + e * rng.randint(-2, 2)}
    return _query("qbrauer", 0, q={"kind": "root", "e": e, "f": e}, r=r)


def _qbrauer_criterion4_even(rng):
    """q^e = -1 with e even and the normalized N odd (acceptance criterion 4)."""
    e = rng.randrange(2, MAX_E + 1, 2)
    N0 = rng.randrange(-e + 1, 0, 2)
    r = {"kind": "power", "eps": rng.choice((1, -1)), "N": N0 + e * rng.randint(-2, 2)}
    return _query("qbrauer", 0, q={"kind": "root", "e": e, "f": 2 * e}, r=r)


def _bmw_criterion4(rng):
    """e odd, f = 2e, normalized r = -q^(N-1) with N even (acceptance criterion 4).
    Shifting N by k*e multiplies r's sign by (-1)^k, since q^e = -1."""
    while True:
        e = rng.randrange(3, MAX_E, 2)
        q = {"kind": "root", "e": e, "f": 2 * e}
        N0 = rng.randrange(-e + 1, 1, 2)  # even, since e is odd
        k = rng.randint(-2, 2)
        r = {"kind": "power", "eps": -1 if k % 2 == 0 else 1, "N": N0 + k * e}
        if _bmw_admissible(q, r, 0):
            return _query("bmw", 0, q=q, r=r)


REGULAR_STRATA = (
    ("brauer.char0.int", 4, _brauer("0", "int")),
    ("brauer.char0.generic", 1, _brauer("0", "generic")),
    ("brauer.char0.nonint", 1, _brauer("0", "nonint")),
    ("brauer.charp.int", 3, _brauer("p", "int")),
    ("brauer.charp.generic", 1, _brauer("p", "generic")),
    ("brauer.charp.nonint", 1, _brauer("p", "nonint")),
    ("qbrauer.root.criterion4-odd", 1, _qbrauer_criterion4_odd),
    ("qbrauer.root.criterion4-even", 1, _qbrauer_criterion4_even),
    ("qbrauer.root.e2-12", 1, _q_root_power("qbrauer", 2, 12)),
    ("qbrauer.root.e13-24", 1, _q_root_power("qbrauer", 13, MAX_E)),
    ("qbrauer.root.charp", 2, _q_root_power("qbrauer", 2, MAX_E, charp=True)),
    ("qbrauer.root.r-generic", 1, _q_root_generic_r("qbrauer")),
    ("qbrauer.not-root.power", 3, _q_not_root("qbrauer", "power")),
    ("qbrauer.not-root.power-charp", 1, _q_not_root("qbrauer", "power", charp=True)),
    ("qbrauer.not-root.r-generic", 1, _q_not_root("qbrauer", "generic")),
    ("qbrauer.pm-one.int-char0", 1, _q_pm_one("qbrauer", "int")),
    ("qbrauer.pm-one.int-charp", 1, _q_pm_one("qbrauer", "int", charp=True)),
    ("qbrauer.pm-one.generic", 1, _q_pm_one("qbrauer", "generic")),
    ("bmw.root.criterion4", 2, _bmw_criterion4),
    ("bmw.root.e2-12", 1, _q_root_power("bmw", 2, 12)),
    ("bmw.root.e13-24", 1, _q_root_power("bmw", 13, MAX_E)),
    ("bmw.root.charp", 2, _q_root_power("bmw", 2, MAX_E, charp=True)),
    ("bmw.root.r-generic", 1, _q_root_generic_r("bmw")),
    ("bmw.not-root.power", 3, _q_not_root("bmw", "power")),
    ("bmw.not-root.power-charp", 1, _q_not_root("bmw", "power", charp=True)),
    ("bmw.not-root.r-generic", 1, _q_not_root("bmw", "generic")),
    ("bmw.pm-one.int-char0", 1, _q_pm_one("bmw", "int")),
    ("bmw.pm-one.int-charp", 1, _q_pm_one("bmw", "int", charp=True)),
    ("bmw.pm-one.nonint", 1, _q_pm_one("bmw", "nonint")),
)


# --- deep stratum ------------------------------------------------------------


def _deep_query(rng, L: int) -> dict:
    """A query whose bound and witness level are exactly L (L even, L >= 4).

    The forms follow the closed forms: m0(x) = x + 1 for x > 0, -x + 3 for
    odd x < 0, -x/2 + 1 for even x < 0; for BMW with r = -q^(N-1) and q not
    a root of unity, m = min(m1(N), m3(N)) with m3(N) = N/2 for even N > 0.
    """
    m0_args = (L - 1, 3 - L, 2 - 2 * L)
    form = rng.randrange(6)
    if form == 0:
        return _query("brauer", 0, delta={"kind": "int", "value": rng.choice(m0_args)})
    if form == 1:
        # a prime p >= 3L keeps both the cap p - 1 and m0(N - p) above L
        p = next(x for x in range(3 * L, 6 * L) if _is_prime(x))
        return _query("brauer", p, delta={"kind": "int", "value": L - 1 + p * rng.randint(-1, 1)})
    if form == 2:
        r = {"kind": "power", "eps": rng.choice((1, -1)), "N": rng.choice(m0_args)}
        return _query("qbrauer", 0, q={"kind": "not-root"}, r=r)
    if form == 3:
        r = {"kind": "power", "eps": 1, "N": rng.choice(m0_args)}
        return _query("bmw", 0, q={"kind": "not-root"}, r=r)
    if form == 4:
        # r = -q^(N-1): m1(L - 1) = L, m3 of an odd N is unbounded
        r = {"kind": "power", "eps": -1, "N": rng.choice((L - 1, 3 - L))}
        return _query("bmw", 0, q={"kind": "not-root"}, r=r)
    # r = -q^(N-1) with N = 2L: m3(2L) = L < m1(2L) = 2L + 1, a diagonal witness
    return _query("bmw", 0, q={"kind": "not-root"}, r={"kind": "power", "eps": -1, "N": 2 * L})


def decide_queries(seed: int) -> list[dict]:
    """One round of decide queries: the regular strata, then the deep
    stratum, in a seeded order.  Deep queries carry their `level`."""
    rng = random.Random(seed)
    out = []
    for name, count, make in REGULAR_STRATA:
        for _ in range(count):
            out.append({**make(rng), "stratum": name, "level": None})
    for L in DEEP_LEVELS:
        out.append({**_deep_query(rng, L), "stratum": "deep", "level": L})
    rng.shuffle(out)
    return out


def cli_args(q: dict) -> list[str]:
    """The `diagalg decide` arguments for one query."""
    args = ["decide", q["family"], "--char", str(q["char"])]
    if q["family"] == "brauer":
        return args + _delta_args(q["delta"]) + ["--format", "json"]
    qq, r = q["q"], q["r"]
    if qq["kind"] == "root":
        args += ["--e", str(qq["e"])]
        args += ["--qe-sign", "-1"] if qq["f"] == 2 * qq["e"] else ["--f", str(qq["f"])]
    elif qq["kind"] == "not-root":
        args.append("--not-root")
    else:
        args += ["--q-pm-one"] + _delta_args(qq["delta"])
    if r["kind"] == "power":
        args += ["--N", str(r["N"]), "--eps", str(r["eps"])]
    elif qq["kind"] != "pm-one":  # q = +-1 always takes r generic
        args.append("--r-generic")
    return args + ["--format", "json"]


def _delta_args(delta: dict) -> list[str]:
    if delta["kind"] == "int":
        return ["--delta", str(delta["value"])]
    return ["--delta-generic"] if delta["kind"] == "generic" else ["--delta-nonint"]


def gram_cases() -> list[dict]:
    """The whole three-way agreement sweep, then the two n = 5 operations.

    One operation is one delta in char 0, or every residue mod p.  The
    sweep covers every case, so there is nothing for a seed to choose; a
    fixed order also fixes which operation pays for the cold caches."""
    ops = [{"op": "sweep", "char": 0, "deltas": [d], "n_max": GRAM_N_MAX} for d in GRAM_CHAR0_DELTAS]
    ops += [{"op": "sweep", "char": p, "deltas": list(range(1, p)), "n_max": min(GRAM_N_MAX, p - 1)}
            for p in GRAM_PRIMES]
    return ops + [{"op": "structure", "n": GRAM_TOP["n"]}, {"op": "rank", **GRAM_TOP}]


def verify_ops() -> list[dict]:
    """The five suites at the acceptance tests' depths.  The suites fix
    their own inputs, so this workload does not use the seed."""
    return [{"suite": name, "max_n": depth, "checks": checks} for name, depth, checks in VERIFY_SUITES]
