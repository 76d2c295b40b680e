"""Checks of the program's outputs, made apart from the code that produced them.

Each check returns a list of problems; an empty list means the output is
correct.  Decide verdicts are checked by evaluating the witness weight in
`diagalg.weights` (not in `diagalg.criteria`, which produced it) and against
the closed forms of acceptance criterion 4 written out here.  Gram results
are checked by three-way agreement, and verify runs by their own PASS lines.
"""

from __future__ import annotations

import json

from diagalg.exactalg import RootSpec
from diagalg.weights import (
    BMWParams,
    BrauerParams,
    GenericDelta,
    GenericR,
    IntegerDelta,
    NonIntegerDelta,
    NotRootOfUnity,
    PlusMinusOne,
    QBrauerParams,
    RootOfUnity,
    SignedPower,
    evaluate_weight,
    vanishing_level,
)

SHALLOW = 8  # vanishing_level is run up to this level


def _delta(d: dict):
    if d["kind"] == "int":
        return IntegerDelta(d["value"])
    return GenericDelta() if d["kind"] == "generic" else NonIntegerDelta()


def to_spec(q: dict):
    """The parameter object for a generated query."""
    if q["family"] == "brauer":
        return BrauerParams(q["char"], _delta(q["delta"]))
    qq, r = q["q"], q["r"]
    if qq["kind"] == "root":
        qp = RootOfUnity(RootSpec(qq["e"], qq["f"]))
    elif qq["kind"] == "not-root":
        qp = NotRootOfUnity()
    else:
        qp = PlusMinusOne(_delta(qq["delta"]))
    rp = SignedPower(r["eps"], r["N"]) if r["kind"] == "power" else GenericR()
    cls = QBrauerParams if q["family"] == "qbrauer" else BMWParams
    return cls(q["char"], qp, rp)


def cap(q: dict) -> int | None:
    """n_1: p - 1 for the Brauer regime in characteristic p, e - 1 at a root
    of unity, no cap otherwise."""
    if q["family"] == "brauer" or q["q"]["kind"] == "pm-one":
        return q["char"] - 1 if q["char"] else None
    return q["q"]["e"] - 1 if q["q"]["kind"] == "root" else None


def criterion4_bound(q: dict) -> int | None:
    """The bound from the closed forms of acceptance criterion 4, where they
    apply (characteristic 0, q a root of unity, r a signed power of q)."""
    if q["family"] == "brauer" or q["char"] or q["q"]["kind"] != "root" or q["r"]["kind"] != "power":
        return None
    e, f, N, eps = q["q"]["e"], q["q"]["f"], q["r"]["N"], q["r"]["eps"]
    if q["family"] == "qbrauer":
        N0 = N % e - e  # in (-e, 0); e | N is not admissible
        if f == e and e % 2 and N0 % 2:
            return min(e - 1, (e - N0) // 2 + 1, -N0 + 3, N0 + e + 1)
        if f == 2 * e and e % 2 == 0 and N0 % 2:
            return min(e - 1, -N0 + 3, N0 + e + 1)
        return None
    if f != 2 * e or e % 2 == 0:
        return None
    N0 = N % e - e if N % e else 0  # in (-e, 0]
    eps0 = eps if (N - N0) // e % 2 == 0 else -eps  # q^e = -1
    if eps0 == -1 and N0 % 2 == 0:
        return min(e - 1, N0 + e + 1, -N0 + 3, N0 // 2 + e)
    return None


def check_decide(q: dict, stdout: str) -> list[str]:
    """Checks one `diagalg decide --format json` output for query q."""
    try:
        data = json.loads(stdout)
        m, unbounded, witness = data["m"], data["unbounded"], data["witness"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verdict: {exc!r}"]
    problems = []
    if unbounded != (m is None):
        problems.append(f"m = {m} disagrees with unbounded = {unbounded}")
    if q["level"] is not None and m != q["level"]:
        problems.append(f"deep query built for level {q['level']}, got m = {m}")
    c4 = criterion4_bound(q)
    if c4 is not None and m != c4:
        problems.append(f"criterion-4 closed form gives {c4}, got m = {m}")
    spec = to_spec(q)
    n1 = cap(q)
    if witness is not None:
        problems += _check_witness(spec, m, witness)
        return problems
    if m is not None and m != n1:
        problems.append(f"bound m = {m} has no witness but is not the cap n1 = {n1}")
        return problems
    top = SHALLOW if n1 is None else min(SHALLOW, n1)
    if top >= 2:
        hit = vanishing_level(spec, top)
        if hit is not None:
            problems.append(f"no witness, yet the weight of {hit[1]} vanishes at level {hit[0]}")
    return problems


def _check_witness(spec, m, witness) -> list[str]:
    try:
        la = tuple(witness["partition"])
        i, j = witness["box"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable witness: {exc!r}"]
    if m is None:
        return ["a witness for an unbounded verdict"]
    if any(a < b for a, b in zip(la, la[1:])) or (la and la[-1] < 1):
        return [f"witness {la} is not a partition"]
    problems = []
    if sum(la) != m:
        problems.append(f"witness {la} has size {sum(la)}, not m = {m}")
    if not (1 <= i <= len(la) and 1 <= j <= la[i - 1]):
        problems.append(f"box {(i, j)} is not in {la}")
    w = evaluate_weight(la, spec)
    if not (w.evaluable and w.is_zero):
        problems.append(f"the weight of {la} does not vanish (evaluable {w.evaluable}, zero {w.is_zero})")
    if m <= SHALLOW:
        hit = vanishing_level(spec, m)
        if hit is None or hit[0] != m:
            problems.append(f"vanishing_level up to {m} gives {hit and hit[0]}, not m = {m}")
    return problems


def _double_factorial_odd(n: int) -> int:
    """(2n - 1)!!, the number of Brauer diagrams on 2n points."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


def check_gram(case: dict, result: dict) -> list[str]:
    """Checks one gram-crossval operation."""
    if case["op"] == "structure":
        dim = _double_factorial_odd(case["n"])
        if result["dim"] != dim or result["holds"] is not True:
            return [f"n = {case['n']}: structure check {result['holds']} on {result['dim']} diagrams, want True on {dim}"]
        return []
    if case["op"] == "rank":
        dim = _double_factorial_odd(case["n"])
        m = result["m"]
        semisimple = m is None or case["n"] <= m
        if result["dim"] != dim or (result["rank"] == dim) != semisimple:
            return [f"n = {case['n']}, m = {m}: rank {result['rank']} of {result['dim']}"]
        return []
    if [c["delta"] for c in result["cases"]] != case["deltas"]:
        return [f"char {case['char']}: results for {[c['delta'] for c in result['cases']]}, asked {case['deltas']}"]
    return [p for c in result["cases"] for p in _check_sweep_case(case["char"], case["n_max"], c)]


def _check_sweep_case(char: int, n_max: int, c: dict) -> list[str]:
    g, v, m = c["gram"], c["weights"], c["m"]
    if c["witness"] and m is not None and m <= n_max:
        if not g == v == m:
            return [f"char {char}, delta {c['delta']}: Gram level {g}, weights level {v}, m = {m}"]
        return []
    # m lies past n_max, or is the cap n1 = p - 1 alone: nothing degenerates up to n_max
    if g is not None or v is not None:
        return [f"char {char}, delta {c['delta']}: m = {m} past n_max = {n_max}, "
                f"yet Gram level {g}, weights level {v}"]
    return []


def check_verify(op: dict, exit_code: int, output: str) -> list[str]:
    """Checks one `diagalg verify --suite` run: exit 0, every check PASS,
    and as many checks as the suite defines."""
    lines = output.splitlines()
    passed = [line for line in lines if line.startswith("PASS")]
    failed = [line for line in lines if line.startswith("FAIL")]
    n = op["checks"]
    problems = []
    if exit_code != 0:
        problems.append(f"{op['suite']}: exit code {exit_code}")
    if failed:
        problems.append(f"{op['suite']}: {failed[0]}")
    if len(passed) != n or not lines or lines[-1].strip() != f"{n}/{n} checks passed":
        problems.append(f"{op['suite']}: {len(passed)} PASS lines, want {n}")
    return problems
