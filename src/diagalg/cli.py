"""Command-line interface: decisions, weight tables, Gram diagnostics, checks.

Subcommands:
  decide   family + parameters -> semisimplicity bound with constituents
  weights  weight table, one row per shape at levels n, n-2, ...
  gram     Gram-matrix rank/corank at one level, or first degenerate level
  verify   run named self-check suites

Exit codes: 0 success, 1 verification failure, 2 parameter/usage error.
Unbounded values render as "infinity" in text, and as null plus an
"unbounded" flag in JSON.  All output is exact; stdout carries results and
stderr diagnostics.

Each CLI call is a fresh process, so module-level imports are start-up cost
on every query.  `decide` and `weights` load only criteria, weights,
exactalg and partitions; `gram` and `verify` import their modules (brauer,
gram, verify and what those pull in) inside their commands.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .criteria import UNBOUNDED, Verdict, decide
from .exactalg import PrimeFieldElement, RootSpec
from .partitions import partitions_of
from .weights import (
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
    weight_factor_descriptions,
)

FAMILIES = ("brauer", "qbrauer", "bmw")


# --- parameter assembly -----------------------------------------------------


def _add_param_flags(p: argparse.ArgumentParser, family: str) -> None:
    p.add_argument("--char", type=int, default=0, help="field characteristic (0 or a prime)")
    only = "" if family == "brauer" else " (only with --q-pm-one)"
    group = p.add_mutually_exclusive_group()
    group.add_argument("--delta", type=int, help="integer loop parameter" + only)
    group.add_argument("--delta-generic", action="store_true", help="transcendental delta" + only)
    group.add_argument("--delta-nonint", action="store_true", help="delta outside the prime field" + only)
    if family == "brauer":
        return
    qgroup = p.add_mutually_exclusive_group()
    qgroup.add_argument("--e", type=int, help="order of q^2 (q a root of unity)")
    qgroup.add_argument("--not-root", action="store_true", help="q is not a root of unity")
    qgroup.add_argument("--q-pm-one", action="store_true", help="q = +-1 (classical limit)")
    p.add_argument("--f", type=int, help="order of q (defaults per --qe-sign)")
    p.add_argument("--qe-sign", type=int, choices=(1, -1),
                   help="sign of q^e (default 1); -1 makes --f default to 2e")
    rgroup = p.add_mutually_exclusive_group()
    rgroup.add_argument("--N", type=int, help="exponent in r = eps * q^N (BMW: r = eps * q^(N-1))")
    rgroup.add_argument("--r-generic", action="store_true", help="r independent of q")
    p.add_argument("--eps", type=int, choices=(1, -1), help="sign eps in r (default 1; only with --N)")


def _delta_from_args(args) -> object:
    if getattr(args, "delta", None) is not None:
        return IntegerDelta(args.delta)
    if getattr(args, "delta_nonint", False):
        return NonIntegerDelta()
    return GenericDelta()


def _spec_from_args(family: str, args):
    if family == "brauer":
        return BrauerParams(args.char, _delta_from_args(args))
    if not args.q_pm_one and (args.delta is not None or args.delta_generic or args.delta_nonint):
        raise ParameterError("--delta, --delta-generic and --delta-nonint need --q-pm-one")
    for flag, given in (("--N", args.N is not None), ("--r-generic", args.r_generic)):
        if given and args.q_pm_one:
            raise ParameterError(f"{flag} has no effect with --q-pm-one: at q = +-1 only delta is a parameter")
    for flag, given in (("--f (the order of q)", args.f), ("--qe-sign (the sign of q^e)", args.qe_sign)):
        if given is not None and args.e is None:
            raise ParameterError(f"{flag} needs --e")
    if args.eps is not None and args.N is None:
        raise ParameterError("--eps (the sign in r) needs --N")
    if args.q_pm_one:
        q = PlusMinusOne(_delta_from_args(args))
    elif args.not_root:
        q = NotRootOfUnity()
    elif args.e is not None:
        implied = 2 * args.e if args.qe_sign == -1 else args.e
        if args.qe_sign is not None and args.f is not None and args.f != implied:
            raise ParameterError(f"--qe-sign {args.qe_sign} makes ord(q) = {implied}, not --f {args.f}")
        q = RootOfUnity(RootSpec(args.e, args.f if args.f is not None else implied))
    else:
        raise ParameterError("choose a q regime: --e, --not-root, or --q-pm-one")
    if args.r_generic or args.q_pm_one:
        r = GenericR()
    elif args.N is not None:
        r = SignedPower(1 if args.eps is None else args.eps, args.N)
    else:
        raise ParameterError("choose an r regime: --N (with --eps) or --r-generic")
    cls = QBrauerParams if family == "qbrauer" else BMWParams
    return cls(args.char, q, r)


def _params_summary(family: str, spec) -> dict:
    out: dict = {"characteristic": spec.characteristic}
    if family == "brauer":
        d = spec.delta
        out["delta"] = d.value if isinstance(d, IntegerDelta) else type(d).__name__
        return out
    q = spec.q
    if isinstance(q, RootOfUnity):
        out["e"], out["f"] = q.spec.e, q.spec.f
    elif isinstance(q, PlusMinusOne):
        d = q.delta
        out["q"] = "pm-one"
        out["delta"] = d.value if isinstance(d, IntegerDelta) else type(d).__name__
    else:
        out["q"] = "not-root"
    r = spec.r
    if isinstance(r, SignedPower):
        out["eps"], out["N"] = r.eps, r.N
    else:
        out["r"] = "generic"
    return out


# --- verdict rendering ------------------------------------------------------


def _bound_text(value) -> str:
    return "infinity" if value is UNBOUNDED else str(value)


def render_verdict_json(family: str, spec, verdict: Verdict) -> str:
    """Serializes a Verdict as JSON; an unbounded m or constituent is null."""
    data = {
        "family": family,
        "params": _params_summary(family, spec),
        "m": None if verdict.m is UNBOUNDED else verdict.m,
        "unbounded": verdict.m is UNBOUNDED,
        "constituents": [
            {"name": c.name, "value": None if c.value is UNBOUNDED else c.value}
            for c in verdict.constituents
        ],
        "witness": None
        if verdict.witness is None
        else {"partition": list(verdict.witness[0]), "box": list(verdict.witness[1])},
        "normalized": [[k, v] for k, v in verdict.normalized],
    }
    return json.dumps(data, indent=2)


def _render_verdict_text(verdict: Verdict) -> None:
    if verdict.m is UNBOUNDED:
        print("m = infinity (semisimple for all n)")
    else:
        print(f"m = {verdict.m} (semisimple exactly for n <= {verdict.m})")
    for c in verdict.constituents:
        print(f"  {c.name} = {_bound_text(c.value)}")
    for name, value in verdict.normalized:
        print(f"  normalized {name} = {value}")
    if verdict.witness is not None:
        la, box = verdict.witness
        print(f"  witness: partition {la} box {box}")


def cmd_decide(args) -> int:
    spec = _spec_from_args(args.family, args)
    verdict = decide(spec)
    if args.format == "json":
        print(render_verdict_json(args.family, spec, verdict))
    else:
        _render_verdict_text(verdict)
    return 0


# --- weights ----------------------------------------------------------------


def _value_text(value) -> str:
    if isinstance(value, PrimeFieldElement):
        return f"{value.value} (mod {value.p})"
    if isinstance(value, Fraction) and value.denominator == 1:
        return str(value.numerator)
    return str(value)


MAX_WEIGHT_LEVEL = 20  # about 1.5k shapes at levels 20, 18, ..., 0; under 2 s on a 2-vCPU VM


def _weight_rows(spec, n: int) -> list[dict]:
    rows = []
    for level in range(n, -1, -2):
        for la in partitions_of(level):
            wv = evaluate_weight(la, spec)
            symbolic = " * ".join(weight_factor_descriptions(la, spec)) or "1"
            if not wv.evaluable:
                status, value = "not-evaluable", ""
            elif wv.is_zero:
                status, value = "zero", "0"
            else:
                status = "nonzero"
                value = _value_text(wv.value) if wv.value is not None else ""
            rows.append(
                {
                    "level": level,
                    "partition": la,
                    "symbolic": symbolic,
                    "status": status,
                    "value": value,
                    "witness_box": wv.witness_box,
                }
            )
    return rows


def cmd_weights(args) -> int:
    if not 0 <= args.n <= MAX_WEIGHT_LEVEL:
        raise ParameterError(f"--n must be between 0 and {MAX_WEIGHT_LEVEL}, got {args.n}")
    spec = _spec_from_args(args.family, args)
    rows = _weight_rows(spec, args.n)
    if args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(["level", "partition", "symbolic", "status", "value", "witness_box"])
        for r in rows:
            writer.writerow(
                [
                    r["level"],
                    ",".join(map(str, r["partition"])),
                    r["symbolic"],
                    r["status"],
                    r["value"],
                    "" if r["witness_box"] is None else f"{r['witness_box'][0]},{r['witness_box'][1]}",
                ]
            )
        return 0
    if args.format == "json":  # tuples serialize as lists
        print(json.dumps(rows, indent=2))
        return 0
    for r in rows:
        la = r["partition"] or "()"
        line = f"level {r['level']}  {la}  {r['symbolic']}  [{r['status']}"
        if r["status"] == "nonzero" and r["value"]:
            line += f": {r['value']}"
        if r["status"] == "zero" and r["witness_box"] is not None:
            line += f" at box {r['witness_box']}"
        line += "]"
        print(line)
    return 0


# --- gram -------------------------------------------------------------------


def cmd_gram(args) -> int:
    from .brauer import all_diagrams
    from .gram import first_degenerate_level, level_rank

    spec = BrauerParams(args.char, IntegerDelta(args.delta))
    if args.n is None and args.n_max is None:
        raise ParameterError("gram needs --n (one level) or --n-max (scan)")
    if args.n_max is not None:
        level = first_degenerate_level(spec, args.n_max)
        if level is None:
            print(f"no degenerate level up to n = {args.n_max}")
        else:
            print(f"first degenerate level: n = {level}")
        return 0
    r = level_rank(spec, args.n)
    dim = len(all_diagrams(args.n))
    print(f"n = {args.n}: dimension {dim}, rank {r}, corank {dim - r}")
    return 0


# --- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    from .verify import run_all, run_suite

    if args.suite == "all":
        results = run_all(args.max_n)
    else:
        results = run_suite(args.suite, args.max_n)
    failures = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        detail = f"  {r.detail}" if r.detail else ""
        print(f"{mark}  [{r.suite}] {r.name}{detail}")
        failures += not r.passed
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


# --- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagalg",
        description="Exact semisimplicity criteria for Brauer, BMW, and q-Brauer algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser("decide", help="compute the semisimplicity bound")
    decide_sub = decide.add_subparsers(dest="family", required=True)
    for family in FAMILIES:
        p = decide_sub.add_parser(family)
        _add_param_flags(p, family)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=cmd_decide)

    weights = sub.add_parser("weights", help="weight table at levels n, n-2, ...")
    weights_sub = weights.add_subparsers(dest="family", required=True)
    for family in FAMILIES:
        p = weights_sub.add_parser(family)
        _add_param_flags(p, family)
        p.add_argument("--n", type=int, required=True,
                       help=f"top level of the table, 0 to {MAX_WEIGHT_LEVEL}")
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")
        p.set_defaults(func=cmd_weights)

    gram = sub.add_parser("gram", help="Gram matrix rank diagnostics (Brauer)")
    gram.add_argument("--char", type=int, default=0)
    gram.add_argument("--delta", type=int, required=True)
    mode = gram.add_mutually_exclusive_group()
    mode.add_argument("--n", type=int, help="level for a single rank computation")
    mode.add_argument("--n-max", type=int, help="scan for the first degenerate level")
    gram.set_defaults(func=cmd_gram)

    verify = sub.add_parser("verify", help="run self-check suites")
    # The names live in verify.SUITES alone; run_suite rejects any other name
    # with a list of them (exit 2), so argparse does not import verify here.
    verify.add_argument("--suite", default="all",
                        help="a suite name or all (default); the names are listed in the README"
                             " under 'Verification suites' and in the error an unknown name gives")
    verify.add_argument("--max-n", type=int, default=None)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
