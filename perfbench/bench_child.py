"""Child process of the benchmark: a fresh interpreter with cold caches.

  bench_child.py cli    TRACE_FILE CLI_ARGS...   traced `diagalg` CLI run
  bench_child.py verify TRACE_FILE|- OPS_JSON    verify suites, one result line each
  bench_child.py gram   TRACE_FILE|- OPS_JSON    gram-crossval operations

With a TRACE_FILE the tracer wraps the package before the first call and
writes its spans there at the end; `-` runs untraced.  The import of
`diagalg.cli` is timed first, before anything else is imported.
"""

import sys
import time

_start = time.perf_counter()
import diagalg.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

from diagalg import brauer, criteria, gram, weights  # noqa: E402
from diagalg.exactalg import PrimeFieldElement  # noqa: E402


def _verify(op: dict) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = diagalg.cli.main(["verify", "--suite", op["suite"], "--max-n", str(op["max_n"])])
    return {"exit": code, "output": buf.getvalue()}


def _gram(op: dict) -> dict:
    if op["op"] == "structure":
        return {"holds": gram.generic_structure_check(op["n"]), "dim": len(brauer.all_diagrams(op["n"]))}
    if op["op"] == "rank":
        matrix = gram.gram_matrix(op["n"], PrimeFieldElement(op["char"], op["delta"]), scaled=True)
        return {"rank": gram.rank(matrix), "dim": len(matrix), "m": _bound(op["char"], op["delta"])[0]}
    return {"cases": [_sweep_case(op["char"], d, op["n_max"]) for d in op["deltas"]]}


def _bound(char: int, delta: int):
    spec = weights.BrauerParams(char, weights.IntegerDelta(delta))
    verdict = criteria.decide_brauer(spec)
    return (verdict.m if isinstance(verdict.m, int) else None), verdict.witness is not None, spec


def _sweep_case(char: int, delta: int, n_max: int) -> dict:
    m, witness, spec = _bound(char, delta)
    hit = weights.vanishing_level(spec, n_max)
    return {
        "delta": delta,
        "gram": gram.first_degenerate_level(spec, n_max),
        "weights": None if hit is None else hit[0],
        "m": m,
        "witness": witness,
    }


def main(argv: list[str]) -> int:
    mode, trace_file, rest = argv[0], argv[1], argv[2:]
    tracer = None
    if trace_file != "-":
        from bench_trace import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if mode == "cli":
            return diagalg.cli.main(rest)
        run = {"verify": _verify, "gram": _gram}[mode]
        out = sys.stdout
        for op in json.loads(rest[0]):
            out.write(json.dumps(run(op)) + "\n")
            out.flush()
        return 0
    finally:
        if tracer is not None:
            tracer.dump(trace_file, IMPORT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
