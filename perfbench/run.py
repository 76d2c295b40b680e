"""The diagalg benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload decide-cli|verify-deep|gram-crossval|all \
        --seed N --seconds 15 --trace 0|1

Run it from the root of a source tree; it runs the package from `src/` in
fresh child processes, so every operation starts from cold caches.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced round with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import bench_inputs
import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
TRACE_DIR = ROOT / ".perfbench_trace"
PY = sys.executable

BUDGET_S = 150.0  # past this, operations fail at once, so a run ends well within 180 s
SETUP_REPEATS = 15
DECIDE_DEADLINE_S = 30.0
SUITE_DEADLINE_S = 90.0
SWEEP_DEADLINE_S = 30.0
TOP_DEADLINE_S = 90.0
TAIL_PERCENTILE = 90
TAIL_MIN_SAMPLES = 100  # so that p90 has at least ten samples beyond it


class Budget:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


@dataclass
class Round:
    """One pass over a workload's fixed batch."""

    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)  # seconds, one per request that did not fail
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    dumps: list[dict] = field(default_factory=list)  # tracer output of each process


class Runner:
    """Runs rounds of one workload; subclasses define the batch and checks."""

    min_rounds = 1

    def __init__(self, seed: int, budget: Budget, env: dict):
        self.seed, self.budget, self.env = seed, budget, env
        self._trace_files = 0

    def trace_file(self) -> str:
        self._trace_files += 1
        return str(TRACE_DIR / f"child-{os.getpid()}-{self._trace_files}.json")

    def collect(self, rnd: Round, path: str) -> None:
        """Moves one child's tracer output into the round."""
        try:
            with open(path) as fh:
                rnd.dumps.append(json.load(fh))
            os.remove(path)
        except FileNotFoundError:
            pass  # the child was killed before it could write


class DecideCli(Runner):
    """Closed loop, one client: each query is a fresh `diagalg decide` process."""

    def __init__(self, seed, budget, env):
        super().__init__(seed, budget, env)
        from bench_checks import check_decide

        self.check = check_decide
        self.checked: dict[tuple[str, str], list[str]] = {}
        self.queries = bench_inputs.decide_queries(seed)
        self.min_rounds = math.ceil(TAIL_MIN_SAMPLES / len(self.queries))

    def run_round(self, traced: bool) -> Round:
        rnd = Round()
        outputs = []
        start = time.perf_counter()
        for q in self.queries:
            rnd.attempted += 1
            args = bench_inputs.cli_args(q)
            timeout = min(DECIDE_DEADLINE_S, self.budget.left())
            if timeout <= 0:
                rnd.failed += 1
                continue
            path = self.trace_file() if traced else None
            head = [PY, str(HERE / "bench_child.py"), "cli", path] if traced else [PY, "-m", "diagalg.cli"]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(head + args, capture_output=True, text=True, env=self.env, timeout=timeout)
            except subprocess.TimeoutExpired:
                proc = None
            elapsed = time.perf_counter() - t0
            if traced:
                self.collect(rnd, path)
            if proc is None or proc.returncode != 0:
                rnd.failed += 1
                _log(f"{'deadline' if proc is None else proc.stderr.strip()}: {' '.join(args)}")
                continue
            rnd.latencies.append(elapsed)
            outputs.append((q, proc.stdout))
        rnd.wall = time.perf_counter() - start
        for q, out in outputs:
            key = (json.dumps(q, sort_keys=True), out)
            if key not in self.checked:  # later rounds repeat the same outputs
                self.checked[key] = [f"{' '.join(bench_inputs.cli_args(q))}: {p}" for p in self.check(q, out)]
            rnd.problems += self.checked[key]
        return rnd


class StreamedOps(Runner):
    """A batch run in one child process that reports each operation on a
    line of its own; an operation past its deadline is failed, the child is
    killed, and the rest of the batch goes on in a new child.

    The whole round is one request: its latency sample is the round's wall
    time, and only a round in which no operation failed gives one.  The few
    operations inside a round are too unlike, and too short against the
    drift of a shared machine, to give steady percentiles of their own."""

    mode = ""

    def deadline(self, op: dict) -> float:
        raise NotImplementedError

    def check(self, op: dict, result: dict) -> list[str]:
        raise NotImplementedError

    def run_round(self, traced: bool) -> Round:
        rnd = Round()
        ops = self.ops
        results: list[dict | None] = [None] * len(ops)
        pending = list(range(len(ops)))
        rnd.attempted = len(ops)
        start = time.perf_counter()
        while pending and self.budget.left() > 0:
            path = self.trace_file() if traced else "-"
            argv = [PY, str(HERE / "bench_child.py"), self.mode, path, json.dumps([ops[i] for i in pending])]
            done = self._stream(argv, pending, results)
            pending = pending[done:]
            if traced:
                self.collect(rnd, path)
        rnd.wall = time.perf_counter() - start
        for op, result in zip(ops, results):
            if result is None:
                rnd.failed += 1
            else:
                rnd.problems += self.check(op, result)
        if not rnd.failed:
            rnd.latencies.append(rnd.wall)
        return rnd

    def _stream(self, argv, pending, results) -> int:
        """Reads results for `pending` until one misses its deadline or the
        child exits; returns how many operations were settled."""
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=self.env)
        lines: queue.Queue = queue.Queue()
        reader = threading.Thread(target=_pump, args=(proc.stdout, lines))
        reader.start()
        done = 0
        settled = False
        try:
            for i in pending:
                done += 1
                timeout = min(self.deadline(self.ops[i]), self.budget.left())
                try:
                    line = lines.get(timeout=timeout) if timeout > 0 else None
                except queue.Empty:
                    line = None
                if line is None:
                    _log(f"{self.mode}: operation {self.ops[i]} missed its deadline or its process died")
                    break
                results[i] = json.loads(line)
            else:
                settled = True
        finally:
            if not settled:
                proc.kill()
            try:
                proc.wait(timeout=max(1.0, self.budget.left()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            reader.join()
            proc.stdout.close()
        return done


def _pump(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


class VerifyDeep(StreamedOps):
    """The five verify suites at the acceptance tests' depths, in one process."""

    mode = "verify"

    def __init__(self, seed, budget, env):
        super().__init__(seed, budget, env)
        self.ops = bench_inputs.verify_ops()

    def deadline(self, op):
        return SUITE_DEADLINE_S

    def check(self, op, result):
        from bench_checks import check_verify

        return check_verify(op, result["exit"], result["output"])


class GramCrossval(StreamedOps):
    """Gram level, weights level and decide_brauer agree for Br_n(delta)."""

    mode = "gram"

    def __init__(self, seed, budget, env):
        super().__init__(seed, budget, env)
        self.ops = bench_inputs.gram_cases()

    def deadline(self, op):
        return SWEEP_DEADLINE_S if op["op"] == "sweep" else TOP_DEADLINE_S

    def check(self, op, result):
        from bench_checks import check_gram

        return check_gram(op, result)


WORKLOADS = {"decide-cli": DecideCli, "verify-deep": VerifyDeep, "gram-crossval": GramCrossval}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_seconds(env: dict) -> float:
    """Time for a fresh interpreter to import the package."""
    code = "import time; t = time.perf_counter(); import diagalg.cli; print(time.perf_counter() - t)"
    out = subprocess.run([PY, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60)
    return float(out.stdout)


def nearest_rank(values: list[float], percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def end_to_end(runner: Runner, rounds: list[Round], setup: list[float]) -> dict:
    wall = statistics.median(r.wall for r in rounds)
    lat = [x for r in rounds for x in r.latencies] or [wall]  # [wall] only if every request failed
    # with too few samples for a percentile that has ten beyond it, the slowest one
    tail = nearest_rank(lat, TAIL_PERCENTILE) if len(lat) >= TAIL_MIN_SAMPLES else max(lat)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(rounds: list[Round], traced: list[Round], workload: str) -> dict:
    merged = [bench_trace.merge(r.dumps) for r in traced]
    per_round = [bench_trace.layer_metrics(m) for m in merged]
    out = {name: (statistics.median(m[name][0] for m in per_round), unit)
           for name, (_, unit) in per_round[0].items()}
    overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in rounds)
    out["trace.overhead_s"] = (overhead, "s")
    with open(TRACE_DIR / f"{workload}.json", "w") as fh:
        json.dump({"rounds": merged, "metrics": out}, fh)
    return out


def run_all(args) -> int:
    """Runs every workload in a process of its own, so that each reports its
    own peak memory, and sums the results into one last line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [PY, __file__, "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "diagalg" / "__init__.py").is_file():
        _log(f"no diagalg sources under {src}; run from the root of a diagalg source tree")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    budget = Budget(BUDGET_S)
    runner = WORKLOADS[args.workload](args.seed, budget, env)
    import_seconds(env)  # writes the bytecode caches, so no timed import compiles
    setup = [] if args.trace else [import_seconds(env) for _ in range(SETUP_REPEATS)]
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)

    rounds: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    while True:
        rounds.append(runner.run_round(traced=False))
        if args.trace:
            traced.append(runner.run_round(traced=True))
        enough = args.trace or len(rounds) >= runner.min_rounds
        if (enough and time.perf_counter() - start >= args.seconds) or budget.left() <= 0:
            break

    every = rounds + traced
    problems = [p for r in every for p in r.problems]
    for p in problems[:20]:
        _log(f"check failed: {p}")
    metrics = per_layer(rounds, traced, args.workload) if args.trace else end_to_end(runner, rounds, setup)
    samples = sum(len(r.latencies) for r in rounds)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:30s} {value:14.6g} {unit}")
    print(f"{args.workload:14s} rounds {len(rounds)}, latency samples {samples}, problems {len(problems)}")
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
