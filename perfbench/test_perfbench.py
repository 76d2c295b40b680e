"""Tests of the benchmark itself, at a small size: the generator is
deterministic and admissible, and every checker rejects corrupted output."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import bench_checks
import bench_inputs
import bench_trace
import run
from diagalg import cli
from diagalg.weights import validate_params

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SEEDS = range(12)


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def _decide_output(q):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(bench_inputs.cli_args(q)) == 0
    return buf.getvalue()


def _brauer(delta, char=0):
    return {"family": "brauer", "char": char, "delta": {"kind": "int", "value": delta}, "stratum": "t", "level": None}


def test_generator_is_deterministic():
    assert bench_inputs.decide_queries(7) == bench_inputs.decide_queries(7)
    assert bench_inputs.decide_queries(7) != bench_inputs.decide_queries(8)


def test_every_seed_has_the_same_make_up():
    def make_up(seed):
        qs = bench_inputs.decide_queries(seed)
        return Counter(q["stratum"] for q in qs), sorted(q["level"] for q in qs if q["level"])

    first = make_up(0)
    assert first[1] == sorted(bench_inputs.DEEP_LEVELS)
    assert all(make_up(seed) == first for seed in SEEDS)


def test_generated_parameters_are_admissible():
    for seed in SEEDS:
        for q in bench_inputs.decide_queries(seed):
            validate_params(bench_checks.to_spec(q))


def test_decide_checker_accepts_real_verdicts():
    queries = [q for q in bench_inputs.decide_queries(3) if not q["level"]][:12]
    queries.append({**_brauer(-7), "level": 10})  # m0(-7) = 10: a witness past level 8
    for q in queries:
        assert bench_checks.check_decide(q, _decide_output(q)) == [], q


def test_decide_checker_rejects_corrupted_witnesses():
    q = _brauer(2)  # m = 3, witness (2, 1)
    good = json.loads(_decide_output(q))
    assert good["m"] == 3 and bench_checks.check_decide(q, json.dumps(good)) == []

    wrong_size = {**good, "witness": {"partition": [2, 2], "box": [2, 1]}}
    assert any("size" in p for p in bench_checks.check_decide(q, json.dumps(wrong_size)))
    nonzero = {**good, "witness": {"partition": [3], "box": [1, 1]}}
    assert any("does not vanish" in p for p in bench_checks.check_decide(q, json.dumps(nonzero)))
    outside = {**good, "witness": {"partition": [2, 1], "box": [2, 2]}}
    assert any("not in" in p for p in bench_checks.check_decide(q, json.dumps(outside)))
    no_witness = {**good, "witness": None}
    assert bench_checks.check_decide(q, json.dumps(no_witness)) != []
    assert bench_checks.check_decide({**q, "level": 4}, json.dumps(good)) != []
    assert bench_checks.check_decide(q, "not json") != []


def test_criterion4_closed_form_is_checked():
    q = {"family": "qbrauer", "char": 0, "q": {"kind": "root", "e": 7, "f": 7},
         "r": {"kind": "power", "eps": 1, "N": -3}, "stratum": "t", "level": None}
    assert bench_checks.criterion4_bound(q) == 5
    out = json.loads(_decide_output(q))
    assert bench_checks.check_decide(q, json.dumps(out)) == []
    assert any("criterion-4" in p for p in bench_checks.check_decide(q, json.dumps({**out, "m": 6})))


def test_gram_checker_rejects_disagreement():
    def sweep(char, n_max, **case):
        return bench_checks.check_gram({"op": "sweep", "char": char, "deltas": [case["delta"]], "n_max": n_max},
                                       {"cases": [case]})

    assert sweep(0, 4, delta=2, gram=3, weights=3, m=3, witness=True) == []
    assert sweep(0, 4, delta=2, gram=4, weights=3, m=3, witness=True) != []
    assert sweep(0, 4, delta=2, gram=3, weights=2, m=3, witness=True) != []
    assert sweep(0, 4, delta=5, gram=None, weights=None, m=6, witness=True) == []
    assert sweep(0, 4, delta=5, gram=4, weights=None, m=6, witness=True) != []
    assert sweep(3, 2, delta=2, gram=None, weights=None, m=2, witness=False) == []
    assert sweep(3, 2, delta=2, gram=2, weights=None, m=2, witness=False) != []
    missing = {"op": "sweep", "char": 5, "deltas": [1, 2], "n_max": 4}
    assert bench_checks.check_gram(missing, {"cases": []}) != []
    top = {"op": "rank", "n": 5, "char": 7, "delta": 2}
    assert bench_checks.check_gram(top, {"rank": 126, "dim": 945, "m": 3}) == []
    assert bench_checks.check_gram(top, {"rank": 945, "dim": 945, "m": 3}) != []
    assert bench_checks.check_gram({"op": "structure", "n": 5}, {"holds": False, "dim": 945}) != []


def test_verify_checker_rejects_fail_lines_and_exit_codes():
    op = {"suite": "counting", "max_n": 3, "checks": 4}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--suite", "counting", "--max-n", "3"])
    out = buf.getvalue()
    assert bench_checks.check_verify(op, code, out) == []
    assert bench_checks.check_verify(op, 1, out) != []
    assert bench_checks.check_verify(op, 0, out.replace("PASS", "FAIL", 1)) != []
    assert bench_checks.check_verify({**op, "checks": 5}, 0, out) != []


def test_traced_child_reports_every_layer_metric(tmp_path):
    path = tmp_path / "trace.json"
    ops = [{"op": "sweep", "char": 0, "deltas": [2], "n_max": 3}]
    proc = subprocess.run([sys.executable, str(HERE / "bench_child.py"), "gram", str(path), json.dumps(ops)],
                          capture_output=True, text=True, env=_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["cases"][0]["gram"] == 3
    dump = json.loads(path.read_text())
    for calls, total, self_s in dump["totals"].values():
        assert calls > 0 and -1e-9 <= self_s <= total + 1e-9
    metrics = bench_trace.layer_metrics(bench_trace.merge([dump]))
    assert metrics["gram.rank_calls"][0] > 0 and metrics["gram.max_dim"][0] == 15
    assert metrics["criteria.decide_calls"][0] == 1
    assert metrics["gram.exponents_s"][0] >= metrics["brauer.compose_s"][0] > 0


def test_operation_past_its_deadline_fails_and_the_round_goes_on():
    runner = run.GramCrossval(0, run.Budget(60), _env())
    runner.ops = [{"op": "structure", "n": 5}, {"op": "sweep", "char": 0, "deltas": [1], "n_max": 2}]
    runner.deadline = lambda op: 0.5 if op["op"] == "structure" else 30
    rnd = runner.run_round(traced=False)
    assert (rnd.attempted, rnd.failed, rnd.latencies, rnd.problems) == (2, 1, [], [])


def test_tail_is_a_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 90) == 90  # ten samples lie beyond it
    assert run.nearest_rank(values, 50) == 50
