"""Tests for the command-line interface: output formats and exit codes."""

import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagalg.cli import main, render_verdict_json
from diagalg.criteria import UNBOUNDED, decide
from diagalg.exactalg import RootSpec
from diagalg.verify import SUITES
from diagalg.weights import (
    BMWParams,
    BrauerParams,
    GenericDelta,
    GenericR,
    IntegerDelta,
    NotRootOfUnity,
    QBrauerParams,
    RootOfUnity,
    SignedPower,
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_brauer_text(capsys):
    code, out, _ = run(["decide", "brauer", "--char", "0", "--delta", "2"], capsys)
    assert code == 0
    assert "m = 3" in out
    assert "m0(2) = 3" in out
    assert "witness: partition (2, 1) box (2, 1)" in out


def test_decide_unbounded_text(capsys):
    code, out, _ = run(["decide", "qbrauer", "--not-root", "--r-generic"], capsys)
    assert code == 0
    assert "infinity" in out and "semisimple for all n" in out


def test_decide_bmw_json(capsys):
    argv = ["decide", "bmw", "--e", "5", "--f", "10", "--eps", "-1", "--N", "-2", "--format", "json"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "bmw" and data["m"] == 4 and not data["unbounded"]
    assert data["params"] == {"characteristic": 0, "e": 5, "f": 10, "eps": -1, "N": -2}
    names = [c["name"] for c in data["constituents"]]
    assert names[0] == "n1"
    assert data["witness"] == {"partition": [2, 2], "box": [2, 1]}
    assert ["eps", -1] in data["normalized"] and ["N", -2] in data["normalized"]


def test_decide_bmw_not_root_at_N_zero(capsys):
    argv = ["decide", "bmw", "--not-root", "--eps", "-1", "--N", "0", "--format", "json"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 3 and data["witness"] == {"partition": [3], "box": [1, 2]}


def test_decide_deep_witnesses_are_built_not_searched():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for argv, m, partition in (
        (["--delta", "-1000"], 501, [501]),
        (["--char", "1009", "--delta", "504"], 505, [2] * 252 + [1]),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "diagalg.cli", "decide", "brauer", *argv, "--format", "json"],
            capture_output=True, text=True, env=env, timeout=5,
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["m"] == m and data["witness"]["partition"] == partition


def test_decide_exits_two_past_the_characteristic_and_witness_budgets():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for argv, reason in (
        (["--char", "1000000000000000003", "--delta", "2"], "below 2^31"),
        (["--delta", "10000000", "--format", "json"], "witness budget"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "diagalg.cli", "decide", "brauer", *argv],
            capture_output=True, text=True, env=env, timeout=5,
        )
        assert proc.returncode == 2 and proc.stdout == "" and reason in proc.stderr


_LOADED_BY_DECIDE_AND_WEIGHTS = """
import contextlib, io, json, sys
from diagalg import cli
queries = [
    ["decide", "brauer", "--delta", "2"],
    ["decide", "qbrauer", "--e", "7", "--N", "-3"],
    ["decide", "bmw", "--e", "5", "--f", "10", "--eps", "-1", "--N", "-2"],
]
queries += [[*q, "--format", "json"] for q in queries]
queries += [["weights", "brauer", "--delta", "2", "--n", "3", "--format", f] for f in ("text", "csv", "json")]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(q) for q in queries]
print(json.dumps({
    "codes": codes,
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "diagalg"),
    "stdlib": [m for m in ("dataclasses", "inspect") if m in sys.modules],
}))
"""


def test_decide_and_weights_load_only_the_decision_chain():
    # Each CLI call is a fresh process, so every module these commands import
    # is paid on every query; gram and verify load their modules lazily.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_DECIDE_AND_WEIGHTS],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["codes"] == [0] * 9
    assert set(data["modules"]) == {
        "diagalg", "diagalg.cli", "diagalg.criteria", "diagalg.weights", "diagalg.exactalg",
        "diagalg.partitions",
    }
    # the records of the decision chain are slotted `exactalg.Record`s: the
    # import of dataclasses (with inspect) and its per-class code generation
    # cost more than the whole rest of `import diagalg.cli`
    assert data["stdlib"] == []
    for argv, last_line in (
        (["gram", "--delta", "2", "--n", "3"], "n = 3: dimension 15, rank 10, corank 5"),
        (["verify", "--suite", "counting", "--max-n", "3"], "4/4 checks passed"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "diagalg.cli", *argv],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == last_line
    # every record of the package, Brauer diagrams and check results too, is
    # an `exactalg.Record`, so even the heaviest command loads neither module
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, diagalg.verify; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_decide_json_unbounded_flag(capsys):
    argv = ["decide", "brauer", "--delta-generic", "--format", "json"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["m"] is None and data["unbounded"] is True


def test_json_round_trip_for_all_families():
    cases = (
        ("brauer", BrauerParams(0, IntegerDelta(2))),
        ("brauer", BrauerParams(0, GenericDelta())),
        ("brauer", BrauerParams(5, IntegerDelta(2))),
        ("qbrauer", QBrauerParams(0, RootOfUnity(RootSpec(7, 7)), SignedPower(1, -3))),
        ("qbrauer", QBrauerParams(0, NotRootOfUnity(), GenericR())),
        ("bmw", BMWParams(0, RootOfUnity(RootSpec(5, 10)), SignedPower(-1, -2))),
        ("bmw", BMWParams(0, NotRootOfUnity(), SignedPower(-1, 4))),
    )
    for family, spec in cases:
        verdict = decide(spec)
        data = json.loads(render_verdict_json(family, spec, verdict))
        assert data["family"] == family
        assert data["unbounded"] == (verdict.m is UNBOUNDED)
        assert data["m"] == (None if verdict.m is UNBOUNDED else verdict.m)
        assert [(c["name"], UNBOUNDED if c["value"] is None else c["value"]) for c in data["constituents"]] == [
            (c.name, c.value) for c in verdict.constituents
        ]
        w = data["witness"]
        assert (None if w is None else (tuple(w["partition"]), tuple(w["box"]))) == verdict.witness
        assert [tuple(kv) for kv in data["normalized"]] == list(verdict.normalized)


def test_qe_sign_defaults_f_to_twice_e(capsys):
    code, out, _ = run(
        ["decide", "qbrauer", "--e", "6", "--qe-sign", "-1", "--N", "-3", "--format", "json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["params"]["e"] == 6 and data["params"]["f"] == 12
    assert data["m"] == 4


def test_decide_invalid_parameters_exit_two(capsys):
    code, _, err = run(["decide", "brauer", "--delta", "0"], capsys)
    assert code == 2 and "delta" in err
    code, _, err = run(["decide", "bmw", "--not-root", "--N", "0"], capsys)
    assert code == 2
    code, _, err = run(["decide", "qbrauer", "--e", "7", "--N", "14"], capsys)
    assert code == 2
    code, _, err = run(["decide", "bmw", "--e", "4", "--f", "4", "--N", "1"], capsys)
    assert code == 2
    # flags that the chosen q regime would ignore
    code, out, err = run(["decide", "qbrauer", "--q-pm-one", "--delta", "3", "--N", "2"], capsys)
    assert code == 2 and out == "" and "--N" in err
    code, out, err = run(["decide", "qbrauer", "--not-root", "--N", "2", "--delta", "5"], capsys)
    assert code == 2 and out == "" and "need --q-pm-one" in err
    code, out, err = run(["weights", "bmw", "--e", "5", "--N", "2", "--delta-generic", "--n", "2"], capsys)
    assert code == 2 and out == "" and "need --q-pm-one" in err
    code, out, err = run(["decide", "qbrauer", "--not-root", "--f", "6", "--N", "2"], capsys)
    assert code == 2 and out == "" and "--f" in err and "--e" in err
    # q^5 = -1 forces ord(q) = 10, which contradicts --f 5
    code, out, err = run(["decide", "qbrauer", "--e", "5", "--f", "5", "--qe-sign", "-1", "--N", "2"], capsys)
    assert code == 2 and out == "" and "--qe-sign" in err and "--f" in err
    code, out, err = run(["decide", "qbrauer", "--not-root", "--qe-sign", "-1", "--N", "2"], capsys)
    assert code == 2 and out == "" and "--qe-sign" in err and "--e" in err
    code, out, err = run(["weights", "bmw", "--q-pm-one", "--delta", "2", "--qe-sign", "1", "--n", "2"], capsys)
    assert code == 2 and out == "" and "--qe-sign" in err and "--e" in err
    code, out, err = run(["decide", "bmw", "--e", "5", "--r-generic", "--eps", "-1"], capsys)
    assert code == 2 and out == "" and "--eps" in err and "--N" in err
    # at most one delta flag in every family, and q = +-1 takes no r
    for argv in (["qbrauer", "--q-pm-one", "--delta", "2", "--delta-generic"],
                 ["bmw", "--q-pm-one", "--delta-generic", "--delta-nonint"]):
        with pytest.raises(SystemExit) as exc:
            main(["decide", *argv])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and "not allowed with argument --delta" in err
    code, out, err = run(["decide", "qbrauer", "--q-pm-one", "--r-generic", "--delta", "2"], capsys)
    assert code == 2 and out == "" and "--r-generic has no effect" in err


def test_weights_text_table(capsys):
    code, out, _ = run(["weights", "brauer", "--n", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "(delta+2)/2" in lines[0] and "(delta-1)/1" in lines[0]
    code, out, _ = run(["weights", "brauer", "--n", "1"], capsys)
    assert code == 0
    assert out.strip().count("\n") == 0 and "(delta)/1" in out


def _symbolic_column(argv, capsys):
    code, out, _ = run(["weights", *argv, "--format", "json"], capsys)
    assert code == 0
    return {tuple(r["partition"]): r["symbolic"] for r in json.loads(out)}


def test_weights_symbolic_strings_are_pinned(capsys):
    # BMW with numeric N: the diagonal box (1,1) comes first, then the
    # off-diagonal boxes in row-major order
    col = _symbolic_column(["bmw", "--e", "5", "--N", "-2", "--eps", "-1", "--n", "3"], capsys)
    assert col[(3,)] == "(1-eps*q^(-2))(1+eps*q^(-4))/(1-q^(-6)) * eps*[-2]/[2] * eps*[-3]/[1]"
    assert col[(2, 1)] == "(1-eps*q^(0))(1+eps*q^(-6))/(1-q^(-6)) * eps*[-2]/[1] * eps*[-4]/[1]"
    assert col[(1,)] == "(1-eps*q^(2))(1+eps*q^(-4))/(1-q^(-2))"
    col = _symbolic_column(["bmw", "--not-root", "--N", "3", "--n", "2"], capsys)
    assert col[(1, 1)] == "(1-eps*q^(-3))(1+eps*q^(-1))/(1-q^(-4)) * eps*[2]/[1]"
    # BMW with generic r keeps N symbolic, also where its shift is 0
    for q_flags in (["--e", "3"], ["--not-root"]):
        col = _symbolic_column(["bmw", *q_flags, "--r-generic", "--n", "3"], capsys)
        assert col[(3,)] == "(1-eps*q^(-(N+4)))(1+eps*q^(N-2))/(1-q^(-6)) * eps*[N]/[2] * eps*[N-1]/[1]"
        assert col[(1, 1, 1)] == "(1-eps*q^(-(N)))(1+eps*q^(N-6))/(1-q^(-6)) * eps*[N-2]/[2] * eps*[N-1]/[1]"
    # q-Brauer with symbolic and with numeric N
    col = _symbolic_column(["qbrauer", "--e", "5", "--r-generic", "--n", "3"], capsys)
    assert col[(2, 1)] == "[N+2]/[3] * [N]/[1] * [N-2]/[1]"
    assert col[(1,)] == "[N]/[1]"
    col = _symbolic_column(["qbrauer", "--not-root", "--N", "-2", "--eps", "-1", "--n", "3"], capsys)
    assert col[(2, 1)] == "[0]/[3] * [-2]/[1] * [-4]/[1]"
    # q = +-1 falls back to the Brauer strings, with delta symbolic
    brauer = _symbolic_column(["brauer", "--delta", "3", "--n", "4"], capsys)
    assert brauer[(3, 1)] == "(delta+4)/4 * (delta+1)/2 * (delta-1)/1 * (delta-2)/1"
    assert brauer[()] == "1"
    for argv in (["qbrauer", "--q-pm-one", "--delta", "2"], ["bmw", "--q-pm-one", "--delta-generic"]):
        assert _symbolic_column([*argv, "--n", "4"], capsys) == brauer


def test_weights_flags_zero_with_witness(capsys):
    code, out, _ = run(["weights", "brauer", "--delta", "2", "--n", "3"], capsys)
    assert code == 0
    assert "zero at box (2, 1)" in out


def test_weights_csv(capsys):
    code, out, _ = run(
        ["weights", "qbrauer", "--not-root", "--N", "3", "--n", "2", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["level", "partition", "symbolic", "status", "value", "witness_box"]
    assert len(rows) == 4  # header + (2,), (1,1), ()
    assert rows[1][0] == "2"


def test_weights_json(capsys):
    code, out, _ = run(
        ["weights", "brauer", "--delta", "2", "--n", "2", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert [r["partition"] for r in data] == [[2], [1, 1], []]
    assert [r["value"] for r in data] == ["2", "1", "1"]


# Edge values of the integer flags: around the witness budget 10^5, the
# largest e tabulated elsewhere (10^7), the characteristic limit 2^31, the
# screen prime P = 67108859, and far past every budget.
_EDGE_INTS = st.sampled_from(
    (0, 1, -1, 10**5 - 1, 10**5 + 1, 10**7, -(10**7), 2**31 - 1, 2**31, 67108859, -67108859, 10**30)
) | st.integers(-12, 12)


def _flag(name, values=None):
    """The flag `name` with one drawn value, or alone where it takes none."""
    return st.just([name]) if values is None else values.map(lambda v: [name, str(v)])


@st.composite
def _decide_weights_or_gram_argv(draw):
    """An argument vector of `decide` or `weights` over every flag of the
    family: mostly one flag of each exclusive group, now and then none or
    two (for q-Brauer and BMW, the delta flags mostly none, since they need
    --q-pm-one); each other flag present or not, and `--n` mostly present.
    Or one of `gram`: --delta mostly present, --char present or not, and
    mostly one of --n and --n-max, now and then none or both, at levels up
    to 4 and past MAX_LEVEL (a level-5 rank can take seconds; fixed tests
    cover it)."""
    command = draw(st.sampled_from(("decide", "weights", "gram")))
    chars = st.sampled_from((0, 2, 3, 5, 7)) | _EDGE_INTS
    if command == "gram":
        argv = ["gram"]
        if draw(st.integers(0, 9)):
            argv += draw(_flag("--delta", _EDGE_INTS))
        if draw(st.booleans()):
            argv += draw(_flag("--char", chars))
        levels = st.sampled_from((-1, 0, 1, 2, 3, 4, 6))
        modes = ((), ("--n",), ("--n",), ("--n-max",), ("--n-max",), ("--n", "--n-max"))
        for name in draw(st.sampled_from(modes)):
            argv += draw(_flag(name, levels))
        return argv
    family = draw(st.sampled_from(("brauer", "qbrauer", "bmw")))
    one = (0, 1, 1, 1, 1, 1, 1, 2)
    deltas = [_flag("--delta", _EDGE_INTS), _flag("--delta-generic"), _flag("--delta-nonint")]
    groups = [(deltas, one if family == "brauer" else (0, 0, 0, 0, 1, 2))]
    single = [_flag("--char", chars)]
    if family != "brauer":
        groups += [
            ([_flag("--e", _EDGE_INTS), _flag("--not-root"), _flag("--q-pm-one")], one),
            ([_flag("--N", _EDGE_INTS), _flag("--r-generic")], one),
        ]
        signs = st.sampled_from((1, -1, 1, -1, 0))
        single += [_flag("--f", _EDGE_INTS), _flag("--qe-sign", signs), _flag("--eps", signs)]
    formats = ("text", "csv", "json") if command == "weights" else ("text", "json")
    single.append(_flag("--format", st.sampled_from(formats)))
    argv = [command, family]
    if command == "weights" and draw(st.integers(0, 9)):
        argv += draw(_flag("--n", st.sampled_from((-1, 0, 8, 21))))
    for group, counts in groups:
        for _ in range(draw(st.sampled_from(counts))):
            argv += draw(st.one_of(group))
    for flag in single:
        if draw(st.booleans()):
            argv += draw(flag)
    return argv


@settings(max_examples=200, deadline=None)
@given(_decide_weights_or_gram_argv())
def test_decide_and_weights_answer_or_refuse_every_flag_vector(argv):
    out, err = io.StringIO(), io.StringIO()
    usage_error = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a usage error with exit 2
            code, usage_error = exc.code, True
    assert code in (0, 2), (argv, code)
    if code == 0:
        assert out.getvalue().strip(), argv
    elif usage_error:
        assert err.getvalue().strip(), argv
    else:  # every refusal of a parsed vector is a ParameterError
        assert err.getvalue().startswith("parameter error: "), (argv, err.getvalue())


def test_weights_rejects_levels_outside_the_table_budget(capsys):
    for n in ("-1", "21", "30"):
        code, out, err = run(["weights", "brauer", "--delta", "2", "--n", n], capsys)
        assert code == 2 and out == "" and "between 0 and 20" in err


def test_gram_rank_output(capsys):
    code, out, _ = run(["gram", "--char", "0", "--delta", "1", "--n", "2"], capsys)
    assert code == 0
    assert "rank 1" in out and "corank 2" in out
    code, out, _ = run(["gram", "--char", "0", "--delta", "2", "--n-max", "4"], capsys)
    assert code == 0
    assert "first degenerate level: n = 3" in out
    code, out, _ = run(["gram", "--char", "0", "--delta", "5", "--n-max", "4"], capsys)
    assert code == 0
    assert "no degenerate level" in out


def test_gram_requires_a_mode(capsys):
    code, _, err = run(["gram", "--delta", "2"], capsys)
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gram", "--delta", "2", "--n", "3", "--n-max", "4"])
    assert exc.value.code == 2 and "not allowed with argument --n" in capsys.readouterr().err


def test_gram_rejects_levels_past_the_budget(capsys):
    for argv in (["--char", "5", "--n", "6"], ["--n", "6"], ["--n-max", "6"]):
        code, _, err = run(["gram", "--delta", "2", *argv], capsys)
        assert code == 2 and "10395" in err
    # a negative level is refused before any diagram is enumerated
    code, out, err = run(["gram", "--delta", "2", "--n", "-1"], capsys)
    assert code == 2 and out == "" and "level n = -1" in err
    code, out, _ = run(["gram", "--char", "7", "--delta", "2", "--n", "3"], capsys)
    assert code == 0 and "dimension 15, rank 10, corank 5" in out


def test_gram_refuses_a_rank_past_the_exact_budget(capsys):
    # delta = P screens as delta = 0 mod P, and is full mod the next prime
    code, out, _ = run(["gram", "--char", "0", "--delta", "67108859", "--n", "4"], capsys)
    assert code == 0 and "rank 105" in out
    # delta = -1 - PQ is -1 mod both screen primes, where the rank is 91, and
    # its 208-bit entries need a Hadamard bound past the budget of primes
    code, out, err = run(["gram", "--char", "0", "--delta", "-4503597479886984", "--n", "4"], capsys)
    assert code == 2 and out == ""
    assert "mod 2 primes, P = 67108859 down to 67108837, give rank at most 91" in err
    assert "needs more than 24 primes" in err


def test_gram_rejects_levels_past_n1_in_characteristic_p(capsys):
    for flag in ("--n", "--n-max"):
        code, out, err = run(["gram", "--char", "3", "--delta", "1", flag, "4"], capsys)
        assert code == 2 and out == "" and "n_1 = 2" in err


def test_gram_rejects_scans_over_no_level(capsys):
    for n_max in ("1", "-3"):
        code, out, err = run(["gram", "--delta", "2", "--n-max", n_max], capsys)
        assert code == 2 and out == "" and "at least 2" in err


def test_verify_suite_exit_zero(capsys):
    for argv, last_line in (
        (["--suite", "counting", "--max-n", "5"], "4/4 checks passed"),
        (["--suite", "gram"], "3/3 checks passed"),
    ):
        code, out, _ = run(["verify", *argv], capsys)
        assert code == 0 and "FAIL" not in out
        assert out.endswith(last_line + "\n")


def test_readme_lists_every_verification_suite():
    # the --suite help sends users to this README section for the names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Verification suites", 1)[1].split("\n## ", 1)[0]
    assert all(f"* `{name}` — " in section for name in SUITES)


def test_readme_commands_answer(capsys):
    # every command of the README's "Command line" block parses and answers
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line.split("#", 1)[0])[1:] for line in block.splitlines() if line.startswith("diagalg ")]
    assert len(commands) == 14
    for argv in commands:
        code, out, _ = run(argv, capsys)
        assert code == 0 and out.strip(), argv


def test_verify_suite_names_come_from_the_suites_table(capsys):
    code, out, err = run(["verify", "--suite", "nope"], capsys)
    assert code == 2 and out == "" and "unknown suite 'nope'" in err
    assert err.startswith("parameter error: ")
    assert all(name in err for name in SUITES)
    for suite in (*SUITES, "all"):
        code, out, _ = run(["verify", "--suite", suite, "--max-n", "2"], capsys)
        assert code == 0 and "FAIL" not in out and out.endswith(" checks passed\n")


def test_verify_rejects_depths_that_check_nothing(capsys):
    for suite, max_n in (("counting", "0"), ("oracle-equivalence", "1"), ("all", "-3")):
        code, out, err = run(["verify", "--suite", suite, "--max-n", max_n], capsys)
        assert code == 2 and "max_n must be >= 2" in err and "PASS" not in out
        assert err.startswith("parameter error: ")
    code, out, _ = run(["verify", "--suite", "oracle-equivalence", "--max-n", "2"], capsys)
    assert code == 0 and "3/3 checks passed" in out


def test_verify_all_small(capsys):
    code, out, _ = run(["verify", "--suite", "all", "--max-n", "3"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    from diagalg import verify as verify_module
    from diagalg.verify import CheckResult

    def broken(max_n=None):
        return [CheckResult("counting", "forced failure", False, "counterexample: n=2")]

    monkeypatch.setitem(verify_module.SUITES, "counting", (broken, None))
    code, out, _ = run(["verify", "--suite", "counting"], capsys)
    assert code == 1
    assert "FAIL" in out and "counterexample" in out


def test_verify_gram_suite_fails_when_no_gram_level_degenerates(capsys, monkeypatch):
    # the three-way checks compare real levels: a Gram scan that never finds
    # a degenerate level fails both of them
    from diagalg import verify as verify_module

    monkeypatch.setattr(verify_module, "first_degenerate_level", lambda spec, n_max: None)
    code, out, _ = run(["verify", "--suite", "gram"], capsys)
    assert code == 1
    assert out.count("FAIL  [gram] first degenerate Gram level") == 1
    assert out.count("FAIL  [gram] the same in chars 3, 5, 7") == 1
    assert out.endswith("1/3 checks passed\n")


def test_verify_reports_a_transition_matrix_with_no_integer_inverse(capsys, monkeypatch):
    from diagalg import cellular

    matrix = cellular.transition_matrix

    def doubled_row(n):
        t = matrix(n)
        return (tuple(2 * x for x in t[0]), *t[1:]) if n == 2 else t

    monkeypatch.setattr(cellular, "transition_matrix", doubled_row)
    cellular._transition_inverse.cache_clear()
    try:
        code, out, _ = run(["verify", "--suite", "cellular"], capsys)
    finally:
        cellular._transition_inverse.cache_clear()
    assert code == 1
    assert ("FAIL  [cellular] basis transition determinant is +-1, n <= 3"
            "  the cellular basis transition matrix at n = 2 is not unimodular") in out
    assert out.count("[cellular]") == 5 and out.endswith("/5 checks passed\n")


def test_verify_reports_a_failed_count_guard_as_failed_checks(capsys, monkeypatch):
    from diagalg import verify as verify_module

    def miscounted(n):
        raise RuntimeError(f"enumerated 0 diagrams at n = {n}, expected (2n-1)!!")

    monkeypatch.setattr(verify_module, "all_diagrams", miscounted)
    code, out, _ = run(["verify", "--suite", "counting", "--max-n", "3"], capsys)
    assert code == 1
    assert out.count("  enumerated 0 diagrams at n = ") == out.count("FAIL") == 2
    assert out.endswith("2/4 checks passed\n")


def test_verify_reports_a_non_integer_cellular_coefficient(capsys, monkeypatch):
    from diagalg import cellular
    from diagalg.brauer import DELTA, AlgebraElement

    basis = cellular.gl_basis

    def delta_in_first_element(n):
        b = basis(n)
        if n != 2:
            return b
        terms = {d: c * DELTA for d, c in b[0].element.terms.items()}
        c = b[0]
        patched = cellular.CellularBasisElement(c.label, c.left_tableau, c.right_tableau, c.left_coset,
                                                c.right_coset, AlgebraElement(n, terms))
        return (patched, *b[1:])

    monkeypatch.setattr(cellular, "gl_basis", delta_in_first_element)
    cellular._transition_inverse.cache_clear()
    try:
        code, out, _ = run(["verify", "--suite", "cellular"], capsys)
    finally:
        cellular._transition_inverse.cache_clear()
    assert code == 1
    assert ("FAIL  [cellular] basis transition determinant is +-1, n <= 3"
            "  non-integer cellular coefficient") in out
    assert out.count("[cellular]") == 5 and out.endswith("/5 checks passed\n")


def test_verify_oracle_suite_passes_at_its_ceiling(capsys):
    # the deepest search the suite accepts, to level 2 * 20 + 10, in process
    assert SUITES["oracle-equivalence"][1] == 20
    code, out, _ = run(["verify", "--suite", "oracle-equivalence", "--max-n", "20"], capsys)
    lines = out.splitlines()
    assert code == 0 and len(lines) == 4 and lines[-1] == "3/3 checks passed"
    assert all(line.startswith("PASS  [oracle-equivalence] ") for line in lines[:3])
    assert lines[0].endswith("|arg| <= 20")


def test_verify_rejects_depths_past_the_suite_ceiling(capsys):
    ceilings = {name: ceiling for name, (_, ceiling) in SUITES.items() if ceiling is not None}
    # the acceptance depths stay allowed
    assert ceilings["counting"] >= 8 and ceilings["trace"] >= 5 and ceilings["oracle-equivalence"] >= 15
    for suite, ceiling in (*ceilings.items(), ("all", min(ceilings.values()))):
        start = time.monotonic()
        code, out, err = run(["verify", "--suite", suite, "--max-n", str(ceiling + 1)], capsys)
        assert time.monotonic() - start < 5.0
        assert code == 2 and out == "" and f"<= {ceiling}" in err
        assert err.startswith("parameter error: ")
