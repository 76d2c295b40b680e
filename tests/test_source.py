"""Checks on the library source itself."""

import ast
from pathlib import Path

import diagalg


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so a check written as one would vanish
    found = []
    for path in sorted(Path(diagalg.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _names_used(tree) -> set[str]:
    """Every identifier a tree refers to: names, attributes and imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_every_public_definition_has_a_user_outside_the_tests():
    # code that only tests reach checks nothing the program reports; a
    # public module-level def or class needs a user in src/, scripts/ or
    # perfbench/ other than its own body
    root = Path(diagalg.__file__).resolve().parents[2]
    used = set()
    public = []
    for path in sorted(Path(diagalg.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    public.append(f"{path.stem}.{node.name}")
                used |= _names_used(node) - {node.name}
            else:
                used |= _names_used(node)
    for folder in ("scripts", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            if not path.name.startswith("test_"):
                used |= _names_used(ast.parse(path.read_text(), filename=str(path)))
    assert [name for name in public if name.split(".")[1] not in used] == []


def test_verify_builds_every_check_result_in_one_function():
    # that function turns a RuntimeError into a FAIL line; a suite that built
    # its own results could stop the run with a traceback instead
    path = Path(diagalg.__file__).parent / "verify.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    check = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_check")

    def builds(tree):
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.Call) and "CheckResult" in _names_used(node.func)]

    assert builds(check) and len(builds(tree)) == len(builds(check))


def test_only_frozen_defines_immutability():
    # a value type is immutable, copied and pickled one way, through
    # exactalg.Frozen; a class with its own copy of these methods drifts
    found = []
    for path in sorted(Path(diagalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and f"{path.stem}.{node.name}" != "exactalg.Frozen":
                found += [f"{path.stem}.{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name in ("__setattr__", "__delattr__", "__reduce__")]
    assert found == []


def _methods_defined(method: str) -> list[str]:
    """Every class of the library that defines `method` in its own body."""
    found = []
    for path in sorted(Path(diagalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                found += [f"{path.stem}.{node.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and item.name == method]
    return found


def test_values_print_only_as_reprs():
    # a value prints as the repr that rebuilds it; a second printer drifts
    # from it and names a variable the arithmetic does not have
    assert _methods_defined("__str__") == []


def test_only_record_defines_hashing():
    # a hashable value hashes as its field tuple, through exactalg.Record
    assert _methods_defined("__hash__") == ["exactalg.Record"]


def test_only_rational_functions_evaluate():
    # one evaluation path: a Laurent polynomial is only the ring, and a
    # point's order and value on either side of a quotient come from one
    # pass of exactalg._order_and_value
    assert _methods_defined("evaluate") == ["exactalg.RationalFunction"]
    assert _methods_defined("deflate") == []


def test_only_weights_reads_the_parameter_variants():
    # a spec is resolved once, by weights.rule, into the Rule that criteria
    # reads; a decision that looked inside the spec would decide again
    # where its modulus and cap lie
    src = Path(diagalg.__file__).parent
    variants = {"BrauerParams", "QBrauerParams", "BMWParams", "IntegerDelta", "GenericDelta",
                "NonIntegerDelta", "NotRootOfUnity", "RootOfUnity", "PlusMinusOne", "GenericR",
                "SignedPower"}
    criteria = ast.parse((src / "criteria.py").read_text())
    assert _names_used(criteria) & variants == set()
    weights = ast.parse((src / "weights.py").read_text())
    assert "n1_cap" not in {node.name for node in weights.body if isinstance(node, ast.FunctionDef)}


def test_admissibility_is_decided_only_by_resolving():
    # weights.rule checks a spec as it resolves it, so no Rule exists for an
    # excluded spec; a second validation pass, or a caller that validates
    # on its own, could drift from the rule it guards
    src = Path(diagalg.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem != "weights":
            found += [f"{path.stem}: {name}" for name in sorted(_names_used(ast.parse(path.read_text())))
                      if name == "validate_params" or name.startswith("_validate_")]
    assert found == []
    weights = ast.parse((src / "weights.py").read_text())
    callers = {node.name for node in weights.body if isinstance(node, ast.FunctionDef)
               and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                       and call.func.id.startswith("_validate_") for call in ast.walk(node))}
    # _validate_q checks the delta of q = +-1 through _validate_delta
    assert callers == {"rule", "_validate_q"}
    assert "validate_params" not in {node.name for node in weights.body if isinstance(node, ast.FunctionDef)}
