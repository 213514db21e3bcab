import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import theta4
from theta4.basis_analysis import check_kappa0
from theta4.char2 import Characteristic, kappa_value, translate, weil_pairing
from theta4.mmatrix import pairing_signs, row_sum, row_sum_closed_form
from theta4.theta_eval import TruncationPolicy, random_tau, theta_series, theta_table, two_torsion_point

MODULES = ("char2", "mmatrix", "theta_eval", "identities", "basis_analysis", "jsonio", "cli")


def test_all_lists_every_public_import_once():
    exported = theta4.__all__
    assert len(exported) == len(set(exported))
    missing = [name for name in exported if not hasattr(theta4, name)]
    assert missing == []
    tree = ast.parse(Path(theta4.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert {name for name in imported if not name.startswith("_")} <= set(exported)


def _names(node: ast.AST) -> set[str]:
    """Every attribute, name and string constant under node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def test_one_sign_table():
    # every exact sign is a read of char2's _SIGN at an index or swapped index:
    # only its definition counts bits, and no characteristic keeps its halves
    for path in sorted(Path(theta4.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not {"_h1", "_h2"} & _names(tree), path.name
        for node in tree.body:
            is_sign_table = (path.name == "char2.py" and isinstance(node, ast.Assign)
                             and [ast.unparse(t) for t in node.targets] == ["_SIGN"])
            if not is_sign_table:
                assert not {"bit_count", "bitwise_count"} & _names(node), (path.name, ast.unparse(node)[:60])


def test_plain_data_values():
    # every value class stores its facts as plain attributes: no property hides a private copy,
    # and the names the frozen PeriodMatrix, the inline radius search and kernel_tau replaced stay gone
    gone = {"_tau", "_lambda_min", "_radius", "_kernel_tau", "DEFAULT_TARGET_EPS"}
    found = []
    for path in sorted(Path(theta4.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.name, node.name) for d in node.decorator_list
                          if {"property", "cached_property"} & _names(d)]
                if node.name in gone:
                    found.append((path.name, node.name))
        found += [(path.name, name) for name in sorted(gone & _names(tree))]
    assert found == []


def _unresolved(text: str) -> list[str]:
    """Each backticked module.name in text, module one of MODULES, that its theta4 module lacks."""
    cited = set(re.findall(rf"`({'|'.join(MODULES)})\.(\w+)`", text))
    return sorted(f"{module}.{name}" for module, name in cited
                  if not hasattr(importlib.import_module(f"theta4.{module}"), name))


def test_readme_code_names_resolve():
    # the README cites code by module.name; a rename or removal must take the citation with it
    assert _unresolved((Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")) == []
    assert _unresolved("`theta_eval._kernel_tau` and `cli._check_outputs`") == ["theta_eval._kernel_tau"]


def test_import_loads_no_exact_rational_modules():
    # the exact layer is int8 sign tables and the int64 M of build_m;
    # fractions and decimal would only add to every fresh interpreter's start-up
    env = {**os.environ, "PYTHONPATH": str(Path(theta4.__file__).parents[1])}
    code = "import theta4, sys; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_one_function_raises_every_genus_mismatch():
    # every check that two genera agree raises through check_genus_match, with its one message
    one, two, tau = Characteristic.zero(1), Characteristic.zero(2), random_tau(1, 0)
    calls = {
        "characteristic 1, characteristic 2": [
            lambda: weil_pairing(one, two), lambda: kappa_value(one, two), lambda: translate(one, two),
            lambda: pairing_signs([one], [two]),
        ],
        "characteristic 1, matrix 2": [lambda: row_sum(2, one), lambda: row_sum_closed_form(2, one)],
        "characteristic 2, tau 1": [
            lambda: theta_series(two, [0.0], tau), lambda: theta_table([two], [[0.0]], tau),
            lambda: two_torsion_point(two, tau),
        ],
        "kappa0 2, tau 1": [lambda: check_kappa0(two, 1)],
    }
    for message, group in calls.items():
        for call in group:
            with pytest.raises(ValueError, match=f"^genus mismatch: {message}$") as err:
                call()
            assert err.traceback[-1].name == "check_genus_match"


def _public_callables():
    """(qualified name, object) of every public function and class the theta4
    modules define, and of every public method of those classes."""
    for name in MODULES:
        module = importlib.import_module(f"theta4.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{name}.{attr}", obj
            if inspect.isclass(obj):
                for meth in vars(obj):
                    if not meth.startswith("_") and inspect.isroutine(getattr(obj, meth)):
                        yield f"{name}.{attr}.{meth}", getattr(obj, meth)


def test_verdict_cut_offs_are_constants_only():
    # NULL_THRESHOLD, WARN_NULL_THRESHOLD, SV_THRESHOLD and IDENTITY_EPS are read where
    # they are used; no entry point takes a cut-off, or checks one a caller passed
    offenders, walked = [], set()
    for qualname, obj in _public_callables():
        walked.add(qualname)
        names = [qualname.rsplit(".", 1)[-1], *inspect.signature(obj).parameters]
        offenders += [f"{qualname}: {n}" for n in names if n == "eps" or n.lower().endswith("threshold")]
    assert offenders == []
    assert {"basis_analysis.fourth_power_rank", "theta_eval.PeriodMatrix.from_json", "cli.run_suite"} <= walked
    assert [f.name for f in dataclasses.fields(TruncationPolicy)] == ["target_eps"]


def test_one_reader_per_corpus_object():
    # PeriodMatrix.from_json alone lists the period-matrix keys, so no tuple or list in cli
    # holds both re and im; run_suite alone states the corpus-shape rule
    cli_tree = ast.parse((Path(theta4.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    key_lists = [ast.unparse(node) for node in ast.walk(cli_tree) if isinstance(node, (ast.Tuple, ast.List))
                 and {"re", "im"} <= {e.value for e in node.elts if isinstance(e, ast.Constant)}]
    assert key_lists == []
    shape = "corpus must be an object with an entries array and a policies object"
    found = [path.name for path in sorted(Path(theta4.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and node.value == shape]
    assert found == ["cli.py"]
    run_suite = next(node for node in ast.walk(cli_tree)
                     if isinstance(node, ast.FunctionDef) and node.name == "run_suite")
    assert shape in _names(run_suite)


STORE_TRUE = {"standard", "verify", "even_only"}  # the flags whose absent value is False


def _compares_with_none_only(test: ast.expr) -> bool:
    """Whether every part of test that reads an argparse attribute (a store_true
    flag aside) or an out or path value is an `is None` or `is not None` test."""
    if isinstance(test, ast.BoolOp):
        return all(map(_compares_with_none_only, test.values))
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _compares_with_none_only(test.operand)
    if (isinstance(test, ast.Compare) and len(test.ops) == 1 and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and isinstance(test.comparators[0], ast.Constant) and test.comparators[0].value is None):
        return True
    return not any((isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
                    and n.attr not in STORE_TRUE) or (isinstance(n, ast.Name) and n.id in ("out", "path"))
                   for n in ast.walk(test))


def test_cli_states_no_input_rule_twice():
    # None is the only absent value, so an empty flag value is read as given; one function
    # holds the output-path rule, and the wrappers it replaced stay gone
    package = Path(theta4.__file__).parent
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    tests = [n.test for n in ast.walk(tree) if isinstance(n, (ast.If, ast.IfExp, ast.While))]
    tests += [t for n in ast.walk(tree) if isinstance(n, ast.comprehension) for t in n.ifs]
    assert [ast.unparse(t) for t in tests if not _compares_with_none_only(t)] == []
    assert sum(p.read_text(encoding="utf-8").count("names the same file as") for p in package.glob("*.py")) == 1
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert not {"_check_paths", "_tau_and_policy"} & (defined | _names(tree))
