import ast
import os
import subprocess
import sys
from pathlib import Path

import theta4


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


def test_import_loads_no_exact_rational_modules():
    # the exact layer is int8 sign tables and the int64 M of build_m;
    # fractions and decimal would only add to every fresh interpreter's start-up
    env = {**os.environ, "PYTHONPATH": str(Path(theta4.__file__).parents[1])}
    code = "import theta4, sys; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
