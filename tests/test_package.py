import ast
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
