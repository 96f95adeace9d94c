"""No module in `src/sdfkit`, `tests` or `tools` imports a name it never uses.

Each file is read with `ast`; nothing is imported. A module-level `import`
binds a name, and some `Name` node of the module must read it. A package's
`__init__.py` is left out: its imports are the names it exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """The names that the module-level imports of `source` bind and no
    `Name` node of it reads, in order of first import."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in dict.fromkeys(bound) if name not in read]


def test_the_check_sees_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\nimport json.decoder\n"
        "from a import b, c as d\nfrom e import *\n"
        "def f():\n    import sys\n    return b\n"
    )
    assert unused_imports(source) == ["os", "osp", "json", "d"]
    assert unused_imports("import json.decoder\njson.decoder.JSONDecoder\n") == []


def test_no_module_imports_a_name_it_never_uses():
    found = {}
    for folder in ("src/sdfkit", "tests", "tools"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name != "__init__.py":
                names = unused_imports(path.read_text(encoding="utf-8"))
                if names:
                    found[str(path.relative_to(ROOT))] = names
    assert found == {}
