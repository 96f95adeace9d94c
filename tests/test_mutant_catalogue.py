"""The catalogue of `tools/mutants.py` still fits the code it mutates.

Nothing is mutated or run here: each row's old text must occur exactly once
in its `src/` file, each named test must exist, and each equivalent mutant
must be a row. A refactor that removes a row's text or renames a test then
fails here, not only in the slow mutation run.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _catalogue():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _defined(path: Path) -> set:
    """The test names `path` defines: `name` for a module-level function,
    `Class::name` for a method."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return names


def test_every_row_fits_the_code_and_names_existing_tests():
    mutants = _catalogue()
    names = [row[0] for row in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert mutants.EQUIVALENT.keys() <= set(names)
    defined: dict = {}
    for name, path, old, _, tests in mutants.MUTANTS:
        text = (ROOT / "src" / path).read_text(encoding="utf-8")
        assert text.count(old) == 1, (name, text.count(old))
        assert tests, name
        for test in tests:
            file, _, node = test.partition("::")
            if file not in defined:
                assert (ROOT / file).is_file(), (name, file)
                defined[file] = _defined(ROOT / file)
            assert node.partition("[")[0] in defined[file], (name, test)
