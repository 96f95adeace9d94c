"""The library holds what the checker runs, the paper's definitions and the
test-data generators, and no second name for any of them.

`src/sdfkit` is read as text. Each name in `sdfkit.__all__` and each public
module-level function of `src/sdfkit` must be used in `src/sdfkit` outside
its own definition, as a name or an attribute, or appear as a word in
`perfbench` or `tools`. The re-exports of `__init__.py`, imports and
docstrings are not uses. A name with none of these uses is on `KEEP` with
its reason.
"""

from __future__ import annotations

import ast
import re
import types
from pathlib import Path

import sdfkit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sdfkit"

# Name -> why it stays without a caller in src, perfbench or tools.
KEEP = {
    "chain_filtration": "paper: an information structure read along a chain of moves",
    "decompose": "paper: a decision forest splits into decision trees",
    "glue": "paper: decision trees glue into a decision forest",
    "drop_moveless_components": "paper: the reduction the derived-tree theorem presumes",
    "eis_from_filtration": "paper: F_x = G_t(x) on D_x, the stochastic-control case",
    "eis_from_observations": "paper: F_x generated by observations joined with a filtration",
    "encode_simple": "paper: the first worked example as an action path",
    "encode_variant": "paper: the second worked example as an action path",
    "find_order_isomorphism": "paper: isomorphism of posets",
    "find_sdf_isomorphism": "paper: isomorphism of stochastic decision forests",
    "is_decision_forest": "paper: a rooted forest whose nodes maximal chains separate",
    "move_event": "paper: D_{t,f}, the scenarios where the node at (t, f) is a move",
    "representation_by_decision_paths": "paper: a decision forest over its own maximal chains",
    "restrict_check": "paper: the restriction identity P(c ∩ W_A) = P(c) ∩ F_A",
    "time_of": "paper: the time of a move of an action-path forest",
    "x_order": "paper: the order ≥_X on random moves",
    "rng_from_env": "gen: test-data generator (the seed of the random draws)",
    "random_filtration": "gen: test-data generator",
    "random_observables": "gen: test-data generator",
    "random_rooted_forest": "gen: test-data generator",
    "random_v_poset": "gen: test-data generator",
}


def _defined_by(node) -> set:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return set()


def _surface() -> tuple[set, set]:
    """(the names to check, the names used in src outside their own definition)."""
    checked = {
        name for name in sdfkit.__all__
        if not isinstance(getattr(sdfkit, name), types.ModuleType)
    }
    used = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
                checked.add(top.name)
            if path.name == "__init__.py":
                continue
            own = _defined_by(top)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    used.add(name)
    return checked, used


def test_every_public_name_has_a_caller_or_a_reason():
    checked, used = _surface()
    elsewhere = "\n".join(
        path.read_text(encoding="utf-8")
        for folder in ("perfbench", "tools")
        for path in sorted((ROOT / folder).rglob("*.py"))
    )
    uncalled = {
        name for name in checked - used
        if not re.search(rf"\b{re.escape(name)}\b", elsewhere)
    }
    assert sorted(uncalled - set(KEEP)) == [], "no caller in src, perfbench or tools"
    # a kept name that gained a caller, or is gone, leaves the list
    assert sorted(set(KEEP) - uncalled) == []
