"""Small hand-built instances and instance documents shared by several test modules."""

from __future__ import annotations

import json
import random

from sdfkit import gen
from sdfkit._canon import canon_sorted
from sdfkit.sdf import RandomMove, ScenarioSpace, Sdf
from sdfkit.set_forest import SetForest

EXPLICIT_DOC = json.dumps(
    {
        "kind": "explicit-sdf",
        "scenarios": ["L", "R"],
        "outcomes": ["a", "b", "z", "y"],
        "outcome_scenarios": {"a": "L", "b": "L", "z": "R", "y": "R"},
        "nodes": [["a", "b"], ["a"], ["b"], ["z", "y"], ["z"], ["y"]],
        "random_moves": [{"domain": ["L", "R"], "assignment": {"L": 0, "R": 3}}],
        "choices": {"left_a": ["a", "z"]},
        "eis": [{"move": 0, "atoms": [["L", "R"]]}],
        "rcs": [{"move": 0, "choices": [["a", "z"], ["b", "y"]]}],
    }
)


def one_scenario_instance() -> Sdf:
    universe = frozenset(["a", "b"])
    forest = SetForest.of(universe, [frozenset("ab"), frozenset("a"), frozenset("b")])
    space = ScenarioSpace.discrete([0])
    move = RandomMove.of({0: frozenset("ab")})
    return Sdf.of(forest, space, {x: 0 for x in forest.nodes}, [move])


def lone_terminal_instance() -> Sdf:
    """Scenario 1 carries a 2-outcome tree, scenario 2 a single terminal."""
    universe = frozenset(["a", "b", "z"])
    forest = SetForest.of(
        universe,
        [frozenset("ab"), frozenset("a"), frozenset("b"), frozenset("z")],
    )
    space = ScenarioSpace.discrete([1, 2])
    projection = {
        frozenset("ab"): 1,
        frozenset("a"): 1,
        frozenset("b"): 1,
        frozenset("z"): 2,
    }
    move = RandomMove.of({1: frozenset("ab")})
    return Sdf.of(forest, space, projection, [move])


def corpus_doc(draw: int) -> str:
    """Draw `draw` of the seeded path-outcome generator as an extensional
    action-path document, as the benchmark's `corpus` workload writes it."""
    po = gen.random_path_outcomes(random.Random(draw))
    return json.dumps(
        {
            "kind": "action-path",
            "scenarios": canon_sorted(po.scenarios.scenarios),
            "atoms": [canon_sorted(a) for a in canon_sorted(po.scenarios.algebra_atoms)],
            "time_points": [str(t) for t in po.time.points],
            "actions": canon_sorted(po.space.actions),
            "paths": [{"scenario": s, "path": list(f)} for s, f in canon_sorted(po.paths)],
        }
    )
