"""Small hand-built instances, instance documents, the worked examples'
expected information structures and adapted-choice tables, a
recursion-limit guard, and the outcome and fresh-copy helpers of the
differential tests, shared by several test modules."""

from __future__ import annotations

import contextlib
import json
import random
import sys

from sdfkit import gen
from sdfkit._canon import canon_sorted
from sdfkit.cli import parse_instance
from sdfkit.errors import KernelError
from sdfkit.examples import (
    KM,
    SCENARIOS,
    _space,
    simple_choice_outcomes,
    simple_moves,
    variant_choice_outcomes,
    variant_moves,
)
from sdfkit.sdf import RandomMove, ScenarioSpace, Sdf
from sdfkit.set_forest import SetForest
from sdfkit.sigma_info import Eis, SubSigma

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


def explicit_doc():
    """`EXPLICIT_DOC` parsed: its instance has one move {L↦{a, b}, R↦{y, z}},
    with the reference choices {a, z} and {b, y}."""
    return parse_instance(EXPLICIT_DOC)


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


@contextlib.contextmanager
def recursion_headroom(frames: int):
    """Lower the recursion limit to `frames` above the current call depth
    for the body, and restore it after: a search that recursed once per
    item would fail inside on more than `frames` items."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def outcome(fn, *args, **kwargs):
    """What fn returns, or the type, code and text of the kernel error it raises."""
    try:
        return ("value", fn(*args, **kwargs))
    except KernelError as e:
        return ("error", type(e), e.code, str(e))


def fresh_copy(s: Sdf) -> Sdf:
    """`s` with none of its derived tables built yet."""
    return Sdf(SetForest(s.forest.universe, s.forest.nodes), s.space, s.projection, s.random_moves)


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


# All maps Ω -> {1,2}, as dictionaries, constants first.
MAPS = tuple(
    {1: a, 2: b} for a, b in ((1, 1), (2, 2), (1, 2), (2, 1))
)


def _sigma(space: ScenarioSpace, carrier, discrete: bool) -> SubSigma:
    carrier = frozenset(carrier)
    if discrete:
        return SubSigma.ambient_trace(space, carrier)
    return SubSigma.trivial(carrier)


def simple_eis_list() -> tuple:
    """The five information structures of the simple instance, in table order:
    trivial; trivial-then-(both, only-x1, only-x2 discrete); discrete."""
    space = _space()
    moves = simple_moves()
    omega = frozenset(SCENARIOS)
    patterns = [
        (False, False, False),
        (False, True, True),
        (False, True, False),
        (False, False, True),
        (True, True, True),
    ]
    out = []
    for p0, p1, p2 in patterns:
        out.append(
            Eis.of(
                {
                    moves["x0"]: _sigma(space, omega, p0),
                    moves["x1"]: _sigma(space, omega, p1),
                    moves["x2"]: _sigma(space, omega, p2),
                }
            )
        )
    return tuple(out)


def variant_eis_list() -> tuple:
    """The three information structures of the variant, in table order."""
    space = _space()
    moves = variant_moves()
    omega = frozenset(SCENARIOS)
    sub = SubSigma.trivial(frozenset([2]))
    patterns = [(False, False), (False, True), (True, True)]
    out = []
    for p0, p1 in patterns:
        out.append(
            Eis.of(
                {
                    moves["x0"]: _sigma(space, omega, p0),
                    moves["x1"]: _sigma(space, omega, p1),
                    moves["x2"]: sub,
                }
            )
        )
    return tuple(out)


def simple_adapted_table() -> tuple:
    """Per information structure: (first-period, second-period) adapted choices."""
    c = simple_choice_outcomes
    const_first = [c(first=k) for k in KM]
    rows = [
        (const_first, [c(first=k, second=m) for k in KM for m in KM]
         + [c(second=m) for m in KM]),
        (const_first, [c(first=k, second=g) for k in KM for g in MAPS]
         + [c(second=g) for g in MAPS]),
        (const_first, [c(first=1, second=g) for g in MAPS]
         + [c(first=2, second=m) for m in KM] + [c(second=m) for m in KM]),
        (const_first, [c(first=1, second=m) for m in KM]
         + [c(first=2, second=g) for g in MAPS] + [c(second=m) for m in KM]),
        ([c(first=f) for f in MAPS],
         [c(first=k, second=g) for k in KM for g in MAPS]
         + [c(second=g) for g in MAPS]),
    ]
    return tuple(
        (tuple(frozenset(x) for x in fst), tuple(frozenset(x) for x in snd))
        for fst, snd in rows
    )


def variant_adapted_table() -> tuple:
    c = variant_choice_outcomes
    const_first = [c(first=k) for k in KM]
    rows = [
        (const_first, [c(first=k, second=m) for k in KM for m in KM]
         + [c(second=m) for m in KM]),
        (const_first, [c(first=k, second=g) for k in KM for g in MAPS]
         + [c(second=g) for g in MAPS]),
        ([c(first=f) for f in MAPS],
         [c(first=k, second=g) for k in KM for g in MAPS]
         + [c(second=g) for g in MAPS]),
    ]
    return tuple(
        (tuple(frozenset(x) for x in fst), tuple(frozenset(x) for x in snd))
        for fst, snd in rows
    )
