"""Canonical worked instances.

Two hand-built two-scenario instances (the second with a random move on a
proper subdomain), their named choice families and reference choices, plus
their action-path encodings and the timing / up-and-out generator instances
used by the CLI builtins.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .action_path import (
    ActionPathSdf,
    PathOutcomes,
    TimeAxis,
    ActionSpace,
    build_action_path_sdf,
    product_outcomes,
    timing_outcomes,
    up_and_out_outcomes,
)
from .choice import Choice, Rcs
from .sdf import RandomMove, ScenarioSpace, Sdf
from .set_forest import SetForest

SCENARIOS = (1, 2)
KM = (1, 2)


def _space() -> ScenarioSpace:
    return ScenarioSpace.discrete(SCENARIOS)


def simple_universe() -> frozenset:
    return frozenset((w, k, m) for w in SCENARIOS for k in KM for m in KM)


def simple_moves() -> dict:
    x0 = RandomMove.of(
        {w: frozenset((w, k, m) for k in KM for m in KM) for w in SCENARIOS}
    )
    xs = {
        k: RandomMove.of(
            {w: frozenset((w, k, m) for m in KM) for w in SCENARIOS}
        )
        for k in KM
    }
    return {"x0": x0, "x1": xs[1], "x2": xs[2]}


def _build(universe: frozenset, moves: dict) -> Sdf:
    """The instance whose nodes are the moves' nodes and the singletons."""
    nodes = set()
    for m in moves.values():
        nodes |= set(m.image)
    nodes |= {frozenset([w]) for w in universe}
    forest = SetForest.of(universe, nodes)
    projection = {x: next(iter(x))[0] for x in nodes}
    return Sdf.of(forest, _space(), projection, frozenset(moves.values()))


def build_simple() -> Sdf:
    return _build(simple_universe(), simple_moves())


def variant_universe() -> frozenset:
    out = set(simple_universe()) - {(1, 2, 1), (1, 2, 2)}
    out.add((1, 2))
    return frozenset(out)


def variant_moves() -> dict:
    universe = variant_universe()
    x0 = RandomMove.of(
        {w: frozenset(v for v in universe if v[0] == w) for w in SCENARIOS}
    )
    x1 = RandomMove.of(
        {w: frozenset((w, 1, m) for m in KM) for w in SCENARIOS}
    )
    x2 = RandomMove.of({2: frozenset((2, 2, m) for m in KM)})
    return {"x0": x0, "x1": x1, "x2": x2}


def build_variant() -> Sdf:
    return _build(variant_universe(), variant_moves())


def _pattern_matches(pattern, scenario, value) -> bool:
    if pattern is None:
        return True
    if isinstance(pattern, dict):
        return value == pattern[scenario]
    return value == pattern


def simple_choice_outcomes(first=None, second=None) -> frozenset:
    """Choice families over the simple instance.

    `first`/`second` constrain the first- and second-stage coordinates; each
    is None (unconstrained), a constant, or a scenario-indexed map.
    """
    return frozenset(
        (w, k, m)
        for (w, k, m) in simple_universe()
        if _pattern_matches(first, w, k) and _pattern_matches(second, w, m)
    )


def variant_choice_outcomes(first=None, second=None) -> frozenset:
    """Primed choice families; the collapsed outcome joins only first-stage choices."""
    out = set()
    for v in variant_universe():
        if len(v) == 3:
            w, k, m = v
            if _pattern_matches(first, w, k) and _pattern_matches(second, w, m):
                out.add(v)
        else:
            w, k = v
            if second is None and _pattern_matches(first, w, k):
                out.add(v)
    return frozenset(out)


def canonical_rcs(s: Sdf, moves: dict, outcomes_fn) -> Rcs:
    per_move = {
        moves["x0"]: frozenset(
            Choice.of(s, outcomes_fn(first=k)) for k in KM
        ),
        moves["x1"]: frozenset(
            Choice.of(s, outcomes_fn(second=m)) for m in KM
        ),
        moves["x2"]: frozenset(
            Choice.of(s, outcomes_fn(second=m)) for m in KM
        ),
    }
    return Rcs.of(per_move)


def simple_rcs(s: Sdf) -> Rcs:
    return canonical_rcs(s, simple_moves(), simple_choice_outcomes)


def variant_rcs(s: Sdf) -> Rcs:
    return canonical_rcs(s, variant_moves(), variant_choice_outcomes)


def encode_simple() -> PathOutcomes:
    """The simple instance as a two-period action path over actions {1, 2}."""
    return product_outcomes(
        _space(),
        TimeAxis.of([0, 1]),
        [1, 2],
        factorization={"1": {1: 1, 2: 2}},
    )


def encode_variant() -> PathOutcomes:
    """The variant as an action path; 0 stands in for inaction after the collapse."""
    space = ActionSpace.of([0, 1, 2])
    time = TimeAxis.of([0, 1])
    paths = []
    for v in variant_universe():
        if len(v) == 3:
            w, k, m = v
            paths.append((w, (k, m)))
        else:
            w, _ = v
            paths.append((w, (2, 0)))
    return PathOutcomes.of(time, space, _space(), paths)


def timing_path_outcomes() -> PathOutcomes:
    """The `timing` builtin's outcome set: stopping paths of agents 1 and 2
    over times 0..2, in both scenarios."""
    return timing_outcomes(_space(), TimeAxis.of([0, 1, 2]), ("1", "2"))


def timing_instance() -> ActionPathSdf:
    return build_action_path_sdf(timing_path_outcomes(), max_x_exhaustive=12)


def up_and_out_price_table() -> dict:
    """Two scenarios over three times; the second crosses the barrier at t = 2."""
    rows = {
        1: (Fraction(1), Fraction(3, 2), Fraction(7, 4)),
        2: (Fraction(1), Fraction(3, 2), Fraction(2)),
    }
    points = [Fraction(0), Fraction(1), Fraction(2)]
    return {(t, w): rows[w][i] for w in SCENARIOS for i, t in enumerate(points)}


def upandout_path_outcomes() -> PathOutcomes:
    """The `upandout` builtin's outcome set, over `up_and_out_price_table`."""
    return up_and_out_outcomes(_space(), TimeAxis.of([0, 1, 2]), up_and_out_price_table())


# Choice-name slots: a stage's coordinate unconstrained, constant, or
# scenario-indexed (`12`: scenario 1 ↦ 1, scenario 2 ↦ 2).
CHOICE_SLOTS = {"any": None, "1": 1, "2": 2} | {
    a + b: {1: int(a), 2: int(b)} for a in "12" for b in "12"
}


def all_named_choices(instance: str) -> dict:
    """The CLI choice names of the `simple` or `variant` instance, like
    c_1_any, c_any_2, c_12_any or c_1_21, each mapped to its outcomes.

    A name is known iff both slots are in CHOICE_SLOTS, not both `any`, and
    it names a nonempty outcome set. Other instances name no choice.
    """
    outcomes_fn = {
        "simple": simple_choice_outcomes,
        "variant": variant_choice_outcomes,
    }.get(instance)
    if outcomes_fn is None:
        return {}
    out = {}
    for a, b in itertools.product(CHOICE_SLOTS, repeat=2):
        outcomes = outcomes_fn(CHOICE_SLOTS[a], CHOICE_SLOTS[b])
        if outcomes and not a == b == "any":
            out[f"c_{a}_{b}"] = outcomes
    return out
