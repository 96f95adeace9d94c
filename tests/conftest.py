"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's algorithms: maximal chains
by full subset enumeration, agent reference choices by one window choice per
(history subset, component subset) pair, canonical keys by the type-tag
cascade that wraps every number in a Fraction, predecessors never (the
library is the literal definition; expected values for those come from the
worked instances' closed forms).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from sdfkit import examples
from sdfkit.action_path import WindowChoiceSpec, window_choice
from sdfkit.choice import Choice, Rcs
from sdfkit.gen import rng_from_env


def brute_maximal_chains(elements, ge):
    """All ⊆-maximal chains by enumerating every subset. Exponential; tiny inputs only."""
    elements = list(elements)
    chains = []
    for r in range(1, len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            if all(ge(x, y) or ge(y, x) for x, y in itertools.combinations(combo, 2)):
                chains.append(frozenset(combo))
    return {
        c
        for c in chains
        if not any(c < d for d in chains)
    }


def oracle_canon_key(value):
    """Canonical sort key by the original cascade: custom keys first, then
    every number as a Fraction, then strings, tuples, sets, None, repr."""
    custom = getattr(value, "canon_key", None)
    if custom is not None and not isinstance(value, type):
        return custom()
    if isinstance(value, bool):
        return ("num", Fraction(int(value)))
    if isinstance(value, (int, Fraction)):
        return ("num", Fraction(value))
    if isinstance(value, float):
        return ("num", Fraction(value))
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, tuple):
        return ("tuple", tuple(oracle_canon_key(v) for v in value))
    if isinstance(value, (frozenset, set)):
        return ("set", tuple(sorted(oracle_canon_key(v) for v in value)))
    if value is None:
        return ("none",)
    return ("repr", type(value).__name__, repr(value))


def brute_agent_rcs(aps, agent):
    """Agent reference choices by the definition: one window choice per nonempty
    history subset H and nonempty component subset G, lifted on the move's
    domain, kept when it passes C0-C2 and meets every node of the move.
    Exponential in the number of realized histories; small inputs only."""
    po = aps.po
    components = list(po.space.components(agent))
    per_move = {}
    for move, t in aps.move_times:
        histories = list(po.index.realized_prefixes(t))
        found = set()
        for r in range(1, len(histories) + 1):
            for combo in itertools.combinations(histories, r):
                for cr in range(1, len(components) + 1):
                    for comp_set in itertools.combinations(components, cr):
                        per_scenario = {
                            w: frozenset(
                                a
                                for a in po.space.actions
                                if po.space.project(agent, a) in comp_set
                            )
                            if w in move.domain
                            else frozenset()
                            for w in po.scenarios.scenarios
                        }
                        wc = window_choice(po, WindowChoiceSpec.of(t, combo, per_scenario))
                        if wc.ok and all(node & wc.outcomes for _, node in move.items()):
                            found.add(Choice.of(aps.sdf, wc.outcomes))
        per_move[move] = found
    return Rcs.of(per_move)


@pytest.fixture(scope="session")
def simple():
    return examples.build_simple()


@pytest.fixture(scope="session")
def variant():
    return examples.build_variant()


@pytest.fixture(scope="session")
def simple_moves():
    return examples.simple_moves()


@pytest.fixture(scope="session")
def variant_moves():
    return examples.variant_moves()


@pytest.fixture(scope="session")
def simple_aps():
    return examples.simple_aps()


@pytest.fixture(scope="session")
def variant_aps():
    return examples.variant_aps()


@pytest.fixture(scope="session")
def timing_aps():
    return examples.timing_instance()


@pytest.fixture(scope="session")
def upandout_aps():
    return examples.upandout_instance()


@pytest.fixture()
def rng():
    return rng_from_env(20240418)
