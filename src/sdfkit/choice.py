"""Choices, immediate predecessors, availability, and adaptedness.

The predecessor operator P and the down-set operator are defined for
arbitrary outcome subsets (the restriction identity quantifies over those);
the `Choice` type additionally guarantees a nonempty union-of-nodes. All
predecessor computations here follow the literal definition
P(c) = {x | ∃y ∈ ↓c : ↑x = ↑y \\ ↓c}; the closed forms proved for the worked
instances live in the test suite as the second route.
"""

from __future__ import annotations

import itertools

from ._canon import canon_key, canon_sorted, fmt
from ._record import record
from .errors import InputError
from .sdf import (
    PerMove,
    RandomMove,
    Sdf,
    nodes_of_event,
    outcomes_of_event,
    scenario_outcomes,
)
from .sigma_info import Eis
from .verdict import Verdict


@record(frozen=True)
class Choice:
    """A nonempty union of nodes, stored as its outcome set."""

    outcomes: frozenset

    @classmethod
    def of(cls, s: Sdf, outcomes) -> "Choice":
        outcomes = frozenset(outcomes)
        if not outcomes:
            raise InputError("a choice must be nonempty", code="not-a-choice")
        if not outcomes <= s.forest.universe:
            raise InputError(
                f"outcomes {fmt(outcomes - s.forest.universe)} outside the universe",
                code="not-a-choice",
            )
        covered = frozenset().union(*(x for x in s.forest.nodes if x <= outcomes))
        uncovered = outcomes - covered
        if uncovered:
            raise InputError(
                f"no union of nodes realises the choice; uncovered outcome "
                f"{fmt(canon_sorted(uncovered)[0])}",
                code="not-a-choice",
            )
        return cls(outcomes)

    def canon_key(self):
        return ("choice", canon_key(self.outcomes))

    def fmt(self) -> str:
        return fmt(self.outcomes)


class Rcs(PerMove):
    """Reference choice structure: a set of choices per random move."""

    _tag, _miss = "rcs", "no reference choices for"
    _value = frozenset


def down_set(s: Sdf, outcomes) -> frozenset:
    """↓c = {x ∈ F | c ⊇ x}; defined for arbitrary outcome subsets."""
    outcomes = frozenset(outcomes)
    return frozenset(x for x in s.forest.nodes if x <= outcomes)


def predecessors(s: Sdf, outcomes) -> frozenset:
    """P(c) by the literal definition: quantify over y ∈ ↓c and compare up-sets."""
    dc = down_set(s, outcomes)
    out = set()
    for y in dc:
        hit = s.by_up.get(s.up[y] - dc)
        if hit is not None:
            out.add(hit)
    return frozenset(out)


def restrict_check(s: Sdf, outcomes, event) -> Verdict:
    """The restriction identity P(c ∩ W_A) = P(c) ∩ F_A for one (c, A).

    Underpins every adaptedness computation. When c ∩ W_A is empty the
    identity still makes sense (both sides empty); the verdict notes that the
    restriction is then not a choice.
    """
    event = frozenset(event)
    if not s.space.is_event(event):
        raise InputError(f"not an event: {fmt(event)}", witness=event)
    outcomes = frozenset(outcomes)
    restricted = outcomes & outcomes_of_event(s, event)
    lhs = predecessors(s, restricted)
    rhs = predecessors(s, outcomes) & nodes_of_event(s, event)
    notes = ()
    if not restricted:
        notes = ("c ∩ W_A is empty, hence not a choice",)
    if lhs != rhs:
        return Verdict.failed(
            "restriction-identity",
            f"P(c ∩ W_A) = {fmt(lhs)} but P(c) ∩ F_A = {fmt(rhs)}",
            *notes,
        )
    return Verdict.passed(*notes)


@record(frozen=True)
class ChoiceFlags:
    non_redundant: bool
    complete: bool
    available_at: frozenset  # random moves with full preimage
    redundancy_witness: tuple = ()
    completeness_witness: tuple = ()


def preimage(s: Sdf, move: RandomMove, node_set) -> frozenset:
    """x⁻¹(S) = {ω ∈ D_x | x(ω) ∈ S}."""
    node_set = frozenset(node_set)
    return frozenset(w for w, node in move.items() if node in node_set)


def classify(s: Sdf, c: Choice) -> ChoiceFlags:
    """Non-redundancy, completeness, and the moves the choice is available at."""
    p = predecessors(s, c.outcomes)
    non_redundant = True
    red_witness = ()
    for w in s.sorted_scenarios:
        if not (p & s.fibre.get(w, frozenset())) and c.outcomes & scenario_outcomes(s, w):
            non_redundant = False
            red_witness = (w,)
            break
    complete = True
    comp_witness = ()
    available = set()
    for m in s.sorted_moves:
        pre = preimage(s, m, p)
        if pre == m.domain:
            available.add(m)
        elif pre:
            complete = False
            if not comp_witness:
                comp_witness = (m,)
    return ChoiceFlags(
        non_redundant, complete, frozenset(available), red_witness, comp_witness
    )


def verify_rcs(s: Sdf, r: Rcs) -> Verdict:
    """Every listed choice is non-redundant, complete, and available at its move."""
    if r.moves() != s.random_moves:
        raise InputError(
            "reference choice structure does not index exactly the random moves"
        )
    for m, cs in r.entries:
        failures = {}
        for c in cs:
            flags = classify(s, c)
            if not (flags.non_redundant and flags.complete and m in flags.available_at):
                failures[c] = flags
        if not failures:
            continue
        # the witness is the canonically first failing choice at the move
        c = min(failures, key=canon_key)
        flags = failures[c]
        if not flags.non_redundant:
            return Verdict.failed(
                "rcs-redundant",
                f"choice {c.fmt()} at {m.fmt()} is redundant "
                f"(scenario {fmt(flags.redundancy_witness[0])})",
            )
        if not flags.complete:
            return Verdict.failed(
                "rcs-incomplete",
                f"choice {c.fmt()} at {m.fmt()} is incomplete "
                f"(move {flags.completeness_witness[0].fmt()})",
            )
        return Verdict.failed(
            "rcs-unavailable", f"choice {c.fmt()} is not available at {m.fmt()}"
        )
    return Verdict.passed()


def adapted_at_move(s: Sdf, e: Eis, r: Rcs, c: Choice, move: RandomMove) -> Verdict:
    """The adaptedness condition at one move: x⁻¹(P(c ∩ c')) ∈ F_x for all c' ∈ C_x.

    An empty intersection c ∩ c' gives P(∅) = ∅ under the literal definition,
    whose preimage ∅ is measurable, so no convention beyond the definition is
    needed.
    """
    sigma = e.for_move(move)
    failures = {}
    for ref in r.for_move(move):
        event = preimage(s, move, predecessors(s, c.outcomes & ref.outcomes))
        if not sigma.contains(event):
            failures[ref] = event
    if not failures:
        return Verdict.passed()
    # the witness is the canonically first failing reference choice
    ref = min(failures, key=canon_key)
    return Verdict.failed(
        "not-adapted",
        f"x⁻¹(P(c ∩ c')) = {fmt(failures[ref])} ∉ F_x at {move.fmt()} "
        f"for reference {ref.fmt()}",
    )


def is_adapted(s: Sdf, e: Eis, r: Rcs, c: Choice) -> Verdict:
    """Adaptedness of a non-redundant complete choice w.r.t. an EIS and an RCS."""
    flags = classify(s, c)
    if not (flags.non_redundant and flags.complete):
        raise InputError(
            f"adaptedness requires a non-redundant complete choice; got {c.fmt()}",
            code="precondition-violation",
        )
    for m in s.sorted_moves:
        if m not in flags.available_at:
            continue
        verdict = adapted_at_move(s, e, r, c, m)
        if not verdict:
            return verdict
    return Verdict.passed()
