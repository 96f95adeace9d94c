"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's algorithms: maximal chains
by full subset enumeration, up-sets, down-sets, covers, extremal elements,
trees and separation by scanning every element instead of the poset's
index, rendering by the original `fmt` cascade, the action-path lookups
(a time's position on the axis, an agent's projection and components, a
move's algebra, reference choices and time) by scanning their tuples,
agent reference choices by one window choice per
(history subset, component subset) pair, and by the unions of the
library's per-history pieces (`agent_rcs`, the family Theorem 4.11's
per-case oracle `check_measurable_iff_adapted` reads), the piece table of
an agent by one window choice per (move, component set, history) over every
path (`brute_agent_pieces`), Theorem 4.11's sweep by the literal agent ×
structure × row loops (`oracle_measurability_sweep`), the window-choice verdicts by canonical scans, canonical keys by the type-tag
cascade that wraps every number in a Fraction, the no-forgetting trace
check by listing every event, the information structures and their
order by sorting every result, ≥_X, the derived tree, the EIS check and the
EIS search with its work count by one `ge_x` per ordered pair of moves, the RCS and adaptedness witnesses by
scanning in canonical order, the poset axioms, forest-ness, axiom 1, axiom
2, axiom 3c and the evaluation bijection by walking their elements in
canonical order (the checks the library decides on sets and sorts only to
name a failure), the maximal-chain work by counting cover paths, the AP.W
assumptions by
walking the whole path space A^|T| and every time subset, AP.C3 by trying
every history set that covers the required prefixes against a listed
generator table, the JSON report by building its payload and handing it to
`json.dumps`, the action-path parser by walking every entry with its
per-value type checks and the time axis by sorting a set of its points
(`oracle_parse_instance`), predecessors never
(the library is the literal definition; expected values for those come from
the worked instances' closed forms).
"""

from __future__ import annotations

import fractions
import itertools
import json
from collections import namedtuple
from fractions import Fraction
from functools import cache

import pytest

from sdfkit import action_path, errors, examples
from sdfkit._canon import canon_key, canon_sorted, fmt
from sdfkit.action_path import (
    ActionSpace,
    Apc3Result,
    PathOutcomes,
    TimeAxis,
    WindowChoice,
    WindowChoiceSpec,
    _lifted,
    _meets_every_node,
    _own_prefix,
    _piece,
    agent_choice,
    build_action_path_sdf,
    check_apc3,
    product_outcomes,
    timing_outcomes,
    up_and_out_outcomes,
    window_choice,
)
from sdfkit.choice import (
    Choice,
    Rcs,
    adapted_at_move,
    classify,
    predecessors,
    preimage,
    verify_rcs,
)
from sdfkit.cli import InstanceDoc, ParseError
from sdfkit.errors import InputError, KernelError, SizeCapError, StructureError, not_a_forest, unknown_element
from sdfkit.gen import rng_from_env
from sdfkit.order_core import Poset, maximal_chains
from sdfkit.sdf import ScenarioSpace, TTree, ge_x, x_order
from sdfkit.sigma_info import Eis, sub_sigma_candidates
from sdfkit.verdict import MultiVerdict, Verdict


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


def brute_set_partitions(items, fits=None, label="set"):
    """`set_partitions` as first written: one recursive call per search node,
    counted against `WORK_CAP` on entry. The reference for the partition
    sequence, the calls of `fits` and the node at which the cap is reached."""
    items = list(items)
    work = 0
    cap = errors.WORK_CAP

    def rec(i, blocks):
        nonlocal work
        work += 1
        if work > cap:
            raise SizeCapError(
                f"{label} partition enumeration exceeded {cap} work units"
            )
        if i == len(items):
            yield [list(b) for b in blocks]
            return
        x = items[i]
        for b in blocks:
            if fits is None or fits(b, x):
                b.append(x)
                yield from rec(i + 1, blocks)
                b.pop()
        blocks.append([x])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def oracle_up_set(p, x):
    """{y | y >= x} by scanning every element."""
    if x not in p.elements:
        raise unknown_element(x)
    return frozenset(y for y in p.elements if p.ge(y, x))


def oracle_down_set(p, x):
    if x not in p.elements:
        raise unknown_element(x)
    return frozenset(y for y in p.elements if p.ge(x, y))


def oracle_maximal_elements(p):
    return frozenset(
        x for x in p.elements if not any(p.gt(y, x) for y in p.elements)
    )


def oracle_minimal_elements(p):
    return frozenset(
        x for x in p.elements if not any(p.gt(x, y) for y in p.elements)
    )


def oracle_covers(p, x):
    """y < x with no z strictly between; empty for a non-element."""
    below = [y for y in p.elements if p.gt(x, y)]
    return frozenset(
        y for y in below if not any(p.gt(x, z) and p.gt(z, y) for z in below)
    )


def oracle_is_tree(p):
    """A forest (every up-set a chain) whose up-sets pairwise intersect."""
    for x in canon_sorted(p.elements):
        if not p.is_chain(oracle_up_set(p, x)):
            raise not_a_forest(x)
    return all(
        bool(oracle_up_set(p, x) & oracle_up_set(p, y))
        for x, y in itertools.combinations(p.elements, 2)
    )


def oracle_separation_witness(p):
    """The first canonical pair that no maximal chain holds exactly one of."""
    chains = maximal_chains(p)
    for x, y in itertools.combinations(canon_sorted(p.elements), 2):
        if not any(len(c & {x, y}) == 1 for c in chains):
            return (x, y)
    return None


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


def oracle_fmt(value) -> str:
    """Rendering by the original cascade: sets in canonical order, tuples,
    Fractions, strings, then the value's own `fmt`, then repr."""
    if isinstance(value, (frozenset, set)):
        return "{" + ", ".join(oracle_fmt(v) for v in sorted(value, key=oracle_canon_key)) + "}"
    if isinstance(value, tuple):
        return "(" + ", ".join(oracle_fmt(v) for v in value) + ")"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, str):
        return value
    custom = getattr(value, "fmt", None)
    if custom is not None and not isinstance(value, type):
        return custom()
    return repr(value)


def scan_as_time(value) -> Fraction:
    """`as_time` as first written: every value made a new Fraction."""
    t = Fraction(value)
    if t < 0:
        raise InputError(f"time points must be nonnegative rationals: {value!r}")
    return t


def scan_time_index(axis, t) -> int:
    """`TimeAxis.index` by the literal scan: t made a time, then compared
    with every point."""
    t = scan_as_time(t)
    try:
        return axis.points.index(t)
    except ValueError:
        raise InputError(f"time {t} not on the axis", witness=t) from None


def scan_project(space, agent, action):
    """`ActionSpace.project` by scanning the agents, then the agent's table."""
    for a, table in space.projections or ():
        if a == agent:
            for act, comp in table:
                if act == action:
                    return comp
    raise InputError(f"no projection for agent {agent!r}", code="no-factorization")


def scan_components(space, agent) -> frozenset:
    """`ActionSpace.components` by scanning the agents."""
    for a, table in space.projections or ():
        if a == agent:
            return frozenset(comp for _, comp in table)
    raise InputError(f"no projection for agent {agent!r}", code="no-factorization")


def scan_eis_for_move(e, move):
    """`Eis.for_move` by scanning the entries; the first match wins."""
    for m, sigma in e.entries:
        if m == move:
            return sigma
    raise InputError(f"no algebra for move {move.fmt()}", code="carrier-mismatch")


def scan_rcs_for_move(r, move) -> frozenset:
    """`Rcs.for_move` by scanning the entries; the first match wins."""
    for m, cs in r.entries:
        if m == move:
            return cs
    raise InputError(f"no reference choices for {move.fmt()}")


def scan_time_of_move(aps, move):
    """`ActionPathSdf.time_of_move` by scanning the move-time pairs."""
    for m, t in aps.move_times:
        if m == move:
            return t
    raise InputError(f"unknown random move {move.fmt()}")


def brute_trace_failure(sigma, domain, other):
    """The first event E of `sigma`, in canonical order, with E ∩ domain not
    an event of `other`, by listing all 2^k events; None when there is none."""
    return next(
        (
            ev
            for ev in sigma.events()
            if not other.contains(ev & domain)
        ),
        None,
    )


def brute_enumerate_eis(s):
    """Every information structure by the first-written search: the linear
    extension of ≥_X by repeated canonical minimum over the ready moves of
    `x_order`, a trace check per (placed move, candidate) pair that names its
    witness, each structure sorted by move (`Eis.of`) and the list sorted by
    the per-move atom keys along the extension. The reference for the
    structures and their order; no Bell-number cap."""
    order = x_order(s)
    moves = []
    remaining = set(s.random_moves)
    while remaining:
        ready = [
            m
            for m in remaining
            if all(other in moves or not order.gt(other, m) for other in s.random_moves)
        ]
        nxt = min(ready, key=canon_key)
        moves.append(nxt)
        remaining.discard(nxt)
    candidates = {m: sub_sigma_candidates(s.space, m.domain) for m in moves}
    results = []
    assignment: dict = {}

    def assign(i):
        if i == len(moves):
            results.append(Eis.of(dict(assignment)))
            return
        m = moves[i]
        for sigma in candidates[m]:
            if all(
                earlier_sigma.trace_failure(m.domain, sigma) is None
                for earlier, earlier_sigma in assignment.items()
                if earlier != m and ge_x(earlier, m)
            ):
                assignment[m] = sigma
                assign(i + 1)
                del assignment[m]

    assign(0)
    results.sort(key=lambda e: tuple(canon_key(e.for_move(m).atoms) for m in moves))
    return tuple(results)


def scan_enumerate_eis(s):
    """`enumerate_eis` as first written with its work count: the `above`
    table by one `ge_x` per ordered pair of moves, the linear extension by
    scanning every move at every step, one candidate list built per move and
    each trace decided at every try. The reference for the structures, their
    order, the work units and the point where the cap is reached."""
    work, cap = 0, errors.WORK_CAP

    def count(units):
        nonlocal work
        work += units
        if work > cap:
            raise SizeCapError(f"EIS enumeration exceeded {cap} work units")

    moves = s.sorted_moves
    above = {m: [o for o in moves if o != m and ge_x(o, m)] for m in moves}
    order: list = []
    placed: set = set()
    while len(order) < len(moves):
        nxt = next(m for m in moves if m not in placed and placed.issuperset(above[m]))
        order.append(nxt)
        placed.add(nxt)
    candidates = {}
    for m in order:
        candidates[m] = sub_sigma_candidates(s.space, m.domain)
        count(len(candidates[m]))

    results, assignment = [], {}

    def fits(m, sigma):
        count(1)
        return all(assignment[o].traces_into(m.domain, sigma) for o in above[m])

    tries: list = []  # tries[i]: the candidates of order[i] not yet tried
    while True:
        if len(tries) == len(order):
            results.append(Eis(tuple((m, assignment[m]) for m in moves)))
        else:
            tries.append(iter(candidates[order[len(tries)]]))
        # place the next fitting candidate of the deepest move that has one left
        while tries:
            m = order[len(tries) - 1]
            sigma = next((c for c in tries[-1] if fits(m, c)), None)
            if sigma is not None:
                assignment[m] = sigma
                break
            tries.pop()
        else:
            return tuple(results)


def pairwise_verify_eis(s, e):
    """`verify_eis` over every ordered pair of moves in canonical order, one
    `ge_x` each, naming the first pair that fails the trace condition."""
    if e.moves() != s.random_moves:
        raise InputError(
            "information structure does not index exactly the random moves",
            code="carrier-mismatch",
        )
    for m, sigma in e.entries:
        if sigma.carrier != m.domain:
            raise InputError(
                f"carrier {fmt(sigma.carrier)} differs from the domain of {m.fmt()}",
                code="carrier-mismatch",
            )
    for m, sigma in e.entries:
        bad = [atom for atom in sigma.atoms if not s.space.is_event(atom)]
        if bad:
            return Verdict.failed(
                "eis-not-sub-algebra",
                f"atom {fmt(min(bad, key=canon_key))} of the algebra at {m.fmt()} "
                "is not an event",
            )
    for m1, sigma1 in e.entries:
        for m2, sigma2 in e.entries:
            if m1 == m2 or not ge_x(m1, m2):
                continue
            event = sigma1.trace_failure(m2.domain, sigma2)
            if event is not None:
                return Verdict.failed(
                    "eis-trace-violation",
                    f"E = {fmt(event)} at {m1.fmt()} traces to "
                    f"{fmt(frozenset(event & m2.domain))} ∉ algebra at {m2.fmt()}",
                )
    return Verdict.passed()


def pairwise_x_above(s):
    """m ↦ the moves o ≠ m with o ≥_X m, by one `ge_x` per ordered pair."""
    return {
        m: frozenset(o for o in s.random_moves if o != m and ge_x(o, m))
        for m in s.random_moves
    }


def pairwise_ttree(s):
    """`Sdf.ttree` with its pairs tested one by one: `ge_x` for every ordered
    pair of moves, containment for every move and terminal."""
    terminals = frozenset(
        (s.proj[x], next(iter(x))) for x in s.terminal_nodes if len(x) == 1
    )
    elements = set(s.random_moves) | set(terminals)
    pairs = set()
    for m1 in s.random_moves:
        for m2 in s.random_moves:
            if ge_x(m1, m2):
                pairs.add((m1, m2))
    for m in s.random_moves:
        for (w, out) in terminals:
            if w in m.domain and out in m.node_at(w):
                pairs.add((m, (w, out)))
    return TTree(Poset.of(elements, pairs), frozenset(s.random_moves), terminals)


def brute_verify_rcs(s, r):
    """`verify_rcs` by the canon-sorted scan: per move, the choices in
    canonical order, the first failure wins."""
    for m, cs in r.entries:
        for c in canon_sorted(cs):
            flags = classify(s, c)
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
            if m not in flags.available_at:
                return Verdict.failed(
                    "rcs-unavailable", f"choice {c.fmt()} is not available at {m.fmt()}"
                )
    return Verdict.passed()


def brute_adapted_at_move(s, e, r, c, move):
    """`adapted_at_move` by the canon-sorted scan over the reference
    choices at the move; the first failure wins."""
    sigma = e.for_move(move)
    for ref in canon_sorted(r.for_move(move)):
        event = preimage(s, move, predecessors(s, c.outcomes & ref.outcomes))
        if not sigma.contains(event):
            return Verdict.failed(
                "not-adapted",
                f"x⁻¹(P(c ∩ c')) = {fmt(event)} ∉ F_x at {move.fmt()} "
                f"for reference {ref.fmt()}",
            )
    return Verdict.passed()


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


def agent_rcs(aps, agent):
    """The agent's full reference choice structure, built as unions of the
    library's per-history pieces, each read through `_piece`: per move x
    and component set G whose own-prefix piece passes C0-C2 and meets every
    node of x, piece_G(p_x) ∪ ⋃S over every set S of G's other passing
    pieces among the realized histories at x's time, 2^(H-1) unions per G.
    The family `check_measurable_iff_adapted` reads; compared with
    `brute_agent_rcs` on small inputs."""
    po = aps.po
    components = canon_sorted(po.space.components(agent))
    per_move = {}
    for move, t in aps.move_times:
        own = _own_prefix(po, move, t)
        found = per_move.setdefault(move, set())
        for r in range(1, len(components) + 1):
            for comp_set in itertools.combinations(components, r):
                g_set = frozenset(comp_set)
                own_entry = _piece(aps, agent, move, g_set, own)
                if own_entry is None or not own_entry[1]:
                    continue
                if not all(node & own_entry[0] for _, node in move.items()):
                    continue
                unions = {own_entry[0]}
                for h in po.index.realized_prefixes(t):
                    entry = _piece(aps, agent, move, g_set, h)
                    if entry is not None and entry[1] and h != own:
                        unions |= {u | entry[0] for u in unions}
                found |= {Choice.of(aps.sdf, u) for u in unions}
    return Rcs.of(per_move)


def brute_agent_pieces(aps, agent):
    """The pieces `_agent_pieces` and `_piece` decide, and the own-prefix
    family, as they were built from full window choices: one window
    choice per (move, component set G, realized history h), over every path,
    with G lifted through `_lifted` on the move's domain, and decided by the
    canonical scans of `brute_window_choice`. Not kept on `aps`, so it never
    reads the library's table."""
    po = aps.po
    idx = po.index
    table: dict = {}
    per_move: dict = {}
    components = canon_sorted(po.space.components(agent))
    for move, t in aps.move_times:
        histories = idx.realized_prefixes(t)
        own = _own_prefix(po, move, t)
        found = set()
        for cr in range(1, len(components) + 1):
            for comp_set in itertools.combinations(components, cr):
                g_set = frozenset(comp_set)
                per_scenario = _lifted(po, agent, dict.fromkeys(move.domain, g_set))
                held = table[move, g_set] = {}
                for h in histories:
                    wc = brute_window_choice(po, WindowChoiceSpec.of(t, (h,), per_scenario))
                    if wc.outcomes:
                        held[h] = (wc.outcomes, wc.ok)
                own_piece, own_ok = held.get(own, (frozenset(), False))
                if own_ok and _meets_every_node(move, own_piece):
                    found.add(own_piece)
        per_move[move] = frozenset(Choice.of(aps.sdf, o) for o in found)
    own_family = Rcs.of(per_move)
    verdict = verify_rcs(aps.sdf, own_family)
    if not verdict:
        raise StructureError(
            f"agent reference choices fail to verify: {verdict.describe()}"
        )
    return table, own_family


def scan_d_set(po, prefix) -> frozenset:
    """D(p) by the literal scan: the scenarios whose group at p holds at
    least two outcomes, each scenario's group looked at in turn."""
    return frozenset(
        w for w in po.scenarios.scenarios if len(po.index.group(w, prefix)) >= 2
    )


def scan_stuck(po) -> frozenset:
    """The stuck groups by the definition of W1: every (ω, f[:i]) with
    i ≤ |T| − 2 along an outcome (ω, f) whose node, of at least two
    outcomes, coincides with the node at f[:i + 1]."""
    group = po.index.group
    return frozenset(
        (w, f[:i])
        for w, f in po.paths
        for i in range(len(po.time.points) - 1)
        if len(group(w, f[:i])) >= 2 and group(w, f[:i]) == group(w, f[: i + 1])
    )


def brute_window_choice(po, spec):
    """`window_choice` by the canonical scans: C1 over the outcomes and C2
    over the histories in canonical order, the first failure wins; a
    wrong-length history raises when the scan reaches it."""
    idx = po.index
    k = po.time.index(spec.t)
    outcomes = frozenset(
        (w, f)
        for w, f in po.paths
        if f[:k] in spec.histories and f[k] in spec.actions_for(w)
    )
    c0 = Verdict.passed() if outcomes else Verdict.failed("apc0", "the window choice is empty")
    c1 = Verdict.passed()
    for w in canon_sorted(outcomes):
        if not (idx.group(w[0], w[1][:k]) - outcomes):
            c1 = Verdict.failed("apc1", f"no alternative to {fmt(w)} inside its node")
            break
    c2 = Verdict.passed()
    for h in canon_sorted(spec.histories):
        if len(h) != k:
            raise InputError(
                f"history {fmt(h)} has length {len(h)}, expected {k}", witness=h
            )
        d = scan_d_set(po, h)
        meets = frozenset(w for w in d if idx.group(w, h) & outcomes)
        if meets and meets != d:
            c2 = Verdict.failed(
                "apc2",
                f"history {fmt(h)}: choice meets the node for {fmt(meets)} "
                f"but the move event is {fmt(d)}",
            )
            break
    return WindowChoice(spec, outcomes, MultiVerdict((("C0", c0), ("C1", c1), ("C2", c2))))


@cache
def brute_intersection_stable_generators(components: frozenset) -> list:
    """Candidate generators of the power set of the component set.

    The canonical candidate (all proper subsets) first, then every other
    intersection-stable family that generates the full power set; only
    feasible for small component sets.
    """
    subsets = [
        frozenset(c)
        for r in range(len(components) + 1)
        for c in itertools.combinations(canon_sorted(components), r)
    ]
    canonical = frozenset(s for s in subsets if s != components)

    def generates(family) -> bool:
        profiles = {
            x: tuple(x in g for g in canon_sorted(family)) for x in components
        }
        return len(set(profiles.values())) == len(components)

    def stable(family) -> bool:
        return all(g1 & g2 in family for g1 in family for g2 in family)

    out = [canonical]
    if len(components) <= 3:
        for r in range(len(subsets) + 1):
            for fam in itertools.combinations(subsets, r):
                fam = frozenset(fam)
                if fam != canonical and stable(fam) and generates(fam):
                    out.append(fam)
    return out


def brute_check_apc3(aps, agent, move, *, choice=None, max_candidates=512):
    """AP.C3 by search: every history set required ∪ S, S ⊆ the other
    realized histories (required, all realized, then by size, cut at
    `max_candidates`), against every listed generator; the first hit wins.
    Lists only the canonical generator for more than 3 components; exact
    below that. The reference the decided `check_apc3` is compared against."""
    po = aps.po
    if po.space.agents is None:
        raise InputError("outcome set carries no factorization", code="no-factorization")
    t = aps.time_of_move(move)
    k = po.time.index(t)
    if choice is not None:
        required = frozenset(f[:k] for _, f in choice.outcomes)
    else:
        required = frozenset(
            next(iter(move.node_at(w)))[1][:k] for w in move.domain
        )
    realized = frozenset(po.index.realized_prefixes(t))
    if not required <= realized:
        raise InputError("required prefixes are not realized", witness=required)
    optional = canon_sorted(realized - required)
    candidates = [required, realized]
    for r in range(1, len(optional) + 1):
        for combo in itertools.combinations(optional, r):
            candidates.append(required | frozenset(combo))
    seen: set = set()
    unique_candidates = []
    for cand in candidates:
        if cand not in seen:
            seen.add(cand)
            unique_candidates.append(cand)
    capped = len(unique_candidates) > max_candidates
    unique_candidates = unique_candidates[:max_candidates]
    references = agent_rcs(aps, agent).for_move(move)
    for histories in unique_candidates:
        for generator in brute_intersection_stable_generators(po.space.components(agent)):
            hit = True
            for g_set in canon_sorted(generator):
                per_scenario = {
                    w: frozenset(
                        a for a in po.space.actions if po.space.project(agent, a) in g_set
                    )
                    if w in move.domain
                    else frozenset()
                    for w in po.scenarios.scenarios
                }
                wc = window_choice(po, WindowChoiceSpec.of(t, histories, per_scenario))
                if not wc.outcomes:
                    continue
                if not (
                    wc.ok
                    and all(node & wc.outcomes for _, node in move.items())
                    and Choice.of(aps.sdf, wc.outcomes) in references
                ):
                    hit = False
                    break
            if hit:
                return Apc3Result(
                    Verdict.passed(
                        f"A'_<t with {len(histories)} histories, generator of "
                        f"{len(generator)} sets"
                    ),
                    histories,
                    generator,
                )
    notes = ("candidate search capped; verdict not exhaustive",) if capped else ()
    return Apc3Result(
        Verdict(False, "apc3-not-found", "no (A'_<t, generator) pair found", notes=notes)
    )


# Theorem 4.11 at one move, as `check_measurable_iff_adapted` finds it.
OracleRecord = namedtuple("OracleRecord", "move measurable adapted apc3")


class OracleReport(namedtuple("OracleReport", "forward backward records")):
    """`check_measurable_iff_adapted`'s result: the first forward and the
    first backward failure, if any, and one `OracleRecord` per move."""

    @property
    def ok(self) -> bool:
        return self.forward.ok and self.backward.ok

    def item(self) -> Verdict:
        """`thm4-11`'s item for the case: the failed implications, forward
        first, described in one failure, or a passed verdict."""
        failed = [v.describe() for v in (self.forward, self.backward) if not v.ok]
        return Verdict.failed("thm4-11", "; ".join(failed)) if failed else Verdict(ok=True)


def case_records(case, e: Eis) -> tuple:
    """One `OracleRecord` per row (move, levels, events, apc3) of
    `case.moves`, with the level sets and the events tested against e's
    σ-algebra at the move one by one, not through `case.verdict`."""
    records = []
    for move, levels, events, apc3 in case.moves:
        sigma = e.for_move(move)
        measurable = all(sigma.contains(level) for level in levels)
        adapted = all(sigma.contains(event) for event in events)
        records.append(OracleRecord(move, measurable, adapted, apc3))
    return tuple(records)


def check_measurable_iff_adapted(aps, agent, e: Eis, t, histories, g) -> OracleReport:
    """Theorem 4.11 for one case by the definition: measurability of g versus
    adaptedness of c(A_<t, i, g) over every reference choice of
    `agent_rcs`, per move c is available at. The per-case oracle that
    `MeasurabilityCase(...).verdict(e)` and the case's per-move table are
    compared against.

    Forward: measurability of g on D_x implies the adaptedness condition at
    x. Backward: when the generator search succeeds, the adaptedness
    condition at x implies measurability. D_x ⊆ D holds by construction
    and is not reported (see `MeasurabilityCase`).
    """
    wc = agent_choice(aps.po, t, histories, agent, g)
    if not wc.ok:
        raise InputError(
            f"c(A_<t, i, g) fails C0-C2: {wc.verdicts.describe()}",
            code="precondition-violation",
        )
    s = aps.sdf
    c = Choice.of(s, wc.outcomes)
    rcs = agent_rcs(aps, agent)
    flags = classify(s, c)
    forward = Verdict.passed()
    backward = Verdict.passed()
    records = []
    for move in canon_sorted(flags.available_at):
        sigma = e.for_move(move)
        measurable = all(
            sigma.contains(frozenset(w for w in move.domain if g[w] == value))
            for value in canon_sorted({g[w] for w in move.domain})
        )
        adapted = adapted_at_move(s, e, rcs, c, move).ok
        apc3 = check_apc3(aps, agent, move, choice=wc).verdict.ok
        if measurable and not adapted and forward.ok:
            forward = Verdict.failed(
                "forward-implication",
                f"g measurable at {move.fmt()} but the choice is not adapted there",
            )
        if apc3 and adapted and not measurable and backward.ok:
            backward = Verdict.failed(
                "backward-implication",
                f"choice adapted at {move.fmt()} with AP.C3, but g not measurable",
            )
        records.append(OracleRecord(move, measurable, adapted, apc3))
    return OracleReport(forward, backward, tuple(records))


# One case of `oracle_measurability_sweep`: `eis_index` is the 1-based
# position of the structure, `label` "all" (every realized history at t) or
# "own" (the move's own prefix), `result` the item or the error raised.
SweepCase = namedtuple("SweepCase", "agent eis_index t label histories g result")


def oracle_measurability_sweep(aps, structures):
    """Theorem 4.11 over every agent × EIS × move × {all, own} × total map g,
    in that loop order: one `SweepCase` per case, whose `result` is
    `MeasurabilityCase(...).verdict(e)` or the `KernelError` that building
    the case or its item raised. The histories are read off the path
    index and the move's nodes. A case is a function of (agent, t,
    histories, g), so it is built once, at the first structure that
    reaches it; nothing is built without a structure."""
    po = aps.po
    scenarios = canon_sorted(po.scenarios.scenarios)
    cases: dict = {}
    for agent in po.space.agents or ():
        components = canon_sorted(po.space.components(agent))
        for index, e in enumerate(structures, start=1):
            for move, t in aps.move_times:
                k = po.time.index(t)
                own = frozenset(f[:k] for node in move.image for _, f in node)
                for label, histories in (("all", po.index.realized_prefixes(t)), ("own", own)):
                    for values in itertools.product(components, repeat=len(scenarios)):
                        g = dict(zip(scenarios, values))
                        key = (agent, t, histories, values)
                        if key not in cases:
                            try:
                                cases[key] = action_path.MeasurabilityCase(
                                    aps, agent, t, histories, g
                                )
                            except KernelError as err:
                                cases[key] = err
                        result = cases[key]
                        if not isinstance(result, KernelError):
                            try:
                                result = result.verdict(e)
                            except KernelError as err:
                                result = err
                        yield SweepCase(agent, index, t, label, histories, g, result)


def _all_prefixes(po: PathOutcomes, length: int):
    return itertools.product(canon_sorted(po.space.actions), repeat=length)


def brute_w1(po: PathOutcomes) -> Verdict:
    """AP.W1 over every outcome in canonical order and every pair of times
    i < j on it: the first pair whose nodes coincide on a non-singleton."""
    idx = po.index
    points = po.time.points
    w1 = Verdict.passed()
    for w, f in canon_sorted(po.paths):
        for i, j in itertools.combinations(range(len(points)), 2):
            xi = idx.group(w, f[:i])
            xj = idx.group(w, f[:j])
            if xi == xj and len(xi) != 1:
                w1 = Verdict.failed(
                    "apw1",
                    f"x at t={points[i]} and t={points[j]} coincide on the "
                    f"non-singleton {fmt(xi)}",
                )
                break
        if not w1.ok:
            break
    return w1


def brute_check_apw(po: PathOutcomes) -> MultiVerdict:
    """AP.W0-W4 by enumeration: W0 and W3 over every prefix in A^i, W2 over
    every (scenario, path in A^|T|, time subset) triple. Exponential in |T|,
    and uncapped: the reference the decided `check_apw` is compared against
    on small instances."""
    idx = po.index
    points = po.time.points
    items = []

    w0 = Verdict.passed()
    for i, t in enumerate(points):
        for p in _all_prefixes(po, i):
            d = scan_d_set(po, p)
            if not po.scenarios.is_event(d):
                w0 = Verdict.failed(
                    "apw0",
                    f"D_(t={t}, prefix={fmt(p)}) = {fmt(d)} is not an event",
                )
                break
        if not w0.ok:
            break
    items.append(("W0", w0))

    items.append(("W1", brute_w1(po)))

    subset_pool = [
        c
        for r in range(len(points) + 1)
        for c in itertools.combinations(range(len(points)), r)
    ]
    w2 = Verdict.passed("mode: exhaustive")
    for w in canon_sorted(po.scenarios.scenarios):
        for f_tilde in _all_prefixes(po, len(points)):
            for subset in subset_pool:
                if any(not idx.group(w, f_tilde[:i]) for i in subset):
                    continue
                if not any(
                    w2_ == w and all(f[:i] == f_tilde[:i] for i in subset)
                    for w2_, f in po.paths
                ):
                    w2 = Verdict.failed(
                        "apw2",
                        f"scenario {fmt(w)}, path {fmt(f_tilde)}, times "
                        f"{fmt(tuple(points[i] for i in subset))}: locally "
                        "consistent prefix extends to no outcome",
                    )
                    break
            if not w2.ok:
                break
        if not w2.ok:
            break
    items.append(("W2", w2))

    w3 = Verdict.passed()
    for i, t in enumerate(points):
        fs = list(_all_prefixes(po, i))
        for p, q in itertools.combinations(fs, 2):
            dp, dq = scan_d_set(po, p), scan_d_set(po, q)
            if not dp or not dq or (dp & dq):
                continue
            if not any(
                (scan_d_set(po, p[:j]) & scan_d_set(po, q[:j])) and p[:j] != q[:j]
                for j in range(i + 1)
            ):
                w3 = Verdict.failed(
                    "apw3",
                    f"t={t}: prefixes {fmt(p)} on {fmt(dp)} and {fmt(q)} on "
                    f"{fmt(dq)} could be identified",
                )
                break
        if not w3.ok:
            break
    items.append(("W3", w3))

    if po.space.agents is not None:
        items.append(("W4", po.space.verify_w4()))

    return MultiVerdict(tuple(items))


def brute_poset_failure(elements, pairs):
    """None, or the message of the first failing poset axiom with its first
    witness in canonical order, by the literal definitions: non-element,
    reflexivity, antisymmetry, then transitivity over every z."""
    pairs = frozenset(pairs)
    for x, y in canon_sorted(pairs):
        if x not in elements or y not in elements:
            return f"relation mentions non-element: {(x, y)!r}"
    for x in canon_sorted(elements):
        if (x, x) not in pairs:
            return f"relation not reflexive at {x!r}"
    for x, y in canon_sorted(pairs):
        if x != y and (y, x) in pairs:
            return f"relation not antisymmetric on {(x, y)!r}"
    for x, y in canon_sorted(pairs):
        for z in canon_sorted(elements):
            if (y, z) in pairs and (x, z) not in pairs:
                return f"relation not transitive via {(x, y, z)!r}"
    return None


def brute_forest_witness(p):
    """The first element in canonical order whose up-set is not a chain."""
    for x in canon_sorted(p.elements):
        if not p.is_chain(oracle_up_set(p, x)):
            return x
    return None


def brute_chain_work(p):
    """The work units `maximal_chains` spends: one per cover path from a
    maximal element, counted by dynamic programming down the covers."""
    paths = {}
    for x in sorted(p.elements, key=lambda x: len(oracle_up_set(p, x))):
        above = [y for y in p.elements if x in oracle_covers(p, y)]
        paths[x] = 1 if not above else sum(paths[y] for y in above)
    return sum(paths.values())


def brute_verify_own_representation(sf):
    """Axiom 1 walking outcomes, chains and nodes in canonical order."""
    from sdfkit import order_core
    from sdfkit.set_forest import decision_paths

    poset = sf.poset
    if not order_core.is_rooted_forest(poset):
        return Verdict.failed("not-rooted-forest", "node family is not a rooted forest")
    terminals = [x for x in sf.nodes if not any(x > y for y in sf.nodes)]
    for x in canon_sorted(terminals):
        if len(x) != 1:
            return Verdict.failed(
                "non-singleton-terminal", f"terminal node {fmt(x)} has {len(x)} outcomes"
            )
    chains = maximal_chains(poset)
    f = decision_paths(sf)
    image = {}
    for v in canon_sorted(sf.universe):
        chain = f[v]
        if chain not in chains:
            return Verdict.failed(
                "path-not-maximal-chain",
                f"outcome {fmt(v)}: ↑{{v}} = {fmt(chain)} is not a maximal chain",
            )
        if chain in image:
            return Verdict.failed(
                "not-injective",
                f"outcomes {fmt(image[chain])} and {fmt(v)} share the chain {fmt(chain)}",
            )
        image[chain] = v
    for c in canon_sorted(chains):
        if c not in image:
            return Verdict.failed(
                "not-surjective", f"maximal chain {fmt(c)} hit by no outcome"
            )
    for y in canon_sorted(sf.nodes):
        lhs = frozenset(f[v] for v in y)
        rhs = frozenset(c for c in chains if y in c)
        if lhs != rhs:
            return Verdict.failed(
                "image-mismatch",
                f"node {fmt(y)}: (Pf)(y) = {fmt(lhs)} but W(y) = {fmt(rhs)}",
            )
    return Verdict.passed()


def brute_check_evaluation_bijection(s):
    """ev on T•Ω in canonical order: into F, injective, onto F, then the
    order embedding over every ordered pair of pairs."""
    from sdfkit.sdf import RandomMove, t_dot_omega

    def evaluate(y, w):
        return y.node_at(w) if isinstance(y, RandomMove) else frozenset([y[1]])

    tree = s.ttree
    pairs = t_dot_omega(s)
    seen = {}
    for y, w in pairs:
        node = evaluate(y, w)
        if node not in s.forest.nodes:
            return Verdict.failed("ev-not-into-f", f"ev({fmt(w)}) hits non-node {fmt(node)}")
        if node in seen:
            return Verdict.failed("ev-not-injective", f"node {fmt(node)} hit twice")
        seen[node] = (y, w)
    if len(seen) != len(s.forest.nodes):
        missing = canon_sorted(s.forest.nodes - set(seen))[0]
        return Verdict.failed("ev-not-surjective", f"node {fmt(missing)} not in the image of ev")
    for y1, w1 in pairs:
        for y2, w2 in pairs:
            lhs = tree.poset.ge(y1, y2) and w1 == w2
            rhs = evaluate(y1, w1) >= evaluate(y2, w2)
            if lhs != rhs:
                return Verdict.failed(
                    "ev-not-order-embedding",
                    f"pairs ev⁻¹{fmt(evaluate(y1, w1))}, ev⁻¹{fmt(evaluate(y2, w2))} "
                    f"break the embedding ({lhs} vs {rhs})",
                )
    return Verdict.passed(f"|T•Ω| = {len(pairs)} = |F|")


def brute_axiom_3c(moves):
    """The first pair of `moves`, in their order, that meets ⊇ at a scenario
    (the first in canonical order) without x1 ≥_X x2."""
    for m1 in moves:
        for m2 in moves:
            for w in canon_sorted(m1.domain & m2.domain):
                if m1.node_at(w) >= m2.node_at(w):
                    if not ge_x(m1, m2):
                        return ("{} ⊇ {} at scenario {} without x1 ≥_X x2", m1, m2, w)
                    break
    return None


def brute_fibres(s):
    """Axiom 2 over the scenarios in canonical order, against the
    components listed by scanning every element."""
    poset = s.forest.poset
    witness = brute_forest_witness(poset)
    if witness is not None:
        raise not_a_forest(witness)
    # in a forest, two elements share a tree iff their up-sets meet
    components = {
        frozenset(y for y in poset.elements if oracle_up_set(poset, x) & oracle_up_set(poset, y))
        for x in poset.elements
    }
    fibre_sets = {w: s.fibre.get(w, frozenset()) for w in s.space.scenarios}
    for w in canon_sorted(s.space.scenarios):
        if not fibre_sets[w]:
            raise StructureError(
                f"scenario {fmt(w)} has an empty fibre (projection not surjective)",
                witness=w,
                code="fibre-mismatch",
            )
        if fibre_sets[w] not in components:
            raise StructureError(
                f"fibre of scenario {fmt(w)} is not a connected component: "
                f"{fmt(fibre_sets[w])}",
                witness=w,
                code="fibre-mismatch",
            )
    if len(components) != len(fibre_sets):
        raise StructureError("more components than scenarios", code="fibre-mismatch")
    return fibre_sets


def brute_report_to_json(report, doc) -> str:
    """The `--format=json` report as `json.dumps` writes its payload dict."""
    payload = {
        "kind": doc.kind,
        "name": doc.name,
        "caps": report.caps,
        "overall": "ok" if report.ok else "fail",
        "checks": [
            {
                "id": r.check_id,
                "status": r.status,
                "message": r.message,
                "items": [
                    {
                        "name": k,
                        "ok": v.ok,
                        "code": v.code,
                        "witness": v.witness,
                        "partial": v.partial,
                        "notes": list(v.notes),
                    }
                    for k, v in r.items
                ],
                "data": r.data,
            }
            for r in report.records
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2, default=str)


# ---------------------------------------------------------------------------
# the action-path parser that walks every entry, and the time axis it built
# by hashing and sorting every point; the parser's decided form must agree
# with it on every document, error texts and locations included


def oracle_time_axis(points) -> TimeAxis:
    """`TimeAxis.of` as a sorted set of the points, checked for 0 and for
    strict increase against `sorted(set(...))`."""
    points = tuple(sorted({action_path.as_time(p) for p in points}))
    if Fraction(0) not in points:
        raise StructureError("time axis must contain 0")
    if list(points) != sorted(set(points)):
        raise StructureError("time points must be strictly increasing")
    return TimeAxis(points)


def _expect(cond: bool, message: str, path: str):
    if not cond:
        raise ParseError(message, path=path)


def _get(obj, key, kind, path, optional=False):
    if key not in obj:
        _expect(optional, f"missing field {key!r}", path)
        return None
    value = obj[key]
    # JSON true/false parse to bools, which are ints too; no field takes one
    ok = isinstance(value, kind) and not isinstance(value, bool)
    _expect(ok, f"field {key!r} has the wrong type", f"{path}.{key}")
    return value


def _same_types(values, declared: dict, what: str, path: str):
    """Reject a value that equals a declared one of another type: JSON `true`
    equals 1, and 1.0 equals 1, yet neither is that value. `declared` maps
    each declared value to itself; a value it lacks is left to resolution.
    A JSON array or object is never a scenario, action, outcome, agent or
    component."""
    for value in values:
        _expect(not isinstance(value, (list, dict)), f"{what} {value!r} is not a scalar", path)
        match = declared.get(value, value)
        if type(match) is not type(value):
            raise ParseError(f"{what} {value!r} stands in for {match!r}", path=path)


_BOUND = 10**4300  # a numerator or denominator must lie below it


def _fraction(text, path) -> Fraction:
    # JSON true/false are ints and a JSON float is binary: neither is exact.
    # A text with an exponent is its mantissa times 10**exp, whose size is
    # decided from the powers of 2 and 5 without computing 10**exp.
    _expect(type(text) in (str, int), f"bad rational {text!r}", path)
    try:
        match = fractions._RATIONAL_FORMAT.match(text) if type(text) is str else None
        if match and match["exp"]:
            value = _scaled(Fraction(text[: match.start("exp") - 1]), int(match["exp"]))
        else:
            value = _scaled(Fraction(text), 0)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None:
        raise ParseError(f"bad rational {text!r}", path=path)
    return value


def _scaled(mantissa: Fraction, exp: int):
    """mantissa · 10**exp in lowest terms, or None when its numerator or
    denominator is not below `_BOUND`."""
    if not mantissa:
        return mantissa

    def split(n):
        """(r, a, b) with n = r · 2**a · 5**b and r prime to 10."""
        a = b = 0
        while n % 2 == 0:
            n, a = n // 2, a + 1
        while n % 5 == 0:
            n, b = n // 5, b + 1
        return n, a, b

    r, a, b = split(abs(mantissa.numerator))
    q, c, d = split(mantissa.denominator)
    twos, fives = a - c + exp, b - d + exp

    def below(n, twos, fives):
        # 5**k > 2**k > _BOUND once k reaches _BOUND's bit length
        if max(twos, fives) >= _BOUND.bit_length():
            return False
        return n * 2**twos * 5**fives < _BOUND

    top = (r, max(twos, 0), max(fives, 0))
    bottom = (q, max(-twos, 0), max(-fives, 0))
    if not (below(*top) and below(*bottom)):
        return None
    value = Fraction(top[0] * 2**top[1] * 5**top[2], bottom[0] * 2**bottom[1] * 5**bottom[2])
    return -value if mantissa < 0 else value


def _atoms(obj, path, optional=False):
    """The `atoms` field: an array of scenario arrays."""
    atoms = _get(obj, "atoms", list, path, optional=optional)
    for atom in atoms or ():
        _expect(isinstance(atom, list), "atom must be a scenario array", f"{path}.atoms")
        _same_types(atom, {}, "scenario", f"{path}.atoms")
    return atoms


def _scenario_space(obj, path) -> ScenarioSpace:
    scenarios = _get(obj, "scenarios", list, path)
    _expect(bool(scenarios), "scenarios must be nonempty", f"{path}.scenarios")
    _same_types(scenarios, {}, "scenario", f"{path}.scenarios")
    atoms = _atoms(obj, path, optional=True)
    try:
        if atoms is None:
            return ScenarioSpace.discrete(scenarios)
        space = ScenarioSpace.of(scenarios, [frozenset(a) for a in atoms])
    except KernelError as e:
        raise ParseError(str(e), path=f"{path}.atoms") from None
    scenario_of = {w: w for w in space.scenarios}
    _same_types(
        (w for atom in atoms for w in atom), scenario_of, "scenario", f"{path}.atoms"
    )
    return space


def _factorization(obj, actions, path):
    factorization_src = _get(obj, "factorization", dict, path, optional=True)
    if factorization_src is None:
        return None
    fpath = f"{path}.factorization"
    factorization = {}
    # as for scenarios in _parse_explicit: a key spelling a non-string
    # action ("1" for 1) can never name it
    keyless = {str(a): a for a in actions if type(a) is not str}
    for action, table in factorization_src.items():
        _expect(isinstance(table, dict), "factorization entry must be an object", fpath)
        _same_types(table.values(), {}, "component", fpath)
        if action not in actions and action in keyless:
            raise ParseError(
                f"action {keyless[action]!r} is not a string, "
                "and action names key JSON objects",
                path=f"{path}.actions",
            )
        _expect(action in actions, f"unresolved action {action!r}", fpath)
        for agent, comp in table.items():
            factorization.setdefault(agent, {})[action] = comp
    return factorization


def _parse_action_path(obj) -> InstanceDoc:
    path = "$"
    space = _scenario_space(obj, path)
    scenario_of = {w: w for w in space.scenarios}
    raw_points = _get(obj, "time_points", list, path)
    try:
        time_axis = oracle_time_axis([_fraction(p, f"{path}.time_points") for p in raw_points])
    except KernelError as e:
        raise ParseError(str(e), path=f"{path}.time_points") from None
    generator = obj.get("generator")
    if generator is None:
        actions = _get(obj, "actions", list, path)
        _same_types(actions, {}, "action", f"{path}.actions")
        factorization = _factorization(obj, actions, path)
        try:
            action_space = ActionSpace.of(actions, factorization)
            action_of = {a: a for a in action_space.actions}
            paths = []
            for i, entry in enumerate(_get(obj, "paths", list, path)):
                ppath = f"{path}.paths[{i}]"
                _expect(isinstance(entry, dict), "path entry must be an object", ppath)
                scen = _get(entry, "scenario", (str, int), ppath)
                seq = _get(entry, "path", list, ppath)
                _same_types((scen,), scenario_of, "scenario", f"{ppath}.scenario")
                _same_types(seq, action_of, "action", f"{ppath}.path")
                paths.append((scen, tuple(seq)))
            po = PathOutcomes.of(time_axis, action_space, space, paths)
        except KernelError as e:
            raise ParseError(str(e), path=path) from None
    else:
        try:
            if generator == "product":
                actions = _get(obj, "actions", list, path)
                _same_types(actions, {}, "action", f"{path}.actions")
                factorization = _factorization(obj, actions, path)
                po = product_outcomes(space, time_axis, actions, factorization)
            elif generator == "timing":
                agents = _get(obj, "agents", list, path)
                _same_types(agents, {}, "agent", f"{path}.agents")
                po = timing_outcomes(space, time_axis, agents)
            elif isinstance(generator, dict) and generator.get("name") == "up-and-out":
                price_src = _get(generator, "price", dict, "$.generator")
                price = {}
                # in canonical order, so the first fault named is the same
                # under every hash seed
                for scen in canon_sorted(space.scenarios):
                    key = str(scen)
                    _expect(
                        key in price_src,
                        f"price table missing scenario {scen!r}",
                        "$.generator.price",
                    )
                    # JSON object keys are strings: "1" prices scenario 1
                    # only when no scenario "1" is declared as well
                    _expect(
                        type(scen) is str or key not in space.scenarios,
                        f"price key {key!r} names scenario {scen!r} and scenario {key!r}",
                        "$.generator.price",
                    )
                    row = price_src[key]
                    _expect(
                        isinstance(row, list) and len(row) == len(time_axis.points),
                        "price row must list one value per time point",
                        "$.generator.price",
                    )
                    for i, t in enumerate(time_axis.points):
                        price[(t, scen)] = _fraction(row[i], "$.generator.price")
                barrier = _fraction(generator.get("barrier", "2"), "$.generator.barrier")
                po = up_and_out_outcomes(space, time_axis, price, barrier)
            else:
                raise ParseError(f"unknown generator {generator!r}", path="$.generator")
        except KernelError as e:
            raise ParseError(str(e), path="$.generator") from None
        _expect(
            generator == "product" or "factorization" not in obj,
            f"generator {generator!r} takes no factorization",
            "$.factorization",
        )
    doc = InstanceDoc("action-path", po=po)
    choices = obj.get("choices")
    if choices is not None:
        _expect(isinstance(choices, dict), "choices must be an object", "$.choices")
        action_of = {a: a for a in po.space.actions}
        for name, outs in choices.items():
            cpath = f"$.choices.{name}"
            _expect(isinstance(outs, list), "choice must be an outcome array", cpath)
            resolved = set()
            for entry in outs:
                _expect(isinstance(entry, dict), "outcome must be {scenario, path}", cpath)
                scen, seq = entry.get("scenario"), entry.get("path")
                _expect(isinstance(seq, list), "outcome path must be an array", cpath)
                _same_types((scen,), scenario_of, "scenario", cpath)
                _same_types(seq, action_of, "action", cpath)
                w = (scen, tuple(seq))
                _expect(w in po.paths, f"unresolved outcome {fmt(w)}", cpath)
                resolved.add(w)
            doc.named_choices[name] = frozenset(resolved)
    return doc


def oracle_parse_instance(text: str) -> InstanceDoc:
    """`cli.parse_instance` on an action-path document, by the walk above."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"syntax error: {e.msg}", line=e.lineno, col=e.colno) from None
    except ValueError:  # an integer literal past the int-to-str digit limit
        raise ParseError("syntax error: an integer literal has too many digits") from None
    if not isinstance(obj, dict) or obj.get("kind") != "action-path":
        raise ValueError("the oracle parses action-path documents only")
    return _parse_action_path(obj)


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
    return build_action_path_sdf(examples.encode_simple())


@pytest.fixture(scope="session")
def variant_aps():
    return build_action_path_sdf(examples.encode_variant())


@pytest.fixture(scope="session")
def timing_aps():
    return examples.timing_instance()


@pytest.fixture(scope="session")
def upandout_aps():
    return build_action_path_sdf(examples.upandout_path_outcomes(), max_x_exhaustive=12)


@pytest.fixture()
def rng():
    return rng_from_env(20240418)
