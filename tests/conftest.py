"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's algorithms: maximal chains
by full subset enumeration, up-sets, down-sets, covers, extremal elements,
trees and separation by scanning every element instead of the poset's
index, agent reference choices by one window choice per
(history subset, component subset) pair, canonical keys by the type-tag
cascade that wraps every number in a Fraction, the no-forgetting trace
check by listing every event, the information structures and their
order by sorting every result, the RCS and adaptedness witnesses by
scanning in canonical order, the AP.W assumptions by
walking the whole path space A^|T| and every time subset, AP.C3 by trying
every history set that covers the required prefixes against a listed
generator table, predecessors never
(the library is the literal definition; expected values for those come from
the worked instances' closed forms).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache

import pytest

from sdfkit import examples
from sdfkit._canon import canon_key, canon_sorted, fmt
from sdfkit.action_path import (
    DEFAULT_PATH_WORK_CAP,
    DEFAULT_TIME_SUBSET_CAP,
    Apc3Result,
    PathOutcomes,
    WindowChoiceSpec,
    agent_rcs,
    window_choice,
)
from sdfkit.choice import Choice, Rcs, classify, predecessors, preimage
from sdfkit.errors import InputError, SizeCapError, not_a_forest, unknown_element
from sdfkit.gen import rng_from_env
from sdfkit.order_core import DEFAULT_WORK_CAP, maximal_chains
from sdfkit.sdf import ge_x, x_order
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


def oracle_separation_witness(p, work_cap=DEFAULT_WORK_CAP):
    """The first canonical pair that no maximal chain holds exactly one of."""
    chains = maximal_chains(p, work_cap).chains
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


def _all_prefixes(po: PathOutcomes, length: int, work_cap: int):
    count = len(po.space.actions) ** length
    if count > work_cap:
        raise SizeCapError(
            f"prefix space of size {count} exceeds work cap {work_cap}"
        )
    return itertools.product(canon_sorted(po.space.actions), repeat=length)


def brute_check_apw(
    po: PathOutcomes,
    *,
    max_time_subsets: int = DEFAULT_TIME_SUBSET_CAP,
    work_cap: int = DEFAULT_PATH_WORK_CAP,
) -> MultiVerdict:
    """AP.W0-W4 by enumeration: W0 and W3 over every prefix in A^i, W2 over
    every (scenario, path in A^|T|, time subset) triple. Exponential in |T|;
    the reference the decided `check_apw` is compared against."""
    idx = po.index
    points = po.time.points
    items = []

    w0 = Verdict.passed()
    for i, t in enumerate(points):
        for p in _all_prefixes(po, i, work_cap):
            d = idx.d_set(p)
            if not po.scenarios.is_event(d):
                w0 = Verdict.failed(
                    "apw0",
                    f"D_(t={t}, prefix={fmt(p)}) = {fmt(d)} is not an event",
                )
                break
        if not w0.ok:
            break
    items.append(("W0", w0))

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
    items.append(("W1", w1))

    if len(points) > max_time_subsets:
        raise SizeCapError(
            f"|T| = {len(points)} exceeds the W2 subset cap {max_time_subsets}"
        )
    subset_pool = [
        c
        for r in range(len(points) + 1)
        for c in itertools.combinations(range(len(points)), r)
    ]
    w2 = Verdict.passed("mode: exhaustive")
    for w in canon_sorted(po.scenarios.scenarios):
        for f_tilde in _all_prefixes(po, len(points), work_cap):
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
        fs = list(_all_prefixes(po, i, work_cap))
        for p, q in itertools.combinations(fs, 2):
            dp, dq = idx.d_set(p), idx.d_set(q)
            if not dp or not dq or (dp & dq):
                continue
            if not any(
                (idx.d_set(p[:j]) & idx.d_set(q[:j])) and p[:j] != q[:j]
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
