"""Stochastic decision forests and their axiom checkers.

An `Sdf` bundles a decision forest over an outcome set, a scenario
projection whose fibres are the connected components, and a set of random
moves (scenario-indexed sections of moves). `verify_sdf` checks every axiom
mechanically and reports one verdict per axiom, with witnesses.

Finite σ-algebras are represented by the partition of atoms generating
them; an event is precisely a union of atoms.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import order_core, set_forest
from ._canon import canon_key, canon_sorted, fmt
from .errors import InputError, SizeCapError, StructureError
from .order_core import DEFAULT_WORK_CAP, Poset, set_partitions
from .set_forest import SetForest
from .verdict import MultiVerdict, Verdict


@dataclass(frozen=True)
class ScenarioSpace:
    """Finite scenario set Ω with the σ-algebra generated by an atom partition."""

    scenarios: frozenset
    algebra_atoms: frozenset

    def __post_init__(self):
        seen = set()
        for atom in self.algebra_atoms:
            if not atom:
                raise StructureError("empty σ-algebra atom")
            if atom & seen:
                raise StructureError(f"σ-algebra atoms overlap at {fmt(atom)}", witness=atom)
            seen |= atom
        if seen != self.scenarios:
            raise StructureError("σ-algebra atoms do not cover the scenario set")
        if not self.scenarios:
            raise StructureError("scenario set must be nonempty")

    @classmethod
    def of(cls, scenarios, atoms=None) -> "ScenarioSpace":
        scenarios = frozenset(scenarios)
        if atoms is None:
            atoms = [frozenset([w]) for w in scenarios]
        return cls(scenarios, frozenset(frozenset(a) for a in atoms))

    @classmethod
    def discrete(cls, scenarios) -> "ScenarioSpace":
        return cls.of(scenarios)

    def is_event(self, subset) -> bool:
        """E ∈ 𝒜 iff E is a union of atoms."""
        subset = frozenset(subset)
        if not subset <= self.scenarios:
            return False
        return all(atom <= subset or not (atom & subset) for atom in self.algebra_atoms)

    def events(self):
        """All events, in canonical order (2^#atoms of them)."""
        atoms = canon_sorted(self.algebra_atoms)
        out = []
        for r in range(len(atoms) + 1):
            for combo in itertools.combinations(atoms, r):
                out.append(frozenset().union(*combo) if combo else frozenset())
        return canon_sorted(set(out))

    def trace_atoms(self, carrier) -> frozenset:
        """Atoms of the trace σ-algebra 𝒜|_carrier, for an event carrier."""
        if not self.is_event(carrier):
            raise InputError(f"not an event: {fmt(frozenset(carrier))}", witness=carrier)
        return frozenset(a for a in self.algebra_atoms if a <= frozenset(carrier))

    def canon_key(self):
        return ("space", canon_key(self.scenarios), canon_key(self.algebra_atoms))


@dataclass(frozen=True)
class RandomMove:
    """A section of moves: one node per scenario of its domain, π ∘ x = id."""

    graph: tuple  # ((scenario, node), ...) in canonical scenario order

    def __post_init__(self):
        if not self.graph:
            raise StructureError("random move must have nonempty domain")
        scenarios = [w for w, _ in self.graph]
        if len(set(scenarios)) != len(scenarios):
            raise StructureError("random move assigns a scenario twice")

    @classmethod
    def of(cls, assignment) -> "RandomMove":
        items = sorted(assignment.items(), key=lambda kv: canon_key(kv[0]))
        return cls(tuple((w, frozenset(node)) for w, node in items))

    @property
    def domain(self) -> frozenset:
        return frozenset(w for w, _ in self.graph)

    @property
    def image(self) -> frozenset:
        return frozenset(node for _, node in self.graph)

    def node_at(self, scenario) -> frozenset:
        for w, node in self.graph:
            if w == scenario:
                return node
        raise InputError(f"scenario {scenario!r} outside domain", witness=scenario)

    def items(self):
        return self.graph

    def restricted(self, scenarios) -> "RandomMove":
        return RandomMove.of({w: n for w, n in self.graph if w in scenarios})

    def canon_key(self):
        return ("rmove", canon_key(self.graph))

    def fmt(self) -> str:
        return "{" + ", ".join(f"{fmt(w)}↦{fmt(n)}" for w, n in self.graph) + "}"


@dataclass(frozen=True)
class Sdf:
    forest: SetForest
    space: ScenarioSpace
    projection: tuple  # ((node, scenario), ...) canonical
    random_moves: frozenset

    @classmethod
    def of(cls, forest, space, projection, random_moves) -> "Sdf":
        """Shape-validate only; the axioms are the business of verify_sdf."""
        proj = dict(projection) if not isinstance(projection, dict) else projection
        for node in forest.nodes:
            if node not in proj:
                raise InputError(f"projection missing node {fmt(node)}", witness=node)
        for node, w in proj.items():
            if node not in forest.nodes:
                raise InputError(f"projection maps unknown node {fmt(node)}", witness=node)
            if w not in space.scenarios:
                raise InputError(f"projection targets unknown scenario {w!r}", witness=w)
        moves = frozenset(random_moves)
        for m in moves:
            for w, node in m.items():
                if w not in space.scenarios:
                    raise InputError(f"random move uses unknown scenario {w!r}", witness=w)
                if node not in forest.nodes:
                    raise InputError(
                        f"random move assigns unknown node {fmt(node)}", witness=node
                    )
        items = tuple(
            (node, proj[node]) for node in canon_sorted(forest.nodes)
        )
        return cls(forest, space, items, moves)

    def pi(self, node):
        return self.proj[node]

    # Derived tables, each built on first use and kept on the instance.

    @functools.cached_property
    def proj(self) -> dict:
        return dict(self.projection)

    @functools.cached_property
    def up(self) -> dict:
        """x ↦ ↑x, the nodes containing x."""
        nodes = self.forest.nodes
        return {x: frozenset(y for y in nodes if y >= x) for x in nodes}

    @functools.cached_property
    def by_up(self) -> dict:
        """↑x ↦ x; up-sets are unique."""
        return {up: x for x, up in self.up.items()}

    @functools.cached_property
    def maxima(self) -> frozenset:
        return frozenset(x for x, up in self.up.items() if len(up) == 1)

    @functools.cached_property
    def fibre(self) -> dict:
        fibre: dict = {}
        for node, w in self.projection:
            fibre.setdefault(w, set()).add(node)
        return {w: frozenset(v) for w, v in fibre.items()}

    @functools.cached_property
    def sorted_moves(self) -> tuple:
        """The random moves in canonical order."""
        return tuple(canon_sorted(self.random_moves))

    @functools.cached_property
    def ttree(self) -> "TTree":
        """(T, ≥_T): random moves plus one random terminal node per terminal."""
        terminals = frozenset(
            (self.proj[x], next(iter(x))) for x in self.terminal_nodes if len(x) == 1
        )
        elements = set(self.random_moves) | set(terminals)
        pairs = set()
        for m1 in self.random_moves:
            for m2 in self.random_moves:
                if ge_x(m1, m2):
                    pairs.add((m1, m2))
        for m in self.random_moves:
            for (w, out) in terminals:
                if w in m.domain and out in m.node_at(w):
                    pairs.add((m, (w, out)))
        return TTree(Poset.of(elements, pairs), frozenset(self.random_moves), terminals)

    @functools.cached_property
    def terminal_nodes(self) -> frozenset:
        return self.forest.terminal_nodes()

    @functools.cached_property
    def move_nodes(self) -> frozenset:
        return self.forest.nodes - self.terminal_nodes

    def canon_key(self):
        return (
            "sdf",
            self.forest.canon_key(),
            self.space.canon_key(),
            canon_key(self.projection),
            canon_key(self.random_moves),
        )


@dataclass(frozen=True)
class TTree:
    """Random moves plus random terminal nodes under the extended order."""

    poset: Poset
    moves: frozenset
    terminals: frozenset


def component_nodes(s: Sdf, scenario) -> frozenset:
    """T_ω: the nodes the projection sends to the scenario."""
    return s.fibre.get(scenario, frozenset())


def scenario_outcomes(s: Sdf, scenario) -> frozenset:
    """W_ω: the outcomes of the scenario's component (its root's contents)."""
    nodes = component_nodes(s, scenario)
    out: set = set()
    for x in nodes:
        out |= x
    return frozenset(out)


def outcomes_of_event(s: Sdf, event) -> frozenset:
    """W_A = union of W_ω over ω ∈ A."""
    out: set = set()
    for w in event:
        out |= scenario_outcomes(s, w)
    return frozenset(out)


def nodes_of_event(s: Sdf, event) -> frozenset:
    """F_A = union of T_ω over ω ∈ A."""
    out: set = set()
    for w in event:
        out |= component_nodes(s, w)
    return frozenset(out)


def fibres(s: Sdf) -> dict:
    """Check components of (F, ⊇) equal the projection fibres; return ω ↦ T_ω."""
    components = {frozenset(c) for c in order_core.connected_components(s.forest.poset)}
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
        raise StructureError(
            "more components than scenarios", code="fibre-mismatch"
        )
    return fibre_sets


def ge_x(x1: RandomMove, x2: RandomMove) -> bool:
    """x1 ≥_X x2: domain inclusion plus pointwise node inclusion."""
    if not x1.domain >= x2.domain:
        return False
    return all(x1.node_at(w) >= x2.node_at(w) for w in x2.domain)


def x_order(s: Sdf) -> Poset:
    """The partial order ≥_X on the random moves."""
    return Poset.from_order(s.random_moves, ge_x)


def _axioms_3a_to_3d(s: Sdf, moves):
    """Axioms 3a-3d for a family of random moves, yielded one axiom at a
    time as (name, failure): None when the axiom holds, else its first
    failure in the order of `moves` as (template, *values), not yet text.

    `verify_sdf` passes the instance's moves in canonical order and formats
    each failure; the 3e coarsening oracle passes candidate families, stops
    at the first axiom that fails and formats nothing.
    """
    failure = None
    for m in moves:
        if not s.space.is_event(m.domain):
            failure = ("domain {} of {} is not an event", m.domain, m)
            break
        if not m.domain:
            failure = ("{} has empty domain", m)
            break
        bad = next(
            (
                (w, node)
                for w, node in m.items()
                if node in s.terminal_nodes or s.proj[node] != w
            ),
            None,
        )
        if bad is not None:
            w, node = bad
            if node in s.terminal_nodes:
                failure = ("{} at {} assigns {} (terminal node)", m, w, node)
            else:
                failure = ("{} at {} assigns {} (π gives {})", m, w, node, s.proj[node])
            break
    yield "axiom-3a", failure

    covered = {node for m in moves for _, node in m.items()}
    failure = None
    if covered != s.move_nodes:
        missing = canon_sorted(s.move_nodes - covered) + canon_sorted(
            covered - s.move_nodes
        )
        failure = ("covering mismatch at node {}", missing[0])
    yield "axiom-3b", failure

    failure = None
    for m1 in moves:
        for m2 in moves:
            hit = next(
                (
                    w
                    for w in canon_sorted(m1.domain & m2.domain)
                    if m1.node_at(w) >= m2.node_at(w)
                ),
                None,
            )
            if hit is not None and not ge_x(m1, m2):
                failure = ("{} ⊇ {} at scenario {} without x1 ≥_X x2", m1, m2, hit)
                break
        if failure is not None:
            break
    yield "axiom-3c", failure

    failure = None
    for m in moves:
        flags = {node in s.maxima for _, node in m.items()}
        if len(flags) > 1:
            failure = ("{} is a root for some but not all scenarios", m)
            break
    yield "axiom-3d", failure


def _merge_block(block) -> RandomMove:
    assignment = {}
    for m in block:
        for w, node in m.items():
            assignment[w] = node
    return RandomMove.of(assignment)


def _check_axiom_3e(s: Sdf, moves: tuple, max_x_exhaustive: int, work_cap: int) -> Verdict:
    if len(moves) <= max_x_exhaustive:
        def disjoint(block, m):
            return all(not (m.domain & other.domain) for other in block)

        for blocks in set_partitions(moves, disjoint, work_cap, "axiom-3e"):
            if all(len(b) == 1 for b in blocks):
                continue
            family = frozenset(_merge_block(b) for b in blocks)
            if family == s.random_moves:
                continue
            if all(f is None for _, f in _axioms_3a_to_3d(s, family)):
                merged = next(b for b in blocks if len(b) > 1)
                return Verdict.failed(
                    "axiom-3e",
                    "proper coarsening satisfies 3a-3d: merging "
                    + ", ".join(m.fmt() for m in merged),
                )
        return Verdict.passed("exhaustive over domain-disjoint coarsenings")
    # Above the cap only the pairwise-merge necessary test runs.
    for m1, m2 in itertools.combinations(moves, 2):
        if m1.domain & m2.domain:
            continue
        merged = _merge_block([m1, m2])
        family = frozenset(m for m in s.random_moves if m not in (m1, m2)) | {merged}
        if all(f is None for _, f in _axioms_3a_to_3d(s, family)):
            return Verdict.failed(
                "axiom-3e",
                f"pairwise merge of {m1.fmt()} and {m2.fmt()} satisfies 3a-3d",
            )
    return Verdict.passed(
        f"|X| = {len(moves)} exceeds exhaustive cap {max_x_exhaustive}; "
        "only the pairwise-merge necessary test ran",
        partial=True,
    )


def verify_sdf(
    s: Sdf,
    *,
    max_x_exhaustive: int = 6,
    work_cap: int = DEFAULT_WORK_CAP,
) -> MultiVerdict:
    """Check axioms 1, 2, 3a-3f; one named verdict per axiom.

    Axiom 3e runs the exhaustive coarsening oracle up to `max_x_exhaustive`
    random moves and falls back to the pairwise-merge necessary test above it
    (verdict flagged partial). Axiom 3f holds vacuously for finite X and is
    reported as trivially satisfied rather than skipped.
    """
    items = []

    ax1 = set_forest.verify_own_representation(s.forest)
    items.append(("axiom-1", ax1))

    try:
        fibres(s)
        items.append(("axiom-2", Verdict.passed()))
    except StructureError as e:
        items.append(("axiom-2", Verdict.failed(e.code, str(e))))

    moves = s.sorted_moves
    for name, failure in _axioms_3a_to_3d(s, moves):
        if failure is None:
            items.append((name, Verdict.passed()))
        else:
            template, *values = failure
            items.append((name, Verdict.failed(name, template.format(*map(fmt, values)))))
    items.append(("axiom-3e", _check_axiom_3e(s, moves, max_x_exhaustive, work_cap)))

    items.append(
        (
            "axiom-3f",
            Verdict.passed(
                "trivially satisfied: X is finite, so X₀ = X is a countable separator"
            ),
        )
    )

    return MultiVerdict(tuple(items))


def tmap_order(s: Sdf) -> TTree:
    """(T, ≥_T), kept on the instance as `Sdf.ttree`."""
    return s.ttree


def t_dot_omega(s: Sdf):
    """T • Ω: pairs (y, ω) with ω in the domain of y, canonical order."""
    pairs = []
    for m in s.sorted_moves:
        for w in canon_sorted(m.domain):
            pairs.append((m, w))
    for (w, out) in canon_sorted(s.ttree.terminals):
        pairs.append(((w, out), w))
    return pairs


def _evaluate(y, w) -> frozenset:
    if isinstance(y, RandomMove):
        return y.node_at(w)
    return frozenset([y[1]])


def check_evaluation_bijection(s: Sdf) -> Verdict:
    """ev: T•Ω → F is a bijection and an order embedding.

    Holds under axioms 1, 2, 3a-3c already; 3d-3f are not needed.
    """
    tree = s.ttree
    pairs = t_dot_omega(s)
    seen = {}
    for y, w in pairs:
        node = _evaluate(y, w)
        if node not in s.forest.nodes:
            return Verdict.failed(
                "ev-not-into-f", f"ev({fmt(w)}) hits non-node {fmt(node)}"
            )
        if node in seen:
            return Verdict.failed(
                "ev-not-injective", f"node {fmt(node)} hit twice"
            )
        seen[node] = (y, w)
    if len(seen) != len(s.forest.nodes):
        missing = canon_sorted(s.forest.nodes - set(seen))[0]
        return Verdict.failed(
            "ev-not-surjective", f"node {fmt(missing)} not in the image of ev"
        )
    for y1, w1 in pairs:
        for y2, w2 in pairs:
            lhs = tree.poset.ge(y1, y2) and w1 == w2
            rhs = _evaluate(y1, w1) >= _evaluate(y2, w2)
            if lhs != rhs:
                return Verdict.failed(
                    "ev-not-order-embedding",
                    f"pairs ev⁻¹{fmt(_evaluate(y1, w1))}, ev⁻¹{fmt(_evaluate(y2, w2))} "
                    f"break the embedding ({lhs} vs {rhs})",
                )
    return Verdict.passed(f"|T•Ω| = {len(pairs)} = |F|")


def check_ttree_theorem(s: Sdf) -> Verdict:
    """(T, ≥_T) is a rooted decision tree whose moves are exactly X.

    Requires every root of F to be a move; otherwise raises roots-not-moves
    (drop the moveless components first).
    """
    bad_roots = canon_sorted(s.maxima - s.move_nodes)
    if bad_roots:
        raise StructureError(
            f"root {fmt(bad_roots[0])} is not a move",
            witness=bad_roots[0],
            code="roots-not-moves",
        )
    tree = s.ttree
    if not order_core.is_rooted_forest(tree.poset):
        return Verdict.failed("ttree-not-rooted-forest", "(T, ≥_T) is not a rooted forest")
    if not order_core.is_tree(tree.poset):
        return Verdict.failed("ttree-not-tree", "(T, ≥_T) has multiple components")
    witness = order_core.separation_witness(tree.poset)
    if witness is not None:
        return Verdict.failed(
            "ttree-not-separated",
            f"elements {fmt(witness[0])}, {fmt(witness[1])} are not separated",
        )
    tree_moves = frozenset(
        y
        for y in tree.poset.elements
        if order_core.down_set(tree.poset, y) != frozenset([y])
    )
    if tree_moves != frozenset(s.random_moves):
        return Verdict.failed(
            "ttree-moves-mismatch", "moves of (T, ≥_T) differ from X"
        )
    return Verdict.passed()


def drop_moveless_components(s: Sdf) -> Sdf:
    """Remove scenarios whose component contains no move.

    The derived-tree result presumes all roots are moves; reducing to the
    components that still offer a decision restores that form.
    """
    keep = frozenset(
        w for w in s.space.scenarios if component_nodes(s, w) & s.move_nodes
    )
    if keep == s.space.scenarios:
        return s
    if not keep:
        raise StructureError("every component is moveless", code="roots-not-moves")
    atoms = frozenset(
        a & keep for a in s.space.algebra_atoms if a & keep
    )
    space = ScenarioSpace(keep, atoms)
    nodes = [x for x in s.forest.nodes if s.proj[x] in keep]
    universe = frozenset().union(*nodes)
    forest = SetForest.of(universe, nodes)
    projection = {x: s.proj[x] for x in nodes}
    return Sdf.of(forest, space, projection, s.random_moves)


def find_sdf_isomorphism(a: Sdf, b: Sdf, work_cap: int = DEFAULT_WORK_CAP):
    """Search for an SDF isomorphism: paired scenario and outcome bijections.

    The outcome bijection must respect the scenario bijection (pruning), carry
    nodes onto nodes, commute with the projections, map algebra atoms onto
    algebra atoms, and transport the random-move set onto the random-move set.
    Returns (scenario_map, outcome_map) or None. Exhaustive up to `work_cap`
    candidate outcome bijections.
    """
    if (
        len(a.space.scenarios) != len(b.space.scenarios)
        or len(a.forest.universe) != len(b.forest.universe)
        or len(a.forest.nodes) != len(b.forest.nodes)
        or len(a.random_moves) != len(b.random_moves)
    ):
        return None

    def outcomes_by_scenario(s: Sdf):
        return {w: scenario_outcomes(s, w) for w in s.space.scenarios}

    a_out, b_out = outcomes_by_scenario(a), outcomes_by_scenario(b)
    a_scen = canon_sorted(a.space.scenarios)
    work = 0

    def atom_map_ok(scen_map):
        mapped = {frozenset(scen_map[w] for w in atom) for atom in a.space.algebra_atoms}
        return mapped == set(b.space.algebra_atoms)

    def transport_ok(out_map, scen_map):
        node_image = set()
        for x in a.forest.nodes:
            y = frozenset(out_map[v] for v in x)
            if y not in b.forest.nodes:
                return False
            if b.pi(y) != scen_map[a.pi(x)]:
                return False
            node_image.add(y)
        if node_image != set(b.forest.nodes):
            return False
        moved = set()
        for m in a.random_moves:
            assignment = {
                scen_map[w]: frozenset(out_map[v] for v in node)
                for w, node in m.items()
            }
            moved.add(RandomMove.of(assignment))
        return moved == set(b.random_moves)

    for b_perm in itertools.permutations(canon_sorted(b.space.scenarios)):
        scen_map = dict(zip(a_scen, b_perm))
        if not atom_map_ok(scen_map):
            continue
        if any(len(a_out[w]) != len(b_out[scen_map[w]]) for w in a_scen):
            continue
        per_scenario = []
        for w in a_scen:
            left = canon_sorted(a_out[w])
            per_scenario.append(
                [
                    dict(zip(left, perm))
                    for perm in itertools.permutations(canon_sorted(b_out[scen_map[w]]))
                ]
            )
        for combo in itertools.product(*per_scenario):
            work += 1
            if work > work_cap:
                raise SizeCapError(
                    f"isomorphism search exceeded {work_cap} candidate bijections"
                )
            out_map = {}
            for part in combo:
                out_map.update(part)
            if transport_ok(out_map, scen_map):
                return scen_map, out_map
    return None


def sdf_isomorphic(a: Sdf, b: Sdf, work_cap: int = DEFAULT_WORK_CAP) -> bool:
    return find_sdf_isomorphism(a, b, work_cap) is not None
