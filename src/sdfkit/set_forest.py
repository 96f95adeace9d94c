"""Decision forests over a finite outcome set.

A `SetForest` is a family of nonempty outcome-subsets ("nodes") ordered by
reverse inclusion. The defining property is self-representation by decision
paths: outcomes correspond bijectively to the maximal chains of the node
family, a node lying on a path iff the path's outcome lies in the node.
Node identity is the outcome-subset itself; duplicate subsets are
construction errors.
"""

from __future__ import annotations


from . import order_core
from ._canon import canon_key, canon_sorted, fmt
from ._record import cached_property, record
from .errors import InputError, StructureError
from .order_core import Poset
from .verdict import Verdict


@record(frozen=True)
class SetForest:
    universe: frozenset
    nodes: frozenset

    @classmethod
    def of(cls, universe, nodes) -> "SetForest":
        """Validate and build; `nodes` is an iterable of outcome-subsets."""
        # Decided on sets; a fault is named at the canonically first faulty
        # node, so the name does not depend on the order `nodes` is given in.
        universe = frozenset(universe)
        node_list = [frozenset(n) for n in nodes]
        node_set = frozenset(node_list)
        if (
            len(node_set) != len(node_list)
            or frozenset() in node_set
            or not all(map(universe.issuperset, node_set))
        ):
            seen = set()
            for n in canon_sorted(node_list):
                if n in seen:
                    raise InputError(
                        f"duplicate node: {fmt(n)}", witness=n, code="duplicate-node"
                    )
                seen.add(n)
                if not n:
                    raise StructureError("empty node", witness=n)
                if not n <= universe:
                    raise StructureError(
                        f"node {fmt(n)} not a subset of the universe", witness=n
                    )
        if not universe:
            raise StructureError("universe must be nonempty")
        return cls(universe, node_set)

    def canon_key(self):
        return ("set-forest", canon_key(self.universe), canon_key(self.nodes))

    @cached_property
    def poset(self) -> Poset:
        """The poset of nodes under reverse inclusion (x >= y iff x ⊇ y),
        built on first use and kept on the forest."""
        return Poset.from_order(self.nodes, lambda x, y: x >= y)


def decision_paths(sf: SetForest) -> dict:
    """The candidate outcome -> chain map v ↦ ↑{v} = {x | v ∈ x}."""
    return {
        v: frozenset(x for x in sf.nodes if v in x) for v in sf.universe
    }


def verify_own_representation(sf: SetForest) -> Verdict:
    """Check that v ↦ ↑{v} is a bijection onto the maximal chains matching W(y).

    The uniqueness of the representing bijection means no search over
    bijections is needed: only the canonical candidate can work. The verdict
    names the failing outcome or node. A non-singleton terminal node is
    reported as such rather than assumed away.

    Three steps can fail: the nodes form a rooted forest, every terminal node
    is a singleton, every path ↑{v} is a maximal chain. The rest then holds.
    A maximal chain ends at a terminal node, so ↑{v} holds a terminal node
    containing v, which is {v}: distinct outcomes have distinct paths. A
    maximal chain ending at {t} is ↑{t}, the path of t, so every chain is
    hit. And ↑{v} passes through y iff v ∈ y, so W(y) is the image of y.
    The third step needs no chain list: once terminals are singletons, ↑{v}
    is a maximal chain iff {v} is a node (then it is the up-set of a leaf,
    and otherwise it holds no terminal node). Each step is decided on sets;
    a failing one sorts only to name its canonically first witness.
    """
    poset = sf.poset
    if not order_core.is_rooted_forest(poset):
        return Verdict.failed("not-rooted-forest", "node family is not a rooted forest")
    # the terminal nodes are the minimal elements of the node poset
    wide = [x for x in poset.minimal_elements() if len(x) != 1]
    if wide:
        x = min(wide, key=canon_key)
        return Verdict.failed(
            "non-singleton-terminal", f"terminal node {fmt(x)} has {len(x)} outcomes"
        )
    stray = [v for v in sf.universe if frozenset([v]) not in sf.nodes]
    if stray:
        v = min(stray, key=canon_key)
        return Verdict.failed(
            "path-not-maximal-chain",
            f"outcome {fmt(v)}: ↑{{v}} = {fmt(decision_paths(sf)[v])} is not a maximal chain",
        )
    return Verdict.passed()


def representation_by_decision_paths(p: Poset) -> SetForest:
    """Represent a decision-forest poset over its own maximal chains.

    Outcomes are the maximal chains of `p`, which in a forest are the
    up-sets ↑y of its leaves y; the node for x is the set of chains through
    x. Requires every pair of distinct elements to be separated by some
    maximal chain.
    """
    if not order_core.is_rooted_forest(p):
        raise StructureError(
            "poset is not a rooted forest", code="not-a-decision-forest"
        )
    witness = order_core.separation_witness(p)
    if witness is not None:
        raise StructureError(
            f"elements {witness[0]!r} and {witness[1]!r} are not separated "
            "by any maximal chain",
            witness=witness,
            code="not-a-decision-forest",
        )
    chains = [p.up[y] for y in p.minimal_elements()]
    nodes = [frozenset(c for c in chains if x in c) for x in p.elements]
    return SetForest.of(chains, nodes)


def decompose(sf: SetForest) -> tuple[tuple[frozenset, SetForest], ...]:
    """Split into connected components: pairs (root outcome set V_T, tree).

    For a verified forest the V_T partition the universe and each component
    is a decision tree over its root.
    """
    poset = sf.poset
    out = []
    for block in order_core.connected_components(poset):
        root = max(block, key=len)
        out.append((root, SetForest.of(root, block)))
    return tuple(out)


def glue(trees) -> SetForest:
    """Forest over the disjoint union of the trees' roots, outcomes tagged by index."""
    trees = list(trees)
    if not trees:
        raise InputError("glue requires a nonempty list of trees", code="empty-list")
    for idx, t in enumerate(trees):
        v = verify_own_representation(t)
        if not v:
            raise StructureError(
                f"input {idx} is not a verified tree: {v.describe()}", witness=idx
            )
        if not order_core.is_tree(t.poset):
            raise StructureError(f"input {idx} is not a tree", witness=idx)
    universe = set()
    nodes = []
    for idx, t in enumerate(trees):
        universe.update((v, idx) for v in t.universe)
        nodes.extend(frozenset((v, idx) for v in x) for x in t.nodes)
    return SetForest.of(universe, nodes)
