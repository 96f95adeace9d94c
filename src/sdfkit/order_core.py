"""Finite posets, chains, forests, and their decompositions.

The order convention follows decision theory: `x >= y` reads "x is weakly
earlier / closer to a root than y", and for families of sets it is reverse
inclusion. Relations are stored extensionally (the full set of ordered
pairs), because the axiom checkers quantify over >= directly.

Enumerations spend their search nodes from an `errors.Work` counter, which
raises `SizeCapError` past `WORK_CAP` rather than degrade.
"""

from __future__ import annotations

import itertools

from ._canon import canon_key, canon_sorted
from ._record import cached_property, record
from .errors import InputError, StructureError, Work, not_a_forest, unknown_element


@record
class Poset:
    """A finite weak partial order, given by its element set and all pairs x >= y."""

    elements: frozenset
    ge_pairs: frozenset

    def __post_init__(self):
        # Each axiom is decided on sets; a failure is named by the canonically
        # least witness, so the message does not depend on hash order.
        elems = self.elements
        pairs = self.ge_pairs
        outside = [p for p in pairs if p[0] not in elems or p[1] not in elems]
        if outside:
            x, y = min(outside, key=canon_key)
            raise StructureError(
                f"relation mentions non-element: {(x, y)!r}", witness=(x, y)
            )
        irreflexive = [x for x in elems if (x, x) not in pairs]
        if irreflexive:
            x = min(irreflexive, key=canon_key)
            raise StructureError(f"relation not reflexive at {x!r}", witness=x)
        symmetric = [(x, y) for x, y in pairs if x != y and (y, x) in pairs]
        if symmetric:
            x, y = min(symmetric, key=canon_key)
            raise StructureError(
                f"relation not antisymmetric on {(x, y)!r}", witness=(x, y)
            )
        # Transitive iff x >= y implies ↓y ⊆ ↓x.
        down = self.down
        broken = [(x, y) for x, y in pairs if not down[y] <= down[x]]
        if broken:
            x, y, z = min(
                ((x, y, z) for x, y in broken for z in down[y] - down[x]),
                key=canon_key,
            )
            raise StructureError(
                f"relation not transitive via {(x, y, z)!r}", witness=(x, y, z)
            )

    @classmethod
    def of(cls, elements, ge_pairs) -> "Poset":
        """Build a poset, closing the given pairs reflexively."""
        elems = frozenset(elements)
        pairs = set(tuple(p) for p in ge_pairs)
        pairs.update((x, x) for x in elems)
        return cls(elems, frozenset(pairs))

    @classmethod
    def from_order(cls, elements, ge) -> "Poset":
        """Build a poset extensionally from a comparison callable ge(x, y)."""
        elems = frozenset(elements)
        pairs = {(x, y) for x in elems for y in elems if x == y or ge(x, y)}
        return cls(elems, frozenset(pairs))

    def ge(self, x, y) -> bool:
        return (x, y) in self.ge_pairs

    def gt(self, x, y) -> bool:
        return x != y and (x, y) in self.ge_pairs

    def comparable(self, x, y) -> bool:
        return (x, y) in self.ge_pairs or (y, x) in self.ge_pairs

    def is_chain(self, subset) -> bool:
        subset = list(subset)
        return all(
            self.comparable(x, y) for x, y in itertools.combinations(subset, 2)
        )

    # Principal up- and down-sets, each built on first use in one pass over
    # the pairs and kept on the instance, and the forest witness read off them.

    @cached_property
    def up(self) -> dict:
        """x ↦ {y | y >= x}."""
        up = {x: [] for x in self.elements}
        for x, y in self.ge_pairs:
            up[y].append(x)
        return {x: frozenset(ys) for x, ys in up.items()}

    @cached_property
    def down(self) -> dict:
        """x ↦ {y | x >= y}."""
        down = {x: [] for x in self.elements}
        for x, y in self.ge_pairs:
            down[x].append(y)
        return {x: frozenset(ys) for x, ys in down.items()}

    @cached_property
    def forest_witness(self):
        """`forest_witness(self)`, scanned once per poset."""
        return forest_witness(self)

    def maximal_elements(self) -> frozenset:
        return frozenset(x for x, up in self.up.items() if len(up) == 1)

    def minimal_elements(self) -> frozenset:
        return frozenset(x for x, down in self.down.items() if len(down) == 1)

    def covers(self, x) -> frozenset:
        """Elements covered by x: y < x with nothing strictly between."""
        below = self.down.get(x, frozenset()) - {x}
        return frozenset(y for y in below if self.up[y] & below == {y})

    def canon_key(self):
        return ("poset", canon_key(self.elements), canon_key(self.ge_pairs))


def up_set(p: Poset, x) -> frozenset:
    """The principal up-set {y | y >= x}. For a forest this is a chain."""
    if x not in p.elements:
        raise unknown_element(x)
    return p.up[x]


def down_set(p: Poset, x) -> frozenset:
    if x not in p.elements:
        raise unknown_element(x)
    return p.down[x]


def forest_witness(p: Poset):
    """None, or the canonically least element whose up-set is not a chain.

    A set U is a chain iff every y in U is comparable with all of U, that is
    U - ↑y ⊆ ↓y.
    """
    up, down = p.up, p.down
    failing = [
        x for x, u in up.items() if not all(u - up[y] <= down[y] for y in u)
    ]
    return min(failing, key=canon_key) if failing else None


def _require_forest(p: Poset) -> None:
    if p.forest_witness is not None:
        raise not_a_forest(p.forest_witness)


def is_rooted_forest(p: Poset) -> bool:
    """True iff the forest is nonempty and every up-set contains a maximal element.

    The second half is automatic for finite nonempty forests but is checked
    literally all the same.
    """
    _require_forest(p)
    if not p.elements:
        return False
    maxima = p.maximal_elements()
    return all(up & maxima for up in p.up.values())


def is_tree(p: Poset) -> bool:
    """True iff any two up-sets intersect (single connected component): in a
    forest two up-sets meet iff they share their maximal element."""
    _require_forest(p)
    return len(p.maximal_elements()) <= 1


def connected_components(p: Poset) -> tuple[frozenset, ...]:
    """The unique partition of a forest into trees (comparable elements share a block)."""
    return tuple(canon_sorted(component_blocks(p)))


def component_blocks(p: Poset) -> frozenset:
    """The blocks of `connected_components`, as a set, in no order: in a
    forest each element lies below exactly one maximal element, so the
    blocks are the maximal elements' down-sets."""
    _require_forest(p)
    return frozenset(p.down[r] for r in p.maximal_elements())


def maximal_chains(p: Poset) -> frozenset:
    """All ⊆-maximal chains, by exhaustive descent along the cover relation.

    A maximal chain runs from a maximal element down to a minimal one through
    covers; each visited node spends one unit of a `Work` counter. Every
    node of the descent is visited whatever the order, so whether the cap is
    reached does not depend on it.
    """
    chains: set = set()
    work = Work("maximal-chain enumeration")
    cover_cache = {x: p.covers(x) for x in p.elements}

    def descend(x, acc):
        work.spend()
        below = cover_cache[x]
        if not below:
            chains.add(frozenset(acc))
            return
        for y in below:
            descend(y, acc + [y])

    for top in p.maximal_elements():
        descend(top, [top])
    return frozenset(chains)


def set_partitions(items, fits=None, label="set"):
    """Partitions of `items` as lists of blocks, in restricted-growth order
    (Knuth, TAOCP 4A §7.2.1.5): item i joins each earlier block in turn,
    then opens a block of its own.

    `fits(block, item)` may bar `item` from `block`. Each search node spends
    one unit of a `Work` counter named "`label` partition enumeration".
    The search path is kept in `at`, not on the call stack.
    """
    items = list(items)
    work = Work(f"{label} partition enumeration")
    blocks, at = [], []  # at[i]: the block item i joined, None once it opened its own

    while True:
        work.spend()
        if len(at) == len(items):
            yield [list(b) for b in blocks]
        else:
            at.append(-1)
        # the next search node: the next place of the deepest item that has
        # one, undoing the places of the items it backs out of
        while at:
            i = len(at) - 1
            j = at[i]
            if j is None:
                blocks.pop()
                at.pop()
                continue
            x = items[i]
            if j >= 0:
                blocks[j].pop()
            j += 1
            while j < len(blocks) and fits is not None and not fits(blocks[j], x):
                j += 1
            if j < len(blocks):
                blocks[j].append(x)
                at[i] = j
            else:
                blocks.append([x])
                at[i] = None
            break
        else:
            return


def separates(p: Poset, x, y) -> bool:
    """True iff some maximal chain contains exactly one of x, y."""
    if x not in p.elements:
        raise unknown_element(x)
    if y not in p.elements:
        raise unknown_element(y)
    if x == y:
        raise InputError("separates requires distinct elements", witness=(x, y))
    for c in maximal_chains(p):
        if len(c & {x, y}) == 1:
            return True
    return False


def is_decision_forest(p: Poset) -> bool:
    """Rooted forest in which every pair of distinct nodes is separated."""
    return is_rooted_forest(p) and separation_witness(p) is None


def separation_witness(p: Poset):
    """None, or a pair of distinct elements no maximal chain separates.

    Requires a forest. There every maximal chain is ↑y for a leaf y (a
    minimal element), and it passes through x iff y ∈ ↓x; so some chain
    holds exactly one of x, y iff the leaves below x and below y differ.
    Elements with the same leaves form a group. The witness is the first
    such pair in canonical order: the canonically least element sharing its
    group, with the next element of that group.
    """
    _require_forest(p)
    leaves = p.minimal_elements()
    groups: dict = {}
    for x, below in p.down.items():
        groups.setdefault(below & leaves, []).append(x)
    shared = [x for g in groups.values() if len(g) > 1 for x in g]
    if not shared:
        return None
    first = min(shared, key=canon_key)
    return first, min((y for y in groups[p.down[first] & leaves] if y != first), key=canon_key)


def find_order_isomorphism(p: Poset, q: Poset):
    """A bijection f with x >= y iff f(x) >= f(y), or None.

    Backtracking over canon-ordered elements, pruning by (up-set size,
    down-set size) signatures; adequate for desk-scale posets.
    """
    if len(p.elements) != len(q.elements) or len(p.ge_pairs) != len(q.ge_pairs):
        return None

    def signature(r: Poset, x):
        return (len(up_set(r, x)), len(down_set(r, x)))

    p_elems = canon_sorted(p.elements)
    q_by_sig: dict = {}
    for y in canon_sorted(q.elements):
        q_by_sig.setdefault(signature(q, y), []).append(y)
    if sorted(map(canon_key, (signature(p, x) for x in p_elems))) != sorted(
        map(canon_key, (signature(q, y) for y in q.elements))
    ):
        return None

    assignment: dict = {}
    used: set = set()

    def extend(i):
        if i == len(p_elems):
            return True
        x = p_elems[i]
        for y in q_by_sig.get(signature(p, x), []):
            if y in used:
                continue
            if all(
                p.ge(x, x2) == q.ge(y, y2) and p.ge(x2, x) == q.ge(y2, y)
                for x2, y2 in assignment.items()
            ):
                assignment[x] = y
                used.add(y)
                if extend(i + 1):
                    return True
                del assignment[x]
                used.discard(y)
        return False

    return dict(assignment) if extend(0) else None
