import pytest

from sdfkit.errors import InputError, StructureError
from sdfkit.gen import random_v_poset
from sdfkit.order_core import Poset, connected_components, find_order_isomorphism, is_tree
from sdfkit.set_forest import (
    SetForest,
    decompose,
    glue,
    representation_by_decision_paths,
    verify_own_representation,
)


def sf(universe, nodes):
    return SetForest.of(universe, [frozenset(n) for n in nodes])


class TestInducedPoset:
    def test_three_nodes(self):
        forest = sf("ab", [{"a", "b"}, {"a"}, {"b"}])
        p = forest.poset
        top = frozenset("ab")
        assert p.gt(top, frozenset("a")) and p.gt(top, frozenset("b"))
        assert not p.comparable(frozenset("a"), frozenset("b"))

    def test_single_node(self):
        p = sf("a", [{"a"}]).poset
        assert len(p.elements) == 1

    def test_simple_instance_fourteen_nodes_two_components(self, simple):
        p = simple.forest.poset
        # 2 roots + 4 mid moves + 8 terminals
        assert len(p.elements) == 14
        assert len(connected_components(p)) == 2

    def test_duplicate_node_rejected(self):
        with pytest.raises(InputError) as exc:
            sf("ab", [{"a"}, {"a"}])
        assert exc.value.code == "duplicate-node"

    @pytest.mark.parametrize(
        "nodes, error, message, code, witness",
        [
            (["b", "a", "ab", "a"], InputError, "duplicate node: {a}", "duplicate-node", "a"),
            (["ab", "", "a"], StructureError, "empty node", "structure-error", ""),
            (["ab", "aq"], StructureError, "node {a, q} not a subset of the universe",
             "structure-error", "aq"),
            # several faults, in either order: the canonically first faulty node is named
            (["bq", "b", "", "b"], StructureError, "empty node", "structure-error", ""),
            (["bq", "b", "b"], InputError, "duplicate node: {b}", "duplicate-node", "b"),
            (["bq", "b", "az", "b"], StructureError, "node {a, z} not a subset of the universe",
             "structure-error", "az"),
        ],
    )
    def test_names_the_canonically_first_fault(self, nodes, error, message, code, witness):
        for order in (nodes, nodes[::-1]):
            with pytest.raises(error) as exc:
                sf("ab", order)
            assert (str(exc.value), exc.value.code) == (message, code)
            assert exc.value.witness == frozenset(witness)


class TestVerifyOwnRepresentation:
    def test_missing_terminals(self):
        v = verify_own_representation(sf("ab", [{"a", "b"}]))
        assert not v.ok
        # the unique maximal chain corresponds to two distinct outcomes
        assert v.code == "non-singleton-terminal"

    def test_single_singleton(self):
        assert verify_own_representation(sf("a", [{"a"}])).ok

    def test_simple_instance(self, simple):
        assert verify_own_representation(simple.forest).ok

    def test_duality(self, simple, variant):
        for forest in (simple.forest, variant.forest):
            paths = {
                v: frozenset(x for x in forest.nodes if v in x)
                for v in forest.universe
            }
            for x in forest.nodes:
                for v in forest.universe:
                    assert (x in paths[v]) == (v in x)

    def test_chain_without_branching_fails(self):
        # {a,b} ⊋ {a} with no {b}: outcome b's path is not maximal
        v = verify_own_representation(sf("ab", [{"a", "b"}, {"a"}]))
        assert not v.ok

    def test_missing_singleton_under_a_deep_chain(self):
        # {a..e} ⊋ {a,b,c,d} ⊋ {a,b,c} ⊋ {a,b}, {c} and {a,b} ⊋ {a}, {b}:
        # every terminal is a singleton, but {d} and {e} are missing, so the
        # paths of d and e stop at wide nodes; d is named with its path
        nodes = [set("abcde"), set("abcd"), set("abc"), set("ab"), {"a"}, {"b"}, {"c"}]
        v = verify_own_representation(sf("abcde", nodes))
        assert (v.ok, v.code) == (False, "path-not-maximal-chain")
        assert v.witness == (
            "outcome d: ↑{v} = {{a, b, c, d}, {a, b, c, d, e}} is not a maximal chain"
        )


class TestRepresentationByDecisionPaths:
    def test_two_chain_rejected(self):
        p = Poset.of("ab", [("a", "b")])
        with pytest.raises(StructureError) as exc:
            representation_by_decision_paths(p)
        assert exc.value.code == "not-a-decision-forest"
        assert set(exc.value.witness) == {"a", "b"}

    def test_two_antichain(self):
        p = Poset.of("ab", [])
        forest = representation_by_decision_paths(p)
        assert len(forest.universe) == 2
        assert all(len(x) == 1 for x in forest.nodes)

    def test_derived_tree_roundtrip(self, simple):
        # the derived tree of the simple instance, re-represented over its
        # own maximal chains, is order-isomorphic to itself
        tree = simple.ttree.poset
        forest = representation_by_decision_paths(tree)
        assert verify_own_representation(forest).ok
        assert find_order_isomorphism(forest.poset, tree) is not None

    def test_roundtrip_random(self, rng):
        done = 0
        while done < 15:
            candidate = random_v_poset(rng, 5)
            p = candidate.poset
            from sdfkit.order_core import separation_witness, is_rooted_forest

            if p.forest_witness is not None or not is_rooted_forest(p) or separation_witness(p) is not None:
                continue
            forest = representation_by_decision_paths(p)
            assert verify_own_representation(forest).ok
            assert find_order_isomorphism(forest.poset, p) is not None
            done += 1


class TestDecompose:
    def test_singleton_component(self):
        forest = sf("a", [{"a"}])
        [(root, tree)] = decompose(forest)
        assert root == frozenset("a")
        assert tree == forest

    def test_simple_instance_two_trees(self, simple):
        parts = decompose(simple.forest)
        assert len(parts) == 2
        roots = {root for root, _ in parts}
        assert roots == {
            frozenset((1, k, m) for k in (1, 2) for m in (1, 2)),
            frozenset((2, k, m) for k in (1, 2) for m in (1, 2)),
        }
        for root, tree in parts:
            assert verify_own_representation(tree).ok
            assert is_tree(tree.poset)

    def test_variant_three_plus_four(self, variant):
        parts = decompose(variant.forest)
        assert sorted(len(root) for root, _ in parts) == [3, 4]

    def test_partition_of_universe(self, simple, variant):
        for s in (simple, variant):
            parts = decompose(s.forest)
            union = set()
            for root, _ in parts:
                assert not (union & root)
                union |= root
            assert union == set(s.forest.universe)


class TestGlue:
    def test_single_tree(self):
        tree = sf("ab", [{"a", "b"}, {"a"}, {"b"}])
        glued = glue([tree])
        assert find_order_isomorphism(glued.poset, tree.poset) is not None

    def test_two_copies_of_one_outcome_tree(self):
        tree = sf("a", [{"a"}])
        glued = glue([tree, tree])
        assert len(glued.universe) == 2
        assert len(decompose(glued)) == 2

    def test_empty_list_rejected(self):
        with pytest.raises(InputError) as exc:
            glue([])
        assert exc.value.code == "empty-list"

    def test_glue_decompose_roundtrip(self, simple):
        trees = [tree for _, tree in decompose(simple.forest)]
        glued = glue(trees)
        assert verify_own_representation(glued).ok
        assert find_order_isomorphism(glued.poset, simple.forest.poset) is not None
        back = [tree for _, tree in decompose(glued)]
        assert len(back) == len(trees)
        for tree in trees:
            assert any(find_order_isomorphism(tree.poset, b.poset) is not None for b in back)


def component_side_check(forest: SetForest) -> bool:
    """The component-wise side of the forest/trees equivalence."""
    p = forest.poset
    from sdfkit.order_core import is_rooted_forest

    if p.forest_witness is not None or not is_rooted_forest(p):
        return False
    parts = decompose(forest)
    union = set()
    for root, _ in parts:
        if union & root:
            return False
        union |= root
    if union != set(forest.universe):
        return False
    return all(
        is_tree(tree.poset) and verify_own_representation(tree).ok
        for _, tree in parts
    )


class TestForestTreeEquivalence:
    def test_bidirectional_on_randoms(self, rng):
        from sdfkit.order_core import is_rooted_forest

        seen = {True: 0, False: 0}
        for _ in range(120):
            forest = random_v_poset(rng, 6)
            p = forest.poset
            if p.forest_witness is not None or not is_rooted_forest(p):
                continue
            whole = verify_own_representation(forest).ok
            parts = component_side_check(forest)
            assert whole == parts, forest
            seen[whole] += 1
        assert seen[True] >= 10 and seen[False] >= 10
