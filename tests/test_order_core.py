import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sdfkit

from sdfkit import examples
from sdfkit.action_path import build_action_path_sdf
from sdfkit.errors import InputError, SizeCapError, StructureError
from sdfkit.gen import random_rooted_forest, rng_from_env
from sdfkit.order_core import (
    Poset,
    connected_components,
    down_set,
    find_order_isomorphism,
    is_decision_forest,
    is_rooted_forest,
    is_tree,
    maximal_chains,
    separates,
    separation_witness,
    set_partitions,
    up_set,
)
from sdfkit.set_forest import representation_by_decision_paths, verify_own_representation

from conftest import (
    brute_maximal_chains,
    brute_set_partitions,
    brute_poset_failure,
    oracle_covers,
    oracle_down_set,
    oracle_is_tree,
    oracle_maximal_elements,
    oracle_minimal_elements,
    oracle_separation_witness,
    oracle_up_set,
)
from tests_helpers import recursion_headroom


def chain_poset(n):
    # larger integers sit above smaller ones
    return Poset.from_order(range(n), lambda x, y: x >= y)


def antichain(n):
    return Poset.from_order(range(n), lambda x, y: x == y)


def diamond():
    # one top, two middles, one bottom
    pairs = {("t", "m1"), ("t", "m2"), ("t", "b"), ("m1", "b"), ("m2", "b")}
    return Poset.of(["t", "m1", "m2", "b"], pairs)


def two_scenario_poset(simple):
    return simple.forest.poset


class TestPosetConstruction:
    def test_reflexive_enforced(self):
        with pytest.raises(StructureError):
            Poset(frozenset([1]), frozenset())

    def test_antisymmetry(self):
        with pytest.raises(StructureError):
            Poset.of([1, 2], [(1, 2), (2, 1)])

    def test_transitivity(self):
        with pytest.raises(StructureError):
            Poset.of([1, 2, 3], [(1, 2), (2, 3)])

    def test_relation_bounds(self):
        with pytest.raises(StructureError):
            Poset.of([1], [(1, 2)])


# Relations with several failures of one axiom, and the canonically first
# witness each must name, whatever the hash order of the sets.
POSET_WITNESS_CASES = [
    (
        "abcdxyz",
        [("a", "b"), ("b", "c"), ("c", "d"), ("x", "y"), ("y", "z")],
        "relation not transitive via ('a', 'b', 'c')",
    ),
    ("abxy", [("b", "a"), ("a", "b"), ("y", "x"), ("x", "y")], "relation not antisymmetric on ('a', 'b')"),
    ("ab", [("b", "z"), ("a", "q"), ("y", "a")], "relation mentions non-element: ('a', 'q')"),
]


def _poset_failure(elements, pairs, close=True):
    try:
        if close:
            Poset.of(elements, pairs)
        else:
            Poset(frozenset(elements), frozenset(pairs))
    except StructureError as e:
        return str(e)
    return None


class TestPosetWitnesses:
    def test_canonical_witness(self):
        for elements, pairs, message in POSET_WITNESS_CASES:
            assert _poset_failure(elements, pairs) == message
        assert _poset_failure("zyx", [("y", "y")], close=False) == "relation not reflexive at 'x'"

    def test_same_under_two_hash_seeds(self, tmp_path):
        source_root = str(Path(sdfkit.__file__).resolve().parent.parent)
        script = (
            "from sdfkit.order_core import Poset\n"
            "from sdfkit.errors import StructureError\n"
            f"for elements, pairs, _ in {POSET_WITNESS_CASES!r}:\n"
            "    try:\n"
            "        Poset.of(elements, pairs)\n"
            "    except StructureError as e:\n"
            "        print(e)\n"
        )
        for seed in ("1", "77"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": source_root},
                cwd=tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines() == [m for _, _, m in POSET_WITNESS_CASES]

    def test_matches_literal_definitions(self, rng):
        # random relations over string labels, closed reflexively or not
        kinds = set()
        for _ in range(300):
            elements = [f"e{i}" for i in range(rng.randint(1, 5))]
            pool = elements + ["stray"] * (rng.random() < 0.2)
            pairs = {(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 10))}
            close = rng.random() < 0.7
            closed = pairs | {(x, x) for x in elements} if close else pairs
            message = _poset_failure(elements, pairs, close)
            assert message == brute_poset_failure(frozenset(elements), closed)
            kinds.add(message.split(" ")[2] if message else None)
        assert kinds == {None, "non-element:", "reflexive", "antisymmetric", "transitive"}


class TestUpSet:
    def test_three_chain(self):
        p = chain_poset(3)  # 2 >= 1 >= 0
        assert up_set(p, 0) == {0, 1, 2}

    def test_root_of_tree(self):
        p = Poset.of(["r", "a", "b"], [("r", "a"), ("r", "b")])
        assert up_set(p, "r") == {"r"}

    def test_two_scenario_terminal(self, simple):
        # Independent oracle: enumerate ⊇ over the instance's 14 node sets.
        nodes = simple.forest.nodes
        assert len(nodes) == 14
        target = frozenset([(1, 1, 1)])
        expected = frozenset(y for y in nodes if y >= target)
        x0_1 = frozenset((1, k, m) for k in (1, 2) for m in (1, 2))
        x1_1 = frozenset((1, 1, m) for m in (1, 2))
        assert expected == {x0_1, x1_1, target}
        assert up_set(two_scenario_poset(simple), target) == expected

    def test_unknown_element(self):
        with pytest.raises(InputError):
            up_set(chain_poset(2), 99)


class TestIsForest:
    def test_diamond_is_not(self):
        assert diamond().forest_witness is not None

    def test_total_order_is(self):
        assert chain_poset(5).forest_witness is None

    def test_two_scenario_instance_is(self, simple):
        assert two_scenario_poset(simple).forest_witness is None


class TestIsRootedForest:
    def test_empty_poset(self):
        assert not is_rooted_forest(Poset.of([], []))

    def test_finite_nonempty_forests(self, rng):
        for _ in range(25):
            assert is_rooted_forest(random_rooted_forest(rng))

    def test_variant_forest(self, variant):
        assert is_rooted_forest(variant.forest.poset)

    def test_not_a_forest_error(self):
        with pytest.raises(StructureError):
            is_rooted_forest(diamond())


class TestConnectedComponents:
    def test_singleton(self):
        assert connected_components(antichain(1)) == (frozenset([0]),)

    def test_two_incomparable(self):
        assert set(connected_components(antichain(2))) == {frozenset([0]), frozenset([1])}

    def test_two_scenario_instance_two_blocks(self, simple):
        blocks = connected_components(two_scenario_poset(simple))
        assert len(blocks) == 2
        scenarios = {frozenset(next(iter(x))[0] for x in block) for block in blocks}
        assert scenarios == {frozenset([1]), frozenset([2])}

    def test_partition_and_merge_violation(self, rng):
        for _ in range(30):
            p = random_rooted_forest(rng, 12)
            blocks = connected_components(p)
            union = set()
            for b in blocks:
                assert not (union & b)
                union |= b
            assert union == set(p.elements)
            for x, y in p.ge_pairs:
                assert any(x in b and y in b for b in blocks)
            # merging two blocks breaks minimality of the partition: a merged
            # block is not a tree (some pair has disjoint up-sets)
            for b1, b2 in itertools.combinations(blocks, 2):
                merged = b1 | b2
                assert any(
                    not (up_set(p, x) & up_set(p, y))
                    for x in b1
                    for y in b2
                ), merged


class TestMaximalChains:
    def test_antichain(self):
        assert maximal_chains(antichain(4)) == {frozenset([i]) for i in range(4)}

    def test_two_chain(self):
        assert maximal_chains(chain_poset(2)) == {frozenset([0, 1])}

    def test_two_scenario_instance_eight_chains(self, simple):
        assert len(maximal_chains(two_scenario_poset(simple))) == 8

    def test_against_subset_oracle(self, rng):
        for _ in range(20):
            p = random_rooted_forest(rng, 7)
            expected = brute_maximal_chains(p.elements, p.ge)
            assert maximal_chains(p) == expected

    def test_oracle_on_non_forest(self):
        p = diamond()
        assert maximal_chains(p) == brute_maximal_chains(p.elements, p.ge)

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr("sdfkit.errors.WORK_CAP", 10)
        with pytest.raises(SizeCapError):
            maximal_chains(chain_poset(30))



class TestSetPartitions:
    def test_restricted_growth_order(self):
        parts = [["".join(b) for b in p] for p in set_partitions("abc")]
        assert parts == [["abc"], ["ab", "c"], ["ac", "b"], ["a", "bc"], ["a", "b", "c"]]
        assert [len(list(set_partitions(range(n)))) for n in range(6)] == [1, 1, 2, 5, 15, 52]

    def test_fits_and_work_cap(self, monkeypatch):
        def apart(block, x):
            return not {"a", "b"} <= set(block) | {x}

        # six search nodes: the root, [a], [a][b] and the three leaves
        monkeypatch.setattr("sdfkit.errors.WORK_CAP", 6)
        parts = [["".join(b) for b in p] for p in set_partitions("abc", apart)]
        assert parts == [["ac", "b"], ["a", "bc"], ["a", "b", "c"]]
        monkeypatch.setattr("sdfkit.errors.WORK_CAP", 5)
        with pytest.raises(SizeCapError) as exc:
            list(set_partitions("abc", apart, "abc"))
        assert str(exc.value) == "abc partition enumeration exceeded 5 work units"

    def test_matches_recursive_form(self, rng, monkeypatch):
        # the same partitions, `fits` calls and cap node as the recursive
        # search, under every cap from 1 to past the whole search
        def trace(fn, items, seed, cap):
            monkeypatch.setattr("sdfkit.errors.WORK_CAP", cap)
            draw, verdicts, calls, parts = random.Random(seed), {}, [], []

            def fits(block, x):
                calls.append((tuple(block), x))
                return verdicts.setdefault(calls[-1], draw.random() < 0.6)

            try:
                for p in fn(items, fits if seed % 3 else None, "t"):
                    parts.append(p)
            except SizeCapError as e:
                return parts, calls, str(e)
            return parts, calls, None

        for n in range(6):
            for cap in range(1, 200, 3):
                seed = rng.randrange(10 ** 6)
                assert trace(set_partitions, range(n), seed, cap) == trace(
                    brute_set_partitions, range(n), seed, cap
                )

    def test_depth_not_bounded_by_the_recursion_limit(self):
        with recursion_headroom(100):
            parts = list(set_partitions(range(300), lambda block, x: False))
        assert parts == [[[i] for i in range(300)]]

class TestSeparates:
    def test_two_incomparable_roots(self):
        assert separates(antichain(2), 0, 1)

    def test_equal_rejected(self):
        with pytest.raises(InputError):
            separates(antichain(2), 0, 0)

    def test_two_scenario_root_vs_mid(self, simple):
        p = two_scenario_poset(simple)
        x0_1 = frozenset((1, k, m) for k in (1, 2) for m in (1, 2))
        x1_1 = frozenset((1, 1, m) for m in (1, 2))
        # Oracle: brute subset enumeration of maximal chains.
        chains = brute_maximal_chains(p.elements, p.ge)
        assert any(len(c & {x0_1, x1_1}) == 1 for c in chains)
        assert separates(p, x0_1, x1_1)

    def test_two_chain_not_separated(self):
        assert not separates(chain_poset(2), 0, 1)


class TestRootsAndChains:
    def test_each_maximal_chain_has_one_root(self, rng):
        for _ in range(25):
            p = random_rooted_forest(rng, 10)
            rs = p.maximal_elements()
            for c in maximal_chains(p):
                assert len(c & rs) == 1


class TestDecisionForestCrossCheck:
    def test_separation_iff_representation_verifies(self, rng):
        # all-pairs separation in the order sense agrees with the set-level
        # verifier through the representation construction
        hits = {True: 0, False: 0}
        for _ in range(40):
            p = random_rooted_forest(rng, 8)
            sep = separation_witness(p) is None
            hits[sep] += 1
            if sep:
                sf = representation_by_decision_paths(p)
                assert verify_own_representation(sf).ok
                assert is_decision_forest(p)
            else:
                with pytest.raises(StructureError) as exc:
                    representation_by_decision_paths(p)
                assert exc.value.code == "not-a-decision-forest"
        assert hits[True] and hits[False]


class TestIsomorphism:
    def test_reflexive(self, simple):
        p = two_scenario_poset(simple)
        assert find_order_isomorphism(p, p) is not None

    def test_respects_structure(self):
        abc = Poset.from_order("abc", lambda x, y: x >= y)
        assert find_order_isomorphism(chain_poset(3), abc) is not None
        assert find_order_isomorphism(chain_poset(3), antichain(3)) is None

    def test_mapping_is_an_isomorphism(self, rng):
        for _ in range(10):
            p = random_rooted_forest(rng, 8)
            relabel = {x: f"n{x}" for x in p.elements}
            q = Poset.of(
                relabel.values(),
                [(relabel[a], relabel[b]) for a, b in p.ge_pairs],
            )
            f = find_order_isomorphism(p, q)
            assert f is not None
            for a in p.elements:
                for b in p.elements:
                    assert p.ge(a, b) == q.ge(f[a], f[b])


def relabelled(p, label):
    return Poset.of(
        [label(x) for x in p.elements],
        [(label(x), label(y)) for x, y in p.ge_pairs],
    )


def scrambled(x):
    # injective on 0..100; a set iterates these ints out of their numeric order
    return (37 * x + 11) % 101


def random_dag_poset(rng, max_nodes=8):
    """The transitive closure of a random DAG: mostly not a forest."""
    n = rng.randint(1, max_nodes)
    above = {}
    for j in range(n):
        above[j] = {j}
        for i in range(j):
            if rng.random() < 0.35:
                above[j] |= above[i]
    return Poset.of(range(n), [(i, j) for j in range(n) for i in above[j]])


def outcome(fn, *args):
    """What fn returns, or the type, code and text of the error it raises."""
    try:
        return ("value", fn(*args))
    except (InputError, StructureError) as e:
        return ("error", type(e), e.code, str(e))


def oracle_posets(rng):
    posets = []
    for _ in range(40):
        posets.append(relabelled(random_rooted_forest(rng, 10), scrambled))
        posets.append(relabelled(random_dag_poset(rng), scrambled))
    builtins = [
        examples.build_simple(),
        examples.build_variant(),
        examples.timing_instance().sdf,
        build_action_path_sdf(examples.upandout_path_outcomes(), max_x_exhaustive=12).sdf,
    ]
    for s in builtins:
        posets.append(s.forest.poset)
        posets.append(s.ttree.poset)
    posets += [diamond(), antichain(3), chain_poset(4), Poset.of([], [])]
    return posets


class TestIndexAgainstOracles:
    """The indexed derived-order functions equal their element-scanning definitions."""

    def test_up_down_covers_extrema(self, rng):
        for p in oracle_posets(rng):
            for x in list(p.elements) + ["not-an-element"]:
                assert outcome(up_set, p, x) == outcome(oracle_up_set, p, x)
                assert outcome(down_set, p, x) == outcome(oracle_down_set, p, x)
                assert p.covers(x) == oracle_covers(p, x)
            assert p.maximal_elements() == oracle_maximal_elements(p)
            assert p.minimal_elements() == oracle_minimal_elements(p)

    def test_is_tree_and_separation_witness(self, rng):
        kinds = set()
        for p in oracle_posets(rng):
            tree = outcome(is_tree, p)
            assert tree == outcome(oracle_is_tree, p)
            # on a non-forest both raise the same not-a-forest error
            witness = outcome(separation_witness, p)
            if tree[0] == "value":
                assert witness == ("value", oracle_separation_witness(p))
            else:
                assert witness == tree
            kinds.add((tree[0], tree[1] if tree[0] == "value" else None, witness == ("value", None)))
        # trees, forests, non-forests, separated and unseparated posets all occur
        assert {("value", True, True), ("value", False, False), ("error", None, False)} <= kinds

    def test_unknown_element_errors(self):
        p = chain_poset(2)
        for fn in (up_set, down_set):
            with pytest.raises(InputError) as exc:
                fn(p, 99)
            assert exc.value.code == "unknown-element"
            assert str(exc.value) == "element not in poset: 99"
