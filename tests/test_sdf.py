import itertools

import pytest

from sdfkit._canon import canon_key, canon_sorted
from sdfkit.errors import InputError, SizeCapError, StructureError
from sdfkit.order_core import find_order_isomorphism, is_rooted_forest, is_tree, separation_witness
from sdfkit.sdf import (
    RandomMove,
    ScenarioSpace,
    Sdf,
    check_evaluation_bijection,
    check_ttree_theorem,
    drop_moveless_components,
    fibres,
    find_sdf_isomorphism,
    ge_x,
    t_dot_omega,
    verify_sdf,
    x_order,
)
from sdfkit.set_forest import SetForest
from sdfkit.sigma_info import SubSigma


def one_scenario_sdf():
    """Single scenario, a root with two terminal children."""
    universe = frozenset(["a", "b"])
    nodes = [frozenset("ab"), frozenset("a"), frozenset("b")]
    forest = SetForest.of(universe, nodes)
    space = ScenarioSpace.discrete([0])
    move = RandomMove.of({0: frozenset("ab")})
    return Sdf.of(forest, space, {x: 0 for x in forest.nodes}, [move])


def lone_terminal_sdf():
    """Scenario 1 has a real tree, scenario 2 a single terminal outcome."""
    universe = frozenset(["a", "b", "z"])
    nodes = [frozenset("ab"), frozenset("a"), frozenset("b"), frozenset("z")]
    forest = SetForest.of(universe, nodes)
    space = ScenarioSpace.discrete([1, 2])
    projection = {
        frozenset("ab"): 1,
        frozenset("a"): 1,
        frozenset("b"): 1,
        frozenset("z"): 2,
    }
    move = RandomMove.of({1: frozenset("ab")})
    return Sdf.of(forest, space, projection, [move])


def disjoint_domain_sdf():
    """Three one-scenario trees with a root move each, plus an inner move in
    scenario 2; the four moves sort as root 1, inner 2, root 2, root 3."""
    trees = {1: ["a1", "b1"], 2: ["a2", "b2", "c2"], 3: ["a3", "b3"]}
    nodes, projection = [], {}
    for w, outs in trees.items():
        for x in [frozenset(outs)] + [frozenset([o]) for o in outs]:
            nodes.append(x)
            projection[x] = w
    inner = frozenset(["a2", "b2"])
    nodes.append(inner)
    projection[inner] = 2
    forest = SetForest.of(frozenset(o for outs in trees.values() for o in outs), nodes)
    moves = [RandomMove.of({w: frozenset(outs)}) for w, outs in trees.items()]
    moves.append(RandomMove.of({2: inner}))
    return Sdf.of(forest, ScenarioSpace.discrete(trees), projection, moves)


class TestScenarioSpace:
    def test_atoms_partition(self):
        with pytest.raises(StructureError):
            ScenarioSpace.of([1, 2], [[1, 2], [2]])

    def test_event_membership_is_union_of_atoms(self):
        space = ScenarioSpace.of([1, 2, 3], [[1, 2], [3]])
        assert space.is_event({1, 2})
        assert space.is_event({1, 2, 3})
        assert space.is_event(set())
        assert not space.is_event({1})
        assert len(space.events()) == 4

    def test_is_the_sub_sigma_over_omega(self):
        space = ScenarioSpace.of([1, 2, 3], [[1, 2], [3]])
        assert isinstance(space, SubSigma)
        assert space.scenarios == space.carrier == frozenset([1, 2, 3])
        assert space.algebra_atoms == space.atoms
        for r in range(4):
            for subset in itertools.combinations([1, 2, 3], r):
                assert space.is_event(subset) == space.contains(subset)

    @pytest.mark.parametrize(
        "scenarios, atoms",
        [
            ([1, 2], [[1, 2], []]),  # empty atom
            ([1, 2], [[1, 2], [2]]),  # overlapping atoms
            ([1, 2], [[1]]),  # atoms do not cover Ω
            ([], []),  # empty Ω
        ],
    )
    def test_invalid_spaces_rejected(self, scenarios, atoms):
        with pytest.raises(StructureError):
            ScenarioSpace.of(scenarios, atoms)

    def test_public_names_import(self):
        import sdfkit
        import sdfkit.sigma_info

        assert sdfkit.SubSigma is sdfkit.sigma_info.SubSigma is SubSigma
        assert sdfkit.ScenarioSpace is ScenarioSpace


class TestRandomMove:
    def test_empty_domain_rejected(self):
        with pytest.raises(StructureError):
            RandomMove.of({})

    def test_nonempty_domains_across_corpus(self, simple, variant):
        for s in (simple, variant):
            assert all(m.domain for m in s.random_moves)


class TestFibres:
    def test_single_scenario(self):
        s = one_scenario_sdf()
        assert fibres(s) == {0: s.forest.nodes}

    def test_simple_instance(self, simple, simple_moves):
        fib = fibres(simple)
        for w in (1, 2):
            expected = {m.node_at(w) for m in simple_moves.values()} | {
                frozenset([v]) for v in simple.forest.universe if v[0] == w
            }
            assert fib[w] == expected

    def test_mis_tagged_projection(self, simple):
        proj = dict(simple.projection)
        proj[frozenset([(1, 1, 1)])] = 2
        bad = Sdf.of(simple.forest, simple.space, proj, simple.random_moves)
        with pytest.raises(StructureError) as exc:
            fibres(bad)
        assert exc.value.code == "fibre-mismatch"


class TestProjection:
    def test_kept_as_a_set_keyed_in_node_order(self, simple, variant):
        # the canonical key still lists (node, scenario) in canonical node order
        for s in (simple, variant, one_scenario_sdf()):
            assert isinstance(s.projection, frozenset)
            pairs = tuple((x, s.proj[x]) for x in canon_sorted(s.forest.nodes))
            assert s.canon_key()[3] == canon_key(pairs)
            assert s == Sdf.of(s.forest, s.space, dict(reversed(pairs)), s.random_moves)


class TestVerifySdf:
    def test_simple_all_axioms(self, simple):
        v = verify_sdf(simple)
        assert v.ok and not v.partial
        assert [k for k, _ in v.items] == [
            "axiom-1", "axiom-2", "axiom-3a", "axiom-3b",
            "axiom-3c", "axiom-3d", "axiom-3e", "axiom-3f",
        ]

    def test_variant_all_axioms(self, variant):
        v = verify_sdf(variant)
        assert v.ok and not v.partial

    def test_variant_x2_domain(self, variant_moves):
        assert variant_moves["x2"].domain == frozenset([2])

    def test_split_root_fails_3e(self, simple, simple_moves):
        x0 = simple_moves["x0"]
        split = frozenset(
            {RandomMove.of({1: x0.node_at(1)}), RandomMove.of({2: x0.node_at(2)})}
            | {simple_moves["x1"], simple_moves["x2"]}
        )
        s = Sdf.of(simple.forest, simple.space, dict(simple.projection), split)
        v = verify_sdf(s)
        assert not v.verdict("axiom-3e").ok
        assert "merging" in v.verdict("axiom-3e").witness

    def test_simple_x_order(self, simple, simple_moves):
        order = x_order(simple)
        strict = {
            (a, b)
            for a in simple.random_moves
            for b in simple.random_moves
            if order.gt(a, b)
        }
        x0, x1, x2 = (simple_moves[k] for k in ("x0", "x1", "x2"))
        assert strict == {(x0, x1), (x0, x2)}

    def test_pairwise_mode_is_partial(self, simple):
        v = verify_sdf(simple, max_x_exhaustive=2)
        assert v.ok and v.verdict("axiom-3e").partial

    def test_pairwise_mode_still_finds_merges(self, simple, simple_moves):
        # above the cap the necessary test alone already refutes a split root
        x0 = simple_moves["x0"]
        split = frozenset(
            {RandomMove.of({1: x0.node_at(1)}), RandomMove.of({2: x0.node_at(2)})}
            | {simple_moves["x1"], simple_moves["x2"]}
        )
        s = Sdf.of(simple.forest, simple.space, dict(simple.projection), split)
        verdict = verify_sdf(s, max_x_exhaustive=1).verdict("axiom-3e")
        assert not verdict.ok and not verdict.partial

    def test_3e_work_cap_and_visit_order(self, monkeypatch):
        # Restricted-growth order: the three coarsenings that merge root 1
        # with the inner move fail 3d, so the first to pass 3a-3d merges the
        # three roots, found at the tenth work unit. Axiom 1's chain
        # enumeration shares the cap, so the 3e check runs alone.
        from sdfkit.sdf import _check_axiom_3e

        s = disjoint_domain_sdf()
        monkeypatch.setattr("sdfkit.errors.WORK_CAP", 10)
        verdict = _check_axiom_3e(s, s.sorted_moves, 6)
        assert verdict.witness == (
            "proper coarsening satisfies 3a-3d: merging "
            "{1↦{a1, b1}}, {2↦{a2, b2, c2}}, {3↦{a3, b3}}"
        )
        monkeypatch.setattr("sdfkit.errors.WORK_CAP", 9)
        with pytest.raises(SizeCapError) as exc:
            _check_axiom_3e(s, s.sorted_moves, 6)
        assert str(exc.value) == "axiom-3e partition enumeration exceeded 9 work units"

    def test_3e_formats_only_its_witness(self, monkeypatch):
        # the candidates that fail 3d before the witness is found format no
        # text; only the three merged moves of the witness are formatted
        s = disjoint_domain_sdf()
        fmt = RandomMove.fmt
        formatted = []

        def counting(move):
            formatted.append(move)
            return fmt(move)

        monkeypatch.setattr(RandomMove, "fmt", counting)
        verdict = verify_sdf(s).verdict("axiom-3e")
        assert not verdict.ok and len(formatted) == 3

    def test_3f_reported_not_skipped(self, simple):
        v = verify_sdf(simple)
        assert "trivially satisfied" in " ".join(v.verdict("axiom-3f").notes)

    def test_non_section_fails_3a(self, simple, simple_moves):
        bad_move = RandomMove.of(
            {1: simple_moves["x1"].node_at(2), 2: simple_moves["x1"].node_at(2)}
        )
        s = Sdf.of(
            simple.forest,
            simple.space,
            dict(simple.projection),
            frozenset([bad_move, simple_moves["x0"], simple_moves["x2"]]),
        )
        assert not verify_sdf(s).verdict("axiom-3a").ok

    def test_missing_cover_fails_3b(self, simple, simple_moves):
        s = Sdf.of(
            simple.forest,
            simple.space,
            dict(simple.projection),
            frozenset([simple_moves["x0"], simple_moves["x1"]]),
        )
        assert not verify_sdf(s).verdict("axiom-3b").ok

    def test_root_mismatch_fails_3d(self, variant, variant_moves):
        # a section mixing the root at one scenario with a mid node at another
        mixed = RandomMove.of(
            {1: variant_moves["x0"].node_at(1), 2: variant_moves["x1"].node_at(2)}
        )
        s = Sdf.of(
            variant.forest,
            variant.space,
            dict(variant.projection),
            frozenset([mixed, variant_moves["x1"], variant_moves["x2"], variant_moves["x0"]]),
        )
        v = verify_sdf(s)
        assert not (v.verdict("axiom-3d").ok and v.verdict("axiom-3c").ok)


class TestTTree:
    def test_single_scenario_tree(self):
        s = one_scenario_sdf()
        tree = s.ttree
        assert len(tree.moves) == 1 and len(tree.terminals) == 2
        assert is_tree(tree.poset) and is_rooted_forest(tree.poset)
        # with one scenario the derived tree is the forest itself, moves
        # becoming singleton-domain sections
        assert find_order_isomorphism(tree.poset, s.forest.poset) is not None

    def test_simple_derived_tree_shape(self, simple):
        tree = simple.ttree
        assert len(tree.moves) == 3
        assert len(tree.terminals) == 8

    def test_variant_derived_tree_shape(self, variant):
        tree = variant.ttree
        assert len(tree.moves) == 3
        assert len(tree.terminals) == 7

    def test_evaluation_bijection_counts(self, simple, variant):
        assert len(t_dot_omega(simple)) == 14
        assert check_evaluation_bijection(simple).ok
        assert len(t_dot_omega(variant)) == 12
        assert check_evaluation_bijection(variant).ok

    def test_single_terminal_instance(self):
        universe = frozenset(["w"])
        forest = SetForest.of(universe, [frozenset("w")])
        space = ScenarioSpace.discrete([0])
        s = Sdf.of(forest, space, {frozenset("w"): 0}, [])
        assert len(t_dot_omega(s)) == 1
        assert check_evaluation_bijection(s).ok

    def test_theorem_on_worked_instances(self, simple, variant):
        assert check_ttree_theorem(simple).ok
        assert check_ttree_theorem(variant).ok

    def test_lone_terminal_requires_reduction(self):
        s = lone_terminal_sdf()
        with pytest.raises(StructureError) as exc:
            check_ttree_theorem(s)
        assert exc.value.code == "roots-not-moves"
        reduced = drop_moveless_components(s)
        assert check_ttree_theorem(reduced).ok
        assert reduced.space.scenarios == frozenset([1])

    def test_components_match_slices(self, simple, variant):
        for s in (simple, variant):
            tree = s.ttree
            for w in s.space.scenarios:
                slice_nodes = {
                    y.node_at(w) for y in tree.moves if w in y.domain
                } | {
                    frozenset([out]) for (w2, out) in tree.terminals if w2 == w
                }
                assert slice_nodes == fibres(s)[w]

    def test_order_embedding_quantified(self, simple):
        tree = simple.ttree
        pairs = t_dot_omega(simple)

        def value(y, w):
            if isinstance(y, RandomMove):
                return y.node_at(w)
            return frozenset([y[1]])

        for y1, w1 in pairs:
            for y2, w2 in pairs:
                lhs = tree.poset.ge(y1, y2) and w1 == w2
                assert lhs == (value(y1, w1) >= value(y2, w2))


class TestTTreeAsDecisionTree:
    def test_separation(self, simple, variant):
        for s in (simple, variant):
            tree = s.ttree
            assert separation_witness(tree.poset) is None


def _relabelled(s: Sdf, mapping: dict) -> Sdf:
    """`s` with each outcome w renamed mapping[w]."""
    nodes = [frozenset(mapping[v] for v in x) for x in s.forest.nodes]
    forest = SetForest.of(frozenset(mapping.values()), nodes)
    projection = {frozenset(mapping[v] for v in x): scen for x, scen in s.projection}
    moves = [
        RandomMove.of({w: frozenset(mapping[v] for v in node) for w, node in m.items()})
        for m in s.random_moves
    ]
    return Sdf.of(forest, s.space, projection, moves)


class TestIsomorphism:
    def test_self(self, simple):
        assert find_sdf_isomorphism(simple, simple) is not None

    def test_simple_not_variant(self, simple, variant):
        assert find_sdf_isomorphism(simple, variant) is None

    def test_relabelled(self, simple):
        mapping = {w: ("w", *w) for w in simple.forest.universe}
        found = find_sdf_isomorphism(simple, _relabelled(simple, mapping))
        assert found is not None
        scen_map, out_map = found
        assert out_map == mapping and scen_map == {1: 1, 2: 2}

    def test_search_past_its_cap_raises(self, simple, monkeypatch):
        # scenario 1's outcomes permuted so that the search tries 113
        # candidate bijections, the last of them the first isomorphism
        cycle = {(1, 1, 1): (1, 1, 2), (1, 1, 2): (1, 2, 1), (1, 2, 1): (1, 1, 1)}
        other = _relabelled(simple, {w: cycle.get(w, w) for w in simple.forest.universe})
        monkeypatch.setattr("sdfkit.errors.WORK_CAP", 113)
        assert find_sdf_isomorphism(simple, other) is not None
        monkeypatch.setattr("sdfkit.errors.WORK_CAP", 112)
        with pytest.raises(SizeCapError) as exc:
            find_sdf_isomorphism(simple, other)
        assert str(exc.value) == "isomorphism search exceeded 112 candidate bijections"


class TestSdfOfFaults:
    """Each shape fault `Sdf.of` names, on the one-scenario tree {a, b}."""

    AB, A, B = frozenset("ab"), frozenset("a"), frozenset("b")

    @pytest.mark.parametrize(
        "projection, move, message",
        [
            ({AB: 0, A: 0}, {0: AB}, "projection missing node {b}"),
            ({AB: 0, A: 0, B: 0, frozenset("q"): 0}, {0: AB}, "projection maps unknown node {q}"),
            ({AB: 0, A: 0, B: 9}, {0: AB}, "projection targets unknown scenario 9"),
            ({AB: 0, A: 0, B: 0}, {7: AB}, "random move uses unknown scenario 7"),
            ({AB: 0, A: 0, B: 0}, {0: frozenset("q")}, "random move assigns unknown node {q}"),
        ],
    )
    def test_names_the_fault(self, projection, move, message):
        forest = SetForest.of("ab", [self.AB, self.A, self.B])
        with pytest.raises(InputError) as exc:
            Sdf.of(forest, ScenarioSpace.discrete([0]), projection, [RandomMove.of(move)])
        assert (str(exc.value), exc.value.code) == (message, "input-error")


class TestGeX:
    def test_restriction_is_below(self, variant_moves):
        x1 = variant_moves["x1"]
        assert ge_x(x1, x1.restricted({2}))
        assert not ge_x(x1.restricted({2}), x1)
