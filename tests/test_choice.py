import itertools

import pytest

from sdfkit import examples
from sdfkit.choice import (
    Choice,
    Rcs,
    adapted_at_move,
    classify,
    down_set,
    is_adapted,
    predecessors,
    preimage,
    restrict_check,
    verify_rcs,
)
from sdfkit.errors import InputError
from sdfkit.sdf import ScenarioSpace, Sdf, outcomes_of_event
from sdfkit.set_forest import SetForest
from sdfkit.sigma_info import enumerate_eis

from conftest import brute_adapted_at_move, brute_verify_rcs
from tests_helpers import MAPS, explicit_doc, lone_terminal_instance, simple_eis_list

C = examples.simple_choice_outcomes
CV = examples.variant_choice_outcomes


class TestChoiceValidation:
    def test_outside_the_universe_rejected(self):
        s = explicit_doc().sdf
        with pytest.raises(InputError) as exc:
            Choice.of(s, {"a", "q"})
        assert (str(exc.value), exc.value.code) == ("outcomes {q} outside the universe", "not-a-choice")

    def test_empty_rejected(self, simple):
        with pytest.raises(InputError) as exc:
            Choice.of(simple, frozenset())
        assert exc.value.code == "not-a-choice"

    def test_union_of_nodes_required(self, variant):
        # a strict subset of the collapsed terminal plus nothing covering it
        with pytest.raises(InputError):
            Choice.of(variant, frozenset([(1, 1, 1), (3, 3, 3)]))

    def test_singletons_always_qualify(self, simple):
        Choice.of(simple, frozenset([(1, 1, 1)]))


class TestDownSet:
    def test_terminal_singleton(self, simple):
        w = (1, 1, 1)
        assert down_set(simple, frozenset([w])) == {frozenset([w])}

    def test_whole_outcome_set(self, simple):
        assert down_set(simple, simple.forest.universe) == simple.forest.nodes

    def test_c_first_constant(self, simple, simple_moves):
        c = C(first=1)
        expected = set(simple_moves["x1"].image) | {
            frozenset([w]) for w in c
        }
        assert down_set(simple, c) == expected


class TestPredecessorsClosedForms:
    def test_first_stage_family(self, simple, simple_moves):
        for f in MAPS:
            assert predecessors(simple, C(first=f)) == simple_moves["x0"].image

    def test_pinned_second_stage_family(self, simple, simple_moves):
        for k in (1, 2):
            for g in MAPS:
                assert (
                    predecessors(simple, C(first=k, second=g))
                    == simple_moves[f"x{k}"].image
                )

    def test_free_second_stage_family(self, simple, simple_moves):
        both = simple_moves["x1"].image | simple_moves["x2"].image
        for g in MAPS:
            assert predecessors(simple, C(second=g)) == both

    def test_primed_families(self, variant, variant_moves):
        for f in MAPS:
            assert predecessors(variant, CV(first=f)) == variant_moves["x0"].image
        for k in (1, 2):
            for g in MAPS:
                assert (
                    predecessors(variant, CV(first=k, second=g))
                    == variant_moves[f"x{k}"].image
                )
        both = variant_moves["x1"].image | variant_moves["x2"].image
        for g in MAPS:
            assert predecessors(variant, CV(second=g)) == both

    def test_empty_set_has_no_predecessors(self, simple):
        assert predecessors(simple, frozenset()) == frozenset()


class TestRestrictCheck:
    def test_full_event(self, simple):
        v = restrict_check(simple, C(second=1), simple.space.scenarios)
        assert v.ok

    def test_empty_event(self, simple):
        v = restrict_check(simple, C(second=1), frozenset())
        assert v.ok and v.notes  # empty restriction noted as not-a-choice

    def test_kg_identity(self, simple):
        # c_{kg} ∩ c_{•m'} = c_{km'} ∩ W_{g=m'}
        for k in (1, 2):
            for g in MAPS:
                for m in (1, 2):
                    event = frozenset(w for w in (1, 2) if g[w] == m)
                    lhs = C(first=k, second=g) & C(second=m)
                    rhs = C(first=k, second=m) & outcomes_of_event(simple, event)
                    assert lhs == rhs
                    assert restrict_check(simple, C(first=k, second=m), event).ok

    def test_fails_on_a_projection_that_splits_a_tree(self):
        # {a, b} and {a} project to 0 but {b} to 1, so W_1 = {b, c}: the
        # restriction {b} of c = {a, b} has the predecessor {a, b}, c has none
        forest = SetForest.of("abc", ["ab", "a", "b", "c"])
        projection = {frozenset("ab"): 0, frozenset("a"): 0, frozenset("b"): 1, frozenset("c"): 1}
        s = Sdf.of(forest, ScenarioSpace.discrete([0, 1]), projection, [])
        v = restrict_check(s, frozenset("ab"), {1})
        assert (v.ok, v.code, v.witness, v.notes) == (
            False, "restriction-identity", "P(c ∩ W_A) = {{a, b}} but P(c) ∩ F_A = {}", ()
        )

    def test_non_event_rejected(self):
        from sdfkit.sdf import ScenarioSpace, Sdf

        s = examples.build_simple()
        coarse = ScenarioSpace.of([1, 2], [[1, 2]])
        s2 = Sdf.of(s.forest, coarse, dict(s.projection), s.random_moves)
        with pytest.raises(InputError):
            restrict_check(s2, C(second=1), frozenset([1]))

    def test_quantified_over_corpus(self, simple, variant):
        named = [C(first=f) for f in MAPS] + [C(second=g) for g in MAPS] + [
            C(first=k, second=g) for k in (1, 2) for g in MAPS
        ]
        for c in named:
            for event in simple.space.events():
                assert restrict_check(simple, c, event).ok
        named_v = [CV(first=f) for f in MAPS] + [CV(second=g) for g in MAPS]
        for c in named_v:
            for event in variant.space.events():
                assert restrict_check(variant, c, event).ok


class TestClassify:
    def test_free_second_stage(self, simple, simple_moves):
        flags = classify(simple, Choice.of(simple, C(second=1)))
        assert flags.non_redundant and flags.complete
        assert flags.available_at == {simple_moves["x1"], simple_moves["x2"]}

    def test_variant_pinned(self, variant, variant_moves):
        for k in (1, 2):
            flags = classify(variant, Choice.of(variant, CV(first=k, second=1)))
            assert flags.available_at == {variant_moves[f"x{k}"]}

    def test_redundancy_witness_found_by_scan(self):
        # brute-force scan of a small two-scenario instance for a choice whose
        # predecessors miss a scenario it still has outcomes in
        s = lone_terminal_instance()
        singles = [frozenset([o]) for o in s.forest.universe]
        witness = None
        for r in (1, 2, 3):
            for combo in itertools.combinations(singles, r):
                outcomes = frozenset().union(*combo)
                flags = classify(s, Choice.of(s, outcomes))
                if not flags.non_redundant:
                    witness = outcomes
                    break
            if witness:
                break
        assert witness == frozenset(["a", "z"]) or witness == frozenset(["b", "z"]) or witness == frozenset(["z"])
        # and the specific witness from the construction: the lone terminal's
        # scenario has no move, so any choice touching it is redundant there
        flags = classify(s, Choice.of(s, frozenset(["a", "z"])))
        assert not flags.non_redundant and flags.redundancy_witness == (2,)

    def test_availability_is_order_determined(self, simple, variant):
        for s, fams in ((simple, C), (variant, CV)):
            for kwargs in (
                {"first": 1},
                {"second": 2},
                {"first": 2, "second": MAPS[2]},
            ):
                c = fams(**kwargs)
                flags = classify(s, Choice.of(s, c))
                p = predecessors(s, c)
                rederived = frozenset(
                    m for m in s.random_moves if m.image <= p
                )
                assert rederived == flags.available_at


class TestVerifyRcs:
    def test_simple_canonical(self, simple):
        assert verify_rcs(simple, examples.simple_rcs(simple)).ok

    def test_variant_canonical(self, variant):
        assert verify_rcs(variant, examples.variant_rcs(variant)).ok

    def test_swapped_levels_fail(self, simple, simple_moves):
        first = frozenset(Choice.of(simple, C(first=k)) for k in (1, 2))
        second = frozenset(Choice.of(simple, C(second=m)) for m in (1, 2))
        swapped = Rcs.of(
            {
                simple_moves["x0"]: second,
                simple_moves["x1"]: first,
                simple_moves["x2"]: first,
            }
        )
        v = verify_rcs(simple, swapped)
        assert not v.ok and v.code == "rcs-unavailable"

    def test_incomplete_choice_fails(self):
        # {a} has the predecessor {a, b} = x(L) but not x(R)
        doc = explicit_doc()
        s, (move,) = doc.sdf, doc.sdf.sorted_moves
        v = verify_rcs(s, Rcs.of({move: doc.doc_rcs.for_move(move) | {Choice.of(s, {"a"})}}))
        assert (v.ok, v.code, v.witness) == (
            False,
            "rcs-incomplete",
            "choice {a} at {L↦{a, b}, R↦{y, z}} is incomplete (move {L↦{a, b}, R↦{y, z}})",
        )

    def test_rejects_a_structure_off_the_random_moves(self):
        with pytest.raises(InputError) as exc:
            verify_rcs(explicit_doc().sdf, Rcs.of({}))
        assert (str(exc.value), exc.value.code) == (
            "reference choice structure does not index exactly the random moves",
            "input-error",
        )


class TestIsAdapted:
    def test_trivial_eis_constant_choices(self, simple):
        e = simple_eis_list()[0]
        r = examples.simple_rcs(simple)
        for k in (1, 2):
            for m in (1, 2):
                c = Choice.of(simple, C(first=k, second=m))
                assert is_adapted(simple, e, r, c).ok

    def test_discrete_eis_any_first_stage(self, simple):
        e = simple_eis_list()[4]
        r = examples.simple_rcs(simple)
        for f in MAPS:
            assert is_adapted(simple, e, r, Choice.of(simple, C(first=f))).ok

    def test_trivial_eis_nonconstant_first_stage_fails(self, simple):
        e = simple_eis_list()[0]
        r = examples.simple_rcs(simple)
        c = Choice.of(simple, C(first={1: 1, 2: 2}))
        v = is_adapted(simple, e, r, c)
        assert not v.ok and v.code == "not-adapted"

    def test_precondition_enforced(self, simple):
        e = simple_eis_list()[0]
        r = examples.simple_rcs(simple)
        incomplete = Choice.of(simple, frozenset([(1, 1, 1)]))
        flags = classify(simple, incomplete)
        if not (flags.non_redundant and flags.complete):
            with pytest.raises(InputError):
                is_adapted(simple, e, r, incomplete)

    def test_empty_intersection_is_measurable(self, simple, simple_moves):
        # c ∩ c' = ∅ contributes the empty preimage, which every algebra holds
        e = simple_eis_list()[0]
        r = examples.simple_rcs(simple)
        c = Choice.of(simple, C(first=1, second=1))
        other = Choice.of(simple, C(second=2))
        assert not (c.outcomes & other.outcomes & C(second=1))
        assert adapted_at_move(simple, e, r, c, simple_moves["x1"]).ok


class TestPreimage:
    def test_preimage_matches_definition(self, simple, simple_moves):
        p = predecessors(simple, C(first=1))
        m = simple_moves["x0"]
        assert preimage(simple, m, p) == m.domain


class TestWitnessOracles:
    """The failure-min scans against the canon-sorted loops they replace."""

    @staticmethod
    def cases(simple, variant):
        """Per builtin: the instance, its named choices, its reference
        choice structure, and one that puts every named choice on every
        move, so that a move has several failing choices."""
        for name, s, rcs in (
            ("simple", simple, examples.simple_rcs(simple)),
            ("variant", variant, examples.variant_rcs(variant)),
        ):
            choices = [Choice.of(s, o) for o in examples.all_named_choices(name).values()]
            crowded = Rcs.of({m: frozenset(choices) for m in s.random_moves})
            yield s, choices, (rcs, crowded)

    def test_verify_rcs(self, simple, variant):
        codes = set()
        for s, choices, (rcs, crowded) in self.cases(simple, variant):
            assert not verify_rcs(s, crowded).ok
            singles = [Rcs.of({m: {c} for m in s.random_moves}) for c in choices]
            for r in (rcs, crowded, *singles):
                got = verify_rcs(s, r)
                assert got == brute_verify_rcs(s, r)
                codes.add(got.code)
        assert codes == {"", "rcs-incomplete", "rcs-unavailable"}

    def test_adapted_at_move(self, simple, variant):
        several_failures = 0
        for s, choices, structures in self.cases(simple, variant):
            for e in enumerate_eis(s):
                for r in structures:
                    for c in choices:
                        for m in s.sorted_moves:
                            got = adapted_at_move(s, e, r, c, m)
                            assert got == brute_adapted_at_move(s, e, r, c, m)
                            failing = [
                                ref
                                for ref in r.for_move(m)
                                if not e.for_move(m).contains(
                                    preimage(s, m, predecessors(s, c.outcomes & ref.outcomes))
                                )
                            ]
                            several_failures += len(failing) > 1
        assert several_failures
