"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Random corpora are seeded (SDF_SEED overrides) and regenerated
deterministically.
"""

import itertools

import pytest

from conftest import case_records, check_measurable_iff_adapted
from sdfkit import examples
from sdfkit.action_path import (
    MeasurabilityCase,
    WindowChoiceSpec,
    build_action_path_sdf,
    check_apw,
    node_at,
    window_choice,
)
from sdfkit.choice import Choice, classify, down_set, is_adapted, predecessors, restrict_check
from sdfkit.errors import InputError
from sdfkit.gen import random_path_outcomes, random_v_poset, rng_from_env
from sdfkit.order_core import is_rooted_forest, is_tree
from sdfkit.sdf import (
    check_evaluation_bijection,
    check_ttree_theorem,
    drop_moveless_components,
    find_sdf_isomorphism,
    verify_sdf,
)
from sdfkit.set_forest import decompose, verify_own_representation
from sdfkit.sigma_info import enumerate_eis, verify_eis
from tests_helpers import (
    MAPS,
    simple_adapted_table,
    simple_eis_list,
    variant_adapted_table,
    variant_eis_list,
)


def report(n: int, message: str):
    print(f"ACCEPTANCE {n:02d} PASS: {message}")


@pytest.fixture(scope="module")
def generated_instances():
    """Criterion-6 corpus: built instances plus the log of excluded draws."""
    rng = rng_from_env(11)
    passing = []
    excluded = []
    attempts = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sdfkit.errors.WORK_CAP", 2 ** 20)
        while len(passing) < 200 and attempts < 3000:
            attempts += 1
            po = random_path_outcomes(rng)
            apw = check_apw(po)
            bad = [k for k, v in apw.items if k in ("W0", "W1", "W2", "W3") and not v.ok]
            if bad:
                excluded.append((po, bad[0]))
                continue
            passing.append(build_action_path_sdf(po, max_x_exhaustive=9))
    return passing, excluded


def test_criterion_01_worked_instances_verify_exhaustively(simple, variant):
    for name, s in (("simple", simple), ("variant", variant)):
        v = verify_sdf(s)
        for axiom, verdict in v.items:
            assert verdict.ok, (name, axiom, verdict.describe())
        assert not v.verdict("axiom-3e").partial, name
    report(1, "both worked instances pass every axiom with exhaustive 3e")


def test_criterion_02_information_structure_enumeration(simple, variant):
    enumerated = enumerate_eis(simple)
    explicit = simple_eis_list()
    assert len(enumerated) == 5
    for item in explicit:
        assert item in enumerated
    assert set(enumerated) == set(explicit)
    enumerated_v = enumerate_eis(variant)
    explicit_v = variant_eis_list()
    assert len(enumerated_v) == 3
    for item in explicit_v:
        assert item in enumerated_v
    assert set(enumerated_v) == set(explicit_v)
    report(2, "exactly 5 and 3 information structures, matching the explicit lists")


def test_criterion_03_predecessor_closed_forms(simple, variant, simple_moves, variant_moves):
    cases = 0
    for s, moves, fam in (
        (simple, simple_moves, examples.simple_choice_outcomes),
        (variant, variant_moves, examples.variant_choice_outcomes),
    ):
        for f in MAPS:
            assert predecessors(s, fam(first=f)) == moves["x0"].image
            cases += 1
        for k in (1, 2):
            for g in MAPS:
                assert predecessors(s, fam(first=k, second=g)) == moves[f"x{k}"].image
                cases += 1
        both = moves["x1"].image | moves["x2"].image
        for g in MAPS:
            assert predecessors(s, fam(second=g)) == both
            cases += 1
    assert cases == 32
    report(3, f"predecessor sets equal the closed forms in all {cases} cases")


def test_criterion_04_adapted_choice_tables(simple, variant):
    checked = 0
    for s, table, eis_list, rcs in (
        (simple, simple_adapted_table(), simple_eis_list(),
         examples.simple_rcs(simple)),
        (variant, variant_adapted_table(), variant_eis_list(),
         examples.variant_rcs(variant)),
    ):
        for e, (first, second) in zip(eis_list, table):
            assert verify_eis(s, e).ok
            for outcomes in itertools.chain(first, second):
                assert is_adapted(s, e, rcs, Choice.of(s, outcomes)).ok
                checked += 1
    negative = Choice.of(simple, examples.simple_choice_outcomes(first={1: 1, 2: 2}))
    v = is_adapted(
        simple, simple_eis_list()[0], examples.simple_rcs(simple), negative
    )
    assert not v.ok
    report(4, f"all {checked} table entries adapted; derived negative rejected")


def test_criterion_05_action_path_roundtrip(simple, variant, simple_aps, variant_aps):
    for direct, aps in ((simple, simple_aps), (variant, variant_aps)):
        found = find_sdf_isomorphism(aps.sdf, direct)
        assert found is not None
        scen_map, out_map = found
        assert set(out_map) == set(aps.sdf.forest.universe)
    report(5, "action-path encodings are SDF-isomorphic to the direct constructions")


def test_criterion_06_construction_theorem_property(generated_instances, monkeypatch):
    passing, excluded = generated_instances
    assert len(passing) >= 200
    monkeypatch.setattr("sdfkit.errors.WORK_CAP", 2 ** 20)
    for aps in passing:
        v = verify_sdf(aps.sdf, max_x_exhaustive=9)
        assert v.ok, v.describe()
    for _, assumption in excluded:
        assert assumption in ("W0", "W1", "W2", "W3")
    log = {}
    for _, assumption in excluded:
        log[assumption] = log.get(assumption, 0) + 1
    report(
        6,
        f"{len(passing)} generated instances verify; "
        f"{len(excluded)} draws excluded by {log}",
    )


def test_criterion_07_derived_tree_property(
    simple, variant, timing_aps, upandout_aps, simple_aps, variant_aps, generated_instances
):
    corpus = [
        simple,
        variant,
        timing_aps.sdf,
        upandout_aps.sdf,
        simple_aps.sdf,
        variant_aps.sdf,
    ] + [aps.sdf for aps in generated_instances[0]]
    for s in corpus:
        assert check_evaluation_bijection(s).ok
        reduced = drop_moveless_components(s) if s.move_nodes else None
        if reduced is None:
            continue
        assert check_ttree_theorem(reduced).ok
    report(7, f"evaluation bijection and derived rooted tree hold on {len(corpus)} instances")


def test_criterion_08_measurability_theorem(simple_aps, timing_aps, upandout_aps):
    checked = 0
    cases = 0

    def sweep(aps, agent, t, histories, domain):
        # One MeasurabilityCase per g, its item and per-move table read per
        # structure; the per-case definition stays the oracle on the first.
        nonlocal checked, cases
        comps = sorted(aps.po.space.components(agent))
        structures = enumerate_eis(aps.sdf)
        scen = sorted(domain)
        for values in itertools.product(comps, repeat=len(scen)):
            g = dict(zip(scen, values))
            try:
                case = MeasurabilityCase(aps, agent, t, histories, g)
            except InputError:
                with pytest.raises(InputError):
                    check_measurable_iff_adapted(aps, agent, structures[0], t, histories, g)
                continue
            cases += 1
            expected = check_measurable_iff_adapted(aps, agent, structures[0], t, histories, g)
            assert case.verdict(structures[0]) == expected.item()
            assert case_records(case, structures[0]) == expected.records
            for e in structures:
                assert case.verdict(e).ok, (agent, t, g, case.verdict(e).describe())
                records = case_records(case, e)
                assert all(rec.move.domain <= set(g) for rec in records), (agent, t, g)
                forward = all(rec.adapted for rec in records if rec.measurable)
                backward = all(rec.measurable for rec in records if rec.apc3 and rec.adapted)
                assert forward, (agent, t, g, records)
                assert backward, (agent, t, g, records)
                assert any(rec.apc3 for rec in records) or not records
                checked += 1

    # product family (the worked instance as an action path)
    idx = simple_aps.po.index
    for t in simple_aps.po.time.points:
        sweep(simple_aps, "1", t, idx.realized_prefixes(t), simple_aps.po.scenarios.scenarios)

    # timing family: all-alive histories for each agent
    idx = timing_aps.po.index
    for agent, slot in (("1", 0), ("2", 1)):
        for t in timing_aps.po.time.points:
            alive = [
                h for h in idx.realized_prefixes(t) if all(a[slot] == 1 for a in h)
            ]
            sweep(timing_aps, agent, t, alive, timing_aps.po.scenarios.scenarios)

    # up-and-out family: all-ones history, domain = still-below-the-barrier
    idx = upandout_aps.po.index
    for t in upandout_aps.po.time.points:
        k = upandout_aps.po.time.index(t)
        histories = [(1,) * k]
        alive = (1,) * len(upandout_aps.po.time.points)
        from sdfkit.action_path import move_event

        domain = move_event(upandout_aps.po, t, alive)
        if not domain:
            continue
        sweep(upandout_aps, "1", t, histories, domain)

    assert (cases, checked) == (42, 2038)
    report(8, f"both implications hold in all {checked} (structure, g) combinations")


def test_criterion_09_window_choice_identities(simple_aps, timing_aps, upandout_aps, variant_aps):
    passing = 0
    for aps in (simple_aps, variant_aps, timing_aps, upandout_aps):
        po = aps.po
        idx = po.index
        s = aps.sdf
        for t in po.time.points:
            realized = sorted(idx.realized_prefixes(t))
            history_options = [realized] + [[h] for h in realized]
            action_options = [
                frozenset([a]) for a in sorted(po.space.actions)
            ] + [
                frozenset(pair)
                for pair in itertools.combinations(sorted(po.space.actions), 2)
            ]
            for hist, acts in itertools.product(history_options, action_options):
                wc = window_choice(
                    po, WindowChoiceSpec.of(t, hist, {w: acts for w in po.scenarios.scenarios})
                )
                if not wc.ok:
                    continue
                passing += 1
                c = wc.outcomes
                assert predecessors(s, c) == {node_at(po, t, w) for w in c}
                assert down_set(s, c) == {
                    node_at(po, u, w) for w in c for u in po.time.points if u > t
                } | {frozenset([w]) for w in c}
                flags = classify(s, Choice.of(s, wc.outcomes))
                assert flags.non_redundant and flags.complete
                for event in s.space.events():
                    assert restrict_check(s, c, event).ok
    assert passing >= 50
    report(9, f"restriction identity and closed forms hold on {passing} window choices")


def test_criterion_10_forest_tree_equivalence():
    rng = rng_from_env(23)
    agree = {True: 0, False: 0}
    examined = 0
    while examined < 500:
        forest = random_v_poset(rng, max_outcomes=5)
        poset = forest.poset
        if len(poset.elements) > 10 or poset.forest_witness is not None or not is_rooted_forest(poset):
            continue
        examined += 1
        whole = verify_own_representation(forest).ok
        parts = decompose(forest)
        union = set()
        disjoint = True
        for root, _ in parts:
            if union & root:
                disjoint = False
            union |= root
        component_side = (
            disjoint
            and union == set(forest.universe)
            and all(
                is_tree(tree.poset) and verify_own_representation(tree).ok
                for _, tree in parts
            )
        )
        assert whole == component_side
        agree[whole] += 1
    assert agree[True] >= 50 and agree[False] >= 50
    report(
        10,
        f"500 rooted-forest node families: both sides agree "
        f"({agree[True]} valid, {agree[False]} invalid)",
    )
