import itertools
import os
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    agent_rcs,
    brute_agent_rcs,
    brute_check_apc3,
    brute_check_apw,
    case_records,
    check_measurable_iff_adapted,
    oracle_measurability_sweep,
    oracle_time_axis,
)
from sdfkit import examples
from sdfkit.action_path import (
    ActionSpace,
    MeasurabilityCase,
    PathOutcomes,
    TimeAxis,
    WindowChoiceSpec,
    agent_choice,
    build_action_path_sdf,
    check_apc3,
    check_apw,
    move_event,
    node_at,
    prefix_of,
    product_outcomes,
    sweep_rows,
    time_of,
    times_of_node,
    timing_outcomes,
    up_and_out_outcomes,
    window_choice,
)
from sdfkit._canon import canon_sorted
from sdfkit.choice import Choice, classify, down_set, predecessors, verify_rcs
from sdfkit.errors import InputError, KernelError, SizeCapError, StructureError
from sdfkit.order_core import up_set
from sdfkit.sdf import RandomMove, ScenarioSpace, SubSigma, find_sdf_isomorphism, verify_sdf
from sdfkit.sigma_info import Eis, enumerate_eis, sub_sigma_candidates
from sdfkit.verdict import Verdict

from tests_helpers import outcome


def small_product():
    return product_outcomes(
        ScenarioSpace.discrete([1, 2]),
        TimeAxis.of([0, 1]),
        ["a", "b"],
        factorization={"1": {"a": "a", "b": "b"}},
    )


def w3_failure_outcomes():
    """W1 holds, but two time-1 prefixes with disjoint move events exist."""
    space = ScenarioSpace.discrete([1, 2])
    paths = [
        (1, ("1", "1")), (1, ("1", "2")), (1, ("2", "1")),
        (2, ("2", "1")), (2, ("2", "2")), (2, ("1", "1")),
    ]
    return PathOutcomes.of(
        TimeAxis.of([0, 1]), ActionSpace.of(["1", "2"]), space, paths
    )


def w1_failure_outcomes():
    """A time gap: nothing distinguishes t=1 from t=0 on a non-singleton node."""
    space = ScenarioSpace.discrete([1])
    paths = [(1, ("a", "a", "a")), (1, ("a", "a", "b"))]
    return PathOutcomes.of(
        TimeAxis.of([0, 1, 2]), ActionSpace.of(["a", "b"]), space, paths
    )


def outcome_less_outcomes():
    """Scenarios 0 and 3 admit no outcome, which only the record
    constructor allows (`PathOutcomes.of` rejects it)."""
    po = w3_failure_outcomes()
    return PathOutcomes(po.time, po.space, ScenarioSpace.discrete([0, 1, 2, 3]), po.paths)


def w3_three_pairs_outcomes():
    """Three time-1 prefixes with pairwise disjoint move events, so every pair
    fails W3. Int actions hash alike in every process, and the set of
    prefixes {(1,), (2,), (6,)} iterates (6,) first: only a canonical scan
    names the pair (1,), (2,)."""
    paths = [(w, (a, b)) for w, a in ((1, 1), (2, 2), (3, 6)) for b in (1, 2)]
    return PathOutcomes.of(
        TimeAxis.of([0, 1]), ActionSpace.of([1, 2, 6]),
        ScenarioSpace.discrete([1, 2, 3]), paths,
    )


class TestTimeAxis:
    def test_zero_required(self):
        with pytest.raises(StructureError):
            TimeAxis.of([1, 2])

    def test_exact_rationals(self):
        axis = TimeAxis.of(["0", "1/3", "2/3"])
        assert axis.points == (Fraction(0), Fraction(1, 3), Fraction(2, 3))

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            TimeAxis.of([0, -1])

    @pytest.mark.parametrize(
        "points",
        [[0], [0, 1, 3], [3, 1, 0], [0, 0], [0, 1, 1, 2], [1, 0, "1/2", 1], [1, 2], [2, 1], [0, -1]],
    )
    def test_of_matches_a_sorted_set(self, points):
        # neighbour comparisons on an increasing input, a sorted set otherwise
        assert outcome(TimeAxis.of, points) == outcome(oracle_time_axis, points)

    @pytest.mark.parametrize("points", [(0, 0), (0, 2, 1), (0, 1, 1)])
    def test_constructor_rejects_an_order_that_is_not_strict(self, points):
        with pytest.raises(StructureError, match="time points must be strictly increasing"):
            TimeAxis(tuple(map(Fraction, points)))


class TestNodeAt:
    def test_last_time_unique_continuation(self, upandout_aps):
        po = upandout_aps.po
        w = (2, (1, 1, 1))  # in scenario 2 the path can no longer stop at 2
        assert node_at(po, Fraction(2), w) == frozenset([w])

    def test_product_root_at_zero(self):
        po = small_product()
        w = (1, ("a", "b"))
        root = node_at(po, Fraction(0), w)
        assert root == frozenset((1, f) for f in itertools.product("ab", repeat=2))

    def test_simple_encoding_time_zero_root(self, simple_aps):
        po = simple_aps.po
        for (w, f) in po.paths:
            assert node_at(po, Fraction(0), (w, f)) == frozenset(
                (w2, f2) for (w2, f2) in po.paths if w2 == w
            )

    def test_half_open_prefix(self):
        # the node at time t does not pin the action taken at t
        po = small_product()
        w = (1, ("a", "a"))
        assert (1, ("a", "b")) in node_at(po, Fraction(1), w)

    def test_unknown_outcome(self):
        with pytest.raises(InputError):
            node_at(small_product(), Fraction(0), (1, ("z", "z")))


class TestMoveEvent:
    def test_product_everywhere(self):
        po = small_product()
        for f in itertools.product("ab", repeat=2):
            assert move_event(po, Fraction(0), f) == frozenset([1, 2])
            assert move_event(po, Fraction(1), f) == frozenset([1, 2])

    def test_timing_non_decreasing_prefix_empty(self):
        po = timing_outcomes(ScenarioSpace.discrete([1]), TimeAxis.of([0, 1, 2]), ("1",))
        f = ((0,), (1,), (1,))  # not decreasing on [0, t)
        assert move_event(po, Fraction(2), f) == frozenset()

    def test_up_and_out_barrier(self, upandout_aps):
        po = upandout_aps.po
        alive = (1, 1, 1)
        # max price through t=2 stays under the barrier only in scenario 1
        assert move_event(po, Fraction(2), alive) == frozenset([1])
        assert move_event(po, Fraction(1), alive) == frozenset([1, 2])

    def test_apw0_violation(self):
        space = ScenarioSpace.of([1, 2], [[1, 2]])  # trivial algebra
        paths = [
            (1, ("a", "a")), (1, ("a", "b")),
            (2, ("a", "a")),
        ]
        po = PathOutcomes.of(
            TimeAxis.of([0, 1]), ActionSpace.of(["a", "b"]), space, paths
        )
        with pytest.raises(StructureError) as exc:
            move_event(po, Fraction(1), ("a", "a"))
        assert exc.value.code == "apw0-violation"


class TestCheckApw:
    def test_product_passes(self):
        for n_actions in (2, 3):
            po = product_outcomes(
                ScenarioSpace.discrete([1, 2]),
                TimeAxis.of([0, "1/2", 1]),
                list("xyz"[:n_actions]),
            )
            apw = check_apw(po)
            assert all(v.ok for k, v in apw.items)

    def test_timing_passes(self):
        po = timing_outcomes(
            ScenarioSpace.discrete([1, 2]), TimeAxis.of([0, 1, 2]), ("1", "2")
        )
        apw = check_apw(po)
        assert all(v.ok for k, v in apw.items)

    def test_up_and_out_passes(self, upandout_aps):
        apw = check_apw(upandout_aps.po)
        assert all(v.ok for k, v in apw.items)

    def test_engineered_w3_failure(self):
        apw = check_apw(w3_failure_outcomes())
        assert apw.verdict("W0").ok
        assert apw.verdict("W1").ok
        assert apw.verdict("W2").ok
        assert not apw.verdict("W3").ok
        assert "identified" in apw.verdict("W3").witness

    def test_time_gap_fails_w1(self):
        apw = check_apw(w1_failure_outcomes())
        assert not apw.verdict("W1").ok

    def test_w2_decided_at_nine_times(self):
        # W2 reads each scenario's root group, so no bound on |T| guards it
        po = product_outcomes(ScenarioSpace.discrete([1]), TimeAxis.of(range(9)), ["a"])
        apw = check_apw(po)
        assert [k for k, v in apw.items if v.ok] == ["W0", "W1", "W2", "W3"]
        assert apw == brute_check_apw(po)

    def test_decided_matches_enumeration(
        self, rng, simple_aps, variant_aps, timing_aps, upandout_aps
    ):
        from sdfkit.gen import random_path_outcomes

        outcome_less = outcome_less_outcomes()
        assert check_apw(outcome_less).verdict("W2").witness == (
            "scenario 0, path (1, 1), times (): locally consistent prefix "
            "extends to no outcome"
        )
        fixed = [
            simple_aps.po, variant_aps.po, timing_aps.po, upandout_aps.po,
            w1_failure_outcomes(), w3_failure_outcomes(), w3_three_pairs_outcomes(),
            outcome_less,
        ]
        draws = [random_path_outcomes(rng, 4, 4, 3) for _ in range(300)]
        seen = Counter()
        for po in fixed + draws:
            got = check_apw(po)
            assert got == brute_check_apw(po)
            seen.update(k for k, v in got.items if not v.ok)
        # the corpus reaches every verdict that can fail
        assert {"W0", "W1", "W2", "W3"} <= set(seen)

    def test_w4_only_with_factorization(self):
        without = product_outcomes(
            ScenarioSpace.discrete([1]), TimeAxis.of([0]), ["a", "b"]
        )
        assert "W4" not in dict(check_apw(without).items)
        with_f = small_product()
        assert check_apw(with_f).verdict("W4").ok

    def test_w4_broken_factorization(self):
        space = ActionSpace.of(
            ["a", "b"], factorization={"1": {"a": "x", "b": "x"}}
        )
        assert not space.verify_w4().ok


class TestBuildActionPathSdf:
    def test_simple_encoding_isomorphic(self, simple_aps, simple):
        assert find_sdf_isomorphism(simple_aps.sdf, simple) is not None

    def test_variant_encoding_isomorphic(self, variant_aps, variant):
        assert find_sdf_isomorphism(variant_aps.sdf, variant) is not None

    def test_timing_verifies(self, timing_aps):
        v = verify_sdf(timing_aps.sdf, max_x_exhaustive=12)
        assert v.ok and not v.partial

    def test_upandout_verifies(self, upandout_aps):
        v = verify_sdf(upandout_aps.sdf)
        assert v.ok and not v.partial

    def test_assumption_failure_raises(self):
        with pytest.raises(StructureError) as exc:
            build_action_path_sdf(w3_failure_outcomes())
        assert exc.value.code == "assumption-failure"
        assert "AP.W3" in str(exc.value)

    def test_variant_x2_prefix_domain(self, variant_aps):
        # the random move taken after first action 2 lives on scenario 2 only
        domains = {t: set() for _, t in variant_aps.move_times}
        for m, t in variant_aps.move_times:
            domains[t].add(m.domain)
        assert frozenset([2]) in domains[Fraction(1)]


class TestTimeOf:
    def test_root_time_zero(self, simple_aps):
        for m, t in simple_aps.move_times:
            node = next(iter(m.image))
            if len(node) == 4:
                assert time_of(simple_aps, node) == 0

    def test_simple_mid_time_one(self, simple_aps):
        for m, t in simple_aps.move_times:
            for node in m.image:
                if len(node) == 2:
                    assert time_of(simple_aps, node) == 1

    def test_terminal_not_a_move(self, simple_aps):
        terminal = frozenset([next(iter(simple_aps.po.paths))])
        with pytest.raises(InputError) as exc:
            time_of(simple_aps, terminal)
        assert exc.value.code == "not-a-move"

    def test_strictly_decreasing_and_constant_on_images(self, timing_aps):
        po = timing_aps.po
        s = timing_aps.sdf
        poset = s.forest.poset
        moves = [x for x in s.forest.nodes if len(x) >= 2]
        for x in moves:
            for y in moves:
                if x != y and poset.gt(x, y):
                    assert time_of(timing_aps, x) < time_of(timing_aps, y)
        for m, t in timing_aps.move_times:
            assert {time_of(timing_aps, node) for node in m.image} == {t}

    def test_times_of_node_convex(self, timing_aps, upandout_aps):
        for aps in (timing_aps, upandout_aps):
            points = aps.po.time.points
            for x in aps.sdf.forest.nodes:
                ts = times_of_node(aps.po, x)
                if len(ts) >= 2:
                    lo, hi = min(ts), max(ts)
                    assert all(t in ts for t in points if lo <= t <= hi)

    def test_unique_time_characterisation(self, timing_aps, upandout_aps, simple_aps):
        for aps in (simple_aps, timing_aps, upandout_aps):
            points = aps.po.time.points
            for x in aps.sdf.forest.nodes:
                ts = times_of_node(aps.po, x)
                if len(x) >= 2:
                    assert len(ts) == 1  # AP.W1 direction
                if len(ts) == 1 and next(iter(ts)) != points[-1]:
                    assert len(x) >= 2  # non-maximal singleton time: no singleton

    def test_early_stop_terminal_has_multipoint_time_set(self, timing_aps):
        po = timing_aps.po
        dead = ((0, 0), (0, 0), (0, 0))
        for w in po.scenarios.scenarios:
            ts = times_of_node(po, frozenset([(w, dead)]))
            assert len(ts) >= 2

    def test_up_set_closed_form(self, timing_aps):
        # ↑x_t(w) = {x_u(w) | u <= t}
        po = timing_aps.po
        poset = timing_aps.sdf.forest.poset
        for w in sorted(po.paths)[:6]:
            for t in po.time.points:
                x = node_at(po, t, w)
                expected = {node_at(po, u, w) for u in po.time.points if u <= t}
                assert up_set(poset, x) == expected


class TestWindowChoice:
    def test_product_proper_subsets_pass(self):
        po = small_product()
        spec = WindowChoiceSpec.of(
            Fraction(1),
            [("a",), ("b",)],
            {1: frozenset(["a"]), 2: frozenset(["b"])},
        )
        wc = window_choice(po, spec)
        assert wc.ok and wc.outcomes

    def test_full_action_set_fails_c1(self):
        po = small_product()
        spec = WindowChoiceSpec.of(
            Fraction(1), [("a",)], {1: frozenset("ab"), 2: frozenset("ab")}
        )
        wc = window_choice(po, spec)
        assert not wc.verdicts.verdict("C1").ok

    def test_empty_action_sets_fail_c0(self):
        po = small_product()
        spec = WindowChoiceSpec.of(Fraction(1), [("a",)], {1: frozenset(), 2: frozenset()})
        wc = window_choice(po, spec)
        assert not wc.verdicts.verdict("C0").ok

    def test_window_choice_closed_forms(self, simple_aps, timing_aps, upandout_aps):
        # down-sets, predecessors, and the classification of passing window
        # choices match the closed forms
        for aps in (simple_aps, timing_aps, upandout_aps):
            po = aps.po
            idx = po.index
            checked = 0
            for t in po.time.points:
                histories = sorted(idx.realized_prefixes(t))
                action_sets = [
                    frozenset([a]) for a in sorted(po.space.actions)
                ]
                for hist, acts in itertools.product(
                    [histories[:1], histories], action_sets
                ):
                    spec = WindowChoiceSpec.of(
                        t, hist, {w: acts for w in po.scenarios.scenarios}
                    )
                    wc = window_choice(po, spec)
                    if not wc.ok:
                        continue
                    checked += 1
                    c = wc.outcomes
                    k = po.time.index(t)
                    expected_down = {
                        node_at(po, u, w)
                        for w in c
                        for u in po.time.points
                        if u > t
                    } | {frozenset([w]) for w in c}
                    assert down_set(aps.sdf, c) == expected_down
                    assert predecessors(aps.sdf, c) == {
                        node_at(po, t, w) for w in c
                    }
                    flags = classify(aps.sdf, Choice.of(aps.sdf, wc.outcomes))
                    assert flags.non_redundant and flags.complete
            assert checked


class TestAgentChoice:
    def test_timing_positive(self, timing_aps):
        po = timing_aps.po
        idx = po.index
        for t in po.time.points:
            alive = [
                h
                for h in idx.realized_prefixes(t)
                if all(a[0] == 1 for a in h)
            ]
            for g in ({1: 0, 2: 0}, {1: 1, 2: 1}, {1: 0, 2: 1}):
                wc = agent_choice(po, t, alive, "1", g)
                assert wc.ok, (t, g, wc.verdicts.describe())

    def test_up_and_out_positive(self, upandout_aps):
        po = upandout_aps.po
        t = Fraction(1)
        histories = [(1,)]
        d = move_event(po, t, (1, 1, 1))
        for g_val in (0, 1):
            wc = agent_choice(po, t, histories, "1", {w: g_val for w in d})
            assert wc.ok

    def test_single_component_agent_fails_c1(self):
        po = product_outcomes(
            ScenarioSpace.discrete([1]),
            TimeAxis.of([0, 1]),
            ["a1", "a2"],
            factorization={
                "solo": {"a1": "only", "a2": "only"},
                "real": {"a1": "1", "a2": "2"},
            },
        )
        wc = agent_choice(po, Fraction(1), [("a1",), ("a2",)], "solo", {1: "only"})
        assert not wc.verdicts.verdict("C1").ok

    def test_no_factorization(self):
        po = product_outcomes(
            ScenarioSpace.discrete([1]), TimeAxis.of([0]), ["a", "b"]
        )
        with pytest.raises(InputError) as exc:
            agent_choice(po, Fraction(0), [()], "1", {1: "a"})
        assert exc.value.code == "no-factorization"

    def test_domain_must_be_event(self):
        space = ScenarioSpace.of([1, 2], [[1, 2]])
        po = product_outcomes(
            space, TimeAxis.of([0]), ["a", "b"],
            factorization={"1": {"a": "a", "b": "b"}},
        )
        with pytest.raises(InputError):
            agent_choice(po, Fraction(0), [()], "1", {1: "a"})


def _factorized(po, factorization):
    return PathOutcomes(
        po.time, ActionSpace.of(po.space.actions, factorization), po.scenarios, po.paths
    )


class TestAgentRcs:
    def test_simple_reproduces_reference_choices(self, simple_aps):
        # the worked instance's reference structure, up to the history-set
        # closure: the root set is exact, the later sets gain the
        # history-pinned variants
        r = agent_rcs(simple_aps, "1")
        po = simple_aps.po
        by_time = {}
        for m, t in simple_aps.move_times:
            by_time.setdefault(t, []).append(m)
        [root] = by_time[Fraction(0)]
        root_sets = {c.outcomes for c in r.for_move(root)}
        assert root_sets == {
            frozenset((w, f) for (w, f) in po.paths if f[0] == a)
            for a in (1, 2)
        }
        for m in by_time[Fraction(1)]:
            sets = {c.outcomes for c in r.for_move(m)}
            free = {
                frozenset((w, f) for (w, f) in po.paths if f[1] == a)
                for a in (1, 2)
            }
            move_outcomes = frozenset().union(*m.image)
            pinned = {
                frozenset(
                    (w, f)
                    for (w, f) in po.paths
                    if f[1] == a and f[0] == next(iter(move_outcomes))[1][0]
                )
                for a in (1, 2)
            }
            assert sets == free | pinned

    def test_degenerate_agent_has_empty_sets(self):
        po = product_outcomes(
            ScenarioSpace.discrete([1]),
            TimeAxis.of([0, 1]),
            ["a1", "a2"],
            factorization={"solo": {"a1": "only", "a2": "only"}},
        )
        aps = build_action_path_sdf(po)
        r = agent_rcs(aps, "solo")
        assert all(not cs for _, cs in r.entries)

    def test_matches_brute_force_on_builtins(self, simple_aps, variant_aps, upandout_aps):
        # the variant carries no factorization: give it the identity one;
        # timing is left out, the brute-force oracle alone takes seconds per agent
        variant = build_action_path_sdf(
            _factorized(variant_aps.po, {"1": {a: a for a in (0, 1, 2)}})
        )
        for aps in (simple_aps, variant, upandout_aps):
            for agent in aps.po.space.agents:
                brute = brute_agent_rcs(aps, agent)
                assert agent_rcs(aps, agent) == brute
                assert verify_rcs(aps.sdf, brute).ok

    def _matches_brute_force(self, rng, draw, count):
        compared = nonempty = 0
        for _ in range(1000):
            po = draw()
            factorization = {"i": {a: a for a in po.space.actions}}
            if rng.random() < 0.5:
                factorization["j"] = {a: rng.choice("xy") for a in po.space.actions}
            try:
                aps = build_action_path_sdf(_factorized(po, factorization))
            except StructureError:
                continue
            for agent in factorization:
                rcs = agent_rcs(aps, agent)
                brute = brute_agent_rcs(aps, agent)
                assert rcs == brute
                assert verify_rcs(aps.sdf, brute).ok
                nonempty += any(cs for _, cs in rcs.entries)
            compared += 1
            if compared == count:
                break
        assert compared == count
        return nonempty

    def test_matches_brute_force_on_random_instances(self, rng):
        from sdfkit.gen import random_path_outcomes

        nonempty = self._matches_brute_force(rng, lambda: random_path_outcomes(rng), 100)
        assert nonempty >= 30

    def test_matches_brute_force_on_dense_instances(self, rng):
        # two periods, most paths present: several histories per move pass
        # C0-C2, so reference choices are unions of many pieces
        from sdfkit.gen import random_scenario_space

        def draw():
            space = random_scenario_space(rng, 2)
            actions = ["a", "b", "c"][: rng.randint(2, 3)]
            full = list(itertools.product(actions, repeat=2))
            paths = []
            for w in space.scenarios:
                kept = [f for f in full if rng.random() < 0.7] or [rng.choice(full)]
                paths += [(w, f) for f in kept]
            return PathOutcomes.of(TimeAxis.of([0, 1]), ActionSpace.of(actions), space, paths)

        nonempty = self._matches_brute_force(rng, draw, 50)
        assert nonempty >= 40

    def test_timing_nonempty_at_alive_moves(self, timing_aps):
        r = agent_rcs(timing_aps, "1")
        for m, t in timing_aps.move_times:
            prefix = next(iter(m.node_at(next(iter(m.domain)))))[1][: timing_aps.po.time.index(t)]
            alive = all(a[0] == 1 for a in prefix)
            if alive:
                assert r.for_move(m), (t, prefix)


class TestCheckApc3:
    def test_three_families_pass(self, simple_aps, timing_aps, upandout_aps):
        for aps, agent in ((simple_aps, "1"), (timing_aps, "1"), (upandout_aps, "1")):
            for m, _t in aps.move_times:
                result = check_apc3(aps, agent, m)
                assert result.verdict.ok
                assert result.histories is not None

    def test_witness_covers_choice_prefixes(self, timing_aps):
        po = timing_aps.po
        idx = po.index
        t = Fraction(1)
        alive = [h for h in idx.realized_prefixes(t) if all(a[0] == 1 for a in h)]
        wc = agent_choice(po, t, alive, "1", {1: 0, 2: 1})
        flags = classify(timing_aps.sdf, Choice.of(timing_aps.sdf, wc.outcomes))
        for m in flags.available_at:
            result = check_apc3(timing_aps, "1", m, choice=wc)
            assert result.verdict.ok
            assert {f[: po.time.index(t)] for (_, f) in wc.outcomes} <= result.histories

    @staticmethod
    def _against_brute_force(aps) -> Counter:
        """Every agent × move, with no choice and with each choice a
        `MeasurabilityCase` builds at the move's time (every window at that
        time × total g), against the search oracle; tallies where the hit
        lies: at the required histories, at all realized ones, or at the
        required ones plus the move's own prefix."""
        po = aps.po
        scenarios = canon_sorted(po.scenarios.scenarios)
        windows: dict = {}
        for t, realized, own in _windows(aps):
            windows.setdefault(t, {realized: None})[own] = None
        tally = Counter()
        for agent in po.space.agents:
            comps = canon_sorted(po.space.components(agent))
            for move, t in aps.move_times:
                choices = [None]
                for hist in windows[t]:
                    for values in itertools.product(comps, repeat=len(scenarios)):
                        wc = agent_choice(po, t, hist, agent, dict(zip(scenarios, values)))
                        if wc.ok:
                            choices.append(wc)
                k = po.time.index(t)
                own = frozenset(f[:k] for node in move.image for _, f in node)
                for wc in choices:
                    got = check_apc3(aps, agent, move, choice=wc)
                    assert got == brute_check_apc3(aps, agent, move, choice=wc)
                    required = own if wc is None else frozenset(f[:k] for _, f in wc.outcomes)
                    if not got.verdict.ok:
                        tally["not-found"] += 1
                    elif got.histories == required:
                        tally["required"] += 1
                    elif got.histories == po.index.realized_prefixes(t):
                        tally["realized"] += 1
                    else:
                        assert got.histories == required | own
                        tally["required+own"] += 1
        return tally

    def test_matches_brute_force(self, simple_aps, upandout_aps, variant_aps, rng):
        from sdfkit.gen import random_path_outcomes

        variant = build_action_path_sdf(
            _factorized(variant_aps.po, {"1": {a: a for a in (0, 1, 2)}})
        )
        tally = Counter()
        for aps in (simple_aps, upandout_aps, variant):
            tally += self._against_brute_force(aps)
        compared = 0
        while compared < 40:
            po = random_path_outcomes(rng)
            factorization = {"i": {a: a for a in po.space.actions}}
            if rng.random() < 0.5:
                factorization["j"] = {a: rng.choice("xy") for a in sorted(po.space.actions)}
            try:
                aps = build_action_path_sdf(_factorized(po, factorization))
            except StructureError:
                continue
            tally += self._against_brute_force(aps)
            compared += 1
        if "SDF_SEED" not in os.environ:
            assert set(tally) == {"required", "realized", "required+own", "not-found"}, tally

    @staticmethod
    def _four_actions():
        # one scenario, actions a-d, the identity factorization; after a only
        # a or b can follow
        acts = "abcd"
        paths = [
            (1, f)
            for f in itertools.product(acts, repeat=2)
            if f not in (("a", "c"), ("a", "d"))
        ]
        po = PathOutcomes.of(
            TimeAxis.of([0, 1]),
            ActionSpace.of(acts, {"1": {a: a for a in acts}}),
            ScenarioSpace.discrete([1]),
            paths,
        )
        aps = build_action_path_sdf(po)
        [after_a] = [m for m, t in aps.move_times if t == 1 and (1, ("a", "a")) in m.node_at(1)]
        return aps, after_a

    def test_four_components_search_every_family(self):
        # the canonical generator fails after a: {a, b} lifts to the whole
        # node, which fails C1; the first passing family of the other
        # subsets is {{a}, {a, c}, {a, d}}, where only canonical was tried
        # for more than 3 components
        aps, after_a = self._four_actions()
        result = check_apc3(aps, "1", after_a)
        assert result.verdict.ok
        assert result.verdict.notes == ("A'_<t with 1 histories, generator of 3 sets",)
        assert result.generator == {frozenset("a"), frozenset("ac"), frozenset("ad")}

    def test_generator_search_past_its_cap_raises(self, monkeypatch):
        # the search tries 159 families, the last of them the generator
        import sdfkit.errors

        aps, after_a = self._four_actions()
        monkeypatch.setattr(sdfkit.errors, "WORK_CAP", 159)
        assert check_apc3(aps, "1", after_a).verdict.ok
        monkeypatch.setattr(sdfkit.errors, "WORK_CAP", 158)
        with pytest.raises(SizeCapError) as exc:
            check_apc3(aps, "1", after_a)
        assert str(exc.value) == "AP.C3 generator search exceeded 158 families"


class TestMeasurabilityEquivalence:
    def _exhaustive(self, aps, agent, t, histories):
        po = aps.po
        comps = sorted(po.space.components(agent))
        scen = sorted(po.scenarios.scenarios)
        structures = enumerate_eis(aps.sdf)
        count = 0
        for e in structures:
            for values in itertools.product(comps, repeat=len(scen)):
                g = dict(zip(scen, values))
                try:
                    res = check_measurable_iff_adapted(aps, agent, e, t, histories, g)
                except InputError:
                    continue
                assert res.ok, (g, res)
                count += 1
        return count

    def test_simple_encoding_second_stage(self, simple_aps):
        idx = simple_aps.po.index
        count = self._exhaustive(
            simple_aps, "1", Fraction(1), idx.realized_prefixes(Fraction(1))
        )
        assert count == 20  # 5 structures x 4 maps

    @staticmethod
    def _structure(aps, n_atoms_by_time):
        for e in enumerate_eis(aps.sdf):
            if all(
                len(e.for_move(m).atoms) == n_atoms_by_time[t]
                for m, t in aps.move_times
            ):
                return e
        raise AssertionError("no such structure")

    def test_measurable_implies_adapted_2a(self, simple_aps):
        # root uninformed, scenario revealed at every second-stage move
        e = self._structure(simple_aps, {Fraction(0): 1, Fraction(1): 2})
        idx = simple_aps.po.index
        res = check_measurable_iff_adapted(
            simple_aps, "1", e, Fraction(1), idx.realized_prefixes(Fraction(1)),
            {1: 1, 2: 2},
        )
        assert all(rec.measurable and rec.adapted for rec in res.records)

    def test_trivial_eis_nonconstant_g(self, simple_aps):
        trivial = self._structure(simple_aps, {Fraction(0): 1, Fraction(1): 1})
        idx = simple_aps.po.index
        res = check_measurable_iff_adapted(
            simple_aps, "1", trivial, Fraction(1),
            idx.realized_prefixes(Fraction(1)), {1: 1, 2: 2},
        )
        assert res.forward.ok and res.backward.ok
        assert all(not rec.measurable and not rec.adapted for rec in res.records)
        assert all(rec.apc3 for rec in res.records)

    def test_constant_g_everywhere(self, simple_aps):
        idx = simple_aps.po.index
        for e in enumerate_eis(simple_aps.sdf):
            res = check_measurable_iff_adapted(
                simple_aps, "1", e, Fraction(1),
                idx.realized_prefixes(Fraction(1)), {1: 1, 2: 1},
            )
            assert all(rec.measurable and rec.adapted for rec in res.records)

    def test_precondition(self, simple_aps):
        trivial = enumerate_eis(simple_aps.sdf)[0]
        with pytest.raises(InputError):
            check_measurable_iff_adapted(
                simple_aps, "1", trivial, Fraction(1), [], {1: 1, 2: 1}
            )


def _same_as_oracle(case, e, oracle) -> Counter:
    """Assert that `case.verdict(e)` is the item of the report `oracle()`
    returns and that the flags read from `case.moves` at e's σ-algebras are
    its per-move records, or that `case` is the error `oracle()` raises
    (same type, code and message); tally what was compared."""
    try:
        expected = oracle()
    except KernelError as err:
        assert isinstance(case, KernelError), case
        assert (type(case), case.code, str(case)) == (type(err), err.code, str(err))
        return Counter({err.code: 1})
    assert not isinstance(case, KernelError), case
    assert case.verdict(e) == expected.item()
    assert case_records(case, e) == expected.records
    tally = Counter(report=1)
    for rec in expected.records:
        for flag in ("measurable", "adapted", "apc3"):
            tally[f"{flag}={getattr(rec, flag)}"] += 1
    return tally


def _windows(aps):
    """(t, "all" histories, "own" histories) per move, in move order."""
    po = aps.po
    for move, t in aps.move_times:
        k = po.time.index(t)
        own = frozenset(f[:k] for node in move.image for _, f in node)
        yield t, po.index.realized_prefixes(t), own


def _walked_rows(aps, structures):
    """`sweep_rows` walked as `thm4-11` walks it, agents × structures × rows,
    each row with its case and its item, or the error building the case or
    its item raised; no row is built without a structure."""
    for agent in aps.po.space.agents:
        rows = sweep_rows(aps, agent) if structures else []
        for index, e in enumerate(structures, start=1):
            for t, label, histories, g, case in rows:
                result = case
                if not isinstance(case, KernelError):
                    try:
                        result = case.verdict(e)
                    except KernelError as err:
                        result = err
                yield agent, index, t, label, histories, g, case, result


def _outcome(result):
    if isinstance(result, KernelError):
        return type(result), result.code, str(result)
    return result


def _sweep_against_oracle(aps) -> Counter:
    """Every case of `sweep_rows` walked per structure against
    `oracle_measurability_sweep`, in the order of the nested loops agent ×
    EIS × move × {all, own} × g, and against the per-case oracle."""
    po = aps.po
    structures = enumerate_eis(aps.sdf)
    scenarios = canon_sorted(po.scenarios.scenarios)
    expected_order = [
        (agent, k, t, label, hist, dict(zip(scenarios, values)))
        for agent in po.space.agents
        for k in range(1, len(structures) + 1)
        for t, realized, own in _windows(aps)
        for label, hist in (("all", realized), ("own", own))
        for values in itertools.product(
            canon_sorted(po.space.components(agent)), repeat=len(scenarios)
        )
    ]
    swept = list(oracle_measurability_sweep(aps, structures))
    walked = list(_walked_rows(aps, structures))
    assert [tuple(c[:6]) for c in swept] == expected_order
    assert [c[:6] for c in walked] == expected_order
    # the oracle is a function of its arguments: the moves at one time share
    # its result for the "all" histories, so each distinct call runs once
    oracle: dict = {}

    def call(agent, index, t, histories, g):
        key = (agent, index, t, histories, tuple(g.values()))
        if key not in oracle:
            try:
                oracle[key] = check_measurable_iff_adapted(
                    aps, agent, structures[index - 1], t, histories, g
                )
            except KernelError as err:
                oracle[key] = err
        if isinstance(oracle[key], KernelError):
            raise oracle[key]
        return oracle[key]

    tally = Counter()
    for c, (agent, index, t, _, histories, g, case, result) in zip(swept, walked):
        assert _outcome(result) == _outcome(c.result)
        e = structures[index - 1]
        tally += _same_as_oracle(case, e, lambda: call(agent, index, t, histories, g))
    return tally


def _partial_maps_against_oracle(aps) -> Counter:
    """`MeasurabilityCase` against the oracle for every g on a proper subset
    of the scenarios, every window and every EIS."""
    po = aps.po
    structures = enumerate_eis(aps.sdf)
    scenarios = canon_sorted(po.scenarios.scenarios)
    windows = {(t, hist) for t, realized, own in _windows(aps) for hist in (realized, own)}
    tally = Counter()
    for agent in po.space.agents:
        comps = canon_sorted(po.space.components(agent))
        for t, hist in windows:
            for r in range(len(scenarios)):
                for domain in itertools.combinations(scenarios, r):
                    for values in itertools.product(comps, repeat=r):
                        g = dict(zip(domain, values))
                        try:
                            case = MeasurabilityCase(aps, agent, t, hist, g)
                        except KernelError as err:
                            case = err
                        for e in structures:
                            tally += _same_as_oracle(
                                case,
                                e,
                                lambda: check_measurable_iff_adapted(aps, agent, e, t, hist, g),
                            )
    return tally


class TestMeasurabilityCaseTexts:
    """`verdict`'s failure texts. No case that construction builds reaches
    them (Theorem 4.11), so a two-move case's table is set by hand and
    `holds_for_every_sigma` set false. The moves A and B share the domain
    {L, M, R}; the structure holds the trivial algebra at A and the one
    that {L} generates at B."""

    A = RandomMove.of({"L": frozenset("a"), "M": frozenset("b"), "R": frozenset("c")})
    B = RandomMove.of({"L": frozenset("d"), "M": frozenset("e"), "R": frozenset("f")})
    E = Eis.of({A: SubSigma.trivial("LMR"), B: SubSigma.of("LMR", ["L", "MR"])})
    # the level sets {L} and {M, R}: measurable at B, not at A
    SPLIT = [frozenset("L"), frozenset("MR")]

    def _verdict(self, at_a, at_b):
        """The item of a case whose rows are (levels, events, apc3) at A and B."""
        case = _case_of(None, [(self.A, *at_a), (self.B, *at_b)])
        case.holds_for_every_sigma = False
        return case.verdict(self.E)

    def test_measurable_but_not_adapted_fails_forward(self):
        # forward fails at both moves; the first is named
        verdict = self._verdict(
            ([frozenset("LMR")], [frozenset("L")], True), (self.SPLIT, [frozenset("M")], True)
        )
        assert (verdict.ok, verdict.code, verdict.witness) == (
            False,
            "thm4-11",
            "FAIL[forward-implication]; witness: g measurable at {L↦{a}, M↦{b}, R↦{c}} "
            "but the choice is not adapted there",
        )

    def test_adapted_with_apc3_but_not_measurable_fails_backward(self):
        # adapted and not measurable at both moves, with AP.C3 at B only
        verdict = self._verdict(
            (self.SPLIT, [], False), ([frozenset("M"), frozenset("LR")], [frozenset("L")], True)
        )
        assert (verdict.ok, verdict.code, verdict.witness) == (
            False,
            "thm4-11",
            "FAIL[backward-implication]; witness: choice adapted at {L↦{d}, M↦{e}, R↦{f}} "
            "with AP.C3, but g not measurable",
        )

    def test_forward_is_named_before_backward(self):
        # backward fails at A, forward at B: forward comes first all the same
        verdict = self._verdict((self.SPLIT, [], True), (self.SPLIT, [frozenset("M")], True))
        assert (verdict.ok, verdict.code, verdict.witness) == (
            False,
            "thm4-11",
            "FAIL[forward-implication]; witness: g measurable at {L↦{d}, M↦{e}, R↦{f}} "
            "but the choice is not adapted there; "
            "FAIL[backward-implication]; witness: choice adapted at {L↦{a}, M↦{b}, R↦{c}} "
            "with AP.C3, but g not measurable",
        )

    def test_no_failure_is_the_shared_passed_verdict(self):
        verdict = self._verdict((self.SPLIT, [], False), (self.SPLIT, [frozenset("L")], True))
        assert verdict is Verdict.passed()


def _case_of(space, moves) -> MeasurabilityCase:
    """A case with the given per-move table (move, levels, events, apc3)."""
    case = MeasurabilityCase.__new__(MeasurabilityCase)
    case.moves, case._space = list(moves), space
    return case


def _perturbed(case, rng) -> MeasurabilityCase:
    """A copy of `case` with random level sets, events and AP.C3 flags at
    each of its moves. The level sets partition D_x, by its trace atoms or
    by its scenarios; an event is a union of trace atoms, of level sets or
    of scenarios."""
    space = case._space
    moves = []
    for move, *_ in case.moves:
        scenarios = canon_sorted(move.domain)
        atoms = canon_sorted(space.trace_atoms(move.domain))
        parts = atoms if rng.random() < 0.5 else [frozenset([w]) for w in scenarios]
        blocks: dict = {}
        for part in parts:
            blocks.setdefault(rng.randrange(len(parts)), set()).update(part)
        levels = [frozenset(blocks[k]) for k in sorted(blocks)]
        events = set()
        for _ in range(rng.randrange(4)):
            pool = rng.choice([atoms, levels, [frozenset([w]) for w in scenarios]])
            events.add(frozenset().union(*(x for x in pool if rng.random() < 0.5)))
        moves.append((move, levels, frozenset(events), rng.random() < 0.7))
    return _case_of(space, moves)


def _fails_at(row, sigma) -> tuple:
    """Whether forward and whether backward fail at the row (move, levels,
    events, apc3) of a case when σ is the algebra at its move."""
    _, levels, events, apc3 = row
    measurable = all(sigma.contains(level) for level in levels)
    adapted = all(sigma.contains(event) for event in events)
    return measurable and not adapted, apc3 and adapted and not measurable


def _every_sigma_against_candidates(case) -> Counter:
    """Assert that `holds_for_every_sigma` is true at each of the case's
    moves iff neither implication fails there at any σ in
    `sub_sigma_candidates`, and true for the case iff at every move; tally
    the verdicts."""
    tally = Counter()
    every_move = True
    for row in case.moves:
        one = _case_of(case._space, [row])
        fails = [_fails_at(row, sigma) for sigma in sub_sigma_candidates(case._space, row[0].domain)]
        expected = not any(forward or backward for forward, backward in fails)
        assert one.holds_for_every_sigma == expected, row
        every_move = every_move and expected
        tally["holds" if expected else "fails"] += 1
        tally["forward fails"] += any(forward for forward, _ in fails)
        tally["backward fails"] += any(backward for _, backward in fails)
    assert case.holds_for_every_sigma == every_move
    return tally


def _verdict_against_the_rows(case, rng) -> Counter:
    """`case.verdict(e)` at 4 structures that put a random σ of
    `sub_sigma_candidates` at each of the case's moves, against the item
    composed from `_fails_at` row by row: the first forward failure's text,
    then the first backward failure's, joined by "; "."""
    candidates = [sub_sigma_candidates(case._space, move.domain) for move, *_ in case.moves]
    tally = Counter()
    for _ in range(4):
        sigmas = [rng.choice(listed) for listed in candidates]
        e = Eis.of({move: sigma for (move, *_), sigma in zip(case.moves, sigmas)})
        forward = backward = ""
        for row, sigma in zip(case.moves, sigmas):
            text = row[0].fmt()
            fails_forward, fails_backward = _fails_at(row, sigma)
            if fails_forward and not forward:
                forward = (
                    f"FAIL[forward-implication]; witness: g measurable at {text} "
                    "but the choice is not adapted there"
                )
            if fails_backward and not backward:
                backward = (
                    f"FAIL[backward-implication]; witness: choice adapted at {text} "
                    "with AP.C3, but g not measurable"
                )
        failed = [x for x in (forward, backward) if x]
        expected = Verdict.failed("thm4-11", "; ".join(failed)) if failed else Verdict.passed()
        assert case.verdict(e) == expected, (case.moves, sigmas)
        tally["forward" if forward else "no forward"] += 1
        tally["backward" if backward else "no backward"] += 1
        tally["both"] += bool(forward and backward)
    return tally


def _distinct_cases(aps) -> list:
    found = {}
    for agent in aps.po.space.agents:
        for *_, case in sweep_rows(aps, agent):
            if not isinstance(case, KernelError):
                found[id(case)] = case
    return list(found.values())


class TestEverySigma:
    """`MeasurabilityCase.holds_for_every_sigma` against the σ-algebras it
    stands for: every sub-σ-algebra of 𝒜|D_x, listed, at each move x."""

    def _instances(self, rng, timing_aps, upandout_aps) -> list:
        from sdfkit.gen import random_path_outcomes
        from test_cli import _two_agent_doc

        # on a coarse space a level set or an event can cut a trace atom
        coarse = product_outcomes(
            ScenarioSpace.of([1, 2, 3, 4], [[1, 2], [3], [4]]),
            TimeAxis.of([0, 1]),
            ["a", "b"],
            factorization={"i": {"a": "a", "b": "b"}},
        )
        instances = [
            timing_aps,
            upandout_aps,
            build_action_path_sdf(_two_agent_doc().po, max_x_exhaustive=12),
            build_action_path_sdf(coarse),
        ]
        draws = 0
        while draws < 60:
            po = random_path_outcomes(rng)
            factorization = {"i": {a: a for a in po.space.actions}}
            if draws % 2:
                factorization["j"] = {a: rng.choice("xy") for a in sorted(po.space.actions)}
            try:
                instances.append(build_action_path_sdf(_factorized(po, factorization)))
            except StructureError:
                continue
            draws += 1
        return instances

    def test_matches_the_candidate_walk(self, rng, timing_aps, upandout_aps):
        real, perturbed = Counter(), Counter()
        for aps in self._instances(rng, timing_aps, upandout_aps):
            for case in _distinct_cases(aps):
                real += _every_sigma_against_candidates(case)
                for _ in range(3):
                    perturbed += _every_sigma_against_candidates(_perturbed(case, rng))
        # Theorem 4.11: every real case passes for every σ
        assert real["fails"] == 0 and real["holds"] > 0, real
        assert perturbed["forward fails"] > 0 and perturbed["backward fails"] > 0, perturbed
        assert perturbed["holds"] > 0, perturbed

    def test_verdict_matches_the_per_move_walk(self, rng, timing_aps, upandout_aps):
        # perturbed cases of two or more moves, whatever their every-σ flag
        tally = Counter()
        for aps in self._instances(rng, timing_aps, upandout_aps):
            for case in _distinct_cases(aps):
                for _ in range(3):
                    perturbed = _perturbed(case, rng)
                    if len(perturbed.moves) > 1:
                        tally += _verdict_against_the_rows(perturbed, rng)
        assert tally["forward"] > 0 and tally["backward"] > 0 and tally["both"] > 0, tally
        assert tally["no forward"] > 0 and tally["no backward"] > 0, tally


class TestMeasurabilitySweep:
    def test_matches_oracle_on_builtins(self, simple_aps, upandout_aps, variant_aps):
        variant = build_action_path_sdf(
            _factorized(variant_aps.po, {"1": {a: a for a in (0, 1, 2)}})
        )
        tally = Counter()
        for aps in (simple_aps, upandout_aps, variant):
            tally += _sweep_against_oracle(aps)
            tally += _partial_maps_against_oracle(aps)
        assert tally["precondition-violation"] > 0
        assert tally["measurable=False"] > 0 and tally["adapted=False"] > 0

    def test_matches_oracle_on_a_coarse_scenario_space(self):
        # {1} is not an event here, so a g defined on it alone is an input error
        po = product_outcomes(
            ScenarioSpace.of([1, 2], [[1, 2]]),
            TimeAxis.of([0, 1]),
            ["a", "b"],
            factorization={"1": {"a": "a", "b": "b"}},
        )
        aps = build_action_path_sdf(po)
        tally = _sweep_against_oracle(aps) + _partial_maps_against_oracle(aps)
        assert tally["input-error"] > 0 and tally["report"] > 0

    def test_matches_oracle_where_the_choice_decides_apc3(self):
        # AP.C3 is searched over histories covering the choice's prefixes; on
        # this instance a search from each move's own prefix alone would pass
        # at some moves where the oracle's search fails
        paths = ["ab", "ba", "bb"], ["aa", "ab", "ba", "bb"]
        po = PathOutcomes.of(
            TimeAxis.of([0, 1]),
            ActionSpace.of(["a", "b"], {"1": {"a": "a", "b": "b"}}),
            ScenarioSpace.discrete([1, 2]),
            [(w, tuple(f)) for w, fs in zip((1, 2), paths) for f in fs],
        )
        tally = _sweep_against_oracle(build_action_path_sdf(po))
        assert tally["apc3=False"] > 0 and tally["apc3=True"] > 0

    def test_matches_oracle_on_random_instances(self, rng):
        # 150 draws: on the default seed the first 100 reach no failed AP.C3
        from sdfkit.gen import random_path_outcomes

        tally = Counter()
        compared = 0
        for _ in range(1000):
            po = random_path_outcomes(rng)
            factorization = {"i": {a: a for a in po.space.actions}}
            if rng.random() < 0.5:
                factorization["j"] = {a: rng.choice("xy") for a in sorted(po.space.actions)}
            try:
                aps = build_action_path_sdf(_factorized(po, factorization))
            except StructureError:
                continue
            tally += _sweep_against_oracle(aps)
            tally += _partial_maps_against_oracle(aps)
            compared += 1
            if compared == 150:
                break
        assert compared == 150
        assert tally["measurable=False"] >= 100 and tally["adapted=False"] >= 100, tally
        assert tally["apc3=False"] > 0 and tally["precondition-violation"] > 0, tally

    def test_no_structures_compute_nothing(self, upandout_aps, monkeypatch):
        import sdfkit.action_path
        import sdfkit.cli
        from sdfkit.cli import builtin_doc, run

        def fail(*args, **kwargs):
            raise AssertionError("EIS-independent state built without an EIS")

        monkeypatch.setattr(sdfkit.action_path, "agent_choice", fail)
        assert list(oracle_measurability_sweep(upandout_aps, ())) == []
        monkeypatch.setattr(sdfkit.cli, "enumerate_eis", lambda s: ())
        [thm] = run(builtin_doc("upandout"), ["thm4-11"], max_x=12).records
        assert (thm.status, thm.items, thm.data) == ("ok", (), {"skipped": 0, "checked": 0})
