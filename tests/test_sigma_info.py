import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdfkit.errors import InputError, SizeCapError
from sdfkit.gen import random_filtration, random_observables, random_path_outcomes
from sdfkit.order_core import set_partitions
from sdfkit.sdf import RandomMove, ScenarioSpace, Sdf, ge_x, x_order
from sdfkit.set_forest import SetForest
from sdfkit.sigma_info import (
    Eis,
    Filtration,
    ObservationFamily,
    SubSigma,
    chain_filtration,
    eis_from_filtration,
    eis_from_observations,
    enumerate_eis,
    level_set_partition,
    sub_sigma_candidates,
    verify_eis,
)
from sdfkit.action_path import (
    ActionSpace,
    PathOutcomes,
    TimeAxis,
    build_action_path_sdf,
    check_apw,
    product_outcomes,
)
from sdfkit.errors import KernelError
from conftest import brute_enumerate_eis, brute_trace_failure, scan_enumerate_eis
from tests_helpers import (
    explicit_doc,
    fresh_copy,
    outcome,
    recursion_headroom,
    simple_eis_list,
    variant_eis_list,
)


def partitions_strategy(n):
    """hypothesis strategy producing a SubSigma over {0..n-1}."""
    items = list(range(n))
    all_parts = [
        frozenset(frozenset(b) for b in blocks) for blocks in set_partitions(items)
    ]
    carrier = frozenset(items)
    return st.sampled_from([SubSigma(carrier, p) for p in all_parts])


@st.composite
def sub_sigmas(draw, universe=range(4)):
    """hypothesis strategy producing a SubSigma over a subset of `universe`."""
    carrier = draw(st.frozensets(st.sampled_from(list(universe))))
    blocks = draw(st.sampled_from(list(set_partitions(sorted(carrier)))))
    return SubSigma.of(carrier, blocks)


class TestSubSigma:
    def test_events_and_contains(self):
        sigma = SubSigma.of({1, 2, 3}, [{1, 2}, {3}])
        assert sigma.contains({1, 2})
        assert not sigma.contains({1})
        assert len(sigma.events()) == 4

    def test_trace(self):
        sigma = SubSigma.of({1, 2, 3}, [{1, 2}, {3}])
        traced = sigma.trace({1, 2})
        assert traced.atoms == frozenset([frozenset({1, 2})])

    @settings(max_examples=60, deadline=None)
    @given(partitions_strategy(5), partitions_strategy(5))
    def test_join_commutative(self, a, b):
        assert a.join(b) == b.join(a)

    @settings(max_examples=60, deadline=None)
    @given(partitions_strategy(4), partitions_strategy(4), partitions_strategy(4))
    def test_join_associative(self, a, b, c):
        assert a.join(b).join(c) == a.join(b.join(c))

    @settings(max_examples=30, deadline=None)
    @given(partitions_strategy(6))
    def test_join_idempotent(self, a):
        assert a.join(a) == a

    def test_join_carrier_mismatch(self):
        with pytest.raises(InputError):
            SubSigma.trivial({1}).join(SubSigma.trivial({2}))

    @settings(max_examples=300, deadline=None)
    @given(sub_sigmas(), sub_sigmas(), st.data())
    def test_trace_failure_matches_event_listing(self, sigma, other, data):
        # the domain is the other's carrier or any subset of the universe
        domain = data.draw(
            st.one_of(st.just(other.carrier), st.frozensets(st.sampled_from(range(4))))
        )
        expected = brute_trace_failure(sigma, domain, other)
        assert sigma.trace_failure(domain, other) == expected


class TestMisses:
    def test_observation_family_names_a_move_without_an_observable(self):
        (move,) = explicit_doc().sdf.sorted_moves
        y = ObservationFamily.of({move: {"R": 1, "L": 0}})
        assert y.for_move(move) == {"L": 0, "R": 1}
        with pytest.raises(InputError) as exc:
            y.for_move(RandomMove.of({"L": frozenset("a")}))
        assert (str(exc.value), exc.value.code) == ("no observable for move {L↦{a}}", "input-error")

    def test_verify_eis_rejects_a_structure_off_the_random_moves(self):
        with pytest.raises(InputError) as exc:
            verify_eis(explicit_doc().sdf, Eis.of({}))
        assert (str(exc.value), exc.value.code) == (
            "information structure does not index exactly the random moves",
            "carrier-mismatch",
        )


class TestVerifyEis:
    def test_trivial_everywhere(self, simple):
        assert verify_eis(simple, simple_eis_list()[0]).ok

    def test_discrete_at_root_trivial_below_fails(self, simple, simple_moves):
        omega = frozenset([1, 2])
        e = Eis.of(
            {
                simple_moves["x0"]: SubSigma.ambient_trace(simple.space, omega),
                simple_moves["x1"]: SubSigma.trivial(omega),
                simple_moves["x2"]: SubSigma.trivial(omega),
            }
        )
        v = verify_eis(simple, e)
        assert not v.ok and v.code == "eis-trace-violation"
        assert "{1}" in v.witness

    def test_trace_violation_witness_text(self, simple, simple_moves):
        omega = frozenset([1, 2])
        e = Eis.of(
            {
                simple_moves["x0"]: SubSigma.ambient_trace(simple.space, omega),
                simple_moves["x1"]: SubSigma.trivial(omega),
                simple_moves["x2"]: SubSigma.trivial(omega),
            }
        )
        assert verify_eis(simple, e).witness == (
            "E = {1} at {1↦{(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)}, "
            "2↦{(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2)}} traces to {1} "
            "∉ algebra at {1↦{(1, 1, 1), (1, 1, 2)}, 2↦{(2, 1, 1), (2, 1, 2)}}"
        )

    def test_a_repeated_move_is_read_by_its_first_entry(self, simple, simple_moves):
        # as `for_move` reads it: the discrete algebra at x0, which fails the
        # trace into x1 whether or not a later entry repeats x0
        omega = frozenset([1, 2])
        x0, x1, x2 = (simple_moves[name] for name in ("x0", "x1", "x2"))
        discrete = SubSigma.ambient_trace(simple.space, omega)
        e = Eis(
            (
                (x0, discrete),
                (x0, SubSigma.trivial(omega)),
                (x1, SubSigma.trivial(omega)),
                (x2, SubSigma.trivial(omega)),
            )
        )
        assert e.for_move(x0) == discrete
        once = Eis.of({m: e.for_move(m) for m in (x0, x1, x2)})
        v = verify_eis(simple, e)
        assert not v.ok and v.code == "eis-trace-violation"
        assert v == verify_eis(simple, once)

    def test_case_2b(self, simple):
        # root trivial, scenario revealed only at the first successor
        assert verify_eis(simple, simple_eis_list()[2]).ok

    def test_carrier_mismatch(self, simple, simple_moves):
        omega = frozenset([1, 2])
        e = Eis.of(
            {
                simple_moves["x0"]: SubSigma.trivial(frozenset([1])),
                simple_moves["x1"]: SubSigma.trivial(omega),
                simple_moves["x2"]: SubSigma.trivial(omega),
            }
        )
        with pytest.raises(InputError) as exc:
            verify_eis(simple, e)
        assert exc.value.code == "carrier-mismatch"


def brute_force_eis(s):
    """Independent oracle: unpruned product over all per-move algebras."""
    moves = sorted(s.random_moves, key=lambda m: sorted(m.domain))
    pools = [sub_sigma_candidates(s.space, m.domain) for m in moves]
    out = []
    for combo in itertools.product(*pools):
        e = Eis.of(dict(zip(moves, combo)))
        if verify_eis(s, e).ok:
            out.append(e)
    return out


def three_domain_instance() -> Sdf:
    """{a, b}^2 over 5 scenarios, without (b, b) at scenario 0 and (a, b) at
    scenario 4: the root over all 5, the move after a over {0, 1, 2, 3} and
    the move after b over {1, 2, 3, 4}."""
    full = list(itertools.product("ab", repeat=2))
    paths = (
        [(0, f) for f in full if f != ("b", "b")]
        + [(w, f) for w in (1, 2, 3) for f in full]
        + [(4, f) for f in full if f != ("a", "b")]
    )
    space = ScenarioSpace.discrete(range(5))
    return build_action_path_sdf(PathOutcomes.of(TimeAxis.of(range(2)), ActionSpace.of("ab"), space, paths)).sdf


@pytest.fixture(scope="module")
def eis_instances(simple, variant, timing_aps, upandout_aps):
    """The four builtins, a document whose moves have three domains, then the
    buildable draws among the first 200 seeds of the path-outcome generator."""
    out = [simple, variant, timing_aps.sdf, upandout_aps.sdf, three_domain_instance()]
    for seed in range(200):
        try:
            aps = build_action_path_sdf(
                random_path_outcomes(random.Random(seed)), max_x_exhaustive=9
            )
        except KernelError:
            continue
        out.append(aps.sdf)
    return out


class TestEnumerateEis:
    def test_simple_has_five(self, simple):
        structures = enumerate_eis(simple)
        assert len(structures) == 5
        assert set(structures) == set(simple_eis_list())

    def test_variant_has_three(self, variant):
        structures = enumerate_eis(variant)
        assert len(structures) == 3
        assert set(structures) == set(variant_eis_list())

    def test_single_scenario(self):
        from tests_helpers import one_scenario_instance

        s = one_scenario_instance()
        assert len(enumerate_eis(s)) == 1

    def test_duplicate_free_and_verified(self, simple, variant):
        for s in (simple, variant):
            structures = enumerate_eis(s)
            assert len(set(structures)) == len(structures)
            for e in structures:
                assert verify_eis(s, e).ok

    def test_against_unpruned_brute_force(self, simple, variant):
        for s in (simple, variant):
            assert set(enumerate_eis(s)) == set(brute_force_eis(s))

    def test_order_matches_sorting_oracle(self, eis_instances):
        # `adapted:<c>:<k>` indexes this order, so it is compared in full
        for s in eis_instances:
            assert enumerate_eis(s) == brute_enumerate_eis(s)

    def test_never_lists_events(self, monkeypatch, eis_instances, timing_aps):
        # a pruned candidate needs only the boolean trace test, no witness
        timing = timing_aps.sdf
        unpruned = math.prod(
            len(sub_sigma_candidates(timing.space, m.domain)) for m in timing.random_moves
        )
        assert len(enumerate_eis(timing)) < unpruned
        listed = []
        events = SubSigma.events

        def counting(self):
            listed.append(self)
            return events(self)

        monkeypatch.setattr(SubSigma, "events", counting)
        for s in eis_instances:
            enumerate_eis(s)
        assert listed == []

    def test_cap(self, simple, monkeypatch):
        # 18 units: 6 candidates built over the 3 moves, 12 tried
        monkeypatch.setattr("sdfkit.errors.WORK_CAP", 18)
        assert len(enumerate_eis(simple)) == 5
        monkeypatch.setattr("sdfkit.errors.WORK_CAP", 17)
        with pytest.raises(SizeCapError) as exc:
            enumerate_eis(simple)
        assert str(exc.value) == "EIS enumeration exceeded 17 work units"

    @staticmethod
    def lists_built(monkeypatch, s, cap):
        """The lengths of the candidate lists `enumerate_eis` builds on `s`
        under a work cap of `cap`, which it must reach."""
        built = []

        def counting(space, carrier):
            built.append(sub_sigma_candidates(space, carrier))
            return built[-1]

        monkeypatch.setattr("sdfkit.sigma_info.sub_sigma_candidates", counting)
        monkeypatch.setattr("sdfkit.errors.WORK_CAP", cap)
        with pytest.raises(SizeCapError) as exc:
            enumerate_eis(s)
        assert str(exc.value) == f"EIS enumeration exceeded {cap} work units"
        return [len(c) for c in built]

    def test_cap_counts_each_candidate_list_as_it_is_built(self, monkeypatch):
        # {a, b}^3 over 5 scenarios: 7 moves, each over the same 5 atoms, so
        # one list of 52 candidates, counted once per move; the second move
        # passes 100 units
        po = product_outcomes(ScenarioSpace.discrete(range(5)), TimeAxis.of(range(3)), ["a", "b"])
        s = build_action_path_sdf(po).sdf
        assert len(s.random_moves) == 7
        assert self.lists_built(monkeypatch, s, 100) == [52]

    def test_cap_builds_at_most_one_list_past_it(self, monkeypatch):
        # 15 scenarios, each with a two-outcome tree, and three moves over
        # disjoint groups of 5 scenarios: three domains, 52 candidates each;
        # the second list passes 100 units, and the third is never built
        groups = [range(0, 5), range(5, 10), range(10, 15)]
        nodes, projection = [], {}
        for w in range(15):
            for node in ({(w, "a"), (w, "b")}, {(w, "a")}, {(w, "b")}):
                nodes.append(frozenset(node))
                projection[frozenset(node)] = w
        forest = SetForest.of(frozenset().union(*nodes), nodes)
        moves = [RandomMove.of({w: frozenset({(w, "a"), (w, "b")}) for w in g}) for g in groups]
        s = Sdf.of(forest, ScenarioSpace.discrete(range(15)), projection, moves)
        assert self.lists_built(monkeypatch, s, 100) == [52, 52]

    def test_cap_points_match_the_scanning_form(self, monkeypatch, simple, variant, timing_aps):
        # same units, counted in the same order: under every cap both raise
        # the same error or return the same structures
        cases = [(simple, cap) for cap in range(1, 61)] + [(variant, cap) for cap in range(1, 61)]
        cases += [(timing_aps.sdf, cap) for cap in (257, 258, 259)]
        seen = set()
        for s, cap in cases:
            monkeypatch.setattr("sdfkit.errors.WORK_CAP", cap)
            got = outcome(enumerate_eis, s)
            assert got == outcome(scan_enumerate_eis, s), (cap, got)
            seen.add(got[0])
        assert seen == {"value", "error"}

    def test_reads_x_above_not_every_pair(self, monkeypatch):
        # {a, b}^7 in one scenario: 127 moves; one `ge_x` per ordered pair
        # would be 16002 calls, walking ancestors makes at most |X| per level
        po = product_outcomes(ScenarioSpace.discrete([1]), TimeAxis.of(range(7)), ["a", "b"])
        s = fresh_copy(build_action_path_sdf(po).sdf)
        depth = max(len(up) for up in s.up.values())
        calls = []

        def counting(x1, x2):
            calls.append((x1, x2))
            return ge_x(x1, x2)

        monkeypatch.setattr("sdfkit.sdf.ge_x", counting)
        monkeypatch.setattr("sdfkit.sigma_info.ge_x", counting)
        assert len(enumerate_eis(s)) == 1
        assert 0 < len(calls) <= len(s.random_moves) * depth

    def test_candidate_list_cap_names_its_search(self, monkeypatch):
        # one move over 3 atoms: 9 partition search nodes
        po = product_outcomes(ScenarioSpace.discrete(range(3)), TimeAxis.of(range(1)), ["a", "b"])
        s = build_action_path_sdf(po).sdf
        monkeypatch.setattr("sdfkit.errors.WORK_CAP", 8)
        with pytest.raises(SizeCapError) as exc:
            enumerate_eis(s)
        assert str(exc.value) == "sub-σ-algebra partition enumeration exceeded 8 work units"

    def test_depth_not_bounded_by_the_recursion_limit(self):
        # {a, b}^7 in one scenario: 127 moves, one candidate each
        po = product_outcomes(ScenarioSpace.discrete([1]), TimeAxis.of(range(7)), ["a", "b"])
        s = build_action_path_sdf(po).sdf
        assert len(s.random_moves) == 127
        with recursion_headroom(100):
            structures = enumerate_eis(s)
        assert len(structures) == 1


class TestChainFiltration:
    def test_single_move_chain(self, simple, simple_moves):
        e = simple_eis_list()[0]
        stages = chain_filtration(simple, e, [simple_moves["x0"]])
        assert len(stages.stages) == 1 and stages.verdict.ok

    def test_simple_2a_chain(self, simple, simple_moves):
        e = simple_eis_list()[1]  # trivial at root, discrete after
        stages = chain_filtration(simple, e, [simple_moves["x0"], simple_moves["x1"]])
        assert stages.verdict.ok
        (m0, s0), (m1, s1) = stages.stages
        assert m0 == simple_moves["x0"] and s0.atoms == frozenset([frozenset([1, 2])])
        assert s1.atoms == frozenset([frozenset([1]), frozenset([2])])
        assert stages.filtration is not None
        assert stages.filtration.stage(1).includes(stages.filtration.stage(0))

    def test_variant_trace_chain(self, variant, variant_moves):
        e = variant_eis_list()[0]
        stages = chain_filtration(variant, e, [variant_moves["x0"], variant_moves["x2"]])
        assert stages.verdict.ok
        assert stages.filtration is None  # carriers differ from Ω
        (_, s0), (_, s2) = stages.stages
        assert s0.carrier == frozenset([1, 2])
        assert s2.atoms == frozenset([frozenset([2])])

    def test_reports_the_last_failing_pair(self):
        # a three-move chain, discrete at the top two moves and trivial at the
        # bottom one: both upper moves fail the trace at the bottom, and the
        # verdict names the later pair
        space = ScenarioSpace.discrete([1, 2])
        po = product_outcomes(space, TimeAxis.of([0, 1, 2]), ["a", "b"])
        s = build_action_path_sdf(po).sdf
        bottom, middle, top = s.sorted_moves[:3]
        omega = s.space.scenarios
        fine = SubSigma.ambient_trace(space, omega)
        e = Eis.of(
            {m: SubSigma.trivial(omega) if m == bottom else fine for m in s.random_moves}
        )
        verdict = chain_filtration(s, e, [bottom, top, middle]).verdict
        assert verdict.code == "trace-not-monotone"
        assert verdict.witness == (
            "E = {1} at {1↦{(1, (a, a, a)), (1, (a, a, b)), (1, (a, b, a)), "
            "(1, (a, b, b))}, 2↦{(2, (a, a, a)), (2, (a, a, b)), (2, (a, b, a)), "
            "(2, (a, b, b))}} fails the trace at {1↦{(1, (a, a, a)), (1, (a, a, b))}, "
            "2↦{(2, (a, a, a)), (2, (a, a, b))}}"
        )

    def test_not_a_chain(self, simple, simple_moves):
        e = simple_eis_list()[0]
        with pytest.raises(InputError) as exc:
            chain_filtration(simple, e, [simple_moves["x1"], simple_moves["x2"]])
        assert exc.value.code == "not-a-chain"

    def test_monotone_traces_all_chains(self, simple, variant):
        # finite restatement of the filtration property along every chain
        for s in (simple, variant):
            order = x_order(s)
            moves = list(s.random_moves)
            for e in enumerate_eis(s):
                for r in range(1, len(moves) + 1):
                    for chain in itertools.combinations(moves, r):
                        if not all(
                            order.comparable(a, b)
                            for a, b in itertools.combinations(chain, 2)
                        ):
                            continue
                        assert chain_filtration(s, e, chain).verdict.ok


class TestEisFromFiltration:
    def test_constant_trivial(self, simple_aps):
        s = simple_aps.sdf
        omega = s.space.scenarios
        g = Filtration.of(
            {t: SubSigma.trivial(omega) for t in simple_aps.po.time.points}
        )
        e = eis_from_filtration(s, simple_aps.time_map(), g)
        assert all(sigma.atoms == frozenset([m.domain]) for m, sigma in e.entries)
        assert verify_eis(s, e).ok

    def test_reveal_at_time_one(self, simple_aps):
        # trivial at 0, discrete at 1: the only-second-move-reveals structure
        s = simple_aps.sdf
        omega = s.space.scenarios
        g = Filtration.of(
            {
                Fraction(0): SubSigma.trivial(omega),
                Fraction(1): SubSigma.ambient_trace(s.space, omega),
            }
        )
        e = eis_from_filtration(s, simple_aps.time_map(), g)
        assert verify_eis(s, e).ok
        for m, t in simple_aps.move_times:
            expected = 1 if t == 0 else 2
            assert len(e.for_move(m).atoms) == expected

    def test_discrete_everywhere(self, simple_aps):
        s = simple_aps.sdf
        omega = s.space.scenarios
        discrete = SubSigma.ambient_trace(s.space, omega)
        g = Filtration.of({t: discrete for t in simple_aps.po.time.points})
        e = eis_from_filtration(s, simple_aps.time_map(), g)
        assert all(len(sigma.atoms) == len(m.domain) for m, sigma in e.entries)

    def test_time_index_mismatch(self, simple_aps):
        s = simple_aps.sdf
        g = Filtration.of({Fraction(5): SubSigma.trivial(s.space.scenarios)})
        with pytest.raises(InputError) as exc:
            eis_from_filtration(s, simple_aps.time_map(), g)
        assert exc.value.code == "time-index-mismatch"


class TestEisFromObservations:
    def _trivial_filtration(self, aps):
        return Filtration.of(
            {t: SubSigma.trivial(aps.sdf.space.scenarios) for t in aps.po.time.points}
        )

    def test_constant_observables_reduce_to_filtration(self, simple_aps):
        s = simple_aps.sdf
        g = self._trivial_filtration(simple_aps)
        y = ObservationFamily.of(
            {m: {w: "k" for w in s.space.scenarios} for m in s.random_moves}
        )
        assert eis_from_observations(s, simple_aps.time_map(), g, y) == eis_from_filtration(
            s, simple_aps.time_map(), g
        )

    def test_identity_at_root_reveals_everywhere(self, simple_aps):
        s = simple_aps.sdf
        g = self._trivial_filtration(simple_aps)
        root = next(m for m, t in simple_aps.move_times if t == 0)
        y = ObservationFamily.of(
            {
                m: ({w: w for w in s.space.scenarios} if m == root
                    else {w: "k" for w in s.space.scenarios})
                for m in s.random_moves
            }
        )
        e = eis_from_observations(s, simple_aps.time_map(), g, y)
        assert all(len(sigma.atoms) == len(m.domain) for m, sigma in e.entries)

    def test_observation_at_one_successor_gives_2b(self, simple_aps):
        s = simple_aps.sdf
        g = self._trivial_filtration(simple_aps)
        # the t=1 move reached by first action 1 observes the scenario
        target = next(
            m
            for m, t in simple_aps.move_times
            if t == 1 and all(f[0] == 1 for node in m.image for (_, f) in node)
        )
        y = ObservationFamily.of(
            {
                m: ({w: w for w in s.space.scenarios} if m == target
                    else {w: "k" for w in s.space.scenarios})
                for m in s.random_moves
            }
        )
        e = eis_from_observations(s, simple_aps.time_map(), g, y)
        for m, t in simple_aps.move_times:
            atoms = e.for_move(m).atoms
            assert len(atoms) == (2 if m == target else 1)

    def test_non_measurable_observable_rejected(self, simple_aps):
        s = simple_aps.sdf
        coarse = ScenarioSpace.of([1, 2], [[1, 2]])
        with pytest.raises(InputError):
            level_set_partition(coarse, {1: "a", 2: "b"})


class TestObservationConstructionProperty:
    def test_random_triples_verify(self, rng):
        done = 0
        attempts = 0
        while done < 12 and attempts < 400:
            attempts += 1
            po = random_path_outcomes(rng)
            apw = check_apw(po)
            if not all(v.ok for k, v in apw.items if k in ("W0", "W1", "W2", "W3")):
                continue
            aps = build_action_path_sdf(po, max_x_exhaustive=9)
            g = random_filtration(rng, po.scenarios, po.time.points)
            y = random_observables(rng, po.scenarios, aps.sdf.random_moves)
            e = eis_from_observations(aps.sdf, aps.time_map(), g, y)
            assert verify_eis(aps.sdf, e).ok
            done += 1
        assert done >= 12
