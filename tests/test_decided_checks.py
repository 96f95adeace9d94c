"""The build-time checks decide on sets and sort only to name a failure.

Each decision is compared with the canonical loop it replaced (the oracles in
conftest) on random inputs that include every kind of failure, and a guard
asserts that a passing check makes no canonical-order call at all.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from sdfkit import _canon, action_path, choice, cli, errors, examples, order_core, sdf, set_forest, sigma_info
from sdfkit._canon import canon_sorted
from sdfkit.action_path import (
    ActionSpace,
    PathOutcomes,
    TimeAxis,
    WindowChoiceSpec,
    build_action_path_sdf,
    check_apw,
    product_outcomes,
    window_choice,
)
from sdfkit.errors import KernelError, SizeCapError, StructureError, not_a_forest
from sdfkit.gen import random_path_outcomes, random_rooted_forest
from sdfkit.order_core import Poset, forest_witness, is_tree, maximal_chains, separation_witness
from sdfkit.sdf import (
    RandomMove,
    ScenarioSpace,
    Sdf,
    SubSigma,
    _axioms_3a_to_3d,
    check_evaluation_bijection,
    check_ttree_theorem,
    fibres,
)
from sdfkit.set_forest import SetForest, representation_by_decision_paths, verify_own_representation
from sdfkit.verdict import Verdict

import conftest
from conftest import (
    brute_agent_pieces,
    brute_axiom_3c,
    brute_chain_work,
    brute_check_apw,
    brute_check_evaluation_bijection,
    brute_fibres,
    brute_forest_witness,
    brute_verify_own_representation,
    brute_window_choice,
    oracle_is_tree,
    oracle_separation_witness,
    pairwise_ttree,
    pairwise_verify_eis,
    pairwise_x_above,
)
from tests_helpers import EXPLICIT_DOC, corpus_doc, fresh_copy, outcome


def corpus_sdfs(n: int) -> list:
    """The four builtins and the buildable draws among the first `n`."""
    out = [
        examples.build_simple(),
        examples.build_variant(),
        examples.timing_instance().sdf,
        build_action_path_sdf(examples.upandout_path_outcomes(), max_x_exhaustive=12).sdf,
    ]
    for draw in range(n):
        try:
            out.append(build_action_path_sdf(random_path_outcomes(random.Random(draw))).sdf)
        except KernelError:
            pass
    return out


# ---------------------------------------------------------------------------
# order_core: forest witness, maximal chains, separation


def random_relation_poset(rng):
    """A poset from a random DAG over string labels (set order follows the
    hash), or a forest relabelled the same way."""
    labels = [f"n{i}" for i in range(rng.randint(1, 8))]
    if rng.random() < 0.5:
        p = random_rooted_forest(rng, len(labels))
        return Poset.of([labels[x] for x in p.elements], [(labels[x], labels[y]) for x, y in p.ge_pairs])
    above = {}
    for j, y in enumerate(labels):
        above[y] = {y}
        for x in labels[:j]:
            if rng.random() < 0.35:
                above[y] |= above[x]
    return Poset.of(labels, [(x, y) for y in labels for x in above[y]])


class TestOrderCore:
    def test_forest_and_separation_witnesses(self, rng):
        # separation is decided on forests only, and a non-forest raises
        # not-a-forest as is_tree does
        kinds = Counter()
        for _ in range(200):
            p = random_relation_poset(rng)
            witness = forest_witness(p)
            assert witness == brute_forest_witness(p)
            separated = outcome(separation_witness, p)
            if witness is None:
                assert separated == ("value", oracle_separation_witness(p))
                kinds["separated" if separated[1] is None else "unseparated"] += 1
            else:
                assert separated == ("error", StructureError, "not-a-forest", str(not_a_forest(witness)))
                kinds["not-a-forest"] += 1
        assert kinds.keys() == {"separated", "unseparated", "not-a-forest"}

    def test_separation_witness_matches_chain_oracle_on_forests(self, rng, sdf_pool):
        # random rooted forests, and the node and T-tree posets of the corpus
        # draws: the leaves below x stand for the maximal chains through x
        posets = [random_rooted_forest(rng, 10) for _ in range(300)]
        posets += [p for s in sdf_pool for p in (s.forest.poset, s.ttree.poset)]
        kinds = Counter()
        for p in posets:
            witness = separation_witness(p)
            assert witness == oracle_separation_witness(p)
            kinds[witness is None] += 1
        assert kinds[True] and kinds[False]

    def test_chain_cap_does_not_depend_on_order(self, rng):
        for _ in range(100):
            p = random_relation_poset(rng)
            work = brute_chain_work(p)
            chains = maximal_chains(p)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("sdfkit.errors.WORK_CAP", work)
                assert maximal_chains(p) == chains
                mp.setattr("sdfkit.errors.WORK_CAP", work - 1)
                with pytest.raises(SizeCapError) as exc:
                    maximal_chains(p)
            assert str(exc.value) == f"maximal-chain enumeration exceeded {work - 1} work units"

    def test_is_tree_matches_pairwise_form(self, rng, sdf_pool):
        # random forests and relations, and the forests and T-trees of the
        # builtins and the corpus draws
        posets = [random_rooted_forest(rng, 10) for _ in range(100)]
        posets += [random_relation_poset(rng) for _ in range(100)]
        posets += [p for s in sdf_pool for p in (s.forest.poset, s.ttree.poset)]
        kinds = Counter()
        for p in posets:
            got = outcome(is_tree, p)
            assert got == outcome(oracle_is_tree, p)
            kinds[got[1] if got[0] == "value" else got[2]] += 1
        assert kinds.keys() == {True, False, "not-a-forest"}


# ---------------------------------------------------------------------------
# set_forest: axiom 1


def random_node_family(rng) -> SetForest:
    """Random subsets of a small universe: mostly not decision forests."""
    universe = [f"v{i}" for i in range(rng.randint(1, 5))]
    subsets = [
        frozenset(c) for r in range(1, len(universe) + 1) for c in itertools.combinations(universe, r)
    ]
    return SetForest.of(universe, rng.sample(subsets, rng.randint(1, min(len(subsets), 9))))


def mutated_forest(rng) -> SetForest:
    """A represented decision forest with a node dropped or added, or intact."""
    p = random_rooted_forest(rng, 8)
    if separation_witness(p) is not None:
        return random_node_family(rng)
    sf = representation_by_decision_paths(p)
    nodes = set(sf.nodes)
    r = rng.random()
    if r < 0.3 and len(nodes) > 1:
        nodes.discard(rng.choice(canon_sorted(nodes)))
    elif r < 0.6:
        chains = canon_sorted(sf.universe)
        nodes.add(frozenset(rng.sample(chains, rng.randint(1, len(chains)))))
    return SetForest.of(sf.universe, nodes)


class TestOwnRepresentation:
    def test_matches_canonical_loop(self, rng):
        # The oracle also walks injectivity, surjectivity and W(y); they
        # never fail once terminals are singletons and paths maximal chains.
        codes = Counter()
        families = [SetForest.of(["v0"], [])]
        for i in range(600):
            families.append(random_node_family(rng) if i % 2 else mutated_forest(rng))
        for sf in families:
            got = outcome(verify_own_representation, sf)
            assert got == outcome(brute_verify_own_representation, sf)
            codes[(got[1].code or "ok") if got[0] == "value" else got[2]] += 1
        assert set(codes) == {
            "ok",
            "not-a-forest",
            "not-rooted-forest",
            "non-singleton-terminal",
            "path-not-maximal-chain",
        }


# ---------------------------------------------------------------------------
# sdf: the evaluation bijection, axiom 2 and axiom 3c


def mutated_sdf(rng, s: Sdf) -> Sdf:
    """`s` with one move's node swapped (for a node of the forest or not), a
    node's scenario swapped, a move dropped, or unchanged."""
    moves = set(s.random_moves)
    projection = dict(s.proj)
    r = rng.random()
    nodes = canon_sorted(s.forest.nodes)
    if r < 0.5 and moves:
        m = rng.choice(canon_sorted(moves))
        assignment = dict(m.graph)
        assignment[rng.choice(canon_sorted(m.domain))] = rng.choice(nodes)
        moves = (moves - {m}) | {RandomMove.of(assignment)}
    elif r < 0.75:
        projection[rng.choice(nodes)] = rng.choice(canon_sorted(s.space.scenarios))
    elif r < 0.85 and moves:
        moves.discard(rng.choice(canon_sorted(moves)))
    elif r < 0.92 and moves:
        # a node outside the forest, past the shape check of Sdf.of
        m = rng.choice(canon_sorted(moves))
        assignment = dict(m.graph)
        assignment[rng.choice(canon_sorted(m.domain))] = frozenset(["not-an-outcome"])
        moves = (moves - {m}) | {RandomMove.of(assignment)}
        return Sdf(s.forest, s.space, s.projection, frozenset(moves))
    return Sdf.of(s.forest, s.space, projection, moves)


@pytest.fixture(scope="module")
def sdf_pool():
    return corpus_sdfs(150)


class TestSdfChecks:
    def test_matches_canonical_loops(self, rng, sdf_pool):
        seen = Counter()
        for s in sdf_pool:
            for _ in range(6):
                t = mutated_sdf(rng, s)
                ev = outcome(check_evaluation_bijection, t)
                assert ev == outcome(brute_check_evaluation_bijection, t)
                fib = outcome(fibres, t)
                assert fib == outcome(brute_fibres, t)
                seen[ev[1].code if ev[0] == "value" else ev[2]] += 1
                seen["fibres " + ("ok" if fib[0] == "value" else fib[3].split(" ")[0])] += 1
                if any(not m.image <= t.forest.nodes for m in t.random_moves):
                    continue  # axiom 3a presumes the shape Sdf.of checks
                order = list(t.random_moves)
                rng.shuffle(order)
                for moves in (t.sorted_moves, order):
                    c3 = dict(_axioms_3a_to_3d(t, moves))["axiom-3c"]
                    assert c3 == brute_axiom_3c(moves)
                    seen["3c " + ("ok" if c3 is None else "fail")] += 1
        assert {
            "",
            "ev-not-into-f",
            "ev-not-injective",
            "ev-not-surjective",
            "ev-not-order-embedding",
            "fibres ok",
            "fibres scenario",
            "fibres fibre",
            "3c ok",
            "3c fail",
        } <= set(seen)

    def test_evaluation_bijection_reads_each_terminal_at_its_scenario(self):
        # Each move assigns, at one scenario, the root of the other scenario's
        # component. ev is a bijection and every move's row holds; only the
        # row of a terminal (ω, v) sees that a move holds v at another scenario.
        nodes = ["ab", "a", "b", "cd", "c", "d"]
        s = Sdf.of(
            SetForest.of("abcd", nodes),
            ScenarioSpace.discrete("LR"),
            {frozenset(x): "L" if x[0] in "ab" else "R" for x in nodes},
            [RandomMove.of({"R": frozenset("ab")}), RandomMove.of({"L": frozenset("cd")})],
        )
        got = check_evaluation_bijection(s)
        assert got == brute_check_evaluation_bijection(s)
        assert (got.code, got.witness) == (
            "ev-not-order-embedding",
            "pairs ev⁻¹{c, d}, ev⁻¹{c} break the embedding (False vs True)",
        )

    def test_x_above_and_ttree_match_the_pairwise_forms(self, rng, sdf_pool):
        # the builtins and corpus draws 0-149, each also with one move or node
        # altered: some fail axioms 3a-3c, some assign a set that is not a node
        seen = Counter()
        for s in sdf_pool:
            for t in [s] + [mutated_sdf(rng, s) for _ in range(4)]:
                assert t.x_above == pairwise_x_above(t)
                assert t.ttree == pairwise_ttree(t)
                # with two moves or more, x_above compares them
                nodes = all(m.image <= t.forest.nodes for m in t.random_moves)
                seen["nodes" if nodes else "not a node"] += len(t.random_moves) > 1
                # o's node at m's first scenario contains m's, yet o is not above m
                seen["contains, not above"] += any(
                    o is not m and o.nodes.get(w, frozenset()) >= node and o not in t.x_above[m]
                    for m in t.random_moves
                    for w, node in m.graph[:1]
                    for o in t.random_moves
                )
        assert min(seen[key] for key in ("nodes", "not a node", "contains, not above")) > 0, seen

    def test_ttree_matches_the_pairwise_form_on_127_moves(self):
        po = product_outcomes(ScenarioSpace.discrete([1]), TimeAxis.of(range(7)), ["a", "b"])
        s = build_action_path_sdf(po).sdf
        assert len(s.random_moves) == 127
        assert s.ttree == pairwise_ttree(s)
        assert check_ttree_theorem(s).ok

    def test_verify_eis_matches_the_pairwise_form(self, rng, sdf_pool):
        # each instance's first structures, and structures of random
        # candidates per move, most of which fail the trace condition
        seen = Counter()
        for s in sdf_pool:
            found = outcome(sigma_info.enumerate_eis, s)
            structures = list(found[1][:4]) if found[0] == "value" else []
            pools = {m: sigma_info.sub_sigma_candidates(s.space, m.domain) for m in s.sorted_moves}
            for _ in range(4):
                structures.append(sigma_info.Eis.of({m: rng.choice(c) for m, c in pools.items()}))
            for e in structures:
                verdict = sigma_info.verify_eis(s, e)
                assert verdict == pairwise_verify_eis(s, e)
                seen[verdict.code or "ok"] += 1
        assert seen["ok"] > 0 and seen["eis-trace-violation"] > 0, seen


# ---------------------------------------------------------------------------
# action_path: AP.W0-W3


def random_path_family(rng) -> PathOutcomes:
    """Any nonempty set of paths per scenario over a random atom partition,
    with string scenario labels."""
    scenarios = [f"w{i}" for i in range(rng.randint(1, 4))]
    atoms, rest = [], list(scenarios)
    while rest:
        k = rng.randint(1, len(rest))
        atoms.append(rest[:k])
        rest = rest[k:]
    times = TimeAxis.of([0] + rng.sample(range(1, 5), rng.randint(0, 3)))
    actions = ["a", "b", "c"][: rng.randint(1, 3)]
    full = list(itertools.product(actions, repeat=len(times.points)))
    paths = [(w, f) for w in scenarios for f in rng.sample(full, rng.randint(1, min(len(full), 6)))]
    return PathOutcomes.of(times, ActionSpace.of(actions), ScenarioSpace.of(scenarios, atoms), paths)


class TestCheckApw:
    def test_matches_enumeration(self, rng):
        seen = Counter()
        for _ in range(300):
            po = random_path_family(rng)
            got = check_apw(po)
            assert got == brute_check_apw(po)
            seen.update(k for k, v in got.items if not v.ok)
        assert {"W0", "W1", "W3"} <= set(seen)


def random_window_spec(rng, po) -> WindowChoiceSpec:
    """A window at a random time: some realized histories, sometimes an
    unrealized one and a wrong-length one, and random action sets."""
    points = po.time.points
    k = rng.randrange(len(points))
    actions = canon_sorted(po.space.actions)
    histories = [h for h in canon_sorted(po.index.realized[k]) if rng.random() < 0.7]
    if rng.random() < 0.3:
        histories.append(tuple(rng.choice(actions) for _ in range(k)))
    if rng.random() < 0.3:
        length = rng.choice([n for n in range(len(points) + 1) if n != k])
        histories.append(tuple(rng.choice(actions) for _ in range(length)))
    per_scenario = {
        w: {a for a in actions if rng.random() < 0.6} for w in canon_sorted(po.scenarios.scenarios)
    }
    return WindowChoiceSpec.of(points[k], histories, per_scenario)


class TestWindowChoice:
    def test_matches_canonical_scans(self, rng):
        seen = Counter()
        for _ in range(400):
            po = random_path_outcomes(rng)
            spec = random_window_spec(rng, po)
            got = outcome(window_choice, po, spec)
            assert got == outcome(brute_window_choice, po, spec)
            k = po.time.index(spec.t)
            wrong_length = any(len(h) != k for h in spec.histories)
            if got[0] == "error":
                seen["wrong-length"] += 1
            else:
                seen.update(name for name, v in got[1].verdicts.items if not v.ok)
                # a failing history sorts before the wrong-length one
                seen["C2 before wrong-length"] += wrong_length
        assert min(seen[key] for key in ("C1", "C2", "wrong-length", "C2 before wrong-length")) > 0, seen


# ---------------------------------------------------------------------------
# guard: a passing check makes no canonical-order call


def test_passing_checks_never_sort(monkeypatch, sdf_pool):
    pos = []
    for draw in range(150):
        po = random_path_outcomes(random.Random(draw))
        if check_apw(po).ok:
            pos.append(PathOutcomes(po.time, po.space, po.scenarios, po.paths))
    instances = [fresh_copy(s) for s in sdf_pool]
    trees = [s.maxima <= s.move_nodes and check_ttree_theorem(fresh_copy(s)).ok for s in sdf_pool]
    # the finest information structure: the ambient trace on every domain
    finest = [
        sigma_info.Eis.of({m: SubSigma.ambient_trace(s.space, m.domain) for m in s.random_moves})
        for s in instances
    ]
    # documents as the benchmark's corpus writes them: a passing parse sorts nothing
    docs = [corpus_doc(draw) for draw in range(150)]
    calls = Counter()
    for module in (_canon, order_core, set_forest, sdf, action_path, sigma_info, choice, cli):
        for fn_name in ("canon_key", "canon_sorted"):
            fn = getattr(module, fn_name, None)
            if fn is None:
                continue

            def counting(*args, _fn=fn, _name=fn_name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, fn_name, counting)
    for s, tree, e in zip(instances, trees, finest):
        assert sdf.Sdf.of(s.forest, s.space, s.projection, s.random_moves) == s
        assert verify_own_representation(s.forest).ok
        assert sigma_info.verify_eis(s, e).ok
        assert check_evaluation_bijection(s).ok
        assert all(f is None for _, f in _axioms_3a_to_3d(s, tuple(s.random_moves)))
        fibres(s)
        if tree:
            assert check_ttree_theorem(s).ok
    for po in pos:
        assert check_apw(po).ok
    for text in docs:
        cli.parse_instance(text)
    monkeypatch.undo()
    assert calls == Counter()
    assert (len(instances), sum(trees), len(pos)) == (127, 35, 123)


def test_passing_explicit_parse_sorts_nothing_in_the_parser(monkeypatch):
    # the records an explicit document builds (`RandomMove.of`, `Eis.of`,
    # `Rcs.of`) keep their entries in canonical order by construction; the
    # parser's own checks decide on sets and sort only to name a fault
    calls = Counter()
    fn = cli.canon_sorted

    def counting(*args, **kwargs):
        calls["canon_sorted"] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, "canon_sorted", counting)
    cli.parse_instance(EXPLICIT_DOC)
    monkeypatch.undo()
    assert calls == Counter()


def test_a_passing_parse_walks_nothing(monkeypatch):
    # a corpus document is decided section by section on (type, value)
    # pairs and its time axis by neighbour comparisons: the walk that names a
    # fault (`_same_types`) never runs, nothing is sorted, and no time point
    # is hashed
    docs = [corpus_doc(draw) for draw in range(150)]
    calls = Counter()
    spied = [(cli, "_same_types")] + [
        (module, "canon_sorted") for module in (_canon, sdf, action_path, cli)
    ]
    for owner, name in spied + [(Fraction, "__hash__")]:
        fn = getattr(owner, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    for text in docs:
        cli.parse_instance(text)
    monkeypatch.undo()
    assert calls == Counter()


def piece_instances() -> list:
    """Fresh `timing` and `upandout`, and the buildable draws 0-39 of the
    path-outcome generator with one agent whose components are the actions."""
    instances = [
        examples.timing_instance(),
        build_action_path_sdf(examples.upandout_path_outcomes(), max_x_exhaustive=12),
    ]
    for draw in range(40):
        po = random_path_outcomes(random.Random(draw))
        space = ActionSpace.of(po.space.actions, {"i": {a: a for a in po.space.actions}})
        try:
            instances.append(build_action_path_sdf(PathOutcomes(po.time, space, po.scenarios, po.paths)))
        except KernelError:
            pass
    return instances


class TestAgentPieces:
    def test_matches_full_window_choices(self):
        # up front only p_x's pieces are decided; every other piece is
        # decided by `_piece` when read, here for every realized history
        seen = Counter()
        for aps in piece_instances():
            po = aps.po
            for agent in po.space.agents:
                expected = outcome(brute_agent_pieces, aps, agent)
                got = outcome(action_path._agent_pieces, aps, agent)
                if expected[0] == "error":
                    assert got == expected
                    continue
                brute_table, own_family = expected[1]
                assert got[1] == own_family
                own = {m: action_path._own_prefix(po, m, t) for m, t in aps.move_times}
                table = {key[1:] for key in aps._pieces if key[0] == agent}
                assert table == {(m, g, own[m]) for m, g in brute_table}
                seen["own choices"] += sum(len(cs) for _, cs in own_family.entries)
                for (move, g_set), held in brute_table.items():
                    for h in po.index.realized_prefixes(aps.time_of_move(move)):
                        entry = action_path._piece(aps, agent, move, g_set, h)
                        assert entry == held.get(h)
                        seen["no piece" if entry is None else "pass" if entry[1] else "fail"] += 1
                    assert action_path._piece(aps, agent, move, frozenset(), own[move]) is None
        assert seen["own choices"] and seen["pass"] and seen["fail"] and seen["no piece"], seen

    def test_timing_pieces_name_nothing(self, monkeypatch):
        # built from full window choices, the pieces of `timing` format 188
        # C1/C2 witnesses that the table then discards; here every piece is
        # decided, p_x's up front and the others through `_piece`
        aps = examples.timing_instance()
        calls = Counter()
        for module in (_canon, action_path, choice):
            fn = module.fmt

            def counting(*args, _fn=fn, _name=module.__name__, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, "fmt", counting)
        for agent in aps.po.space.agents:
            action_path._agent_pieces(aps, agent)
            for move, t in aps.move_times:
                for g_set in action_path._component_subsets(aps, agent)[1:]:
                    for h in aps.po.index.realized_prefixes(t):
                        action_path._piece(aps, agent, move, g_set, h)
        monkeypatch.undo()
        assert calls == Counter()


def test_passing_window_choices_never_sort(monkeypatch):
    # the window choices the full-window-choice piece builder (the oracle
    # brute_agent_pieces) makes on the builtins and on random factorized
    # draws, the passing ones rebuilt under the guard
    made = []

    def recording(po, spec):
        made.append((po, spec))
        return brute_window_choice(po, spec)

    monkeypatch.setattr(conftest, "brute_window_choice", recording)
    for aps in piece_instances():
        for agent in aps.po.space.agents:
            brute_agent_pieces(aps, agent)
    monkeypatch.undo()
    cases = [(po, spec) for po, spec in made if brute_window_choice(po, spec).ok]
    calls = Counter()
    for module in (_canon, action_path):
        for fn_name in ("canon_key", "canon_sorted"):
            fn = getattr(module, fn_name)

            def counting(*args, _fn=fn, _name=fn_name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, fn_name, counting)
    for po, spec in cases:
        assert window_choice(po, spec).ok
    monkeypatch.undo()
    assert calls == Counter()
    assert (len(made), len(cases)) == (464, 148)


def choice_instances() -> list:
    """Fresh `timing` and `upandout`, and the buildable draws 0-59 of the
    path-outcome generator with one agent whose components are the actions
    and, on every other draw, a second agent with components x and y."""
    instances = [
        examples.timing_instance(),
        build_action_path_sdf(examples.upandout_path_outcomes(), max_x_exhaustive=12),
    ]
    for draw in range(60):
        rng = random.Random(draw)
        po = random_path_outcomes(rng)
        factorization = {"i": {a: a for a in po.space.actions}}
        if draw % 2:
            factorization["j"] = {a: rng.choice("xy") for a in sorted(po.space.actions)}
        space = ActionSpace.of(po.space.actions, factorization)
        try:
            instances.append(build_action_path_sdf(PathOutcomes(po.time, space, po.scenarios, po.paths)))
        except KernelError:
            pass
    return instances


def _choice_result(fn, *args):
    """The outcomes fn gives, or the type, code, witness and text of the
    kernel error it raises."""
    try:
        return ("value", fn(*args))
    except KernelError as e:
        return ("error", type(e), e.code, e.witness, str(e))


def _literal_choice(po, t, histories, agent, g):
    """The decision `_choice_outcomes` makes, by the literal window choice."""
    wc = action_path.agent_choice(po, t, histories, agent, g)
    if not wc.ok:
        raise errors.InputError(
            f"c(A_<t, i, g) fails C0-C2: {wc.verdicts.describe()}",
            code="precondition-violation",
        )
    return wc.outcomes


class TestAgentChoiceTable:
    def test_matches_the_literal_agent_choice(self):
        # every agent and time; the realized histories, the own prefixes, random
        # subsets and sets holding an unrealized or a wrong-length history; every
        # total map g (a random 40 where there are more) plus one off the
        # components, and random partial maps
        rng = random.Random(11)
        seen = Counter()
        for aps in choice_instances():
            po = aps.po
            scenarios = canon_sorted(po.scenarios.scenarios)
            own = {}
            for move, t in aps.move_times:
                own.setdefault(t, set()).add(action_path._own_prefix(po, move, t))
            for agent in po.space.agents:
                components = canon_sorted(po.space.components(agent))
                maps = [
                    dict(zip(scenarios, values))
                    for values in itertools.product(components, repeat=len(scenarios))
                ]
                if len(maps) > 40:
                    maps = rng.sample(maps, 40)
                maps.append(dict.fromkeys(scenarios, "off"))
                for _ in range(4):
                    domain = rng.sample(scenarios, rng.randrange(len(scenarios)))
                    maps.append({w: rng.choice(components) for w in domain})
                for k, t in enumerate(po.time.points):
                    realized = canon_sorted(po.index.realized[k])
                    history_sets = [realized, *([h] for h in own.get(t, ()))]
                    history_sets += [
                        rng.sample(realized, rng.randint(1, len(realized))) for _ in range(3)
                    ]
                    unrealized = tuple(rng.choice(canon_sorted(po.space.actions)) for _ in range(k))
                    history_sets.append(realized[:1] + [unrealized])
                    history_sets.append(realized[:1] + [realized[0] + ("a",)])
                    for histories in history_sets:
                        for g in maps:
                            expected = _choice_result(_literal_choice, po, t, histories, agent, g)
                            got = _choice_result(action_path._choice_outcomes, aps, agent, t, histories, g)
                            assert got == expected, (agent, t, histories, g)
                            seen["pass" if expected[0] == "value" else expected[2]] += 1
                            if expected[0] == "error" and expected[2] == "precondition-violation":
                                wc = action_path.agent_choice(po, t, histories, agent, g)
                                seen.update(name for name, v in wc.verdicts.items if not v.ok)
        assert all(seen[key] for key in ("pass", "input-error", "C0", "C1", "C2")), seen

    def test_an_unknown_agent_or_no_factorization_takes_the_literal_path(self):
        bare = build_action_path_sdf(
            product_outcomes(ScenarioSpace.discrete([1, 2]), TimeAxis.of([0, 1]), ["a", "b"])
        )
        for aps, agent in ((examples.timing_instance(), "nobody"), (bare, "i")):
            po = aps.po
            g = dict.fromkeys(po.scenarios.scenarios, "a")
            histories = po.index.realized[1]
            expected = _choice_result(_literal_choice, po, po.time.points[1], histories, agent, g)
            assert expected[:3] == ("error", errors.InputError, "no-factorization")
            got = _choice_result(action_path._choice_outcomes, aps, agent, po.time.points[1], histories, g)
            assert got == expected

    def test_a_skipped_row_renders_nothing(self, monkeypatch):
        # thm4-11 on upandout skips the rows whose agent choice fails C0-C2
        # without building a window choice or naming a witness; reading an
        # error's text renders it as the literal agent choice names it
        calls = Counter()
        spied = [(action_path, "window_choice"), (action_path, "fmt"), (Verdict, "describe")]
        for owner, name in spied:
            fn = getattr(owner, name)

            def counting(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        [thm] = cli.run(cli.builtin_doc("upandout"), ["thm4-11"], max_x=12).records
        assert thm.status == "ok" and thm.data["skipped"] > 0
        assert calls == Counter()
        monkeypatch.undo()
        aps = build_action_path_sdf(examples.upandout_path_outcomes(), max_x_exhaustive=12)
        skipped = 0
        for agent in aps.po.space.agents:
            for t, _, histories, g, case in action_path.sweep_rows(aps, agent):
                if isinstance(case, KernelError):
                    expected = _choice_result(_literal_choice, aps.po, t, histories, agent, g)
                    assert ("error", type(case), case.code, case.witness, str(case)) == expected
                    assert str(case) == expected[4]  # read again: the same text
                    skipped += 1
        assert skipped > 0


def test_split_partitions_each_group_by_component():
    # every agent, position k and realized history h: the agent's split and
    # the split by action each partition h's groups into parts of one
    # component, and a part by action is the group one action further on
    seen = Counter()
    for aps in choice_instances():
        po = aps.po
        groups = po.index.groups
        for agent in po.space.agents:
            projection = po.space._table(agent)[0]
            identity = {a: a for a in po.space.actions}
            for k in range(len(po.time.points)):
                for h in po.index.realized[k]:
                    by_action = action_path._split(po.index.groups_of(h), k, identity)
                    by_agent = action_path._agent_split(aps, agent, k, h)
                    assert [(w, group) for w, group, _ in by_agent] == [
                        (w, group) for w, group, _ in by_action
                    ] == po.index.groups_of(h)
                    for split, component in ((by_agent, projection.get), (by_action, lambda a: a)):
                        for w, group, parts in split:
                            assert frozenset().union(*parts.values()) == group
                            assert sum(map(len, parts.values())) == len(group)
                            for c, part in parts.items():
                                assert {component(f[k]) for _, f in part} == {c}
                    for w, _, parts in by_action:
                        assert parts == {a: groups[(w, h + (a,))] for a in parts}
                    seen["split"] += 1
                    seen["merged"] += any(
                        len(a) < len(b) for (_, _, a), (_, _, b) in zip(by_agent, by_action)
                    )
    assert seen["split"] and seen["merged"], seen
