"""The action-path lookup tables against the scans they replace.

`TimeAxis.index`, `ActionSpace.project` and `components`, `Eis.for_move`,
`Rcs.for_move` and `ActionPathSdf.time_of_move` read tables built on first
use and kept on the value, and `RandomMove` keeps its canonical key. Each
lookup must give what its literal scan in `conftest` gives, or raise the
same error: type, code, text and witness. The path index's D table and
its list of stuck groups must equal their scans, and W1 read off the list
must name the witness that the pairwise W1 oracle names. A value whose
tables are built stays equal to a fresh one, hashes alike, and has the
same repr and canonical key.
"""

from __future__ import annotations

import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import (
    brute_w1,
    oracle_canon_key,
    scan_components,
    scan_d_set,
    scan_eis_for_move,
    scan_project,
    scan_rcs_for_move,
    scan_stuck,
    scan_time_index,
    scan_time_of_move,
)
from sdfkit import examples
from sdfkit._canon import canon_sorted
from sdfkit.action_path import (
    ActionSpace,
    PathOutcomes,
    TimeAxis,
    _agent_pieces,
    build_action_path_sdf,
    check_apw,
)
from sdfkit.choice import Rcs
from sdfkit.gen import random_path_outcomes
from sdfkit.errors import KernelError
from sdfkit.sdf import RandomMove, ScenarioSpace
from sdfkit.sigma_info import Eis, enumerate_eis
from test_action_path import w1_failure_outcomes, w3_failure_outcomes, w3_three_pairs_outcomes

# On an axis, off it, negative, and of every type a caller may hand in.
TIMES = [
    Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(7),
    0, 1, 2, 7,
    "0", "1", "2", "1/2", "1/3", "x",
    True, False,
    -1, Fraction(-1, 2), "-1", Decimal("-1"),
    0.5, 1.0, -0.0, float("nan"), Decimal("0.5"), Decimal(2),
    None, [1],
]
# Agents and actions no builtin has, of several types.
OTHER_AGENTS = ["3", 1, True, 1.0, None, [1], "1 "]
OTHER_ACTIONS = ["z", 5, True, 1.0, (0,), (1, 1, 1), None, [0]]


def result(fn, *args):
    """What fn returns, or the type, code, text and witness of what it raises."""
    try:
        return ("value", fn(*args))
    except Exception as e:  # the scan's error is compared, whatever its type
        return ("error", type(e), getattr(e, "code", None), str(e), getattr(e, "witness", None))


def fresh_instances() -> dict:
    """The four builtins, built anew: none of their tables exists yet."""
    return {
        "simple": build_action_path_sdf(examples.encode_simple()),
        "variant": build_action_path_sdf(examples.encode_variant()),
        "timing": examples.timing_instance(),
        "upandout": build_action_path_sdf(
            examples.upandout_path_outcomes(), max_x_exhaustive=12
        ),
    }


@pytest.fixture(scope="module")
def instances() -> dict:
    return fresh_instances()


def reference_families(aps) -> list:
    """Each agent's own-prefix reference choices, as `_agent_pieces` keeps them."""
    return [_agent_pieces(aps, agent) for agent in aps.po.space.agents or ()]


def probe_moves(instances: dict, aps) -> list:
    """aps's moves, the other builtins' moves, a move restricted to part of
    its domain, and two values that are not moves."""
    moves = [m for other in instances.values() for m in other.sdf.sorted_moves]
    moves += [
        m.restricted(canon_sorted(m.domain)[:1]) for m in aps.sdf.sorted_moves if len(m.domain) > 1
    ]
    return moves + [None, "x"]


def with_repeat(entries: tuple) -> tuple:
    """`entries` led by the second move paired with the first entry's value,
    so a lookup of that move must keep the first of its two entries."""
    if len(entries) < 2:
        return entries
    return ((entries[1][0], entries[0][1]),) + entries


def axes(instances: dict) -> list:
    return [aps.po.time for aps in instances.values()] + [
        TimeAxis.of([0, 1, 2]),
        TimeAxis.of([0, Fraction(1, 3), Fraction(1, 2), 2]),
        TimeAxis.of([0]),
    ]


def test_time_index_matches_the_scan(instances):
    for axis in axes(instances):
        axis.index(0)
        assert "_positions" in vars(axis)
        for t in TIMES + list(axis.points):
            assert result(axis.index, t) == result(scan_time_index, axis, t), (axis, t)


def test_projection_and_components_match_the_scans(instances):
    for aps in instances.values():
        space = aps.po.space
        agents = list(space.agents or ()) + OTHER_AGENTS
        actions = list(space.actions) + OTHER_ACTIONS
        for agent in agents:
            assert result(space.components, agent) == result(scan_components, space, agent), agent
            for action in actions:
                assert result(space.project, agent, action) == result(
                    scan_project, space, agent, action
                ), (agent, action)
        assert "_tables" in vars(space)


def test_eis_for_move_matches_the_scan(instances):
    for aps in instances.values():
        structures = list(enumerate_eis(aps.sdf))
        structures.append(Eis(with_repeat(structures[0].entries)))
        for e in structures:
            for move in probe_moves(instances, aps):
                assert result(e.for_move, move) == result(scan_eis_for_move, e, move), move
            assert "_by_move" in vars(e)


def test_rcs_for_move_matches_the_scan(instances):
    checked = 0
    for aps in instances.values():
        for r in reference_families(aps):
            for family in (r, Rcs(with_repeat(r.entries))):
                for move in probe_moves(instances, aps):
                    assert result(family.for_move, move) == result(
                        scan_rcs_for_move, family, move
                    ), move
                    checked += 1
    assert checked


def test_time_of_move_matches_the_scan(instances):
    for aps in instances.values():
        for move in probe_moves(instances, aps):
            assert result(aps.time_of_move, move) == result(scan_time_of_move, aps, move), move
        assert "_times" in vars(aps)


def w0_failure_outcomes():
    """The document of `test_action_path.TestMoveEvent.test_apw0_violation`:
    D = {1} at the prefix ("a",) is no event of the trivial algebra."""
    paths = [(1, ("a", "a")), (1, ("a", "b")), (2, ("a", "a"))]
    return PathOutcomes.of(
        TimeAxis.of([0, 1]), ActionSpace.of(["a", "b"]), ScenarioSpace.of([1, 2], [[1, 2]]), paths
    )


def test_path_index_tables_match_the_scans(instances):
    docs = [aps.po for aps in instances.values()]
    docs += [w0_failure_outcomes(), w1_failure_outcomes(), w3_failure_outcomes()]
    docs += [w3_three_pairs_outcomes()]
    docs += [random_path_outcomes(random.Random(draw)) for draw in range(200)]
    failing = Counter()
    for po in docs:
        idx = po.index
        prefixes = {f[:i] for _, f in po.paths for i in range(len(po.time.points) + 1)}
        scanned = {p: scan_d_set(po, p) for p in prefixes}
        assert idx.d_sets == {p: d for p, d in scanned.items() if d}
        assert all(idx.d_set(p) == d for p, d in scanned.items())
        assert idx.d_set(("not an action",)) == frozenset()
        assert len(idx.stuck) == len(set(idx.stuck))
        assert set(idx.stuck) == scan_stuck(po)
        apw = check_apw(po)
        assert apw.verdict("W1") == brute_w1(po)
        failing.update(k for k, v in apw.items if not v.ok)
    assert {"W0", "W1", "W3"} <= set(failing), failing


def test_each_move_arises_at_one_time(instances):
    # The build gives each move the time after its prefix without checking
    # that it has only one: W1 rules out two (see
    # `_construct_action_path_sdf`). Scanning every prefix with D ≠ ∅ finds
    # each built move made at exactly the one time the instance keeps.
    built = list(instances.values())
    for draw in range(200):
        try:
            built.append(build_action_path_sdf(random_path_outcomes(random.Random(draw))))
        except KernelError:
            pass
    layered = 0
    for aps in built:
        po = aps.po
        groups = po.index.groups
        times: dict = {}
        for p, d in po.index.d_sets.items():
            move = RandomMove.of({w: groups[(w, p)] for w in d})
            times.setdefault(move, set()).add(po.time.points[len(p)])
        assert times.keys() == aps.sdf.random_moves
        assert all(ts == {aps.time_of_move(m)} for m, ts in times.items())
        layered += len({t for _, t in aps.move_times}) > 1
    # the four builtins and 165 draws; 42 of them have moves at two or more times
    assert (len(built), layered) == (169, 42)


def test_kept_move_key_is_the_definition(instances):
    for aps in instances.values():
        for move in aps.sdf.sorted_moves:
            key = move.canon_key()
            assert key == ("rmove", oracle_canon_key(move.graph))
            assert move.canon_key() is key


def _build_tables(aps) -> list:
    """Build every table of aps and of the values it holds; return the
    values that hold one, with the names of their tables."""
    po = aps.po
    for t in po.time.points:
        po.time.index(t)
    for agent in po.space.agents or ():
        po.space.components(agent)
        for action in po.space.actions:
            po.space.project(agent, action)
    structures = list(enumerate_eis(aps.sdf)[:3])
    families = reference_families(aps)
    for move in aps.sdf.sorted_moves:
        aps.time_of_move(move)
        move.canon_key()
        for family in structures + families:
            family.for_move(move)
    built = [(po.time, "_positions"), (aps, "_times")]
    built += [(po.space, "_tables")] if po.space.agents else []
    built += [(e, "_by_move") for e in structures + families]
    built += [(m, "_key") for m in aps.sdf.sorted_moves]
    return built


def rebuilt(x):
    """A value equal to x, built again from its fields: it holds no table."""
    return type(x)(*(getattr(x, name) for name in type(x).__record_fields__))


def assert_same_value(x, y):
    assert x == y and y == x and not x != y
    assert hash(x) == hash(y)
    assert repr(x) == repr(y)
    assert x.canon_key() == y.canon_key()


@pytest.mark.parametrize("name", ["simple", "variant", "timing", "upandout"])
def test_tables_do_not_leak_into_value_semantics(name):
    built = fresh_instances()[name]
    fresh = fresh_instances()[name]
    kinds = set()
    for x, table in _build_tables(built):
        y = rebuilt(x)
        assert table in vars(x) and table not in vars(y), (type(x), table)
        assert_same_value(x, y)
        kinds.add(type(x).__name__)
    assert kinds >= {"TimeAxis", "Eis", "RandomMove", "ActionPathSdf"}
    if name != "variant":
        assert kinds >= {"ActionSpace", "Rcs"}
    # the whole instance against one built apart, whose tables do not exist yet
    assert not {"_times", "_pieces"} & set(vars(fresh))
    assert "_positions" not in vars(fresh.po.time)
    assert_same_value(built, fresh)
