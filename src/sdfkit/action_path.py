"""Action-path stochastic decision forests.

Outcomes are pairs (scenario, path) with the path a map from a finite set of
exact rational time points into a finite action set. The node at time t
collects the outcomes sharing the scenario and the path strictly before t;
choices at t then constrain the action taken at t. Time points are
`fractions.Fraction`s throughout; no floats enter the order logic.

The AP.W* assumptions on outcome sets and the AP.C* assumptions on window
choices are all realised as checker operations.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import lt

from . import choice as choice_mod
from ._canon import canon_key, canon_sorted, fmt
from ._record import cached_property, record
from .errors import InputError, KernelError, StructureError, Work
from .sdf import MAX_X_EXHAUSTIVE, RandomMove, ScenarioSpace, Sdf, SubSigma, verify_sdf
from .set_forest import SetForest
from .sigma_info import Eis
from .verdict import MultiVerdict, Verdict


def as_time(value) -> Fraction:
    # a Fraction is kept, not rebuilt; its sign is its numerator's
    t = value if type(value) is Fraction else Fraction(value)
    if t.numerator < 0:
        raise InputError(f"time points must be nonnegative rationals: {value!r}")
    return t


def _increasing(points) -> bool:
    """Each point below the next: one comparison per neighbour pair, with no
    Fraction hashed or sorted."""
    return all(map(lt, points, points[1:]))


@record(frozen=True)
class TimeAxis:
    points: tuple  # strictly increasing Fractions, containing 0

    def __post_init__(self):
        if 0 not in self.points:
            raise StructureError("time axis must contain 0")
        if not _increasing(self.points):
            raise StructureError("time points must be strictly increasing")

    @classmethod
    def of(cls, points) -> "TimeAxis":
        # an increasing input is kept; only another is deduplicated and sorted
        points = tuple(map(as_time, points))
        return cls(points if _increasing(points) else tuple(sorted(set(points))))

    @cached_property
    def _positions(self) -> dict:
        """point ↦ its position on the axis."""
        return {p: i for i, p in enumerate(self.points)}

    def index(self, t) -> int:
        """The position of t on the axis. A number equal to a point hashes
        like it, so the table answers it; a miss (a string, an unhashable or
        a time off the axis) takes the scan, which converts t and raises."""
        try:
            return self._positions[t]
        except (KeyError, TypeError):
            pass
        t = as_time(t)
        try:
            return self.points.index(t)
        except ValueError:
            raise InputError(f"time {t} not on the axis", witness=t) from None

    def canon_key(self):
        return ("time", canon_key(self.points))


def _no_projection(agent) -> InputError:
    return InputError(f"no projection for agent {agent!r}", code="no-factorization")


@record(frozen=True)
class ActionSpace:
    actions: frozenset
    agents: tuple | None = None
    projections: tuple | None = None  # ((agent, ((action, component), ...)), ...)

    @classmethod
    def of(cls, actions, factorization=None) -> "ActionSpace":
        actions = frozenset(actions)
        if not actions:
            raise StructureError("action space must be nonempty")
        if factorization is None:
            return cls(actions)
        agents = tuple(sorted(factorization, key=canon_key))
        projections = []
        for agent in agents:
            table = factorization[agent]
            if frozenset(table) != actions:
                raise InputError(
                    f"projection for agent {agent!r} not total on the actions"
                )
            projections.append(
                (agent, tuple(sorted(table.items(), key=lambda kv: canon_key(kv[0]))))
            )
        return cls(actions, agents, tuple(projections))

    @cached_property
    def _tables(self) -> dict:
        """agent ↦ ({action: component}, the agent's components)."""
        return {
            agent: (dict(table), frozenset(comp for _, comp in table))
            for agent, table in self.projections or ()
        }

    def _table(self, agent) -> tuple:
        try:
            return self._tables[agent]
        except (KeyError, TypeError):
            raise _no_projection(agent) from None

    def project(self, agent, action):
        try:
            return self._table(agent)[0][action]
        except (KeyError, TypeError):
            raise _no_projection(agent) from None

    def components(self, agent) -> frozenset:
        return self._table(agent)[1]

    def verify_w4(self) -> Verdict:
        """The action set factors bijectively as the product of agent components."""
        if self.agents is None:
            raise InputError("no factorization supplied", code="no-factorization")
        profile = {
            a: tuple(self.project(agent, a) for agent in self.agents)
            for a in self.actions
        }
        if len(set(profile.values())) != len(self.actions):
            dup = next(
                a
                for a in canon_sorted(self.actions)
                if sum(1 for b in self.actions if profile[b] == profile[a]) > 1
            )
            return Verdict.failed(
                "apw4-not-injective", f"action {fmt(dup)} shares its component profile"
            )
        full = set(
            itertools.product(*(canon_sorted(self.components(a)) for a in self.agents))
        )
        if set(profile.values()) != full:
            return Verdict.failed(
                "apw4-not-surjective", "component profiles miss part of the product"
            )
        return Verdict.passed()

    def canon_key(self):
        return (
            "actions",
            canon_key(self.actions),
            canon_key(self.agents or ()),
            canon_key(self.projections or ()),
        )


@record(frozen=True)
class PathOutcomes:
    time: TimeAxis
    space: ActionSpace
    scenarios: ScenarioSpace
    paths: frozenset  # of (scenario, path-tuple)

    @classmethod
    def of(cls, time, space, scenarios, paths) -> "PathOutcomes":
        paths = frozenset([(w, tuple(f)) for w, f in paths])
        n = len(time.points)
        # decided on sets; a fault is named by the first faulty path in
        # canonical order, so a passing parse sorts nothing
        used = {w for w, _ in paths}
        if not (
            used <= scenarios.scenarios
            and {len(f) for _, f in paths} <= {n}
            and {a for _, f in paths for a in f} <= space.actions
        ):
            for w, f in canon_sorted(paths):
                if w not in scenarios.scenarios:
                    raise InputError(f"path for unknown scenario {w!r}", witness=w)
                if len(f) != n:
                    raise InputError(
                        f"path {fmt(f)} not indexed by the {n} time points", witness=f
                    )
                for a in f:
                    if a not in space.actions:
                        raise InputError(f"unknown action {a!r} in a path", witness=a)
        bare = scenarios.scenarios - used
        if bare:
            w = min(bare, key=canon_key)
            raise StructureError(f"scenario {fmt(w)} admits no outcome", witness=w)
        return cls(time, space, scenarios, paths)

    def canon_key(self):
        return (
            "path-outcomes",
            self.time.canon_key(),
            self.space.canon_key(),
            self.scenarios.canon_key(),
            canon_key(self.paths),
        )

    @cached_property
    def index(self) -> "_PathIndex":
        """Outcome groups and realized prefixes, built on first use."""
        return _PathIndex(self)


class _PathIndex:
    """The outcome groups of a path-outcome set and the tables read off them.

    `groups` maps (ω, p) to the outcomes of ω whose path starts with p, and
    `realized` maps i to the prefixes of length i of some path. In the same
    pass, `d_sets` maps each prefix p with D(p) ≠ ∅ to D(p), the scenarios
    whose group at p has at least two outcomes, and `stuck` lists the (ω, p)
    with |p| ≤ |T| − 2 whose group has at least two outcomes that all take
    one action at position |p|: W1 fails on exactly the paths through them.
    """

    def __init__(self, po: PathOutcomes):
        self.time = po.time
        self.scenarios = po.scenarios.scenarios
        self.points = po.time.points
        n = len(self.points)
        groups: dict = {}
        realized: dict = {i: set() for i in range(n + 1)}
        for w, f in po.paths:
            for i in range(n + 1):
                p = f[:i]
                realized[i].add(p)
                groups.setdefault((w, p), set()).add((w, f))
        self.realized = {k: frozenset(v) for k, v in realized.items()}
        self.groups: dict = {}
        self.stuck: list = []
        d_sets: dict = {}
        for key, outcomes in groups.items():
            g = self.groups[key] = frozenset(outcomes)
            if len(g) < 2:
                continue
            w, p = key
            d_sets.setdefault(p, set()).add(w)
            k = len(p)
            if k <= n - 2 and len({f[k] for _, f in g}) == 1:
                self.stuck.append(key)
        self.d_sets = {p: frozenset(ws) for p, ws in d_sets.items()}

    def group(self, scenario, prefix) -> frozenset:
        return self.groups.get((scenario, tuple(prefix)), frozenset())

    def groups_of(self, prefix) -> list:
        """(scenario, group) for every scenario whose group at `prefix` is nonempty."""
        groups = self.groups
        return [(w, g) for w in self.scenarios if (g := groups.get((w, prefix)))]

    def d_set(self, prefix) -> frozenset:
        """D(p): the scenarios whose group at p has at least two outcomes."""
        return self.d_sets.get(tuple(prefix), frozenset())

    def realized_prefixes(self, t) -> frozenset:
        return self.realized[self.time.index(t)]


def prefix_of(po: PathOutcomes, f, t) -> tuple:
    """The restriction of a path to the time points strictly before t."""
    return tuple(f)[: po.time.index(t)]


def node_at(po: PathOutcomes, t, w) -> frozenset:
    """x_t(w): outcomes sharing w's scenario and path strictly before t."""
    scenario, f = w
    if (scenario, tuple(f)) not in po.paths:
        raise InputError(f"unknown outcome {fmt(w)}", witness=w)
    return po.index.group(scenario, prefix_of(po, f, t))


def move_event(po: PathOutcomes, t, f) -> frozenset:
    """D_{t,f}: scenarios where the node at (t, f) has at least two outcomes.

    Requires the result to be an event of the scenario space (AP.W0); raises
    apw0-violation otherwise. `f` may be any path in the ambient path space.
    """
    d = po.index.d_set(prefix_of(po, f, t))
    if not po.scenarios.is_event(d):
        raise StructureError(
            f"D_(t={t}, f={fmt(tuple(f))}) = {fmt(d)} is not an event",
            witness=d,
            code="apw0-violation",
        )
    return d


def check_apw(po: PathOutcomes) -> MultiVerdict:
    """Verdicts for assumptions W0-W3 (and W4 when a factorization is present).

    W0 and W3 range over A^i, W2 over A^|T| and all time subsets S, yet only
    the prefixes with D ≠ ∅, the keys of the index's `d_sets`, can decide W0
    and W3. Every other prefix, realized or not, has D = ∅: an event that
    meets no other D, failing neither W0 nor W3. Those prefixes in canonical
    order keep the order of A^i, hence the same first failure. For W2 with S nonempty, any outcome in the nonempty
    group of f̃[:max S] agrees with f̃ at every i ∈ S; with S = ∅ the scenario
    just needs an outcome (`PathOutcomes.of` ensures one), and the witness is
    the first path of A^|T|. No time subset is enumerated, so no cap bounds
    |T|.
    """
    idx = po.index
    points = po.time.points
    d_sets, empty = idx.d_sets, frozenset()
    items = []

    # Each assumption is decided on the unordered prefixes and paths; a
    # failure is then named by its canonically first witness.
    w0 = Verdict.passed()
    bad = [p for p, d in d_sets.items() if not po.scenarios.is_event(d)]
    if bad:
        p = min(bad, key=lambda p: (len(p), canon_key(p)))
        w0 = Verdict.failed(
            "apw0",
            f"D_(t={points[len(p)]}, prefix={fmt(p)}) = {fmt(d_sets[p])} is not an event",
        )
    items.append(("W0", w0))

    # The nodes x_t along a path shrink as t grows, so two of them coincide
    # iff two consecutive ones do, and x at positions i and i + 1 coincide
    # on a non-singleton iff the group at f[:i] is stuck. The first
    # coinciding pair (i, j) in lexicographic order is (i, i + 1) for the
    # least such i on the canonically first path through a stuck group.
    w1 = Verdict.passed()
    if idx.stuck:
        groups = idx.groups
        w, f = min((path for key in idx.stuck for path in groups[key]), key=canon_key)
        i = min(len(p) for v, p in idx.stuck if v == w and f[: len(p)] == p)
        w1 = Verdict.failed(
            "apw1",
            f"x at t={points[i]} and t={points[i + 1]} coincide on the "
            f"non-singleton {fmt(groups[(w, f[:i])])}",
        )
    items.append(("W1", w1))

    w2 = Verdict.passed("mode: exhaustive")
    bare = [w for w in po.scenarios.scenarios if not idx.group(w, ())]
    if bare:
        first = tuple(canon_sorted(po.space.actions)[:1]) * len(points)
        w2 = Verdict.failed(
            "apw2",
            f"scenario {fmt(min(bare, key=canon_key))}, path {fmt(first)}, times (): "
            "locally consistent prefix extends to no outcome",
        )
    items.append(("W2", w2))

    def identifiable(p, q, i):
        dp, dq = d_sets[p], d_sets[q]
        if dp & dq:
            return False
        return not any(
            (d_sets.get(p[:j], empty) & d_sets.get(q[:j], empty)) and p[:j] != q[:j]
            for j in range(i + 1)
        )

    live: dict = {}  # i ↦ the prefixes of length i with D ≠ ∅
    for p in d_sets:
        live.setdefault(len(p), []).append(p)
    w3 = Verdict.passed()
    for i in sorted(live):
        pool = live[i]
        if not any(identifiable(p, q, i) for p, q in itertools.combinations(pool, 2)):
            continue
        p, q = next(
            pq for pq in itertools.combinations(canon_sorted(pool), 2) if identifiable(*pq, i)
        )
        w3 = Verdict.failed(
            "apw3",
            f"t={points[i]}: prefixes {fmt(p)} on {fmt(d_sets[p])} and {fmt(q)} on "
            f"{fmt(d_sets[q])} could be identified",
        )
        break
    items.append(("W3", w3))

    if po.space.agents is not None:
        items.append(("W4", po.space.verify_w4()))

    return MultiVerdict(tuple(items))


@record(frozen=True)
class ActionPathSdf:
    """An SDF built from path outcomes, together with the move-time map."""

    po: PathOutcomes
    sdf: Sdf
    move_times: tuple  # ((RandomMove, Fraction), ...)

    @cached_property
    def _families(self) -> dict:
        """`_agent_pieces` results by agent: the own-prefix Rcs."""
        return {}

    @cached_property
    def _pieces(self) -> dict:
        """`_piece` results by (agent, move, G, h): (piece, C0-C2 ok), or
        None for an empty piece. Each is decided when it is first read."""
        return {}

    @cached_property
    def _splits(self) -> dict:
        """The agent's `_split` of h's groups, by (agent, position k, h)."""
        return {}

    @cached_property
    def _subsets(self) -> dict:
        """`_component_subsets` results by agent."""
        return {}

    @cached_property
    def _times(self) -> dict:
        """move ↦ (its time t, the position of t on the axis); reversed, so a
        repeated move keeps its first time."""
        index = self.po.time.index
        return {m: (t, index(t)) for m, t in reversed(self.move_times)}

    def _time_at(self, m: RandomMove) -> tuple:
        """(t, position of t) for the move m."""
        try:
            return self._times[m]
        except (KeyError, TypeError):
            raise InputError(f"unknown random move {m.fmt()}") from None

    def time_of_move(self, m: RandomMove) -> Fraction:
        return self._time_at(m)[0]

    def time_map(self) -> dict:
        return dict(self.move_times)

    def canon_key(self):
        return ("aps", self.po.canon_key(), self.sdf.canon_key())


def build_action_path_sdf(
    po: PathOutcomes, *, max_x_exhaustive: int = MAX_X_EXHAUSTIVE
) -> ActionPathSdf:
    """Construct the SDF {x_t(w)} ∪ {{w}} with the prefix sections as random moves.

    Fails with assumption-failure when W0-W3 do not all hold, and re-verifies
    the constructed instance against the SDF axioms instead of trusting the
    construction.
    """
    apw = check_apw(po)
    return _construct_action_path_sdf(po, apw, max_x_exhaustive=max_x_exhaustive)[0]


def _construct_action_path_sdf(
    po: PathOutcomes, apw: MultiVerdict, *, max_x_exhaustive: int
) -> tuple:
    """`build_action_path_sdf` after `check_apw`: the instance built from `po`
    given its W-verdicts `apw`, and the `verify_sdf` verdict it passed."""
    failures = [(k, v) for k, v in apw.items if k in ("W0", "W1", "W2", "W3") and not v.ok]
    if failures:
        raise StructureError(
            "outcome set violates "
            + ", ".join(f"AP.{k} ({v.witness})" for k, v in failures),
            witness=apw,
            code="assumption-failure",
        )
    # The nodes are the groups, each projected to its scenario; each prefix
    # with D ≠ ∅ makes the move at the time after it. W1 gives each move one
    # time. Two prefixes of one length have disjoint groups, so they make
    # different moves. If prefixes p and p' with |p| < |p'| made one move,
    # then for ω in its domain the groups at (ω, p) and (ω, p') would be
    # equal. p' extends p, so the group at p's one-action extension toward
    # p' lies between them and equals both: the two or more outcomes of the
    # group at p all take one action at position |p|. That group is stuck,
    # as |p| < |p'| ≤ |T| − 1 (a full path's group is one outcome), and W1
    # would have failed.
    groups = po.index.groups
    points = po.time.points
    projection = {g: w for (w, _), g in groups.items()}
    move_times = {
        RandomMove.of({w: groups[(w, p)] for w in d}): points[len(p)]
        for p, d in po.index.d_sets.items()
    }
    forest = SetForest.of(frozenset(po.paths), projection.keys())
    s = Sdf.of(forest, po.scenarios, projection, frozenset(move_times))
    verdict = verify_sdf(s, max_x_exhaustive=max_x_exhaustive)
    if not verdict.ok:
        raise StructureError(
            f"constructed instance fails verification: {verdict.describe()}",
            witness=verdict,
            code="construction-failed",
        )
    move_list = tuple((m, move_times[m]) for m in s.sorted_moves)
    return ActionPathSdf(po, s, move_list), verdict


def times_of_node(po: PathOutcomes, x) -> frozenset:
    """T_x = {t | ∃w ∈ x : x = x_t(w)}, computed extensionally."""
    x = frozenset(x)
    out = set()
    for t in po.time.points:
        if any(node_at(po, t, w) == x for w in x):
            out.add(t)
    return frozenset(out)


def time_of(aps: ActionPathSdf, x) -> Fraction:
    """The unique time of a move node (raises not-a-move on terminal nodes)."""
    x = frozenset(x)
    if x not in aps.sdf.forest.nodes:
        raise InputError(f"unknown node {fmt(x)}", witness=x)
    if len(x) < 2:
        raise InputError(f"node {fmt(x)} is terminal", witness=x, code="not-a-move")
    times = times_of_node(aps.po, x)
    if len(times) != 1:
        raise StructureError(
            f"move {fmt(x)} has times {fmt(times)}; unique-time property violated",
            witness=x,
        )
    return next(iter(times))


@record(frozen=True)
class WindowChoiceSpec:
    """A time point, a set of admissible histories, and per-scenario action sets."""

    t: Fraction
    histories: frozenset  # of prefix tuples over the points before t
    per_scenario: tuple  # ((scenario, frozenset[action]), ...)

    @classmethod
    def of(cls, t, histories, per_scenario) -> "WindowChoiceSpec":
        return cls(
            as_time(t),
            frozenset(tuple(h) for h in histories),
            tuple(
                (w, frozenset(acts))
                for w, acts in sorted(per_scenario.items(), key=lambda kv: canon_key(kv[0]))
            ),
        )

    def actions_for(self, scenario) -> frozenset:
        for w, acts in self.per_scenario:
            if w == scenario:
                return acts
        return frozenset()


@record(frozen=True)
class WindowChoice:
    spec: WindowChoiceSpec
    outcomes: frozenset
    verdicts: MultiVerdict

    @property
    def ok(self) -> bool:
        return self.verdicts.ok


def _split(groups, k: int, projection) -> list:
    """The groups (w, group) of one history, each split by projection[a] of
    the action a at position k: (w, group, {component: part}) per group."""
    split = []
    for w, group in groups:
        parts: dict = {}
        for o in group:
            parts.setdefault(projection[o[1][k]], []).append(o)
        split.append((w, group, {c: frozenset(p) for c, p in parts.items()}))
    return split


def _agent_split(aps: ActionPathSdf, agent, k: int, h) -> list:
    """The `_split` of h's groups by the agent component of the action at
    position k. Kept on `aps`."""
    key = (agent, k, h)
    split = aps._splits.get(key)
    if split is None:
        projection = aps.po.space._table(agent)[0]
        split = aps._splits[key] = _split(aps.po.index.groups_of(h), k, projection)
    return split


def _c0_c2(splits: dict, chosen: dict) -> tuple:
    """C0-C2 for the choice that takes, in each history h's group of
    scenario w, the parts of `splits[h]` for the components chosen[w] (no
    entry: none).

    Returns (outcomes, stuck, bad): the union of the chosen parts, so C0
    holds iff it is nonempty; the groups whose every part is chosen, so C1
    fails iff one is; and the histories whose piece meets some, but not
    all, of their groups of two or more outcomes, so C2 fails iff one is.
    Nothing is sorted or named.
    """
    outcomes: set = set()
    stuck = []
    bad = []
    for h, split in splits.items():
        meets = d = 0
        for w, group, parts in split:
            n = 0
            for c in chosen.get(w, ()):
                part = parts.get(c)
                if part:
                    outcomes |= part
                    n += len(part)
            if n == len(group):
                stuck.append(group)
            if len(group) >= 2:
                d += 1
                meets += n > 0
        if 0 < meets < d:
            bad.append(h)
    return outcomes, stuck, bad


def window_choice(po: PathOutcomes, spec: WindowChoiceSpec) -> WindowChoice:
    """c(A_<t, A_t) plus the C0/C1/C2 verdicts.

    C2 quantifies over the admissible histories only; the node at t and the
    move event depend on nothing later. Every outcome of a history h lies in
    a group of h, so the window choice is the disjoint union of the pieces
    of its histories, and C0-C2 are decided by `_c0_c2` on each history's
    groups in the path index, split by action.
    """
    idx = po.index
    k = po.time.index(spec.t)
    chosen = dict(spec.per_scenario)
    by_action = {a: a for a in po.space.actions}
    splits = {h: _split(idx.groups_of(h), k, by_action) for h in spec.histories if len(h) == k}
    outcomes, stuck, bad = _c0_c2(splits, chosen)
    c0 = (
        Verdict.passed()
        if outcomes
        else Verdict.failed("apc0", "the window choice is empty")
    )
    outcomes = frozenset(outcomes)
    # Only the failures are sorted, to name the canonically first witness.
    # As in a scan in canonical order, a wrong-length history raises unless
    # a failing one sorts before it.
    c1 = Verdict.passed()
    if stuck:
        first = min((o for group in stuck for o in group), key=canon_key)
        c1 = Verdict.failed("apc1", f"no alternative to {fmt(first)} inside its node")
    c2 = Verdict.passed()
    bad += [h for h in spec.histories if h not in splits]  # of a wrong length
    if bad:
        h = min(bad, key=canon_key)
        if h not in splits:
            raise InputError(
                f"history {fmt(h)} has length {len(h)}, expected {k}", witness=h
            )
        d = frozenset(w for w, group, _ in splits[h] if len(group) >= 2)
        meets = frozenset(
            w for w, _, parts in splits[h] if w in d and any(c in parts for c in chosen.get(w, ()))
        )
        c2 = Verdict.failed(
            "apc2",
            f"history {fmt(h)}: choice meets the node for {fmt(meets)} "
            f"but the move event is {fmt(d)}",
        )
    return WindowChoice(
        spec, outcomes, MultiVerdict((("C0", c0), ("C1", c1), ("C2", c2)))
    )


def agent_choice(po: PathOutcomes, t, histories, agent, g) -> WindowChoice:
    """c(A_<t, i, g): agent i takes the individual action g(ω) on g's domain.

    The domain of g must be an event; off it the per-scenario action set is
    empty. Routed through the window-choice verdicts.
    """
    if po.space.agents is None:
        raise InputError("outcome set carries no factorization", code="no-factorization")
    if agent not in po.space.agents:
        raise InputError(f"unknown agent {agent!r}", code="no-factorization")
    domain = frozenset(g)
    if not po.scenarios.is_event(domain):
        raise InputError(f"domain {fmt(domain)} of g is not an event", witness=domain)
    per_scenario = _lifted(po, agent, {w: {g[w]} for w in domain})
    return window_choice(po, WindowChoiceSpec.of(t, histories, per_scenario))


def _lifted(po: PathOutcomes, agent, components: dict) -> dict:
    """Per-scenario action sets of an individual choice of `agent`.

    On each scenario w keyed in `components`, the actions whose agent
    projection lies in components[w]; empty on every other scenario.
    """
    projection = po.space._table(agent)[0]
    return {
        w: frozenset(a for a, c in projection.items() if c in components[w])
        if w in components
        else frozenset()
        for w in po.scenarios.scenarios
    }


def _meets_every_node(move: RandomMove, outcomes) -> bool:
    return all(node & outcomes for _, node in move.items())


def _own_prefix(po: PathOutcomes, move: RandomMove, t) -> tuple:
    """p_x: the history before t that every outcome of the move x at t shares."""
    _, f = next(iter(move.graph[0][1]))
    return prefix_of(po, f, t)


def _agent_pieces(aps: ActionPathSdf, agent) -> choice_mod.Rcs:
    """The agent's own-prefix family of reference choices, read from the
    per-history pieces they are made of.

    The agent's reference choices at a random move x at time t are the
    window choices of a nonempty set H of realized histories and a nonempty
    set G of agent components (lifted through the projection on x's domain,
    empty off it) that pass C0-C2 and meet every node of x. The piece of h
    is the window choice for the single history h, and the window choice of
    (H, G) is the disjoint union of the pieces of H. The own-prefix family
    is, per move, the piece_G(p_x) of each nonempty G whose piece passes and
    meets every node of x, with p_x the history every outcome of x shares.
    Each piece is read through `_piece`, so only p_x's pieces are decided
    here; any other history's piece is decided when it is first read.

    (a) The reference choices for G are exactly the unions of passing
    pieces that contain piece_G(p_x), when that piece meets every node. C1
    and C2 test one history at a time and C0 is nonemptiness, so a union
    passes C0-C2 iff it is nonempty and each of its pieces passes. Every
    node of x lies under p_x, so the union meets every node iff it holds
    piece_G(p_x) and that piece meets every node.

    (b) x⁻¹(P(c ∩ c')) depends on a reference choice c' only through its
    piece_G(p_x). Every x(ω) lies under p_x, so x(ω) ∩ c' = x(ω) ∩
    piece_G(p_x). Whether x(ω) ∈ P(D) depends only on x(ω) ∩ D: it asks for
    x(ω) ⊄ D and a node y ⊊ x(ω) such that every node z with y ⊆ z ⊊ x(ω)
    lies in D, and each such z is a subset of x(ω). So the events over every
    reference choice are those over the own-prefix family, which is what
    `MeasurabilityCase` reads; `check_apc3` decides from the pieces of the
    history sets it tries, and `apc`, which tries {p_x} only, reads no other
    history's piece.

    The own-prefix family is checked to verify as an RCS rather than
    assumed. It is kept on `aps`, so each agent is built once.
    """
    family = aps._families.get(agent)
    if family is not None:
        return family
    per_move: dict = {}
    for move, t in aps.move_times:
        own = _own_prefix(aps.po, move, t)
        found = set()
        for g_set in _component_subsets(aps, agent)[1:]:
            entry = _piece(aps, agent, move, g_set, own)
            if entry and entry[1] and _meets_every_node(move, entry[0]):
                found.add(entry[0])
        per_move[move] = frozenset(choice_mod.Choice.of(aps.sdf, o) for o in found)
    family = choice_mod.Rcs.of(per_move)
    verdict = choice_mod.verify_rcs(aps.sdf, family)
    if not verdict:
        raise StructureError(
            f"agent reference choices fail to verify: {verdict.describe()}"
        )
    aps._families[agent] = family
    return family


def _piece(aps: ActionPathSdf, agent, move: RandomMove, g_set, h) -> tuple | None:
    """(piece, C0-C2 ok) of the realized history h at the move x for the
    agent's component set G, or None when the piece is empty, as it is for
    the empty G. Decided on its first read by `_c0_c2` on the agent's split
    of h's groups, with G chosen on x's domain, and kept on `aps`."""
    if not g_set:
        return None
    key = (agent, move, g_set, h)
    try:
        return aps._pieces[key]
    except KeyError:
        pass
    k = aps._time_at(move)[1]
    split = _agent_split(aps, agent, k, h)
    piece, stuck, bad = _c0_c2({h: split}, dict.fromkeys(move.domain, g_set))
    entry = aps._pieces[key] = (frozenset(piece), not stuck and not bad) if piece else None
    return entry


@record(frozen=True)
class Apc3Result:
    verdict: Verdict
    histories: frozenset | None = None
    generator: frozenset | None = None


def check_apc3(
    aps: ActionPathSdf,
    agent,
    move: RandomMove,
    *,
    choice: WindowChoice | choice_mod.Choice | None = None,
) -> Apc3Result:
    """Find histories A'_<t and an intersection-stable generator for AP.C3.

    The witness pair (H, 𝒢) must cover the realized prefixes `required` of
    the given choice (the move's own prefix p_x when none is given) and send
    every member G of 𝒢 to a window choice that is empty or lies in the
    agent's reference choices at the move. The result is the first hit in
    the order: H = required, H = every realized history, then required ∪ S
    over the nonempty S ⊆ the other realized histories, by size; per H, the
    canonical generator (all proper subsets), then the other families.

    A member G is decided from the pieces of the histories of H, each read
    through `_piece`, so a piece is decided when an H that holds it is first
    tried: the window choice of (H, G) is the disjoint union of G's nonempty
    pieces in H. G passes when H holds none, or when each passes C0-C2 and H
    holds p_x, whose piece meets every node of x. That is the membership
    test, by argument (a) of `_agent_pieces`: such a union is a reference
    choice. Being a union of nodes, it is always a choice. Without a given
    choice only H = {p_x} is tried, so only p_x's pieces are read.

    At most three history sets need a test. By the same argument, if
    (H, 𝒢) is a hit, so is (R, 𝒢) for every R ⊆ H that holds p_x. An H
    without p_x is a hit only if all its window choices are empty, and then
    so are those of required ⊆ H. Hence, when p_x ∈ required, only required
    is tried; otherwise required, the realized histories and
    required ∪ {p_x}, the first set after those two that can hit.

    Per H, a family is a hit when all its members pass; the first hit is the
    one `_first_generator` returns, which spends one unit of a `Work`
    counter per family tried.
    """
    po = aps.po
    if po.space.agents is None:
        raise InputError("outcome set carries no factorization", code="no-factorization")
    t, k = aps._time_at(move)
    own = _own_prefix(po, move, t)
    if choice is not None:
        required = frozenset(f[:k] for _, f in choice.outcomes)
    else:
        required = frozenset([own])
    realized = po.index.realized[k]
    if not required <= realized:
        raise InputError("required prefixes are not realized", witness=required)
    _agent_pieces(aps, agent)  # the own-prefix family verifies, or this raises
    subsets = _component_subsets(aps, agent)
    if own in required:
        history_sets = [required]
    else:
        history_sets = dict.fromkeys([required, realized, required | {own}])
    for histories in history_sets:
        def passes(g_set) -> bool:
            held = {h: e for h in histories if (e := _piece(aps, agent, move, g_set, h))}
            return not held or (
                all(ok for _, ok in held.values())
                and own in held
                and _meets_every_node(move, held[own][0])
            )

        generator = _first_generator(subsets, passes)
        if generator is not None:
            return Apc3Result(
                Verdict.passed(
                    f"A'_<t with {len(histories)} histories, generator of "
                    f"{len(generator)} sets"
                ),
                histories,
                generator,
            )
    return Apc3Result(
        Verdict.failed("apc3-not-found", "no (A'_<t, generator) pair found")
    )


def _component_subsets(aps: ActionPathSdf, agent) -> list:
    """Every subset of the agent's components, by size, then in the order
    of `itertools.combinations` over the canonically sorted components.
    Built once per agent and kept on `aps`."""
    subsets = aps._subsets.get(agent)
    if subsets is None:
        components = canon_sorted(aps.po.space.components(agent))
        subsets = aps._subsets[agent] = [
            frozenset(c)
            for r in range(len(components) + 1)
            for c in itertools.combinations(components, r)
        ]
    return subsets


def _first_generator(subsets: list, passes) -> frozenset | None:
    """The first family of passing component subsets that generates the power
    set: the canonical one (`subsets` but the last, the full set) when all
    its members pass, else the first intersection-stable, point-separating
    family of the passing subsets, ordered by size, then by `subsets` order.
    """
    if all(passes(g) for g in subsets[:-1]):
        return frozenset(subsets[:-1])
    full = subsets[-1]
    passing = [g for g in subsets if passes(g)]
    work = Work("AP.C3 generator search", "families")
    for r in range(len(passing) + 1):
        for family in itertools.combinations(passing, r):
            work.spend()
            family = frozenset(family)
            stable = all(a & b in family for a in family for b in family)
            if stable and len({tuple(x in g for g in family) for x in full}) == len(full):
                return family
    return None


def _choice_outcomes(aps: ActionPathSdf, agent, t, histories, g) -> frozenset:
    """The outcomes of c(A_<t, i, g), or the `precondition-violation` error
    when it fails C0-C2, whose text `agent_choice` renders when it is read.

    A total g with histories of t's length is decided by one `_c0_c2` call
    on the histories' agent splits, choosing g(ω) in scenario ω's groups:
    no window choice is built. Any other input goes through `agent_choice`."""
    po = aps.po
    if agent in (po.space.agents or ()) and g.keys() == po.scenarios.scenarios:
        t = as_time(t)
        histories = frozenset(map(tuple, histories))
        k = po.time.index(t)
        if all(len(h) == k for h in histories):
            splits = {h: _agent_split(aps, agent, k, h) for h in histories}
            outcomes, stuck, bad = _c0_c2(splits, {w: (c,) for w, c in g.items()})
            if outcomes and not stuck and not bad:
                return frozenset(outcomes)
            g = dict(g)
            text = _C0C2Failures(lambda: agent_choice(po, t, histories, agent, g))
            raise InputError(text, code="precondition-violation")
    wc = agent_choice(po, t, histories, agent, g)
    if wc.ok:
        return wc.outcomes
    raise InputError(_C0C2Failures(lambda: wc), code="precondition-violation")


class _C0C2Failures:
    """A `precondition-violation` text: the C0-C2 failures of the window
    choice `choice()`, described each time the text is read."""

    def __init__(self, choice):
        self.choice = choice

    def __str__(self) -> str:
        return f"c(A_<t, i, g) fails C0-C2: {self.choice().verdicts.describe()}"

    __repr__ = __str__


class MeasurabilityCase:
    """Theorem 4.11 for one (agent, t, histories, g): measurability of g
    versus adaptedness of c(A_<t, i, g), per move c is available at.

    `sweep_rows` builds one per distinct case of an agent's row table, and
    `thm4-11` walks it for every structure. Construction decides c by one
    `_c0_c2` call on the agent's splits of its histories
    (`_choice_outcomes`), building no window choice. When c fails C0-C2 it
    raises `precondition-violation`, whose text `agent_choice` renders only
    when it is read. Otherwise it keeps the moves c is available at and,
    per move x, the level sets of g on D_x, the events x⁻¹(P(c ∩ c')) and
    the AP.C3 verdict. By argument (b) of `_agent_pieces`, the events over
    every reference choice c' are those over the own-prefix pieces, so only
    those are taken. `holds_for_every_sigma`, decided on its first read,
    says that both implications hold whatever the σ-algebras at those
    moves, so `verdict(e)`, the case's `thm4-11` item at the EIS e, is
    then passed without reading e. Otherwise `verdict(e)` tests
    σ-containment in e's σ-algebra at each of the moves.

    Forward: measurability of g on D_x implies adaptedness at x. Backward:
    when AP.C3 holds, adaptedness at x implies measurability. The third
    condition, D_x ⊆ D with D the domain of g, holds by construction and is
    not reported: c has no outcome off D, and availability at x puts every
    x(ω), ω ∈ D_x, in P(c). Since x(ω) holds outcomes of scenario ω only, c
    has an outcome of scenario ω, so ω ∈ D.
    """

    def __init__(self, aps: ActionPathSdf, agent, t, histories, g):
        s = aps.sdf
        c = choice_mod.Choice.of(s, _choice_outcomes(aps, agent, t, histories, g))
        own_family = _agent_pieces(aps, agent)
        flags = choice_mod.classify(s, c)
        self.moves = []
        for move in canon_sorted(flags.available_at):
            levels = [
                frozenset(w for w in move.domain if g[w] == value)
                for value in canon_sorted({g[w] for w in move.domain})
            ]
            events = frozenset(
                choice_mod.preimage(
                    s, move, choice_mod.predecessors(s, c.outcomes & piece.outcomes)
                )
                for piece in own_family.for_move(move)
            )
            apc3 = check_apc3(aps, agent, move, choice=c).verdict.ok
            self.moves.append((move, levels, events, apc3))
        self._space = s.space

    @cached_property
    def holds_for_every_sigma(self) -> bool:
        """Whether forward and backward hold at each move x for every
        sub-σ-algebra σ of 𝒜|D_x, so `verdict(e)` passes for every EIS e of
        the instance.

        Forward fails at σ only when σ holds every level set but not every
        event. No σ holds a level set that is not a union of trace atoms.
        Otherwise σ(levels), the level sets' unions, is one of the σ, and
        every σ holding the level sets holds σ(levels), being closed under
        unions: forward holds for every σ iff every event lies in σ(levels).
        Backward fails at σ only when AP.C3 holds and σ holds every event but
        not every level set, so in the same way it holds for every σ iff AP.C3
        fails, some event is not a union of trace atoms, or every level set
        lies in σ(events), the partition of D_x by membership in the events.
        """
        return all(_every_sigma_passes(self._space, *row) for row in self.moves)

    def verdict(self, e: Eis) -> Verdict:
        """The `thm4-11` item at the EIS e: the shared passed verdict, or
        one failure naming the first move where forward fails, then the
        first where backward fails."""
        if self.holds_for_every_sigma:
            return Verdict.passed()
        forward = backward = None
        for move, levels, events, apc3 in self.moves:
            sigma = e.for_move(move)
            measurable = all(map(sigma.contains, levels))
            adapted = all(map(sigma.contains, events))
            if measurable and not adapted and forward is None:
                forward = Verdict.failed(
                    "forward-implication",
                    f"g measurable at {move.fmt()} but the choice is not adapted there",
                )
            if apc3 and adapted and not measurable and backward is None:
                backward = Verdict.failed(
                    "backward-implication",
                    f"choice adapted at {move.fmt()} with AP.C3, but g not measurable",
                )
        failed = [v.describe() for v in (forward, backward) if v is not None]
        return Verdict.failed("thm4-11", "; ".join(failed)) if failed else Verdict.passed()


def _every_sigma_passes(space: ScenarioSpace, move, levels, events, apc3) -> bool:
    """`MeasurabilityCase.holds_for_every_sigma` at one move: every σ that
    holds the level sets holds the events, and with AP.C3 the converse."""
    ambient = SubSigma.ambient_trace(space, move.domain)
    forward = _every_sigma_implies(ambient, levels, events)
    return forward and (not apc3 or _every_sigma_implies(ambient, events, levels))


def _every_sigma_implies(ambient: SubSigma, given, wanted) -> bool:
    """Whether every sub-σ-algebra of `ambient` that holds the sets `given`
    holds the sets `wanted`: true when none holds them, else iff σ(given),
    the partition of the carrier by membership in them, holds `wanted`."""
    if not all(map(ambient.contains, given)):
        return True
    atoms = {ambient.carrier}
    for event in given:
        atoms = {part for a in atoms for part in (a & event, a - event) if part}
    return all(map(SubSigma(ambient.carrier, frozenset(atoms)).contains, wanted))


def sweep_rows(aps: ActionPathSdf, agent) -> list:
    """Theorem 4.11's cases for one agent, as rows (t, label, histories, g,
    case): the moves in order, then the history sets "all" (every realized
    history at t) and "own" (the move's own prefix), then the total maps g
    in canon order. `case` is the `MeasurabilityCase` or the `KernelError`
    building it raised.

    Nothing in a row depends on an information structure, so the table is
    built once per agent and walked for every structure, where only
    `case.verdict(e)` runs. A case depends on (agent, t, histories, g) only,
    so the moves at t share it, as do both labels when their history sets
    are equal. A case reads the agent's own-prefix pieces (see
    `_agent_pieces`), not their unions, so its cost grows with the number
    of realized histories, not with the number of their subsets.
    """
    po = aps.po
    scenarios = canon_sorted(po.scenarios.scenarios)
    components = canon_sorted(po.space.components(agent))
    cases: dict = {}
    rows = []
    for move, t in aps.move_times:
        k = aps._time_at(move)[1]
        own = frozenset([_own_prefix(po, move, t)])
        for label, histories in (("all", po.index.realized[k]), ("own", own)):
            for values in itertools.product(components, repeat=len(scenarios)):
                g = dict(zip(scenarios, values))
                key = (k, histories, values)
                case = cases.get(key)
                if case is None:
                    try:
                        case = MeasurabilityCase(aps, agent, t, histories, g)
                    except KernelError as err:
                        case = err
                    cases[key] = case
                rows.append((t, label, histories, g, case))
    return rows


def product_outcomes(
    scenarios: ScenarioSpace, time: TimeAxis, actions, factorization=None
) -> PathOutcomes:
    """W = Ω × A^T: at every move every action is possible."""
    space = ActionSpace.of(actions, factorization)
    paths = [
        (w, f)
        for w in scenarios.scenarios
        for f in itertools.product(canon_sorted(space.actions), repeat=len(time.points))
    ]
    return PathOutcomes.of(time, space, scenarios, paths)


def timing_outcomes(
    scenarios: ScenarioSpace, time: TimeAxis, agents
) -> PathOutcomes:
    """Stopping problems: actions are 0/1 vectors, paths componentwise decreasing."""
    agents = tuple(agents)
    actions = [tuple(bits) for bits in itertools.product((0, 1), repeat=len(agents))]
    factorization = {
        agent: {a: a[i] for a in actions} for i, agent in enumerate(agents)
    }
    space = ActionSpace.of(actions, factorization)
    n = len(time.points)
    paths = []
    for f in itertools.product(actions, repeat=n):
        if all(
            f[j][i] <= f[j - 1][i]
            for j in range(1, n)
            for i in range(len(agents))
        ):
            paths.extend((w, f) for w in scenarios.scenarios)
    return PathOutcomes.of(time, space, scenarios, paths)


def up_and_out_outcomes(
    scenarios: ScenarioSpace, time: TimeAxis, price, barrier=Fraction(2)
) -> PathOutcomes:
    """Exercise of an up-and-out option against a tabulated price process.

    `price` maps (time, scenario) to an exact rational with price 1 at time 0.
    A path may switch from 1 (hold) to 0 (exercised) at a stopping time t*
    only if the price has stayed below the barrier through t*. The continuity
    arguments of the continuous-time model are replaced by explicit
    next-time-point checks on the table.
    """
    points = time.points
    # in canonical order, so the scenario named is the same under every hash
    # seed; a missing price raises for the same scenario too
    for w in canon_sorted(scenarios.scenarios):
        if Fraction(price[(points[0], w)]) != 1:
            raise InputError(
                f"price at time 0 must be 1 (scenario {fmt(w)})", witness=w
            )
    actions = [0, 1]
    factorization = {"1": {0: 0, 1: 1}}
    space = ActionSpace.of(actions, factorization)
    paths = []
    for w in scenarios.scenarios:
        for stop in list(range(len(points))) + [None]:
            f = tuple(1 if (stop is None or i < stop) else 0 for i in range(len(points)))
            if stop is not None:
                running_max = max(
                    Fraction(price[(points[i], w)]) for i in range(stop + 1)
                )
                if not running_max < barrier:
                    continue
            paths.append((w, f))
    return PathOutcomes.of(time, space, scenarios, paths)
