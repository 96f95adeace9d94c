"""Filtrations and exogenous information structures.

A σ-algebra over a carrier event is a `SubSigma` (defined in `sdf`, next to
the scenario space, and re-exported here). An exogenous information
structure assigns one such algebra per random move, monotone under traces
along ≥_X (the no-forgetting condition, `SubSigma.trace_failure`).
"""

from __future__ import annotations

import heapq
import itertools

from ._canon import canon_key, canon_sorted, fmt
from ._record import record
from .errors import InputError, StructureError, Work
from .order_core import set_partitions
from .sdf import PerMove, RandomMove, ScenarioSpace, Sdf, SubSigma, ge_x
from .verdict import Verdict


class Eis(PerMove):
    """Exogenous information structure: one SubSigma per random move."""

    _tag, _miss, _code = "eis", "no algebra for move", "carrier-mismatch"


@record
class Filtration:
    """Time-indexed increasing family of σ-algebras over all of Ω."""

    times: tuple
    stages: tuple  # SubSigma per time, same order as times

    @classmethod
    def of(cls, per_time) -> "Filtration":
        items = sorted(per_time.items(), key=lambda kv: kv[0])
        times = tuple(t for t, _ in items)
        stages = tuple(s for _, s in items)
        carrier = stages[0].carrier if stages else frozenset()
        for s in stages:
            if s.carrier != carrier:
                raise InputError(
                    "all stages must share the carrier Ω", code="carrier-mismatch"
                )
        for earlier, later in itertools.combinations(range(len(times)), 2):
            if not stages[later].includes(stages[earlier]):
                raise StructureError(
                    f"filtration not monotone between t={times[earlier]} "
                    f"and t={times[later]}"
                )
        return cls(times, stages)

    def stage(self, t) -> SubSigma:
        for time, s in zip(self.times, self.stages):
            if time == t:
                return s
        raise InputError(f"time {t} not in the filtration", code="time-index-mismatch")


class ObservationFamily(PerMove):
    """Finite-valued observables, one per random move, total on Ω."""

    _tag, _miss = "observations", "no observable for move"

    @staticmethod
    def _value(obs: dict) -> tuple:
        return tuple(sorted(obs.items(), key=lambda kv: canon_key(kv[0])))

    def for_move(self, move: RandomMove) -> dict:
        return dict(super().for_move(move))


def level_set_partition(space: ScenarioSpace, observable: dict) -> SubSigma:
    """σ(Y): the algebra over Ω generated by the level sets of a finite-valued Y."""
    if frozenset(observable) != space.scenarios:
        raise InputError("observable not total on Ω", witness=frozenset(observable))
    levels: dict = {}
    for w, value in observable.items():
        levels.setdefault(canon_key(value), set()).add(w)
    atoms = frozenset(frozenset(ws) for ws in levels.values())
    # decided on the level sets; a fault is named by the canonically first
    bad = [a for a in atoms if not space.is_event(a)]
    if bad:
        a = min(bad, key=canon_key)
        raise InputError(f"observable level set {fmt(a)} is not an event", witness=a)
    return SubSigma(space.scenarios, atoms)


def verify_eis(s: Sdf, e: Eis) -> Verdict:
    """Both defining conditions, checked for every pair x ≥_X x' and every event E.

    The pairs are read from `Sdf.x_above`, and the trace condition is decided
    on them unordered. Only a failure walks the moves in canonical order, and
    for each the moves strictly below it in canonical order, to name the
    first failing pair. A move with more than one entry is read as
    `Eis.for_move` reads it: by its first entry."""
    if e.moves() != s.random_moves:
        raise InputError(
            "information structure does not index exactly the random moves",
            code="carrier-mismatch",
        )
    sigmas = {m: e.for_move(m) for m, _ in e.entries}
    for m, sigma in sigmas.items():
        if sigma.carrier != m.domain:
            raise InputError(
                f"carrier {fmt(sigma.carrier)} differs from the domain of {m.fmt()}",
                code="carrier-mismatch",
            )
    for m, sigma in sigmas.items():
        bad = [atom for atom in sigma.atoms if not s.space.is_event(atom)]
        if bad:
            return Verdict.failed(
                "eis-not-sub-algebra",
                f"atom {fmt(min(bad, key=canon_key))} of the algebra at {m.fmt()} "
                "is not an event",
            )
    if all(
        sigmas[m1].traces_into(m2.domain, sigmas[m2])
        for m2, above in s.x_above.items()
        for m1 in above
    ):
        return Verdict.passed()
    for m1, sigma1 in sigmas.items():
        for m2, sigma2 in sigmas.items():
            if m1 not in s.x_above[m2]:
                continue
            event = sigma1.trace_failure(m2.domain, sigma2)
            if event is not None:
                return Verdict.failed(
                    "eis-trace-violation",
                    f"E = {fmt(event)} at {m1.fmt()} traces to "
                    f"{fmt(frozenset(event & m2.domain))} ∉ algebra at {m2.fmt()}",
                )
    raise AssertionError("a pair that fails the trace was decided above")


def sub_sigma_candidates(space: ScenarioSpace, carrier) -> list:
    """All sub-σ-algebras of 𝒜|carrier, canonically ordered: by their atoms,
    since the carrier is the same for all."""
    carrier = frozenset(carrier)
    atoms = canon_sorted(space.trace_atoms(carrier))
    out = []
    for blocks in set_partitions(atoms, label="sub-σ-algebra"):
        merged = frozenset(frozenset().union(*b) for b in blocks)
        out.append(SubSigma(carrier, merged))
    out.sort(key=lambda sigma: canon_key(sigma.atoms))
    return out


def enumerate_eis(s: Sdf) -> tuple:
    """Every exogenous information structure of the instance, exhaustively.

    Iterates per move over all partitions of the ambient atoms inside its
    domain (Bell-number growth) and prunes by the trace condition
    incrementally along the canonical linear extension of ≥_X: repeatedly
    the canonically least move whose moves above are all placed. Output
    order is lexicographic over the per-move atom partitions along that
    extension: each move's candidates come in canonical order, the order of
    their atoms for a fixed carrier, and are tried in that order.

    The moves above each move are read from `Sdf.x_above`, and the extension
    comes from a min-heap of canonical ranks (Kahn's algorithm). Moves with
    one domain share one candidate list, built when the first of them is
    reached. Whether candidate i of a domain traces into candidate j on
    another move's domain is decided once per call and then read from a
    table. The search path is kept on a list, not the call stack.

    Each candidate σ-algebra of a move's list (counted move by move, along
    the extension, as if every move built its own list) and each candidate
    tried spends one unit of the search's `Work` counter.
    """
    work = Work("EIS enumeration")
    # moves by canonical rank: above[i] ranks the moves above move i
    moves = s.sorted_moves
    if len(moves) > 1:
        rank = {m: i for i, m in enumerate(moves)}
        above = [sorted(rank[o] for o in s.x_above[m]) for m in moves]
        order = _linear_extension(above)
    else:
        above, order = [()] * len(moves), range(len(moves))
    lists: dict = {}  # domain ↦ (its number, its candidate list)
    dom, candidates = [0] * len(moves), [()] * len(moves)
    for i in order:
        domain = moves[i].domain
        if domain not in lists:
            lists[domain] = (len(lists), sub_sigma_candidates(s.space, domain))
        dom[i], candidates[i] = lists[domain]
        work.spend(len(candidates[i]))

    results = []
    pos = [0] * len(moves)  # pos[i]: the position of move i's placed candidate
    # (domain of o, position at o, domain of i, position j) ↦ whether o's
    # candidate traces on move i's domain into i's candidate j
    traced: dict = {}

    def fits(i, j):
        work.spend()
        d, domain, sigma = dom[i], moves[i].domain, candidates[i][j]
        for o in above[i]:
            key = (dom[o], pos[o], d, j)
            ok = traced.get(key)
            if ok is None:
                ok = traced[key] = candidates[o][pos[o]].traces_into(domain, sigma)
            if not ok:
                return False
        return True

    tries: list = []  # tries[k]: the positions of order[k]'s candidates not yet tried
    while True:
        if len(tries) == len(order):
            results.append(Eis(tuple((m, candidates[i][pos[i]]) for i, m in enumerate(moves))))
        else:
            tries.append(iter(range(len(candidates[order[len(tries)]]))))
        # place the next fitting candidate of the deepest move that has one left
        while tries:
            i = order[len(tries) - 1]
            j = next((j for j in tries[-1] if fits(i, j)), None)
            if j is not None:
                pos[i] = j
                break
            tries.pop()
        else:
            return tuple(results)


def _linear_extension(above: list) -> list:
    """The canonical linear extension of ≥_X on moves given by canonical
    rank, `above[i]` ranking the moves above move i: repeatedly the least
    rank whose moves above are all placed. Kahn's topological sort with a
    min-heap of ranks."""
    below: list = [[] for _ in above]
    for i, ranks in enumerate(above):
        for o in ranks:
            below[o].append(i)
    waiting = [len(ranks) for ranks in above]
    ready = [i for i, n in enumerate(waiting) if not n]  # ascending, so a heap
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for k in below[i]:
            waiting[k] -= 1
            if not waiting[k]:
                heapq.heappush(ready, k)
    return order


@record
class ChainStages:
    """Information along a ≥_X-chain of random moves, earliest move first."""

    stages: tuple  # ((RandomMove, SubSigma), ...)
    verdict: Verdict
    filtration: Filtration | None


def chain_filtration(s: Sdf, e: Eis, chain) -> ChainStages:
    """Evaluate an information structure along a totally ordered set of moves.

    Verifies the trace monotonicity along the chain; when all carriers equal
    Ω the stages form a genuine filtration (indexed 0, 1, ... along the
    chain) and it is returned as such.
    """
    chain = list(chain)
    for m in chain:
        if m not in s.random_moves:
            raise InputError(f"unknown random move {m.fmt()}", code="not-a-chain")
    for m1, m2 in itertools.combinations(chain, 2):
        if not (ge_x(m1, m2) or ge_x(m2, m1)):
            raise InputError(
                f"moves {m1.fmt()} and {m2.fmt()} are not comparable",
                code="not-a-chain",
            )
    ordered = sorted(
        chain, key=lambda m: (-sum(1 for o in chain if ge_x(m, o)), canon_key(m))
    )
    stages = tuple((m, e.for_move(m)) for m in ordered)
    verdict = Verdict.passed()
    for i, (m1, sigma1) in enumerate(stages):
        for m2, sigma2 in stages[i + 1 :]:
            bad = sigma1.trace_failure(m2.domain, sigma2)
            if bad is not None:
                verdict = Verdict.failed(
                    "trace-not-monotone",
                    f"E = {fmt(bad)} at {m1.fmt()} fails the trace at {m2.fmt()}",
                )
    filtration = None
    if verdict.ok and all(m.domain == s.space.scenarios for m, _ in stages):
        filtration = Filtration.of(
            {t: sigma for t, (_, sigma) in enumerate(stages)}
        )
    return ChainStages(stages, verdict, filtration)


def eis_from_filtration(s: Sdf, time_of_move, g: Filtration) -> Eis:
    """F_x = 𝒢_{t(x)} |_{D_x}: the stochastic-control special case.

    `time_of_move` maps each random move to its unique time (action-path
    instances provide it). The restriction family always satisfies both
    defining conditions; this is the constant-observable case of the
    observation construction.
    """
    return Eis.of({m: g.stage(time_of_move[m]).trace(m.domain) for m in s.random_moves})


def eis_from_observations(
    s: Sdf, time_of_move, g: Filtration, y: ObservationFamily
) -> Eis:
    """F_x = (σ(Y_x' : x' ≥_X x) ∨ 𝒢_{t(x)}) |_{D_x}.

    The join is the common refinement of the level-set partitions of every
    observable weakly above x with the filtration stage at x's time, traced
    on the domain. The output is re-verified rather than trusted.
    """
    per_move = {}
    for m in s.random_moves:
        joined = g.stage(time_of_move[m])
        for other in s.random_moves:
            if ge_x(other, m):
                joined = joined.join(level_set_partition(s.space, y.for_move(other)))
        per_move[m] = joined.trace(m.domain)
    e = Eis.of(per_move)
    verdict = verify_eis(s, e)
    if not verdict:
        raise StructureError(
            f"observation construction produced a non-EIS: {verdict.describe()}"
        )
    return e
