"""Finite σ-algebras, filtrations, and exogenous information structures.

A σ-algebra over a carrier event is identified with the partition of the
carrier into its atoms; "E ∈ F" means "E is a union of F-atoms". An
exogenous information structure assigns one such algebra per random move,
monotone under traces along ≥_X (the no-forgetting condition).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from ._canon import canon_key, canon_sorted, fmt
from .errors import InputError, SizeCapError, StructureError
from .order_core import set_partitions
from .sdf import RandomMove, ScenarioSpace, Sdf, ge_x, x_order
from .verdict import Verdict


@dataclass(frozen=True)
class SubSigma:
    """A σ-algebra over a carrier event, as the atom partition of the carrier."""

    carrier: frozenset
    atoms: frozenset

    def __post_init__(self):
        seen: set = set()
        for a in self.atoms:
            if not a:
                raise StructureError("empty atom")
            if a & seen:
                raise StructureError(f"atoms overlap at {fmt(a)}", witness=a)
            seen |= a
        if seen != self.carrier:
            raise StructureError("atoms do not partition the carrier")

    @classmethod
    def of(cls, carrier, atoms) -> "SubSigma":
        return cls(frozenset(carrier), frozenset(frozenset(a) for a in atoms))

    @classmethod
    def trivial(cls, carrier) -> "SubSigma":
        carrier = frozenset(carrier)
        return cls(carrier, frozenset([carrier]) if carrier else frozenset())

    @classmethod
    def ambient_trace(cls, space: ScenarioSpace, carrier) -> "SubSigma":
        """The trace 𝒜|_carrier: the finest algebra the ambient one allows."""
        return cls(frozenset(carrier), space.trace_atoms(carrier))

    def contains(self, event) -> bool:
        event = frozenset(event)
        if not event <= self.carrier:
            return False
        return all(a <= event or not (a & event) for a in self.atoms)

    def events(self):
        atoms = canon_sorted(self.atoms)
        out = {frozenset()}
        for r in range(1, len(atoms) + 1):
            for combo in itertools.combinations(atoms, r):
                out.add(frozenset().union(*combo))
        return canon_sorted(out)

    def trace(self, event) -> "SubSigma":
        event = frozenset(event)
        return SubSigma(
            self.carrier & event,
            frozenset(a & event for a in self.atoms if a & event),
        )

    def join(self, other: "SubSigma") -> "SubSigma":
        """Smallest common refinement (σ-algebra join) over a shared carrier."""
        if self.carrier != other.carrier:
            raise InputError(
                "join requires a common carrier",
                witness=(self.carrier, other.carrier),
                code="carrier-mismatch",
            )
        atoms = frozenset(
            a & b for a in self.atoms for b in other.atoms if a & b
        )
        return SubSigma(self.carrier, atoms)

    def includes(self, coarser: "SubSigma") -> bool:
        """True iff every event of `coarser` is an event of self."""
        return all(self.contains(a) for a in coarser.atoms)

    def canon_key(self):
        return ("subsigma", canon_key(self.carrier), canon_key(self.atoms))

    def fmt(self) -> str:
        return fmt(self.atoms)


@dataclass(frozen=True)
class Eis:
    """Exogenous information structure: one SubSigma per random move."""

    entries: tuple  # ((RandomMove, SubSigma), ...) canonical by move

    @classmethod
    def of(cls, per_move) -> "Eis":
        items = sorted(per_move.items(), key=lambda kv: canon_key(kv[0]))
        return cls(tuple(items))

    def moves(self) -> frozenset:
        return frozenset(m for m, _ in self.entries)

    def for_move(self, move: RandomMove) -> SubSigma:
        for m, sigma in self.entries:
            if m == move:
                return sigma
        raise InputError(f"no algebra for move {move.fmt()}", code="carrier-mismatch")

    def canon_key(self):
        return ("eis", canon_key(self.entries))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ObservationFamily:
    """Finite-valued observables, one per random move, total on Ω."""

    entries: tuple  # ((RandomMove, ((scenario, value), ...)), ...)

    @classmethod
    def of(cls, per_move) -> "ObservationFamily":
        items = []
        for move, obs in sorted(per_move.items(), key=lambda kv: canon_key(kv[0])):
            obs_items = tuple(
                sorted(obs.items(), key=lambda kv: canon_key(kv[0]))
            )
            items.append((move, obs_items))
        return cls(tuple(items))

    def for_move(self, move: RandomMove) -> dict:
        for m, obs in self.entries:
            if m == move:
                return dict(obs)
        raise InputError(f"no observable for move {move.fmt()}")


def level_set_partition(space: ScenarioSpace, observable: dict) -> SubSigma:
    """σ(Y): the algebra over Ω generated by the level sets of a finite-valued Y."""
    if frozenset(observable) != space.scenarios:
        raise InputError("observable not total on Ω", witness=frozenset(observable))
    levels: dict = {}
    for w, value in observable.items():
        levels.setdefault(canon_key(value), set()).add(w)
    atoms = frozenset(frozenset(ws) for ws in levels.values())
    for a in atoms:
        if not space.is_event(a):
            raise InputError(
                f"observable level set {fmt(a)} is not an event", witness=a
            )
    return SubSigma(space.scenarios, atoms)


def verify_eis(s: Sdf, e: Eis) -> Verdict:
    """Both defining conditions, checked for every pair x ≥_X x' and every event E."""
    if e.moves() != s.random_moves:
        raise InputError(
            "information structure does not index exactly the random moves",
            code="carrier-mismatch",
        )
    for m, sigma in e.entries:
        if sigma.carrier != m.domain:
            raise InputError(
                f"carrier {fmt(sigma.carrier)} differs from the domain of {m.fmt()}",
                code="carrier-mismatch",
            )
    for m, sigma in e.entries:
        for atom in canon_sorted(sigma.atoms):
            if not s.space.is_event(atom):
                return Verdict.failed(
                    "eis-not-sub-algebra",
                    f"atom {fmt(atom)} of the algebra at {m.fmt()} is not an event",
                )
    for m1, sigma1 in e.entries:
        for m2, _ in e.entries:
            if m1 == m2 or not ge_x(m1, m2):
                continue
            sigma2 = e.for_move(m2)
            for event in sigma1.events():
                if not sigma2.contains(event & m2.domain):
                    return Verdict.failed(
                        "eis-trace-violation",
                        f"E = {fmt(event)} at {m1.fmt()} traces to "
                        f"{fmt(frozenset(event & m2.domain))} ∉ algebra at {m2.fmt()}",
                    )
    return Verdict.passed()


def bell_number(n: int) -> int:
    acc = [1]
    for i in range(n):
        acc.append(sum(comb(i, k) * acc[k] for k in range(i + 1)))
    return acc[n]


def sub_sigma_candidates(space: ScenarioSpace, carrier) -> list:
    """All sub-σ-algebras of 𝒜|carrier, canonically ordered."""
    atoms = canon_sorted(space.trace_atoms(carrier))
    out = []
    for blocks in set_partitions(atoms):
        merged = frozenset(frozenset().union(*b) for b in blocks)
        out.append(SubSigma(frozenset(carrier), merged))
    return canon_sorted(set(out))


def enumerate_eis(s: Sdf, bell_cap: int = 10_000) -> tuple:
    """Every exogenous information structure of the instance, exhaustively.

    Iterates per move over all partitions of the ambient atoms inside its
    domain (Bell-number growth, capped by the sum of per-move Bell numbers)
    and prunes by the trace condition incrementally along a linear extension
    of ≥_X. Output order is lexicographic over the per-move atom partitions.
    """
    order = x_order(s)
    total = sum(
        bell_number(len(s.space.trace_atoms(m.domain))) for m in s.random_moves
    )
    if total > bell_cap:
        raise SizeCapError(
            f"sum of per-move Bell numbers {total} exceeds cap {bell_cap}"
        )
    moves = []
    remaining = set(s.random_moves)
    while remaining:
        ready = [
            m
            for m in remaining
            if all(other in moves or not order.gt(other, m) for other in s.random_moves)
        ]
        nxt = min(ready, key=canon_key)
        moves.append(nxt)
        remaining.discard(nxt)
    candidates = {m: sub_sigma_candidates(s.space, m.domain) for m in moves}

    results = []
    assignment: dict = {}

    def compatible(new_move, sigma) -> bool:
        for earlier in assignment:
            if ge_x(earlier, new_move) and earlier != new_move:
                earlier_sigma = assignment[earlier]
                for event in earlier_sigma.events():
                    if not sigma.contains(event & new_move.domain):
                        return False
        return True

    def assign(i):
        if i == len(moves):
            results.append(Eis.of(dict(assignment)))
            return
        m = moves[i]
        for sigma in candidates[m]:
            if compatible(m, sigma):
                assignment[m] = sigma
                assign(i + 1)
                del assignment[m]

    assign(0)
    results.sort(
        key=lambda e: tuple(canon_key(e.for_move(m).atoms) for m in moves)
    )
    return tuple(results)


@dataclass(frozen=True)
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
            bad = next(
                (
                    ev
                    for ev in sigma1.events()
                    if not sigma2.contains(ev & m2.domain)
                ),
                None,
            )
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
    per_move = {}
    for m in s.random_moves:
        t = time_of_move[m]
        if t not in g.times:
            raise InputError(
                f"move time {t} not in the filtration index", code="time-index-mismatch"
            )
        per_move[m] = g.stage(t).trace(m.domain)
    return Eis.of(per_move)


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
        t = time_of_move[m]
        if t not in g.times:
            raise InputError(
                f"move time {t} not in the filtration index", code="time-index-mismatch"
            )
        joined = g.stage(t)
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
