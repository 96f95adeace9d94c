"""Instance-file ingestion, command dispatch, and verification reports.

Instance documents are JSON with a top-level "kind": an explicit node-level
description, an action-path description (extensional paths or a named
generator), or a builtin name. Reports aggregate kernel verdicts verbatim
and come in a human text format (with timings) and a machine JSON format
(timing-free, byte-identical for identical inputs and caps).
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

from . import examples
from ._canon import canon_sorted, fmt
from ._record import record
from .action_path import (
    ActionPathSdf,
    ActionSpace,
    PathOutcomes,
    TimeAxis,
    _construct_action_path_sdf,
    check_apc3,
    check_apw,
    product_outcomes,
    sweep_rows,
    timing_outcomes,
    up_and_out_outcomes,
)
from .choice import Choice, Rcs, classify, predecessors, verify_rcs, is_adapted
from .errors import KernelError, SizeCapError
from .sdf import (
    MAX_X_EXHAUSTIVE,
    RandomMove,
    ScenarioSpace,
    Sdf,
    check_evaluation_bijection,
    check_ttree_theorem,
    verify_sdf,
)
from .set_forest import SetForest
from .sigma_info import Eis, SubSigma, enumerate_eis, verify_eis
from .verdict import MultiVerdict, Verdict

BUILTINS = ("simple", "variant", "timing", "upandout")


class ParseError(Exception):
    """Input rejected, with a position or path for the diagnostic."""

    def __init__(self, message: str, *, line: int | None = None, col: int | None = None, path: str = ""):
        loc = ""
        if line is not None:
            loc = f" at line {line}, column {col}"
        elif path:
            loc = f" at {path}"
        super().__init__(message + loc)
        self.line = line
        self.col = col
        self.path = path


@record
class InstanceDoc:
    kind: str
    name: str | None = None
    sdf: Sdf | None = None
    po: PathOutcomes | None = None
    named_choices: dict | MappingProxyType = MappingProxyType({})
    doc_eis: Eis | None = None
    doc_rcs: Rcs | None = None


def _expect(cond: bool, message: str, path: str):
    if not cond:
        raise ParseError(message, path=path)


def _get(obj, key, kind, path, optional=False):
    if key not in obj:
        _expect(optional, f"missing field {key!r}", path)
        return None
    value = obj[key]
    # JSON true/false parse to bools, which are ints too; no field takes one
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"field {key!r} has the wrong type", path=f"{path}.{key}")
    return value


def _same_types(values, declared: dict, what: str, path: str):
    """Reject a value that equals a declared one of another type: JSON `true`
    equals 1, and 1.0 equals 1, yet neither is that value. `declared` maps
    each declared value to itself; a value it lacks is left to resolution.
    A JSON array or object is never a scenario, action, outcome, agent or
    component."""
    for value in values:
        _expect(not isinstance(value, (list, dict)), f"{what} {value!r} is not a scalar", path)
        match = declared.get(value, value)
        if type(match) is not type(value):
            raise ParseError(f"{what} {value!r} stands in for {match!r}", path=path)


def _scalars(values, what: str, path: str):
    """`_same_types` against no declared value, decided on the values' types:
    only a JSON array or object fails, and the walk runs only to name it."""
    if not {type(v) for v in values}.isdisjoint((list, dict)):
        _same_types(values, {}, what, path)


# A rational is refused when its numerator or denominator has more than
# _DIGITS digits, Python's default limit for printing an int.
_DIGITS = 4300
_BOUND = 10**_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _fraction(text, path) -> Fraction:
    # JSON true/false are ints and a JSON float is binary: neither is exact.
    # An int or a run of ASCII digits skips the Fraction parser's regex.
    kind = type(text)
    try:
        if kind is int or (kind is str and text.isascii() and text.isdigit()):
            return Fraction(int(text))
        if kind is str and (value := _rational(text)) is not None:
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"bad rational {text!r}", path=path)


def _rational(text: str) -> Fraction | None:
    """`Fraction(text)`, or None when its numerator or denominator has more
    than _DIGITS digits. An exponent of size _DIGITS + len(text) or more is
    decided without computing 10**exp: the text's digits bound the
    mantissa's numerator and denominator by 10**len(text), so the value is
    then 0 or refused."""
    exp = _EXPONENT.search(text)
    if exp and abs(int(exp[1])) >= _DIGITS + len(text):
        value = Fraction(text[: exp.start(1)] + "0" + text[exp.end(1) :])
        return None if value else value
    value = Fraction(text)
    return value if max(abs(value.numerator), value.denominator) < _BOUND else None


def _atoms(obj, path, optional=False):
    """The `atoms` field: an array of scenario arrays, decided on the types
    of the atoms and their members and walked only to name a fault."""
    atoms = _get(obj, "atoms", list, path, optional=optional)
    if atoms and not (
        {type(a) for a in atoms} == {list}
        and {type(w) for a in atoms for w in a}.isdisjoint((list, dict))
    ):
        for atom in atoms:
            _expect(isinstance(atom, list), "atom must be a scenario array", f"{path}.atoms")
            _same_types(atom, {}, "scenario", f"{path}.atoms")
    return atoms


def _scenario_space(obj, path) -> ScenarioSpace:
    scenarios = _get(obj, "scenarios", list, path)
    _expect(bool(scenarios), "scenarios must be nonempty", f"{path}.scenarios")
    _scalars(scenarios, "scenario", f"{path}.scenarios")
    atoms = _atoms(obj, path, optional=True)
    try:
        if atoms is None:
            return ScenarioSpace.discrete(scenarios)
        space = ScenarioSpace.of(scenarios, [frozenset(a) for a in atoms])
    except KernelError as e:
        raise ParseError(str(e), path=f"{path}.atoms") from None
    # decided on (type, value) pairs: `true` and 1.0 equal 1 but their pairs
    # differ, so the members pass iff each is declared with its own type
    members = [w for atom in atoms for w in atom]
    if not {(type(w), w) for w in members} <= {(type(w), w) for w in space.scenarios}:
        scenario_of = {w: w for w in space.scenarios}
        _same_types(members, scenario_of, "scenario", f"{path}.atoms")
    return space


def _parse_explicit(obj) -> InstanceDoc:
    path = "$"
    space = _scenario_space(obj, path)
    outcomes = _get(obj, "outcomes", list, path)
    _scalars(outcomes, "outcome", f"{path}.outcomes")
    for o in outcomes:
        if type(o) is not str:
            raise ParseError(
                f"outcome {o!r} is not a string, and outcome names key JSON objects",
                path=f"{path}.outcomes",
            )
    node_lists = _get(obj, "nodes", list, path)
    universe = frozenset(outcomes)
    nodes = []
    for i, entry in enumerate(node_lists):
        _expect(isinstance(entry, list), "node must be an outcome array", f"{path}.nodes[{i}]")
        _scalars(entry, "outcome", f"{path}.nodes[{i}]")
        for o in entry:
            if o not in universe:
                raise ParseError(f"unresolved outcome {o!r}", path=f"{path}.nodes[{i}]")
        nodes.append(frozenset(entry))
    move_entries = _get(obj, "random_moves", list, path)
    # JSON object keys are strings, so an assignment key spelling a
    # non-string scenario ("1" for 1) can never name it
    keyless = {str(w): w for w in space.scenarios if type(w) is not str}
    moves = []
    for i, entry in enumerate(move_entries):
        mpath = f"{path}.random_moves[{i}]"
        _expect(isinstance(entry, dict), "random move must be an object", mpath)
        assignment = _get(entry, "assignment", dict, mpath)
        mapping = {}
        for scen, node_idx in assignment.items():
            if scen not in space.scenarios and scen in keyless:
                raise ParseError(
                    f"scenario {keyless[scen]!r} is not a string, "
                    "and scenario names key JSON objects",
                    path=f"{path}.scenarios",
                )
            _expect(scen in space.scenarios, f"unresolved scenario {scen!r}", mpath)
            _expect(
                type(node_idx) is int and 0 <= node_idx < len(nodes),
                f"unresolved node index {node_idx!r}",
                mpath,
            )
            mapping[scen] = nodes[node_idx]
        _expect(bool(mapping), "random move needs a nonempty assignment", mpath)
        domain = _get(entry, "domain", list, mpath, optional=True)
        if domain is not None:
            _scalars(domain, "scenario", f"{mpath}.domain")
            _expect(
                frozenset(domain) == frozenset(mapping),
                "declared domain differs from the assignment's scenarios",
                mpath,
            )
        moves.append(RandomMove.of(mapping))
    table = _get(obj, "outcome_scenarios", dict, path)
    scenario_of = {w: w for w in space.scenarios}

    def resolves(w):
        # the scenario checks of the loop below, decided without naming
        return (
            not isinstance(w, (list, dict))
            and w in scenario_of
            and type(scenario_of[w]) is type(w)
        )

    # decided on the table; a fault is named at the canonically first outcome,
    # so a passing parse sorts nothing
    if not (universe <= table.keys() and all(resolves(table[o]) for o in universe)):
        for o in canon_sorted(universe):
            _expect(o in table, f"outcome {o!r} missing a scenario", f"{path}.outcome_scenarios")
            _same_types((table[o],), scenario_of, "scenario", f"{path}.outcome_scenarios")
            _expect(
                table[o] in space.scenarios,
                f"unresolved scenario {table[o]!r}",
                f"{path}.outcome_scenarios",
            )
    try:
        forest = SetForest.of(universe, nodes)
        projection = {}
        mixed = []
        for x in forest.nodes:
            w, *others = {table[o] for o in x}
            if others:
                mixed.append(x)
            projection[x] = w
        # decided on the nodes; a fault is named by the canonically first
        if mixed:
            x = canon_sorted(mixed)[0]
            raise ParseError(f"node {fmt(x)} mixes scenarios", path=f"{path}.nodes")
        sdf = Sdf.of(forest, space, projection, moves)
    except KernelError as e:
        raise ParseError(str(e), path=path) from None
    return InstanceDoc("explicit-sdf", sdf=sdf, **_parse_sections(obj, sdf, moves, universe))


def _parse_sections(obj, sdf: Sdf, moves, universe) -> dict:
    """The `named_choices`, `doc_eis` and `doc_rcs` fields of an explicit
    document, from its optional `choices`, `eis` and `rcs` sections."""
    named, doc_eis, doc_rcs = {}, None, None
    choices = obj.get("choices")
    if choices is not None:
        _expect(isinstance(choices, dict), "choices must be an object", "$.choices")
        for name, outs in choices.items():
            _expect(isinstance(outs, list), "choice must be an outcome array", f"$.choices.{name}")
            _scalars(outs, "outcome", f"$.choices.{name}")
            for o in outs:
                if o not in universe:
                    raise ParseError(f"unresolved outcome {o!r}", path=f"$.choices.{name}")
            named[name] = frozenset(outs)
    eis_src = obj.get("eis")
    if eis_src is not None:
        _expect(isinstance(eis_src, list), "eis must be an array", "$.eis")
        per_move, seen = {}, set()
        for i, entry in enumerate(eis_src):
            epath = f"$.eis[{i}]"
            _expect(isinstance(entry, dict), "eis entry must be an object", epath)
            idx = _move_index(entry, moves, seen, epath)
            atoms = _atoms(entry, epath)
            try:
                per_move[moves[idx]] = SubSigma.of(
                    moves[idx].domain, [frozenset(a) for a in atoms]
                )
            except KernelError as e:
                raise ParseError(str(e), path=epath) from None
        _expect(len(per_move) == len(moves), "eis must cover every random move", "$.eis")
        doc_eis = Eis.of(per_move)
    rcs_src = obj.get("rcs")
    if rcs_src is not None:
        _expect(isinstance(rcs_src, list), "rcs must be an array", "$.rcs")
        per_move, seen = {m: frozenset() for m in moves}, set()
        for i, entry in enumerate(rcs_src):
            rpath = f"$.rcs[{i}]"
            _expect(isinstance(entry, dict), "rcs entry must be an object", rpath)
            idx = _move_index(entry, moves, seen, rpath)
            outs = _get(entry, "choices", list, rpath)
            for c in outs:
                _expect(isinstance(c, list), "choice must be an outcome array", f"{rpath}.choices")
                _scalars(c, "outcome", f"{rpath}.choices")
            try:
                per_move[moves[idx]] = frozenset(
                    Choice.of(sdf, frozenset(c)) for c in outs
                )
            except KernelError as e:
                raise ParseError(str(e), path=rpath) from None
        doc_rcs = Rcs.of(per_move)
    return {"named_choices": named, "doc_eis": doc_eis, "doc_rcs": doc_rcs}


def _move_index(entry, moves, seen: set, path) -> int:
    """An entry's `move` index: in range, and not listed before in its
    section (`seen`, which it joins)."""
    idx = _get(entry, "move", int, path)
    _expect(0 <= idx < len(moves), f"unresolved move index {idx}", path)
    _expect(idx not in seen, f"move index {idx} listed twice", path)
    seen.add(idx)
    return idx


def _factorization(obj, actions, path) -> dict | None:
    """The optional `factorization` field: agent ↦ {action: component}."""
    factorization_src = _get(obj, "factorization", dict, path, optional=True)
    if factorization_src is None:
        return None
    fpath = f"{path}.factorization"
    factorization: dict = {}
    # as for scenarios in _parse_explicit: a key spelling a non-string
    # action ("1" for 1) can never name it
    keyless = {str(a): a for a in actions if type(a) is not str}
    for action, table in factorization_src.items():
        _expect(isinstance(table, dict), "factorization entry must be an object", fpath)
        _scalars(table.values(), "component", fpath)
        if action not in actions and action in keyless:
            raise ParseError(
                f"action {keyless[action]!r} is not a string, "
                "and action names key JSON objects",
                path=f"{path}.actions",
            )
        _expect(action in actions, f"unresolved action {action!r}", fpath)
        for agent, comp in table.items():
            factorization.setdefault(agent, {})[action] = comp
    return factorization


def _parse_action_path(obj) -> InstanceDoc:
    path = "$"
    space = _scenario_space(obj, path)
    scenario_of = {w: w for w in space.scenarios}
    raw_points = _get(obj, "time_points", list, path)
    tpath = f"{path}.time_points"
    try:
        time_axis = TimeAxis.of([_fraction(p, tpath) for p in raw_points])
    except KernelError as e:
        raise ParseError(str(e), path=tpath) from None
    generator = obj.get("generator")
    if generator is None:
        actions = _get(obj, "actions", list, path)
        _scalars(actions, "action", f"{path}.actions")
        factorization = _factorization(obj, actions, path)
        try:
            action_space = ActionSpace.of(actions, factorization)
            entries = _get(obj, "paths", list, path)
            # decided on (type, value) pairs, as in _scenario_space: each entry
            # is an object whose scenario is a declared str or int and whose
            # path is an array of declared actions; the walk below runs only
            # to name a fault
            named = {(type(w), w) for w in space.scenarios if type(w) in (str, int)}
            declared = {(type(a), a) for a in action_space.actions}
            try:
                paths = [(e["scenario"], e["path"]) for e in entries]
                decided = (
                    {type(f) for _, f in paths} <= {list}
                    and {(type(w), w) for w, _ in paths} <= named
                    and {(type(a), a) for _, f in paths for a in f} <= declared
                )
            except (KeyError, TypeError):  # a missing key; a non-object entry; an unhashable value
                decided = False
            if not decided:
                action_of = {a: a for a in action_space.actions}
                paths = []
                for i, entry in enumerate(entries):
                    ppath = f"{path}.paths[{i}]"
                    _expect(isinstance(entry, dict), "path entry must be an object", ppath)
                    scen = _get(entry, "scenario", (str, int), ppath)
                    seq = _get(entry, "path", list, ppath)
                    _same_types((scen,), scenario_of, "scenario", f"{ppath}.scenario")
                    _same_types(seq, action_of, "action", f"{ppath}.path")
                    paths.append((scen, tuple(seq)))
            po = PathOutcomes.of(time_axis, action_space, space, paths)
        except KernelError as e:
            raise ParseError(str(e), path=path) from None
    else:
        try:
            if generator == "product":
                actions = _get(obj, "actions", list, path)
                _scalars(actions, "action", f"{path}.actions")
                factorization = _factorization(obj, actions, path)
                po = product_outcomes(space, time_axis, actions, factorization)
            elif generator == "timing":
                agents = _get(obj, "agents", list, path)
                _scalars(agents, "agent", f"{path}.agents")
                po = timing_outcomes(space, time_axis, agents)
            elif isinstance(generator, dict) and generator.get("name") == "up-and-out":
                price_src = _get(generator, "price", dict, "$.generator")
                price = {}
                # in canonical order, so the first fault named is the same
                # under every hash seed
                for scen in canon_sorted(space.scenarios):
                    key = str(scen)
                    _expect(
                        key in price_src,
                        f"price table missing scenario {scen!r}",
                        "$.generator.price",
                    )
                    # JSON object keys are strings: "1" prices scenario 1
                    # only when no scenario "1" is declared as well
                    _expect(
                        type(scen) is str or key not in space.scenarios,
                        f"price key {key!r} names scenario {scen!r} and scenario {key!r}",
                        "$.generator.price",
                    )
                    row = price_src[key]
                    _expect(
                        isinstance(row, list) and len(row) == len(time_axis.points),
                        "price row must list one value per time point",
                        "$.generator.price",
                    )
                    for i, t in enumerate(time_axis.points):
                        price[(t, scen)] = _fraction(row[i], "$.generator.price")
                barrier = _fraction(generator.get("barrier", "2"), "$.generator.barrier")
                po = up_and_out_outcomes(space, time_axis, price, barrier)
            else:
                raise ParseError(f"unknown generator {generator!r}", path="$.generator")
        except KernelError as e:
            raise ParseError(str(e), path="$.generator") from None
        # timing and up-and-out fix their own factorization
        _expect(
            generator == "product" or "factorization" not in obj,
            f"generator {generator!r} takes no factorization",
            "$.factorization",
        )
    named = {}
    choices = obj.get("choices")
    if choices is not None:
        _expect(isinstance(choices, dict), "choices must be an object", "$.choices")
        action_of = {a: a for a in po.space.actions}
        for name, outs in choices.items():
            cpath = f"$.choices.{name}"
            _expect(isinstance(outs, list), "choice must be an outcome array", cpath)
            resolved = set()
            for entry in outs:
                _expect(isinstance(entry, dict), "outcome must be {scenario, path}", cpath)
                scen, seq = entry.get("scenario"), entry.get("path")
                _expect(isinstance(seq, list), "outcome path must be an array", cpath)
                _same_types((scen,), scenario_of, "scenario", cpath)
                _same_types(seq, action_of, "action", cpath)
                w = (scen, tuple(seq))
                if w not in po.paths:
                    raise ParseError(f"unresolved outcome {fmt(w)}", path=cpath)
                resolved.add(w)
            named[name] = frozenset(resolved)
    return InstanceDoc("action-path", po=po, named_choices=named)


def builtin_doc(name) -> InstanceDoc:
    """The builtin `name` as the document a file would give: its forest or
    outcome set, its named choices and, for the two worked forests, its
    reference choice structure."""
    if name not in BUILTINS:
        raise ParseError(
            f"unknown builtin {name!r}; expected one of {', '.join(BUILTINS)}", path="$.name"
        )
    choices = examples.all_named_choices(name)
    if name == "simple":
        s = examples.build_simple()
        return InstanceDoc("builtin", name, s, named_choices=choices, doc_rcs=examples.simple_rcs(s))
    if name == "variant":
        s = examples.build_variant()
        return InstanceDoc("builtin", name, s, named_choices=choices, doc_rcs=examples.variant_rcs(s))
    if name == "timing":
        return InstanceDoc("builtin", name, po=examples.timing_path_outcomes(), named_choices=choices)
    return InstanceDoc("builtin", name, po=examples.upandout_path_outcomes(), named_choices=choices)


def _non_finite(text: str):
    """NaN, Infinity or -Infinity: `json.loads` reads them, JSON lacks them."""
    raise ParseError(f"syntax error: {text} is not a JSON number")


def _finite_float(text: str) -> float:
    """A JSON float literal, refused when it overflows to an infinity."""
    value = float(text)
    if not math.isfinite(value):
        raise ParseError(f"syntax error: number {text} is out of range")
    return value


def parse_instance(text: str) -> InstanceDoc:
    """Parse an instance document or raise a positioned ParseError."""
    try:
        obj = json.loads(text, parse_constant=_non_finite, parse_float=_finite_float)
    except json.JSONDecodeError as e:
        raise ParseError(f"syntax error: {e.msg}", line=e.lineno, col=e.colno) from None
    except ValueError:  # an integer literal past the int-to-str digit limit
        raise ParseError("syntax error: an integer literal has too many digits") from None
    except RecursionError:
        raise ParseError("syntax error: arrays and objects nest too deeply") from None
    if not isinstance(obj, dict):
        raise ParseError("document must be a JSON object", path="$")
    kind = obj.get("kind")
    if kind == "builtin":
        return builtin_doc(obj.get("name"))
    if kind == "explicit-sdf":
        return _parse_explicit(obj)
    if kind == "action-path":
        return _parse_action_path(obj)
    raise ParseError(f"unknown kind {kind!r}", path="$.kind")


@record
class CheckRecord:
    check_id: str
    status: str  # ok | partial | fail | error
    items: tuple
    data: dict
    message: str
    elapsed_ms: float


@record
class Report:
    records: list
    caps: dict

    @property
    def ok(self) -> bool:
        return all(r.status in ("ok", "partial") for r in self.records)


class _Instance:
    """One run's view of a parsed document, builtin or file alike.

    The document holds its forest or outcome set, named choices, EIS and
    RCS; every part derived from them is computed by `_once` on its first
    read, so a run computes only what its commands read, each at most once.
    """

    def __init__(self, doc: InstanceDoc, caps: dict):
        self.doc = doc
        self.caps = caps
        self._kept: dict = {}

    def _once(self, key: str, compute):
        """`compute()` on the first read of `key`, kept for the run; a kernel
        error it raised is kept too and raised again on every read."""
        if key not in self._kept:
            try:
                self._kept[key] = compute()
            except KernelError as e:
                self._kept[key] = e
        value = self._kept[key]
        if isinstance(value, KernelError):
            raise value
        return value

    def need_apw(self) -> MultiVerdict:
        """The W0-W4 verdicts of `check_apw`."""
        return self._once("apw", lambda: check_apw(self.doc.po))

    def need_build(self) -> tuple:
        """The built `ActionPathSdf` and its `verify_sdf` verdict. A cap reads
        `cap-exceeded` in every command; any other build error, by its code."""

        def build():
            try:
                return _construct_action_path_sdf(
                    self.doc.po, self.need_apw(), max_x_exhaustive=self.caps["max_x"]
                )
            except SizeCapError:
                raise
            except KernelError as e:
                raise KernelError(f"{e.code}: {e}") from None

        return self._once("build", build)

    def need_sdf(self) -> Sdf:
        if self.doc.po is not None:
            return self.need_build()[0].sdf
        if self.doc.sdf is None:
            raise KernelError("no decision forest in this instance")
        return self.doc.sdf

    def need_aps(self, command: str) -> ActionPathSdf:
        if self.doc.po is None:
            raise KernelError(f"{command} needs a built action-path instance")
        aps = self.need_build()[0]
        if self.doc.po.space.agents is None:
            raise KernelError(f"{command} needs a factorization")
        return aps

    def need_eis(self) -> tuple:
        """`enumerate_eis` of the instance."""
        return self._once("eis", lambda: enumerate_eis(self.need_sdf()))

    def need_rcs(self) -> Rcs:
        """The document's reference choice structure."""
        if self.doc.doc_rcs is None:
            raise KernelError("adapted needs a reference choice structure (rcs)")
        return self.doc.doc_rcs

    def rcs_verdict(self) -> Verdict:
        """`verify_rcs` of `need_rcs()`."""
        return self._once("rcs-verdict", lambda: verify_rcs(self.need_sdf(), self.need_rcs()))

    def choice_named(self, name: str) -> frozenset:
        outcomes = self.doc.named_choices.get(name)
        if outcomes is None:
            raise KernelError(
                f"unknown choice {name!r}; known: "
                + ", ".join(sorted(self.doc.named_choices) or ("<none>",))
            )
        return outcomes


# A command handler takes the instance and the text after "name:" and
# returns its named verdicts, its data and its message ("" for none).


def _verify(inst: _Instance, arg: str):
    if inst.doc.po is None:
        s = inst.need_sdf()
        return verify_sdf(s, max_x_exhaustive=inst.caps["max_x"]).items, {}, ""
    items = tuple((f"AP.{k}", v) for k, v in inst.need_apw().items)
    try:
        _aps, verdict = inst.need_build()
    except SizeCapError:
        raise
    except KernelError as e:
        return items, {}, str(e)
    return items + verdict.items, {}, ""


def _ttree(inst: _Instance, arg: str):
    s = inst.need_sdf()
    ev = check_evaluation_bijection(s)
    try:
        tt = check_ttree_theorem(s)
    except KernelError as e:
        tt = Verdict.failed(e.code, str(e))
    return (("evaluation-bijection", ev), ("rooted-tree", tt)), {}, ""


def _enumerate_eis(inst: _Instance, arg: str):
    structures = inst.need_eis()
    listing = [[[sigma.fmt() for _, sigma in e.entries]] for e in structures]
    return (
        (("count", Verdict.passed(f"{len(structures)} structures")),),
        {"count": len(structures), "structures": listing},
        "",
    )


def _predecessors(inst: _Instance, arg: str):
    nodes = predecessors(inst.need_sdf(), inst.choice_named(arg))
    return (
        (("result", Verdict.passed(f"{len(nodes)} predecessor nodes")),),
        {"choice": arg, "nodes": [fmt(x) for x in canon_sorted(nodes)]},
        "",
    )


def _classify(inst: _Instance, arg: str):
    s = inst.need_sdf()
    flags = classify(s, Choice.of(s, inst.choice_named(arg)))
    items = (
        (
            "non-redundant",
            Verdict.passed() if flags.non_redundant else Verdict.failed(
                "redundant", f"scenario {fmt(flags.redundancy_witness[0])}"
            ),
        ),
        (
            "complete",
            Verdict.passed() if flags.complete else Verdict.failed(
                "incomplete", flags.completeness_witness[0].fmt()
            ),
        ),
    )
    available = [m.fmt() for m in canon_sorted(flags.available_at)]
    return items, {"choice": arg, "available_at": available}, ""


def _adapted(inst: _Instance, arg: str):
    s = inst.need_sdf()
    choice_name, _, eis_idx = arg.partition(":")
    c = Choice.of(s, inst.choice_named(choice_name))
    if eis_idx:
        structures = inst.need_eis()
        n = len(structures)
        # one spelling per index: ASCII digits, no leading zero; the length
        # test keeps int() off strings longer than its digit limit
        if not (
            eis_idx.isascii() and eis_idx.isdecimal() and eis_idx[0] != "0"
            and len(eis_idx) <= len(str(n)) and int(eis_idx) <= n
        ):
            raise KernelError(f"eis index {eis_idx} out of range 1..{n}")
        e = structures[int(eis_idx) - 1]
    elif inst.doc.doc_eis is not None:
        e = inst.doc.doc_eis
    else:
        raise KernelError("adapted needs an eis section or an :<index> suffix")
    r = inst.need_rcs()
    ev = verify_eis(s, e)
    rv = inst.rcs_verdict()
    if not (ev.ok and rv.ok):
        return (("preconditions", ev if not ev.ok else rv),), {}, ""
    return (("adapted", is_adapted(s, e, r, c)),), {}, ""


def _apw(inst: _Instance, arg: str):
    if inst.doc.po is None:
        raise KernelError("apw applies to action-path instances only")
    return inst.need_apw().items, {}, ""


def _apc(inst: _Instance, arg: str):
    aps = inst.need_aps("apc")
    items = [
        (f"agent {agent} @ {move.fmt()}", check_apc3(aps, agent, move).verdict)
        for agent in aps.po.space.agents
        for move, _t in aps.move_times
    ]
    return items, {}, ""


def _thm4_11(inst: _Instance, arg: str):
    """Every agent × structure × row of `sweep_rows`, as one item per row
    whose case passed C0-C2. A row that failed them is skipped once per
    structure; any other error is raised where that walk reaches it."""
    aps = inst.need_aps("thm4-11")
    structures = inst.need_eis()
    items = []
    skipped = 0
    for agent in aps.po.space.agents if structures else ():
        live = []
        for t, label, histories, g, case in sweep_rows(aps, agent):
            if isinstance(case, KernelError) and case.code == "precondition-violation":
                skipped += len(structures)
            else:
                live.append((f"t={t}, {label}, g={fmt(tuple(g.values()))}", case))
        for index, e in enumerate(structures, start=1):
            prefix = f"agent {agent}, eis {index}, "
            for text, case in live:
                if isinstance(case, KernelError):
                    raise case
                items.append((prefix + text, case.verdict(e)))
    return items, {"skipped": skipped, "checked": len(items)}, ""


COMMANDS = {
    "verify": _verify,
    "ttree": _ttree,
    "enumerate-eis": _enumerate_eis,
    "predecessors": _predecessors,
    "classify": _classify,
    "adapted": _adapted,
    "apw": _apw,
    "apc": _apc,
    "thm4-11": _thm4_11,
}


def _run_check(inst: _Instance, token: str) -> CheckRecord:
    """Run one "name[:arg]" token. The record fails when the handler gives
    a message or a failed verdict; kernel errors become `error` records."""
    name, _, arg = token.partition(":")
    start = time.perf_counter()
    try:
        handler = COMMANDS.get(name)
        if handler is None:
            raise KernelError(f"unknown command {name!r}")
        items, data, message = handler(inst, arg)
        bundle = MultiVerdict(tuple(items))
        if message or not bundle.ok:
            status = "fail"
        else:
            status = "partial" if bundle.partial else "ok"
    except SizeCapError as e:
        bundle, data, status, message = MultiVerdict(), {}, "error", f"cap-exceeded: {e}"
    except KernelError as e:
        bundle, data, status, message = MultiVerdict(), {}, "error", f"{e.code}: {e}"
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return CheckRecord(token, status, bundle.items, data, message, elapsed_ms)


def run(doc: InstanceDoc, commands, *, max_x: int = MAX_X_EXHAUSTIVE) -> Report:
    inst = _Instance(doc, {"max_x": max_x})
    return Report([_run_check(inst, token) for token in commands], inst.caps)


# The report's fixed skeleton: the text between `_emit_json` calls, at the
# indents `json.dumps(..., indent=2)` gives it; _CHECK_KEYS and _ITEM_KEYS
# are the indents of a check's and of an item's keys.
_CHECK_KEYS, _ITEM_KEYS = " " * 6, " " * 10
_ITEM = (
    '{\n          "code": %s,\n          "name": %s,\n          "notes": %s,\n'
    '          "ok": %s,\n          "partial": %s,\n          "witness": %s\n        }'
)
# An item whose verdict is the shared `Verdict.passed()` differs from the
# next only by its name: it is written as head + encoded name + tail.
_PASSED_HEAD, _PASSED_TAIL = (_ITEM % ('""', "%s", "[]", "true", "false", '""')).split("%s")
_CHECK_END = ',\n      "message": %s,\n      "status": %s\n    }'
_REPORT_END = '%s,\n  "kind": %s,\n  "name": %s,\n  "overall": %s\n}'
_BOOL = ("false", "true")


def report_to_json(report: Report, doc: InstanceDoc) -> str:
    """Machine format: deterministic, no timings.

    The text is `json.dumps(payload, sort_keys=True, indent=2, default=str)`
    of the payload {caps, checks, kind, name, overall}, where a check is
    {data, id, items, message, status} and an item {code, name, notes, ok,
    partial, witness}. That skeleton is written here from fixed strings,
    keys in sorted order. `data`, `caps`, non-empty notes and any field not
    of its declared `str` or `bool` type go to `_emit_json`. Every piece
    goes to one list, joined once: no part of the report is copied before
    the join, which keeps the peak memory of a large report down.
    """
    enc, passed = encode_basestring_ascii, Verdict.passed()
    out = ['{\n  "caps": ']
    _emit_json(report.caps, "  ", out)
    out.append(',\n  "checks": ')
    sep = '[\n    {\n      "data": '
    for r in report.records:
        out.append(sep)
        _emit_json(r.data, _CHECK_KEYS, out)
        out.append(',\n      "id": %s,\n      "items": ' % _text(r.check_id, _CHECK_KEYS))
        item_sep = "[\n        "
        for k, v in r.items:
            if v is passed and type(k) is str:
                out.append(item_sep + _PASSED_HEAD + enc(k) + _PASSED_TAIL)
                item_sep = ",\n        "
                continue
            # the items are most of a report, so their fields are inlined
            code, witness, ok, partial = v.code, v.witness, v.ok, v.partial
            out.append(item_sep + _ITEM % (
                enc(code) if type(code) is str else _emitted(code, _ITEM_KEYS),
                enc(k) if type(k) is str else _emitted(k, _ITEM_KEYS),
                _emitted(list(v.notes), _ITEM_KEYS) if v.notes else "[]",
                _BOOL[ok] if type(ok) is bool else _emitted(ok, _ITEM_KEYS),
                _BOOL[partial] if type(partial) is bool else _emitted(partial, _ITEM_KEYS),
                enc(witness) if type(witness) is str else _emitted(witness, _ITEM_KEYS),
            ))
            item_sep = ",\n        "
        out.append(("\n      ]" if r.items else "[]") + _CHECK_END % (
            _text(r.message, _CHECK_KEYS), _text(r.status, _CHECK_KEYS),
        ))
        sep = ',\n    {\n      "data": '
    out.append(_REPORT_END % (
        "\n  ]" if report.records else "[]",
        _text(doc.kind, "  "), _text(doc.name, "  "), '"ok"' if report.ok else '"fail"',
    ))
    return "".join(out)


def _text(value, indent: str) -> str:
    """A field declared `str`, whose key sits at `indent`."""
    return encode_basestring_ascii(value) if type(value) is str else _emitted(value, indent)


def _emitted(value, indent: str) -> str:
    out: list = []
    _emit_json(value, indent, out)
    return "".join(out)


def _emit_json(value, indent: str, out: list) -> None:
    """Append `value` as `json.dumps(value, sort_keys=True, indent=2,
    default=str)` writes it at nesting prefix `indent`, byte for byte.

    Strings, booleans, None, exact ints, lists, tuples and dicts whose keys
    are all `str` are written here, with the C string encoder. Any other
    value (a float, a Fraction, a dict with other keys, a subclass) goes to
    `json.dumps` itself, with every newline followed by `indent`. That is
    exact because indented JSON nests by prefixing whole lines, and an
    encoded string never holds a raw newline, so every newline in the
    fallback's text starts a line of its layout.
    """
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for v in value:
            out.append(sep)
            _emit_json(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif kind is dict and all(type(k) is str for k in value):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for k in sorted(value):
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _emit_json(value[k], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        text = json.dumps(value, sort_keys=True, indent=2, default=str)
        out.append(text.replace("\n", "\n" + indent))


def report_to_text(report: Report, doc: InstanceDoc) -> str:
    lines = [f"instance: {doc.kind}" + (f" ({doc.name})" if doc.name else "")]
    for r in report.records:
        lines.append(f"check {r.check_id}: {r.status} [{r.elapsed_ms:.1f} ms]")
        if r.message:
            lines.append(f"  {r.message}")
        for k, v in r.items:
            lines.append(f"  {k}: {v.describe()}")
        for key, value in sorted(r.data.items()):
            lines.append(f"  {key}: {value}")
    lines.append(f"overall: {'ok' if report.ok else 'fail'}")
    return "\n".join(lines)


def _cap(text: str) -> int:
    import argparse

    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _add_options(parser, suppress: bool):
    import argparse

    # registered on the subcommands too, so flags may follow the check list
    kwargs = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument(
        "--format", choices=("text", "json"),
        **(kwargs or {"default": "text"}),
    )
    parser.add_argument(
        "--max-x", type=_cap, help="exhaustive axiom-3e cap on |X|",
        **(kwargs or {"default": MAX_X_EXHAUSTIVE}),
    )


def main(argv=None) -> int:
    import argparse  # only the command line needs it; importing it costs start-up

    parser = argparse.ArgumentParser(
        prog="sdf", description="Stochastic decision forest instance checker"
    )
    _add_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", help="check an instance file")
    p_verify.add_argument("file")
    p_verify.add_argument("checks", nargs="*", default=[])
    _add_options(p_verify, suppress=True)
    p_builtin = sub.add_parser("builtin", help="check a built-in instance")
    p_builtin.add_argument("name", choices=BUILTINS)
    p_builtin.add_argument("checks", nargs="*", default=[])
    _add_options(p_builtin, suppress=True)
    args = parser.parse_args(argv)

    if args.command == "verify":
        try:
            with open(args.file, encoding="utf-8") as fh:
                doc = parse_instance(fh.read())
        except (OSError, UnicodeDecodeError, ParseError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    else:
        doc = builtin_doc(args.name)

    checks = list(args.checks) or ["verify"]
    report = run(doc, checks, max_x=args.max_x)
    if args.format == "json":
        print(report_to_json(report, doc))
    else:
        # a name may hold a lone surrogate, which no encoding writes: escape
        # what the stream cannot encode, as Python does on stderr
        text, encoding = report_to_text(report, doc), sys.stdout.encoding or "utf-8"
        print(text.encode(encoding, "backslashreplace").decode(encoding))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
