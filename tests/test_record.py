"""`sdfkit._record` against `dataclasses.dataclass`, its oracle.

Every class in `src/sdfkit` that `record` decorates, and every subclass of
one, is found by walking the package. Its twin is `dataclasses.dataclass`
applied to a class of the same name with the same annotations and defaults.
The generated methods must behave alike: the `__init__` signature, `repr`,
`==` and `hash` on instances that the four builtins and the `draw-5` golden
document build, frozen assignment and deletion, `__post_init__` and
`default_factory`. `Verdict.passed()` shares one frozen value. The last
test keeps start-up lean: importing sdfkit loads neither `dataclasses` nor
`inspect` nor `argparse`.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import itertools
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sdfkit
from sdfkit import _record, cli, examples
from sdfkit.action_path import ActionPathSdf, agent_choice, build_action_path_sdf
from sdfkit.cli import InstanceDoc
from sdfkit.errors import StructureError
from sdfkit.sdf import PerMove, RandomMove, ScenarioSpace, SubSigma
from sdfkit.sigma_info import ObservationFamily, chain_filtration, enumerate_eis
from sdfkit.verdict import Verdict

from test_golden import run_case

CASES = ["simple", "simple-adapted", "variant", "variant-adapted", "timing", "upandout", "draw-5"]
PER_CLASS = 25  # samples compared pairwise per class


def _modules():
    return [
        importlib.import_module(f"sdfkit.{info.name}")
        for info in pkgutil.iter_modules(sdfkit.__path__)
    ]


def _record_classes() -> list:
    """The decorated classes and their subclasses, bases first."""
    found = [
        value
        for module in _modules()
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and hasattr(value, "__record_fields__")
    ]
    return sorted(found, key=lambda cls: (len(cls.__mro__), cls.__qualname__))


RECORDS = _record_classes()


def _decorated(cls) -> bool:
    return "__record_fields__" in vars(cls)


def _twin(cls, twins: dict):
    bases = tuple(twins.get(base, base) for base in cls.__bases__)
    body = {"__qualname__": cls.__qualname__, "__module__": cls.__module__}
    if not _decorated(cls):
        return type(cls.__name__, bases, body)
    body["__annotations__"] = dict(vars(cls)["__annotations__"])
    for name in body["__annotations__"]:
        default = vars(cls)["__record_fields__"][name][1]
        if name in vars(cls):
            body[name] = vars(cls)[name]
        elif isinstance(default, _record._Factory):  # removed from the class, as dataclass does
            body[name] = dataclasses.field(default_factory=default.factory)
    return dataclasses.dataclass(frozen=vars(cls)["__record_frozen__"])(
        type(cls.__name__, bases, body)
    )


@pytest.fixture(scope="module")
def twins() -> dict:
    out: dict = {}
    for cls in RECORDS:
        out[cls] = _twin(cls, out)
    return out


def _fields_of(x, twins) -> dict:
    return {f.name: getattr(x, f.name) for f in dataclasses.fields(twins[type(x)])}


def _twin_of(x, twins):
    return twins[type(x)](**_fields_of(x, twins))


def _rebuilt(x, twins):
    return type(x)(**_fields_of(x, twins))


@pytest.fixture(scope="module")
def samples() -> dict:
    """Instances per class, as the golden runs construct them, plus the
    classes no command builds, made from the same instances: the window
    choices by a direct `agent_choice` call, and the measurability reports
    and their records by a direct `report(e)` call."""
    found: dict = {cls: [] for cls in RECORDS}

    def wrapped(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            found[type(self)].append(self)
        return __init__

    with pytest.MonkeyPatch.context() as mp:
        for cls in filter(_decorated, RECORDS):
            mp.setattr(cls, "__init__", wrapped(cls.__init__))
        for name in CASES:
            report, doc = run_case(name)
            cli.report_to_text(report, doc)
        for s in list(found[sdfkit.Sdf]):
            ObservationFamily.of({m: {w: 0 for w in m.domain} for m in s.sorted_moves})
            PerMove.of(dict.fromkeys(s.sorted_moves, 0))  # the base builds none itself
            for e in enumerate_eis(s)[:3]:
                for m in s.sorted_moves:
                    chain_filtration(s, e, [m])
        # thm4-11 decides agent choices without building window choices
        for aps in list(found[ActionPathSdf]):
            po = aps.po
            for agent in po.space.agents or ():
                g = dict.fromkeys(po.scenarios.scenarios, min(po.space.components(agent)))
                for t in po.time.points:
                    agent_choice(po, t, po.index.realized_prefixes(t), agent, g)
    return {cls: xs[:PER_CLASS] for cls, xs in found.items()}


def test_the_walk_finds_every_decorated_class():
    for module in _modules():
        source = Path(module.__file__).read_text(encoding="utf-8")
        decorated = [
            cls for cls in RECORDS if cls.__module__ == module.__name__ and _decorated(cls)
        ]
        assert len(decorated) == source.count("\n@record"), module.__name__
    assert ScenarioSpace in RECORDS and not _decorated(ScenarioSpace)


def test_every_class_has_samples(samples):
    assert [cls.__qualname__ for cls, xs in samples.items() if not xs] == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_init_signature(cls, twins):
    ours = inspect.signature(cls.__init__)
    theirs = inspect.signature(twins[cls].__init__)
    assert str(ours) == str(theirs)
    assert ours.return_annotation == theirs.return_annotation
    for p, q in zip(ours.parameters.values(), theirs.parameters.values(), strict=True):
        assert (p.name, p.kind, p.annotation) == (q.name, q.kind, q.annotation)
        assert repr(p.default) == repr(q.default)
        if repr(p.default) != "<factory>":
            assert p.default is q.default


def _hashed(x):
    """hash(x), or the message of the TypeError an unhashable field raises."""
    try:
        return hash(x)
    except TypeError as e:
        return str(e)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_repr_eq_hash(cls, samples, twins):
    xs = samples[cls]
    # a value built again from the fields: equal to the original, not it
    xs = xs + [_rebuilt(x, twins) for x in xs[:3]]
    ys = [_twin_of(x, twins) for x in xs]
    for x, y in zip(xs, ys):
        assert repr(x) == repr(y)
        assert (x == y, y == x, x != y) == (False, False, True)
        if cls.__record_frozen__:
            assert _hashed(x) == _hashed(y)
    for (x1, y1), (x2, y2) in itertools.product(zip(xs, ys), repeat=2):
        assert (x1 == x2, x1 != x2) == (y1 == y2, y1 != y2)


def test_a_subclass_instance_never_equals_its_base(twins):
    space = ScenarioSpace.of([1, 2])
    sub = SubSigma(space.carrier, space.atoms)
    twin_space, twin_sub = _twin_of(space, twins), _twin_of(sub, twins)
    assert (space == sub, sub == space, space != sub) == (False, False, True)
    assert (twin_space == twin_sub, twin_sub == twin_space) == (False, False)
    assert hash(space) == hash(sub) == hash(twin_sub)


def _outcome(fn, *args):
    try:
        fn(*args)
    except AttributeError as e:
        return type(e).__name__, str(e)
    return "ok", None


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_assignment_and_deletion(cls, samples, twins):
    x = copy.copy(samples[cls][0])
    y = _twin_of(x, twins)
    names = [f.name for f in dataclasses.fields(y)] + ["not_a_field"]
    for name in names:
        value = getattr(x, name, None)
        assert _outcome(setattr, x, name, value) == _outcome(setattr, y, name, value)
        assert _outcome(delattr, x, name) == _outcome(delattr, y, name)


def _probe(decorate, field):
    class Probe:
        first: int
        second: int = 2
        third: list = field(default_factory=list)
        seen = []

        def __post_init__(self):
            self.seen.append(dict(vars(self)))

    return decorate(frozen=True)(Probe)


def test_post_init_runs_after_every_field_is_set():
    ours = _probe(_record.record, _record.field)
    theirs = _probe(dataclasses.dataclass, dataclasses.field)
    for args in [(1,), (1, 3), (1, 3, [4])]:
        ours(*args), theirs(*args)
    assert ours.seen == theirs.seen == [
        {"first": 1, "second": 2, "third": []},
        {"first": 1, "second": 3, "third": []},
        {"first": 1, "second": 3, "third": [4]},
    ]
    with pytest.raises(StructureError, match="random move must have nonempty domain"):
        RandomMove(())
    # the subclass's own __post_init__ runs, and calls its base's
    with pytest.raises(StructureError, match="scenario set must be nonempty"):
        ScenarioSpace(frozenset(), frozenset())
    with pytest.raises(StructureError, match="empty atom"):
        ScenarioSpace(frozenset([1]), frozenset([frozenset()]))


def test_default_factory_is_called_per_instance():
    a, b = InstanceDoc("builtin"), InstanceDoc("builtin")
    assert a.named_choices == b.named_choices == {}
    assert a.named_choices is not b.named_choices
    ours = _probe(_record.record, _record.field)
    assert ours(1).third is not ours(1).third


def test_cached_property_computes_once_and_keeps_the_value_on_the_instance():
    calls = []

    @_record.record(frozen=True)
    class Probe:
        x: int

        @_record.cached_property
        def table(self) -> dict:
            """x doubled."""
            calls.append(self.x)
            return {"doubled": 2 * self.x}

    # on the class, the descriptor itself
    assert isinstance(Probe.table, _record.cached_property)
    assert Probe.table.__doc__ == "x doubled."
    built, fresh = Probe(3), Probe(3)
    assert "table" not in vars(built)
    first = built.table
    assert first == {"doubled": 6} and calls == [3]
    assert vars(built)["table"] is first and built.table is first and calls == [3]
    # the table is no field: the frozen record keeps its value semantics
    assert built == fresh and hash(built) == hash(fresh) and repr(built) == repr(fresh)
    with pytest.raises(_record.FrozenInstanceError):
        built.x = 4


def _tables_of(x) -> list:
    """The names of the `cached_property` tables of x's class and its bases."""
    return sorted(
        {
            name
            for klass in type(x).__mro__
            for name, attr in vars(klass).items()
            if isinstance(attr, _record.cached_property)
        }
    )


def test_frozen_records_with_every_table_built_keep_their_value_semantics():
    aps = build_action_path_sdf(examples.upandout_path_outcomes(), max_x_exhaustive=12)
    s = aps.sdf
    values = [
        aps, aps.po, aps.po.time, aps.po.space, aps.po.scenarios,
        s, s.forest, s.forest.poset, *s.sorted_moves,
    ]
    names = set()
    for x in values:
        for name in _tables_of(x):
            getattr(x, name)
            assert name in vars(x)
            names.add(name)
        # built again from its fields, without the tables
        y = type(x)(*(getattr(x, f) for f in type(x).__record_fields__))
        assert x == y and y == x and hash(x) == hash(y) and repr(x) == repr(y)
    assert {"index", "_times", "up", "down", "ttree", "terminals", "_key"} <= names


def test_plain_records_are_unhashable(samples):
    plain = [cls for cls in RECORDS if not cls.__record_frozen__]
    assert {cls.__qualname__ for cls in plain} == {"InstanceDoc", "CheckRecord", "Report"}
    for cls in plain:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable type"):
            hash(samples[cls][0])


def test_plain_passed_verdict_is_one_frozen_value():
    shared = Verdict.passed()
    assert shared == Verdict(ok=True) and shared is Verdict.passed()
    with pytest.raises(_record.FrozenInstanceError):
        shared.notes = ("changed",)
    # notes or partial=True make a fresh value that carries them
    noted = Verdict.passed("a", "b")
    assert noted == Verdict(ok=True, notes=("a", "b"))
    assert noted is not Verdict.passed("a", "b")
    assert Verdict.passed(partial=True) == Verdict(ok=True, partial=True)
    assert Verdict.passed("a", partial=True) == Verdict(ok=True, partial=True, notes=("a",))
    assert Verdict.passed() == Verdict(ok=True)  # the refused assignment left it as it was


def test_import_leaves_out_dataclasses_inspect_and_argparse():
    src = Path(sdfkit.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import sdfkit, sdfkit.cli; "
        "print(sorted({'dataclasses', 'inspect', 'argparse'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
