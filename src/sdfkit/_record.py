"""Frozen value classes without `dataclasses`.

`record` writes the `__init__`, `__repr__`, `__eq__`, `__hash__`,
`__setattr__` and `__delattr__` that `dataclasses.dataclass` writes for a
frozen class: every record is a frozen value, and `record` takes no
option. `__init__`, `__repr__`, `__eq__` and `__hash__` are compiled from
one source string per class; the frozen guards are closures. Importing `dataclasses` pulls in `inspect`, `ast` and `dis`,
and it compiles each generated method separately; for a command-line
checker that is most of its start-up.

It reads only the names of a class's own annotations (every sdfkit module
uses postponed annotations), so it imports neither `inspect` nor `typing`.
It supports what sdfkit uses: positional fields, plain defaults,
`__post_init__`, undecorated subclasses of a record (they inherit its
methods, equality included, which holds only between instances of the same
class), and derived tables kept on an instance by this module's
`cached_property`, which writes the instance `__dict__` directly, so it
works on frozen records. It does not write a `__doc__`, a `__match_args__`
or a recursion guard in `__repr__`, and `dataclasses.replace`, `fields` and
`asdict` do not apply to records.
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """Assignment to or deletion of a field of a record."""


_MISSING = object()
_GENERATED = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")


class cached_property:
    """A table derived from a record, computed on first read and kept on it.

    The value is written to the instance `__dict__` under the attribute's
    name, where later reads find it before this non-data descriptor, as
    with `functools.cached_property`. Unlike that one in Python 3.11, the
    first read takes no lock (Python 3.12 dropped it too, gh-87634): two
    threads reading a table at once may both compute it, and one value wins.
    Writing the `__dict__` bypasses the record's frozen `__setattr__`, and
    the table is no field, so equality, hashing and `repr` ignore it.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def record(cls):
    """Class decorator: `cls` as a frozen value class."""
    # name -> (annotation, default); a decorated base's fields come first
    fields = dict(getattr(cls, "__record_fields__", {}))
    own = cls.__dict__
    for name, annotation in own.get("__annotations__", {}).items():
        fields[name] = (annotation, own.get(name, _MISSING))
    for name in _GENERATED:
        if name in own:
            raise TypeError(f"record {cls.__qualname__} defines {name}")
    ns = {"_set": object.__setattr__}
    params, body = [], []
    for name, (_, default) in fields.items():
        if default is _MISSING:
            params.append(name)
        else:
            ns[f"_dflt_{name}"] = default
            params.append(f"{name}=_dflt_{name}")
        body.append(f"_set(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "".join(f"self.{name}," for name in fields)
    theirs = "".join(f"other.{name}," for name in fields)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in fields)
    source = [
        f"def __init__(self, {', '.join(params)}):",
        *(f"  {line}" for line in body or ["pass"]),
        "def __repr__(self):",
        f"  return self.__class__.__qualname__ + f'({shown})'",
        "def __eq__(self, other):",
        "  if other.__class__ is self.__class__:",
        f"    return ({mine}) == ({theirs})",
        "  return NotImplemented",
        "def __hash__(self):",
        f"  return hash(({mine}))",
    ]
    exec("\n".join(source), ns)
    ns["__init__"].__annotations__ = {
        **{name: annotation for name, (annotation, _) in fields.items()}, "return": None
    }
    generated = (ns["__init__"], ns["__repr__"], ns["__eq__"], ns["__hash__"])
    for fn in (*generated, *_frozen_guards(cls, tuple(fields))):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__record_fields__ = fields
    return cls


def _frozen_guards(cls, names: tuple):
    """The `__setattr__` and `__delattr__` of a record. They read no field by
    name, so they are closures, not compiled per class."""

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return __setattr__, __delattr__
