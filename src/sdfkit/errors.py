"""Exception types raised by the kernel.

Every error carries a stable `code` string (the identifiers used throughout
the checker surface, e.g. "unknown-element", "size-cap", "apw0-violation")
plus an optional witness value describing the offending data.
"""

from __future__ import annotations


class KernelError(Exception):
    code = "kernel-error"

    def __init__(self, message: str, witness=None, code: str | None = None):
        super().__init__(message)
        self.witness = witness
        if code is not None:
            self.code = code


class InputError(KernelError):
    """A caller handed the kernel data outside an operation's precondition."""

    code = "input-error"


class StructureError(KernelError):
    """A structural invariant of a kernel value does not hold."""

    code = "structure-error"


# The one bound on the exhaustive searches: `set_partitions`, `enumerate_eis`,
# the AP.C3 generator search, `find_sdf_isomorphism` and the literal
# `maximal_chains` (which no check calls) each spend a `Work` counter, which
# reads it when the search starts.
WORK_CAP = 2 ** 16


class SizeCapError(KernelError):
    """An exhaustive enumeration exceeded its work bound.

    Enumerations fail loudly instead of silently degrading; the searches
    share the bound `WORK_CAP`.
    """

    code = "size-cap"


class Work:
    """The units one exhaustive search has spent (`used`) against `WORK_CAP`,
    read when the search starts. `spend` raises `SizeCapError` on the first
    unit past the cap: "<search> exceeded <cap> <unit>"."""

    __slots__ = ("search", "unit", "used", "cap")

    def __init__(self, search: str, unit: str = "work units"):
        self.search, self.unit, self.used, self.cap = search, unit, 0, WORK_CAP

    def spend(self, units: int = 1):
        self.used += units
        if self.used > self.cap:
            raise SizeCapError(f"{self.search} exceeded {self.cap} {self.unit}")


def unknown_element(x):
    return InputError(f"element not in poset: {x!r}", witness=x, code="unknown-element")


def not_a_forest(witness):
    return StructureError(
        f"poset is not a forest: up-set of {witness!r} is not a chain",
        witness=witness,
        code="not-a-forest",
    )
