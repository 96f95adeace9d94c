"""Verdict values returned by the checkers.

A failed verdict always names what failed (`code`) and carries a readable
witness; diagnosability is the product. `partial=True` marks a positive
verdict that was established by a necessary test only (e.g. the capped
axiom-3e mode), never a failure.
"""

from __future__ import annotations

from ._record import record


@record(frozen=True)
class Verdict:
    ok: bool
    code: str = ""
    witness: str = ""
    partial: bool = False
    notes: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def passed(*notes: str, partial: bool = False) -> "Verdict":
        """A positive verdict; without notes and not partial it is the one
        shared `Verdict(ok=True)`, which is safe to share as records are
        frozen."""
        if notes or partial:
            return Verdict(ok=True, partial=partial, notes=notes)
        return _PASSED

    @staticmethod
    def failed(code: str, witness: str, *notes: str) -> "Verdict":
        return Verdict(ok=False, code=code, witness=witness, notes=tuple(notes))

    def describe(self) -> str:
        status = "ok" if self.ok else f"FAIL[{self.code}]"
        if self.ok and self.partial:
            status = "ok (partial)"
        parts = [status]
        if self.witness:
            parts.append(f"witness: {self.witness}")
        parts.extend(self.notes)
        return "; ".join(parts)


_PASSED = Verdict(ok=True)


@record(frozen=True)
class MultiVerdict:
    """An ordered bundle of named verdicts (per axiom / per assumption)."""

    items: tuple[tuple[str, Verdict], ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    @property
    def ok(self) -> bool:
        return all(v.ok for _, v in self.items)

    @property
    def partial(self) -> bool:
        return any(v.partial for _, v in self.items)

    def verdict(self, name: str) -> Verdict:
        for key, v in self.items:
            if key == name:
                return v
        raise KeyError(name)

    def describe(self) -> str:
        return "; ".join(f"{k}: {v.describe()}" for k, v in self.items)
