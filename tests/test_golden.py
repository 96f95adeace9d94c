"""Golden `--format=json` reports for the four builtins.

Each golden is the byte-exact report of `cli.run(doc, commands, max_x=12)`
on the builtin named before the first `-` of the case name. A report too
large to commit (`timing-thm4-11`, 1.16 MB) is pinned by its SHA-256 in
`<case>.sha256` instead.
A change that alters a verdict, a witness or the report layout shows up here.
When a report is meant to change, regenerate the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from sdfkit import examples
from sdfkit.cli import parse_instance, report_to_json, run
from sdfkit.sigma_info import enumerate_eis

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
MAX_X = 12
BASE = ["verify", "ttree", "enumerate-eis"]


def _choice_checks(name: str) -> list:
    checks = []
    for choice in sorted(examples.all_named_choices(name)):
        checks += [f"predecessors:{choice}", f"classify:{choice}"]
    return checks


def _adapted_checks(name: str) -> list:
    build = {"simple": examples.build_simple, "variant": examples.build_variant}[name]
    count = len(enumerate_eis(build()))
    return [
        f"adapted:{choice}:{k}"
        for choice in sorted(examples.all_named_choices(name))
        for k in range(1, count + 1)
    ]


CASES = {
    "simple": lambda: BASE + _choice_checks("simple"),
    "simple-adapted": lambda: _adapted_checks("simple"),
    "variant": lambda: BASE + _choice_checks("variant"),
    "variant-adapted": lambda: _adapted_checks("variant"),
    "timing": lambda: BASE + ["apw", "apc"],
    "upandout": lambda: BASE + ["apw", "apc", "thm4-11"],
    "timing-thm4-11": lambda: ["thm4-11"],
}
DIGESTED = {"timing-thm4-11"}


def _report(name: str) -> str:
    builtin = name.partition("-")[0]
    doc = parse_instance(json.dumps({"kind": "builtin", "name": builtin}))
    return report_to_json(run(doc, CASES[name](), max_x=MAX_X), doc) + "\n"


def _digest(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest() + "\n"


@pytest.mark.parametrize("name", sorted(set(CASES) - DIGESTED))
def test_report_matches_golden(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_text()
    assert _report(name) == golden


def test_timing_thm4_11_matches_digest():
    report = _report("timing-thm4-11")
    assert _digest(report) == (GOLDEN_DIR / "timing-thm4-11.sha256").read_text()
    assert json.loads(report)["checks"][0]["data"] == {"checked": 5904, "skipped": 5904}


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(CASES):
        if name in DIGESTED:
            (GOLDEN_DIR / f"{name}.sha256").write_text(_digest(_report(name)))
        else:
            (GOLDEN_DIR / f"{name}.json").write_text(_report(name))
