"""Golden `--format=json` reports for the four builtins.

Each golden is the byte-exact report of `cli.run(doc, commands, max_x=12)`
on the builtin named before the first `-` of the case name.
A change that alters a verdict, a witness or the report layout shows up here.
When a report is meant to change, regenerate the files with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

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
}


def _report(name: str) -> str:
    builtin = name.partition("-")[0]
    doc = parse_instance(json.dumps({"kind": "builtin", "name": builtin}))
    return report_to_json(run(doc, CASES[name](), max_x=MAX_X), doc) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_text()
    assert _report(name) == golden


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(CASES):
        (GOLDEN_DIR / f"{name}.json").write_text(_report(name))
