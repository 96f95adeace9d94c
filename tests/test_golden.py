"""Golden `--format=json` reports for the four builtins and two documents.

Each golden in `CASES` is the byte-exact report of
`cli.run(doc, commands, max_x=12)` on the builtin named before the first
`-` of the case name; each in `DOCUMENTS` is the report on a document that
is not a builtin, at its own `max_x`. A report too
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

from sdfkit import cli, examples, order_core
from sdfkit.cli import parse_instance, report_to_json, run
from sdfkit.sigma_info import enumerate_eis

from tests_helpers import EXPLICIT_DOC, corpus_doc

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


def _two_way_explicit() -> str:
    obj = json.loads(EXPLICIT_DOC)
    obj["choices"] = {"left_a": ["a", "z"], "half": ["a"], "both": ["a", "b", "z"]}
    return json.dumps(obj)


# name -> (document, commands, max_x). Between them the two reports hold
# error, fail and partial records, a null `name` and a non-ASCII check id.
DOCUMENTS = {
    "draw-5": (
        lambda: corpus_doc(5),
        BASE + ["apw", "apc", "thm4-11", "frobnicate"],
        2,
    ),
    "explicit-sdf": (
        _two_way_explicit,
        BASE + [
            "predecessors:left_a", "classify:left_a", "classify:half", "classify:both",
            "adapted:left_a", "adapted:half:2", "adapted:left_a:99", "apw", "classify:\u00e9t\u00e9",
        ],
        MAX_X,
    ),
}


def run_case(name: str):
    """The report of the case `name` and the document it ran on."""
    if name in DOCUMENTS:
        text, commands, max_x = DOCUMENTS[name]
        doc = parse_instance(text())
    else:
        doc = parse_instance(json.dumps({"kind": "builtin", "name": name.partition("-")[0]}))
        commands, max_x = CASES[name](), MAX_X
    return run(doc, commands, max_x=max_x), doc


def _report(name: str) -> str:
    return report_to_json(*run_case(name)) + "\n"


def _digest(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest() + "\n"


@pytest.mark.parametrize("name", sorted(set(CASES) - DIGESTED) + sorted(DOCUMENTS))
def test_report_matches_golden(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_text()
    assert _report(name) == golden


def test_timing_thm4_11_matches_digest():
    report = _report("timing-thm4-11")
    assert _digest(report) == (GOLDEN_DIR / "timing-thm4-11.sha256").read_text()
    assert json.loads(report)["checks"][0]["data"] == {"checked": 5904, "skipped": 5904}


def test_thm4_11_reports_no_case_per_structure(monkeypatch):
    # every case of timing and upandout passes for every σ-algebra, so
    # thm4-11 takes each of their items from `verdict` without reading the
    # structure it is given
    from sdfkit.action_path import MeasurabilityCase

    verdict = MeasurabilityCase.verdict
    calls = reads = 0

    class Counting:
        def __init__(self, e):
            self.e = e

        def for_move(self, move):
            nonlocal reads
            reads += 1
            return self.e.for_move(move)

    def counting(self, e):
        nonlocal calls
        calls += 1
        return verdict(self, Counting(e))

    monkeypatch.setattr(MeasurabilityCase, "verdict", counting)
    timing = _report("timing-thm4-11")
    upandout = _report("upandout")
    assert (calls, reads) == (5904 + 45, 0)
    assert _digest(timing) == (GOLDEN_DIR / "timing-thm4-11.sha256").read_text()
    assert upandout == (GOLDEN_DIR / "upandout.json").read_text()


def test_reports_are_written_without_the_generic_writer(monkeypatch):
    # Every field of these reports has its declared type, so the report
    # skeleton (checks and items) never reaches `_emit_json` and nothing
    # reaches `json.dumps`, its fallback.
    reports = [run_case(name) for name in sorted(CASES) + sorted(DOCUMENTS)]
    for draw in range(200):
        doc = parse_instance(corpus_doc(draw))
        reports.append((run(doc, ["verify", "ttree", "enumerate-eis", "apw"], max_x=9), doc))
    dumped, emitted = [], []

    def dumps(*args, _fn=json.dumps, **kwargs):
        dumped.append(args)
        return _fn(*args, **kwargs)

    def emit_json(value, indent, out, _fn=cli._emit_json):
        emitted.append(value)
        return _fn(value, indent, out)

    monkeypatch.setattr(cli.json, "dumps", dumps)
    monkeypatch.setattr(cli, "_emit_json", emit_json)
    for report, doc in reports:
        report_to_json(report, doc)
    monkeypatch.undo()
    assert dumped == []
    assert [v for v in emitted if type(v) is dict and {"items", "witness"} & v.keys()] == []
    assert len(emitted) > len(reports)


def test_no_case_enumerates_maximal_chains(monkeypatch):
    # axiom 1, separation and the derived tree read each forest's leaves;
    # the literal chain enumeration is left to `separates` and the oracles
    calls = []

    def spy(p, _fn=order_core.maximal_chains):
        calls.append(p)
        return _fn(p)

    monkeypatch.setattr(order_core, "maximal_chains", spy)
    for name in sorted(CASES) + sorted(DOCUMENTS):
        run_case(name)
    assert calls == []


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sorted(CASES) + sorted(DOCUMENTS):
        if name in DIGESTED:
            (GOLDEN_DIR / f"{name}.sha256").write_text(_digest(_report(name)))
        else:
            (GOLDEN_DIR / f"{name}.json").write_text(_report(name))
