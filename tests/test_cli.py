import copy
import io
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdfkit
from sdfkit import cli, examples
from sdfkit.action_path import build_action_path_sdf
from sdfkit.cli import (
    BUILTINS,
    CheckRecord,
    InstanceDoc,
    ParseError,
    Report,
    _emit_json,
    builtin_doc,
    main,
    parse_instance,
    report_to_json,
    report_to_text,
    run,
)
from sdfkit.errors import WORK_CAP, KernelError, SizeCapError, StructureError
from sdfkit.sigma_info import enumerate_eis
from sdfkit.verdict import Verdict

import conftest
from conftest import (
    brute_report_to_json,
    oracle_fmt,
    oracle_measurability_sweep,
    oracle_parse_instance,
)
from tests_helpers import EXPLICIT_DOC, corpus_doc

TIMING_DOC = json.dumps(
    {
        "kind": "action-path",
        "scenarios": ["1", "2"],
        "time_points": ["0", "1", "2"],
        "generator": "timing",
        "agents": ["1", "2"],
    }
)


# one fault of a kind the parser meets while walking a set, several times over
MULTI_FAULT_DOCS = [
    {
        "kind": "action-path",
        "scenarios": ["x", "y", "z"],
        "time_points": ["0", "1"],
        "generator": {"name": "up-and-out", "price": {}},
    },
    {
        "kind": "action-path",
        "scenarios": ["a", "b", "c", "d", "e", "f"],
        "atoms": [["a", "b", "c"], ["a", "d", "e"], ["b", "d", "f"], ["c", "e", "f"]],
        "time_points": ["0"],
        "actions": ["u"],
        "paths": [],
    },
    {
        "kind": "action-path",
        "scenarios": ["p", "q", "r", "s"],
        "time_points": ["0"],
        "actions": ["u"],
        "paths": [{"scenario": "p", "path": ["u"]}],
    },
    {
        "kind": "action-path",
        "scenarios": ["w"],
        "time_points": ["0"],
        "actions": ["u"],
        "paths": [
            {"scenario": "w", "path": []},
            {"scenario": "w", "path": ["u", "u"]},
            {"scenario": "w", "path": ["u", "u", "u"]},
        ],
    },
    {
        "kind": "action-path",
        "scenarios": ["x", "y", "z"],
        "time_points": ["0", "1"],
        "generator": {
            "name": "up-and-out",
            "price": {"x": ["2", "1"], "y": ["2", "1"], "z": ["2", "1"]},
        },
    },
    {
        "kind": "explicit-sdf",
        "scenarios": ["L"],
        "outcomes": ["a", "b", "c", "d"],
        "outcome_scenarios": {},
        "nodes": [],
        "random_moves": [],
    },
    {
        "kind": "explicit-sdf",
        "scenarios": ["L", "R"],
        "outcomes": ["a", "b", "c", "d"],
        "outcome_scenarios": {"a": "L", "b": "R", "c": "L", "d": "R"},
        "nodes": [["a", "b"], ["c", "d"], ["a"], ["b"], ["c"], ["d"]],
        "random_moves": [],
    },
]

# the same for library calls no document reaches, each evaluated after
# `from sdfkit import *` and an import of `level_set_partition`
MULTI_FAULT_CALLS = [
    "Sdf.of(SetForest.of('abcd', ['ab', 'cd', 'a', 'b', 'c', 'd']), "
    "ScenarioSpace.discrete('LR'), {}, [])",
    "Sdf.of(SetForest.of('abc', ['a', 'b', 'c']), ScenarioSpace.discrete('L'), "
    "{(frozenset(o), o.upper()) for o in 'abc'}, [])",
    "Sdf.of(SetForest.of('ab', ['a', 'b']), ScenarioSpace.discrete('L'), "
    "{frozenset(o): 'L' for o in 'ab'}, [RandomMove.of({w: frozenset('a')}) for w in 'PQR'])",
    "level_set_partition(ScenarioSpace.of('abcd', ['ab', 'cd']), dict(zip('abcd', range(4))))",
    "SetForest.of('ab', {frozenset('az'), frozenset('by'), frozenset('q')})",
    "SetForest.of('ab', {frozenset('q'), frozenset(), frozenset('b')})",
]


def outputs_under_hash_seeds(script, cwd, stdin="") -> list:
    """The stdout of `script` run by one child interpreter per hash seed 0,
    1 and 42. The children import the same sdfkit as this process, found
    only through PYTHONPATH: they run in `cwd`, an empty directory, so the
    working directory cannot supply the package by accident."""
    source_root = str(Path(sdfkit.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "1", "42"):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=stdin,
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": source_root},
            cwd=cwd,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip(), f"no output under PYTHONHASHSEED={seed}"
        outputs.append(proc.stdout)
    return outputs


class TestParse:
    def test_builtin(self):
        doc = parse_instance('{"kind": "builtin", "name": "simple"}')
        assert doc.kind == "builtin" and doc.name == "simple"

    def test_timing_doc(self):
        doc = parse_instance(TIMING_DOC)
        assert doc.kind == "action-path"
        assert doc.po.space.agents == ("1", "2")
        assert len(doc.po.time.points) == 3

    def test_truncated_file_position(self):
        with pytest.raises(ParseError) as exc:
            parse_instance('{"kind": "builtin", ')
        assert exc.value.line == 1 and exc.value.col is not None

    def test_unknown_kind(self):
        with pytest.raises(ParseError) as exc:
            parse_instance('{"kind": "nope"}')
        assert "$.kind" in str(exc.value)

    def test_unknown_builtin(self):
        with pytest.raises(ParseError):
            parse_instance('{"kind": "builtin", "name": "unknown"}')

    def test_explicit_doc(self):
        doc = parse_instance(EXPLICIT_DOC)
        assert doc.kind == "explicit-sdf"
        assert len(doc.sdf.forest.nodes) == 6
        assert doc.doc_eis is not None and doc.doc_rcs is not None
        assert doc.named_choices["left_a"] == frozenset(["a", "z"])

    def test_unresolved_outcome(self):
        bad = json.loads(EXPLICIT_DOC)
        bad["nodes"][0] = ["a", "missing"]
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(bad))
        assert "missing" in str(exc.value)

    def test_unresolved_node_index(self):
        bad = json.loads(EXPLICIT_DOC)
        bad["random_moves"][0]["assignment"]["L"] = 99
        with pytest.raises(ParseError):
            parse_instance(json.dumps(bad))

    @pytest.mark.parametrize(
        "site, where",
        [
            ("eis", "$.eis[0].move"),
            ("rcs", "$.rcs[0].move"),
            ("assignment", "$.random_moves[0]"),
        ],
    )
    def test_boolean_index_rejected(self, site, where):
        # false == 0, so a bool index would silently name move or node 0
        bad = json.loads(EXPLICIT_DOC)
        if site == "assignment":
            bad["random_moves"][0]["assignment"]["L"] = False
        else:
            bad[site][0]["move"] = False
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(bad))
        assert exc.value.path == where

    @pytest.mark.parametrize(
        "section, entry",
        [
            ("eis", {"move": 0, "atoms": [["L"], ["R"]]}),
            ("rcs", {"move": 0, "choices": [["a", "b", "z", "y"]]}),
        ],
    )
    def test_repeated_move_index_rejected(self, section, entry):
        # a second entry for move 0 would silently replace the first
        bad = json.loads(EXPLICIT_DOC)
        bad[section].append(entry)
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(bad))
        assert str(exc.value) == f"move index 0 listed twice at $.{section}[1]"

    def test_boolean_path_scenario_rejected(self):
        # true == 1, so the path would land in scenario 1
        with pytest.raises(ParseError) as exc:
            _action_path_doc([1, 2], [0], ["a"], [(1, "a"), (2, "a"), (True, "a")])
        assert exc.value.path == "$.paths[2].scenario"

    @pytest.mark.parametrize("stand_in", [True, 1.0])
    def test_path_action_stand_in_rejected(self, stand_in):
        # true == 1 and 1.0 == 1, so either would be stored in place of action 1
        with pytest.raises(ParseError) as exc:
            _action_path_doc([1], [0], [0, 1], [(1, [0]), (1, [stand_in])])
        assert exc.value.path == "$.paths[1].path"

    @pytest.mark.parametrize(
        "entry", [{"scenario": True, "path": [1]}, {"scenario": 1, "path": [True]}]
    )
    def test_choice_outcome_stand_in_rejected(self, entry):
        obj = {
            "kind": "action-path",
            "scenarios": [1, 2],
            "time_points": ["0"],
            "actions": [0, 1],
            "paths": [{"scenario": 1, "path": [1]}, {"scenario": 2, "path": [0]}],
            "choices": {"first": [entry]},
        }
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(obj))
        assert exc.value.path == "$.choices.first"

    @pytest.mark.parametrize(
        "entry",
        [
            {"scenario": 1, "path": "ab"},  # a string is not the path ("a", "b")
            {"scenario": [1], "path": ["a", "b"]},
            {"scenario": 1},
            {"scenario": 1, "path": [["a"], "b"]},
        ],
    )
    def test_choice_outcome_field_types(self, entry):
        obj = {
            "kind": "action-path",
            "scenarios": [1],
            "time_points": ["0", "1"],
            "actions": ["a", "b"],
            "paths": [{"scenario": 1, "path": ["a", "b"]}],
            "choices": {"first": [entry]},
        }
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(obj))
        assert exc.value.path == "$.choices.first"

    def test_generated_choice_keeps_any_declared_scenario(self):
        obj = {
            "kind": "action-path",
            "scenarios": [1.5, 2],
            "time_points": ["0", "1"],
            "generator": "product",
            "actions": ["a", "b"],
            "choices": {"first": [{"scenario": 1.5, "path": ["a", "b"]}]},
        }
        doc = parse_instance(json.dumps(obj))
        assert doc.named_choices == {"first": frozenset({(1.5, ("a", "b"))})}

    def test_product_document_keeps_its_factorization(self):
        obj = {
            "kind": "action-path",
            "scenarios": ["1"],
            "time_points": ["0", "1"],
            "generator": "product",
            "actions": ["a", "b"],
            "factorization": {"a": {"i": "a"}, "b": {"i": "b"}},
        }
        text = json.dumps(obj)
        doc = parse_instance(text)
        assert doc.po.space.agents == ("i",)
        assert _parse_result(parse_instance, text) == _parse_result(oracle_parse_instance, text)
        [record] = run(doc, ["apc"]).records
        assert (record.status, record.message) == ("ok", "")

    def test_a_factorization_beside_a_generator_that_fixes_its_own_is_rejected(self):
        obj = {
            "kind": "action-path",
            "scenarios": ["1"],
            "time_points": ["0", "1"],
            "generator": "timing",
            "agents": ["i"],
            "factorization": {"a": {"i": "a"}},
        }
        text = json.dumps(obj)
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.path == "$.factorization"
        assert "generator 'timing' takes no factorization" in str(exc.value)
        assert _parse_result(parse_instance, text) == _parse_result(oracle_parse_instance, text)

    def test_array_action_in_paths_rejected(self):
        obj = {
            "kind": "action-path",
            "scenarios": [1],
            "time_points": ["0", "1"],
            "actions": ["a", "b"],
            "paths": [{"scenario": 1, "path": [["a"], "b"]}],
        }
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(obj))
        assert exc.value.path == "$.paths[0].path"

    def test_outcome_scenario_stand_in_rejected(self):
        obj = {
            "kind": "explicit-sdf",
            "scenarios": [1, 2],
            "outcomes": ["a", "z"],
            "outcome_scenarios": {"a": 1, "z": 2.0},
            "nodes": [["a"], ["z"]],
            "random_moves": [],
        }
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(obj))
        assert exc.value.path == "$.outcome_scenarios"

    def test_overlapping_atoms_are_a_parse_error(self):
        obj = json.loads(TIMING_DOC)
        obj["atoms"] = [["1", "2"], ["2"]]
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(obj))
        assert exc.value.path == "$.atoms"

    def test_atom_stand_in_rejected(self):
        obj = json.loads(TIMING_DOC)
        obj["scenarios"] = [1, 2]
        obj["atoms"] = [[True], [2]]
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(obj))
        assert exc.value.path == "$.atoms"

    @pytest.mark.parametrize(
        "kind, where, value, path",
        [
            ("explicit", ["scenarios"], [["s"]], "$.scenarios"),
            ("explicit", ["atoms"], [1], "$.atoms"),
            ("explicit", ["atoms"], [[[1]]], "$.atoms"),
            ("explicit", ["random_moves", 0, "domain"], 5, "$.random_moves[0].domain"),
            ("explicit", ["outcomes"], [["a"], "b"], "$.outcomes"),
            ("explicit", ["nodes", 0], [["a"]], "$.nodes[0]"),
            ("explicit", ["choices", "left_a"], [["a"]], "$.choices.left_a"),
            ("explicit", ["eis", 0, "atoms"], [1], "$.eis[0].atoms"),
            ("explicit", ["rcs", 0, "choices"], [1], "$.rcs[0].choices"),
            ("explicit", ["outcome_scenarios", "a"], ["L"], "$.outcome_scenarios"),
            ("paths", ["factorization"], {"a": [1], "b": {"1": "b"}}, "$.factorization"),
            ("paths", ["actions"], [["a"], "b"], "$.actions"),
            ("product", ["actions"], [["a"], "b"], "$.actions"),
            ("timing", ["agents"], [["1"], "2"], "$.agents"),
            ("paths", ["time_points"], ["1"], "$.time_points"),
            ("paths", ["time_points"], [False], "$.time_points"),
            ("paths", ["time_points"], [0.0], "$.time_points"),
            ("timing", ["generator"], {"name": "up-and-out", "price": {"1": [True]}}, "$.generator.price"),
            ("timing", ["generator"], {"name": "up-and-out", "price": {"1": [0.5]}}, "$.generator.price"),
            ("timing", ["generator"], {"name": "up-and-out", "price": {"1": ["1"]}, "barrier": False}, "$.generator.barrier"),
            ("timing", ["generator"], {"name": "up-and-out", "price": {"1": ["1"]}, "barrier": 2.5}, "$.generator.barrier"),
        ],
    )
    def test_malformed_value_is_a_parse_error(self, kind, where, value, path):
        # each once escaped parse_instance: a TypeError from hashing or
        # iterating the value, or the time axis's StructureError
        if kind == "explicit":
            obj = json.loads(EXPLICIT_DOC)
        else:
            obj = {"kind": "action-path", "scenarios": ["1"], "time_points": ["0"]}
            if kind == "paths":
                obj["actions"] = ["a", "b"]
                obj["paths"] = [{"scenario": "1", "path": [a]} for a in "ab"]
            else:
                obj["generator"] = kind
        target = obj
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(obj))
        assert exc.value.path == path

    def test_deep_nesting_is_a_syntax_error(self):
        # the JSON decoder recurses once per nesting level
        with pytest.raises(ParseError) as exc:
            parse_instance("[" * 200000 + "]" * 200000)
        assert str(exc.value).startswith("syntax error")

    def test_non_string_outcome_rejected_where_declared(self):
        # an outcome keys $.outcome_scenarios, whose keys are strings
        obj = json.loads(EXPLICIT_DOC)
        obj["outcomes"] = [1, "b", "z", "y"]
        obj["nodes"] = [[1, "b"], [1], ["b"], ["z", "y"], ["z"], ["y"]]
        obj["outcome_scenarios"]["1"] = obj["outcome_scenarios"].pop("a")
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(obj))
        assert exc.value.path == "$.outcomes"
        assert "outcome 1 is not a string, and outcome names key JSON objects" in str(exc.value)

    def test_non_string_scenario_rejected_where_an_assignment_keys_it(self):
        obj = {
            "kind": "explicit-sdf",
            "scenarios": ["1", 2],
            "outcomes": ["a", "b", "z"],
            "outcome_scenarios": {"a": "1", "b": "1", "z": 2},
            "nodes": [["a", "b"], ["a"], ["b"], ["z"]],
            "random_moves": [{"assignment": {"1": 0}}],
        }
        # scenario 2 carries a lone terminal and keys no assignment
        assert parse_instance(json.dumps(obj)).sdf is not None
        obj["random_moves"] += [{"assignment": {"2": 3}}]
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(obj))
        assert exc.value.path == "$.scenarios"
        assert "scenario 2 is not a string, and scenario names key JSON objects" in str(exc.value)

    def test_non_string_action_rejected_where_a_factorization_keys_it(self):
        paths = [(1, (1,)), (1, (2,))]
        # without a factorization, integer actions name no JSON key
        assert _action_path_doc([1], [0], [1, 2], paths).po is not None
        with pytest.raises(ParseError) as exc:
            _action_path_doc([1], [0], [1, 2], paths, {"1": {"A": "x"}, "2": {"A": "y"}})
        assert exc.value.path == "$.actions"
        assert "action 1 is not a string, and action names key JSON objects" in str(exc.value)
        # a key that spells no declared action stays unresolved
        with pytest.raises(ParseError) as exc:
            _action_path_doc([1], [0], [1, 2], paths, {"3": {"A": "x"}})
        assert exc.value.path == "$.factorization"
        assert "unresolved action '3'" in str(exc.value)

    def test_up_and_out_price_key_names_one_scenario(self):
        obj = {
            "kind": "action-path",
            "scenarios": [1, 2],
            "time_points": ["0", "1"],
            "generator": {"name": "up-and-out", "price": {"1": ["1", "3"], "2": ["1", "1"]}},
        }
        # the key "1" prices the integer scenario 1, knocked out at t=1
        paths = parse_instance(json.dumps(obj)).po.paths
        assert sorted(w for w, _ in paths) == [1, 1, 2, 2, 2]
        # ... unless scenario "1" is declared too: one row cannot serve both
        obj["scenarios"] = [1, "1"]
        obj["generator"]["price"] = {"1": ["1", "3"]}
        with pytest.raises(ParseError) as exc:
            parse_instance(json.dumps(obj))
        assert exc.value.path == "$.generator.price"
        assert "price key '1' names scenario 1 and scenario '1'" in str(exc.value)

    def test_schema_type_error(self):
        with pytest.raises(ParseError) as exc:
            parse_instance('{"kind": "explicit-sdf", "scenarios": "oops"}')
        assert "scenarios" in str(exc.value)

    def test_parser_totality_fuzz(self):
        rng = random.Random(7)
        corpus = [TIMING_DOC, EXPLICIT_DOC, '{"kind": "builtin", "name": "simple"}']
        printable = '{}[]",:abel0123 \n'
        for _ in range(300):
            base = rng.choice(corpus)
            text = list(base)
            for _ in range(rng.randint(1, 6)):
                op = rng.randrange(3)
                pos = rng.randrange(len(text)) if text else 0
                if op == 0 and text:
                    del text[pos]
                elif op == 1:
                    text.insert(pos, rng.choice(printable))
                elif text:
                    text[pos] = rng.choice(printable)
            try:
                parse_instance("".join(text))
            except ParseError:
                pass  # the only acceptable failure mode


# ---------------------------------------------------------------------------
# the decided parser against the walk that names every fault (conftest's
# `oracle_parse_instance`), on the benchmark's corpus documents and on
# documents one or two faults away from them

CORPUS_TEXTS = [corpus_doc(draw) for draw in range(200)]

# what a mutation may write into a scalar slot: stand-ins for declared values
# (true for 1, 1.0 for 1), an array or object, and undeclared values
SLOT_VALUES = [True, False, 1.0, [1], {"a": 1}, None, 1, "1", "a", "zz", 99]
TIME_TEXTS = ["1/2", "0.5", " 3", "+3", "007", "\u0663", "-1", "1/0", "", "0", "1", 3]
MUTATIONS = [
    "scenario", "atom", "atom-member", "time", "time-duplicate", "time-reversed",
    "action", "entry-scenario", "entry-action", "entry", "entry-key",
]


def _mutated(text, mutations) -> str:
    """The corpus document `text` with each (kind, i, j, value) mutation
    applied, indices taken modulo the length of what they index."""
    obj = json.loads(text)
    for kind, i, j, value in mutations:
        value = copy.deepcopy(value)  # a later mutation may write into it
        entries = obj["paths"]
        entry = entries[i % len(entries)] if entries else {}
        if kind == "scenario":
            obj["scenarios"][i % len(obj["scenarios"])] = value
        elif kind == "atom":
            obj["atoms"][i % len(obj["atoms"])] = value
        elif kind == "atom-member":
            atom = obj["atoms"][i % len(obj["atoms"])]
            if isinstance(atom, list) and atom:
                atom[j % len(atom)] = value
        elif kind == "time":
            obj["time_points"][i % len(obj["time_points"])] = value
        elif kind == "time-duplicate":
            points = obj["time_points"]
            points.insert(j % (len(points) + 1), points[i % len(points)])
        elif kind == "time-reversed":
            obj["time_points"].reverse()
        elif kind == "action":
            obj["actions"][i % len(obj["actions"])] = value
        elif kind == "entry-scenario" and isinstance(entry, dict):
            entry["scenario"] = value
        elif kind == "entry-action" and isinstance(entry, dict):
            seq = entry.get("path")
            if isinstance(seq, list) and seq:
                seq[j % len(seq)] = value
        elif kind == "entry" and entries:
            entries[i % len(entries)] = value
        elif kind == "entry-key" and isinstance(entry, dict):
            entry.pop(("scenario", "path")[j % 2], None)
    return json.dumps(obj)


CHOICE_MUTATIONS = ["choice-scenario", "choice-action", "choice-entry", "choice-truncate"]


def _with_choices(text) -> str:
    """The corpus document `text` with a `choices` section: choice "c" names
    its first two path entries, choice "d" its last one."""
    obj = json.loads(text)
    obj["choices"] = {"c": obj["paths"][:2], "d": obj["paths"][-1:]}
    return json.dumps(obj)


def _mutated_choices(text, mutations) -> str:
    """`text` with each (kind, i, j, value) mutation of CHOICE_MUTATIONS
    applied to the outcomes its choices list, indices taken modulo the
    length of what they index."""
    obj = json.loads(text)
    slots = [(outs, k) for _, outs in sorted(obj["choices"].items()) for k in range(len(outs))]
    for kind, i, j, value in mutations:
        value = copy.deepcopy(value)  # a later mutation may write into it
        outs, k = slots[i % len(slots)]
        seq = outs[k].get("path") if isinstance(outs[k], dict) else None
        if kind == "choice-entry":
            outs[k] = value
        elif kind == "choice-scenario" and isinstance(outs[k], dict):
            outs[k]["scenario"] = value
        elif kind == "choice-action" and isinstance(seq, list) and seq:
            seq[j % len(seq)] = value
        elif kind == "choice-truncate" and isinstance(seq, list):
            del seq[-1:]
    return json.dumps(obj)


def _typed_po(po):
    """`po` with the type of every scenario, action and time point beside it:
    `true` and 1.0 equal 1, so `==` alone cannot tell them apart."""
    def typed(values):
        return frozenset((type(v), v) for v in values)

    return (
        tuple(map(type, po.time.points)),
        typed(po.space.actions),
        typed(po.scenarios.scenarios),
        frozenset(typed(a) for a in po.scenarios.algebra_atoms),
        frozenset((type(w), w, tuple(map(type, f)), f) for w, f in po.paths),
    )


def _parse_result(parse, text):
    try:
        doc = parse(text)
    except ParseError as e:
        return ("error", str(e), e.path)
    return ("doc", doc.po, _typed_po(doc.po), doc.named_choices)


mutation = st.tuples(
    st.sampled_from(MUTATIONS),
    st.integers(0, 7),
    st.integers(0, 7),
    st.sampled_from(SLOT_VALUES + TIME_TEXTS),
)


choice_mutation = st.tuples(
    st.sampled_from(CHOICE_MUTATIONS),
    st.integers(0, 7),
    st.integers(0, 7),
    st.sampled_from(SLOT_VALUES),
)


class TestDecidedParse:
    @pytest.mark.parametrize(
        "text",
        ["0", "7", "007", "\u0663", "1\u0663", "\u00b2", "1_000", " 3", "3\n", "+3", "-0",
         "1/2", "0.5", "1e2", "", "1" * 5000, "1e4299", "1e4300", "1e-4300", "1e5000",
         "1e999999999", "0e999999999", 5, -2, True, 1.0, None],
    )
    def test_time_point_texts_match_fraction(self, text):
        # ASCII digits skip the Fraction parser; every text reads as it would
        def read(fraction):
            try:
                value = fraction(text, "$.time_points")
            except ParseError as e:
                return ("error", str(e), e.path)
            return ("value", type(value), value)

        assert read(cli._fraction) == read(conftest._fraction)

    @pytest.mark.parametrize("point", ["1e5000", "1e999999999"])
    def test_an_oversized_time_point_is_a_parse_error(self, point):
        # 10**5000 has more digits than an int prints: thm4-11 names t=…
        obj = json.loads(TIMING_DOC)
        obj["time_points"] = ["0", "1", point]
        with pytest.raises(ParseError) as err:
            parse_instance(json.dumps(obj))
        assert str(err.value) == f"bad rational {point!r} at $.time_points"

    @pytest.mark.parametrize("field", ["price", "barrier"])
    def test_an_oversized_price_or_barrier_is_a_parse_error(self, field):
        generator = {"name": "up-and-out", "price": {"x": ["1", "3"], "y": ["1", "1"]}}
        if field == "price":
            generator["price"]["x"][1] = "1e5000"
        else:
            generator["barrier"] = "1e5000"
        obj = {"kind": "action-path", "scenarios": ["x", "y"], "time_points": ["0", "1"]}
        with pytest.raises(ParseError) as err:
            parse_instance(json.dumps({**obj, "generator": generator}))
        assert str(err.value) == f"bad rational '1e5000' at $.generator.{field}"

    @pytest.mark.parametrize(
        ("point", "value"), [("1e2", Fraction(100)), ("0.5", Fraction(1, 2)), ("1/3", Fraction(1, 3))]
    )
    def test_small_time_points_read_as_before(self, point, value):
        obj = json.loads(TIMING_DOC)
        obj["time_points"] = ["0", point]
        doc = parse_instance(json.dumps(obj))
        assert doc.po.time.points == (0, value)
        [thm] = run(doc, ["thm4-11"], max_x=12).records
        assert thm.status == "ok" and any(f", t={value}, " in name for name, _ in thm.items)

    def test_corpus_matches_the_walk(self):
        for text in CORPUS_TEXTS:
            assert _parse_result(parse_instance, text) == _parse_result(oracle_parse_instance, text)

    # each fault the parser decides on pairs or orders, once on draw 0
    @example(0, [("entry-scenario", 0, 0, True)])
    @example(0, [("entry-action", 0, 0, [1])])
    @example(0, [("entry", 1, 0, ["a"])])
    @example(0, [("entry-key", 0, 1, None)])
    @example(0, [("entry-scenario", 0, 0, 99)])
    @example(0, [("entry-action", 0, 0, "zz")])
    @example(0, [("time-duplicate", 1, 1, None)])
    @example(0, [("time-reversed", 0, 0, None)])
    @example(0, [("time", 1, 0, "\u0663")])
    @example(0, [("atom-member", 0, 0, 1.0)])
    @example(0, [("atom", 0, 0, "ab")])
    @given(st.integers(0, len(CORPUS_TEXTS) - 1), st.lists(mutation, min_size=1, max_size=2))
    @settings(max_examples=250, deadline=None)
    def test_mutated_corpus_matches_the_walk(self, draw, mutations):
        text = _mutated(CORPUS_TEXTS[draw], mutations)
        assert _parse_result(parse_instance, text) == _parse_result(oracle_parse_instance, text)

    # each fault of an outcome of a named choice, once on draw 0
    @example(0, [])
    @example(0, [("choice-truncate", 0, 0, None)])
    @example(0, [("choice-scenario", 2, 0, 99)])
    @example(0, [("choice-scenario", 1, 0, True)])
    @example(0, [("choice-action", 0, 0, "zz")])
    @example(0, [("choice-entry", 0, 0, "a")])
    @given(st.integers(0, len(CORPUS_TEXTS) - 1), st.lists(choice_mutation, max_size=2))
    @settings(max_examples=100, deadline=None)
    def test_mutated_choices_match_the_walk(self, draw, mutations):
        text = _mutated_choices(_with_choices(CORPUS_TEXTS[draw]), mutations)
        assert _parse_result(parse_instance, text) == _parse_result(oracle_parse_instance, text)

    def test_an_unresolved_outcome_is_named_where_it_is_listed(self):
        # the one outcome that resolves to nothing is formatted, in each branch
        def error(text):
            with pytest.raises(ParseError) as caught:
                parse_instance(text)
            return str(caught.value), caught.value.path

        doc = json.loads(_with_choices(CORPUS_TEXTS[0]))
        doc["choices"]["d"][0]["path"].pop()
        w = (doc["choices"]["d"][0]["scenario"], tuple(doc["choices"]["d"][0]["path"]))
        assert error(json.dumps(doc)) == (
            f"unresolved outcome {oracle_fmt(w)} at $.choices.d", "$.choices.d"
        )
        explicit = json.loads(EXPLICIT_DOC)
        explicit["nodes"][2] = ["b", "q"]
        assert error(json.dumps(explicit)) == ("unresolved outcome 'q' at $.nodes[2]", "$.nodes[2]")
        explicit = json.loads(EXPLICIT_DOC)
        explicit["choices"]["left_a"].append("q")
        assert error(json.dumps(explicit)) == (
            "unresolved outcome 'q' at $.choices.left_a", "$.choices.left_a"
        )


class TestRun:
    def test_simple_verify_and_eis(self):
        doc = builtin_doc("simple")
        report = run(doc, ["verify", "enumerate-eis"])
        assert report.ok
        assert report.records[0].status == "ok"
        assert report.records[1].data["count"] == 5

    def test_variant_eis_count(self):
        report = run(builtin_doc("variant"), ["enumerate-eis"])
        assert report.records[0].data["count"] == 3

    def test_predecessors_of_first_stage_choice(self, simple, simple_moves):
        report = run(builtin_doc("simple"), ["predecessors:c_1_any"])
        nodes = set(report.records[0].data["nodes"])
        from sdfkit._canon import fmt

        assert nodes == {fmt(x) for x in simple_moves["x0"].image}

    def test_adapted_by_eis_index(self):
        doc = builtin_doc("simple")
        report = run(doc, ["adapted:c_1_11:1"])
        assert report.ok

    def test_unknown_command(self):
        report = run(builtin_doc("simple"), ["frobnicate"])
        assert not report.ok
        assert report.records[0].status == "error"

    def test_explicit_doc_checks(self):
        doc = parse_instance(EXPLICIT_DOC)
        report = run(doc, ["verify", "ttree", "classify:left_a", "adapted:left_a"])
        assert report.ok, report_to_text(report, doc)

    def test_timing_full_pipeline(self):
        doc = parse_instance(TIMING_DOC)
        report = run(doc, ["verify", "ttree"], max_x=12)
        assert report.ok

    def test_apw_and_apc_commands(self):
        doc = parse_instance(TIMING_DOC)
        report = run(doc, ["apw", "apc"], max_x=12)
        assert report.ok

    def test_cap_error_reported(self, monkeypatch):
        # axiom 1 and the T-tree's separation read the forests' leaves and
        # enumerate no chains, so a work cap of 10 leaves both with verdicts:
        # 3e reads partial above max_x, and exhaustive at 12 stays under it
        monkeypatch.setattr("sdfkit.errors.WORK_CAP", 10)
        doc = parse_instance(TIMING_DOC)
        verify, ttree = run(doc, ["verify", "ttree"]).records
        assert [(verify.status, verify.message), (ttree.status, ttree.message)] == [
            ("partial", ""), ("ok", "")
        ]
        verify, ttree = run(doc, ["verify", "ttree"], max_x=12).records
        assert [(verify.status, verify.message), (ttree.status, ttree.message)] == [
            ("ok", ""), ("ok", "")
        ]

    def test_eis_search_counts_against_the_work_cap(self, monkeypatch):
        # three scenarios over {a, b}^3: 7 moves of 5 candidates each and
        # 1520 structures; the search, not a candidate list, outruns 1000
        scenarios = ["1", "2", "3"]
        paths = [(w, f) for w in scenarios for f in itertools.product("ab", repeat=3)]
        doc = _action_path_doc(scenarios, range(3), ["a", "b"], paths)
        [eis] = run(doc, ["enumerate-eis"]).records
        assert (eis.status, eis.data["count"]) == ("ok", 1520)
        monkeypatch.setattr("sdfkit.errors.WORK_CAP", 1000)
        [eis] = run(doc, ["enumerate-eis"]).records
        assert (eis.status, eis.message) == (
            "error", "cap-exceeded: EIS enumeration exceeded 1000 work units"
        )


def parent_named_choices(instance):
    """Every choice name with a nonempty outcome set, by trying each slot pair."""
    slots = {
        "any": None,
        "1": 1,
        "2": 2,
        "11": {1: 1, 2: 1},
        "12": {1: 1, 2: 2},
        "21": {1: 2, 2: 1},
        "22": {1: 2, 2: 2},
    }
    outcomes_fn = {
        "simple": examples.simple_choice_outcomes,
        "variant": examples.variant_choice_outcomes,
    }[instance]
    out = {}
    for a, b in itertools.product(slots, repeat=2):
        if a == b == "any":
            continue
        outcomes = outcomes_fn(slots[a], slots[b])
        if outcomes:
            out[f"c_{a}_{b}"] = outcomes
    return out


class TestNamedChoices:
    @pytest.mark.parametrize("builtin", ["simple", "variant"])
    def test_every_name_resolves_to_its_set(self, builtin):
        known = parent_named_choices(builtin)
        assert examples.all_named_choices(builtin) == known
        doc = builtin_doc(builtin)
        assert doc.named_choices == known
        for name in known:
            report = run(doc, [f"predecessors:{name}"])
            assert report.records[0].status == "ok"

    @pytest.mark.parametrize("builtin", ["simple", "variant"])
    @pytest.mark.parametrize(
        # c_9_9 parses to an empty set; "١" is a digit int() reads as 1
        "name", ["c_any_any", "c_3_any", "c_1_2_3", "x_1_1", "c_9_9", "c_\u0661_any"]
    )
    def test_unknown_name_lists_every_known_name(self, builtin, name):
        report = run(builtin_doc(builtin), [f"classify:{name}"])
        record = report.records[0]
        assert record.status == "error"
        assert record.message == (
            f"kernel-error: unknown choice {name!r}; known: "
            + ", ".join(sorted(parent_named_choices(builtin)))
        )


def _action_path_doc(scenarios, times, actions, paths, factorization=None):
    obj = {
        "kind": "action-path",
        "scenarios": scenarios,
        "time_points": [str(t) for t in times],
        "actions": actions,
        "paths": [{"scenario": w, "path": list(f)} for w, f in paths],
    }
    if factorization is not None:
        obj["factorization"] = factorization
    return parse_instance(json.dumps(obj))


def _comparable(record):
    return record.status, record.message, record.items, record.data


class TestOncePerRun:
    def test_verify_and_apw_reuse_the_build(self, monkeypatch):
        import sdfkit.action_path
        import sdfkit.cli

        calls = {"check_apw": 0, "verify_sdf": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (sdfkit.cli, sdfkit.action_path):
            for name in calls:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        doc = parse_instance(TIMING_DOC)
        report = run(doc, ["verify", "apw", "verify"], max_x=12)
        assert report.ok
        assert calls == {"check_apw": 1, "verify_sdf": 1}
        assert _comparable(report.records[0]) == _comparable(report.records[2])

    def test_w2_decided_at_nine_times_same_for_verify_and_apw(self):
        times = range(9)
        doc = _action_path_doc(["1"], times, ["a"], [("1", ["a"] * 9)])
        report = run(doc, ["verify", "apw"])
        verify, apw = report.records
        assert (verify.status, apw.status) == ("ok", "ok")
        assert [k for k, v in apw.items if v.ok] == ["W0", "W1", "W2", "W3"]
        assert verify.items[:4] == tuple((f"AP.{k}", v) for k, v in apw.items)

    def test_assumption_failure_keeps_its_items(self):
        # W2 holds on every outcome set (agreement on the latest prefix of a
        # time set implies agreement on all of it), so W3 is the failing one.
        paths = [
            ("1", "11"), ("1", "12"), ("1", "21"),
            ("2", "21"), ("2", "22"), ("2", "11"),
        ]
        doc = _action_path_doc(["1", "2"], [0, 1], ["1", "2"], paths)
        verify, apw = run(doc, ["verify", "apw"]).records
        assert verify.status == "fail"
        assert verify.message.startswith("assumption-failure: outcome set violates AP.W3")
        assert [k for k, _ in verify.items] == ["AP.W0", "AP.W1", "AP.W2", "AP.W3"]
        assert [v for _, v in verify.items] == [v for _, v in apw.items]
        assert apw.status == "fail"

    def test_thm4_11_builds_each_case_once(self, monkeypatch):
        # the agent choice is decided once per distinct (agent, t, histories,
        # g), from the split table with no window choice built, and check_apc3
        # runs once per (case, available move), however many EIS there are
        import sdfkit.action_path
        from sdfkit._canon import canon_sorted
        from sdfkit.action_path import agent_choice, build_action_path_sdf
        from sdfkit.choice import Choice, classify
        from sdfkit.sigma_info import enumerate_eis

        aps = build_action_path_sdf(examples.upandout_path_outcomes(), max_x_exhaustive=12)
        po = aps.po
        assert len(enumerate_eis(aps.sdf)) > 1
        scenarios = canon_sorted(po.scenarios.scenarios)
        cases = set()
        for agent in po.space.agents:
            for move, t in aps.move_times:
                k = po.time.index(t)
                own = frozenset(f[:k] for node in move.image for _, f in node)
                for hist in (po.index.realized_prefixes(t), own):
                    for values in itertools.product(
                        canon_sorted(po.space.components(agent)), repeat=len(scenarios)
                    ):
                        cases.add((agent, t, hist, values))
        pairs = 0
        for agent, t, hist, values in cases:
            wc = agent_choice(po, t, hist, agent, dict(zip(scenarios, values)))
            if wc.ok:
                pairs += len(classify(aps.sdf, Choice.of(aps.sdf, wc.outcomes)).available_at)
        assert pairs > 0

        calls = {"_choice_outcomes": 0, "agent_choice": 0, "check_apc3": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(
                sdfkit.action_path, name, counting(name, getattr(sdfkit.action_path, name))
            )
        [record] = run(builtin_doc("upandout"), ["thm4-11"], max_x=12).records
        assert record.status == "ok"
        assert calls == {"_choice_outcomes": len(cases), "agent_choice": 0, "check_apc3": pairs}

    def test_apc3_decides_only_the_pieces_it_reads(self, monkeypatch):
        # `apc` tries H = {p_x} only, so it decides one piece per move and
        # nonempty component set: 127 × (2^2 − 1) on the one-agent
        # {a, b}^7 document, where every realized history's pieces number
        # Σ_moves 3·|realized_k| = 16383. With a choice, as `thm4-11` calls
        # it, each piece of a hit (H, generator) is decided by the search.
        import sdfkit.action_path as ap

        decide, apc3 = ap._c0_c2, ap.check_apc3
        decided = []
        hits = []

        def counting(splits, chosen):
            decided.append(splits)
            return decide(splits, chosen)

        def watched(aps, agent, move, *, choice=None):
            result = apc3(aps, agent, move, choice=choice)
            if result.verdict.ok:
                hits.append((aps, agent, move, result))
            return result

        monkeypatch.setattr(ap, "_c0_c2", counting)
        monkeypatch.setattr(ap, "check_apc3", watched)
        paths = [("1", f) for f in itertools.product("ab", repeat=7)]
        factorization = {"a": {"i": "a"}, "b": {"i": "b"}}
        doc = _action_path_doc(["1"], range(7), ["a", "b"], paths, factorization)
        [apc] = run(doc, ["apc"]).records
        assert (apc.status, len(apc.items)) == ("ok", 127)
        assert len(decided) == 127 * 3

        paths = [("1", f) for f in itertools.product("ab", repeat=5)]
        five = _action_path_doc(["1"], range(5), ["a", "b"], paths, factorization)
        for doc, max_x in ((builtin_doc("upandout"), 12), (five, 6)):
            hits.clear()
            [thm] = run(doc, ["thm4-11"], max_x=max_x).records
            assert thm.status == "ok" and hits
            for aps, agent, move, result in hits:
                assert {
                    (agent, move, g, h) for g in result.generator if g for h in result.histories
                } <= aps._pieces.keys()
        # on {a, b}^5 the "all" cases require every realized history
        assert any(len(r.histories) == 16 for *_, r in hits)

    def test_structures_and_reference_choices_read_once(self, monkeypatch):
        # a builtin's reference choices are built when it is parsed; the
        # structures and the RCS verdict once per run
        import sdfkit.cli

        choice = sorted(examples.all_named_choices("simple"))[0]
        commands = ["enumerate-eis"] + [f"adapted:{choice}:{k}" for k in range(1, 5)]
        alone = [run(builtin_doc("simple"), [c]).records[0] for c in commands]
        upandout = builtin_doc("upandout")
        upandout_alone = [run(upandout, [c], max_x=12).records[0] for c in ("enumerate-eis", "thm4-11")]
        calls = {"enumerate_eis": 0, "simple_rcs": 0, "verify_rcs": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, module in (
            ("enumerate_eis", sdfkit.cli),
            ("simple_rcs", examples),
            ("verify_rcs", sdfkit.cli),
        ):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        simple = parse_instance('{"kind": "builtin", "name": "simple"}')
        assert calls == {"enumerate_eis": 0, "simple_rcs": 1, "verify_rcs": 0}
        for _ in range(2):
            report = run(simple, commands)
            assert [_comparable(r) for r in report.records] == [_comparable(r) for r in alone]
            assert report.ok
        assert calls == {"enumerate_eis": 2, "simple_rcs": 1, "verify_rcs": 2}
        report = run(upandout, ["enumerate-eis", "thm4-11"], max_x=12)
        assert calls["enumerate_eis"] == 3
        assert [_comparable(r) for r in report.records] == [_comparable(r) for r in upandout_alone]

    @pytest.mark.parametrize("name", BUILTINS)
    def test_runs_on_one_parsed_builtin_share_its_instance(self, monkeypatch, name):
        # the forest or outcome set is built at parse; every run reads that
        # one object and reports what a run on a fresh parse reports
        import sdfkit.cli

        text = json.dumps({"kind": "builtin", "name": name})
        choices = sorted(examples.all_named_choices(name))[:2]
        commands = ["verify", "ttree", "enumerate-eis", "apw"] + [f"adapted:{c}:1" for c in choices]
        fresh = []
        for _ in range(3):
            doc = parse_instance(text)
            fresh.append(report_to_json(run(doc, commands), doc))
        read = []

        def watching(fn):
            def wrapper(instance, *args, **kwargs):
                read.append(instance)
                return fn(instance, *args, **kwargs)

            return wrapper

        for fn in ("verify_sdf", "check_apw"):
            monkeypatch.setattr(sdfkit.cli, fn, watching(getattr(sdfkit.cli, fn)))
        doc = parse_instance(text)
        shared = [report_to_json(run(doc, commands), doc) for _ in range(3)]
        assert len(read) == 3 and all(x is (doc.sdf or doc.po) for x in read)
        assert shared == fresh

    def test_apw_alone_builds_nothing(self, monkeypatch):
        import sdfkit.cli

        built = []
        construct = sdfkit.cli._construct_action_path_sdf

        def counting(*args, **kwargs):
            built.append(args)
            return construct(*args, **kwargs)

        monkeypatch.setattr(sdfkit.cli, "_construct_action_path_sdf", counting)
        [apw] = run(parse_instance(TIMING_DOC), ["apw"]).records
        assert apw.status == "ok"
        assert built == []

    def test_every_command_shares_one_build(self, monkeypatch):
        import sdfkit.action_path
        import sdfkit.cli

        calls = {"check_apw": 0, "_construct_action_path_sdf": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (sdfkit.cli, sdfkit.action_path):
            for name in calls:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        commands = ["verify", "ttree", "enumerate-eis", "apw", "apc", "thm4-11"]
        report = run(builtin_doc("upandout"), commands, max_x=12)
        assert report.ok
        assert calls == {"check_apw": 1, "_construct_action_path_sdf": 1}

    def test_timing_enumerate_eis_renders_each_sigma_once(self, monkeypatch):
        # enumerate_eis reuses each move's candidate σ-algebras, so 82 EIS of
        # 9 moves hold 18 σ objects; each one's atoms are rendered once
        from sdfkit import _canon, action_path, choice, order_core, sdf, set_forest, sigma_info
        import sdfkit.cli

        renders = []
        real = _canon.fmt

        def counting(value):
            # an atom set: a nonempty set of sets
            if type(value) is frozenset and value and all(type(a) is frozenset for a in value):
                renders.append(value)
            return real(value)

        for module in (_canon, order_core, set_forest, sdf, action_path, sigma_info, choice, sdfkit.cli):
            if hasattr(module, "fmt"):
                monkeypatch.setattr(module, "fmt", counting)
        [record] = run(builtin_doc("timing"), ["enumerate-eis"], max_x=12).records
        monkeypatch.undo()
        structures = enumerate_eis(examples.timing_instance().sdf)
        assert record.data["structures"] == [
            [[oracle_fmt(sigma.atoms) for _, sigma in e.entries]] for e in structures
        ]
        assert (len(structures), len(structures[0].entries)) == (82, 9)
        assert 0 < len(renders) <= 18

    def test_a_build_error_reads_the_same_in_every_command(self):
        records = run(_w3_failing_doc(), ["ttree", "apc", "enumerate-eis"]).records
        assert [(r.status, r.message) for r in records] == [("error", W3_BUILD_ERROR)] * 3

    def test_a_missing_reference_choice_structure_errs_in_every_command(self):
        doc = _explicit(rcs=None)
        records = run(doc, ["adapted:left_a:1", "adapted:left_a"]).records
        assert [r.status for r in records] == ["error", "error"]
        assert records[0].message == records[1].message
        assert records[0].message.endswith("adapted needs a reference choice structure (rcs)")


def _two_agent_doc():
    # agents i and j over actions a-d; scenario 2 cannot start with a or b,
    # so some window choices fail C0-C2, and the document has 5 structures
    factorization = {
        "a": {"i": "x", "j": "u"}, "b": {"i": "x", "j": "v"},
        "c": {"i": "y", "j": "u"}, "d": {"i": "y", "j": "v"},
    }
    paths = [
        (w, f)
        for w in "12"
        for f in itertools.product("abcd", repeat=2)
        if w == "1" or f[0] not in "ab"
    ]
    return _action_path_doc(["1", "2"], [0, 1], list("abcd"), paths, factorization)


def _thm4_11_by_the_oracle(doc, max_x):
    """`thm4-11`'s (status, message, items, data), expanded case by case from
    `oracle_measurability_sweep`: a case that fails C0-C2 is skipped, any
    other error ends the check."""
    aps = build_action_path_sdf(doc.po, max_x_exhaustive=max_x)
    items = []
    skipped = 0
    for c in oracle_measurability_sweep(aps, enumerate_eis(aps.sdf)):
        result = c.result
        if isinstance(result, SizeCapError):
            return "error", f"cap-exceeded: {result}", (), {}
        if isinstance(result, KernelError):
            if result.code != "precondition-violation":
                return "error", f"{result.code}: {result}", (), {}
            skipped += 1
            continue
        name = (
            f"agent {c.agent}, eis {c.eis_index}, t={c.t}, {c.label}, "
            f"g={oracle_fmt(tuple(c.g.values()))}"
        )
        items.append((name, result))
    status = "ok" if all(v.ok for _, v in items) else "fail"
    return status, "", tuple(items), {"skipped": skipped, "checked": len(items)}


class TestThm411:
    def test_matches_the_oracle_sweep(self):
        two = _two_agent_doc()
        for doc in (builtin_doc("timing"), builtin_doc("upandout"), two):
            [thm] = run(doc, ["thm4-11"], max_x=12).records
            expected = _thm4_11_by_the_oracle(doc, 12)
            assert (thm.status, thm.message, thm.items, thm.data) == expected
            # a passed item carries the one shared verdict
            assert all(v is Verdict.passed() for _, v in thm.items if v.ok)
        # the last record is the two-agent document's
        structures = enumerate_eis(build_action_path_sdf(two.po, max_x_exhaustive=12).sdf)
        assert (len(two.po.space.agents), len(structures)) == (2, 5)
        assert thm.data == {"skipped": 40, "checked": 360}

    def test_failed_reports_become_failed_items(self, monkeypatch):
        # Theorem 4.11 holds on every document the suite builds, so a stub
        # adds an event no σ-algebra holds at the case's first move: forward
        # fails wherever g is measurable there, and the stubbed cases no
        # longer pass for every σ
        import sdfkit.action_path as ap

        init = ap.MeasurabilityCase.__init__

        def failing(self, *args):
            init(self, *args)
            if self.moves:
                move, levels, events, apc3 = self.moves[0]
                self.moves[0] = (move, levels, events | {frozenset(["stub"])}, apc3)

        monkeypatch.setattr(ap.MeasurabilityCase, "__init__", failing)
        monkeypatch.setattr(ap.MeasurabilityCase, "holds_for_every_sigma", False)
        doc = _two_agent_doc()
        [thm] = run(doc, ["thm4-11"], max_x=12).records
        assert thm.status == "fail"
        assert {v.ok for _, v in thm.items} == {True, False}
        assert (thm.status, thm.message, thm.items, thm.data) == _thm4_11_by_the_oracle(doc, 12)

    @pytest.mark.parametrize("report_fails_at", [1, 2])
    def test_errors_are_raised_in_walk_order(self, monkeypatch, report_fails_at):
        # a late row of agent i fails to build and an early row's verdict
        # fails at one structure: whichever the walk agents × structures ×
        # rows reaches first ends the check, as in the oracle's order
        import sdfkit.action_path as ap

        doc = _two_agent_doc()
        aps = build_action_path_sdf(doc.po, max_x_exhaustive=12)
        structures = enumerate_eis(aps.sdf)
        keys = [
            (t, histories, tuple(g.values()))
            for t, _, histories, g, case in ap.sweep_rows(aps, "i")
            if not isinstance(case, KernelError)
        ]
        early, late = keys[0], keys[-1]
        assert keys.index(late) > 0
        fails_at = structures[report_fails_at - 1].entries

        class Stubbed(ap.MeasurabilityCase):
            def __init__(self, aps, agent, t, histories, g):
                self.key = (agent, t, histories, tuple(g.values()))
                if self.key == ("i", *late):
                    raise StructureError("late row")
                super().__init__(aps, agent, t, histories, g)

            def verdict(self, e):
                if self.key == ("i", *early) and e.entries == fails_at:
                    raise StructureError("early report")
                return super().verdict(e)

        monkeypatch.setattr(ap, "MeasurabilityCase", Stubbed)
        [thm] = run(doc, ["thm4-11"], max_x=12).records
        message = {1: "structure-error: early report", 2: "structure-error: late row"}
        assert (thm.status, thm.message) == ("error", message[report_fails_at])
        assert (thm.status, thm.message, thm.items, thm.data) == _thm4_11_by_the_oracle(doc, 12)

    def test_cap_error_is_reported_not_skipped(self, monkeypatch):
        # four agent components after "a": the AP.C3 generator search tries
        # more than the patched 20 families, inside the sweep as in apc;
        # the build's own searches stay below that cap
        import sdfkit.errors

        acts = "abcd"
        paths = [
            (1, f)
            for f in itertools.product(acts, repeat=2)
            if f not in (("a", "c"), ("a", "d"))
        ]
        doc = _action_path_doc([1], [0, 1], list(acts), paths, {a: {"1": a} for a in acts})
        monkeypatch.setattr(sdfkit.errors, "WORK_CAP", 20)
        verify, apc, thm = run(doc, ["verify", "apc", "thm4-11"]).records
        message = "cap-exceeded: AP.C3 generator search exceeded 20 families"
        assert verify.status == "ok"
        assert (apc.status, apc.message) == ("error", message)
        assert (thm.status, thm.message) == ("error", message)

    def test_sixteen_realized_histories_get_verdicts(self):
        # one scenario, actions a/b, times 0-4: 16 realized histories at t=4,
        # whose 2^16 history subsets are never enumerated
        paths = [("1", f) for f in itertools.product("ab", repeat=5)]
        factorization = {"a": {"1": "a"}, "b": {"1": "b"}}
        doc = _action_path_doc(["1"], range(5), ["a", "b"], paths, factorization)
        apc, thm = run(doc, ["apc", "thm4-11"]).records
        assert (apc.status, len(apc.items)) == ("ok", 31)
        assert (thm.status, thm.data) == ("ok", {"skipped": 0, "checked": 124})

    def test_only_failed_preconditions_are_skipped(self, monkeypatch):
        import sdfkit.action_path
        from sdfkit.errors import StructureError

        def failing(*args, **kwargs):
            raise StructureError("agent reference choices fail to verify: stub")

        monkeypatch.setattr(sdfkit.action_path, "_agent_pieces", failing)
        [thm] = run(builtin_doc("upandout"), ["thm4-11"], max_x=12).records
        assert (thm.status, thm.message) == (
            "error", "structure-error: agent reference choices fail to verify: stub"
        )


def _explicit(**change):
    """EXPLICIT_DOC with the given top-level fields replaced (None deletes)."""
    obj = json.loads(EXPLICIT_DOC)
    for key, value in change.items():
        if value is None:
            del obj[key]
        else:
            obj[key] = value
    return parse_instance(json.dumps(obj))


def _factorless_doc():
    paths = [(w, f) for w in "12" for f in ("11", "12", "21", "22")]
    return _action_path_doc(["1", "2"], [0, 1], ["1", "2"], paths)


def _w3_failing_doc():
    paths = [("1", "11"), ("1", "12"), ("1", "21"), ("2", "21"), ("2", "22"), ("2", "11")]
    return _action_path_doc(["1", "2"], [0, 1], ["1", "2"], paths)


W3_BUILD_ERROR = (
    "kernel-error: assumption-failure: outcome set violates AP.W3 "
    "(t=1: prefixes (1) on {1} and (2) on {2} could be identified)"
)
TWO_WAY_CHOICES = {"left_a": ["a", "z"], "half": ["a"], "both": ["a", "b", "z"]}

# (document, check, caps) -> (status, message, [(item name, item code)])
ERROR_AND_FAIL_PATHS = [
    (lambda: builtin_doc("simple"), "frobnicate",
     ("error", "kernel-error: unknown command 'frobnicate'", [])),
    (lambda: parse_instance(EXPLICIT_DOC), "apw",
     ("error", "kernel-error: apw applies to action-path instances only", [])),
    (lambda: parse_instance(EXPLICIT_DOC), "apc",
     ("error", "kernel-error: apc needs a built action-path instance", [])),
    (lambda: parse_instance(EXPLICIT_DOC), "thm4-11",
     ("error", "kernel-error: thm4-11 needs a built action-path instance", [])),
    (_factorless_doc, "apc", ("error", "kernel-error: apc needs a factorization", [])),
    (_factorless_doc, "thm4-11",
     ("error", "kernel-error: thm4-11 needs a factorization", [])),
    (_w3_failing_doc, "apc", ("error", W3_BUILD_ERROR, [])),
    (_w3_failing_doc, "thm4-11", ("error", W3_BUILD_ERROR, [])),
    (lambda: _explicit(eis=None), "adapted:left_a",
     ("error", "kernel-error: adapted needs an eis section or an :<index> suffix", [])),
    (lambda: _explicit(rcs=None), "adapted:left_a",
     ("error", "kernel-error: adapted needs a reference choice structure (rcs)", [])),
    (lambda: parse_instance(EXPLICIT_DOC), "adapted:left_a:99",
     ("error", "kernel-error: eis index 99 out of range 1..2", [])),
    (lambda: _explicit(rcs=[{"move": 0, "choices": [["a", "z"], ["b"]]}]),
     "adapted:left_a", ("fail", "", [("preconditions", "rcs-incomplete")])),
    (lambda: _explicit(atoms=[["L", "R"]], eis=[{"move": 0, "atoms": [["L"], ["R"]]}]),
     "adapted:left_a", ("fail", "", [("preconditions", "eis-not-sub-algebra")])),
    (lambda: _explicit(choices=TWO_WAY_CHOICES), "classify:half",
     ("fail", "", [("non-redundant", ""), ("complete", "incomplete")])),
    (lambda: _explicit(choices=TWO_WAY_CHOICES), "classify:both",
     ("fail", "", [("non-redundant", "redundant"), ("complete", "incomplete")])),
    (lambda: parse_instance(EXPLICIT_DOC), "classify:nope",
     ("error", "kernel-error: unknown choice 'nope'; known: left_a", [])),
]


@pytest.mark.parametrize(
    "make_doc, check, expected",
    ERROR_AND_FAIL_PATHS,
    ids=[f"{i}-{case[1]}" for i, case in enumerate(ERROR_AND_FAIL_PATHS)],
)
def test_error_and_fail_records(make_doc, check, expected):
    [record] = run(make_doc(), [check]).records
    got = (record.status, record.message, [(k, v.code) for k, v in record.items])
    assert got == expected


def _small_explicit(table, nodes, moves, **extra):
    """The explicit document over `table` (outcome ↦ scenario), each node
    spelled as a string of outcomes and each random move as
    {scenario: node index}."""
    obj = {
        "kind": "explicit-sdf",
        "scenarios": sorted(set(table.values())),
        "outcomes": sorted(table),
        "outcome_scenarios": table,
        "nodes": [list(node) for node in nodes],
        "random_moves": [{"assignment": move} for move in moves],
        **extra,
    }
    return parse_instance(json.dumps(obj))


ONE_SCENARIO = dict.fromkeys("abc", "w")

# (table, nodes, moves, extra fields, check, item name, code, witness)
FAILED_ITEMS = {
    "empty-t": (
        dict.fromkeys("abcd", "w"), ["abcd", "ab", "cd"], [], {}, "ttree", "rooted-tree",
        "ttree-not-rooted-forest", "(T, ≥_T) is not a rooted forest",
    ),
    "one-root-move-per-scenario": (
        {"a": "L", "b": "L", "c": "R", "d": "R"}, ["ab", "cd", "a", "b", "c", "d"],
        [{"L": 0}, {"R": 1}], {}, "ttree", "rooted-tree",
        "ttree-not-tree", "(T, ≥_T) has multiple components",
    ),
    "unseparated": (
        ONE_SCENARIO, ["abc", "ab", "a", "c"], [{"w": 0}, {"w": 1}], {}, "ttree", "rooted-tree",
        "ttree-not-separated", "elements {w↦{a, b}}, (w, a) are not separated",
    ),
    "terminal-move": (
        ONE_SCENARIO, ["abc", "ab", "c"], [{"w": 0}, {"w": 1}], {}, "ttree", "rooted-tree",
        "ttree-moves-mismatch", "moves of (T, ≥_T) differ from X",
    ),
    "domain-not-an-event": (
        {"a": "s", "b": "u"}, ["a", "b"], [{"s": 0}], {"atoms": [["s", "u"]]}, "verify",
        "axiom-3a", "axiom-3a", "domain {s} of {s↦{a}} is not an event",
    ),
}


@pytest.mark.parametrize("case", FAILED_ITEMS.values(), ids=FAILED_ITEMS)
def test_failed_item_code_and_witness(case):
    table, nodes, moves, extra, check, item, code, witness = case
    [record] = run(_small_explicit(table, nodes, moves, **extra), [check]).records
    assert record.status == "fail"
    assert (dict(record.items)[item].code, dict(record.items)[item].witness) == (code, witness)


def test_a_node_that_mixes_scenarios_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        _small_explicit({"a": "L", "b": "R"}, ["ab"], [{"L": 0}])
    assert (str(info.value), info.value.path) == (
        "node {a, b} mixes scenarios at $.nodes", "$.nodes"
    )


def test_non_integer_eis_index_is_an_error_record():
    [record] = run(parse_instance(EXPLICIT_DOC), ["adapted:left_a:x"]).records
    assert (record.status, record.message) == (
        "error", "kernel-error: eis index x out of range 1..2"
    )


@pytest.mark.parametrize(
    "index",
    ["\u0661", "01", "0", "1" * 5000],
    ids=["arabic-indic-one", "leading-zero", "zero", "5000-digits"],
)
def test_eis_index_has_one_spelling(index):
    # only ASCII digits without a leading zero name a structure, so that no
    # two check ids run the same check; a number longer than int()'s digit
    # limit is out of range like any other
    [record] = run(parse_instance(EXPLICIT_DOC), [f"adapted:left_a:{index}"]).records
    assert (record.status, record.message) == (
        "error", f"kernel-error: eis index {index} out of range 1..2"
    )


def test_a_cap_in_the_build_reads_cap_exceeded_in_every_command(monkeypatch):
    # W0-W3 hold; axiom 3e of the built instance then outruns a work cap of
    # 100, as every command that needs the build reports
    import sdfkit.errors

    p1 = ["a" + "".join(f) for f in itertools.product("ab", repeat=4)] + ["baaaa", "bbaaa"]
    p2 = ["b" + "".join(f) for f in itertools.product("ab", repeat=4)] + ["aaaaa", "abaaa"]
    paths = [("1", f) for f in p1] + [("2", f) for f in p2]
    doc = _action_path_doc(["1", "2"], range(5), ["a", "b"], paths)
    monkeypatch.setattr(sdfkit.errors, "WORK_CAP", 100)
    verify, ttree, apw = run(doc, ["verify", "ttree", "apw"], max_x=40).records
    message = "cap-exceeded: axiom-3e partition enumeration exceeded 100 work units"
    assert (verify.status, verify.message, verify.items) == ("error", message, ())
    assert (ttree.status, ttree.message, ttree.items) == ("error", message, ())
    assert apw.status == "ok"


def test_a_large_action_set_gets_verdicts_not_a_prefix_cap():
    # 17 actions over 5 times: |A|^4 = 83521 exceeds WORK_CAP, yet W0-W3
    # read only the 32 realized paths over {a, b}^5 and nothing else
    # enumerates the action set
    actions = ["a", "b"] + [f"c{i}" for i in range(15)]
    paths = [("1", f) for f in itertools.product("ab", repeat=5)]
    doc = _action_path_doc(["1"], range(5), actions, paths)
    apw, verify, ttree, eis = run(doc, ["apw", "verify", "ttree", "enumerate-eis"]).records
    assert (apw.status, apw.message) == ("ok", "")
    assert [k for k, v in apw.items if v.ok] == ["W0", "W1", "W2", "W3"]
    # 31 random moves, above the default max_x, so 3e runs the pairwise test
    assert (verify.status, verify.message) == ("partial", "")
    assert dict(verify.items)["axiom-3e"].partial
    assert (ttree.status, ttree.message) == ("ok", "")
    assert (eis.status, eis.data["count"]) == ("ok", 1)


def test_no_function_takes_a_cap_parameter():
    # the search bound is errors.WORK_CAP
    import importlib
    import inspect
    import pkgutil

    found = set()
    for info in pkgutil.iter_modules(sdfkit.__path__):
        module = importlib.import_module(f"sdfkit.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for fn in members:
                fn = getattr(fn, "__func__", fn)
                if inspect.isfunction(fn):
                    params = inspect.signature(fn).parameters.keys() & {
                        "work_cap", "bell_cap", "max_time_subsets"
                    }
                    found |= {f"{fn.__qualname__}({p})" for p in params}
    assert found == set()


def test_verify_reports_a_build_that_fails_after_w0_to_w3(monkeypatch):
    # Covers the routing of a build whose `verify_sdf` fails into a
    # construction-failed record that still lists the passing W0-W3. No
    # document is known whose build passes W0-W3 and then fails other than
    # by a cap (which reads cap-exceeded, as above), so the failure is
    # stubbed here.
    import sdfkit.cli
    from sdfkit.errors import StructureError

    def failing(*args, **kwargs):
        raise StructureError("stub", code="construction-failed")

    monkeypatch.setattr(sdfkit.cli, "_construct_action_path_sdf", failing)
    [record] = run(_factorless_doc(), ["verify"]).records
    assert (record.status, record.message) == ("fail", "construction-failed: stub")
    assert [(k, v.ok, v.code) for k, v in record.items] == [
        (f"AP.W{i}", True, "") for i in range(4)
    ]


class TestReports:
    def test_json_deterministic_in_process(self):
        doc = builtin_doc("variant")
        a = report_to_json(run(doc, ["verify", "enumerate-eis"]), doc)
        b = report_to_json(run(doc, ["verify", "enumerate-eis"]), doc)
        assert a == b

    def test_json_deterministic_across_hash_seeds(self, tmp_path):
        script = (
            "from sdfkit.cli import builtin_doc, run, report_to_json;"
            "doc = builtin_doc('simple');"
            "print(report_to_json(run(doc, ['verify', 'enumerate-eis', 'ttree']), doc))"
        )
        outputs = outputs_under_hash_seeds(script, tmp_path)
        assert json.loads(outputs[0])["overall"] == "ok"
        assert len(set(outputs)) == 1

    def test_parse_errors_deterministic_across_hash_seeds(self, tmp_path):
        # documents with several faults of one kind: each names the
        # canonically first, whatever order the hash seed gives its sets
        script = (
            "import sys\n"
            "from sdfkit.cli import parse_instance\n"
            "for text in sys.stdin.read().splitlines():\n"
            "    try:\n"
            "        parse_instance(text)\n"
            "    except Exception as e:\n"
            "        print(type(e).__name__, e)\n"
            "    else:\n"
            "        print('parsed')\n"
        )
        outputs = outputs_under_hash_seeds(
            script, tmp_path, "\n".join(json.dumps(doc) for doc in MULTI_FAULT_DOCS)
        )
        assert len(set(outputs)) == 1, outputs
        assert outputs[0].splitlines() == [
            "ParseError price table missing scenario 'x' at $.generator.price",
            "ParseError atoms overlap at {a, d, e} at $.atoms",
            "ParseError scenario q admits no outcome at $",
            "ParseError path () not indexed by the 1 time points at $",
            "ParseError price at time 0 must be 1 (scenario x) at $.generator",
            "ParseError outcome 'a' missing a scenario at $.outcome_scenarios",
            "ParseError node {a, b} mixes scenarios at $.nodes",
        ]

    def test_library_errors_deterministic_across_hash_seeds(self, tmp_path):
        script = (
            "import sys\n"
            "from sdfkit import *\n"
            "from sdfkit.sigma_info import level_set_partition\n"
            "for call in sys.stdin.read().splitlines():\n"
            "    try:\n"
            "        eval(call)\n"
            "    except Exception as e:\n"
            "        print(type(e).__name__, e)\n"
            "    else:\n"
            "        print('passed')\n"
        )
        outputs = outputs_under_hash_seeds(script, tmp_path, "\n".join(MULTI_FAULT_CALLS))
        assert len(set(outputs)) == 1, outputs
        assert outputs[0].splitlines() == [
            "InputError projection missing node {a}",
            "InputError projection targets unknown scenario 'A'",
            "InputError random move uses unknown scenario 'P'",
            "InputError observable level set {a} is not an event",
            "StructureError node {a, z} not a subset of the universe",
            "StructureError empty node",
        ]

    def test_text_report_has_timings(self):
        doc = builtin_doc("simple")
        text = report_to_text(run(doc, ["verify"]), doc)
        assert "ms]" in text and "overall: ok" in text

    def test_json_has_no_timings(self):
        doc = builtin_doc("simple")
        payload = json.loads(report_to_json(run(doc, ["verify"]), doc))
        assert "elapsed" not in json.dumps(payload)
        assert payload["overall"] == "ok"


class _Label(str):
    pass


class _Count(int):
    pass


JSON_SCALARS = st.one_of(
    st.text(max_size=8),
    st.text(alphabet="\x00\x1f\n\t\"\\é€😀\u2028", max_size=4),
    st.booleans(),
    st.none(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.fractions(max_denominator=50),
    st.text(max_size=3).map(_Label),
    st.integers(-3, 3).map(_Count),
    st.frozensets(st.integers(0, 3), max_size=2),
)

JSON_PAYLOADS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(st.integers(-5, 5), inner, max_size=3),
    ),
    max_leaves=25,
)


class TestJsonWriter:
    """`report_to_json`'s emitter writes what `json.dumps` writes."""

    @staticmethod
    def emitted(value):
        out = []
        _emit_json(value, "", out)
        return "".join(out)

    @settings(max_examples=200, deadline=None)
    @given(JSON_PAYLOADS)
    def test_matches_json_dumps(self, value):
        assert self.emitted(value) == json.dumps(value, sort_keys=True, indent=2, default=str)

    def test_fallback_nested_in_layout(self):
        value = {"data": [{2: Fraction(1, 3), 1: [1.5, None]}, (), {}], "ok": True}
        assert self.emitted(value) == json.dumps(value, sort_keys=True, indent=2, default=str)


def _every_command(builtin: str) -> list:
    # timing and upandout name no choices: their choice commands read
    # unknown-choice errors
    choices = sorted(examples.all_named_choices(builtin)) or ["c_1_1"]
    return (
        ["verify", "ttree", "enumerate-eis", "apw", "apc", "thm4-11"]
        + [f"{cmd}:{c}" for c in choices for cmd in ("predecessors", "classify")]
        + [f"adapted:{c}{k}" for c in choices[:2] for k in ("", ":1", ":2", ":3")]
    )


def _crossing_explicit():
    # the failing instance of TestMain: a node across both scenarios
    return _explicit(
        nodes=[["a", "b"], ["a"], ["b"], ["z", "y"], ["z"], ["y"], ["a", "z"]],
        outcome_scenarios={"a": "L", "b": "L", "z": "L", "y": "L"},
    )


ACTION_PATH_COMMANDS = ["verify", "ttree", "enumerate-eis", "apw", "apc", "thm4-11"]
EXPLICIT_COMMANDS = [
    "verify", "ttree", "enumerate-eis", "predecessors:left_a", "classify:left_a",
    "classify:half", "classify:both", "adapted:left_a", "adapted:half:2",
    "adapted:left_a:99", "apw", "apc",
]
ODD_IDS = [
    "frobnicate", "classify:nope", "classify:\u00e9t\u00e9", "v\x00\x1f\u2028\U0001f600\ud800",
]

# case -> [(document, commands, max_x, WORK_CAP)]
REPORT_CASES = {
    **{
        f"{b} max_x={m}": [(lambda b=b: builtin_doc(b), _every_command(b), m, WORK_CAP)]
        for b in BUILTINS
        for m in (0, 12)
    },
    "explicit": [
        (lambda: _explicit(choices=TWO_WAY_CHOICES), EXPLICIT_COMMANDS + ODD_IDS, 12, WORK_CAP)
    ],
    "explicit failing": [(_crossing_explicit, EXPLICIT_COMMANDS, 12, WORK_CAP)],
    "action-path documents": [
        (_w3_failing_doc, ACTION_PATH_COMMANDS, 6, WORK_CAP),
        (_factorless_doc, ACTION_PATH_COMMANDS, 6, WORK_CAP),
        (lambda: parse_instance(TIMING_DOC), ACTION_PATH_COMMANDS + ODD_IDS, 12, WORK_CAP),
    ],
    "generator draws": [
        (lambda d=d: parse_instance(corpus_doc(d)), ACTION_PATH_COMMANDS, max_x, cap)
        for d in range(30)
        for max_x, cap in ((0, 8), (9, WORK_CAP))
    ],
}


# Synthetic reports: the fields declared `str` hold any text, control
# characters and lone surrogates included; some fields hold other values,
# scalars or lists, which the writer hands to `_emit_json`.
ANY_TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=6)
NESTED = st.lists(JSON_SCALARS, min_size=1, max_size=2)
TEXT_FIELDS = st.one_of(ANY_TEXT, ANY_TEXT, JSON_SCALARS, NESTED)
BOOL_FIELDS = st.one_of(st.booleans(), st.booleans(), JSON_SCALARS, NESTED)
VERDICTS = st.builds(
    Verdict, ok=BOOL_FIELDS, code=TEXT_FIELDS, witness=TEXT_FIELDS, partial=BOOL_FIELDS,
    notes=st.one_of(st.just(()), st.lists(TEXT_FIELDS, max_size=3).map(tuple)),
)
CHECK_RECORDS = st.builds(
    CheckRecord,
    check_id=TEXT_FIELDS,
    status=st.one_of(st.sampled_from(["ok", "partial", "fail", "error"]), TEXT_FIELDS),
    items=st.lists(
        st.tuples(TEXT_FIELDS, st.one_of(VERDICTS, st.just(Verdict.passed()))), max_size=3
    ).map(tuple),
    data=JSON_PAYLOADS,
    message=TEXT_FIELDS,
    elapsed_ms=st.just(0.0),
)
INSTANCE_DOCS = st.builds(InstanceDoc, kind=TEXT_FIELDS, name=st.one_of(st.none(), TEXT_FIELDS))
CAPS = st.dictionaries(st.text(max_size=4), st.integers())


class TestReportWriter:
    """`report_to_json` writes what `json.dumps` writes for the report's
    payload dict (`brute_report_to_json`)."""

    def test_matches_payload_writer(self, monkeypatch):
        shapes = set()
        for case, jobs in REPORT_CASES.items():
            for make_doc, commands, max_x, cap in jobs:
                monkeypatch.setattr("sdfkit.errors.WORK_CAP", cap)
                doc = make_doc()
                report = run(doc, commands, max_x=max_x)
                assert report_to_json(report, doc) == brute_report_to_json(report, doc), case
                items = [v for r in report.records for _, v in r.items]
                shapes |= {r.status for r in report.records}
                shapes |= {"cap" for r in report.records if r.message.startswith("cap-exceeded")}
                shapes |= {"notes" for v in items if v.notes}
                shapes |= {"partial item" for v in items if v.partial}
                if doc.name is None:
                    shapes.add("null name")
        assert shapes == {
            "ok", "partial", "fail", "error", "cap", "notes", "partial item", "null name",
        }

    def test_shared_passed_items_match_payload_writer(self):
        # the shared passed verdict is written from one template; a passed
        # verdict with notes or partial, or an item whose name is not a
        # str, is written field by field
        names = [
            "plain", 'a "quoted" \\ name', "ctl \x00\x1f\t\n\x7f", "\u00e9t\u00e9 \u2028\U0001f600\ud800", "",
        ]
        verdicts = [Verdict.passed(), Verdict.passed("note"), Verdict.passed(partial=True)]
        assert all(v is not Verdict.passed() for v in verdicts[1:])
        items = tuple((name, v) for name in names for v in verdicts)
        items += ((7, Verdict.passed()), (["x"], Verdict.passed()), (None, Verdict.passed()))
        failed_first = ((names[1], Verdict.failed("c", "w")), (names[2], Verdict.passed()))
        report = Report(
            [
                CheckRecord("thm4-11", "ok", items, {"checked": len(items)}, "", 0.0),
                CheckRecord("apc", "fail", failed_first, {}, "", 0.0),
                CheckRecord("apw", "ok", ((names[3], Verdict.passed()),), {}, "", 0.0),
            ],
            {"max_x": 6},
        )
        doc = InstanceDoc("builtin", name="timing")
        assert report_to_json(report, doc) == brute_report_to_json(report, doc)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(CHECK_RECORDS, max_size=3), CAPS, INSTANCE_DOCS)
    def test_matches_payload_writer_on_synthetic_reports(self, records, caps, doc):
        report = Report(records, caps)
        assert report_to_json(report, doc) == brute_report_to_json(report, doc)


OVERFLOWING_FLOAT_DOC = (
    '{"kind": "action-path", "scenarios": ["w"], "time_points": ["0", "1"], '
    '"actions": [1e400, 2], "paths": [{"scenario": "w", "path": [2, 1e400]}, '
    '{"scenario": "w", "path": [2, 2]}]}'
)
NAN_COMPONENT_DOC = (
    '{"kind": "action-path", "scenarios": ["w"], "time_points": ["0", "1"], '
    '"actions": ["a", "b"], "factorization": {"a": {"1": NaN}, "b": {"1": "b"}}, '
    '"paths": [{"scenario": "w", "path": ["a", "b"]}, {"scenario": "w", "path": ["b", "a"]}]}'
)


class TestMain:
    def test_builtin_ok_exit(self, capsys):
        assert main(["builtin", "simple"]) == 0
        assert "overall: ok" in capsys.readouterr().out

    def test_verify_file(self, tmp_path, capsys):
        f = tmp_path / "timing.json"
        f.write_text(TIMING_DOC)
        assert main(["--max-x", "12", "verify", str(f), "verify"]) == 0
        capsys.readouterr()

    def test_failing_instance_exit_one(self, tmp_path, capsys):
        bad = json.loads(EXPLICIT_DOC)
        bad["nodes"].append(["a", "z"])  # crosses scenarios: fibres break
        bad["outcome_scenarios"]["z"] = "L"
        bad["outcome_scenarios"]["y"] = "L"
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(bad))
        assert main(["verify", str(f)]) == 1
        capsys.readouterr()

    def test_parse_error_exit_two(self, tmp_path, capsys):
        f = tmp_path / "broken.json"
        f.write_text("{nope")
        assert main(["verify", str(f)]) == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_oversized_integer_literal_exit_two(self, tmp_path, capsys):
        # json.loads reads an integer past the int-to-str digit limit with a
        # plain ValueError, not a JSONDecodeError
        f = tmp_path / "long.json"
        f.write_text('{"kind": "builtin", "name": ' + "1" * 5000 + "}")
        assert main(["verify", str(f)]) == 2
        err = capsys.readouterr().err
        assert err == "error: syntax error: an integer literal has too many digits\n"

    # json.loads reads NaN, Infinity and -Infinity, which are not JSON, and
    # reads a float literal past the float range as an infinity
    @pytest.mark.parametrize(
        "text, check, message",
        [
            (OVERFLOWING_FLOAT_DOC, "verify", "number 1e400 is out of range"),
            (NAN_COMPONENT_DOC, "verify", "NaN is not a JSON number"),
            (NAN_COMPONENT_DOC, "apw", "NaN is not a JSON number"),
            (NAN_COMPONENT_DOC, "apc", "NaN is not a JSON number"),
            (NAN_COMPONENT_DOC.replace("NaN", "-Infinity"), "verify",
             "-Infinity is not a JSON number"),
        ],
        ids=["1e400", "nan-verify", "nan-apw", "nan-apc", "minus-infinity"],
    )
    def test_non_finite_number_exit_two(self, tmp_path, capsys, text, check, message):
        f = tmp_path / "doc.json"
        f.write_text(text)
        assert main(["verify", str(f), check]) == 2
        assert capsys.readouterr().err == f"error: syntax error: {message}\n"

    def test_text_report_escapes_a_lone_surrogate(self, tmp_path, monkeypatch):
        # "\ud800" is valid JSON, yet no encoding writes a lone surrogate
        f = tmp_path / "surrogate.json"
        table = {"\ud800": "w", "b": "w"}
        doc = {
            "kind": "explicit-sdf", "scenarios": ["w"], "outcomes": list(table),
            "outcome_scenarios": table, "nodes": [["\ud800", "b"], ["\ud800"]],
            "random_moves": [{"assignment": {"w": 0}}],
        }
        f.write_text(json.dumps(doc))
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["verify", str(f), "verify"]) == 1
        out.flush()
        text = out.buffer.getvalue().decode("utf-8")
        assert "witness: outcome b: ↑{v} = {{b, \\ud800}} is not a maximal chain\n" in text
        assert text.endswith("overall: fail\n")

    def test_undecodable_file_exit_two(self, tmp_path, capsys):
        f = tmp_path / "binary.json"
        f.write_bytes(b"\xff")
        assert main(["verify", str(f)]) == 2
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("flag", ["--max-x"])
    def test_negative_cap_is_a_usage_error(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["builtin", "simple", "verify", flag, "-1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a non-negative integer, got '-1'" in err

    def test_zero_cap_is_accepted(self, capsys):
        assert main(["--max-x", "0", "builtin", "simple", "verify"]) == 0
        assert "exceeds exhaustive cap 0" in capsys.readouterr().out

    def test_time_subset_flag_is_a_usage_error(self, capsys):
        # W2 is decided for every |T|, so the flag that bounded |T| is gone
        for argv in (["--max-time-subsets", "3", "builtin", "simple"],
                     ["builtin", "simple", "--max-time-subsets", "3"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
        assert "unrecognized arguments: --max-time-subsets 3" in capsys.readouterr().err

    def test_readme_builtin_lines_run(self, capsys):
        # every `sdf builtin ...` line of README's CLI block parses as written
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
        runs = [argv[1:] for argv in lines if argv[:2] == ["sdf", "builtin"]]
        assert len(runs) == 3
        for argv in runs:
            assert main(argv) in (0, 1), argv
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sdf ")

    def test_json_format_flag(self, capsys):
        assert main(["--format", "json", "builtin", "variant", "enumerate-eis"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks"][0]["data"]["count"] == 3

    def test_no_command_ends_in_a_traceback_on_127_moves(self, tmp_path):
        # one scenario whose paths are all of {a, b}^7: 127 random moves, one
        # agent, and the named choice "x" of the paths that start with a
        paths = [
            {"scenario": "w", "path": list(p)} for p in itertools.product("ab", repeat=7)
        ]
        doc = {
            "kind": "action-path",
            "scenarios": ["w"],
            "time_points": [str(i) for i in range(7)],
            "actions": ["a", "b"],
            "factorization": {"a": {"1": "a"}, "b": {"1": "b"}},
            "paths": paths,
            "choices": {"x": [p for p in paths if p["path"][0] == "a"]},
        }
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        checks = [
            "verify", "ttree", "enumerate-eis", "apw", "apc", "thm4-11",
            "predecessors:x", "classify:x", "adapted:x:1",
        ]
        source_root = str(Path(sdfkit.__file__).resolve().parent.parent)
        for fmt in ("text", "json"):
            proc = subprocess.run(
                [sys.executable, "-m", "sdfkit.cli", "--format", fmt, "verify", "doc.json", *checks],
                capture_output=True,
                text=True,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": source_root},
                cwd=tmp_path,
            )
            assert proc.returncode in (0, 1), proc.stderr
            assert proc.stderr == ""
            if fmt == "json":
                assert [c["id"] for c in json.loads(proc.stdout)["checks"]] == checks
            else:
                lines = proc.stdout.splitlines()
                assert [line.rsplit(": ", 1)[0] for line in lines if line.startswith("check ")] == [
                    f"check {c}" for c in checks
                ]
