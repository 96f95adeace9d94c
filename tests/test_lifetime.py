"""Derived tables live on their instance: a finished run leaves nothing behind."""

import gc
import importlib
import pkgutil
import random
import weakref

import sdfkit
import sdfkit.cli
from sdfkit.action_path import build_action_path_sdf
from sdfkit.cli import InstanceDoc, builtin_doc, run
from sdfkit.gen import random_path_outcomes
from sdfkit import order_core
from sdfkit.order_core import Poset

CORPUS_CHECKS = ["verify", "ttree", "enumerate-eis", "apw"]


def _run_and_watch(monkeypatch, doc, commands) -> list:
    """Run `commands` on `doc`; weak references to every built instance's
    ActionPathSdf, Sdf and PathOutcomes."""
    construct = sdfkit.cli._construct_action_path_sdf
    refs = []

    def watched(*args, **kwargs):
        aps, verdict = construct(*args, **kwargs)
        refs.extend(weakref.ref(x) for x in (aps, aps.sdf, aps.po))
        return aps, verdict

    monkeypatch.setattr(sdfkit.cli, "_construct_action_path_sdf", watched)
    report = run(doc, commands, max_x=9)
    assert report.ok
    return refs


def test_corpus_run_releases_its_instance(monkeypatch):
    # Draw 14 passes every check. Nothing may run on a value-equal instance
    # first: a value-keyed cache would then keep that one instead.
    doc = InstanceDoc("action-path", po=random_path_outcomes(random.Random(14)))
    refs = _run_and_watch(monkeypatch, doc, CORPUS_CHECKS)
    del doc
    gc.collect()
    assert refs and all(r() is None for r in refs)


def test_corpus_run_builds_the_node_poset_once(monkeypatch):
    # Axiom 1 (own representation) and axiom 2 (fibres) both read the nodes
    # under reverse inclusion; the forest keeps that poset for both.
    po = random_path_outcomes(random.Random(5))
    nodes = build_action_path_sdf(po, max_x_exhaustive=9).sdf.forest.nodes
    from_order = Poset.from_order.__func__
    built = []

    def counting(cls, elements, ge):
        built.append(frozenset(elements))
        return from_order(cls, elements, ge)

    monkeypatch.setattr(Poset, "from_order", classmethod(counting))
    [verify, *_] = run(InstanceDoc("action-path", po=po), CORPUS_CHECKS, max_x=9).records
    assert verify.status == "ok"
    assert built.count(nodes) == 1


def test_ttree_command_builds_the_t_tree_once(monkeypatch):
    # Only the tree theorem reads (T, ≥_T); the evaluation bijection reads
    # ≥_T from its definition. The instance builds the poset once.
    po = random_path_outcomes(random.Random(14))
    elements = build_action_path_sdf(po, max_x_exhaustive=9).sdf.ttree.poset.elements
    of = Poset.of.__func__
    built = []

    def counting(cls, elements, ge_pairs):
        built.append(frozenset(elements))
        return of(cls, elements, ge_pairs)

    monkeypatch.setattr(Poset, "of", classmethod(counting))
    [ttree] = run(InstanceDoc("action-path", po=po), ["ttree"], max_x=9).records
    assert ttree.status == "ok"
    assert built.count(frozenset(elements)) == 1


def test_ttree_command_builds_no_t_tree_where_a_root_is_no_move(monkeypatch):
    # Draw 5 has three moves and a moveless component: the evaluation
    # bijection reads ≥_T from its definition, and the tree theorem stops at
    # its roots-are-moves test, so no (T, ≥_T) poset is built.
    po = random_path_outcomes(random.Random(5))
    s = build_action_path_sdf(po, max_x_exhaustive=9).sdf
    assert len(s.random_moves) == 3 and s.maxima - s.move_nodes
    of = Poset.of.__func__
    built = []

    def counting(cls, elements, ge_pairs):
        built.append(frozenset(elements))
        return of(cls, elements, ge_pairs)

    monkeypatch.setattr(Poset, "of", classmethod(counting))
    [ttree] = run(InstanceDoc("action-path", po=po), ["ttree"], max_x=9).records
    assert [(k, v.ok, v.code) for k, v in ttree.items] == [
        ("evaluation-bijection", True, ""),
        ("rooted-tree", False, "roots-not-moves"),
    ]
    assert not [e for e in built if e & s.random_moves]


def test_each_poset_decides_forest_ness_once(monkeypatch):
    # Axioms 1 and 2 both need the node poset to be a forest, and the tree
    # theorem asks it of (T, ≥_T) twice; each poset scans its up-sets once.
    witness = order_core.forest_witness
    scanned = []

    def counting(p):
        scanned.append(p)
        return witness(p)

    monkeypatch.setattr(order_core, "forest_witness", counting)
    doc = InstanceDoc("action-path", po=random_path_outcomes(random.Random(14)))
    records = run(doc, ["verify", "ttree"], max_x=9).records
    assert [r.status for r in records] == ["ok", "ok"]
    assert len(scanned) == 2


def test_builtin_run_with_reference_choices_releases_its_instance(monkeypatch):
    refs = _run_and_watch(
        monkeypatch, builtin_doc("upandout"), CORPUS_CHECKS + ["apc"]
    )
    gc.collect()
    assert refs and all(r() is None for r in refs)


def test_builtin_thm4_11_run_releases_its_instance(monkeypatch):
    # the sweep's rows, its cases and their kept reports end with the run
    refs = _run_and_watch(monkeypatch, builtin_doc("upandout"), ["thm4-11"])
    gc.collect()
    assert refs and all(r() is None for r in refs)


def test_no_module_level_instance_caches():
    """Derived tables live on their instance: no sdfkit function keeps a
    module-level cache."""
    cached = set()
    for info in pkgutil.iter_modules(sdfkit.__path__):
        module = importlib.import_module(f"sdfkit.{info.name}")
        cached |= {
            f"{module.__name__}.{name}"
            for name, fn in vars(module).items()
            if getattr(fn, "__module__", None) == module.__name__
            and hasattr(fn, "cache_info")
        }
    assert cached == set()
