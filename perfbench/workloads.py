"""Inputs of the benchmark workloads, made from the workload seed.

A workload is a list of instance documents (JSON text, as a user would
write them) and a list of jobs. A job is one `cli.run` call: the document
it runs on, the commands, the `max_x` cap, and the key under which the
verdict digests are stored in `reference.json`.

`examples`, `gen` and `_canon` are used here only to make the inputs; this
module runs in the harness process, never in a timed one.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("timing-rcs", "upandout-sweep", "corpus", "worked-choices")

ALL_CHECKS = ["verify", "ttree", "enumerate-eis", "apw", "apc"]

# Criterion 06 caps the corpus at max_x=9; the builtins are checked at 12.
TIMING_MAX_X = 12
CORPUS_MAX_X = 9

# The corpus is draws 0..CORPUS_DRAWS-1 of the seeded generator, in an order
# drawn from the workload seed. A random subset per seed made the tail
# latency depend on which heavy draws the seed happened to pick.
CORPUS_DRAWS = 1200

# Index of the first time point at which each scenario's price reaches the
# barrier (None: never). This pattern alone fixes the outcome set, and so
# the size of the instance; the seed draws prices consistent with it.
UPANDOUT_CROSSINGS = (None, 2, 2, 1)
UPANDOUT_TIMES = 3
_BELOW = [Fraction(1) + Fraction(k, 8) for k in range(1, 8)]
_AT_OR_ABOVE = [Fraction(2), Fraction(9, 4), Fraction(5, 2), Fraction(3)]


class Workload:
    def __init__(self):
        self.docs: list[str] = []
        self.jobs: list[tuple[str, int, list[str], int]] = []
        self._doc_index: dict[str, int] = {}
        self.shape: dict[str, int] = {}  # instance shape known from generation

    def add(self, key: str, doc: str, commands: list[str], max_x: int):
        if doc not in self._doc_index:
            self._doc_index[doc] = len(self.docs)
            self.docs.append(doc)
        self.jobs.append((key, self._doc_index[doc], commands, max_x))


def _builtin(name: str) -> str:
    return json.dumps({"kind": "builtin", "name": name})


def _timing_rcs(seed: int) -> Workload:
    w = Workload()
    w.add("timing-rcs", _builtin("timing"), ALL_CHECKS, TIMING_MAX_X)
    return w


def upandout_doc(seed: int) -> str:
    rng = random.Random(seed)
    price = {}
    for i, cross in enumerate(UPANDOUT_CROSSINGS):
        row = [Fraction(1)]
        for k in range(1, UPANDOUT_TIMES):
            if cross is None or k < cross:
                row.append(rng.choice(_BELOW))
            elif k == cross:
                row.append(rng.choice(_AT_OR_ABOVE))
            else:
                row.append(rng.choice(_BELOW + _AT_OR_ABOVE))
        price[str(i + 1)] = [str(p) for p in row]
    return json.dumps(
        {
            "kind": "action-path",
            "scenarios": [str(i + 1) for i in range(len(UPANDOUT_CROSSINGS))],
            "time_points": [str(k) for k in range(UPANDOUT_TIMES)],
            "generator": {"name": "up-and-out", "price": price, "barrier": "2"},
        }
    )


def _upandout_sweep(seed: int) -> Workload:
    w = Workload()
    w.add("upandout-sweep", upandout_doc(seed), ALL_CHECKS + ["thm4-11"], TIMING_MAX_X)
    return w


def corpus_doc(draw: int) -> str:
    """Draw `draw` of the seeded path-outcome generator, as an extensional doc."""
    from sdfkit import gen
    from sdfkit._canon import canon_sorted

    po = gen.random_path_outcomes(random.Random(draw))
    return json.dumps(
        {
            "kind": "action-path",
            "scenarios": canon_sorted(po.scenarios.scenarios),
            "atoms": [canon_sorted(a) for a in canon_sorted(po.scenarios.algebra_atoms)],
            "time_points": [str(t) for t in po.time.points],
            "actions": canon_sorted(po.space.actions),
            "paths": [{"scenario": s, "path": list(f)} for s, f in canon_sorted(po.paths)],
        }
    )


def _corpus(seed: int) -> Workload:
    draws = list(range(CORPUS_DRAWS))
    random.Random(seed).shuffle(draws)
    w = Workload()
    for draw in draws:
        w.add(f"corpus:{draw}", corpus_doc(draw), ["verify", "ttree", "enumerate-eis", "apw"], CORPUS_MAX_X)
    return w


def _worked_choices(seed: int) -> Workload:
    """Every named choice of `simple` and `variant`, one `cli.run` per check."""
    from sdfkit import enumerate_eis, examples

    w = Workload()
    w.shape["eis"] = 0
    for name, build in (("simple", examples.build_simple), ("variant", examples.build_variant)):
        n_eis = len(enumerate_eis(build()))
        w.shape["eis"] += n_eis
        checks = []
        for choice in sorted(examples.all_named_choices(name)):
            checks += [f"predecessors:{choice}", f"classify:{choice}"]
            checks += [f"adapted:{choice}:{k}" for k in range(1, n_eis + 1)]
        for check in checks:
            w.add(f"worked-choices:{name}:{check}", _builtin(name), [check], 6)
    return w


def build(workload: str, seed: int) -> Workload:
    """The inputs of one run of `workload` under `seed`. Every seed issues
    the same jobs (keys), so `reference.json` covers all of them."""
    return {
        "timing-rcs": _timing_rcs,
        "upandout-sweep": _upandout_sweep,
        "corpus": _corpus,
        "worked-choices": _worked_choices,
    }[workload](seed)
