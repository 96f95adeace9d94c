"""One repetition of a workload, in a fresh interpreter.

Reads a request (JSON) on stdin and prints one JSON object on stdout. The
sdfkit module caches are keyed by value-equal instances, so a second
repetition in the same process would skip work a user pays for; every
repetition therefore gets its own process.

Modes:
  setup   import sdfkit and parse every input document, then stop
  timed   set up, then run every job through `cli.run` and `report_to_json`,
          sampling the machine's speed (speed.py) to normalize job times
  traced  as timed, with spans around the sdfkit layer functions and no
          speed sampling

`ready` is the monotonic clock when set-up ended; the parent subtracts its
own clock reading taken just before the spawn.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import Counter


def describe(docs, jobs) -> Counter:
    """Outcomes, nodes and random moves of each distinct instance."""
    from sdfkit import build_action_path_sdf, examples
    from sdfkit.errors import KernelError

    builtins = {
        "simple": examples.build_simple,
        "variant": examples.build_variant,
        "timing": lambda: examples.timing_instance().sdf,
    }
    shape = Counter()
    max_x = {doc_index: x for _, doc_index, _, x in jobs}
    for i, doc in enumerate(docs):
        shape["instances"] += 1
        if doc.kind == "builtin":
            s = builtins[doc.name]()
        else:
            try:
                s = build_action_path_sdf(doc.po, max_x_exhaustive=max_x[i]).sdf
            except KernelError:
                continue  # counted as w_excluded from its verify report
        shape["outcomes"] += len(s.forest.universe)
        shape["nodes"] += len(s.forest.nodes)
        shape["random_moves"] += len(s.random_moves)
    return shape


def main() -> int:
    request = json.loads(sys.stdin.read())
    from sdfkit import cli

    tracer = None
    if request["mode"] == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    docs = [cli.parse_instance(text) for text in request["docs"]]
    ready = time.perf_counter()
    from speed import Sampler, burst_scale

    out = {"ready": ready, "setup_scale": burst_scale()}
    if request["mode"] == "setup":
        print(json.dumps(out))
        return 0

    from digest import summarize

    sampler = Sampler()
    if tracer is None:  # in a traced repetition the probes would land inside spans
        sampler.start()
    report_ms, bounds, digests, shape, errors = [], [], [], Counter(), []
    for key, doc_index, commands, max_x in request["jobs"]:
        doc = docs[doc_index]
        paused = sampler.paused
        start = time.perf_counter()
        try:
            text = cli.report_to_json(cli.run(doc, commands, max_x=max_x), doc)
        except Exception as exc:  # every check must end in a verdict; this one did not
            text = None
            errors.append(f"{key}: {type(exc).__name__}: {exc}")
        end = time.perf_counter()
        report_ms.append((end - start - (sampler.paused - paused)) * 1000.0)
        bounds.append((start, end))
        if text is None:
            digests.append(None)
            continue
        summary = summarize(text)
        digests.append(summary["digests"])
        shape.update(summary["shape"])
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["wall_s"] = sum(report_ms) / 1000.0
    out["report_ms"] = report_ms
    if tracer is None:
        sampler.stop()
        out["norm_ms"] = [ms * sampler.scale(a, b) for ms, (a, b) in zip(report_ms, bounds)]
        out["norm_wall_s"] = sum(out["norm_ms"]) / 1000.0
        out["probe_ms"] = sorted(sampler.took)[len(sampler.took) // 2] * 1000.0
    out["digests"] = digests
    out["errors"] = errors
    if tracer is not None:
        out["layers"] = tracer.metrics(ready, out["wall_s"])
        if request.get("spans_out"):
            tracer.write(request["spans_out"], request["workload"])
    if request.get("describe"):
        shape.update(describe(docs, request["jobs"]))
    out["shape"] = shape
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
