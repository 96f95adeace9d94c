"""sdfkit benchmark: time-to-verdict on four checker workloads.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Makes the workload's inputs from the seed, then, for `--seconds`, runs
repetitions of the workload one after another, each in a fresh interpreter
(see child.py), and checks every verdict against `reference.json`. With
`--trace 0` it reports the end-to-end metrics (times speed-normalized, see
speed.py), with `--trace 1` the
per-layer metrics of traced repetitions (alternated with untraced ones, to
measure the tracing overhead). The last line of stdout is the result as
JSON; a record of the run, and with `--trace 1` the spans of one traced
repetition, go to perfbench/out/.

Works from any directory: sdfkit is imported from the src/ directory next
to this one, and children get it on PYTHONPATH with PYTHONHASHSEED pinned.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

HASH_SEED = "0"
SETUP_SAMPLES = 15  # set-up-only repetitions per untraced run, besides the timed ones
MIN_REPETITIONS = 2
RUN_LIMIT_S = 170.0  # every run must end well within 180 s

# Shape keys only the describing repetition reports.
DESCRIBED = ("instances", "outcomes", "nodes", "random_moves")


def child_env(hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hash_seed
    return env


def spawn(request: dict, timeout: float, hash_seed: str = HASH_SEED) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    payload = json.dumps(request)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")],
        input=payload,
        capture_output=True,
        text=True,
        env=child_env(hash_seed),
        cwd=HERE.parent,
        timeout=timeout,
    )
    end = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"{request['mode']} repetition failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    result["norm_setup_s"] = result["setup_s"] * result["setup_scale"]
    result["elapsed_s"] = end - start
    return result


def wrong_checks(jobs, expected, digests) -> int:
    wrong = 0
    for (_, _, commands, _), want, got in zip(jobs, expected, digests):
        if got is None or want is None:
            wrong += len(commands)
        else:
            wrong += sum(a != b for a, b in zip(want, got)) + abs(len(want) - len(got))
    return wrong


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_calls", "_enumerated")):
        return "count"
    return "ratio"


def tail_ms(values) -> float:
    """Nearest-rank p99, or with fewer than 1000 samples the highest
    percentile that still has ten samples beyond it; the median when even
    the median has fewer than ten beyond it."""
    if len(values) < 20:
        return statistics.median(values)
    ordered = sorted(values)
    q = min(0.99, 1.0 - 10.0 / len(ordered))
    return ordered[math.ceil(q * len(ordered)) - 1]


def repetitions(workload: str, base: dict, seconds: float, trace: bool):
    """Set-up-only repetitions (untraced runs), then repetitions until
    `seconds` are used; traced runs alternate traced and untraced ones."""
    began = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - began)

    setups = []
    if not trace:
        setups = [spawn({**base, "mode": "setup"}, remaining()) for _ in range(SETUP_SAMPLES)]
    measured_from = time.perf_counter()
    reps: list[dict] = []
    while True:
        if len(reps) >= MIN_REPETITIONS:
            typical = statistics.median(r["elapsed_s"] for r in reps)
            if time.perf_counter() - measured_from + typical / 2 >= seconds:
                break
        mode = "traced" if trace and len(reps) % 2 == 0 else "timed"
        request = {**base, "mode": mode}
        if mode == "timed" and not any(r["mode"] == "timed" for r in reps):
            request["describe"] = True
        if mode == "traced" and not any(r["mode"] == "traced" for r in reps):
            request["spans_out"] = str(OUT / f"spans-{workload}.jsonl")
        rep = spawn(request, remaining())
        rep["mode"] = mode
        reps.append(rep)
    return setups, reps


def end_to_end(setups: list, timed: list) -> tuple[dict, dict]:
    """The normalized end-to-end metrics, and the same times as measured.

    A report's time is the median over the repetitions of that report, so
    a stall shorter than the speed probe's interval stays out of the tail;
    p50 and p99 are taken over the reports."""
    norm_ms = per_report_median(timed, "norm_ms")
    metrics = {
        "setup_s": (statistics.median(r["norm_setup_s"] for r in setups + timed), "s"),
        "wall_s": (statistics.median(r["norm_wall_s"] for r in timed), "s"),
        "report_p50_ms": (statistics.median(norm_ms), "ms"),
        "report_p99_ms": (tail_ms(norm_ms), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in timed) / 1024.0, "MB"),
    }
    report_ms = per_report_median(timed, "report_ms")
    measured = {
        "setup_s": statistics.median(r["setup_s"] for r in setups + timed),
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "report_p50_ms": statistics.median(report_ms),
        "report_p99_ms": tail_ms(report_ms),
        "report_samples": len(report_ms),
        "probe_ms": statistics.median(r["probe_ms"] for r in timed),
    }
    return metrics, measured


def per_report_median(reps: list, key: str) -> list:
    return [statistics.median(times) for times in zip(*(r[key] for r in reps))]


def per_layer(traced: list, timed: list) -> dict:
    """Medians of the traced repetitions' layer metrics, plus the overhead."""
    metrics = {
        name: (statistics.median(r["layers"][name] for r in traced), unit_of(name))
        for name in traced[0]["layers"]
    }
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in timed)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = workloads.build(workload, seed)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    expected = [reference.get(key) for key, *_ in inputs.jobs]
    OUT.mkdir(exist_ok=True)
    base = {"workload": workload, "docs": inputs.docs, "jobs": inputs.jobs}
    setups, reps = repetitions(workload, base, seconds, trace)

    checks_per_rep = sum(len(commands) for _, _, commands, _ in inputs.jobs)
    wrong = sum(wrong_checks(inputs.jobs, expected, r["digests"]) for r in reps)
    shapes = [{k: v for k, v in r["shape"].items() if k not in DESCRIBED} for r in reps]
    drift = any(s != shapes[0] for s in shapes)
    descriptors = {**inputs.shape, **next(r["shape"] for r in reps if "instances" in r["shape"])}
    descriptors["w_excluded_share"] = descriptors.get("w_excluded", 0) / descriptors["reports"]
    timed = [r for r in reps if r["mode"] == "timed"]
    if trace:
        traced = [r for r in reps if r["mode"] == "traced"]
        metrics = per_layer(traced, timed)
        counts = [{k: v for k, v in r["layers"].items() if unit_of(k) == "count"} for r in traced]
        drift = drift or any(c != counts[0] for c in counts)
        descriptors["window_choices"] = counts[0]["action_path.window_choice_calls"]
    else:
        metrics, measured = end_to_end(setups, timed)

    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "repetitions": [{k: v for k, v in r.items() if k != "digests"} for r in reps],
        "setup_repetitions": setups,
        "checks": checks_per_rep * len(reps),
        "checks_wrong": wrong,
        "shape_drift": drift,
        "descriptors": descriptors,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    for r in reps:
        for error in r["errors"]:
            print(f"error: {error}")
    print(f"workload {workload}, seed {seed}: {len(reps)} repetitions, "
          f"{len(inputs.jobs)} reports and {checks_per_rep} checks each")
    if not trace:
        record["measured"] = measured
        print("measured, not normalized: " + json.dumps(measured, sort_keys=True))
    print(f"checks_wrong {wrong} of {record['checks']}; shape drift: {drift}")
    print("descriptors: " + json.dumps(descriptors, sort_keys=True))
    (OUT / f"run-{workload}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    return {
        "correct": wrong == 0 and not drift,
        "attempted": record["checks"],
        "failed": wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sdfkit" / "__init__.py").is_file():
        print(f"error: no sdfkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # Byte-compile before any timed start, so set-up never includes it.
    compileall.compile_dir(SRC / "sdfkit", quiet=2)
    compileall.compile_dir(HERE, maxlevels=0, quiet=2)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
