"""Write, or check, the reference verdict digests in reference.json.

    python3 perfbench/make_reference.py           # write, under PYTHONHASHSEED=0
    python3 perfbench/make_reference.py --check   # re-derive under two other hash seeds

Every seed issues the same jobs (keys), so seed 0's jobs cover them all.
Regenerate the reference only when a verdict is meant to change; `--check`
confirms the reports do not depend on the interpreter's hash seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads

CHECK_HASH_SEEDS = ("1", "77")
TIMEOUT_S = 600.0


def digests(hash_seed: str) -> dict:
    out = {}
    for name in workloads.WORKLOADS:
        inputs = workloads.build(name, 0)
        request = {"workload": name, "docs": inputs.docs, "jobs": inputs.jobs, "mode": "timed"}
        result = run.spawn(request, TIMEOUT_S, hash_seed=hash_seed)
        if result["errors"]:
            raise SystemExit("\n".join(result["errors"]))
        out.update({key: d for (key, *_), d in zip(inputs.jobs, result["digests"])})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    path = run.HERE / "reference.json"
    if not args.check:
        found = digests(run.HASH_SEED)
        lines = [f"{json.dumps(k)}: {json.dumps(found[k])}" for k in sorted(found)]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        return 0
    stored = json.loads(path.read_text(encoding="utf-8"))
    ok = True
    for hash_seed in CHECK_HASH_SEEDS:
        got = digests(hash_seed)
        bad = sorted(k for k in stored.keys() | got.keys() if stored.get(k) != got.get(k))
        print(f"PYTHONHASHSEED={hash_seed}: {len(got)} jobs, {len(bad)} differ from the reference")
        for key in bad[:10]:
            print(f"  {key}")
        ok = ok and not bad
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
