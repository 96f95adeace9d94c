"""Verdict digests and instance-shape counts read from `--format=json` reports.

A check's digest covers what its verdict says: id, status, message, each
item's name/ok/code/witness/partial, and the result part of its data. It
leaves out item notes and any other data key, which describe how much work
was done, so reporting more work statistics does not count as a wrong
verdict.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

RESULT_DATA = ("count", "structures", "choice", "nodes", "available_at", "checked")


def check_digest(check: dict) -> str:
    verdict = {
        "id": check["id"],
        "status": check["status"],
        "message": check["message"],
        "items": [
            [i["name"], i["ok"], i["code"], i["witness"], i["partial"]] for i in check["items"]
        ],
        "data": {k: v for k, v in check["data"].items() if k in RESULT_DATA},
    }
    text = json.dumps(verdict, sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _count(value) -> int:
    # A skip count may later be broken down by reason into a mapping.
    return sum(value.values()) if isinstance(value, dict) else value


def summarize(report_json: str) -> dict:
    """Per-check digests plus the shape counts the report itself states."""
    payload = json.loads(report_json)
    shape = Counter({"reports": 1, f"overall:{payload['overall']}": 1})
    for check in payload["checks"]:
        name = check["id"].partition(":")[0]
        shape[f"{name}:{check['status']}"] += 1
        data = check["data"]
        if name == "enumerate-eis":
            shape["eis"] += data.get("count", 0)
        elif name == "thm4-11":
            shape["thm4-11_checked"] += data.get("checked", 0)
            shape["thm4-11_skipped"] += _count(data.get("skipped", 0))
        elif name == "verify" and check["message"].startswith("assumption-failure"):
            shape["w_excluded"] += 1
    return {"digests": [check_digest(c) for c in payload["checks"]], "shape": shape}
