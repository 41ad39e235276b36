"""Correctness gate: every job's exit code and ``results`` block.

A job passes when its exit code is the expected one and

* for an input error (exit 1): nothing on stdout and a ``pca: error:``
  line on stderr;
* otherwise: the ``--json`` report's ``results`` block equals the one
  recorded for this job, when there is a recorded one for the seed, and
  agrees with every value the job's construction predicts.

The ``verified`` block is never compared: it lists claims, not answers,
and is expected to change when verification is reworked.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
RECORDED_SEED = 0


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def load_expected(workload: str, seed: int) -> dict:
    """Recorded results text by job name: every job for the recorded seed,
    only the seed-independent jobs (marked in the file) for other seeds."""
    path = EXPECTED_DIR / f"{workload}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    if seed == doc["seed"]:
        return dict(doc["results"])
    return {name: text for name, text in doc["results"].items()
            if name in doc["unseeded"]}


def _observed(results: dict, key: str):
    if key == "blocks":
        return sorted(b["dim"] for b in results.get("blocks", []))
    if key.startswith("len:"):
        return len(results.get(key[4:]) or [])
    return results.get(key, "<missing>")


def check(job, rc: int, stdout: str, stderr: str,
          recorded: str | None) -> str | None:
    """None when the job's outcome is right, else the reason it is not."""
    if rc != job.exit:
        return f"exit code {rc}, expected {job.exit}"
    if job.exit == 1:
        if stdout:
            return "report printed for unusable input"
        if not stderr.startswith("pca: error:"):
            return "no 'pca: error:' line on stderr"
        return None
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError):
        return "no JSON report with a results block"
    if recorded is not None and canonical(results) != recorded:
        return "results differ from the recorded results"
    for key, want in job.expect.items():
        got = _observed(results, key)
        if got != want:
            return f"{key} is {got!r}, expected {want!r}"
    return None
