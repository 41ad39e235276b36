"""Tests of the benchmark itself: seeded inputs, traced counts, the gate."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate      # noqa: E402
import run       # noqa: E402
import tracing   # noqa: E402
import workloads  # noqa: E402


def _bytes(w):
    return {name: workloads.file_bytes(doc) for name, doc in w.files.items()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_input_bytes(name, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    d1 = workloads.write_inputs(workloads.generate(name, 5), first)
    d2 = workloads.write_inputs(workloads.generate(name, 5), second)
    assert d1 == d2
    for path in first.iterdir():
        assert path.read_bytes() == (second / path.name).read_bytes()
    assert _bytes(workloads.generate(name, 6)) \
        != _bytes(workloads.generate(name, 5))


def _counted_pass(w, wd, expected):
    """All counts of one traced pass and one field-operation pass."""
    failures = []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall = run.inprocess_pass(w, wd, expected, failures, tracer)
    finally:
        tracer.uninstall()
    layers = tracing.summarize(tracer.spans, wall)
    ops = tracing.OpCounter()
    ops.install()
    try:
        run.inprocess_pass(w, wd, expected, failures)
    finally:
        ops.uninstall()
    assert failures == []
    counts = {k: v for k, v in layers.items() if not k.endswith("_s")}
    total = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total + layers["unattributed_s"] == pytest.approx(wall)
    return counts, tracer.counters, ops.counts


def test_two_traced_runs_give_identical_counts(tmp_path):
    import pca.algebra
    import pca.linalg
    solve = pca.linalg.solve
    w = workloads.generate("cli_small", gate.RECORDED_SEED)
    keep = ("split", "conjugate", "tower_build", "tower_check")
    w.jobs = [j for i, j in enumerate(w.jobs) if i % 3 == 0 or j.cmd in keep]
    workloads.write_inputs(w, tmp_path)
    expected = gate.load_expected("cli_small", gate.RECORDED_SEED)
    first = _counted_pass(w, tmp_path, expected)
    second = _counted_pass(w, tmp_path, expected)
    assert first == second
    assert first[0]["cli.calls"] > 0 and first[1]["fileio.bytes_in"] > 0
    # every wrapper is gone again
    assert pca.linalg.solve is solve and pca.algebra.solve is solve


def _report(results):
    return json.dumps({"command": "x", "results": results,
                       "verified": {"anything": True}})


def test_gate_rejects_one_altered_result():
    w = workloads.generate("radical_tower", gate.RECORDED_SEED)
    expected = gate.load_expected("radical_tower", gate.RECORDED_SEED)
    job = next(j for j in w.jobs if j.name == "radical:f2c8")
    recorded = expected[job.name]
    results = json.loads(recorded)
    assert gate.check(job, 0, _report(results), "", recorded) is None
    assert gate.check(job, 2, _report(results), "", recorded) is not None

    basis = results["radical_basis"]
    basis[0][0] = "1" if basis[0][0] == "0" else "0"
    assert gate.check(job, 0, _report(results), "", recorded) is not None

    # without a recorded answer the construction's invariants still apply
    results = json.loads(recorded)
    results["nilpotency_index"] += 1
    assert gate.check(job, 0, _report(results), "", None) is not None


def test_gate_input_errors_need_the_error_line():
    w = workloads.generate("cli_small", gate.RECORDED_SEED)
    job = next(j for j in w.jobs if j.name == "malformed:non_assoc")
    assert gate.check(job, 1, "", "pca: error: not associative\n",
                      None) is None
    assert gate.check(job, 1, "", "Traceback (most recent call last)\n",
                      None) is not None
