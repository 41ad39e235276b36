"""End-to-end benchmark of the ``pca`` command line.

Usage (from the repository root):

    python3 bench/run.py --workload sparse_solve --seed 1 --seconds 30
    python3 bench/run.py --workload radical_tower --trace 1
    python3 bench/run.py --workload all          # every workload in turn
    python3 bench/run.py --record                # re-record expected results

An untraced run (``--trace 0``) times each job as a fresh
``python -m pca ... --json`` process, one job at a time (a closed loop with
one client), repeats the workload's job list until the time is up, and
gives the times at a reference speed (see REFERENCE below).  A
traced run (``--trace 1``) executes the same jobs in this process through
``pca.cli.main`` and reports the per-layer numbers.  Every job's output is
checked by the gate either way; the last line of output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is 1 when any job failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import gate          # noqa: E402
import tracing       # noqa: E402
import workloads     # noqa: E402

SETUP_REPEATS = 5
STARTUP_REPEATS = 7
JOB_TIMEOUT_S = 120
TAIL_BEYOND = 10      # jobs that must lie beyond the reported tail

# The machine is shared and its speed drifts by tens of percent over
# seconds to minutes.  A fixed pure-Python program that does not use pca
# runs as its own process before the first job and after every job, and
# each job time is divided by the mean of the two reference times around
# it and multiplied by REFERENCE_S, which gives it at one reference speed.
# Over ten seeds this cut the quartile spread of wall_s, job_p50_s and
# job_tail_s on radical_tower from 0.19-0.21 of their median to 0.02-0.09.
REFERENCE = """\
from fractions import Fraction
acc, d = Fraction(0), {}
for i in range(1, 6000):
    acc += Fraction(i % 7, i % 5 + 1)
    d[i % 97] = d.get(i % 97, 0) + i
"""
REFERENCE_S = 0.06
# set-up runs in this process, so it is scaled by the same program run here
REFERENCE_CODE = compile(REFERENCE, "<reference>", "exec")
REFERENCE_HERE_S = 0.02


def reference_here():
    t0 = time.perf_counter()
    exec(REFERENCE_CODE, {})
    return time.perf_counter() - t0


# -- set-up ----------------------------------------------------------------

def setup(name: str, seed: int, wd: Path):
    """Generate the inputs and load the expected results SETUP_REPEATS
    times; returns the workload, the expected results, the median set-up
    time at the reference speed and the corpus digest.  Every repeat must
    write the same bytes."""
    times, digests = [], set()
    before = reference_here()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if wd.exists():
            shutil.rmtree(wd)
        wd.mkdir(parents=True)
        w = workloads.generate(name, seed)
        digest = workloads.write_inputs(w, wd)
        expected = gate.load_expected(name, seed)
        took = time.perf_counter() - t0
        after = reference_here()
        times.append(took * REFERENCE_HERE_S / ((before + after) / 2))
        before = after
        digests.add(digest)
    if len(digests) != 1:
        raise SystemExit(f"bench: {name} inputs differ between set-ups")
    return w, expected, statistics.median(times), digests.pop()


def job_env():
    """The environment of a job process: the absolute ``src`` directory
    first on PYTHONPATH, so the result does not depend on the working
    directory, and bytecode caching on, so jobs load compiled modules as
    an installed package does whatever the caller's environment says."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def pca_process(argv, cwd, env):
    return subprocess.run([sys.executable, "-m", "pca", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S)


# -- untraced, one process per job -----------------------------------------

def more_passes(start, last, seconds):
    """Start another whole pass if one as long as the last still ends
    within ``seconds`` of ``start``."""
    return time.perf_counter() - start + last <= seconds


def reference(env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE], env=env,
                   capture_output=True, timeout=JOB_TIMEOUT_S, check=True)
    return time.perf_counter() - t0


def timed_passes(w, wd, expected, seconds, failures):
    """Whole passes over the job list for about ``seconds``.  Returns each
    job's times at the reference speed, one per pass."""
    env = job_env()
    pca_process(["--help"], wd, env)          # compiles the bytecode once
    per_job = [[] for _ in w.jobs]
    before = reference(env)
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for i, job in enumerate(w.jobs):
            t0 = time.perf_counter()
            try:
                res = pca_process([*job.argv, "--json"], wd, env)
                rc, out, err = res.returncode, res.stdout, res.stderr
            except subprocess.TimeoutExpired:
                rc, out, err = "timeout", "", ""
            took = time.perf_counter() - t0
            after = reference(env)
            per_job[i].append(took * REFERENCE_S / ((before + after) / 2))
            before = after
            why = gate.check(job, rc, out, err, expected.get(job.name))
            if why:
                failures.append(f"{job.name}: {why}")
        if not more_passes(start, time.perf_counter() - p0, seconds):
            return per_job


def end_to_end(w, per_job):
    """The gated metrics, and the per-command time sums printed beside
    them.  Each job is taken at its median over the run's passes."""
    passes = len(per_job[0])
    times = [statistics.median(ts) for ts in per_job]
    ranked = sorted(times)
    n = len(ranked)
    tail_at = n - TAIL_BEYOND - 1
    metrics = {
        "wall_s": (sum(times), "s", f"{n} jobs, median of {passes} passes"),
        "job_p50_s": (statistics.median(times), "s", f"median of {n} jobs"),
        "job_tail_s": (ranked[tail_at], "s",
                       f"p{100 * (tail_at + 1) / n:.0f} of {n} jobs,"
                       f" {TAIL_BEYOND} beyond"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN)
                        .ru_maxrss / 1024, "MB", "largest job process"),
    }
    by_cmd = {}
    for job, t in zip(w.jobs, times):
        by_cmd.setdefault(job.cmd, []).append(t)
    sums = {f"{cmd}_s": (sum(by_cmd[cmd]), "s", f"{len(by_cmd[cmd])} jobs")
            for cmd in workloads.COMMANDS if cmd in by_cmd}
    return metrics, sums


# -- in-process passes, traced or not --------------------------------------

def inprocess_pass(w, wd, expected, failures, tracer=None):
    """Run every job through ``pca.cli.main`` in this process; returns the
    pass wall time.  ``tracer`` only labels spans with the job index."""
    import pca.cli
    old_cwd = os.getcwd()
    os.chdir(wd)
    try:
        start = time.perf_counter()
        for i, job in enumerate(w.jobs):
            if tracer is not None:
                tracer.job = i
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    rc = pca.cli.main([*job.argv, "--json"])
                except SystemExit as exc:
                    rc = exc.code
                except Exception:      # an escaped error is a failed job
                    traceback.print_exc()
                    rc = 1
            why = gate.check(job, rc, out.getvalue(), err.getvalue(),
                             expected.get(job.name))
            if why:
                failures.append(f"{job.name}: {why}")
        return time.perf_counter() - start
    finally:
        os.chdir(old_cwd)
        if tracer is not None:
            tracer.job = None


def startup_time(wd):
    env = job_env()
    times = []
    for _ in range(STARTUP_REPEATS + 1):
        t0 = time.perf_counter()
        pca_process(["--help"], wd, env)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])     # the first one compiles


def traced_run(w, wd, expected, seconds, failures):
    """Per-layer metrics: alternating untraced and traced in-process passes
    until the time is up, then one field-operation counting pass."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pca  # noqa: F401  (loads every layer before wrapping)
    startup = startup_time(wd)
    plain, traced, layer_samples = [], [], []
    counters = first_spans = None
    start = time.perf_counter()
    while True:
        plain.append(inprocess_pass(w, wd, expected, failures))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall = inprocess_pass(w, wd, expected, failures, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        layer_samples.append(tracing.summarize(tracer.spans, wall))
        if counters is None:
            counters, first_spans = tracer.counters, tracer.spans
        elif tracer.counters != counters:
            failures.append("trace: counters differ between traced passes")
        if not more_passes(start, plain[-1] + traced[-1], seconds):
            break
    ops = tracing.OpCounter()
    ops.install()
    try:
        inprocess_pass(w, wd, expected, failures)
    finally:
        ops.uninstall()
    write_spans(wd / "spans.json", w, first_spans)

    metrics = {}
    for key in layer_samples[0]:
        values = [s[key] for s in layer_samples]
        if key.endswith("_s"):
            metrics[key] = (statistics.median(values), "s")
        elif len(set(values)) != 1:
            failures.append(f"trace: {key} differs between traced passes")
            metrics[key] = (values[0], "count")
        else:
            metrics[key] = (values[0], "count")
    metrics["trace.unattributed_s"] = metrics.pop("unattributed_s")
    metrics["cli.startup_s"] = (startup, "s")
    for key in ("fileio.bytes_in", "fileio.bytes_out", "linalg.max_rows",
                "linalg.max_cols", "linalg.nnz_in", "radical.trace_form",
                "radical.char_p_chain"):
        metrics[key] = (counters.get(key, 0), "count")
    for kind, n in ops.counts.items():
        metrics[f"fields.ops.{kind}"] = (n, "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics, len(traced)


def write_spans(path: Path, w, spans):
    doc = {"fields": ["layer", "name", "start", "end", "parent", "job",
                      "bookkeeping_s"],
           "jobs": [job.name for job in w.jobs], "spans": spans}
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


# -- reporting -------------------------------------------------------------

def show(name, value, unit, note=""):
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<24} = {text} {unit}" + (f"   ({note})" if note else ""))


def run_workload(name, seed, seconds, trace):
    wd = WORK / f"{name}-{seed}"
    w, expected, setup_s, digest = setup(name, seed, wd)
    print(f"workload {name}  seed {seed}  {len(w.jobs)} jobs  "
          f"inputs {digest[:16]}  python {sys.version.split()[0]}  "
          f"nproc {os.cpu_count()}")
    failures = []
    if trace:
        metrics, passes = traced_run(w, wd, expected, seconds, failures)
        attempted = len(w.jobs) * (2 * passes + 1)
        print(f"  traced: {passes} traced and {passes} untraced in-process "
              f"passes, one counting pass; spans in {wd / 'spans.json'}")
        for key, (value, unit) in metrics.items():
            show(key, value, unit)
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        per_job = timed_passes(w, wd, expected, seconds, failures)
        attempted = len(w.jobs) * len(per_job[0])
        metrics, sums = end_to_end(w, per_job)
        metrics = {"setup_s": (setup_s, "s",
                               f"median of {SETUP_REPEATS} set-ups"),
                   **metrics}
        for key, (value, unit, note) in {**metrics, **sums}.items():
            show(key, value, unit, note)
        out = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    show("fail_ratio", f"{len(failures)}/{attempted}", "")
    for why in failures[:20]:
        print(f"  FAILED {why}")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": out}


def record():
    """Run each workload once with the recorded seed and store the results
    of every job that passes its construction checks."""
    env = job_env()
    for name in workloads.WORKLOADS:
        wd = WORK / f"record-{name}"
        if wd.exists():
            shutil.rmtree(wd)
        wd.mkdir(parents=True)
        w = workloads.generate(name, gate.RECORDED_SEED)
        workloads.write_inputs(w, wd)
        results = {}
        for job in w.jobs:
            res = pca_process([*job.argv, "--json"], wd, env)
            why = gate.check(job, res.returncode, res.stdout, res.stderr,
                             None)
            if why:
                raise SystemExit(f"bench: {name} {job.name}: {why}")
            if job.exit != 1:
                results[job.name] = gate.canonical(
                    json.loads(res.stdout)["results"])
        doc = {"workload": name, "seed": gate.RECORDED_SEED,
               "unseeded": sorted(j.name for j in w.jobs
                                  if not j.seeded and j.name in results),
               "results": results}
        path = gate.EXPECTED_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"recorded {len(results)} results in {path}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=gate.RECORDED_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record the expected results and exit")
    args = ap.parse_args(argv)
    if not (SRC / "pca" / "__init__.py").is_file():
        print(f"bench: no pca sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    names = (workloads.WORKLOADS if args.workload == "all"
             else [args.workload])
    results = {n: run_workload(n, args.seed, args.seconds, args.trace)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
