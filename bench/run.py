"""replalg benchmark: fixed lists of CLI jobs, timed from outside.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each job runs in its own fresh child interpreter (bench/child.py), one at a
time from this single parent process: the load is sequential and
closed-loop. A fresh process per job matters because replalg memoizes
algebras and whole catalogs at module level, so an in-process repeat would
time a cache hit no CLI user ever gets.

A run repeats passes over the workload's jobs while another pass fits in
``--seconds`` (at least one pass), checks every job's exit code, stdout
digest and oracles, and reports medians over passes.

--trace 0 first starts SETUP_SAMPLES set-up-only children per job, then
makes its passes, and reports the end-to-end metrics:
    run_s        one pass, summed over jobs: replalg.cli.main(argv) from
                 call to return (per-job median over passes)
    setup_s      summed over jobs: wall time of a set-up-only child
                 (per-job median over SETUP_SAMPLES children). It covers
                 interpreter start, imports, build_replicated and exit, but
                 not the command, its stdout or freeing the command's heap.
    peak_rss_mb  largest peak RSS of any job child
--trace 1 alternates untraced and traced passes and reports, from the
traced passes, per traced function ``<module>.<function>.calls|self_s|
total_s`` summed over the jobs of a pass, the four hit ratios, per-job
``cli.job_s.<job>`` and ``trace.overhead_s`` (traced minus untraced
run_s). Every result names every per-layer metric, so two values mean
"not applicable" rather than a measurement: ``cli.job_s.<job>`` reads 0
for a job of another workload, and a hit ratio reads 0 when its function
was not called (its ``.calls`` reads 0 too).

The last stdout line is the JSON result; a fuller record, with Python,
numpy, nproc and the CPU model, goes to bench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import MARK
from tracer import HIT_RULES, traced_names
from workloads import ALL_JOBS, WORKLOADS, oracle_errors

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 3   # set-up-only children per job in a --trace 0 run
RUN_LIMIT_S = 170   # a run must end within 180 s; children are killed past this


class Child:
    """Outcome of one child process."""

    def __init__(self, job, mode, trace):
        self.job, self.mode, self.trace = job, mode, trace
        self.wall_s = self.run_s = None
        self.report = {}
        self.digest = None
        self.errors = []


class Runner:
    """Starts job children one at a time and checks their output."""

    def __init__(self, reference, seed, deadline):
        self.reference, self.seed, self.deadline = reference, seed, deadline

    def child(self, job, mode, trace):
        child = Child(job, mode, trace)
        cmd = [sys.executable, str(BENCH / "child.py"), mode, str(int(trace))]
        cmd += job.argv(self.seed)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.errors.append("timed out")
            return child
        child.wall_s = time.perf_counter() - t0
        lines = proc.stderr.decode(errors="replace").splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith(MARK):
            child.errors.append(f"child exit {proc.returncode}: " + " | ".join(lines[-5:]))
            return child
        child.report = json.loads(lines[-1][len(MARK):])
        child.run_s = child.report.get("run_s", 0.0)
        if mode == "run":
            child.digest = hashlib.sha256(proc.stdout).hexdigest()
            child.errors += self.check_output(job, child.report["exit"], proc.stdout,
                                              child.digest)
        return child

    def check_output(self, job, code, stdout, digest):
        ref = self.reference["jobs"][job.name]
        errors = []
        if code != ref["exit"]:
            errors.append(f"exit code {code} != {ref['exit']}")
        if digest != ref["sha256"][str(job.seed(self.seed))]:
            errors.append("stdout digest differs from the reference")
        try:
            errors += oracle_errors(job, json.loads(stdout))
        except ValueError:
            errors.append("stdout is not JSON")
        return errors

    def run_pass(self, jobs, trace):
        out = []
        for job in jobs:
            child = self.child(job, "run", trace)
            out.append(child)
            for err in child.errors:
                print(f"FAIL {job.name} (trace={int(trace)}): {err}", file=sys.stderr)
        return out


def load_reference():
    data = json.loads((BENCH / "reference.json").read_text())
    for job in ALL_JOBS:
        ref = data["jobs"].get(job.name)
        if (ref is None or ref["args"] != list(job.args)
                or sorted(ref["sha256"]) != sorted(map(str, job.reference_seeds()))):
            raise ValueError(f"reference.json is stale for job {job.name}")
    return data


def preflight():
    """Refuse to run unless the program and the inputs are present."""
    needed = [ROOT / "src" / "replalg" / "cli.py"]
    needed += sorted({ROOT / job.args[job.args.index("--quiver") + 1] for job in ALL_JOBS})
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"bench: missing {', '.join(missing)}; run from a full checkout")


def median_job(passes, idx, attr):
    return statistics.median(getattr(p[idx], attr) for p in passes)


def pass_run_s(children):
    return sum(c.run_s for c in children)


def end_to_end(runner, jobs, seconds):
    start = time.monotonic()
    setups = [[runner.child(job, "setup", False) for job in jobs]
              for _ in range(SETUP_SAMPLES)]
    children = [c for s in setups for c in s]
    if any(c.errors for c in children):
        return children, None
    passes, passes_start = [], time.monotonic()
    while True:
        passes.append(runner.run_pass(jobs, False))
        now = time.monotonic()
        if (any(c.errors for c in passes[-1])
                or now - start + (now - passes_start) / len(passes) > seconds):
            break
    children += [c for p in passes for c in p]
    if any(c.errors for c in children):
        return children, None
    metrics = {
        "run_s": (sum(median_job(passes, i, "run_s") for i in range(len(jobs))), "s"),
        "setup_s": (sum(median_job(setups, i, "wall_s") for i in range(len(jobs))), "s"),
        "peak_rss_mb": (max(c.report["maxrss_kb"] for c in children) / 1024.0, "MB"),
    }
    return children, metrics


def layers(runner, jobs, seconds):
    start = time.monotonic()
    plain, traced = [], []
    while True:
        plain.append(runner.run_pass(jobs, False))
        traced.append(runner.run_pass(jobs, True))
        elapsed = time.monotonic() - start
        if (any(c.errors for c in plain[-1] + traced[-1])
                or elapsed / len(plain) + elapsed > seconds):
            break
    children = [c for p in plain + traced for c in p]
    if any(c.errors for c in children):
        return children, None
    counts = [layer_counts(p) for p in traced]
    if any(c != counts[0] for c in counts):
        children[0].errors.append("traced call counts differ between passes")
    if any(c.errors for c in children):
        return children, None

    metrics = {}
    for name in traced_names():
        metrics[f"{name}.calls"] = (counts[0][name][0], "count")
        for key in ("self_s", "total_s"):
            metrics[f"{name}.{key}"] = (
                statistics.median(sum(c.report["trace"][name][key] for c in p)
                                  for p in traced), "s")
    for name in HIT_RULES:
        calls, hits = counts[0][name]
        metrics[f"{name}.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    for job in ALL_JOBS:
        metrics[f"cli.job_s.{job.name}"] = (
            median_job(traced, jobs.index(job), "run_s") if job in jobs else 0.0, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(pass_run_s(p) for p in traced)
        - statistics.median(pass_run_s(p) for p in plain), "s")
    return children, metrics


def layer_counts(children):
    """traced name -> (calls, hits), summed over the jobs of one pass."""
    return {name: (sum(c.report["trace"][name]["calls"] for c in children),
                   sum(c.report["trace"][name]["hits"] for c in children))
            for name in traced_names()}


def environment(children):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    numpy_versions = sorted({c.report["numpy"] for c in children if "numpy" in c.report})
    return {"python": platform.python_version(), "numpy": ", ".join(numpy_versions),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu or platform.processor()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="replalg CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seconds < 1:
        parser.error("--seconds must be at least 1")
    return opts


def main(argv=None):
    opts = parse_args(argv)
    preflight()
    try:
        reference = load_reference()
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"bench: cannot use bench/reference.json: {exc}")
    runner = Runner(reference, opts.seed, time.monotonic() + RUN_LIMIT_S)
    measure = layers if opts.trace else end_to_end
    children, metrics = measure(runner, list(WORKLOADS[opts.workload]), opts.seconds)
    attempted = sum(1 for c in children if c.mode == "run")
    failed = sum(1 for c in children if c.mode == "run" and c.errors)
    correct = metrics is not None and failed == 0
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if correct else max(failed, 1),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in (metrics or {}).items()},
    }
    record = dict(result, workload=opts.workload, seed=opts.seed,
                  seconds=opts.seconds, trace=opts.trace, environment=environment(children),
                  children=[{"job": c.job.name, "job_seed": c.job.seed(opts.seed),
                             "mode": c.mode, "trace": c.trace,
                             "wall_s": c.wall_s, "run_s": c.run_s,
                             "run_cpu_s": c.report.get("run_cpu_s"),
                             "maxrss_kb": c.report.get("maxrss_kb"), "sha256": c.digest,
                             "errors": c.errors} for c in children])
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
