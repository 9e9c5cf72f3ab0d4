"""Write bench/reference.json: exit code and stdout sha256 of every job at
each of its reference seeds (0..REFERENCE_SEEDS-1, or only its fixed seed),
from running ``python3 -m replalg.cli`` directly.

Usage: python3 bench/make_reference.py

Run it only when the program's output is meant to change; the benchmark
compares every job's stdout with these digests.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import ALL_JOBS, oracle_errors

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_direct(job, cli_seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "replalg.cli"] + job.cli_argv(cli_seed),
                          cwd=ROOT, env=env, capture_output=True, timeout=600)
    errors = oracle_errors(job, json.loads(proc.stdout))
    if proc.returncode != 0 or errors:
        raise SystemExit(f"{job.name} seed {cli_seed}: exit {proc.returncode}, {errors}\n"
                         f"{proc.stderr.decode()}")
    return hashlib.sha256(proc.stdout).hexdigest()


def main():
    jobs = {}
    for job in ALL_JOBS:
        digests = {str(seed): run_direct(job, seed) for seed in job.reference_seeds()}
        jobs[job.name] = {"args": list(job.args), "exit": 0, "sha256": digests}
    data = {"jobs": jobs}
    (BENCH / "reference.json").write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
