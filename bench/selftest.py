"""Checks of the benchmark itself.

Usage: python3 bench/selftest.py [--workload NAME ...] [--seed N]

1. The tracer rebinds every reference to a traced function: module
   attributes, ``from .x import f`` copies and function defaults such as
   ``hom_fn=rp.hom_layered``.
2. The tracer refuses to run while an unwrapped traced function is still
   reachable from a replalg namespace, default or module-level container.
3. For each workload (default: all), two traced passes with the same seed
   give identical ``.calls`` and hit counts, and every traced job's stdout
   digest equals the untraced one (and the shipped reference).

Exits 1 if any check fails.
"""

import argparse
import sys
import time

import run
import tracer
from workloads import WORKLOADS

SRC = run.ROOT / "src"


def check_tracer_rebinds_everything():
    sys.path.insert(0, str(SRC))
    t = tracer.Tracer().install()
    from replalg import (artrans, endalg, gencog, quiverrep, replicated, splitting,
                         verify)
    hom = replicated.hom_layered
    assert hasattr(hom, "__wrapped__")
    for module in (artrans, quiverrep, replicated, gencog, endalg):
        for name in ("fitting_split", "single_eigenvalue", "find_invertible_combo"):
            if hasattr(module, name):
                assert getattr(module, name) is getattr(splitting, name), \
                    f"{module.__name__}.{name}"
    assert verify.end_algebra_gldim is endalg.end_algebra_gldim
    assert hasattr(endalg.end_algebra_gldim, "__wrapped__")
    for fn in (gencog.min_right_approx.__wrapped__, gencog.verify_approximation,
               endalg.EndAlgebra.__init__, endalg.end_algebra_gldim.__wrapped__):
        assert hom in fn.__defaults__, fn.__qualname__
    assert hasattr(replicated.LayeredModule.__init__, "__wrapped__")
    return t


def check_tracer_refuses_leftovers(t):
    from replalg import gencog, replicated, splitting, verify
    original = splitting.fitting_split.__wrapped__
    plants = [
        ("module attribute",
         lambda: setattr(verify, "_leftover", original),
         lambda: delattr(verify, "_leftover")),
        ("module-level tuple",
         lambda: setattr(gencog, "_leftover", (1, (original,))),
         lambda: delattr(gencog, "_leftover")),
    ]
    fn = gencog.verify_approximation
    saved = fn.__defaults__
    plants.append(("function default",
                   lambda: setattr(fn, "__defaults__", (replicated.hom_layered.__wrapped__,)),
                   lambda: setattr(fn, "__defaults__", saved)))
    for what, plant, undo in plants:
        plant()
        try:
            t.check()
        except tracer.TracerError:
            pass
        else:
            raise AssertionError(f"tracer accepted an unwrapped function in a {what}")
        finally:
            undo()
    t.check()


def check_counters_deterministic(workload, seed):
    runner = run.Runner(run.load_reference(), seed, time.monotonic() + 3600)
    jobs = list(WORKLOADS[workload])
    plain = runner.run_pass(jobs, False)
    first = runner.run_pass(jobs, True)
    second = runner.run_pass(jobs, True)
    errors = [f"{c.job.name}: {e}" for c in plain + first + second for e in c.errors]
    assert not errors, errors
    a, b = run.layer_counts(first), run.layer_counts(second)
    diff = sorted(name for name in a if a[name] != b[name])
    assert not diff, f"counts differ between traced passes: {diff}"
    for p, t1, t2 in zip(plain, first, second):
        assert p.digest == t1.digest == t2.digest, f"{p.job.name}: traced stdout differs"


def main():
    parser = argparse.ArgumentParser(description="benchmark self-checks")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    opts = parser.parse_args()
    failed = 0

    def attempt(name, fn, *args):
        nonlocal failed
        try:
            out = fn(*args)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
            return None
        print(f"ok   {name}")
        return out

    t = attempt("tracer rebinds every reference", check_tracer_rebinds_everything)
    if t is not None:
        attempt("tracer refuses leftovers", check_tracer_refuses_leftovers, t)
    for workload in opts.workload or sorted(WORKLOADS):
        attempt(f"deterministic counters on {workload}",
                check_counters_deterministic, workload, opts.seed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
