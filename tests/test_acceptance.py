"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Criterion 1 pins the global-dimension table of the replicated algebras of
the A_2 quiver, gl.dim A_2^(m) = m + 1 + floor(m/3) for m = 1..4, that is
2, 3, 5, 6.  The table comes from the Nakayama description of A_2^(m)
(derived in the test's docstring), not from the program.
"""

import math
import time

import pytest

from oracles import exhaustive_indecomposables_a2_m1

from replalg import artrans as ar
from replalg import gencog as gc
from replalg import quiverrep as qr
from replalg import replicated as rp
from replalg import verify as vf
from replalg.endalg import end_algebra_gldim
from replalg.errors import OracleUnavailable
from replalg.gencog import GenCog, MDimEngine, WitnessNotFound

P = 32003


def a2():
    return qr.Quiver(["1", "2"], [("a", "2", "1")])


def a2r():
    return qr.Quiver(["1", "2"], [("a", "1", "2")])


def a3():
    return qr.Quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")])


def a3alt():
    return qr.Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")])


def d4():
    return qr.Quiver(["0", "1", "2", "3"],
                     [("a", "1", "0"), ("b", "2", "0"), ("c", "3", "0")])


def kronecker():
    return qr.Quiver(["1", "2"], [("b", "2", "1"), ("c", "2", "1")])


def announce(number, ok, detail, budget, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")


def test_criterion_1_gldim_table():
    """gl.dim A_2^(m) = m + 1 + floor(m/3).

    A_2^(m) is the bound quiver algebra of a linear A_{2m+2} quiver whose
    arrows alternate between the layer arrow a and the connecting arrow
    dual to a (Happel's repetitive-algebra description; see also
    Assem-Bruestle-Schiffler-Todorov 2008).  Every path of length 3 is
    zero, because a.a*.a = 0 in D(A) and D(A).D(A) = 0, while paths of
    length 2 are nonzero.  So the projective at distance d from the sink is
    uniserial of length min(d + 1, 3), and on this Nakayama line the second
    syzygy of a simple is the simple three steps nearer the sink.  A simple
    at distance d = 3q + s (0 <= s < 3) therefore has pd 2q + [s > 0].  This
    grows with d and is largest at d = 2m + 1, which gives
    m + 1 + floor(m/3): 2, 3, 5, 6 for m = 1..4.
    """
    t0 = time.monotonic()
    got = {}
    for m in (1, 2, 3, 4):
        alg = rp.build_replicated(a2(), m, P)
        got[m] = rp.global_dimension(alg)
    want = {m: m + 1 + m // 3 for m in (1, 2, 3, 4)}
    elapsed = time.monotonic() - t0
    ok = got == want and elapsed < 5
    announce(1, ok, f"gl.dim table for replicated A_2: want {want}, got {got}",
             5, elapsed)
    assert elapsed < 5
    assert got == want, (
        "gl.dim A_2^(m) should be m + 1 + floor(m/3) (pd of the simples "
        "on the Nakayama line A_{2m+2} with length-3 paths zero), "
        f"computed {got}")


def test_criterion_2_gldim_bounds():
    t0 = time.monotonic()
    cases = [("a2", a2()), ("a2 reversed", a2r()), ("a3", a3()),
             ("a3 alternating", a3alt()), ("d4 subspace", d4()),
             ("kronecker", kronecker())]
    bad = []
    for name, quiver in cases:
        for m in (1, 2):
            alg = rp.build_replicated(quiver, m, P)
            gd = rp.global_dimension(alg)
            if not (m + 1 <= gd <= 2 * m + 1):
                bad.append((name, m, gd))
            if name == "kronecker" and gd != 2 * m + 1:
                bad.append((name, m, gd, "expected 2m+1"))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 30
    announce(2, ok, f"bounds m+1 <= gl.dim <= 2m+1 on 6 quivers, m = 1, 2; "
                    f"violations: {bad}", 30, elapsed)
    assert not bad
    assert elapsed < 30


def test_criterion_3_catalog_and_orbits():
    t0 = time.monotonic()
    alg = rp.build_replicated(a2(), 1, P)
    cat = ar.indec_catalog(alg)
    orbits = ar.tau_orbits(cat).cardinalities()
    meshes_ok = ar.ar_quiver(cat).mesh_violations() == []
    oracle = exhaustive_indecomposables_a2_m1(3)
    oracle_labels = sorted(m.dim_label() for m in oracle)
    catalog_labels = sorted(m.dim_label() for m in cat.modules)
    cat3 = ar.indec_catalog(rp.build_replicated(a2(), 1, 3))
    orbits3 = ar.tau_orbits(cat3).cardinalities()
    elapsed = time.monotonic() - t0
    ok = (len(cat) == 9 and orbits == [4, 3, 1, 1] and meshes_ok
          and len(oracle) == 9 and oracle_labels == catalog_labels
          and orbits3 == [4, 3, 1, 1])
    announce(3, ok and elapsed < 30,
             f"catalog size {len(cat)} (oracle {len(oracle)}), orbits {orbits}, "
             f"meshes ok: {meshes_ok}", 30, elapsed)
    assert ok
    assert elapsed < 30


def test_criterion_4_theorem_1_both_directions():
    t0 = time.monotonic()
    details = []
    bad = []
    for name, quiver in (("a2", a2()), ("a3", a3())):
        _, cat, engine = vf.catalog_context(quiver, 1, P)
        cap = ar.tau_orbits(cat).max_cardinality()
        for d in range(2, cap + 1):
            gencog, _ = gc.construct_thm32(cat, d, engine=engine)
            got = gc.gldim_end(gencog).value
            if got != d:
                bad.append((name, d, got))
        try:
            gc.construct_thm32(cat, cap + 1, engine=engine)
            bad.append((name, cap + 1, "construction should have failed"))
        except WitnessNotFound:
            pass
        over = 0
        for gencog in vf.random_gencogs(range(len(cat)), engine, 200, seed=0):
            if gc.gldim_end(gencog).value > cap:
                over += 1
        if over:
            bad.append((name, "random sweep", over))
        details.append(f"{name}: L = {cap}, achievable {{2..{cap}}}")
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 180
    announce(4, ok, "; ".join(details) + f"; violations: {bad}", 180, elapsed)
    assert not bad
    assert elapsed < 180


def test_criterion_5_prop41():
    t0 = time.monotonic()
    bad = []
    for name, quiver in (("a2", a2()), ("a3", a3())):
        algebra = rp.build_replicated(quiver, 1, P)
        _, cat, engine = vf.catalog_context(quiver, 1, P)
        t = rp.global_dimension(algebra)
        for i in range(1, t):
            ei = gc.construct_E(algebra, i, engine=engine)
            got = gc.gldim_end(ei).value
            if got != i + 2:
                bad.append((name, i, got))
            try:
                oracle = end_algebra_gldim(ei)
                if oracle != i + 2:
                    bad.append((name, i, "oracle", oracle))
            except OracleUnavailable:
                pass
    report = vf.suite_prop41(kronecker(), m=1, p=3, bound=3)
    if report["verdict"] != "pass":
        bad.append(("kronecker windowed", report["counterexamples"]))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 180
    announce(5, ok, f"E_i exact on a2/a3 with oracle cross-check; kronecker "
                    f"window-verified at B=3, p=3; violations: {bad}", 180, elapsed)
    assert not bad
    assert elapsed < 180


def test_criterion_6_lemma21_oracle_equivalence():
    t0 = time.monotonic()
    compared = 0
    bad = []
    for quiver in (a2(), a3()):
        _, cat, engine = vf.catalog_context(quiver, 1, P)
        for gencog in vf.random_gencogs(range(len(cat)), engine, 8, seed=11):
            lemma = gc.gldim_end(gencog).value
            try:
                oracle = end_algebra_gldim(gencog)
            except OracleUnavailable:
                continue
            compared += 1
            if lemma != oracle:
                bad.append((sorted(gencog.summands), lemma, oracle))
    elapsed = time.monotonic() - t0
    ok = compared >= 10 and not bad and elapsed < 120
    announce(6, ok, f"{compared} generator-cogenerators compared, "
                    f"mismatches: {bad}", 120, elapsed)
    assert compared >= 10
    assert not bad
    assert elapsed < 120


def test_criterion_7_lem22_and_lem23_sandwich():
    t0 = time.monotonic()
    r22 = vf.suite_lem22(a3(), m=1, p=P)
    r23_a2 = vf.suite_lem23_2(a2(), m=1, p=P)
    r23_a3 = vf.suite_lem23_2(a3(), m=1, p=P)
    elapsed = time.monotonic() - t0
    ok = all(r["verdict"] == "pass" for r in (r22, r23_a2, r23_a3)) and elapsed < 120
    announce(7, ok, f"lem22 on a3: {r22['verdict']}; pd sandwich: "
                    f"a2 {r23_a2['verdict']}, a3 {r23_a3['verdict']}", 120, elapsed)
    assert r22["verdict"] == "pass"
    assert r23_a2["verdict"] == "pass"
    assert r23_a3["verdict"] == "pass"
    assert elapsed < 120


def test_criterion_8_lem47_desk_scale():
    t0 = time.monotonic()
    report = vf.suite_lem47(kronecker(), m=1, d=5, p=3, bound=3)
    elapsed = time.monotonic() - t0
    checks = {c["check"]: c["ok"] for c in report["checks"]}
    ok = report["verdict"] == "pass" and elapsed < 180
    announce(8, ok, f"chain identities + lower bound 5 + window check: {checks}",
             180, elapsed)
    assert report["verdict"] == "pass", report["counterexamples"]
    assert elapsed < 180


def test_criterion_9_lem48_infinite_case():
    t0 = time.monotonic()
    report = vf.suite_lem48(kronecker(), m=1, p=P)
    elapsed = time.monotonic() - t0
    ok = report["verdict"] == "pass" and elapsed < 60
    announce(9, ok, f"Omega_M(N) = N + projective and M-dim N = inf with "
                    f"cycle certificate", 60, elapsed)
    assert report["verdict"] == "pass", report["counterexamples"]
    assert elapsed < 60


def test_criterion_10_cor42():
    t0 = time.monotonic()
    bad = []
    for name, quiver in (("a2", a2()), ("a3", a3())):
        report = vf.suite_cor42(quiver, m=1, p=P)
        if report["verdict"] != "pass":
            bad.append((name, report["counterexamples"]))
    report = vf.suite_cor42(kronecker(), m=1, p=3, bound=3)
    if report["verdict"] != "pass":
        bad.append(("kronecker windowed", report["counterexamples"]))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 120
    announce(10, ok, f"gl.dim End(E_1) <= 3 everywhere, additive generator "
                     f"<= 2 on rep-finite; violations: {bad}", 120, elapsed)
    assert not bad
    assert elapsed < 120
