import inspect
from pathlib import Path

import pytest

from replalg import (artrans, cli, endalg, exactfield, gencog, quiverrep, replicated,
                     splitting, verify, windows)
from replalg import quiverrep as qr
from replalg import verify as vf
from replalg.errors import InputError

P = 32003


def a2():
    return qr.Quiver(["1", "2"], [("a", "2", "1")])


def a3():
    return qr.Quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")])


def kronecker():
    return qr.Quiver(["1", "2"], [("b", "2", "1"), ("c", "2", "1")])


def a2t():
    return qr.Quiver.load(str(Path(__file__).resolve().parent.parent / "quivers" / "a2t.q"))


def test_prop41_computes_each_u_stratum_once(monkeypatch):
    # E_i takes U_i, ..., U_{t-1} for every i = 1..t-1 (t = 4 over A_3^(2),
    # so U_3 is read three times); each U_k is one Sigma_k walk, on fresh
    # algebras and contexts so that no earlier test has filled the memo
    calls = []
    real = replicated.sigma_stratum
    monkeypatch.setattr(replicated, "sigma_stratum",
                        lambda algebra, k: calls.append(k) or real(algebra, k))
    monkeypatch.setattr(replicated, "_ALGEBRAS", {})
    monkeypatch.setattr(vf, "_CONTEXTS", {})
    report = vf.suite_prop41(a3(), m=2, p=P)
    assert report["verdict"] == "pass"
    assert [c["gldim_end"] for c in report["checks"]] == [3, 4, 5]
    assert sorted(calls) == [1, 2, 3]
    algebra = replicated.build_replicated(a3(), 2, P)
    again = replicated.u_stratum(algebra, 3)
    assert again is not replicated.u_stratum(algebra, 3)
    assert sorted(calls) == [1, 2, 3]


def test_report_shape():
    report = vf.verify("thm32_all_d", a2(), m=1, p=P)
    assert report["verdict"] == "pass"
    assert set(report) >= {"suite", "params", "verdict", "checks",
                           "counterexamples"}
    assert report["counterexamples"] == []


def test_verify_is_a_function_of_its_inputs():
    # no timing or other run state leaks into a report
    first = vf.verify("thm32_all_d", a2(), m=1, p=P)
    assert first == vf.verify("thm32_all_d", a2(), m=1, p=P)
    assert "wall_ms" not in first


def test_unknown_suite():
    with pytest.raises(InputError):
        vf.verify("nope", a2())


def test_thm1_achievable_set_a2():
    report = vf.suite_thm1(a2(), m=1, p=P, samples=40)
    assert report["verdict"] == "pass"
    assert report["params"]["achievable"] == [2, 3, 4]
    assert report["params"]["max_orbit"] == 4


def test_lem31_random_suites():
    for quiver in (a2(), a3()):
        report = vf.suite_lem31_random(quiver, m=1, p=P, samples=12)
        assert report["verdict"] == "pass", report["counterexamples"]


def test_lem45_layer0_suite():
    report = vf.suite_lem45(a2(), m=1, p=P, samples=8)
    assert report["verdict"] == "pass", report["counterexamples"]
    report = vf.suite_lem45(a3(), m=1, p=P, samples=4)
    assert report["verdict"] == "pass", report["counterexamples"]


def test_lem22_a2():
    report = vf.suite_lem22(a2(), m=1, p=P)
    assert report["verdict"] == "pass", report["counterexamples"]


def test_lem22_exact_mode_runs_over_the_m0_catalog(monkeypatch):
    # over a Dynkin base ind A is the catalog of A = A^(0), complete by its
    # tau closure: no window census is built
    def refuse(*args, **kwargs):
        raise AssertionError("exact lem22 built a window census")

    monkeypatch.setattr(windows, "base_indecomposables", refuse)
    report = vf.suite_lem22(a3(), m=1, p=P)
    assert report["verdict"] == "pass" and report["params"]["mode"] == "exact"
    assert report["checks"] == [{"check": "all (i < j <= 3) x 6 modules", "ok": True}]


def test_lem48_report_payload():
    report = vf.suite_lem48(kronecker(), m=1, p=P)
    assert report["verdict"] == "pass"
    assert report["params"]["N"] == "1,1|0,0"
    assert report["params"]["Nprime"] == [2, 2]


@pytest.mark.parametrize("suite, params, match", [
    ("thm1", {"seed": -1}, "seed"),
    ("lem31_random", {"seed": -1}, "seed"),
    ("lem47", {"bound": 0}, "window bound"),
    ("lem31_random", {"samples": -1}, "samples must be >= 1, got -1"),
    ("lem45", {"samples": -2}, "samples must be >= 1, got -2"),
    ("thm1", {"samples": 0}, "samples must be >= 1, got 0"),
])
def test_verify_rejects_a_negative_seed_and_an_empty_window(monkeypatch, suite, params, match):
    # checked before the suite starts work; a sample count below 1 would
    # likewise pass vacuously
    monkeypatch.setattr(vf, f"suite_{suite}", None)
    quiver = kronecker() if suite == "lem47" else a2()
    with pytest.raises(InputError, match=match):
        vf.verify(suite, quiver, **params)


def test_only_sampling_routines_take_a_seed():
    taking = set()
    for mod in (exactfield, splitting, replicated, quiverrep, artrans, gencog, endalg,
                windows, verify, cli):
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            funcs = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                funcs = [(f"{name}.{attr}", getattr(obj, attr)) for attr, f in vars(obj).items()
                         if isinstance(f, (classmethod, staticmethod)) or inspect.isfunction(f)]
            taking.update(f"{short}.{label}" for label, f in funcs
                          if "seed" in inspect.signature(f).parameters)
    suites = ("thm1", "prop41", "lem22", "lem31_random", "lem45", "cor42", "lem47")
    assert taking == {"verify.random_gencogs", "windows.base_indecomposables",
                      "windows.census_modules"} | {f"verify.suite_{s}" for s in suites}


def test_lem48_on_a_three_vertex_euclidean_base():
    report = vf.suite_lem48(a2t(), m=1, p=3)
    assert report["verdict"] == "pass", report["counterexamples"]


def test_lem47_on_a_three_vertex_euclidean_base():
    # Z = tau^-1 P(3) ends the sequence 0 -> P(3) -> P(2) + P(1) -> Z -> 0,
    # whose middle term has two distinct classes
    alg = replicated.build_replicated(a2t(), 0, 3)
    _, middle = artrans.ar_sequence(artrans.tau_inverse(alg.proj(2, 0)))
    assert sorted((y.dim_label(), mult) for y, mult in middle) == [("0,1,1", 1), ("1,1,2", 1)]
    report = vf.suite_lem47(a2t(), m=1, d=5, p=3, bound=2)
    assert report["verdict"] == "pass", report["counterexamples"]
    assert report["checks"][-1]["window_size"] == 71


@pytest.mark.parametrize("suite, params", [
    ("lem22", {"samples": 3}),
    ("thm32_all_d", {"d": 4}),
    ("thm1", {"mode": "windowed"}),
])
def test_verify_rejects_a_parameter_the_suite_does_not_take(suite, params):
    # checked against the suite's signature before it starts work
    name = next(iter(params))
    with pytest.raises(InputError, match=f"suite {suite} does not take {name}; it takes m, p"):
        vf.verify(suite, a2(), m=1, p=P, **params)


def test_parameters_read_the_suite_signature():
    assert vf.parameters("prop41") == ["m", "p", "seed", "bound"]
    assert vf.parameters("lem48") == ["m", "p"]
    with pytest.raises(InputError, match="unknown suite 'nope'"):
        vf.parameters("nope")
