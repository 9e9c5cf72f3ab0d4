import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUIVERS = os.path.join(ROOT, "quivers")


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "replalg.cli", *argv],
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def quiver(name):
    return os.path.join(QUIVERS, name)


def test_gldim_a2():
    code, out, _ = run_cli("gldim", "--quiver", quiver("a2.q"), "--m", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["global_dimension"] == 2


def test_info_reports_dimension():
    code, out, _ = run_cli("info", "--quiver", quiver("a2.q"), "--m", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["algebra_dim"] == 9
    assert report["results"]["maximal_paths"] == ["a"]


def test_indecs_and_orbits():
    code, out, _ = run_cli("indecs", "--quiver", quiver("a2.q"), "--m", "1", "--json")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 9
    code, out, _ = run_cli("tau-orbits", "--quiver", quiver("a2.q"), "--m", "1", "--json")
    assert code == 0
    assert json.loads(out)["results"]["cardinalities"] == [4, 3, 1, 1]


def test_budget_exit_code():
    code, out, err = run_cli("indecs", "--quiver", quiver("kron.q"),
                             "--m", "1", "--budget", "25")
    assert code == 3
    assert "budget" in err


def test_malformed_quiver_exit_code(tmp_path):
    bad = tmp_path / "bad.q"
    bad.write_text("vertex 1\narrow broken\n")
    code, out, err = run_cli("gldim", "--quiver", str(bad), "--m", "1")
    assert code == 2
    assert "line 2" in err


def test_missing_quiver_file():
    code, _, err = run_cli("gldim", "--quiver", "/nonexistent.q", "--m", "1")
    assert code == 2


def test_strata():
    code, out, _ = run_cli("strata", "--quiver", quiver("a2.q"), "--m", "1",
                           "--k", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert sorted(report["results"]["u"]) == ["0,0|1,0", "0,1|1,0"]


def test_ar_quiver_dot(tmp_path):
    dot = tmp_path / "ar.dot"
    code, out, _ = run_cli("ar-quiver", "--quiver", quiver("a2.q"), "--m", "1",
                           "--dot", str(dot), "--json")
    assert code == 0
    assert dot.exists()
    text = dot.read_text()
    assert text.startswith("digraph ar_quiver {")
    assert json.loads(out)["results"]["mesh_violations"] == []


def test_construct_thm32_and_gldim_end_roundtrip(tmp_path):
    out_file = tmp_path / "m.json"
    code, out, _ = run_cli("construct", "thm32", "--quiver", quiver("a2.q"),
                           "--m", "1", "--d", "4", "--out", str(out_file), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["gldim_end"] == 4
    assert len(report["results"]["summands"]) == 7
    code, out, _ = run_cli("gldim-end", "--quiver", quiver("a2.q"), "--m", "1",
                           "--gencog", str(out_file), "--json")
    assert code == 0
    assert json.loads(out)["results"]["value"] == 4


def test_construct_E():
    code, out, _ = run_cli("construct", "E", "--quiver", quiver("a2.q"),
                           "--m", "1", "--i", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["gldim_end"] == 3
    assert report["results"]["summand_count"] == 8


def test_gldim_end_with_summand_ids():
    # additive generator given by explicit catalog ids
    code, out, _ = run_cli("gldim-end", "--quiver", quiver("a2.q"), "--m", "1",
                           "--summands", "0,1,2,3,4,5,6,7,8", "--json")
    assert code == 0
    assert json.loads(out)["results"]["value"] == 2


def test_verify_thm1_exit_zero():
    code, out, _ = run_cli("verify", "thm1", "--quiver", quiver("a2.q"),
                           "--m", "1", "--samples", "25", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["verdict"] == "pass"
    assert report["results"]["params"]["achievable"] == [2, 3, 4]


def test_verify_unknown_suite_rejected():
    code, _, err = run_cli("verify", "nonsense", "--quiver", quiver("a2.q"))
    assert code == 2


def test_cache_roundtrip_and_corruption(tmp_path):
    cache = tmp_path / "cache"
    code, out1, _ = run_cli("indecs", "--quiver", quiver("a2.q"), "--m", "1",
                            "--cache", str(cache), "--json")
    assert code == 0
    files = list(cache.glob("catalog_*.json"))
    assert len(files) == 1
    code, out2, _ = run_cli("indecs", "--quiver", quiver("a2.q"), "--m", "1",
                            "--cache", str(cache), "--json")
    assert out1 == out2  # cached run is byte-identical
    # different prime: different fingerprint, cache miss
    code, _, _ = run_cli("indecs", "--quiver", quiver("a2.q"), "--m", "1",
                         "--prime", "101", "--cache", str(cache), "--json")
    assert len(list(cache.glob("catalog_*.json"))) == 2
    # corrupt cache: warn and recompute
    files[0].write_text("{ truncated")
    code, out3, err = run_cli("indecs", "--quiver", quiver("a2.q"), "--m", "1",
                              "--cache", str(cache), "--json")
    assert code == 0
    assert "warning" in err
    assert out3 == out1


def test_stdout_byte_identical():
    runs = [run_cli("verify", "thm32_all_d", "--quiver", quiver("a2.q"),
                    "--m", "1", "--json") for _ in range(2)]
    assert runs[0][0] == runs[1][0] == 0
    assert runs[0][1] == runs[1][1]


def test_timing_on_stderr_not_stdout():
    code, out, err = run_cli("gldim", "--quiver", quiver("a2.q"), "--m", "1")
    assert code == 0
    assert "time:" in err
    assert "time:" not in out


def test_exit_code_1_when_suite_reports_counterexample(monkeypatch, capsys):
    # a suite verdict of "fail" maps to exit code 1 with the report on stdout
    from replalg import cli
    from replalg import verify as vf

    def fake_verify(suite, quiver, **params):
        return {"suite": suite, "params": params, "verdict": "fail",
                "checks": [], "counterexamples": [{"witness": "X0"}],
                "wall_ms": 1}

    monkeypatch.setattr(vf, "verify", fake_verify)
    code = cli.main(["verify", "thm1", "--quiver", quiver("a2.q"), "--m", "1",
                     "--json"])
    out = capsys.readouterr().out
    assert code == 1
    assert "X0" in out


def test_gldim_end_gencog_file_with_a_direct_sum(tmp_path):
    # a GenCog file listing X + Y as one module gives the report of the
    # file listing X and Y separately
    from replalg import artrans as ar
    from replalg import exactfield as ef
    from replalg import quiverrep as qr
    from replalg import replicated as rp

    alg = rp.build_replicated(qr.Quiver.load(quiver("a3.q")), 1, ef.DEFAULT_PRIME)
    cat = ar.indec_catalog(alg)
    x, y = [cat.modules[i] for i in range(len(cat))
            if i not in cat.projective and i not in cat.injective][:2]
    listings = {"apart": [x, y], "sum": [rp.LayeredModule.direct_sum([x, y])[0]]}
    results = {}
    for name, mods in listings.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"fingerprint": alg.fingerprint(),
                                    "summands": [m.to_json() for m in mods]}))
        code, out, err = run_cli("gldim-end", "--quiver", quiver("a3.q"), "--m", "1",
                                 "--gencog", str(path), "--json")
        assert code == 0, err
        results[name] = json.loads(out)["results"]
    assert results["sum"] == results["apart"] == {"mode": "exact", "value": 4, "summands": 11}


def test_gldim_end_summands_rejected_in_windowed_mode():
    # catalog ids need a catalog: when the catalog exceeds --budget the
    # windowed fallback refuses them instead of dropping them
    argv = ("gldim-end", "--quiver", quiver("a2.q"), "--m", "1", "--budget", "3",
            "--window", "1", "--json")
    code, out, _ = run_cli(*argv)
    assert code == 0 and json.loads(out)["results"]["mode"] == "windowed"
    code, out, err = run_cli(*argv, "--summands", "0,1,2")
    assert code == 2 and out == ""
    assert "representation-finite" in err


def test_gldim_end_rejects_bad_summand_ids():
    for ids in ("0,1,99", "0,x"):
        code, out, err = run_cli("gldim-end", "--quiver", quiver("a2.q"), "--m", "1",
                                 "--summands", ids, "--json")
        assert code == 2 and out == "" and "error:" in err, ids


def test_exact_reports_do_not_depend_on_the_seed():
    # the seed drives sampling only; these commands sample nothing
    for argv in (("ar-quiver", "--quiver", quiver("a3.q"), "--m", "2"),
                 ("verify", "lem48", "--quiver", quiver("kron.q"), "--prime", "3")):
        reports = []
        for seed in (0, 5):
            code, out, err = run_cli(*argv, "--json", "--seed", str(seed))
            assert code == 0, err
            report = json.loads(out)
            assert report["inputs"].pop("seed") == seed
            reports.append(report)
        assert reports[0] == reports[1], argv


def test_cache_file_with_a_seed_key_still_loads(tmp_path):
    # catalog caches written by older versions carry a "seed" key
    cache = tmp_path / "cache"
    argv = ("indecs", "--quiver", quiver("a2.q"), "--m", "1", "--cache", str(cache),
            "--json")
    code, out1, _ = run_cli(*argv)
    assert code == 0
    [path] = cache.glob("catalog_*.json")
    data = json.loads(path.read_text())
    assert "seed" not in data
    data["seed"] = 3
    path.write_text(json.dumps(data, sort_keys=True))
    code, out2, err = run_cli(*argv)
    assert code == 0 and "warning" not in err
    assert out2 == out1
    assert json.loads(path.read_text())["seed"] == 3  # loaded, not rebuilt


@pytest.mark.parametrize("corrupt", ["truncated-tau", "tau-none-off-projectives"])
def test_cache_with_bad_translation_tables_is_rebuilt(tmp_path, corrupt):
    cache = tmp_path / "cache"
    argv = ("tau-orbits", "--quiver", quiver("a2.q"), "--m", "1", "--cache", str(cache),
            "--json")
    code, out1, _ = run_cli(*argv)
    assert code == 0
    [path] = cache.glob("catalog_*.json")
    clean = path.read_bytes()
    data = json.loads(clean)
    if corrupt == "truncated-tau":
        data["tau"] = data["tau"][:-1]
    else:
        z = next(i for i, t in enumerate(data["tau"]) if t is not None)
        data["tau"][z] = None
    path.write_text(json.dumps(data, sort_keys=True))
    code, out2, err = run_cli(*argv)
    assert code == 0 and "warning: ignoring cache" in err
    assert out2 == out1
    assert path.read_bytes() == clean  # rebuilt, and written as before


def test_gencog_file_with_a_wrong_shaped_connecting_matrix(tmp_path):
    # the A_2, m=1 module 0,1|1,0 glued by a (1, 1) connecting matrix,
    # written with a (1, 3) one
    from replalg import exactfield as ef
    from replalg import quiverrep as qr
    from replalg import replicated as rp

    alg = rp.build_replicated(qr.Quiver.load(quiver("a2.q")), 1, ef.DEFAULT_PRIME)
    mod = rp.LayeredModule(alg, [([0, 1], None), ([1, 0], None)],
                           conn={(1, alg.quiver.paths.by_name("a")): [[1]]}).to_json()
    assert mod["connecting"] == [{"k": 1, "path": "a", "matrix": [[1]]}]
    mod["connecting"][0]["matrix"] = [[1, 1, 1]]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"fingerprint": alg.fingerprint(), "summands": [mod]}))
    code, out, err = run_cli("gldim-end", "--quiver", quiver("a2.q"), "--m", "1",
                             "--gencog", str(path))
    assert code == 2 and out == ""
    assert "(1, 3)" in err and "(1, 1)" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "lem47", "--quiver", quiver("kron.q"), "--d", "5", "--window", "0", "--json"),
    ("verify", "lem47", "--quiver", quiver("kron.q"), "--d", "5", "--window", "-1"),
    ("gldim-end", "--quiver", quiver("a2.q"), "--budget", "3", "--window", "0", "--json"),
    ("verify", "thm1", "--quiver", quiver("a2.q"), "--m", "1", "--seed", "-1"),
    ("verify", "lem47", "--quiver", quiver("kron.q"), "--d", "5", "--window", "2",
     "--seed", "-1"),
    ("gldim-end", "--quiver", quiver("a2.q"), "--budget", "3", "--window", "1",
     "--seed", "-1"),
])
def test_empty_window_and_negative_seed_are_input_errors(argv):
    # an empty window would pass every windowed check vacuously, and numpy
    # refuses a negative seed with a traceback
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "lem22", "--quiver", quiver("a2.q"), "--samples", "3"),
     "suite lem22 does not take samples"),
    (("verify", "thm32_all_d", "--quiver", quiver("a2.q"), "--d", "4"),
     "suite thm32_all_d does not take d"),
    (("verify", "thm1", "--quiver", quiver("a2.q"), "--mode", "windowed"),
     "suite thm1 does not take mode"),
    (("verify", "lem31_random", "--quiver", quiver("a2.q"), "--samples", "-1"),
     "samples must be >= 1"),
    (("verify", "lem45", "--quiver", quiver("a2.q"), "--samples", "-2"),
     "samples must be >= 1"),
    (("indecs", "--quiver", quiver("a2.q"), "--budget", "-1"), "catalog budget must be >= 1"),
    (("gldim-end", "--quiver", quiver("a2.q"), "--budget", "-1"), "catalog budget must be >= 1"),
])
def test_unusable_options_are_input_errors(argv, message):
    # an option the suite does not take ended in a TypeError traceback; a
    # sample count or budget below 1 gave a vacuous pass, a budget signal
    # or a silent switch to windowed mode
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert f"error: {message}" in err and "Traceback" not in err
