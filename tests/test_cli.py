import argparse
import ast
import hashlib
import json
import os
import re
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


def test_cache_that_cannot_be_created_is_skipped(tmp_path):
    # the cache directory names a file: no catalog file can be written
    argv = ("indecs", "--quiver", quiver("a2.q"), "--m", "1", "--json")
    code, want, _ = run_cli(*argv)
    code, out, err = run_cli(*argv, "--cache", quiver("a2.q"))
    assert code == 0 and out == want
    assert "warning: not writing cache" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, what", [
    (("ar-quiver", "--quiver", quiver("a2.q"), "--m", "1", "--dot"), "DOT file"),
    (("construct", "thm32", "--quiver", quiver("a2.q"), "--m", "1", "--d", "4", "--out"),
     "GenCog file"),
])
def test_unwritable_output_path_is_an_input_error(tmp_path, argv, what):
    path = str(tmp_path / "missing" / "x.out")
    code, out, err = run_cli(*argv, path, "--json")
    assert code == 2 and out == ""
    assert f"error: cannot write {what} {path}: " in err and "Traceback" not in err


def test_a_prime_below_2_to_the_20_runs():
    code, out, _ = run_cli("gldim", "--quiver", quiver("a2.q"), "--m", "1",
                           "--prime", "1000003", "--json")
    assert code == 0 and json.loads(out)["results"]["global_dimension"] == 2


def test_gldim_end_of_the_d4_additive_generator_is_exact():
    # every M-dimension is 0, so the value is 2 with no end-algebra oracle,
    # whose cap this End(M) exceeds
    code, out, _ = run_cli("gldim-end", "--quiver", quiver("d4.q"), "--m", "2",
                           "--summands", ",".join(map(str, range(60))), "--json")
    assert code == 0
    assert json.loads(out)["results"] == {"mode": "exact", "value": 2, "summands": 60}


# sha256 of the `indecs --cache` catalog file at the default prime, pinned
# so that a change to tau, the catalog order or the JSON layout shows
CATALOG_CACHE_SHA256 = {
    ("quivers/a3.q", "2"): "bdeca8fae490beca7416be3d0415be80e15f646eb6ddc688d82722b8c5df46b1",
    ("quivers/d4.q", "2"): "bd945bdfa24b5348ada04cd15f3f5e8df3ee0d99afa2296453536495e04e283e",
    ("bench/quivers/e6.q", "1"): "0f04c4b881e664add45cbf4644b5d4029cfc44903af0c44f8c5a93792047144b",
}


@pytest.mark.parametrize("path, m", sorted(CATALOG_CACHE_SHA256))
def test_catalog_cache_files_are_pinned(tmp_path, path, m):
    code, _, _ = run_cli("indecs", "--quiver", os.path.join(ROOT, path), "--m", m,
                         "--cache", str(tmp_path), "--json")
    assert code == 0
    (cache_file,) = tmp_path.glob("catalog_*.json")
    digest = hashlib.sha256(cache_file.read_bytes()).hexdigest()
    assert digest == CATALOG_CACHE_SHA256[(path, m)]


@pytest.mark.parametrize("path, m", sorted(CATALOG_CACHE_SHA256))
def test_pinned_catalog_cache_files_load_back(tmp_path, path, m):
    # loading certifies every module and checks it against the ones before
    from replalg import artrans as ar
    from replalg import quiverrep as qr
    from replalg import replicated as rp
    code, _, _ = run_cli("indecs", "--quiver", os.path.join(ROOT, path), "--m", m,
                         "--cache", str(tmp_path), "--json")
    assert code == 0
    (cache_file,) = tmp_path.glob("catalog_*.json")
    text = cache_file.read_text()
    algebra = rp.build_replicated(qr.Quiver.load(os.path.join(ROOT, path)), int(m),
                                  json.loads(text)["modules"][0]["p"])
    catalog = ar.IndecCatalog.from_json(algebra, json.loads(text))
    assert json.dumps(catalog.to_json(), sort_keys=True) == text


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


@pytest.mark.parametrize("argv, want", [
    (("gldim", "--quiver", quiver("a2.q"), "--m", "1"), 0),
    (("verify", "thm32_all_d", "--quiver", quiver("a2.q"), "--m", "1"), 0),
    (("verify", "thm32_all_d", "--quiver", quiver("kron.q"), "--m", "1"), 3),
    (("verify", "lem48", "--quiver", quiver("kron.q"), "--m", "1", "--window", "2"), 2),
    (("verify", "thm1", "--quiver", quiver("a2.q"), "--m", "0"), 2),
    (("verify", "thm1", "--quiver", quiver("a2.q"), "--m", "1"), 1),
], ids=["gldim", "verify", "not-dynkin", "unread-window", "m-0", "anomaly"])
def test_every_exit_path_prints_one_time_line(monkeypatch, capsys, argv, want):
    from replalg import cli
    from replalg import verify as vf
    from replalg.errors import AnomalyError

    if want == 1:
        def anomaly(suite, quiver, **params):
            raise AnomalyError("planted")

        monkeypatch.setattr(vf, "verify", anomaly)
    assert cli.main(list(argv)) == want
    out, err = capsys.readouterr()
    time_line = re.compile(r"^time: \d+ ms$", re.MULTILINE)
    assert len(time_line.findall(err)) == 1
    assert not time_line.findall(out)
    if want == 1:
        assert json.loads(out) == {"anomaly": "planted"}


def test_exit_code_1_when_suite_reports_counterexample(monkeypatch, capsys):
    # a suite verdict of "fail" maps to exit code 1 with the report on stdout
    from replalg import cli
    from replalg import verify as vf

    def fake_verify(suite, quiver, **params):
        return {"suite": suite, "params": params, "verdict": "fail",
                "checks": [], "counterexamples": [{"witness": "X0"}]}

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
    # catalog ids need a catalog: over a base quiver that is not Dynkin the
    # windowed mode refuses them instead of dropping them
    argv = ("gldim-end", "--quiver", quiver("kron.q"), "--m", "1", "--window", "1", "--json")
    code, out, _ = run_cli(*argv)
    assert code == 0 and json.loads(out)["results"]["mode"] == "windowed"
    code, out, err = run_cli(*argv, "--summands", "0,1,2")
    assert code == 2 and out == ""
    assert "representation-finite" in err


def test_gldim_end_over_a_non_dynkin_base_builds_no_catalog(monkeypatch, capsys):
    # the Kronecker quiver fails Gabriel's test, so gldim-end goes windowed
    # at once instead of running the tau-closure into its time limit
    from replalg import artrans
    from replalg.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("indec_catalog called")

    monkeypatch.setattr(artrans, "indec_catalog", refuse)
    assert main(["gldim-end", "--quiver", quiver("kron.q"), "--m", "1", "--window", "1",
                 "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results == {"mode": "windowed", "lower": 5, "window_checked": 5,
                       "window_bound": 1, "window_size": 57, "indeterminate": 0}


@pytest.mark.parametrize("option, content", [
    ("--gencog", None), ("--gencog", "not json\n"), ("--gencog", "[1, 2]\n"),
    ("--gencog", '{"fingerprint": "FP", "summands": 5}'),
    ("--gencog", '{"fingerprint": "FP", "summand_ids": 7}'),
    ("--quiver", '{"vertices": ["1", "2"],\n'),
])
def test_malformed_input_files_are_input_errors(tmp_path, option, content):
    # a missing GenCog file, one that is not JSON, one holding a JSON list
    # or a number where a list belongs, and a quiver file of broken JSON
    # each ended in a traceback with exit 1, the code of a counterexample
    from replalg import exactfield as ef
    from replalg import quiverrep as qr
    from replalg import replicated as rp

    path = tmp_path / "input.json"
    if content is not None:
        alg = rp.build_replicated(qr.Quiver.load(quiver("a2.q")), 1, ef.DEFAULT_PRIME)
        path.write_text(content.replace("FP", alg.fingerprint()))
    files = (("--quiver", quiver("a2.q"), "--gencog", str(path)) if option == "--gencog"
             else ("--quiver", str(path)))
    code, out, err = run_cli("gldim-end", "--m", "1", *files)
    assert code == 2 and out == ""
    assert "error:" in err and str(path) in err and "Traceback" not in err


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


@pytest.mark.parametrize("mutant", ["x5-not-injective", "x6-projective"])
def test_cache_with_wrong_flags_is_ignored(tmp_path, mutant):
    # A_2, m = 1, p = 3, where X5 = [0,0|0,1] is injective.  Once a file
    # listing X5 as not injective, with tau_inv[5] = 0, loaded: indecs
    # listed X5 as not injective, and tau-orbits and construct thm32 exited
    # 1 with a tau-periodic orbit "anomaly".  The flags are now computed,
    # so such a file is ignored like any other corrupt cache
    cache = tmp_path / "cache"
    base = ("--quiver", quiver("a2.q"), "--m", "1", "--prime", "3")
    code, _, _ = run_cli("indecs", *base, "--cache", str(cache))
    assert code == 0
    [path] = cache.glob("catalog_*.json")
    clean = path.read_bytes()
    data = json.loads(clean)
    if mutant == "x5-not-injective":
        data["injective"] = [2, 3, 4, 2]
        data["tau_inv"][5] = 0
    else:
        data["projective"] = [0, 1, 2, 6]
    for command in (("indecs",), ("tau-orbits",), ("construct", "thm32", "--d", "3")):
        code, want, _ = run_cli(*command, *base)
        assert code == 0
        path.write_text(json.dumps(data, sort_keys=True))
        code, out, err = run_cli(*command, *base, "--cache", str(cache))
        assert code == 0 and "warning: ignoring cache" in err and "inconsistent catalog" in err
        assert out == want
        assert path.read_bytes() == clean  # rebuilt, and written as before


@pytest.mark.parametrize("corrupt", ["truncated-tau", "tau-none-off-projectives",
                                     "json-list", "modules-number", "maps-list"])
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
    elif corrupt == "json-list":
        data = []
    elif corrupt == "modules-number":
        data["modules"] = 5
    elif corrupt == "maps-list":
        data["modules"][0]["layers"][0]["maps"] = []
    else:
        z = next(i for i, t in enumerate(data["tau"]) if t is not None)
        data["tau"][z] = None
    path.write_text(json.dumps(data, sort_keys=True))
    code, out2, err = run_cli(*argv)
    assert code == 0 and "warning: ignoring cache" in err and "Traceback" not in err
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


def test_gldim_end_gencog_file_with_a_stray_connecting_entry(tmp_path):
    # a connecting entry at a level with no dual elements (k = 2 for m = 1)
    # used to be dropped without a word
    from replalg import exactfield as ef
    from replalg import quiverrep as qr
    from replalg import replicated as rp

    alg = rp.build_replicated(qr.Quiver.load(quiver("a2.q")), 1, ef.DEFAULT_PRIME)
    mod = alg.proj(0, 1).to_json()
    mod["connecting"].append({"k": 2, "path": "e_1", "matrix": [[1]]})
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"fingerprint": alg.fingerprint(), "summands": [mod]}))
    code, out, err = run_cli("gldim-end", "--quiver", quiver("a2.q"), "--m", "1",
                             "--gencog", str(path))
    assert code == 2 and out == ""
    assert "k=2, path e_1" in err and "Traceback" not in err


def test_gldim_end_gencog_file_with_an_unknown_arrow_or_vertex(tmp_path):
    # a "maps" entry for an arrow the quiver lacks, or a "dims" entry for
    # an unknown vertex, used to be dropped without a word
    from replalg import exactfield as ef
    from replalg import quiverrep as qr
    from replalg import replicated as rp

    alg = rp.build_replicated(qr.Quiver.load(quiver("a2.q")), 1, ef.DEFAULT_PRIME)
    mod = alg.proj(0, 1).to_json()
    mod["layers"][0]["maps"]["zz"] = [[5]]
    mod["layers"][0]["dims"]["9"] = 4
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"fingerprint": alg.fingerprint(), "summands": [mod]}))
    code, out, err = run_cli("gldim-end", "--quiver", quiver("a2.q"), "--m", "1",
                             "--gencog", str(path))
    assert code == 2 and out == ""
    assert "vertex '9'" in err and "arrow 'zz'" in err and "Traceback" not in err


@pytest.mark.parametrize("suite", ["prop41", "cor42"])
@pytest.mark.parametrize("path, mode", [("kron.q", "windowed"), ("a2.q", "exact")])
def test_gabriels_test_picks_the_mode_of_prop41_and_cor42(suite, path, mode):
    code, out, err = run_cli("verify", suite, "--quiver", quiver(path), "--m", "1",
                             "--prime", "3", "--window", "2", "--json")
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["verdict"] == "pass" and results["params"]["mode"] == mode


def test_dynkin_catalog_over_budget_is_a_budget_signal():
    # no fallback to windowed mode: exit 3, as for indecs
    code, out, err = run_cli("gldim-end", "--quiver", quiver("a3.q"), "--m", "2",
                             "--budget", "3")
    assert code == 3 and out == ""
    assert "budget: catalog exceeded 3 entries\n" in err


@pytest.mark.parametrize("suite, extra", [("lem47", ("--d", "5")), ("lem48", ())])
def test_lemmas_47_and_48_over_a_dynkin_base_are_contract_errors(suite, extra):
    code, out, err = run_cli("verify", suite, "--quiver", quiver("d4.q"), "--m", "1", *extra)
    assert code == 2 and out == ""
    assert "representation-infinite" in err


@pytest.mark.parametrize("argv", [
    ("verify", "lem47", "--quiver", quiver("kron.q"), "--d", "5", "--window", "0", "--json"),
    ("verify", "lem47", "--quiver", quiver("kron.q"), "--d", "5", "--window", "-1"),
    ("gldim-end", "--quiver", quiver("kron.q"), "--window", "0", "--json"),
    ("verify", "thm1", "--quiver", quiver("a2.q"), "--m", "1", "--seed", "-1"),
    ("verify", "lem47", "--quiver", quiver("kron.q"), "--d", "5", "--window", "2",
     "--seed", "-1"),
    ("gldim-end", "--quiver", quiver("kron.q"), "--window", "1", "--seed", "-1"),
    ("verify", "prop41", "--quiver", quiver("a2.q"), "--m", "1", "--window", "0"),
    ("verify", "cor42", "--quiver", quiver("a2.q"), "--m", "1", "--window", "0"),
])
def test_empty_window_and_negative_seed_are_input_errors(argv):
    # an empty window would pass every windowed check vacuously, and numpy
    # refuses a negative seed with a traceback; --window reaches every suite
    # that takes a bound, so prop41 and cor42 refuse 0 in exact mode too
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "lem22", "--quiver", quiver("a2.q"), "--samples", "3"),
     "verify lem22 does not take --samples"),
    (("verify", "thm32_all_d", "--quiver", quiver("a2.q"), "--d", "4"),
     "verify thm32_all_d does not take --d"),
    (("verify", "thm1", "--quiver", quiver("a2.q"), "--d", "4"),
     "verify thm1 does not take --d"),
    (("verify", "lem31_random", "--quiver", quiver("a2.q"), "--samples", "-1"),
     "samples must be >= 1"),
    (("verify", "lem45", "--quiver", quiver("a2.q"), "--samples", "-2"),
     "samples must be >= 1"),
    (("indecs", "--quiver", quiver("a2.q"), "--budget", "-1"), "catalog budget must be >= 1"),
    (("gldim-end", "--quiver", quiver("a2.q"), "--budget", "-1"), "catalog budget must be >= 1"),
    (("gldim", "--quiver", quiver("a2.q"), "--prime", "2147483647"),
     "prime 2147483647 is too large"),
    (("verify", "lem47", "--quiver", quiver("kron.q"), "--prime", "1048583"),
     "prime 1048583 is too large"),
    (("verify", "thm1", "--quiver", quiver("a2.q"), "--window", "2"),
     "verify thm1 does not take --window"),
    (("verify", "lem48", "--quiver", quiver("kron.q"), "--window", "2"),
     "verify lem48 does not take --window"),
    (("verify", "lem47", "--quiver", quiver("kron.q"), "--window", "-4"),
     "window bound must be >= 1, got -4"),
    # a flag the suite does not take is refused whatever its value
    (("verify", "lem48", "--quiver", quiver("kron.q"), "--window", "-4"),
     "verify lem48 does not take --window"),
])
def test_unusable_options_are_input_errors(argv, message):
    # an option the suite does not take ended in a TypeError traceback; a
    # sample count or budget below 1 gave a vacuous pass, a budget signal
    # or a silent switch to windowed mode; a prime of 2^20 or more gave
    # int64 overflow and silently wrong arithmetic
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert f"error: {message}" in err and "Traceback" not in err


def _refuse_tau(monkeypatch):
    from replalg import artrans

    def refuse(m):
        raise AssertionError("transpose_layered called")

    monkeypatch.setattr(artrans, "transpose_layered", refuse)


@pytest.mark.parametrize("argv", [
    ("indecs",), ("tau-orbits",), ("ar-quiver",), ("construct", "thm32", "--d", "3"),
    ("verify", "thm1"), ("verify", "thm32_all_d"), ("verify", "lem23_2"),
    ("verify", "lem31_random"), ("verify", "lem45"),
])
def test_a_catalog_over_a_non_dynkin_base_is_refused_at_once(monkeypatch, capsys, argv):
    # Gabriel's test answers before the tau closure starts: a budget signal
    # with no tau computed, where the closure used to run into a time limit
    from replalg.cli import main

    _refuse_tau(monkeypatch)
    assert main([*argv, "--quiver", quiver("kron.q"), "--m", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Gabriel" in err


def test_a_cached_catalog_over_a_non_dynkin_base_is_ignored(monkeypatch, capsys, tmp_path):
    from replalg import quiverrep as qr
    from replalg import replicated as rp
    from replalg.cli import main

    fingerprint = rp.fingerprint(qr.Quiver.load(quiver("kron.q")), 1, 32003)
    path = tmp_path / f"catalog_{fingerprint}.json"
    path.write_text(json.dumps({"fingerprint": fingerprint, "modules": [], "tau": [],
                                "tau_inv": [], "projective": [], "injective": []}))
    _refuse_tau(monkeypatch)
    assert main(["indecs", "--quiver", quiver("kron.q"), "--m", "1",
                 "--cache", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"warning: ignoring cache {path}: the base quiver is not Dynkin" in err
    assert "budget: the base quiver is not Dynkin" in err


@pytest.mark.parametrize("argv", [
    ("verify", "thm1", "--quiver", quiver("a2.q"), "--m", "1", "--budget", "3"),
    ("info", "--quiver", quiver("a2.q"), "--m", "1", "--window", "0"),
    ("gldim", "--quiver", quiver("a2.q"), "--m", "1", "--budget", "-5"),
    ("strata", "--quiver", quiver("a2.q"), "--k", "1", "--cache", "somewhere"),
    ("construct", "E", "--quiver", quiver("a3.q"), "--i", "1", "--window", "2"),
])
def test_an_option_the_command_does_not_read_is_a_usage_error(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


def handler_reads(source):
    """Command name -> the names `args.<name>` that main, its handler in
    main's `handlers` table, or any function of `source` they call, reads."""
    tree = ast.parse(source)
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    table = next(n.value for n in ast.walk(funcs["main"]) if isinstance(n, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "handlers" for t in n.targets))

    def reads(name):
        seen, todo, out = set(), [name], set()
        while todo:
            fname = todo.pop()
            if fname in seen:
                continue
            seen.add(fname)
            for node in ast.walk(funcs[fname]):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "args"):
                    out.add(node.attr)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id in funcs):
                    todo.append(node.func.id)
        return out

    shared = reads("main")
    return {key.value: shared | reads(value.id)
            for key, value in zip(table.keys, table.values)}


def unread_options(parser, source):
    """(command, dest) of every option of a subparser that its handler
    does not read."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    reads = handler_reads(source)
    return sorted((name, action.dest) for name, command in sub.choices.items()
                  for action in command._actions
                  if not isinstance(action, argparse._HelpAction)
                  and action.dest not in reads[name])


def test_every_option_is_read_by_its_command():
    from replalg import cli

    with open(cli.__file__) as fh:
        source = fh.read()
    parser = cli.build_parser()
    assert unread_options(parser, source) == []
    # the detector sees an option that nothing reads
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub.choices["info"].add_argument("--window", type=int, default=3)
    assert unread_options(parser, source) == [("info", "window")]
    # main's reads count for every command, but not an option nobody reads
    sub.choices["verify"].add_argument("--unread", default=None)
    assert unread_options(parser, source) == [("info", "window"), ("verify", "unread")]


@pytest.mark.parametrize("path, mode", [("a2.q", "exact"), ("kron.q", "windowed")])
def test_lem22_labels_its_mode(monkeypatch, path, mode):
    # over a non-Dynkin base the modules X are a window census, not all of ind A
    from replalg import quiverrep as qr
    from replalg import verify as vf
    from replalg import windows as w

    if mode == "windowed":  # the bound-6 census takes 18 s on the Kronecker quiver
        monkeypatch.setattr(w, "base_indecomposables", lambda *args, **kwargs: [])
    report = vf.verify("lem22", qr.Quiver.load(quiver(path)), m=1, p=3)
    assert report["verdict"] == "pass" and report["params"]["mode"] == mode
