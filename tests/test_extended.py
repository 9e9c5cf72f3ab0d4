"""Broader-instance coverage: a branched quiver (D_4 subspace orientation)
and the reversed A_2 orientation exercise the machinery away from the
linear-quiver comfort zone."""

import pytest

from replalg import artrans as ar
from replalg import quiverrep as qr
from replalg import replicated as rp
from replalg import verify as vf

P = 32003


def d4():
    return qr.Quiver(["0", "1", "2", "3"],
                     [("a", "1", "0"), ("b", "2", "0"), ("c", "3", "0")])


def a2r():
    return qr.Quiver(["1", "2"], [("a", "1", "2")])


@pytest.fixture(scope="module")
def cat_d4():
    return ar.indec_catalog(rp.build_replicated(d4(), 1, P))


def test_d4_catalog_and_orbits(cat_d4):
    assert len(cat_d4) == 36
    assert len(cat_d4.projective) == len(cat_d4.injective) == 8
    assert len(cat_d4.proj_inj) == 4
    table = ar.tau_orbits(cat_d4)
    assert table.cardinalities() == [8, 8, 8, 8, 1, 1, 1, 1]
    assert ar.ar_quiver(cat_d4).mesh_violations() == []


def test_d4_gldim():
    alg = rp.build_replicated(d4(), 1, P)
    assert rp.global_dimension(alg) == 3


def test_d4_thm1():
    report = vf.suite_thm1(d4(), m=1, p=P, samples=40)
    assert report["verdict"] == "pass", report["counterexamples"]
    assert report["params"]["achievable"] == [2, 3, 4, 5, 6, 7, 8]


def test_d4_prop41_with_oracle():
    report = vf.suite_prop41(d4(), m=1, p=P)
    assert report["verdict"] == "pass", report["counterexamples"]
    assert [c["gldim_end"] for c in report["checks"]] == [3, 4]
    assert [c["oracle"] for c in report["checks"]] == [3, 4]


def test_reversed_orientation_catalog():
    cat = ar.indec_catalog(rp.build_replicated(a2r(), 1, P))
    assert len(cat) == 9
    assert ar.tau_orbits(cat).cardinalities() == [4, 3, 1, 1]
    assert ar.ar_quiver(cat).mesh_violations() == []


def test_reversed_orientation_tau_coxeter():
    # for a: 1 -> 2, S(1) is non-projective, and the almost split sequence
    # 0 -> S(2) -> P(1) -> S(1) -> 0 gives tau S(1) = S(2), the simple
    # projective; its dimension vector is Phi dim S(1) with the Coxeter
    # matrix Phi = [[0, -1], [1, -1]]
    quiver = a2r()
    alg = rp.build_replicated(quiver, 1, P)
    t = ar.tau(alg.simple(quiver.vindex["1"], 0))
    assert t.dim_table() == ((0, 1), (0, 0))
    assert rp.is_iso_layered(t, alg.proj(quiver.vindex["2"], 0))
