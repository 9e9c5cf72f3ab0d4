import collections
import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

from replalg import artrans as ar
from replalg import exactfield as ef
from replalg import quiverrep as qr
from replalg import replicated as rp
from replalg.errors import AnomalyError, BudgetExceeded, InputError
from replalg.replicated import LayeredModule, LayeredMorphism
from oracles import (exhaustive_indecomposables_a2_m1, proj_basis_elements,
                     reference_ar_mult, reference_generator_morphism,
                     reference_presentation_matrix, reference_submodule,
                     reference_transpose_layered)

P = 32003
QUIVERS = Path(__file__).resolve().parent.parent / "quivers"


def a2():
    return qr.Quiver(["1", "2"], [("a", "2", "1")])


def a3():
    return qr.Quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")])


def kronecker():
    return qr.Quiver(["1", "2"], [("b", "2", "1"), ("c", "2", "1")])


@pytest.fixture(scope="module")
def cat_a2():
    return ar.indec_catalog(rp.build_replicated(a2(), 1, P))


@pytest.fixture(scope="module")
def cat_a3():
    return ar.indec_catalog(rp.build_replicated(a3(), 1, P))


def test_tau_of_projectives_is_zero(cat_a2):
    alg = cat_a2.algebra
    for (k, i) in alg.components():
        assert ar.tau(alg.proj(i, k)).is_zero()
        assert ar.tau_inverse(alg.inj(i, k)).is_zero()


def test_tau_s2_layer0_is_p1():
    alg = rp.build_replicated(a2(), 1, P)
    s2 = alg.simple(alg.quiver.vindex["2"], 0)
    t = ar.tau(s2)
    assert t.dim_table() == ((1, 0), (0, 0))


def test_tau_layer0_follows_coxeter(cat_a3):
    # embedding preserves almost split sequences: for layer-0 non-projective
    # modules, tau over the replicated algebra stays in layer 0, where its
    # dimension vector is Phi dim M, with Phi the Coxeter matrix of
    # 1 <- 2 <- 3 (<x, y> = -<y, Phi x> for the Euler form)
    phi = np.array([[-1, 1, 0], [-1, 0, 1], [-1, 0, 0]])
    checked = 0
    for idx, m in enumerate(cat_a3.modules):
        if not m.is_layer_module(0) or idx in cat_a3.projective:
            continue
        t = ar.tau(m)
        assert t.is_layer_module(0)
        assert list(t.dim_table()[0]) == (phi @ np.array(m.dim_table()[0])).tolist()
        checked += 1
    assert checked == 3  # S(2), S(3) and I(2)


def test_catalog_a2_size_and_flags(cat_a2):
    assert len(cat_a2) == 9
    assert len(cat_a2.projective) == 4
    assert len(cat_a2.injective) == 4
    assert len(cat_a2.projective & cat_a2.injective) == 2
    labels = sorted(m.dim_label() for m in cat_a2.modules)
    assert labels == sorted([
        "1,0|0,0", "1,1|0,0", "0,1|0,0",          # ind A at layer 0
        "1,1|1,0", "0,1|1,1",                      # projective-injectives
        "0,1|1,0",                                 # mixed
        "0,0|1,0", "0,0|1,1", "0,0|0,1",          # ind A at layer 1
    ])


def test_tau_tau_inverse_roundtrip(cat_a2):
    for idx in range(len(cat_a2)):
        t = cat_a2.tau_map[idx]
        if t is not None:
            assert cat_a2.tau_inv_map[t] == idx
        ti = cat_a2.tau_inv_map[idx]
        if ti is not None:
            assert cat_a2.tau_map[ti] == idx


def test_orbits_a2(cat_a2):
    table = ar.tau_orbits(cat_a2)
    assert table.cardinalities() == [4, 3, 1, 1]
    assert table.max_cardinality() == 4
    assert sum(table.cardinalities()) == len(cat_a2)
    for o in table.orbits:
        if len(o) == 1:
            assert o[0] in (cat_a2.projective & cat_a2.injective)


def test_mesh_identities_a2(cat_a2):
    quiver = ar.ar_quiver(cat_a2)
    assert quiver.mesh_violations() == []


def test_mesh_identities_a3(cat_a3):
    quiver = ar.ar_quiver(cat_a3)
    assert quiver.mesh_violations() == []
    table = ar.tau_orbits(cat_a3)
    assert sum(table.cardinalities()) == len(cat_a3)


def test_catalog_matches_exhaustive_oracle_small_p(cat_a2):
    # bounded-exhaustive census over F_3 with all component dims <= 1
    found = exhaustive_indecomposables_a2_m1(3)
    assert len(found) == 9
    assert sorted(m.dim_label() for m in found) == \
        sorted(m.dim_label() for m in cat_a2.modules)
    # orbit structure recomputed at p = 3 matches the default-prime run
    cat3 = ar.indec_catalog(rp.build_replicated(a2(), 1, 3))
    assert len(cat3) == 9
    assert ar.tau_orbits(cat3).cardinalities() == [4, 3, 1, 1]


def test_leq_reflexive_and_example(cat_a2):
    i1 = cat_a2.algebra.quiver.vindex["1"]
    p10 = cat_a2.find(cat_a2.algebra.proj(i1, 0))
    i11 = cat_a2.find(cat_a2.algebra.inj(i1, 1))
    assert cat_a2.leq(p10, p10)
    assert cat_a2.leq(p10, i11)
    assert not cat_a2.leq(i11, p10)


def test_stable_hom_examples(cat_a2):
    alg = cat_a2.algebra
    i1 = alg.quiver.vindex["1"]
    pi = alg.proj(i1, 1)
    for n in cat_a2.modules:
        assert ar.stable_hom_dim(pi, n) == 0
    for idx, m in enumerate(cat_a2.modules):
        if idx not in (cat_a2.projective & cat_a2.injective):
            assert ar.stable_hom_dim(m, m) >= 1
        for jdx, n in enumerate(cat_a2.modules):
            assert ar.stable_hom_dim(m, n) <= cat_a2.hom_dim(idx, jdx)


def test_budget_signal_for_kronecker(monkeypatch):
    monkeypatch.setattr(ar, "PHASE_SECONDS", 30.0)
    alg = rp.build_replicated(kronecker(), 1, P)
    with pytest.raises(BudgetExceeded, match="25 entries"):
        ar.indec_catalog(alg, budget=25)


def test_dot_export(cat_a2):
    dot = ar.ar_quiver(cat_a2).to_dot()
    assert dot.startswith("digraph ar_quiver {")
    assert "style=dashed" in dot
    assert dot.count("n0") >= 1


def test_catalog_json_roundtrip(cat_a2):
    data = cat_a2.to_json()
    back = ar.IndecCatalog.from_json(cat_a2.algebra, data)
    assert len(back) == len(cat_a2)
    assert back.tau_map == cat_a2.tau_map
    assert back.to_json() == data


# Positive roots |Phi+| of the Dynkin quivers shipped in quivers/.
POSITIVE_ROOTS = {"a2": 3, "a2r": 3, "a3": 6, "a3alt": 6, "d4": 12}


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", sorted(POSITIVE_ROOTS))
def test_dynkin_catalog_size(name, m):
    """A Dynkin catalog over A^(m) has (2m+1)|Phi+| entries, n = #vertices:
    (m+1)|Phi+| modules concentrated in one layer (each layer is a copy of
    mod A, one module per positive root by Gabriel), m*n projective-
    injectives P(i, k), k >= 1, and m(|Phi+| - n) modules straddling two
    adjacent layers.  The first two parts follow from the construction;
    the third is pinned here, not derived."""
    quiver = qr.Quiver.load(QUIVERS / f"{name}.q")
    cat = ar.indec_catalog(rp.build_replicated(quiver, m, P))
    roots, n = POSITIVE_ROOTS[name], quiver.n_vertices
    assert len(cat.modules) == (2 * m + 1) * roots
    assert sum(1 for x in cat.modules if len(x.support_layers()) == 1) == (m + 1) * roots
    assert len(cat.projective & cat.injective) == m * n


@pytest.mark.parametrize("name", ["a3", "d4"])
def test_transpose_matches_compose_add_route(name):
    # Tr M and Tr DM (the two transposes tau and tau^-1 take) from the
    # in-place presentation blocks equal the incl . mor . proj route
    quiver = qr.Quiver.load(QUIVERS / f"{name}.q")
    cat = ar.indec_catalog(rp.build_replicated(quiver, 1, P))
    for x in cat.modules:
        for y in (x, x.dual()):
            assert ar.transpose_layered(y).to_json() == reference_transpose_layered(y).to_json()


# Catalogs on which the AR machinery is compared with the rad/rad^2 oracle.
AR_CASES = [("a3", 2), ("d4", 2), ("a2r", 3)]


@functools.lru_cache(maxsize=None)
def catalog(name, m):
    """The catalog of quivers/<name>.q at level m, built once."""
    quiver = qr.Quiver.load(QUIVERS / f"{name}.q")
    return ar.indec_catalog(rp.build_replicated(quiver, m, P))


@functools.lru_cache(maxsize=None)
def ar_case(name, m):
    """(catalog, oracle mult) of quivers/<name>.q at level m, built once."""
    cat = catalog(name, m)
    return cat, reference_ar_mult(cat)


def kronecker_preprojectives(p, rounds):
    """P(1), P(2), then tau^-1 of the previous pair, `rounds` times."""
    quiver = kronecker()
    pair = [qr.projective(quiver, p, v) for v in quiver.vertices]
    out = list(pair)
    for _ in range(rounds):
        pair = [qr.tau_inverse(x) for x in pair]
        out += pair
    return out


@pytest.mark.parametrize("name, m", AR_CASES)
def test_presentation_matches_the_reference(name, m):
    # the presentation read off the cover equals the one through Omega M
    # and its own cover, for M (tau) and DM (tau^-1) over each catalog
    for x in catalog(name, m).modules:
        for y in (x, x.dual()):
            assert ar._presentation_matrix(y) == reference_presentation_matrix(y)


def test_presentation_matches_the_reference_on_kronecker_preprojectives():
    mods = kronecker_preprojectives(3, 3)
    assert [x.component_dims() for x in mods][-2:] == [[7, 6], [8, 7]]
    for x in mods:
        for y in (x, x.dual()):
            assert ar._presentation_matrix(y) == reference_presentation_matrix(y)


@pytest.mark.parametrize("name, m", [("a3", 2), ("d4", 2), ("kron", 1)])
def test_proj_basis_matches_the_reference(name, m):
    alg = rp.build_replicated(qr.Quiver.load(QUIVERS / f"{name}.q"), m, P)
    for a in (alg, alg.opposite()):
        for k, i in a.components():
            want = proj_basis_elements(a, i, k)
            assert a.proj_basis(i, k) == [want[c] for c in a.components()]
            assert [len(b) for b in a.proj_basis(i, k)] == a.proj(i, k).component_dims()
    with pytest.raises(InputError, match="out of range"):
        alg.proj_basis(0, m + 1)


@pytest.mark.parametrize("budget", [0, -1])
def test_catalog_rejects_a_budget_below_one(budget):
    with pytest.raises(InputError, match=f"budget must be >= 1, got {budget}"):
        ar.indec_catalog(rp.build_replicated(a2(), 1, P), budget=budget)


def test_catalog_reads_each_presentation_off_one_cover(monkeypatch):
    # one projective cover per transpose (of M for tau, of DM for tau^-1),
    # and Omega M is never built as a kernel module
    calls = {"proj_cover": 0, "transpose": 0, "kernel": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(rp, "proj_cover", counted("proj_cover", rp.proj_cover))
    monkeypatch.setattr(ar, "transpose_layered", counted("transpose", ar.transpose_layered))
    monkeypatch.setattr(LayeredMorphism, "kernel", counted("kernel", LayeredMorphism.kernel))
    quiver = qr.Quiver.load(QUIVERS / "a3.q")
    cat = ar.indec_catalog(rp.ReplicatedAlgebra(quiver, 2, P))
    assert calls["transpose"] == 2 * len(cat)
    assert calls["proj_cover"] == calls["transpose"]
    assert calls["kernel"] == 0


def test_catalog_builds_each_projective_sum_once_per_algebra(monkeypatch):
    # every block_sum of a catalog build is a sum of projectives (P0 of a
    # cover, P1* of a transpose), and each distinct tuple of them is summed
    # once per algebra: over A_3^(2) and over its opposite
    counts = collections.Counter()
    real = LayeredModule.block_sum

    def counted(mods):
        alg = mods[0].algebra
        projs = {id(x): key for key, x in alg._proj.items()}
        assert all(id(x) in projs for x in mods)
        counts[(id(alg), tuple(projs[id(x)] for x in mods))] += 1
        return real(mods)

    monkeypatch.setattr(LayeredModule, "block_sum", staticmethod(counted))
    alg = rp.ReplicatedAlgebra(qr.Quiver.load(QUIVERS / "a3.q"), 2, P)
    ar.indec_catalog(alg)
    assert counts and set(counts.values()) == {1}
    assert len(counts) == len(alg._proj_sums) + len(alg.opposite()._proj_sums)
    monkeypatch.undo()
    for a in (alg, alg.opposite()):
        for key, (total, offsets) in a._proj_sums.items():
            assert a.proj_sum(key)[0] is total
            fresh, fresh_offsets = LayeredModule.block_sum([a.proj(i, k) for i, k in key])
            assert total.to_json() == fresh.to_json() and offsets == fresh_offsets


@pytest.mark.parametrize("name", ["a3", "d4"])
def test_generator_walk_matches_the_path_product_reference(name):
    # the prefix walk of generator_morphism equals the product along each
    # path, on every top generator of M and DM over the m = 2 catalog
    for x in catalog(name, 2).modules:
        for y in (x, x.dual()):
            for comp, vec in rp.top_generators(y):
                src, mor = rp.generator_morphism(comp, vec, y)
                ref_src, ref = reference_generator_morphism(comp, vec, y)
                assert src is ref_src and mor.target is y and mor.is_morphism()
                assert len(mor.blocks) == len(ref.blocks)
                for got, want in zip(mor.blocks, ref.blocks):
                    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("name", ["a3", "d4"])
def test_dual_edges_place_each_transpose_by_its_key(name):
    # dual() reads algebra.dual_edges(): layer K of DM is layer m-K of M
    # transposed, and the dual of the reversed path at level K is that of
    # the path at level m-K+1, over every module of the m = 2 catalog
    cat = catalog(name, 2)
    alg = cat.algebra
    pb, pb_op = alg.quiver.paths, alg.opposite().quiver.paths
    for x in cat.modules:
        d = x.dual()
        assert d.algebra is alg.opposite()
        for kk in range(alg.m + 1):
            for mat, orig in zip(d.layers[kk].maps, x.layers[alg.m - kk].maps):
                assert np.array_equal(mat, orig.T)
        for k, pid in alg.conn_keys:
            assert np.array_equal(d.conn[(alg.m - k + 1, pb.reversed_id(pb_op, pid))],
                                  x.conn[(k, pid)].T)
        assert d.dual().to_json() == x.to_json()


def test_a_cover_whose_kernel_is_not_a_submodule_is_an_anomaly(monkeypatch):
    # tau^-1 P(1) over the Kronecker quiver at p=3 has dims (3, 2) and its
    # top at vertex 2; a cover that is zero there has a kernel containing
    # the generators, which the arrows carry out of the kernel
    z = kronecker_preprojectives(3, 1)[2]
    assert z.component_dims() == [3, 2]
    real = rp.proj_cover

    def broken_cover(m):
        p0, cover, summands = real(m)
        blocks = [b.copy() for b in cover.blocks]
        blocks[1][:] = 0
        return p0, LayeredMorphism(p0, m, blocks), summands

    monkeypatch.setattr(rp, "proj_cover", broken_cover)
    with pytest.raises(AnomalyError):
        ar._presentation_matrix(z)


def test_kernel_matches_the_submodule_of_its_bases():
    # kernel() reads the action off the free rows of the canonical kernel
    # bases, the reference submodule solves for it: the same module and
    # inclusion, on the cover of every catalog module and of its dual
    for x in catalog("a3", 2).modules:
        for y in (x, x.dual()):
            cover = rp.proj_cover(y)[1]
            ker, incl = cover.kernel()
            want, want_incl = reference_submodule(
                cover.source, [ef.kernel_basis(b, P) for b in cover.blocks])
            assert ker.component_dims() == want.component_dims()
            for got, ref in zip(ker.edge_matrices() + tuple(incl.blocks),
                                want.edge_matrices() + tuple(want_incl.blocks)):
                assert np.array_equal(got, ref)


def test_ar_quiver_makes_no_solve(monkeypatch):
    calls = []
    real = ef.solve
    monkeypatch.setattr(ef, "solve", lambda *args: calls.append(args) or real(*args))
    arq = ar.ar_quiver(catalog("d4", 2))
    assert arq.mesh_violations() == []
    assert calls == []


def test_the_kernel_of_a_non_morphism_is_an_anomaly():
    # the cover of tau^-1 P(1) (Kronecker, p=3) zeroed at vertex 2: its
    # kernel contains the generators, which the arrows carry out of it
    z = kronecker_preprojectives(3, 1)[2]
    cover = rp.proj_cover(z)[1]
    blocks = [b.copy() for b in cover.blocks]
    blocks[1][:] = 0
    with pytest.raises(AnomalyError):
        LayeredMorphism(cover.source, z, blocks).kernel()


@pytest.mark.parametrize("name, m", AR_CASES)
def test_ar_sequence_matches_the_rad_oracle_over_replicated(name, m):
    # tau Z and the middle term of each sequence, computed from Z alone,
    # against the rad/rad^2 arrows into Z over the complete catalog
    cat, arrows = ar_case(name, m)
    for z in range(len(cat)):
        if z in cat.projective:
            continue
        tz, middle = ar.ar_sequence(cat.modules[z])
        assert cat.find(tz) == cat.tau_map[z]
        got = {cat.find(y): mult for y, mult in middle}
        assert got == {y: int(arrows[y, z]) for y in range(len(cat)) if arrows[y, z]}


@pytest.mark.parametrize("name, m", AR_CASES + [("a2", 1), ("d4", 0)])
def test_ar_quiver_matches_the_rad_oracle(name, m):
    cat, arrows = ar_case(name, m)
    arq = ar.ar_quiver(cat)
    assert np.array_equal(arq.mult, arrows)
    assert arq.mesh_violations() == []


def test_a_missing_arrow_is_a_mesh_violation():
    cat, _ = ar_case("a3", 2)
    arq = ar.ar_quiver(cat)
    # into a non-projective z: both mesh identities at z fail
    z = next(z for z in range(len(cat)) if z not in cat.projective)
    y = int(np.flatnonzero(arq.mult[:, z])[0])
    arq.mult[y, z] = 0
    assert z in arq.mesh_violations()
    arq.mult[y, z] = 1
    # into a projective P from a non-injective y: the mesh at tau^-1 y
    # sees the arrow y -> P among the arrows out of y
    y, pz = next((y, pz) for pz in sorted(cat.projective)
                 for y in np.flatnonzero(arq.mult[:, pz]) if y not in cat.injective)
    arq.mult[y, pz] = 0
    assert arq.mesh_violations() == [cat.tau_inv_map[y]]


def test_cached_catalog_with_bad_tables_is_refused(cat_a2):
    data = cat_a2.to_json()
    z = next(z for z in range(len(cat_a2)) if z not in cat_a2.projective)
    broken = [dict(data, tau=data["tau"][:-1]),
              dict(data, tau=[None if i == z else t for i, t in enumerate(data["tau"])]),
              dict(data, tau_inv=[len(cat_a2) if t is not None else None
                                  for t in data["tau_inv"]]),
              dict(data, projective=data["projective"][1:])]
    for bad in broken:
        with pytest.raises(InputError):
            ar.IndecCatalog.from_json(cat_a2.algebra, bad)
