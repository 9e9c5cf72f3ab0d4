import collections
import itertools

import numpy as np
import pytest

from pathlib import Path

from oracles import (LinearScanRegistry, reference_check_associativity,
                     reference_compile_relations, reference_dual_edges,
                     reference_hom_complex, reference_inj, reference_proj,
                     reference_rad_end_basis, reference_semi_invariants, reference_simple,
                     reference_validate)
from replalg import artrans as ar
from replalg import cli
from replalg import exactfield as ef
from replalg import quiverrep as qr
from replalg import replicated as rp
from replalg import splitting as sp
from replalg import windows as w
from replalg.errors import AnomalyError, InputError

P = 32003
QUIVERS = Path(__file__).resolve().parent.parent / "quivers"
QUIVER_FILES = sorted(QUIVERS.glob("*.q")) + sorted(
    (QUIVERS.parent / "bench" / "quivers").glob("*.q"))


def a2():
    return qr.Quiver(["1", "2"], [("a", "2", "1")])


def kronecker():
    return qr.Quiver(["1", "2"], [("b", "2", "1"), ("c", "2", "1")])


def a3():
    return qr.Quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")])


def alg_a2(m=1):
    return rp.build_replicated(a2(), m, P)


def test_dimension_formula():
    # A_2 has 3 paths: dim A^(1) = 2*3 + 1*3 = 9
    alg = alg_a2(1)
    assert alg.dim == 9
    alg2 = rp.build_replicated(a2(), 2, P)
    assert alg2.dim - alg.dim == 2 * 3
    assert rp.build_replicated(kronecker(), 1, P).dim == 2 * 4 + 4


def test_m_must_be_positive():
    # the library allows m = 0 (A itself) and rejects negative m; the CLI
    # keeps m >= 1 and reports m = 0 as an input error (exit code 2)
    with pytest.raises(InputError):
        rp.ReplicatedAlgebra(a2(), -1, P)
    assert rp.build_replicated(a2(), 0, P).dim == 3
    assert cli.main(["info", "--quiver", str(QUIVERS / "a2.q"), "--m", "0"]) == 2


def test_associativity_checked():
    # build_replicated runs the full triple check; re-run it explicitly
    assert alg_a2(1).check_associativity()


def test_associativity_check_catches_one_broken_product():
    # e_2 e_2 = e_2 at layer 0 broken to zero: (e_2 e_2) x = 0 while
    # e_2 (e_2 x) = x for every x with e_2 x != 0.  The pair (e_2, e_2)
    # leaves the product table; the sparse check still meets the broken
    # product through the pairs (e_2, x) and (x, e_2) that remain in it.
    alg = rp.ReplicatedAlgebra(a3(), 1, P)
    e2 = (rp.PATH, 0, alg.quiver.paths.by_name("e_2"))
    right = alg.mult
    alg.mult = lambda x, y: None if x == y == e2 else right(x, y)
    with pytest.raises(AnomalyError, match="associativity fails"):
        alg.check_associativity()


def _associativity_verdict(check, alg):
    try:
        return check(alg)
    except AnomalyError as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["a3", "d4", "kron"])
def test_indexed_associativity_check_matches_the_full_scan(name, monkeypatch):
    # both pass on the true table; with one product dropped, or sent to
    # the next basis element, both fail on the same first triple or both pass
    quiver = qr.Quiver.load(QUIVERS / f"{name}.q")
    for m in (1, 2, 3):
        alg = rp.ReplicatedAlgebra(quiver, m, P)
        assert alg.check_associativity() is True
        assert reference_check_associativity(alg) is True
    alg = rp.ReplicatedAlgebra(quiver, 1, P)
    true_mult = alg.mult
    products = [(x, y, true_mult(x, y)) for x in alg.basis for y in alg.basis
                if true_mult(x, y) is not None]
    failures = 0
    for x, y, xy in products:
        wrong = alg.basis[(alg.basis.index(xy) + 1) % alg.dim]
        for corrupt in (None, wrong):
            monkeypatch.setattr(alg, "mult", lambda a, b, x=x, y=y, corrupt=corrupt:
                                corrupt if (a, b) == (x, y) else true_mult(a, b))
            got = _associativity_verdict(rp.ReplicatedAlgebra.check_associativity, alg)
            assert got == _associativity_verdict(reference_check_associativity, alg), (x, y)
            failures += got is not True
    assert failures > len(products)  # most corruptions are caught


def test_proj_shapes_a2():
    alg = alg_a2(1)
    assert alg.proj(alg.quiver.vindex["1"], 1).dim_table() == ((1, 1), (1, 0))
    assert alg.proj(alg.quiver.vindex["2"], 1).dim_table() == ((0, 1), (1, 1))
    assert alg.proj(alg.quiver.vindex["1"], 0).dim_table() == ((1, 0), (0, 0))
    # inj(2,1) = S(2) at layer 1
    assert alg.inj(alg.quiver.vindex["2"], 1).dim_table() == ((0, 0), (0, 1))
    with pytest.raises(InputError):
        alg.proj(0, 5)


def test_proj_top_and_socle():
    alg = alg_a2(1)
    for i in range(2):
        pik = alg.proj(i, 1)
        gens = rp.top_generators(pik)
        assert [comp for comp, _ in gens] == [(1, i)]  # top = S(i, 1)
        env, embed = rp.inj_envelope(alg.simple(i, 0))
        # socle of proj(i,1) is S(i,0): the envelope of S(i,0) is proj(i,1)
        assert env.dim_table() == pik.dim_table()
        assert embed.is_morphism()
        assert all(ef.rank(b, P) == b.shape[1] for b in embed.blocks)  # injective


def test_inj_equals_proj_shifted():
    alg = rp.build_replicated(a3(), 2, P)
    for i in range(3):
        for k in range(2):
            assert rp.is_iso_layered(alg.inj(i, k), alg.proj(i, k + 1))


def test_hom_projectivity_identity():
    alg = alg_a2(1)
    w = mixed_module(alg)
    for (k, i) in alg.components():
        assert len(rp.hom_layered(alg.proj(i, k), w)) == w.layers[k].dims[i]
        assert len(rp.hom_layered(w, alg.inj(i, k))) == w.layers[k].dims[i]


def test_hom_proj_to_inj():
    alg = alg_a2(1)
    i1 = alg.quiver.vindex["1"]
    assert len(rp.hom_layered(alg.proj(i1, 1), alg.inj(i1, 1))) == 1


def _commuting_block_families(m, n):
    """Independent oracle at p = 2: enumerate every block family M -> N and
    count the commuting ones."""
    shapes = [(t, s) for s, t in zip(m.component_dims(), n.component_dims())]
    total = sum(r * c for r, c in shapes)
    count = 0
    for combo in itertools.product(range(2), repeat=total):
        blocks, pos = [], 0
        for r, c in shapes:
            blocks.append(np.array(combo[pos:pos + r * c], dtype=np.int64).reshape(r, c))
            pos += r * c
        if rp.LayeredMorphism(m, n, blocks).is_morphism():
            count += 1
    return count


def test_hom_proj_to_inj_brute_force():
    alg = rp.build_replicated(a2(), 1, 2)
    i1 = alg.quiver.vindex["1"]
    m, n = alg.proj(i1, 1), alg.inj(i1, 1)
    assert _commuting_block_families(m, n) == 2 ** len(rp.hom_layered(m, n)) == 2


def test_is_morphism_brute_force_on_catalog_pairs():
    # all 81 pairs of the A_2, m = 1 catalog at p = 2 (at most 2^10 block
    # families each), so is_morphism meets edges where either side is empty
    cat = ar.indec_catalog(rp.build_replicated(a2(), 1, 2))
    for m, n in itertools.product(cat.modules, repeat=2):
        assert _commuting_block_families(m, n) == 2 ** len(rp.hom_layered(m, n))


def mixed_module(alg):
    """The A_2, m=1 module of dim (0,1|1,0): layer-1 S(1) glued onto
    layer-0 S(2) by the dual action of the arrow."""
    quiver, p = alg.quiver, alg.p
    pb = quiver.paths
    layers = [([0, 1], None), ([1, 0], None)]
    a = pb.by_name("a")
    return rp.LayeredModule(alg, layers, conn={(1, a): ef.fmat([[1]], p)})


def test_mixed_module_valid_and_indecomposable():
    alg = alg_a2(1)
    w = mixed_module(alg)
    assert w.dim_label() == "0,1|1,0"
    out = rp.decompose_layered(w)
    assert len(out) == 1 and out[0][1] == 1


def test_embedding_fidelity_layer0():
    # Hom over A^(1) between layer-0 embeddings is Hom over A, and
    # dim Hom_A(P(v), I(w)) = dim I(w) at v = the number of paths v ~> w
    alg = alg_a2(1)
    quiver, pb = alg.quiver, alg.quiver.paths
    for v in quiver.vertices:
        for w in quiver.vertices:
            x = qr.projective(quiver, P, v)
            y = qr.injective(quiver, P, w)
            paths = sum(1 for q in range(pb.n)
                        if pb.source[q] == quiver.vindex[v] and pb.target[q] == quiver.vindex[w])
            assert len(rp.hom_layered(rp.rep_at_layer(alg, x, 0), rp.rep_at_layer(alg, y, 0))) \
                == len(rp.hom_layered(x, y)) == paths


def test_syzygy_of_projective_is_zero():
    alg = alg_a2(1)
    for (k, i) in alg.components():
        assert rp.syzygy(alg.proj(i, k)).is_zero()


def test_cosyzygy_of_injective_is_zero():
    alg = alg_a2(1)
    for (k, i) in alg.components():
        assert rp.cosyzygy(alg.inj(i, k)).is_zero()


def test_cosyzygy_of_p1_at_layer0():
    # envelope of proj(1,0) = S(1)@0 is proj(1,1); quotient has dim (0,1|1,0)
    alg = alg_a2(1)
    i1 = alg.quiver.vindex["1"]
    om = rp.cosyzygy(alg.proj(i1, 0))
    assert om.dim_table() == ((0, 1), (1, 0))
    assert rp.is_iso_layered(om, mixed_module(alg))


def test_exactness_bookkeeping():
    # 0 -> syzygy -> cover -> M -> 0 is layerwise dimension-additive
    alg = alg_a2(1)
    m = mixed_module(alg)
    cover, epi, _ = rp.proj_cover(m)
    assert epi.is_surjective() and epi.is_morphism()
    ker, incl = epi.kernel()
    assert incl.is_morphism()
    for c in range(alg.n_components):
        assert ker.component_dims()[c] + m.component_dims()[c] == cover.component_dims()[c]


def test_global_dimension_a2_values():
    # A_2^(m) is the Nakayama algebra on a linear A_{2m+2} quiver with all
    # length-3 composites zero.  A simple at distance d = 3q + s from the
    # sink has pd 2q + [s > 0]; the maximum, at d = 2m + 1, is
    # m + 1 + floor(m/3).  m = 5 (gl.dim 7) checks the formula one step
    # beyond the acceptance table.
    for m in (1, 2, 3, 4, 5):
        alg = rp.build_replicated(a2(), m, P)
        assert rp.global_dimension(alg) == m + 1 + m // 3


def test_global_dimension_kronecker():
    alg = rp.build_replicated(kronecker(), 1, P)
    assert rp.global_dimension(alg) == 3


def test_simple_pd_bounds():
    for quiver, m in ((a2(), 1), (a3(), 1), (kronecker(), 1)):
        alg = rp.build_replicated(quiver, m, P)
        gd = rp.global_dimension(alg)
        assert m + 1 <= gd <= 2 * m + 1


def test_sigma_stratum_zero():
    alg = alg_a2(1)
    s0 = rp.sigma_stratum(alg, 0)
    for i, x in enumerate(s0):
        assert x.dim_table()[0] == qr.projective(alg.quiver, P, alg.quiver.vertices[i]).dim_table()[0]


def test_u_stratum_a2():
    alg = alg_a2(1)
    labels = sorted(x.dim_label() for x in rp.u_stratum(alg, 1))
    assert labels == ["0,0|1,0", "0,1|1,0"]


def test_sigma_k_bounds_checked():
    alg = alg_a2(1)
    with pytest.raises(InputError):
        rp.sigma_stratum(alg, 99)


def test_dual_swaps_proj_and_inj():
    alg = alg_a2(1)
    op = alg.opposite()
    i1 = alg.quiver.vindex["1"]
    d = alg.proj(i1, 1).dual()
    # dual of a projective is an injective over the opposite algebra
    found = any(rp.is_iso_layered(d, op.inj(i, k))
                for (k, i) in op.components())
    assert found
    # double dual is literally the same data
    dd = d.dual()
    orig = alg.proj(i1, 1)
    assert dd.dim_table() == orig.dim_table()
    for key in orig.conn:
        assert np.array_equal(dd.conn[key], orig.conn[key])


def test_opposite_element_map_antimultiplicative():
    alg = alg_a2(1)
    op = alg.opposite()
    for x in alg.basis:
        for y in alg.basis:
            xy = alg.mult(x, y)
            lhs = None if xy is None else alg.to_opposite_element(xy)
            rhs = op.mult(alg.to_opposite_element(y), alg.to_opposite_element(x))
            assert lhs == rhs


def test_json_roundtrip_bit_exact():
    alg = alg_a2(1)
    m = mixed_module(alg)
    data = m.to_json()
    back = rp.LayeredModule.from_json(alg, data)
    assert back.dim_table() == m.dim_table()
    for key in m.conn:
        assert np.array_equal(back.conn[key], m.conn[key])
    assert back.to_json() == data


def test_json_rejects_connecting_entries_outside_the_dual_basis():
    # A_2, m = 1: the dual elements sit at level 1 only, so entries at
    # k = 2 or k = 0 name no basis element and used to be dropped unread
    alg = alg_a2(1)
    data = alg.proj(0, 1).to_json()
    for k in (2, 0):
        bad = dict(data, connecting=data["connecting"] + [
            {"k": k, "path": "e_1", "matrix": [[1]]}])
        with pytest.raises(InputError, match=f"k={k}, path e_1"):
            rp.LayeredModule.from_json(alg, bad)
    with pytest.raises(InputError, match="k=1, path 7"):
        rp.LayeredModule(alg, [([1, 0], None), ([0, 0], None)], conn={(1, 7): [[1]]})


def test_json_rejects_an_unknown_arrow_or_vertex():
    # both entries used to be dropped, loading a module equal to the original
    alg = alg_a2(1)
    data = alg.proj(0, 1).to_json()
    data["layers"][0]["maps"]["zz"] = [[5]]
    data["layers"][0]["dims"]["9"] = 4
    with pytest.raises(InputError, match="layer 0 names no vertex '9', no arrow 'zz'"):
        rp.LayeredModule.from_json(alg, data)


def test_json_rejects_a_repeated_connecting_entry():
    # the second entry for (k, path) used to overwrite the first
    alg = alg_a2(1)
    data = alg.proj(0, 1).to_json()
    first = data["connecting"][0]
    bad = dict(data, connecting=data["connecting"] + [dict(first, matrix=[[0]])])
    with pytest.raises(InputError, match=f"k=1, path {first['path']} appears twice"):
        rp.LayeredModule.from_json(alg, bad)


def test_direct_sum_and_decompose_layered():
    alg = alg_a2(1)
    m = mixed_module(alg)
    s = alg.simple(0, 1)
    total, incls, projs = rp.LayeredModule.direct_sum([m, s])
    assert total.total_dim == m.total_dim + s.total_dim
    assert all(f.is_morphism() for f in incls + projs)
    out = rp.decompose_layered(total)
    labels = sorted(piece.dim_label() for piece, _ in out)
    assert labels == ["0,0|1,0", "0,1|1,0"]


def test_convert_window():
    alg = alg_a2(1)
    big = rp.build_replicated(a2(), 2, P)
    m = mixed_module(alg)
    up = rp.convert_window(m, big)
    assert up.dim_table() == ((0, 1), (1, 0), (0, 0))
    down = rp.convert_window(up, alg)
    assert down.dim_table() == m.dim_table()


# ---------------------------------------------------------------------------
# the compiled relation table against the reference check it replaced
# ---------------------------------------------------------------------------


def a1():
    return qr.Quiver(["1"], [])


def vee():
    return qr.Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "3")])


def wedge():
    return qr.Quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "1")])


# One valid module per relation kind, given by per-layer dims and the
# entries set to 1 (all blocks involved are 1 x 1), and one more entry
# whose change 0 -> 1 makes that kind the first relation to fail.  An
# entry is ("conn", k, path) or ("arrow", layer, arrow).
RELATION_CASES = {
    "prefix": (a2, 1, [[1, 0], [1, 0]], [], ("conn", 1, "e_1"),
               "prefix relation fails at layer 1, path e_1"),
    "suffix": (a2, 1, [[0, 1], [0, 1]], [], ("conn", 1, "e_2"),
               "suffix relation fails at layer 1, path e_2"),
    "arrow-after-dual": (vee, 1, [[1, 0, 1], [0, 1, 0]], [("conn", 1, "a")],
                         ("arrow", 0, "b"), "zero product fails: arrow after a* at layer 1"),
    "dual-after-arrow": (wedge, 1, [[0, 0, 1], [1, 1, 0]], [("conn", 1, "b")],
                         ("arrow", 1, "a"), "zero product fails: b* after arrow at layer 1"),
    "two-step": (a1, 2, [[1], [1], [1]], [("conn", 2, "e_1")], ("conn", 1, "e_1"),
                 "two-step zero fails: e_1* after e_1*"),
}


def _case_data(alg, dims, ones):
    """(layers, conn) with zero matrices except the listed 1 x 1 entries."""
    quiver, pb = alg.quiver, alg.quiver.paths
    arrow_id = {name: a for a, (name, _, _) in enumerate(quiver.arrows)}
    maps = [[ef.zeros(d[t], d[s]) for s, t in zip(quiver.arrow_source, quiver.arrow_target)]
            for d in dims]
    conn = {}
    for where, k, name in ones:
        if where == "conn":
            conn[(k, pb.by_name(name))] = ef.fmat([[1]], alg.p)
        else:
            maps[k][arrow_id[name]][0, 0] = 1
    return list(zip(dims, maps)), conn


def _entry(module, where, k, name):
    """The matrix of a module that holds the given entry."""
    quiver = module.algebra.quiver
    if where == "conn":
        return module.conn[(k, quiver.paths.by_name(name))]
    return module.layers[k].maps[[n for n, _, _ in quiver.arrows].index(name)]


@pytest.mark.parametrize("kind", sorted(RELATION_CASES))
def test_compiled_relations_fail_like_reference(kind):
    quiver_fn, m, dims, ones, flip, message = RELATION_CASES[kind]
    alg = rp.build_replicated(quiver_fn(), m, P)
    valid = rp.LayeredModule(alg, *_case_data(alg, dims, ones))
    reference_validate(valid)
    assert kind in {rel.kind for rel in alg.relations()}
    with pytest.raises(InputError) as compiled:
        rp.LayeredModule(alg, *_case_data(alg, dims, ones + [flip]))
    # the same change made in place, so the reference sees the same data
    _entry(valid, *flip)[0, 0] = 1
    with pytest.raises(InputError) as reference:
        reference_validate(valid)
    with pytest.raises(InputError) as in_place:
        valid._validate()
    assert str(compiled.value) == str(reference.value) == str(in_place.value) == message


def test_end_basis_freezes_the_action_matrices():
    alg = alg_a2(1)
    x = rp.LayeredModule.direct_sum([alg.proj(i, 1) for i in range(2)])[0]
    groups = [list(x.edge_matrices()), [mat for layer in x.layers for mat in layer.maps],
              list(x.conn.values())]
    assert all(any(mat.size for mat in group) for group in groups)
    # frozen at the first End, not at construction
    assert all(mat.flags.writeable for group in groups for mat in group)
    ends = x.end_basis()
    assert ends and x.end_basis() is ends
    for group in groups:
        for mat in group:
            if mat.size:
                with pytest.raises(ValueError):
                    mat[0, 0] = 1


def test_relation_with_empty_inner_dimension_still_checked():
    # A_2, m = 1, S(1) at layers 0 and 1: the prefix relation
    # g[1, e_1] = M_a^(0) g[1, a] has inner dimension dim M_0(2) = 0, so
    # it forces g[1, e_1] = 0 and gluing the two simples breaks it
    alg = alg_a2(1)
    e1 = alg.quiver.paths.by_name("e_1")
    layers = [([1, 0], None), ([1, 0], None)]
    split = rp.LayeredModule(alg, layers, conn={})
    rel = next(r for r in alg.relations() if r.kind == "prefix" and r.q == e1)
    mats = split.edge_matrices()
    assert mats[rel.lhs].shape[1] == 0 and mats[rel.out].shape == (1, 1)
    with pytest.raises(InputError, match="prefix relation fails at layer 1, path e_1"):
        rp.LayeredModule(alg, layers, conn={(1, e1): ef.fmat([[1]], P)})
    split.conn[(1, e1)][0, 0] = 1
    with pytest.raises(InputError, match="prefix relation fails at layer 1, path e_1"):
        reference_validate(split)


# ---------------------------------------------------------------------------
# the construction contract: kernel_of, quotient and direct_sum adopt their
# matrices without a copy, and every result is still shape- and
# relation-checked
# ---------------------------------------------------------------------------


def _zero_map(x):
    """Blocks of the zero map out of x: kernel_of(_zero_map(x)) is x."""
    return [ef.zeros(0, d) for d in x.component_dims()]


def _nothing(x):
    """Empty spans of every component: quotient(_nothing(x)) is x."""
    return [ef.zeros(d, 0) for d in x.component_dims()]


@pytest.mark.parametrize("kind", sorted(RELATION_CASES))
def test_constructions_reject_a_broken_relation(kind):
    quiver_fn, m, dims, ones, flip, message = RELATION_CASES[kind]
    alg = rp.build_replicated(quiver_fn(), m, P)
    x = rp.LayeredModule(alg, *_case_data(alg, dims, ones))
    builds = (lambda: x.kernel_of(_zero_map(x)), lambda: x.quotient(_nothing(x)),
              lambda: rp.LayeredModule.direct_sum([x, alg.zero_module(), x]))
    for build in builds:
        build()  # valid before the change
    _entry(x, *flip)[0, 0] = 1
    for build in builds:
        with pytest.raises(InputError) as exc:
            build()
        assert str(exc.value) == message


def test_constructions_reject_a_misshaped_matrix():
    alg = alg_a2(1)
    x = mixed_module(alg)
    mats = list(x.edge_matrices())
    e = next(i for i, mat in enumerate(mats) if mat.size)
    # a copy of x whose matrix on edge e has one row too many
    bad = rp.LayeredModule.__new__(rp.LayeredModule)
    bad.__dict__.update(x.__dict__)
    bad._edge_mats = tuple(mats[:e] + [np.vstack([mats[e], ef.zeros(1, mats[e].shape[1])])]
                           + mats[e + 1:])
    with pytest.raises(InputError):
        bad.quotient(_nothing(x))
    with pytest.raises(InputError):
        rp.LayeredModule.direct_sum([x, bad])
    with pytest.raises(InputError, match="action edge"):
        rp.LayeredModule._assemble(alg, x.component_dims(), bad.edge_matrices())
    # caller-supplied spans and blocks of the wrong size
    with pytest.raises(InputError):
        x.quotient([ef.zeros(d + 1, 0) for d in x.component_dims()])
    with pytest.raises(InputError):
        rp.LayeredMorphism(x, x, [ef.eye(d) for d in x.component_dims()][:-1])


def test_direct_sum_inclusions_and_projections():
    alg = alg_a2(1)
    mods = [mixed_module(alg), alg.zero_module(), alg.simple(0, 1), mixed_module(alg),
            alg.proj(1, 1)]
    total, incls, projs = rp.LayeredModule.direct_sum(mods)
    assert total.component_dims() == [sum(col) for col in zip(*[x.component_dims()
                                                               for x in mods])]
    assert all(f.is_morphism() for f in incls + projs)
    for i, pi in enumerate(projs):
        for j, inc in enumerate(incls):
            comp = pi.compose(inc)
            assert comp.source is mods[j] and comp.target is mods[i]
            if i == j:
                assert all(np.array_equal(b, ef.eye(b.shape[0])) for b in comp.blocks)
            else:
                assert comp.is_zero()
    # the inclusions and projections split the sum: sum_i incl_i proj_i = id
    acc = incls[0].compose(projs[0])
    for inc, pi in zip(incls[1:], projs[1:]):
        acc = acc.add(inc.compose(pi))
    assert all(np.array_equal(b, ef.eye(b.shape[0])) for b in acc.blocks)


def _relation_census(name):
    if name == "kronecker-p3":
        return w.census_modules(rp.build_replicated(kronecker(), 1, 3), 2)
    quiver = a3() if name == "a3-m2" else qr.Quiver.load(QUIVERS / "d4.q")
    return ar.indec_catalog(rp.build_replicated(quiver, 2, P)).modules


@pytest.mark.parametrize("name, size", [("a3-m2", 30), ("d4-m2", 60), ("kronecker-p3", 44)])
def test_catalog_modules_pass_compiled_and_reference_checks(name, size):
    mods = _relation_census(name)
    assert len(mods) == size
    checked = 0
    for x in mods:
        x._validate()
        reference_validate(x)
        checked += sum(1 for rel in x.algebra.relations()
                       if x.component_dims()[rel.row] and x.component_dims()[rel.col])
    assert checked > 0  # some relation is not vacuous


@pytest.mark.parametrize("name, size, counts",
                         [("a3-m2", 30, (0, 0)), ("kronecker-p3-base", 29, (19, 11))])
def test_rad_end_matches_the_scalar_shortcut_reference(name, size, counts):
    # rad End from the locality certificate alone equals the former
    # scalar-plus-nilpotent shortcut element for element (both are the rref
    # of one subspace).  counts: the modules with dim End > 1, and those
    # whose residue field is larger than F_p; on the Kronecker census these
    # are the tube modules at points of degree 2 (the F_9 one among them)
    # and 3
    if name == "kronecker-p3-base":
        mods = w.base_indecomposables(kronecker(), 3, 3)
    else:
        mods = _relation_census(name)
    assert len(mods) == size
    nonbrick = larger_field = 0
    for x in mods:
        got = [f.flatten().tolist() for f in x.rad_end()]
        want = [f.flatten().tolist() for f in reference_rad_end_basis(x.end_basis())]
        assert got == want, x.dim_label()
        nonbrick += len(x.end_basis()) > 1
        larger_field += len(got) < len(x.end_basis()) - 1
    assert (nonbrick, larger_field) == counts


def _random_base_module(alg, rng):
    """A module over the m = 0 algebra with dims in 0..3 and random arrow
    matrices (every choice is a module: A is hereditary, with no relations)."""
    quiver = alg.quiver
    dims = [int(d) for d in rng.integers(0, 4, size=quiver.n_vertices)]
    maps = [rng.integers(0, alg.p, size=(dims[t], dims[s]))
            for s, t in zip(quiver.arrow_source, quiver.arrow_target)]
    return rp.LayeredModule(alg, [(dims, maps)], conn={})


@pytest.mark.parametrize("name", ["kronecker-p3", "d4", "a3-m1-catalog"])
def test_hom_complex_matches_kron_formula(name):
    rng = np.random.default_rng(7)
    if name == "a3-m1-catalog":
        mods = ar.indec_catalog(rp.build_replicated(a3(), 1, P)).modules
    else:
        quiver, p = (kronecker(), 3) if name == "kronecker-p3" else (qr.Quiver.load(QUIVERS / "d4.q"), P)
        alg = rp.build_replicated(quiver, 0, p)
        mods = [_random_base_module(alg, rng) for _ in range(12)] + [alg.zero_module()]
        assert any(0 in x.component_dims() for x in mods)
    for x in mods:
        for y in mods:
            got, want = rp.hom_complex(x, y), reference_hom_complex(x, y)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def _base_change(x, rng):
    """x transported along a random isomorphism phi, one invertible
    phi_c per component: N_e = phi_c' M_e phi_c^-1 on each edge c -> c'."""
    alg, p = x.algebra, x.p
    phis, invs = [], []
    for d in x.component_dims():
        inv = None
        while inv is None:
            phi = rng.integers(0, p, size=(d, d))
            inv = ef.inverse(phi, p)
        phis.append(phi)
        invs.append(inv)
    mats = [ef.mul(phis[t], ef.mul(mat, invs[s], p), p)
            for (s, t), mat in zip(alg.edges, x.edge_matrices())]
    return rp.LayeredModule._assemble(alg, x.component_dims(), mats)


def _key_modules(p, m, rng):
    """Kronecker modules over A^(m) at prime p: the bound-2 window census
    at p = 3; random modules at layer 0 or 1, and the injective envelopes
    and cosyzygies of those at layer 0, at p = 32003."""
    quiver = kronecker()
    if p == 3:
        if m == 0:
            return w.base_indecomposables(quiver, 3, 2)
        return w.census_modules(rp.build_replicated(quiver, 1, 3), 2)
    base = rp.build_replicated(quiver, 0, p)
    mods = [_random_base_module(base, rng) for _ in range(10)]
    if m == 0:
        return mods
    alg = rp.build_replicated(quiver, 1, p)
    out = []
    for x in mods:
        x1 = rp.rep_at_layer(alg, x, 0)
        out += [x1, rp.rep_at_layer(alg, x, 1), rp.inj_envelope(x1)[0], rp.cosyzygy(x1)]
    return out


@pytest.mark.parametrize("p, m", [(3, 0), (3, 1), (32003, 0), (32003, 1)])
def test_iso_key_invariant_under_base_change(p, m):
    rng = np.random.default_rng(5)
    mods = _key_modules(p, m, rng)
    alg = mods[0].algebra
    used = set()
    for x in mods:
        key = x.iso_key()
        assert key == (tuple(x.component_dims()), rp.semi_invariants(x))
        for _ in range(3):
            y = _base_change(x, rng)
            assert y.iso_key() == key
        used.update(pair for pair in alg.parallel_edge_pairs()
                    if x.component_dims()[alg.edges[pair[0]][0]]
                    == x.component_dims()[alg.edges[pair[0]][1]] > 0)
    # every parallel pair (both layers' arrows, and a*, b*) is exercised
    assert used == set(alg.parallel_edge_pairs()) and len(used) == 2 * m + 1


def test_semi_invariants_separate_points_of_the_projective_line():
    # (1, 1) regulars at the points (1 : t) and (0 : 1) of P^1(F_3) have
    # equal dims and ranks, but four different keys
    base = rp.build_replicated(kronecker(), 0, 3)
    mods = [rp.LayeredModule(base, [([1, 1], [ef.fmat([[a]], 3), ef.fmat([[b]], 3)])], conn={})
            for a, b in [(1, 0), (1, 1), (1, 2), (0, 1)]]
    assert len({x.iso_key() for x in mods}) == 4
    # a (2, 2) regular at a degree-2 point: det(A + tB) has no root in F_3
    comp = ef.fmat([[0, 1], [1, 1]], 3)
    x = rp.LayeredModule(base, [([2, 2], [ef.eye(2), comp])], conn={})
    [vals] = rp.semi_invariants(x)
    assert all(vals) and len(vals) == len(rp.SEMI_INVARIANT_POINTS) + 1


@pytest.mark.parametrize("p, bound", [(2, 3), (3, 3), (5, 2)])
def test_semi_invariants_match_the_direct_formula(p, bound):
    census = w.census_modules(rp.build_replicated(kronecker(), 1, p), bound)
    keyed = [x for x in census if rp.semi_invariants(x)]
    assert len(keyed) > 10
    for x in census:
        assert rp.semi_invariants(x) == reference_semi_invariants(x)


def test_semi_invariants_take_one_determinant_per_residue(monkeypatch):
    # at p = 3 the points 0, 1, 2, 5, 7, 11 fall on the residues 0, 1, 2,
    # so one parallel pair costs 3 + 1 determinants instead of 6 + 1
    base = rp.build_replicated(kronecker(), 0, 3)
    x = rp.LayeredModule(base, [([2, 2], [ef.eye(2), ef.fmat([[0, 1], [1, 1]], 3)])], conn={})
    want = reference_semi_invariants(x)
    dets = []
    real = ef.det

    def counting(a, p):
        dets.append(a)
        return real(a, p)

    monkeypatch.setattr(ef, "det", counting)
    assert rp.semi_invariants(x) == want
    assert len(dets) == 4


def _registry_stream(rng):
    """The Kronecker p = 3 census at bound 2, each member followed later by
    a base-changed copy, in a fixed shuffled order."""
    census = list(w.census_modules(rp.build_replicated(kronecker(), 1, 3), 2))
    stream = census + [_base_change(x, rng) for x in census]
    order = rng.permutation(len(stream))
    return census, [stream[i] for i in order]


def test_iso_registry_ids_match_linear_scan():
    census, stream = _registry_stream(np.random.default_rng(3))
    reg, ref = rp.IsoRegistry(), LinearScanRegistry()
    ids = [reg.canon(x) for x in stream]
    assert ids == [ref.canon(x) for x in stream]
    assert len(reg) == len(ref.modules) == len(census) == 44


def test_iso_registry_makes_no_negative_iso_test_on_kronecker_census(monkeypatch):
    _, stream = _registry_stream(np.random.default_rng(3))
    outcomes = []
    original = rp.is_iso_layered

    def iso(a, b):
        outcomes.append(original(a, b))
        return outcomes[-1]

    monkeypatch.setattr(rp, "is_iso_layered", iso)
    reg = rp.IsoRegistry()
    for x in stream:
        reg.canon(x)
    assert len(reg) == 44 and outcomes == [True] * 44


def _some_invertible(bases, p):
    """Whether any element of the span of bases (block lists) is
    invertible, by enumerating every coefficient vector."""
    for coeffs in itertools.product(range(p), repeat=len(bases)):
        blocks = [np.mod(sum(c * h[i] for c, h in zip(coeffs, bases)), p)
                  for i in range(len(bases[0]))]
        if all(b.shape[0] == b.shape[1] and ef.rank(b, p) == b.shape[0] for b in blocks):
            return True
    return False


@pytest.mark.parametrize("p, pairs", [(2, 128), (3, 176)])
def test_basis_scan_matches_exhaustive_iso_search(p, pairs):
    # every pair of equal dims with Hom != 0 among the Kronecker bound-2
    # census and base-changed copies: the basis scan finds an isomorphism
    # exactly when some element of Hom is one.  Every such pair here is
    # isomorphic, so these are the cases where a scan could miss one.
    rng = np.random.default_rng(11)
    census = list(w.census_modules(rp.build_replicated(kronecker(), 1, p), 2))
    mods = census + [_base_change(x, rng) for x in census]
    verdicts = []
    for x in mods:
        for y in mods:
            if x.component_dims() != y.component_dims():
                continue
            bases = [h.blocks for h in rp.hom_layered(x, y)]
            if bases:
                verdicts.append(sp.find_invertible_combo(bases, p) is not None)
                assert verdicts[-1] == _some_invertible(bases, p)
    assert len(verdicts) == pairs and all(verdicts)


def test_iso_of_decomposables_goes_through_krull_schmidt():
    base = rp.build_replicated(kronecker(), 0, 3)
    # S + S for a simple S: the canonical basis of Hom = M_2(F_3) holds no
    # invertible element, yet the modules are isomorphic
    s2 = rp.LayeredModule(base, [([2, 0], [ef.zeros(2, 0), ef.zeros(2, 0)])], conn={})
    s2b = _base_change(s2, np.random.default_rng(2))
    bases = [h.blocks for h in rp.hom_layered(s2, s2b)]
    assert len(bases) == 4 and sp.find_invertible_combo(bases, 3) is None
    assert rp.is_iso_layered(s2, s2b)
    # X + X and X + Y for (1, 1) regulars at two points of P^1(F_3):
    # Hom(X + X, X + Y) = F_3^2, but the modules differ
    x, y = (rp.LayeredModule(base, [([1, 1], [ef.fmat([[1]], 3), ef.fmat([[c]], 3)])],
                             conn={}) for c in (0, 1))
    xx = rp.LayeredModule.direct_sum([x, x])[0]
    xy = rp.LayeredModule.direct_sum([x, y])[0]
    assert len(rp.hom_layered(xx, xy)) == 2
    assert not rp.is_iso_layered(xx, xy) and not rp.is_iso_layered(xy, xx)
    assert rp.is_iso_layered(xy, rp.LayeredModule.direct_sum([y, x])[0])


def test_iso_registry_keys_only_modules_that_share_dims(monkeypatch):
    census, _ = _registry_stream(np.random.default_rng(3))
    fresh = [_base_change(x, np.random.default_rng(4)) for x in census]
    keyed = []
    real = rp.semi_invariants

    def recording(m):
        keyed.append(m)
        return real(m)

    monkeypatch.setattr(rp, "semi_invariants", recording)
    reg = rp.IsoRegistry()
    for x in fresh:
        reg.canon(x)
    shared = collections.Counter(tuple(x.component_dims()) for x in fresh)
    assert len(reg) == 44 and 0 < len(keyed) < len(fresh)
    assert {id(x) for x in keyed} == {id(x) for x in fresh
                                      if shared[tuple(x.component_dims())] > 1}


# ---------------------------------------------------------------------------
# mult is the one encoding of the product: the relations, the standard
# modules and the dual edge order are read off it, and agree with the
# hand-coded references in oracles.py
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", QUIVER_FILES, ids=lambda path: path.name)
def test_relations_match_reference_compiler(path):
    quiver = qr.Quiver.load(path)
    for m in range(5):
        alg = rp.ReplicatedAlgebra(quiver, m, P)
        for a in (alg, alg.opposite()):
            assert sorted(a.relations()) == sorted(reference_compile_relations(a)), m


def _same_matrices(got, want):
    assert got.component_dims() == want.component_dims()
    for x, y in zip(got.edge_matrices(), want.edge_matrices(), strict=True):
        assert x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("p", [2, 3, P])
def test_standard_modules_match_reference_builder(p):
    for path in QUIVER_FILES:
        quiver = qr.Quiver.load(path)
        for m in range(5):
            alg = rp.ReplicatedAlgebra(quiver, m, p)
            for a in (alg, alg.opposite()):
                assert a.dual_edges() == reference_dual_edges(a)
                for i, k in itertools.product(range(quiver.n_vertices), range(m + 1)):
                    _same_matrices(a.proj(i, k), reference_proj(a, i, k))
                    _same_matrices(a.inj(i, k), reference_inj(a, i, k))
                    _same_matrices(a.simple(i, k), reference_simple(a, i, k))


def test_relations_and_standard_modules_call_mult(monkeypatch):
    alg = rp.ReplicatedAlgebra(a3(), 2, P)  # not memoized, so nothing is compiled yet
    mult, calls = rp.ReplicatedAlgebra.mult, []

    def counted(self, x, y):
        calls.append((x, y))
        return mult(self, x, y)

    monkeypatch.setattr(rp.ReplicatedAlgebra, "mult", counted)
    counts = []
    for build in (alg.relations, lambda: alg.proj(1, 1), lambda: alg.inj(1, 2),
                  lambda: alg.simple(1, 0)):
        before = len(calls)
        build()
        counts.append(len(calls) - before)
    assert all(counts), counts
