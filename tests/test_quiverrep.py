import itertools
from pathlib import Path

import numpy as np
import pytest

from replalg import artrans as ar
from replalg import exactfield as ef
from replalg import quiverrep as qr
from replalg import replicated as rp
from replalg import windows as w
from replalg.errors import AnomalyError, InputError
from oracles import reference_ar_mult

P = 32003
QUIVERS = Path(__file__).resolve().parent.parent / "quivers"


def rep(quiver, p, dims, maps=None):
    """The A-module with this dimension vector and these arrow maps."""
    return rp.LayeredModule(rp.build_replicated(quiver, 0, p), [(dims, maps)])


def a2():
    # 1 <- 2
    return qr.Quiver(["1", "2"], [("a", "2", "1")])


def kronecker():
    return qr.Quiver(["1", "2"], [("b", "2", "1"), ("c", "2", "1")])


def a3():
    # 1 <- 2 <- 3
    return qr.Quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")])


def brute_force_hom_dim(m, n):
    """Oracle: enumerate all morphism tuples over a tiny field and count
    the intertwiners directly."""
    p = m.p
    quiver = m.algebra.quiver
    mdims, ndims = m.component_dims(), n.component_dims()
    shapes = [(ndims[i], mdims[i]) for i in range(quiver.n_vertices)]
    sizes = [r * c for r, c in shapes]
    total = sum(sizes)
    assert p ** total <= 4096, "oracle only runs on tiny instances"
    count = 0
    for combo in itertools.product(range(p), repeat=total):
        blocks = []
        pos = 0
        for r, c in shapes:
            blocks.append(np.array(combo[pos:pos + r * c], dtype=np.int64).reshape(r, c))
            pos += r * c
        ok = True
        for a in range(len(quiver.arrows)):
            s, t = quiver.arrow_source[a], quiver.arrow_target[a]
            if not np.array_equal(ef.mul(blocks[t], m.layers[0].maps[a], p),
                                  ef.mul(n.layers[0].maps[a], blocks[s], p)):
                ok = False
                break
        if ok:
            count += 1
    # count = p^dim of the solution space
    dim = 0
    while p ** dim < count:
        dim += 1
    assert p ** dim == count
    return dim


def test_quiver_parsing_and_validation():
    q = qr.Quiver.from_text("vertex 1\nvertex 2\narrow a: 2 -> 1\n")
    assert q.vertices == ["1", "2"]
    with pytest.raises(InputError):
        qr.Quiver(["1"], [("a", "1", "1")])  # loop = cycle
    with pytest.raises(InputError):
        qr.Quiver(["1", "2"], [])  # disconnected
    with pytest.raises(InputError) as exc:
        qr.Quiver.from_text("vertex 1\narrow oops\n")
    assert "line 2" in str(exc.value)


def test_path_basis_a2():
    pb = a2().paths
    # e_1, e_2, a
    assert pb.n == 3
    assert pb.maximal == [pb.by_name("a")]
    assert pb.compose(pb.by_name("e_2"), pb.by_name("a")) == pb.by_name("a")
    assert pb.compose(pb.by_name("a"), pb.by_name("e_1")) == pb.by_name("a")
    assert pb.compose(pb.by_name("a"), pb.by_name("e_2")) is None


def test_projective_dims_a2():
    q = a2()
    # P(1): only the trivial path at 1
    assert qr.projective(q, P, "1").component_dims() == [1, 0]
    # P(2): e_2 and the path a
    assert qr.projective(q, P, "2").component_dims() == [1, 1]
    assert qr.injective(q, P, "1").component_dims() == [1, 1]
    assert qr.injective(q, P, "2").component_dims() == [0, 1]
    assert qr.simple(q, P, "2").component_dims() == [0, 1]
    with pytest.raises(InputError):
        qr.simple(q, P, "7")


def test_hom_dims_a2_against_oracle():
    q = a2()
    p1, p2 = qr.projective(q, 3, "1"), qr.projective(q, 3, "2")
    assert len(rp.hom_layered(p1, p2)) == 1
    assert len(rp.hom_layered(p2, p1)) == 0
    assert brute_force_hom_dim(p1, p2) == 1
    assert brute_force_hom_dim(p2, p1) == 0
    s1, s2 = qr.simple(q, 3, "1"), qr.simple(q, 3, "2")
    assert len(rp.hom_layered(p2, s1)) == brute_force_hom_dim(p2, s1) == 0
    assert len(rp.hom_layered(p2, s2)) == brute_force_hom_dim(p2, s2) == 1


def test_hom_projective_injective_identities():
    for q in (a2(), a3(), kronecker()):
        m = rep(q, P, [2] * q.n_vertices,
                [ef.fmat(np.arange(4).reshape(2, 2) + a, P) for a in range(len(q.arrows))])
        for i, v in enumerate(q.vertices):
            assert len(rp.hom_layered(qr.projective(q, P, v), m)) == m.component_dims()[i]
            assert len(rp.hom_layered(m, qr.injective(q, P, v))) == m.component_dims()[i]


def test_hom_contains_identity():
    q = a3()
    m = qr.projective(q, P, "3")
    basis = qr.hom_basis(m, m)
    assert len(basis) >= 1
    flat = np.array([h.flatten() for h in basis], dtype=np.int64).T
    ident = rp.LayeredMorphism.identity(m).flatten()
    assert ef.solve(flat, ident.reshape(-1, 1), P) is not None


def test_euler_form_exhaustive_small():
    # all representations of A_2 with dims <= (3, 3) over F_2
    q = qr.Quiver(["1", "2"], [("a", "2", "1")])
    p = 2
    for d1 in range(3):
        for d2 in range(3):
            mats = itertools.product(range(p), repeat=d1 * d2)
            for flat in mats:
                m = rep(q, p, [d1, d2], [np.array(flat, dtype=np.int64).reshape(d1, d2)])
                got = len(rp.hom_layered(m, m)) - qr.ext1_dim(m, m)
                assert got == qr.euler_form(q, m.component_dims(), m.component_dims())


def test_ext_vanishes_on_projectives():
    for q in (a2(), a3(), kronecker()):
        for v in q.vertices:
            pv = qr.projective(q, P, v)
            for w in q.vertices:
                assert qr.ext1_dim(pv, qr.simple(q, P, w)) == 0


def test_kronecker_regular_self_extension():
    q = kronecker()
    n = rep(q, P, [1, 1], [ef.fmat([[1]], P), ef.fmat([[0]], P)])
    assert len(rp.hom_layered(n, n)) == 1
    assert qr.ext1_dim(n, n) == 1
    e, incl, proj = qr.realize_extension(n, n, 0)
    assert e.component_dims() == [2, 2]
    assert incl.is_morphism() and proj.is_morphism()
    assert not qr.sequence_splits(incl)


def test_split_extension_detected():
    q = a2()
    s1, s2 = qr.simple(q, P, "1"), qr.simple(q, P, "2")
    # Ext^1(S1, S2) = 0 for a: 2 -> 1, so any "extension" splits
    assert qr.ext1_dim(s1, s2) == 0
    total, incls, _ = rp.LayeredModule.direct_sum([s2, s1])
    assert qr.sequence_splits(incls[0])


def test_is_iso_basic():
    q = a2()
    p2 = qr.projective(q, P, "2")
    assert qr.is_iso(p2, p2)
    s12 = rp.LayeredModule.direct_sum([qr.simple(q, P, "1"), qr.simple(q, P, "2")])[0]
    assert s12.component_dims() == p2.component_dims()
    assert not qr.is_iso(p2, s12)
    assert not qr.is_iso(p2, qr.simple(q, P, "1"))


def test_decompose_simple_and_multiplicity():
    q = a2()
    s1 = qr.simple(q, P, "1")
    assert [(m.component_dims(), k) for m, k in qr.decompose(s1)] == [([1, 0], 1)]
    p1 = qr.projective(q, P, "1")
    double, _, _ = rp.LayeredModule.direct_sum([p1, p1])
    out = qr.decompose(double)
    assert len(out) == 1 and out[0][1] == 2 and out[0][0].component_dims() == [1, 0]


def test_decompose_rank_one_generic():
    # dim (2,1), arrow of rank 1: P(2) + S(1)
    q = a2()
    m = rep(q, P, [2, 1], [ef.fmat([[1], [0]], P)])
    out = qr.decompose(m)
    dims = sorted(piece.component_dims() for piece, _ in out)
    assert dims == [[1, 0], [1, 1]]
    for piece, _ in out:
        # End is local with residue field F_p: every endomorphism is
        # scalar + nilpotent, and rad End has codimension 1
        ends = qr.hom_basis(piece, piece)
        assert len(piece.rad_end()) == len(ends) - 1


def test_decompose_kronecker_regulars():
    q = kronecker()
    # two non-isomorphic regulars glued as a direct sum
    r0 = rep(q, P, [1, 1], [ef.fmat([[1]], P), ef.fmat([[0]], P)])
    r1 = rep(q, P, [1, 1], [ef.fmat([[1]], P), ef.fmat([[1]], P)])
    both, _, _ = rp.LayeredModule.direct_sum([r0, r1])
    out = qr.decompose(both)
    assert sorted((piece.component_dims(), k) for piece, k in out) == [([1, 1], 1), ([1, 1], 1)]


def test_decompose_field_extension_endos_small_p():
    # Kronecker regular of dim (2,2) with an irreducible quadratic
    # eigenvalue: End is F_9, the module is indecomposable
    q = kronecker()
    comp = ef.fmat([[0, 1], [1, 1]], 3)  # companion of x^2 - x - 1, irreducible over F_3
    m = rep(q, 3, [2, 2], [ef.eye(2), comp])
    out = qr.decompose(m)
    assert len(out) == 1 and out[0][1] == 1
    # End is the field F_9, not scalar + nilpotent over F_3: the certified
    # radical is zero
    ends = qr.hom_basis(m, m)
    assert len(ends) == 2
    assert m.rad_end() == []
    # the length-2 module of the same tube: End = F_9[t]/(t^2), rad of
    # dimension 2 with square zero
    c2 = np.block([[comp, ef.eye(2)], [ef.zeros(2, 2), comp]])
    m2 = rep(q, 3, [4, 4], [ef.eye(4), c2])
    ends = qr.hom_basis(m2, m2)
    rad = m2.rad_end()
    assert len(ends) == 4 and len(rad) == 2
    assert all(f.compose(g).is_zero() for f in rad for g in rad)


def test_rad_end_basis_rejects_non_local_end():
    # End(S(1) + S(2)) = F_3 x F_3 is not local: no radical is certified
    q = kronecker()
    both, _, _ = rp.LayeredModule.direct_sum([qr.simple(q, 3, "1"), qr.simple(q, 3, "2")])
    with pytest.raises(AnomalyError):
        both.rad_end()


def test_projective_cover_and_top():
    q = a3()
    s3 = qr.simple(q, P, "3")
    cover, mor, summands = rp.proj_cover(s3)
    assert summands == [(q.vindex["3"], 0)]
    assert cover.component_dims() == qr.projective(q, P, "3").component_dims()
    assert mor.is_surjective() and mor.is_morphism()
    ker, incl = mor.kernel()
    assert incl.is_morphism()
    assert ker.total_dim == cover.total_dim - 1


def test_tau_a2():
    q = a2()
    s2 = qr.simple(q, P, "2")
    t = qr.tau(s2)
    # AR sequence 0 -> P(1) -> P(2) -> S(2) -> 0
    assert t.component_dims() == [1, 0]
    assert qr.tau(qr.projective(q, P, "1")).total_dim == 0
    assert qr.tau(qr.projective(q, P, "2")).total_dim == 0
    assert qr.tau_inverse(qr.injective(q, P, "1")).total_dim == 0
    back = qr.tau_inverse(t)
    assert qr.is_iso(back, s2)


def test_tau_kronecker_preprojectives():
    q = kronecker()
    p1 = qr.projective(q, P, "1")
    z = qr.tau_inverse(p1)
    assert z.component_dims() == [3, 2]
    assert qr.is_iso(qr.tau(z), p1)
    z2 = qr.tau_inverse(z)
    assert z2.component_dims() == [5, 4]


def test_tau_regular_is_stable():
    q = kronecker()
    n = rep(q, P, [1, 1], [ef.fmat([[1]], P), ef.fmat([[0]], P)])
    assert qr.is_iso(qr.tau(n), n)


def test_representation_json_roundtrip():
    q = a3()
    m = qr.projective(q, P, "3")
    data = m.to_json()
    # the layer keeps the per-vertex / per-arrow format of module JSON
    assert data == {"m": 0, "p": P, "connecting": [],
                    "layers": [{"dims": {"1": 1, "2": 1, "3": 1},
                                "maps": {"a": [[1]], "b": [[1]]}}]}
    back = rp.LayeredModule.from_json(m.algebra, data)
    assert back.component_dims() == m.component_dims()
    assert all(np.array_equal(back.layers[0].maps[a], m.layers[0].maps[a])
               for a in range(len(q.arrows)))


def test_decompose_iso_invariance():
    q = a2()
    m = rep(q, P, [2, 1], [ef.fmat([[1], [0]], P)])
    n = qr.projective(q, P, "2")
    both, _, _ = rp.LayeredModule.direct_sum([m, n])
    merged = qr.decompose(both)
    separate = qr.decompose(m) + qr.decompose(n)
    flat_merged = sorted(d for piece, k in merged for d in [piece.component_dims()] * k)
    flat_sep = sorted(d for piece, k in separate for d in [piece.component_dims()] * k)
    assert flat_merged == flat_sep


def test_module_checks_dims_shapes_and_prime():
    q = a2()
    with pytest.raises(InputError):
        rep(q, P, [1])  # one entry per vertex
    with pytest.raises(InputError):
        rep(q, P, [1, -1])
    with pytest.raises(InputError):
        rep(q, P, [1, 1], [ef.zeros(2, 1)])  # the map of a: 2 -> 1 is 1 x 1
    with pytest.raises(InputError):
        rep(q, P, [1, 1], [])  # one map per arrow
    m = rep(q, 5, [1, 2], [[[7, -1]]])
    assert m.layers[0].maps[0].tolist() == [[2, 4]]


def d4():
    return qr.Quiver(["0", "1", "2", "3"],
                     [("a", "1", "0"), ("b", "2", "0"), ("c", "3", "0")])


def a2r():
    return qr.Quiver(["1", "2"], [("a", "1", "2")])


def coxeter(quiver):
    """Phi with <x, y> = -<y, Phi x> for the Euler form <x, y> = x^T E y,
    E = I - (arrow counts): Phi = -E^{-1} E^T (Gabriel; ARS ch. VIII)."""
    n = quiver.n_vertices
    e = np.eye(n)
    for s, t in zip(quiver.arrow_source, quiver.arrow_target):
        e[s, t] -= 1
    return np.rint(-np.linalg.inv(e) @ e.T).astype(np.int64)


_CENSUS = {}


def base_census(quiver, p):
    """Indecomposable A-modules: the whole catalog of a Dynkin quiver, the
    dimension-3 window census of the Kronecker quiver."""
    key = (quiver.to_text(), p)
    if key not in _CENSUS:
        if key[0] == kronecker().to_text():
            _CENSUS[key] = w.base_indecomposables(quiver, p, bound=3)
        else:
            _CENSUS[key] = ar.indec_catalog(rp.build_replicated(quiver, 0, p)).modules
    return _CENSUS[key]


def is_projective(quiver, p, x):
    return any(qr.is_iso(x, qr.projective(quiver, p, v)) for v in quiver.vertices)


@pytest.mark.parametrize("quiver, p, size", [
    (a3(), P, 6), (d4(), P, 12), (a2r(), P, 3), (kronecker(), 3, None)],
    ids=["a3", "d4", "a2-reversed", "kronecker-p3"])
def test_coxeter_dim_tau(quiver, p, size):
    # dim tau M = Phi dim M for every indecomposable non-projective M
    # over a hereditary algebra; tau M = 0 exactly on projectives.  Dynkin
    # catalogs have one module per positive root (Gabriel).
    phi = coxeter(quiver)
    mods = base_census(quiver, p)
    if size is not None:
        assert len(mods) == size
    non_projective = 0
    for x in mods:
        t = qr.tau(x)
        if is_projective(quiver, p, x):
            assert t.is_zero()
            continue
        non_projective += 1
        assert t.component_dims() == (phi @ np.array(x.component_dims())).tolist()
    assert non_projective == len(mods) - quiver.n_vertices


@pytest.mark.parametrize("quiver, p", [(d4(), P), (kronecker(), 3)],
                         ids=["d4", "kronecker-p3"])
def test_euler_form_identity_on_census_pairs(quiver, p):
    # dim Hom(M, N) - dim Ext^1(M, N) = <dim M, dim N>, with Ext^1 read
    # from the Auslander-Reiten formula Ext^1(M, N) = D Hom(N, tau M) and
    # compared with the Hom-complex value
    mods = base_census(quiver, p)
    taus = [qr.tau(x) for x in mods]
    for x, tx in zip(mods, taus):
        for y in mods:
            ext = 0 if tx.is_zero() else len(qr.hom_basis(y, tx))
            assert qr.ext1_dim(x, y) == ext
            assert len(qr.hom_basis(x, y)) - ext == \
                qr.euler_form(quiver, x.component_dims(), y.component_dims())


@pytest.mark.parametrize("name", ["a2r", "a3", "a3alt", "d4"])
def test_ar_sequence_matches_the_ar_quiver(name):
    # the AR quiver's arrows as rad/rad^2 over a complete catalog of
    # A-modules (the oracle, not ARQuiver, which reads the sequences) are
    # an independent check of the middle terms and tau of each sequence
    quiver = qr.Quiver.load(str(QUIVERS / f"{name}.q"))
    cat = ar.indec_catalog(rp.build_replicated(quiver, 0, P))
    arrows = reference_ar_mult(cat)
    checked = 0
    for z in range(len(cat)):
        if z in cat.projective:
            continue
        tz, middle = ar.ar_sequence(cat.modules[z])
        got = {cat.find(y): mult for y, mult in middle}
        want = {y: int(arrows[y, z]) for y in range(len(cat)) if arrows[y, z]}
        assert got == want
        assert cat.find(tz) == cat.tau_map[z]
        checked += 1
    assert checked == len(cat) - quiver.n_vertices


@pytest.mark.parametrize("vertex", [0, 1])
def test_ar_sequence_kronecker_preprojectives(vertex):
    # preprojectives P(1), P(2), tau^-1 P(1), tau^-1 P(2), ...: the sequence
    # ending in tau^-j P(1) has middle term tau^-(j-1) P(2) twice, the one
    # ending in tau^-j P(2) has tau^-j P(1) twice
    quiver = kronecker()
    slices = [[qr.projective(quiver, 3, v) for v in quiver.vertices]]
    for _ in range(3):
        slices.append([qr.tau_inverse(x) for x in slices[-1]])
    for j in range(1, 4):
        tz, middle = ar.ar_sequence(slices[j][vertex])
        assert qr.is_iso(tz, slices[j - 1][vertex])
        assert len(middle) == 1 and middle[0][1] == 2
        want = slices[j - 1][1] if vertex == 0 else slices[j][0]
        assert qr.is_iso(middle[0][0], want)


def test_ar_sequence_refuses_a_larger_ext_space():
    # Kronecker (2,2) regular at the degree-2 point x^2 - x - 1 of P^1(F_3):
    # End = F_9 and tau Z = Z, so dim Ext^1(Z, tau Z) = 2 and a basis class
    # need not be almost split
    comp = ef.fmat([[0, 1], [1, 1]], 3)
    z = rep(kronecker(), 3, [2, 2], [ef.eye(2), comp])
    assert qr.is_iso(qr.tau(z), z)
    assert qr.ext1_dim(z, qr.tau(z)) == 2
    with pytest.raises(AnomalyError):
        ar.ar_sequence(z)
    with pytest.raises(AnomalyError):
        ar.ar_sequence(qr.projective(kronecker(), 3, "1"))
