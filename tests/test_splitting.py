"""Fitting splits: the factor-free scalar test, the locality certificate and
verdict kinds, checked against the factor-based search they replace
(`oracles.reference_fitting_split`, `oracles.reference_single_eigenvalue`)."""

import collections
from pathlib import Path

import numpy as np
import pytest

from replalg import artrans as ar
from replalg import exactfield as ef
from replalg import gencog as gc
from replalg import quiverrep as qr
from replalg import replicated as rp
from replalg import splitting as sp
from replalg import windows as w
from replalg.errors import BudgetExceeded
from oracles import (reference_decompose_layered, reference_fitting_split,
                     reference_line_census, reference_single_eigenvalue, reference_state)

P = 32003
QUIVERS = Path(__file__).resolve().parent.parent / "quivers"


def a3():
    return qr.Quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")])


def kronecker():
    return qr.Quiver(["1", "2"], [("b", "2", "1"), ("c", "2", "1")])


def base_module(quiver, p, dims, maps):
    """The A-module with this dimension vector and these arrow maps."""
    return rp.LayeredModule(rp.build_replicated(quiver, 0, p), [(dims, maps)])


def _record_verdicts(monkeypatch):
    """Counter of the verdict kinds decided while monkeypatch is active.
    `splitting._split_step` is the one place a verdict is decided, so this
    sees every indecomposable certified, by any route (a split with or
    without a registry, `certify`), and no verdict read from a memo."""
    seen = collections.Counter()
    real = sp._split_step

    def recording_step(m):
        known = m.verdict
        pieces = real(m)
        if m.verdict and not known:
            seen[m.verdict] += 1
        return pieces

    monkeypatch.setattr(sp, "_split_step", recording_step)
    return seen


@pytest.fixture
def verdicts(monkeypatch):
    return _record_verdicts(monkeypatch)


@pytest.fixture(scope="module")
def kron_p3_census():
    """The bound-3 census of the Kronecker quiver at p=3, m=1 (the window
    of `verify lem47 --d 5 --prime 3`) and the verdicts made building it."""
    with pytest.MonkeyPatch.context() as mp:
        seen = _record_verdicts(mp)
        census = w.census_modules(rp.build_replicated(kronecker(), 1, 3), 3)
    return census, seen


@pytest.fixture(scope="module")
def a3_m2_catalog():
    return ar.indec_catalog(rp.build_replicated(a3(), 2, P)).modules


def _random_invertible(n, p, rng):
    while True:
        a = rng.integers(0, p, size=(n, n))
        if ef.is_invertible(a, p):
            return a


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_scalar_test_matches_factoring(p):
    rng = np.random.default_rng(1000 + p)
    scalar_hits = 0
    for n in range(1, 10):
        for trial in range(12):
            if trial % 2:
                # lam + nilpotent, conjugated so it is not triangular
                lam = int(rng.integers(0, p))
                nil = np.triu(rng.integers(0, p, size=(n, n)), 1)
                s = _random_invertible(n, p, rng)
                a = ef.mul(ef.mul(s, np.mod(lam * ef.eye(n) + nil, p), p), ef.inverse(s, p), p)
            else:
                a = rng.integers(0, p, size=(n, n))
            blocks = [np.asarray(a, dtype=np.int64)]
            want = reference_single_eigenvalue(blocks, p)
            assert sp.single_eigenvalue(blocks, p) == want, (p, n, a)
            scalar_hits += want is not None
    # two scalar-plus-nilpotent blocks with equal and unequal scalars
    for lam, mu in ((1, 1), (1, 2 % p)):
        blocks = [np.array([[lam, 1], [0, lam]], dtype=np.int64),
                  np.array([[mu]], dtype=np.int64), ef.zeros(0, 0)]
        assert sp.single_eigenvalue(blocks, p) == reference_single_eigenvalue(blocks, p)
    assert sp.single_eigenvalue([ef.zeros(0, 0)], p) == 0
    assert scalar_hits >= 9 * 6


def _same_split(m):
    new = sp.fitting_split(m)
    old = reference_fitting_split(m, rp.hom_layered)
    assert [x.to_json() for x in new] == [x.to_json() for x in old]
    return new


def test_fitting_split_matches_reference_on_a3_m2_catalog(a3_m2_catalog):
    mods = a3_m2_catalog
    assert len(mods) == 30
    for x in mods:
        assert len(_same_split(x)) == 1
    n = len(mods)
    for i, x in enumerate(mods):
        y, z = mods[(i + 1) % n], mods[(i + 7) % n]
        xx = rp.LayeredModule.direct_sum([x, x])[0]
        xy = rp.LayeredModule.direct_sum([x, y])[0]
        xxz = rp.LayeredModule.direct_sum([x, x, z])[0]
        assert len(_same_split(xx)) == 2
        assert len(_same_split(xy)) == 2
        assert len(_same_split(xxz)) == 3


def test_fitting_split_matches_reference_on_kronecker_p3_census(kron_p3_census):
    census, _ = kron_p3_census
    assert len(census) == 85
    for x in census:
        assert len(_same_split(x)) == 1
    # sums of non-bricks: End is a matrix ring over a local ring or F_9
    fat = [x for x in census if len(x.end_basis()) > 1][:6]
    assert len(fat) == 6
    for x, y in zip(fat, fat[1:] + fat[:1]):
        _same_split(rp.LayeredModule.direct_sum([x, x])[0])
        _same_split(rp.LayeredModule.direct_sum([x, y])[0])


def test_no_probabilistic_verdicts_in_kronecker_p3_census(kron_p3_census):
    census, verdicts = kron_p3_census
    assert len(census) == 85
    assert verdicts[sp.CERTIFIED_LOCAL] > 0
    assert set(verdicts) <= set(sp.VERDICT_KINDS)


def test_no_probabilistic_verdicts_in_a3_m2_catalog(verdicts):
    cat = ar.indec_catalog(rp.build_replicated(a3(), 2, P))
    assert len(cat.modules) == 30
    assert sum(verdicts.values()) > 0
    assert set(verdicts) <= set(sp.VERDICT_KINDS)


def test_verdict_counts_a3_m1_catalog(verdicts):
    # every registered catalog entry is a brick, read from its memo: the
    # standard modules of a memoized algebra may carry a verdict from an
    # earlier test, and are then not certified again.  Each other entry is
    # certified once, and nothing else is
    alg = rp.build_replicated(a3(), 1, P)
    known = [x for k, i in alg.components() for x in (alg.proj(i, k), alg.inj(i, k))
             if x.verdict is not None]
    cat = ar.indec_catalog(alg)
    assert len(cat.modules) == 18
    assert collections.Counter(x.verdict for x in cat.modules) == {sp.BRICK: 18}
    fresh = sum(not any(x is y for y in known) for x in cat.modules)
    assert verdicts == collections.Counter({sp.BRICK: fresh})


def test_certified_through_residue_field_branch():
    # Kronecker (2,2) regular at a degree-2 point of P^1(F_3): End = F_9
    comp = ef.fmat([[0, 1], [1, 1]], 3)  # companion of x^2 - x - 1, irreducible over F_3
    m = base_module(kronecker(), 3, [2, 2], [ef.eye(2), comp])
    ends = qr.hom_basis(m, m)
    assert len(ends) == 2
    # some endomorphism is not scalar + nilpotent, so End/rad is not F_3
    # and the certificate cannot have taken its e = 1 branch
    assert any(sp.single_eigenvalue(f.blocks, 3) is None for f in ends)
    [piece] = sp.fitting_split(m)
    assert piece.verdict == sp.CERTIFIED_LOCAL
    assert piece.component_dims() == [2, 2]


def test_certificate_refuses_non_local_end_and_search_splits():
    # S + S for a simple S: End = M_2(F_p), offered through a basis of
    # scalar-plus-nilpotent matrices, so no basis element splits and the
    # certificate must fail (the ideal generated by E12 is all of M_2)
    p = 5
    q = kronecker()
    s2 = base_module(q, p, [2, 0], [ef.zeros(2, 0), ef.zeros(2, 0)])
    basis = [ef.eye(2), ef.fmat([[0, 1], [0, 0]], p), ef.fmat([[0, 0], [1, 0]], p),
             ef.fmat([[1, 1], [-1, -1]], p)]

    # offered through the module's End memo, which fitting splits read
    s2._end = [rp.LayeredMorphism(s2, s2, [b, ef.zeros(0, 0)]) for b in basis]
    for b in basis:
        assert sp.single_eigenvalue([b], p) is not None
    pieces = sp.fitting_split(s2)
    assert [(x.component_dims(), x.verdict) for x in pieces] == [([1, 0], sp.BRICK)] * 2
    assert s2.verdict is False


def test_certify_reads_the_memo_and_decides_once(monkeypatch):
    q = kronecker()
    comp = ef.fmat([[0, 1], [1, 1]], 3)
    local = base_module(q, 3, [2, 2], [ef.eye(2), comp])
    s2 = base_module(q, 3, [2, 0], [ef.zeros(2, 0), ef.zeros(2, 0)])
    zero = base_module(q, 3, [0, 0], [ef.zeros(0, 0), ef.zeros(0, 0)])
    calls = _calls_of(monkeypatch, sp, "_split_once")
    for _ in range(2):
        assert sp.certify(local) == local.verdict == sp.CERTIFIED_LOCAL
        assert sp.certify(s2) is s2.verdict is False
        assert sp.certify(zero) is False
    assert len(calls) == 2 and calls[0][0] is local and calls[1][0] is s2
    assert zero.verdict is None


def test_dim_cap_is_checked_before_any_end_basis(monkeypatch):
    m = base_module(kronecker(), 3, [2, 2], [ef.eye(2), ef.eye(2)])
    monkeypatch.setattr(sp, "DIM_CAP", 3)
    for split in (sp.fitting_split, sp.certify,
                  lambda x: sp.fitting_split(x, rp.IsoRegistry())):
        with pytest.raises(BudgetExceeded, match="total dimension 4"):
            split(m)
    assert m._end is None and m.verdict is None


def test_certificate_needs_commutators_on_skew_f4_algebra():
    # the local algebra {[[a, b], [0, a^2]] : a, b in F_4} inside M_4(F_2),
    # F_4 = F_2[w] with w the companion matrix of x^2 + x + 1.  Every
    # g_i(f_i) of this basis is 0, so only the commutators, [[0, b' - b],
    # [0, 0]], generate rad = {[[0, b], [0, 0]]}, of dimension 2
    p = 2
    w = ef.fmat([[0, 1], [1, 1]], p)

    def elem(a, b):
        return np.mod(np.block([[a, b], [ef.zeros(2, 2), ef.mul(a, a, p)]]), p)

    basis = [[ef.eye(4)], [elem(w, ef.zeros(2, 2))], [elem(w, ef.eye(2))], [elem(w, w)]]
    mins = [[1, 1], [1, 1, 1], [1, 1, 1], [1, 1, 1]]  # x + 1 and x^2 + x + 1
    for [f], g in zip(basis, mins):
        assert not ef.poly_eval_matrix(g, f, p).any()
    rad = sp.certified_radical(basis, mins, p)
    assert rad is not None and len(rad) == 2
    for [r] in rad:
        # supported on the b block
        assert r[:2, 2:].any() and not r[:, :2].any() and not r[2:, :].any()


# ---------------------------------------------------------------------------
# splits with registry lookups against the routes they replaced: the same
# ids, multiplicities and registration order (oracles.reference_state,
# reference_decompose_layered, reference_line_census)
# ---------------------------------------------------------------------------


def _fresh(x):
    """A copy of x with no memo: no End, no verdict."""
    return rp.LayeredModule.from_json(x.algebra, x.to_json())


def _calls_of(monkeypatch, module, name):
    """The argument tuples of every call of module.name while monkeypatch
    is active; the objects stay alive, so identity tests on them hold."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_census_matches_its_add_loop_reference():
    got = w.base_indecomposables(kronecker(), 3, 3)
    want = reference_line_census(kronecker(), 3, 3)
    assert len(got) == 29
    assert [x.to_json() for x in got] == [x.to_json() for x in want]


def test_registry_split_matches_reference_on_kronecker_p3_census_middles(monkeypatch):
    classes = _calls_of(monkeypatch, qr, "realize_extension_class")
    census = w.base_indecomposables(kronecker(), 3, 3)
    monkeypatch.undo()
    assert len(classes) == 234
    # every other member is registered up front without a verdict, so the
    # middle terms both find (and certify) members and register new classes
    seeded = census[::2]
    new, ref = (rp.IsoRegistry(_fresh(x) for x in seeded) for _ in range(2))
    found = 0
    for m, n, coeffs in classes:
        got = new.decompose(qr.realize_extension_class(m, n, coeffs)[0])
        middle = qr.realize_extension_class(m, n, coeffs)[0]
        assert got == [ref.canon(piece) for piece in sp.fitting_split(middle)]
        found += sum(i < len(seeded) for i in got)
    assert len(new) == len(ref) == 29 and found > 100
    assert [x.to_json() for x in new.modules] == [x.to_json() for x in ref.modules]


def test_registry_split_matches_reference_on_d4_m2_ar_middle_terms():
    cat = ar.indec_catalog(rp.build_replicated(qr.Quiver.load(QUIVERS / "d4.q"), 2, P))
    assert len(cat) == 60
    want_mult = np.zeros((60, 60), dtype=np.int64)
    for z, tz in enumerate(cat.tau_map):
        if tz is None:
            (k, i), _ = rp.top_generators(cat.modules[z])[0]
            middles = [rp.syzygy(cat.algebra.simple(i, k)) for _ in range(3)]
        else:
            middles = [ar._almost_split_middle(cat.modules[z], cat.modules[tz])
                       for _ in range(3)]
        want = reference_decompose_layered(middles[0])
        got = rp.decompose_layered(middles[1])
        assert [(x.to_json(), mult) for x, mult in got] == \
            [(x.to_json(), mult) for x, mult in want]
        pieces = sp.fitting_split(middles[2], cat.registry)
        assert all(cat.registry.identity_index(y) is not None for y in pieces)
        assert sorted(cat.registry.identity_index(y) for y in pieces) == sorted(
            cat.find(y) for y, mult in want for _ in range(mult))
        for y, mult in want:
            idx = cat.find(y)
            want_mult[idx, z] = mult * (cat.hom_dim(idx, idx) - len(cat.modules[idx].rad_end()))
    assert np.array_equal(ar.ar_quiver(cat).mult, want_mult)


def _omega_tables(engine_of, gencogs_of, monkeypatch, reference):
    """engine._omega after the M-dimension walks of gencogs_of(engine),
    with MDimEngine.state replaced by the reference route when asked."""
    with monkeypatch.context() as mp:
        if reference:
            mp.setattr(gc.MDimEngine, "state",
                       lambda self, module: reference_state(self.registry, module))
        engine = engine_of()
        for gencog, census in gencogs_of(engine):
            if census is None:
                gc.gldim_end(gencog)
            else:
                gc.gldim_end_windowed(gencog, census)
    return engine


def test_engine_states_match_reference_over_a3_m2(monkeypatch):
    cat = ar.indec_catalog(rp.build_replicated(a3(), 2, P))

    def gencogs(engine):
        yield gc.GenCog(engine, engine.required_ids()), None
        for d in range(2, ar.tau_orbits(cat).max_cardinality() + 1):
            yield gc.construct_thm32(cat, d, engine)[0], None

    new, ref = (_omega_tables(lambda: gc.MDimEngine.for_catalog(cat), gencogs,
                              monkeypatch, reference) for reference in (False, True))
    assert len(new._omega) > 20 and new._omega == ref._omega
    mods = cat.modules
    for i in range(len(cat)):
        j, k = (i + 1) % len(cat), (i + 7) % len(cat)
        total = rp.LayeredModule.direct_sum([mods[i], mods[i], mods[j], mods[k]])[0]
        assert new.state(total) == reference_state(cat.registry, total)


@pytest.mark.parametrize("p, bound", [(3, 3), (P, 2)])
def test_engine_states_match_reference_on_windowed_kronecker(monkeypatch, p, bound):
    alg = rp.build_replicated(kronecker(), 1, p)

    def gencogs(engine):
        yield gc.construct_lem47(alg, 5, engine)[0], w.census_modules(alg, bound)

    new, ref = (_omega_tables(lambda: gc.MDimEngine.windowed(alg), gencogs,
                              monkeypatch, reference) for reference in (False, True))
    assert len(new._omega) > 50 and new._omega == ref._omega
    assert [x.to_json() for x in new.registry.modules] == \
        [x.to_json() for x in ref.registry.modules]


def test_a_decomposable_member_never_ends_a_branch():
    census = w.base_indecomposables(kronecker(), 3, 3)
    x, y = [m for m in census if m.component_dims() == [1, 1]][:2]
    alg = rp.build_replicated(kronecker(), 0, 3)
    registries = []
    for _ in range(2):
        # the decomposable X + Y joins with add, so it carries no verdict
        reg = rp.IsoRegistry()
        reg.add(rp.LayeredModule.direct_sum([_fresh(x), _fresh(y)])[0])
        registries.append(reg)
    new, ref = registries
    sums = [rp.LayeredModule.direct_sum([_fresh(z) for z in summands])[0]
            for summands in ([x, y], [y, x], [x, x, y])]
    # X + Y itself is found as member 0, but never returned for it
    assert new.find(sums[0]) == 0
    engine = gc.MDimEngine(alg, new)
    for total, count in zip(sums, (2, 2, 3)):
        pieces = sp.fitting_split(total, new)
        assert len(pieces) == count and not any(piece is new.modules[0] for piece in pieces)
        assert engine.state(total) == reference_state(ref, total)
    assert new.modules[0].verdict is False
    assert [m.to_json() for m in new.modules] == [m.to_json() for m in ref.modules]


def test_each_census_member_is_certified_exactly_once(monkeypatch):
    q = kronecker()
    # the standard modules of a memoized algebra may carry a verdict from
    # an earlier computation, and are then not certified again
    seeds = [make(q, 3, v) for v in q.vertices
             for make in (qr.simple, qr.projective, qr.injective)]
    known = [x for x in seeds if x.verdict is not None]
    calls = _calls_of(monkeypatch, sp, "_split_once")
    census = w.base_indecomposables(q, 3, 3)
    assert [sum(m is x for (m,) in calls) for x in census] == \
        [int(not any(x is y for y in known)) for x in census]
    assert {x.verdict for x in census} == set(sp.VERDICT_KINDS)


def test_layer_embedding_keeps_the_verdict():
    # End over A^(m) of a module in one layer is End over A, so the
    # embedded module's own certificate gives the kind it inherits
    census = w.base_indecomposables(kronecker(), 3, 3)
    alg = rp.build_replicated(kronecker(), 2, 3)
    for x in census:
        for k in range(3):
            y = rp.rep_at_layer(alg, x, k)
            assert y.verdict == x.verdict and y.verdict in sp.VERDICT_KINDS
            [piece] = sp.fitting_split(_fresh(y))
            assert piece.verdict == y.verdict and len(piece.end_basis()) == len(x.end_basis())


def test_each_uncertified_engine_member_is_certified_once_on_first_use(monkeypatch):
    alg = rp.ReplicatedAlgebra(kronecker(), 1, 3)
    engine = gc.MDimEngine.windowed(alg)
    gencog, _, _ = gc.construct_lem47(alg, 5, engine)
    census = w.census_modules(alg, 3)
    # layer-0 copies of base census members inherit their verdict
    known = [x for x in census + engine.registry.modules if x.verdict is not None]
    assert len(known) > 20
    calls = _calls_of(monkeypatch, sp, "_split_once")
    gc.gldim_end_windowed(gencog, census)
    members = engine.registry.modules
    certified = [sum(m is x for (m,) in calls) for x in members]
    assert set(certified) == {0, 1}
    assert certified == [int(x.verdict is not None and not any(x is y for y in known))
                         for x in members]
