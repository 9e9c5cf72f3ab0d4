"""Fitting splits: the factor-free scalar test, the locality certificate and
verdict kinds, checked against the factor-based search they replace
(`oracles.reference_fitting_split`, `oracles.reference_single_eigenvalue`)."""

import collections

import numpy as np
import pytest

from replalg import artrans as ar
from replalg import exactfield as ef
from replalg import quiverrep as qr
from replalg import replicated as rp
from replalg import splitting as sp
from replalg import windows as w
from oracles import reference_fitting_split, reference_single_eigenvalue

P = 32003


def a3():
    return qr.Quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")])


def kronecker():
    return qr.Quiver(["1", "2"], [("b", "2", "1"), ("c", "2", "1")])


def base_module(quiver, p, dims, maps):
    """The A-module with this dimension vector and these arrow maps."""
    return rp.LayeredModule(rp.build_replicated(quiver, 0, p), [(dims, maps)])


def _record_verdicts(monkeypatch):
    """Counter of the verdict kinds of every Fitting split made by the
    module machinery, the catalog and the window census while monkeypatch
    is active."""
    seen = collections.Counter()

    def recording_split(m):
        labelled = sp.fitting_split_labelled(m)
        seen.update(kind for _, kind in labelled)
        return [piece for piece, _ in labelled]

    for module in (rp, ar, w):
        monkeypatch.setattr(module, "fitting_split", recording_split)
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
    # one verdict per registered catalog entry; every entry is a brick
    cat = ar.indec_catalog(rp.build_replicated(a3(), 1, P))
    assert len(cat.modules) == 18
    assert dict(verdicts) == {sp.BRICK: 18}


def test_certified_through_residue_field_branch():
    # Kronecker (2,2) regular at a degree-2 point of P^1(F_3): End = F_9
    comp = ef.fmat([[0, 1], [1, 1]], 3)  # companion of x^2 - x - 1, irreducible over F_3
    m = base_module(kronecker(), 3, [2, 2], [ef.eye(2), comp])
    ends = qr.hom_basis(m, m)
    assert len(ends) == 2
    # some endomorphism is not scalar + nilpotent, so End/rad is not F_3
    # and the certificate cannot have taken its e = 1 branch
    assert any(sp.single_eigenvalue(f.blocks, 3) is None for f in ends)
    [(piece, kind)] = sp.fitting_split_labelled(m)
    assert kind == sp.CERTIFIED_LOCAL
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
    labelled = sp.fitting_split_labelled(s2)
    assert [(x.component_dims(), kind) for x, kind in labelled] == [([1, 0], sp.BRICK)] * 2


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
