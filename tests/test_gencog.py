import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from oracles import (reference_base_indecomposables, reference_end_algebra_gldim,
                     reference_mdim_id)
from replalg import artrans as ar
from replalg import endalg
from replalg import exactfield as ef
from replalg import gencog as gc
from replalg import quiverrep as qr
from replalg import replicated as rp
from replalg import verify as vf
from replalg import windows as w
from replalg.endalg import end_algebra_gldim
from replalg.errors import AnomalyError, ContractError, InputError, OracleUnavailable
from replalg.gencog import GenCog, MDimEngine, WitnessNotFound

P = 32003
QUIVERS = Path(__file__).resolve().parent.parent / "quivers"


def a2():
    return qr.Quiver(["1", "2"], [("a", "2", "1")])


def a3():
    return qr.Quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")])


def kronecker():
    return qr.Quiver(["1", "2"], [("b", "2", "1"), ("c", "2", "1")])


@pytest.fixture(scope="module")
def a2_ctx():
    alg = rp.build_replicated(a2(), 1, P)
    cat = ar.indec_catalog(alg)
    return alg, cat, MDimEngine.for_catalog(cat)


def test_gencog_requires_all_proj_inj(a2_ctx):
    alg, cat, engine = a2_ctx
    required = engine.required_ids()
    with pytest.raises(ContractError):
        GenCog(engine, set(list(required)[:-1]))
    full = GenCog(engine, required)
    # 4 projectives + 4 injectives with inj(i,0) = proj(i,1) shared twice
    assert len(full.summands) == 6


def test_approx_of_summand_is_identity(a2_ctx):
    alg, cat, engine = a2_ctx
    mods = list(cat.modules)
    x = cat.modules[0]
    res = gc.min_right_approx(mods, x)
    assert res.surjective
    assert res.kernel.is_zero()
    assert sum(res.multiplicities) == 1


def test_approx_invariants_hold(a2_ctx):
    alg, cat, engine = a2_ctx
    summands = [cat.modules[i] for i in sorted(engine.required_ids())]
    for x in cat.modules:
        res = gc.min_right_approx(summands, x)
        assert res.surjective
        assert gc.verify_approximation(summands, x, res)


def test_thm32_chain_identity_a2_d4(a2_ctx):
    # Omega_M^i(Z) = tau^i Z for the d = 4 construction
    alg, cat, engine = a2_ctx
    gencog, z = gc.construct_thm32(cat, 4, engine=engine)
    assert len(gencog.summands) == 7
    assert cat.modules[z].dim_label() == "0,0|1,0"
    state = (z,)
    cur = z
    for i in range(1, 3):
        nxt = []
        for idx in state:
            nxt.extend(engine.omega_ids(idx, gencog.summands))
        state = tuple(sorted(nxt))
        ti = cat.tau_map[cur]
        cur = ti
        if i <= 2:
            assert state == (ti,)
    assert gc.gldim_end(gencog).value == 4


def test_thm32_witness_not_found(a2_ctx):
    alg, cat, engine = a2_ctx
    with pytest.raises(WitnessNotFound) as exc:
        gc.construct_thm32(cat, 5, engine=engine)
    assert exc.value.max_cardinality == 4


def test_thm32_d2_whole_catalog(a2_ctx):
    alg, cat, engine = a2_ctx
    gencog, _ = gc.construct_thm32(cat, 2, engine=engine)
    assert gencog.summands == frozenset(range(len(cat)))
    assert gc.gldim_end(gencog).value == 2


def test_construct_E1_a2(a2_ctx):
    alg, cat, engine = a2_ctx
    e1 = gc.construct_E(alg, 1, engine=engine)
    assert len(e1.summands) == 8
    # the excluded module is the layer-0 simple S(2,0)
    missing = set(range(len(cat))) - e1.summands
    assert len(missing) == 1
    assert cat.modules[missing.pop()].dim_label() == "0,1|0,0"
    res = gc.gldim_end(e1)
    assert res.value == 3
    assert end_algebra_gldim(e1) == 3


def test_construct_E_range_checked(a2_ctx):
    alg, _, engine = a2_ctx
    with pytest.raises(InputError, match="outside"):
        gc.construct_E(alg, 2, engine=engine)  # t = 2, so i <= 1


def test_gldim_end_additive_generator(a2_ctx):
    alg, cat, engine = a2_ctx
    addgen = GenCog(engine, set(range(len(cat))))
    res = gc.gldim_end(addgen)
    assert res.value == 2
    assert end_algebra_gldim(addgen) == 2


def test_gldim_end_of_an_additive_generator_calls_no_oracle(monkeypatch):
    # every M-dimension of an additive generator is 0, so gldim_end gives 2
    # (Auslander: >= 2 off the semisimple case) or 0 (semisimple A^(0) of
    # the one-vertex quiver) with the oracle patched to fail, and the
    # oracle, run first, gives the same value
    cases = [(a2(), m) for m in (1, 2, 3)] + [(a3(), m) for m in (1, 2)]
    cases += [(qr.Quiver.load(QUIVERS / "a2r.q"), 3), (qr.Quiver(["1"], []), 0)]
    addgens = []
    for quiver, m in cases:
        cat = ar.indec_catalog(rp.build_replicated(quiver, m, P))
        addgen = GenCog(MDimEngine.for_catalog(cat), set(range(len(cat))))
        addgens.append((addgen, end_algebra_gldim(addgen)))
    assert [want for _, want in addgens] == [2] * 6 + [0]

    def fail(*args, **kwargs):
        raise AssertionError("gldim_end called the end-algebra oracle")

    for name in ("end_algebra_gldim", "EndAlgebra"):
        monkeypatch.setattr(endalg, name, fail)
    for addgen, want in addgens:
        assert gc.gldim_end(addgen).value == want


def _oracle_raising(exc):
    def oracle(*args, **kwargs):
        raise exc
    return oracle


def test_gldim_end_propagates_oracle_anomaly(a2_ctx, monkeypatch):
    # gldim_end reads no oracle, but suite_prop41 cross-checks its values
    # with one; an anomaly there, or an indeterminate M-dimension inside
    # gldim_end, must never turn into a value
    monkeypatch.setattr(vf, "end_algebra_gldim",
                        _oracle_raising(AnomalyError("oracle anomaly")))
    with pytest.raises(AnomalyError, match="oracle anomaly"):
        vf.suite_prop41(a2(), m=1, p=P)
    alg, cat, engine = a2_ctx
    addgen = GenCog(engine, set(range(len(cat))))
    monkeypatch.setattr(MDimEngine, "mdim", lambda self, start, summands: (None, None))
    with pytest.raises(AnomalyError, match="indeterminate"):
        gc.gldim_end(addgen)


def test_gldim_end_without_oracle_is_not_exact(a2_ctx, monkeypatch):
    # with the oracle unavailable gldim_end still gives 2 on the additive
    # generator (exact by Auslander's bound); what is not exact is the
    # cross-check: suite_prop41 records the oracle as unavailable, never
    # as a value that agrees
    unavailable = _oracle_raising(OracleUnavailable("cap"))
    monkeypatch.setattr(endalg, "end_algebra_gldim", unavailable)
    monkeypatch.setattr(vf, "end_algebra_gldim", unavailable)
    alg, cat, engine = a2_ctx
    assert gc.gldim_end(GenCog(engine, set(range(len(cat))))).value == 2
    checks = vf.suite_prop41(a2(), m=1, p=P)["checks"]
    assert checks and all(c["oracle"] == "cap exceeded" for c in checks)
    assert all(c["gldim_end"] == c["want"] and c["ok"] for c in checks)


def test_end_algebra_oracle_matches_gldim_of_algebra():
    # End of the sum of all indecomposable projectives is the algebra
    # itself, so the oracle recomputes gl.dim by a fully independent route
    # (including the values 5 and 6 at m = 3, 4 for the A_2 quiver)
    for quiver, m, want in ((a2(), 1, 2), (a2(), 2, 3), (a2(), 3, 5), (a2(), 4, 6)):
        alg = rp.build_replicated(quiver, m, P)
        projs = [alg.proj(i, k) for k in range(m + 1)
                 for i in range(quiver.n_vertices)]
        assert end_algebra_gldim(projs) == want
        assert rp.global_dimension(alg) == want


def test_global_dimension_is_computed_once_per_algebra(monkeypatch):
    # construct_E reads gl.dim, and so does each u_stratum it takes: the
    # pd of each of the 9 simples of A_3^(2) is computed once in all
    calls = []
    real_pd = rp.pd
    monkeypatch.setattr(rp, "pd", lambda m: calls.append(m) or real_pd(m))
    alg = rp.ReplicatedAlgebra(a3(), 2, P)
    first = gc.construct_E(alg, 1, MDimEngine.windowed(alg)).summands
    assert gc.construct_E(alg, 1, MDimEngine.windowed(alg)).summands == first
    assert len(calls) == 9
    assert rp.global_dimension(alg) == 4 and len(calls) == 9


def test_end_algebra_oracle_pd_of_each_simple():
    # End((+) proj(i,k)) = A^(m): the simple at summand proj(i,k) has the
    # projective dimension of S(i,k), e.g. [0,1,1,2,3,3,4,5,5,6] for A_2, m=4
    for quiver, ms in ((a2(), (1, 2, 3, 4)), (a3(), (1, 2))):
        for m in ms:
            alg = rp.build_replicated(quiver, m, P)
            keys = [(i, k) for k in range(m + 1) for i in range(quiver.n_vertices)]
            end = endalg.EndAlgebra([alg.proj(i, k) for i, k in keys])
            assert ([end.top_pd([s]) for s in range(len(keys))]
                    == [rp.pd(alg.simple(i, k)) for i, k in keys])


def _kron_p3(b, c):
    """A module over the Kronecker quiver at p = 3 (m = 0) with arrow maps
    b and c."""
    alg = rp.build_replicated(qr.Quiver.load(QUIVERS / "kron.q"), 0, 3)
    dim = len(b)
    return rp.LayeredModule(alg, [([dim, dim], [ef.fmat(b, 3), ef.fmat(c, 3)])])


def test_end_algebra_oracle_on_a_tube_and_a_larger_residue_field():
    # R_1, R_2 are the regulars of regular length 1 and 2 in the tube where
    # b is invertible and c nilpotent.  End R_2 = F_3[t]/t^2, and
    # End(R_1 + R_2) is the Auslander algebra of F_3[t]/t^2, of global
    # dimension 2 (Auslander, "Representation dimension of Artin algebras",
    # 1971).  F is the regular at the point x^2 + 1 of degree 2: End F = F_9.
    r1 = _kron_p3([[1]], [[0]])
    r2 = _kron_p3([[1, 0], [0, 1]], [[0, 1], [0, 0]])
    f = _kron_p3([[1, 0], [0, 1]], [[0, 1], [2, 0]])
    assert end_algebra_gldim([r1, r2]) == 2
    # gl.dim F_3[t]/t^2 is infinite: the simple is its own syzygy
    with pytest.raises(OracleUnavailable):
        end_algebra_gldim([r2])
    # residue fields larger than F_p are outside the oracle
    with pytest.raises(AnomalyError):
        end_algebra_gldim([f])


def test_end_algebra_oracle_cap(monkeypatch):
    alg = rp.build_replicated(a2(), 1, P)
    projs = [alg.proj(i, k) for k in range(2) for i in range(2)]
    monkeypatch.setattr(endalg, "ORACLE_CAP", 1)
    with pytest.raises(OracleUnavailable, match="dim End = 9 > 1"):
        end_algebra_gldim(projs)


def _oracle_outcome(fn, summands):
    """The oracle's value, or the type of the exception it raises."""
    try:
        return fn(summands)
    except Exception as exc:
        return type(exc)


def _oracle_inputs():
    """(label, summands): End(+ projectives) of A_2^(m), m = 1..4; the
    additive generator and 12 random generator-cogenerators of A_3 at
    m = 2 and of a2r at m = 3; the Kronecker p=3 sums of the tube test."""
    for m in (1, 2, 3, 4):
        alg = rp.build_replicated(a2(), m, P)
        yield f"a2 m={m} projectives", [alg.proj(i, k) for k in range(m + 1) for i in range(2)]
    from replalg.verify import random_gencogs
    for name, m in (("a3", 2), ("a2r", 3)):
        quiver = qr.Quiver.load(QUIVERS / f"{name}.q")
        cat = ar.indec_catalog(rp.build_replicated(quiver, m, P))
        engine = MDimEngine.for_catalog(cat)
        gencogs = [GenCog(engine, set(range(len(cat))))]
        gencogs += random_gencogs(range(len(cat)), engine, 12, seed=1)
        for j, gencog in enumerate(gencogs):
            yield f"{name} m={m} gencog {j}", gencog.modules()
    r1 = _kron_p3([[1]], [[0]])
    r2 = _kron_p3([[1, 0], [0, 1]], [[0, 1], [0, 0]])
    f = _kron_p3([[1, 0], [0, 1]], [[0, 1], [2, 0]])
    yield "kronecker R1+R2", [r1, r2]
    yield "kronecker R2", [r2]
    yield "kronecker F", [f]


def test_end_algebra_oracle_matches_the_reference():
    # one resolution of E/rad E against one resolution per simple
    outcomes = []
    for label, summands in _oracle_inputs():
        got = _oracle_outcome(end_algebra_gldim, summands)
        assert got == _oracle_outcome(reference_end_algebra_gldim, summands), label
        outcomes.append(got)
    assert outcomes[:4] == [2, 3, 5, 6]
    assert outcomes[-3:] == [2, OracleUnavailable, AnomalyError]
    assert len(outcomes) == 4 + 2 * 13 + 3


def test_end_algebra_oracle_resolves_the_top_once(monkeypatch):
    # gl.dim End = pd(E/rad E): the A_3^(2) additive generator takes
    # gl.dim = 2 syzygy steps, not one resolution per simple (50 steps)
    cat = ar.indec_catalog(rp.build_replicated(a3(), 2, P))
    calls = []
    real = endalg.EndAlgebra.syzygy
    monkeypatch.setattr(endalg.EndAlgebra, "syzygy",
                        lambda self, *args: calls.append(args) or real(self, *args))
    assert end_algebra_gldim(list(cat.modules)) == 2
    assert len(calls) == 2


def test_end_algebra_oracle_refuses_no_summands():
    with pytest.raises(InputError):
        end_algebra_gldim([])


def test_oracle_agrees_with_lemma_route_on_random_gencogs(a2_ctx):
    from replalg.verify import random_gencogs
    alg, cat, engine = a2_ctx
    gencogs = random_gencogs(range(len(cat)), engine, 12, seed=5)
    assert len(gencogs) >= 3
    for gencog in gencogs:
        lemma = gc.gldim_end(gencog).value
        oracle = end_algebra_gldim(gencog)
        assert lemma == oracle


def test_mdim_not_monotone_counterexample(a2_ctx):
    # M-dimension is NOT monotone under enlarging M: with M = proj + inj,
    # M-dim S(1,1) = 1 (its cover's kernel is the projective P(2)@0), but
    # adjoining W = (0,1|1,0) makes the right-almost-split map W -> S(1,1)
    # the minimal approximation, whose kernel tau S(1,1) = S(2)@0 lies
    # outside add M, so the M-dimension rises to 2
    alg, cat, engine = a2_ctx
    base = engine.required_ids()
    w_id = next(i for i in range(len(cat)) if cat.modules[i].dim_label() == "0,1|1,0")
    s11 = next(i for i in range(len(cat)) if cat.modules[i].dim_label() == "0,0|1,0")
    small_val = engine.mdim((s11,), frozenset(base))[0]
    big_val = engine.mdim((s11,), frozenset(base | {w_id}))[0]
    assert small_val == 1
    assert big_val == 2


def test_pi_part_of_approximation_is_projective_cover(a2_ctx):
    # for M = (layer-0 modules) + (all projective-injectives) and X outside
    # mod A, the projective-injective part of the minimal right
    # approximation is exactly the projective cover of X
    alg, cat, engine = a2_ctx
    pi_dims = {tuple(alg.proj(i, k).component_dims())
               for k in range(1, alg.m + 1) for i in range(alg.quiver.n_vertices)}
    ids = sorted(i for i in range(len(cat))
                 if cat.layer0(i) or i in cat.projective & cat.injective)
    summands = [cat.modules[i] for i in ids]
    checked = 0
    for x_id in range(len(cat)):
        x = cat.modules[x_id]
        if x.is_layer_module(0):
            continue
        res = gc.min_right_approx(summands, x)
        pi_mult = {}
        for pos, sid in enumerate(ids):
            mult = res.multiplicities[pos]
            if mult and tuple(cat.modules[sid].component_dims()) in pi_dims:
                pi_mult[sid] = mult
        _, _, cover_summands = rp.proj_cover(x)
        cover_mult = {}
        for (i, k) in cover_summands:
            sid = cat.find(alg.proj(i, k))
            cover_mult[sid] = cover_mult.get(sid, 0) + 1
        assert pi_mult == cover_mult, cat.label(x_id)
        checked += 1
    assert checked >= 4


def test_exact_walk_is_not_capped(monkeypatch):
    # over a complete catalog each level is a set of catalog ids, so the
    # walk empties or repeats; the window's step cap must not make a walk
    # longer than it indeterminate (A_2^(3), d = 8: the largest M-dimension is 6)
    monkeypatch.setattr(gc, "MDIM_MAX_STEPS", 3)
    _, cat, engine = vf.catalog_context(a2(), 3, P)
    gencog, _ = gc.construct_thm32(cat, 8, engine=engine)
    assert gc.gldim_end(gencog).value == 8


def test_windowed_walk_stops_at_the_step_cap(monkeypatch):
    # Kronecker, p = 3, Lemma 4.7 with d = 5: M-dim N = 3 takes three steps
    alg = rp.build_replicated(kronecker(), 1, 3)
    gencog, n, _ = gc.construct_lem47(alg, 5, MDimEngine.windowed(alg))
    assert gc.m_dimension(gencog, n) == (3, None)
    monkeypatch.setattr(gc, "MDIM_MAX_STEPS", 2)
    gencog, n, _ = gc.construct_lem47(alg, 5, MDimEngine.windowed(alg))
    assert gc.m_dimension(gencog, n) == (None, None)


def test_mdim_indeterminate_on_window_exit(monkeypatch):
    # a dimension cap below the kernel size must produce an indeterminate
    # verdict, never a guess
    monkeypatch.setattr(gc, "MDIM_DIM_CAP", 2)
    alg = rp.build_replicated(kronecker(), 1, P)
    engine = MDimEngine.windowed(alg)
    gencog = GenCog(engine, engine.required_ids())
    z = qr.tau_inverse(qr.tau_inverse(qr.projective(alg.quiver, P, "1")))
    assert z.component_dims() == [5, 4]  # its cover kernel P(1)^3 exceeds the cap
    assert gc.m_dimension(gencog, rp.rep_at_layer(alg, z, 0)) == (None, None)


def test_lem48_kronecker():
    alg = rp.build_replicated(kronecker(), 1, P)
    engine = MDimEngine.windowed(alg)
    gencog, n0, nprime = gc.construct_lem48(alg, engine=engine)
    assert n0.dim_label() == "1,1|0,0"
    assert nprime.component_dims() == [2, 2]
    summands = [engine.registry.modules[i] for i in sorted(gencog.summands)]
    res = gc.min_right_approx(summands, n0)
    assert rp.is_iso_layered(res.kernel, n0)
    value, cycle = gc.m_dimension(gencog, n0)
    assert value == math.inf
    assert cycle is not None


def test_lem47_kronecker_d5():
    alg = rp.build_replicated(kronecker(), 1, P)
    gencog, n, z = gc.construct_lem47(alg, 5, MDimEngine.windowed(alg))
    assert z.component_dims() == [3, 2]
    labels = sorted(gencog.engine.registry.modules[i].dim_label()
                    for i in gencog.summands)
    # M = A + DA_1 + P (the Y_j = P(2) summands merge into A)
    assert labels == ["0,0|0,1", "0,0|1,2", "0,1|2,1", "1,0|0,0", "1,2|1,0", "2,1|0,0"]
    assert gc.m_dimension(gencog, n)[0] == 3  # = d - 2


def test_lem47_requires_large_d():
    alg = rp.build_replicated(kronecker(), 1, P)
    with pytest.raises(InputError, match="d >= 2m\\+3 = 5, got 4"):
        gc.construct_lem47(alg, 4, MDimEngine.windowed(alg))


def test_lem47_rejects_rep_finite_base():
    alg = rp.build_replicated(a2(), 1, P)
    with pytest.raises(ContractError):
        gc.construct_lem47(alg, 5, MDimEngine.windowed(alg))


@pytest.mark.parametrize("path", [QUIVERS / "d4.q", QUIVERS.parent / "bench" / "quivers" / "e6.q"],
                         ids=lambda path: path.name)
def test_lemmas_47_and_48_reject_a_dynkin_base_at_once(path, monkeypatch):
    # both lemmas need a representation-infinite A; on D_4, lem47 used to
    # report a counterexample, and on E_6 lem48 searched for minutes
    def no_search(*args):
        raise AssertionError("searched for a brick over a Dynkin base")

    monkeypatch.setattr(gc, "_find_self_extending_brick", no_search)
    alg = rp.build_replicated(qr.Quiver.load(path), 1, P)
    with pytest.raises(ContractError, match="lem47 needs a representation-infinite"):
        gc.construct_lem47(alg, 5, MDimEngine.windowed(alg))
    with pytest.raises(ContractError, match="lem48 needs a representation-infinite"):
        gc.construct_lem48(alg, MDimEngine.windowed(alg))


def test_base_census_kronecker_counts():
    # per-vertex bound 3 over F_3: 3 preprojectives, 3 preinjectives,
    # 4 + 7 + 12 regulars of dims (1,1), (2,2), (3,3)
    base = w.base_indecomposables(kronecker(), 3, 3)
    assert len(base) == 29
    counts = Counter(m.dim_table()[0] for m in base)
    assert counts[(1, 1)] == 4 and counts[(2, 2)] == 7 and counts[(3, 3)] == 12


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("p, bound", [(2, 3), (3, 3), (5, 2), (7, 2), (32003, 2)])
def test_base_census_matches_all_classes_reference(p, bound):
    # lambda*xi and xi have isomorphic middle terms, so one class per line
    # finds the same modules in the same order; at (7, 2) and (32003, 2)
    # classes are drawn at random and multiples of realized ones skipped
    got = w.base_indecomposables(kronecker(), p, bound)
    want = reference_base_indecomposables(kronecker(), p, bound)
    assert [m.to_json() for m in got] == [m.to_json() for m in want]


def test_base_census_realizes_one_class_per_line(monkeypatch):
    calls = counting(monkeypatch, qr, "realize_extension_class")
    reference_base_indecomposables(kronecker(), 3, 3)
    assert len(calls) == 468
    calls.clear()
    w.base_indecomposables(kronecker(), 3, 3)
    assert len(calls) == 234


def test_sampled_census_realizes_each_line_once(monkeypatch):
    # at p = 32003 the drawn vectors of a one-dimensional Ext^1 all lie on
    # the line of the basis class
    calls = counting(monkeypatch, qr, "realize_extension_class")
    reference_base_indecomposables(kronecker(), P, 2)
    assert len(calls) == 1004
    calls.clear()
    census = w.base_indecomposables(kronecker(), P, 2)
    assert len(calls) == 164
    position = {id(m): k for k, m in enumerate(census)}
    lines = []
    for m, n, coeffs in calls:
        lead = pow(int(next(c for c in reversed(coeffs) if c)), P - 2, P)
        lines.append((position[id(m)], position[id(n)],
                      tuple(int(c) * lead % P for c in coeffs)))
    assert len(set(lines)) == len(lines)
    assert len({(i, j) for i, j, _ in lines}) == 111


@pytest.mark.parametrize("bound", [0, -1])
def test_census_rejects_an_empty_window(bound):
    with pytest.raises(InputError, match="window bound"):
        w.base_indecomposables(kronecker(), 3, bound)
    with pytest.raises(InputError, match="window bound"):
        w.census_modules(rp.build_replicated(kronecker(), 1, 3), bound)


def test_census_rejects_a_negative_seed():
    with pytest.raises(InputError, match="seed"):
        w.census_modules(rp.build_replicated(kronecker(), 1, 3), 2, seed=-1)


def test_census_surfaces_a_failed_restriction(monkeypatch):
    def fail(module, algebra):
        raise InputError("relation violated")

    monkeypatch.setattr(rp, "convert_window", fail)
    with pytest.raises(AnomalyError, match="relation violated"):
        w.census_modules(rp.build_replicated(kronecker(), 1, 3), 2)


def test_census_checks_its_window_algebra(monkeypatch):
    # every algebra is checked once when first built, the enlarged window
    # of the census included, so no caller is handed an unchecked one
    monkeypatch.setattr(rp, "_ALGEBRAS", {})
    checked = counting(monkeypatch, rp.ReplicatedAlgebra, "check_associativity")
    w.census_modules(rp.build_replicated(kronecker(), 1, 3), 2)
    assert Counter(alg.m for (alg,) in checked)[4] == 1


def test_finite_gldim_end_steps_on_level_sets(a2_ctx, monkeypatch):
    # one walk from all catalog ids per M; each of its steps is one
    # omega_step on a level set: sorted distinct ids outside add M (the
    # lem45 and lem47 chains step on multiset states); over the A_2 m=1
    # catalog every value is finite
    alg, cat, engine = a2_ctx
    steps = counting(monkeypatch, MDimEngine, "omega_step")
    walks = counting(monkeypatch, MDimEngine, "mdim")
    base = engine.required_ids()
    rest = sorted(set(range(len(cat))) - base)
    runs = 0
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            before = len(steps)
            assert gc.gldim_end(GenCog(engine, base | set(extra))).value < math.inf
            for _, state, scope in steps[before:]:
                assert list(state) == sorted(set(state)) and not set(state) & scope
            runs += 1
    assert runs == 2 ** len(rest) > 1 and len(walks) == runs and steps


@pytest.mark.parametrize("name", ["a3", "d4"])
def test_level_set_walk_matches_the_recursive_walk(name):
    # every thm32 M and 20 seeded random generator-cogenerators of the m=2
    # catalog: the walk from each id outside M gives the value of the former
    # recursive walk, and gldim_end is 2 + the largest of them
    from replalg.verify import catalog_context, random_gencogs
    _, cat, engine = catalog_context(qr.Quiver.load(QUIVERS / f"{name}.q"), 2, P)
    cap = ar.tau_orbits(cat).max_cardinality()
    gencogs = [gc.construct_thm32(cat, d, engine=engine)[0] for d in range(2, cap + 1)]
    gencogs += random_gencogs(range(len(cat)), engine, 20, seed=ef.DEFAULT_SEED)
    assert len(gencogs) > cap
    for gencog in gencogs:
        values = []
        for x_id in sorted(set(range(len(cat))) - gencog.summands):
            want, _ = reference_mdim_id(engine, x_id, gencog.summands)
            assert engine.mdim((x_id,), gencog.summands) == (want, None), x_id
            values.append(want)
        assert gc.gldim_end(gencog).value == 2 + max(values, default=0)


@pytest.mark.parametrize("p", [3, P])
def test_level_set_walk_certifies_lem48(p):
    # both walks find M-dim N = inf for the Kronecker self-extension
    # construction; the level-set walk's revisit is its certificate
    alg = rp.build_replicated(kronecker(), 1, p)
    engine = MDimEngine.windowed(alg)
    gencog, n0, _ = gc.construct_lem48(alg, engine=engine)
    [pid] = sorted(set(engine.state(n0)) - gencog.summands)
    assert reference_mdim_id(engine, pid, gencog.summands)[0] == math.inf
    value, cycle = gc.m_dimension(gencog, n0)
    assert value == math.inf and cycle is not None and cycle[0] == pid


def test_engine_computes_each_rad_end_once(monkeypatch):
    # an algebra outside the build_replicated memo, so that no module of the
    # catalog has its rad End cached yet; counted per module object
    cat = ar.indec_catalog(rp.ReplicatedAlgebra(a3(), 1, P))
    engine = MDimEngine(cat.algebra, rp.IsoRegistry(cat.modules), catalog=cat)
    calls = counting(monkeypatch, rp, "rad_end_blocks")
    assert gc.gldim_end(GenCog(engine, engine.required_ids())).value == 4
    per_object = Counter(id(m) for (m,) in calls)
    ids = {engine.registry.identity_index(m) for (m,) in calls}
    assert ids and None not in ids and max(per_object.values()) == 1


def _end_computations(monkeypatch):
    """Counter of hom_layered(M, M) calls per module object while
    monkeypatch is active; the modules are kept alive so ids stay unique."""
    seen, keep = Counter(), []
    original = rp.hom_layered

    def wrapper(m, n):
        if m is n:
            seen[id(m)] += 1
            keep.append(m)
        return original(m, n)

    monkeypatch.setattr(rp, "hom_layered", wrapper)
    return seen


def test_end_is_computed_once_per_module_over_a_catalog(monkeypatch):
    seen = _end_computations(monkeypatch)
    cat = ar.indec_catalog(rp.ReplicatedAlgebra(a3(), 2, P))
    assert len(cat) == 30
    ar.ar_quiver(cat)
    engine = MDimEngine.for_catalog(cat)
    assert gc.gldim_end(GenCog(engine, engine.required_ids())).value == 5
    assert len(seen) >= len(cat) and max(seen.values()) == 1


def test_end_is_computed_once_per_module_in_a_window(monkeypatch):
    seen = _end_computations(monkeypatch)
    alg = rp.ReplicatedAlgebra(kronecker(), 1, 3)
    engine = MDimEngine.windowed(alg)
    gencog, _, _ = gc.construct_lem47(alg, 5, engine=engine)
    gc.gldim_end_windowed(gencog, w.census_modules(alg, 2))
    assert seen and max(seen.values()) == 1


def test_census_respects_bound():
    alg = rp.build_replicated(kronecker(), 1, 3)
    census = w.census_modules(alg, 2)
    assert census
    for m in census:
        assert all(d <= 2 for d in m.component_dims())


def test_gencog_json(a2_ctx):
    alg, cat, engine = a2_ctx
    gencog = GenCog(engine, engine.required_ids())
    data = gencog.to_json()
    assert data["fingerprint"] == alg.fingerprint()
    assert len(data["summands"]) == len(gencog.summands)


def test_engine_shares_the_catalog_registry_and_hom_cache(a2_ctx):
    alg, cat, engine = a2_ctx
    assert MDimEngine.for_catalog(cat).registry is cat.registry
    hom = engine.hom_fn()
    for i in range(len(cat)):
        for j in range(len(cat)):
            assert hom(cat.modules[i], cat.modules[j]) is cat.hom_basis(i, j)


def test_state_is_the_sorted_krull_schmidt_ids(a2_ctx):
    alg, cat, engine = a2_ctx
    x, y = 4, 1
    before = len(engine.registry)
    total, _, _ = rp.LayeredModule.direct_sum([cat.modules[x], cat.modules[x], cat.modules[y]])
    assert engine.state(total) == tuple(sorted((x, x, y)))
    assert engine.state(cat.modules[x]) == (x,)
    assert engine.state(alg.zero_module()) == ()
    assert len(engine.registry) == before
