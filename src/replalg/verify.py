"""Named verification suites over catalogs and windows.

Each suite runs a batch of checks and returns a report dict with a
verdict and, on failure, machine-readable counterexample payloads
sufficient to replay the failing check.  Reports are deterministic: the
same inputs give the same dict, and no report carries a timing (the CLI
times the whole command).
"""

import inspect
import math

import numpy as np

from . import artrans as ar
from . import exactfield as ef
from . import gencog as gc
from . import quiverrep as qr
from . import replicated as rp
from . import windows as w
from .endalg import end_algebra_gldim
from .errors import InputError, OracleUnavailable
from .gencog import GenCog, MDimEngine, WitnessNotFound

SUITES = ("thm1", "thm32_all_d", "prop41", "lem22", "lem23_2", "lem31_random",
          "lem45", "cor42", "lem47", "lem48")

_CONTEXTS = {}


def catalog_context(quiver, m, p):
    """(algebra, catalog, engine) for a representation-finite instance,
    memoized per (quiver, m, p)."""
    key = (quiver.to_text(), m, p)
    if key not in _CONTEXTS:
        algebra = rp.build_replicated(quiver, m, p)
        catalog = ar.indec_catalog(algebra)
        engine = MDimEngine.for_catalog(catalog)
        _CONTEXTS[key] = (algebra, catalog, engine)
    return _CONTEXTS[key]


def random_gencogs(pool, engine, samples, seed):
    """Seeded random generator-cogenerators: all forced summands plus a
    random subset of the other ids in pool; returns the distinct GenCogs."""
    forced = engine.required_ids()
    free = sorted(set(pool) - forced)
    rng = np.random.default_rng(seed)
    out = []
    seen = set()
    for _ in range(samples):
        take = frozenset(i for i in free if rng.integers(0, 2))
        ids = frozenset(forced | take)
        if ids in seen:
            continue
        seen.add(ids)
        out.append(GenCog(engine, ids))
    return out


def _report(suite, params, checks, counterexamples):
    return {
        "suite": suite,
        "params": params,
        "verdict": "pass" if not counterexamples else "fail",
        "checks": checks,
        "counterexamples": counterexamples,
    }


def suite_thm1(quiver, m=1, p=ef.DEFAULT_PRIME, seed=ef.DEFAULT_SEED, samples=200):
    """Both directions of the orbit-cardinality theorem on a
    representation-finite catalog, plus a randomized upper-bound sweep."""
    _, catalog, engine = catalog_context(quiver, m, p)
    table = ar.tau_orbits(catalog)
    cap = table.max_cardinality()
    checks, bad = [], []
    achievable = []
    for d in range(2, cap + 1):
        gencog, z = gc.construct_thm32(catalog, d, engine=engine)
        got = gc.gldim_end(gencog).value
        achievable.append(got)
        ok = got == d
        checks.append({"check": f"construct d={d}", "witness": catalog.label(z),
                       "gldim_end": got, "ok": ok})
        if not ok:
            bad.append({"d": d, "got": got, "summands": sorted(gencog.summands)})
    try:
        gc.construct_thm32(catalog, cap + 1, engine=engine)
        bad.append({"d": cap + 1, "error": "construction unexpectedly succeeded"})
        checks.append({"check": f"d={cap + 1} must fail", "ok": False})
    except WitnessNotFound as exc:
        checks.append({"check": f"d={cap + 1} must fail", "ok": True,
                       "max_cardinality": exc.max_cardinality})
    over = []
    for gencog in random_gencogs(range(len(catalog)), engine, samples, seed):
        got = gc.gldim_end(gencog).value
        if got > cap:
            over.append({"summands": sorted(gencog.summands), "gldim_end": got})
    checks.append({"check": f"{samples} random generator-cogenerators <= {cap}",
                   "violations": len(over), "ok": not over})
    bad.extend(over)
    params = {"quiver": quiver.to_text(), "m": m, "p": p, "seed": seed,
              "samples": samples, "max_orbit": cap,
              "achievable": sorted(set(achievable))}
    return _report("thm1", params, checks, bad)


def suite_thm32_all_d(quiver, m=1, p=ef.DEFAULT_PRIME):
    _, catalog, engine = catalog_context(quiver, m, p)
    cap = ar.tau_orbits(catalog).max_cardinality()
    checks, bad = [], []
    for d in range(2, cap + 1):
        gencog, z = gc.construct_thm32(catalog, d, engine=engine)
        got = gc.gldim_end(gencog).value
        checks.append({"check": f"d={d}", "gldim_end": got, "ok": got == d})
        if got != d:
            bad.append({"d": d, "got": got})
    return _report("thm32_all_d", {"quiver": quiver.to_text(), "m": m, "p": p,
                                   "max_orbit": cap}, checks, bad)


def suite_prop41(quiver, m=1, p=ef.DEFAULT_PRIME, seed=ef.DEFAULT_SEED, bound=3):
    """gl.dim End(E_i) = i + 2 for i = 1..t-1; exact over a catalog when the
    base quiver is Dynkin (Gabriel), lower-bound-plus-window otherwise."""
    algebra = rp.build_replicated(quiver, m, p)
    t = rp.global_dimension(algebra)
    mode = "exact" if qr.is_dynkin(quiver) else "windowed"
    checks, bad = [], []
    if mode == "exact":
        _, catalog, engine = catalog_context(quiver, m, p)
        for i in range(1, t):
            ei = gc.construct_E(algebra, i, engine=engine)
            got = gc.gldim_end(ei).value
            entry = {"check": f"E_{i}", "gldim_end": got, "want": i + 2,
                     "ok": got == i + 2}
            try:
                oracle = end_algebra_gldim(ei)
                entry["oracle"] = oracle
                entry["ok"] = entry["ok"] and oracle == i + 2
            except OracleUnavailable:
                entry["oracle"] = "cap exceeded"
            checks.append(entry)
            if not entry["ok"]:
                bad.append(entry)
    else:
        census = w.census_modules(algebra, bound, seed)
        for i in range(1, t):
            engine = MDimEngine.windowed(algebra)
            ei = gc.construct_E(algebra, i, engine=engine)
            res = gc.gldim_end_windowed(ei, census)
            entry = {"check": f"E_{i} windowed", "want": i + 2,
                     "lower": res.lower, "window_checked": res.lower,
                     "window_size": res.window_size,
                     "indeterminate": res.indeterminates,
                     "ok": res.lower == i + 2 and res.indeterminates == 0}
            checks.append(entry)
            if not entry["ok"]:
                bad.append(entry)
    params = {"quiver": quiver.to_text(), "m": m, "p": p, "mode": mode,
              "gldim": t, "bound": bound if mode != "exact" else None}
    return _report("prop41", params, checks, bad)


def suite_lem22(quiver, m=1, p=ef.DEFAULT_PRIME, seed=ef.DEFAULT_SEED):
    """Stable-Hom vanishing for cosyzygy shifts: for X in ind A and i < j,
    every map cosyzygy^i(A) -> cosyzygy^j(X) factors through a
    projective-injective, checked inside the window algebra.  Over a
    Dynkin base (Gabriel) X runs over all of ind A, the catalog of A^(0)
    ("exact"); otherwise over a bound-6 window census of it ("windowed")."""
    window = 2 * m + 1
    walg = rp.build_replicated(quiver, window, p)
    if qr.is_dynkin(quiver):
        mode, base = "exact", catalog_context(quiver, 0, p)[1].modules
    else:
        mode, base = "windowed", w.base_indecomposables(quiver, p, bound=6, seed=seed)
    proj_chains = {}
    for v in range(quiver.n_vertices):
        chain = [rp.rep_at_layer(walg, qr.projective(quiver, p, quiver.vertices[v]), 0)]
        for _ in range(window):
            chain.append(rp.cosyzygy(chain[-1]))
        proj_chains[v] = chain
    checks, bad = [], []
    for x in base:
        chain = [rp.rep_at_layer(walg, x, 0)]
        for _ in range(window):
            chain.append(rp.cosyzygy(chain[-1]))
        for i in range(window):
            for j in range(i + 1, window + 1):
                for v in range(quiver.n_vertices):
                    got = ar.stable_hom_dim(proj_chains[v][i], chain[j])
                    if got != 0:
                        bad.append({"vertex": quiver.vertices[v], "i": i, "j": j,
                                    "x": x.to_json()["layers"][0], "stable_hom": got})
    checks.append({"check": f"all (i < j <= {window}) x {len(base)} modules",
                   "ok": not bad})
    return _report("lem22", {"quiver": quiver.to_text(), "m": m, "p": p,
                             "mode": mode, "window": window}, checks, bad)


def suite_lem23_2(quiver, m=1, p=ef.DEFAULT_PRIME):
    """pd sandwich: pd M = k iff Sigma_{k-1} < M <= Sigma_k, with the
    predecessor relation computed in the K = 2m+1 window catalog."""
    algebra, catalog, _ = catalog_context(quiver, m, p)
    window = 2 * m + 1
    walg = rp.build_replicated(quiver, window, p)
    wcatalog = ar.indec_catalog(walg)
    strata_ids = {}
    max_k = 2 * m + 1
    for k in range(max_k + 1):
        ids = []
        for member in rp.sigma_stratum(algebra, k):
            if member.is_zero():
                continue
            converted = rp.convert_window(member, walg)
            idx = wcatalog.find(converted)
            if idx is None:
                raise InputError(f"Sigma_{k} member missing from the window catalog")
            ids.append(idx)
        strata_ids[k] = set(ids)
    def sandwich(widx, k):
        # Sigma_{k-1} < M: some member precedes M, M precedes none, and M
        # is not itself in Sigma_{k-1}; M <= Sigma_k: M has a successor in
        # Sigma_k (module-to-set readings of the predecessor order)
        below = strata_ids[k - 1]
        lower = (any(wcatalog.leq(s, widx) for s in below)
                 and not any(wcatalog.leq(widx, s) for s in below)
                 and widx not in below)
        upper = any(wcatalog.leq(widx, s) for s in strata_ids[k])
        return lower and upper

    checks, bad = [], []
    for idx, module in enumerate(catalog.modules):
        if idx in catalog.projective:
            continue
        k = rp.pd(module)
        widx = wcatalog.find(rp.convert_window(module, walg))
        # the lemma is an iff: the sandwich must hold at pd and nowhere else
        if not sandwich(widx, k):
            bad.append({"module": catalog.label(idx), "pd": k, "failed_at": k})
        for wrong in range(1, max_k + 1):
            if wrong != k and sandwich(widx, wrong):
                bad.append({"module": catalog.label(idx), "pd": k,
                            "also_holds_at": wrong})
    checks.append({"check": f"sandwich iff pd, over {len(catalog)} modules",
                   "ok": not bad})
    return _report("lem23_2", {"quiver": quiver.to_text(), "m": m, "p": p,
                               "window": window}, checks, bad)


def suite_lem31_random(quiver, m=1, p=ef.DEFAULT_PRIME, seed=ef.DEFAULT_SEED,
                       samples=30):
    """If every X outside add M has tau^(d-1) X = 0, then
    gl.dim End(M) <= d, sampled over random generator-cogenerators."""
    _, catalog, engine = catalog_context(quiver, m, p)
    table = ar.tau_orbits(catalog)
    steps = {}
    for orbit in table.orbits:
        for pos, idx in enumerate(orbit):
            steps[idx] = pos  # tau^pos lands on the projective end
    checks, bad = [], []
    for gencog in random_gencogs(range(len(catalog)), engine, samples, seed + 1):
        outside = [i for i in range(len(catalog)) if i not in gencog.summands]
        d_min = max([steps[i] + 2 for i in outside], default=2)
        got = gc.gldim_end(gencog).value
        if got > d_min:
            bad.append({"summands": sorted(gencog.summands), "d": d_min, "got": got})
    checks.append({"check": f"{samples} sampled generator-cogenerators", "ok": not bad})
    return _report("lem31_random", {"quiver": quiver.to_text(), "m": m, "p": p,
                                    "samples": samples}, checks, bad)


def suite_lem45(quiver, m=1, p=ef.DEFAULT_PRIME, seed=ef.DEFAULT_SEED, samples=16):
    """For generator-cogenerators whose non-injective summands are all
    layer-0 modules, Omega_M^(2m)(X) is a layer-0 module for every
    non-injective indecomposable X."""
    _, catalog, engine = catalog_context(quiver, m, p)
    layer0 = [i for i in range(len(catalog)) if catalog.layer0(i)]
    gencogs = random_gencogs(layer0, engine, samples, seed + 2)
    checks, bad = [], []
    for gencog in gencogs:
        for x in range(len(catalog)):
            if x in catalog.injective:
                continue
            state = (x,)
            for _ in range(2 * m):
                state = engine.omega_step(state, gencog.summands)
            if not all(catalog.layer0(i) for i in state):
                bad.append({"summands": sorted(gencog.summands), "x": catalog.label(x),
                            "state": [catalog.label(i) for i in state]})
    checks.append({"check": f"{len(gencogs)} qualifying generator-cogenerators",
                   "ok": not bad})
    return _report("lem45", {"quiver": quiver.to_text(), "m": m, "p": p,
                             "samples": samples}, checks, bad)


def suite_cor42(quiver, m=1, p=ef.DEFAULT_PRIME, seed=ef.DEFAULT_SEED, bound=3):
    """Representation dimension is at most 3: gl.dim End(E_1) <= 3;
    on representation-finite instances (a Dynkin base quiver) the additive
    generator gives <= 2."""
    algebra = rp.build_replicated(quiver, m, p)
    mode = "exact" if qr.is_dynkin(quiver) else "windowed"
    checks, bad = [], []
    if mode == "exact":
        _, catalog, engine = catalog_context(quiver, m, p)
        e1 = gc.construct_E(algebra, 1, engine=engine)
        got = gc.gldim_end(e1).value
        checks.append({"check": "gl.dim End(E_1) <= 3", "got": got, "ok": got <= 3})
        if got > 3:
            bad.append({"E_1": got})
        addgen = GenCog(engine, set(range(len(catalog))))
        got2 = gc.gldim_end(addgen).value
        checks.append({"check": "additive generator <= 2", "got": got2, "ok": got2 <= 2})
        if got2 > 2:
            bad.append({"additive": got2})
    else:
        census = w.census_modules(algebra, bound, seed)
        engine = MDimEngine.windowed(algebra)
        e1 = gc.construct_E(algebra, 1, engine=engine)
        res = gc.gldim_end_windowed(e1, census)
        ok = res.lower is not None and res.lower <= 3 and res.indeterminates == 0
        checks.append({"check": "gl.dim End(E_1) <= 3 (window)",
                       "window_checked": res.lower,
                       "window_size": res.window_size, "ok": ok})
        if not ok:
            bad.append({"E_1_window": res.lower})
    return _report("cor42", {"quiver": quiver.to_text(), "m": m, "p": p,
                             "mode": mode}, checks, bad)


def suite_lem47(quiver, m=1, d=5, p=ef.DEFAULT_PRIME, seed=ef.DEFAULT_SEED, bound=3):
    """Desk-scale witness chain for the d >= 2m+3 construction, plus the
    windowed upper check."""
    algebra = rp.build_replicated(quiver, m, p)
    engine = MDimEngine.windowed(algebra)
    gencog, n, z = gc.construct_lem47(algebra, d, engine=engine)
    checks, bad = [], []
    # chain identities Omega_M^j(N) = Omega^j(N) for j <= 2m, ending at Z
    state = engine.state(n)
    syz = n
    ok_chain = True
    for j in range(1, 2 * m + 1):
        state = engine.omega_step(state, gencog.summands)
        syz = rp.syzygy(syz)
        if engine.state(syz) != state:
            ok_chain = False
            bad.append({"check": f"Omega_M^{j}(N) = Omega^{j}(N)", "j": j})
    checks.append({"check": "Omega_M^j(N) = Omega^j(N), j <= 2m", "ok": ok_chain})
    z0 = rp.rep_at_layer(algebra, z, 0)
    ok_end = len(state) == 1 and rp.is_iso_layered(
        engine.registry.modules[state[0]], z0)
    checks.append({"check": "Omega_M^{2m}(N) = Z", "ok": ok_end})
    if not ok_end:
        bad.append({"check": "Omega_M^{2m}(N) = Z",
                    "state": [engine.registry.modules[i].dim_label() for i in state]})
    # Omega_M^i(Z) = tau^i Z for 0 <= i <= d - (2m+3)
    ok_tau = True
    zstate = (engine.registry.canon(z0),)
    tau_pow = z
    for i in range(1, d - (2 * m + 3) + 1):
        zstate = engine.omega_step(zstate, gencog.summands)
        tau_pow = qr.tau(tau_pow)
        if engine.state(rp.rep_at_layer(algebra, tau_pow, 0)) != zstate:
            ok_tau = False
            bad.append({"check": f"Omega_M^{i}(Z) = tau^{i} Z", "i": i})
    checks.append({"check": "Omega_M^i(Z) = tau^i Z", "ok": ok_tau})
    mdim_n, _ = gc.m_dimension(gencog, n)
    ok_low = mdim_n == d - 2
    checks.append({"check": "M-dim N = d - 2 (lower bound certificate)",
                   "got": mdim_n if mdim_n != math.inf else "inf",
                   "ok": ok_low})
    if not ok_low:
        bad.append({"mdim_N": str(mdim_n)})
    census = w.census_modules(algebra, bound, seed)
    upper = gc.gldim_end_windowed(gencog, census)
    ok_up = upper.lower is not None and upper.lower <= d and upper.indeterminates == 0
    checks.append({"check": f"windowed upper <= {d} at bound {bound}",
                   "window_checked": upper.lower,
                   "window_size": upper.window_size,
                   "indeterminate": upper.indeterminates, "ok": ok_up})
    if not ok_up:
        bad.append({"window_checked": upper.lower,
                    "indeterminates": upper.indeterminates})
    return _report("lem47", {"quiver": quiver.to_text(), "m": m, "p": p, "d": d,
                             "bound": bound, "witness_Z": z.component_dims(),
                             "witness_N": n.dim_label()}, checks, bad)


def suite_lem48(quiver, m=1, p=ef.DEFAULT_PRIME):
    """The infinite case: Omega_M(N) = N + projective and M-dim N = inf
    with a cycle certificate."""
    algebra = rp.build_replicated(quiver, m, p)
    engine = MDimEngine.windowed(algebra)
    gencog, n0, nprime = gc.construct_lem48(algebra, engine=engine)
    checks, bad = [], []
    summands = [engine.registry.modules[i] for i in sorted(gencog.summands)]
    res = gc.min_right_approx(summands, n0)
    pieces = rp.decompose_layered(res.kernel)
    projectives = rp.IsoRegistry(
        [algebra.proj(i, k) for k in range(m + 1) for i in range(quiver.n_vertices)])
    non_proj = [piece for piece, _ in pieces if projectives.find(piece) is None]
    ok_kernel = len(non_proj) == 1 and rp.is_iso_layered(non_proj[0], n0)
    checks.append({"check": "Omega_M(N) = N + projective",
                   "kernel": res.kernel.dim_label(), "ok": ok_kernel})
    if not ok_kernel:
        bad.append({"kernel_pieces": [piece.dim_label() for piece, _ in pieces]})
    mdim_n, cycle = gc.m_dimension(gencog, n0)
    ok_inf = mdim_n == math.inf and cycle is not None
    checks.append({"check": "M-dim N = inf with cycle certificate",
                   "cycle": cycle, "ok": ok_inf})
    if not ok_inf:
        bad.append({"mdim": str(mdim_n)})
    return _report("lem48", {"quiver": quiver.to_text(), "m": m, "p": p,
                             "N": n0.dim_label(), "Nprime": nprime.component_dims()},
                   checks, bad)


def parameters(suite):
    """The parameters that suite_<suite> takes after the quiver; an unknown
    suite name raises InputError."""
    if suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return list(inspect.signature(globals()[f"suite_{suite}"]).parameters)[1:]


def verify(suite, quiver, **params):
    """Dispatch a named suite (function suite_<name>); unknown names, a
    parameter the suite does not take, a negative seed, a sample count
    below 1 and a window bound below 1 raise InputError."""
    # checked before any work, though the window census checks them again
    if params.get("seed", 0) < 0:
        raise InputError(f"seed must be >= 0, got {params['seed']}")
    if params.get("bound", 1) < 1:
        raise InputError(f"window bound must be >= 1, got {params['bound']}")
    if params.get("samples", 1) < 1:
        raise InputError(f"samples must be >= 1, got {params['samples']}")
    accepted = parameters(suite)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise InputError(f"suite {suite} does not take {', '.join(unknown)}; "
                         f"it takes {', '.join(accepted)}")
    return globals()[f"suite_{suite}"](quiver, **params)
