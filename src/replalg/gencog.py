"""Generator-cogenerators: minimal right approximations, M-dimension,
and global dimensions of endomorphism algebras.

The minimal right add-M approximation of X is built by projectivization:
the multiplicity of a summand M_i is dim Hom(M_i, X) / (radical image),
with chosen coset representatives assembled into the approximating map.
M-dimension iterates approximation kernels on multisets of indecomposable
summands; since approximations are additive, only kernels of single
indecomposables are ever computed, and the chain becomes a walk on a
finite successor graph.  An infinite M-dimension is certified by a state
revisit; leaving the window (unbounded growth) yields an indeterminate
verdict (None), never a guess.
"""

import math

import numpy as np

from . import artrans as ar
from . import exactfield as ef
from . import quiverrep as qr
from . import replicated as rp
from .errors import AnomalyError, ContractError, InputError, OracleUnavailable
from .replicated import IsoRegistry, LayeredModule, LayeredMorphism
from .splitting import fitting_split, single_eigenvalue

MDIM_MAX_STEPS = 64
MDIM_DIM_CAP = 600


class WitnessNotFound(ContractError):
    """No orbit long enough to run the construction."""

    def __init__(self, message, max_cardinality=None):
        super().__init__(message)
        self.max_cardinality = max_cardinality


class GenCog:
    """A generator-cogenerator given by registry ids of its pairwise
    non-isomorphic indecomposable summands (multiplicity one each)."""

    def __init__(self, engine, summand_ids):
        self.engine = engine
        self.summands = frozenset(summand_ids)
        missing = engine.required_ids() - self.summands
        if missing:
            raise ContractError(
                "not a generator-cogenerator: missing "
                + ", ".join(str(i) for i in sorted(missing)))

    @property
    def algebra(self):
        return self.engine.algebra

    def modules(self):
        return [self.engine.registry.modules[i] for i in sorted(self.summands)]

    def to_json(self):
        return {
            "fingerprint": self.algebra.fingerprint(),
            "summands": [self.engine.registry.modules[i].to_json()
                         for i in sorted(self.summands)],
        }


class ApproxResult:
    """A minimal right add-M approximation f: M' -> X with its kernel."""

    def __init__(self, multiplicities, morphism, kernel):
        self.multiplicities = multiplicities
        self.morphism = morphism
        self.kernel = kernel
        self.surjective = morphism.is_surjective()


def min_right_approx(summands, x, hom_fn=rp.hom_layered):
    """Minimal right add-M approximation of X for M = (+) summands
    (pairwise non-isomorphic indecomposables).

    Multiplicity of M_i = dim( Hom(M_i, X) / sum_j rad(M_i, M_j) Hom(M_j, X) ),
    with rad(M_i, M_i) = M_i.rad_end() and rad(M_i, M_j) = hom_fn(M_i, M_j)
    for j != i.  The coset representatives are the Hom(M_i, X) basis
    elements at pivot columns of one rref over [radical image | Hom(M_i, X)]:
    each lies outside the span of the radical image and of the basis
    elements before it, the greedy choice along the canonical basis.
    bench/selftest.py checks the hom_fn default, so it stays rp.hom_layered.
    """
    homs = [hom_fn(mi, x) for mi in summands]
    reps, mults = [], []
    for i, mi in enumerate(summands):
        if not homs[i]:
            mults.append(0)
            continue
        cols = [f.compose(r).flatten() for j, mj in enumerate(summands) if homs[j]
                for r in (mi.rad_end() if i == j else hom_fn(mi, mj)) for f in homs[j]]
        nrad = len(cols)
        cols += [f.flatten() for f in homs[i]]
        _, pivots = ef.rref(np.array(cols, dtype=np.int64).T, x.algebra.p)
        chosen = [homs[i][c - nrad] for c in pivots if c >= nrad]
        mults.append(len(chosen))
        if chosen:
            reps.append((i, chosen))
    if not reps:
        zero = x.algebra.zero_module()
        f = LayeredMorphism(zero, x, [ef.zeros(d, 0) for d in x.component_dims()])
        return ApproxResult([0] * len(summands), f, zero)
    total, _ = LayeredModule.block_sum([summands[i] for i, chosen in reps for _ in chosen])
    blocks = [np.hstack([f.blocks[c] for _, chosen in reps for f in chosen])
              for c in range(x.algebra.n_components)]
    f = LayeredMorphism(total, x, blocks)
    kernel, _ = f.kernel()
    return ApproxResult(mults, f, kernel)


def verify_approximation(summands, x, result, hom_fn=rp.hom_layered):
    """Independent check of the two approximation invariants.

    (1) for every summand S the composition Hom(S, M') -> Hom(S, X) is
    surjective; (2) right minimality: every endomorphism h of M' with
    f h = 0 lies in rad End(M').  Only tests call it; it stays because
    bench/selftest.py checks its hom_fn default."""
    p = x.algebra.p
    f = result.morphism
    mprime = f.source
    for s in summands:
        target = hom_fn(s, x)
        if target and rp.span_dim(f.compose(g) for g in hom_fn(s, mprime)) != len(target):
            return False
    # right minimality
    ends = rp.hom_layered(mprime, mprime)
    if ends:
        flats = np.array([f.compose(h).flatten() for h in ends], dtype=np.int64).T
        ker = ef.kernel_basis(flats, p)
        for c in range(ker.shape[1]):
            h = None
            for t in range(len(ends)):
                coeff = int(ker[t, c])
                if coeff:
                    scaled = LayeredMorphism(
                        mprime, mprime,
                        [np.mod(coeff * b, p) for b in ends[t].blocks])
                    h = scaled if h is None else h.add(scaled)
            if h is not None and single_eigenvalue(h.blocks, p) != 0:
                return False
    return True


class MDimResult:
    """Outcome of an M-dimension computation: a value (int, inf, or None
    for indeterminate) and, when infinite, the cycle certificate
    (summand id, (first visit, revisit)) of `MDimEngine.cycle`; None when
    that walk found no revisit or the value is finite."""

    def __init__(self, value, cycle=None):
        self.value = value
        self.cycle = cycle

    @property
    def is_infinite(self):
        return self.value == math.inf


class MDimEngine:
    """Shared approximation/omega caches over a registry of canonical
    modules, which also caches their Hom spaces (the catalog's own registry
    in exact mode, a growing store in windowed mode)."""

    def __init__(self, algebra, registry, dim_cap=MDIM_DIM_CAP, catalog=None):
        self.algebra = algebra
        self.registry = registry
        self.dim_cap = dim_cap
        self.catalog = catalog
        self._required = None
        self._relevant = {}
        self._omega = {}

    @classmethod
    def for_catalog(cls, catalog):
        return cls(catalog.algebra, catalog.registry, catalog=catalog)

    @classmethod
    def windowed(cls, algebra, dim_cap=MDIM_DIM_CAP):
        return cls(algebra, IsoRegistry(), dim_cap=dim_cap)

    def required_ids(self):
        """Registry ids of all proj(i,k) and inj(i,k): the summands every
        generator-cogenerator must contain."""
        if self._required is None:
            req = set()
            alg = self.algebra
            for k in range(alg.m + 1):
                for i in range(alg.quiver.n_vertices):
                    req.add(self.registry.canon(alg.proj(i, k)))
                    req.add(self.registry.canon(alg.inj(i, k)))
            self._required = req
        return set(self._required)

    def hom_fn(self):
        """hom_fn(M, N) for min_right_approx: the registry's cached basis on
        registered objects, a fresh Hom space otherwise."""
        def fn(a, b):
            ia = self.registry.identity_index(a)
            ib = self.registry.identity_index(b)
            if ia is not None and ib is not None:
                return self.registry.hom_basis(ia, ib)
            return rp.hom_layered(a, b)
        return fn

    def state(self, module):
        """The Krull-Schmidt state of a module: the sorted registry ids of
        its indecomposable summands, with multiplicity."""
        return tuple(sorted(self.registry.canon(piece) for piece in fitting_split(module)))

    def omega_ids(self, x_id, summand_ids):
        """State of Omega_M(X) for the registry id of X; cached on (X,
        predecessors of X inside M), None when the kernel leaves the
        window.  The predecessors are memoized per (X, M)."""
        scope = (x_id, frozenset(summand_ids))
        if scope not in self._relevant:
            self._relevant[scope] = frozenset(i for i in scope[1]
                                              if self.registry.hom_basis(i, x_id))
        relevant = self._relevant[scope]
        key = (x_id, relevant)
        if key not in self._omega:
            x = self.registry.modules[x_id]
            mods = [self.registry.modules[i] for i in sorted(relevant)]
            result = min_right_approx(mods, x, hom_fn=self.hom_fn())
            if not result.surjective:
                raise AnomalyError("approximation by a generator failed to be surjective")
            kernel = result.kernel
            self._omega[key] = None if kernel.total_dim > self.dim_cap else self.state(kernel)
        return self._omega[key]

    def omega_step(self, state, summand_ids):
        """One Omega_M step on a state: the sorted ids of Omega_M of its
        members, or None when one of them leaves the window."""
        out = []
        for idx in state:
            succ = self.omega_ids(idx, summand_ids)
            if succ is None:
                return None
            out.extend(succ)
        return tuple(sorted(out))

    def mdim_id(self, x_id, summand_ids):
        """(value, cycle) for a single indecomposable: value is an int, inf
        or None (window exit or step cap); cycle is `self.cycle` when the
        value is inf, else None."""
        memo = {}
        onstack = []

        def rec(idx, depth):
            if idx in summand_ids:
                return 0
            if idx in memo:
                return memo[idx]
            if idx in onstack:
                return math.inf
            if depth > MDIM_MAX_STEPS:
                return None
            onstack.append(idx)
            succ = self.omega_ids(idx, summand_ids)
            if succ is None:
                onstack.pop()
                memo[idx] = None
                return None
            best = 0
            for nxt in set(succ):
                if nxt in summand_ids:
                    continue
                sub = rec(nxt, depth + 1)
                if sub is None:
                    best = None
                    break
                if sub == math.inf:
                    best = math.inf
                    break
                best = max(best, sub)
            onstack.pop()
            val = None if best is None else (math.inf if best == math.inf else best + 1)
            if val != math.inf or not onstack:
                memo[idx] = val
            return val

        value = rec(x_id, 0)
        return value, (self.cycle(x_id, summand_ids) if value == math.inf else None)

    def cycle(self, x_id, summand_ids):
        """Cycle certificate of an infinite M-dimension: walk the multiset
        states Omega^0, Omega^1, ... of non-add-M summand ids and return
        (first visit, revisit) of the first revisited state, or None when
        the walk empties, leaves the window or reaches MDIM_MAX_STEPS
        first."""
        state = (x_id,)
        seen = {state: 0}
        steps = 0
        while state and steps < MDIM_MAX_STEPS:
            nxt = self.omega_step(state, summand_ids)
            if nxt is None:
                return None
            state = tuple(i for i in nxt if i not in summand_ids)
            steps += 1
            if state in seen:
                return seen[state], steps
            seen[state] = steps
        return None


def m_dimension(gencog, x):
    """M-dimension of a module x: least i with Omega_M^i(x) in add M;
    math.inf with a cycle certificate, or indeterminate on window exit."""
    engine = gencog.engine
    if x.is_zero():
        return MDimResult(0)
    worst = 0
    cycle = None
    for pid in sorted(set(engine.state(x)) - gencog.summands):
        val, cyc = engine.mdim_id(pid, gencog.summands)
        if val is None:
            return MDimResult(None)
        worst = max(worst, val)
        if cyc is not None:
            cycle = (pid, cyc)
    return MDimResult(worst, cycle=cycle)


class GldimEndResult:
    """Exact value, an upper bound (value with exact=False), or a (lower
    bound, windowed upper check) pair."""

    def __init__(self, value=None, exact=False, lower=None, window_checked=None,
                 window_size=None, indeterminates=0):
        self.value = value
        self.exact = exact
        self.lower = lower
        self.window_checked = window_checked
        self.window_size = window_size
        self.indeterminates = indeterminates

    def __repr__(self):
        if self.exact:
            return f"GldimEnd(value={self.value})"
        if self.value is not None:
            return f"GldimEnd(value<={self.value})"
        return (f"GldimEnd(lower={self.lower}, window_checked={self.window_checked}, "
                f"window={self.window_size})")


def gldim_end(gencog):
    """Exact gl.dim End(M) over a complete catalog: 2 + max M-dim over the
    catalog (values at 2 cross-resolved by the end-algebra oracle)."""
    engine = gencog.engine
    if engine.catalog is None:
        raise ContractError("exact mode requires a complete catalog; use gldim_end_windowed")
    worst = 0
    for idx in range(len(engine.catalog)):
        if idx in gencog.summands:
            continue
        val, _ = engine.mdim_id(idx, gencog.summands)
        if val is None:
            raise AnomalyError("indeterminate M-dimension in exact mode: "
                               "window exit or step cap")
        if val == math.inf:
            return GldimEndResult(value=math.inf, exact=True)
        worst = max(worst, val)
    if worst >= 1:
        return GldimEndResult(value=worst + 2, exact=True)
    # every M-dimension is 0: gl.dim End <= 2; resolve below 2 by the oracle,
    # and report the bound 2 as not exact when the oracle declines to run
    from .endalg import end_algebra_gldim
    try:
        value = end_algebra_gldim(gencog)
    except OracleUnavailable:
        return GldimEndResult(value=2, exact=False)
    return GldimEndResult(value=value, exact=True)


def gldim_end_windowed(gencog, census_modules):
    """Windowed mode: 2 + the largest M-dimension found over the supplied
    census indecomposables, an exact lower bound and the window-checked
    upper bound."""
    engine = gencog.engine
    worst = 0
    indeterminates = 0
    for m in census_modules:
        pid = engine.registry.canon(m)
        if pid in gencog.summands:
            continue
        val, _ = engine.mdim_id(pid, gencog.summands)
        if val is None:
            indeterminates += 1
            continue
        if val == math.inf:
            return GldimEndResult(value=math.inf, exact=True)
        worst = max(worst, val)
    return GldimEndResult(lower=worst + 2, window_checked=worst + 2,
                          window_size=len(census_modules),
                          indeterminates=indeterminates)


# ---------------------------------------------------------------------------
# the four constructions
# ---------------------------------------------------------------------------


def construct_thm32(catalog, d, engine=None):
    """M = catalog minus {tau^i Z: 0 <= i <= d-3} for a non-injective Z
    with tau^(d-2) Z projective, taken from the longest-orbit walk."""
    if d < 2:
        raise InputError(f"d must be >= 2, got {d}")
    engine = engine or MDimEngine.for_catalog(catalog)
    table = ar.tau_orbits(catalog)
    orbit = None
    for o in table.orbits:
        if len(o) >= d:
            orbit = o
            break
    if orbit is None:
        raise WitnessNotFound(
            f"max orbit cardinality {table.max_cardinality()} < d = {d}",
            max_cardinality=table.max_cardinality())
    z = orbit[d - 2]
    excluded = {orbit[j] for j in range(1, d - 1)}
    ids = set(range(len(catalog))) - excluded
    return GenCog(engine, ids), z


def construct_E(algebra, i, engine=None):
    """E_i = A + DA_m + P + (U_i + ... + U_{t-1}), t = gl.dim A^(m)."""
    t = rp.global_dimension(algebra)
    if not 1 <= i <= t - 1:
        raise InputError(f"construct_E: i = {i} outside [1, {t - 1}]")
    if engine is None:
        engine = MDimEngine.windowed(algebra)
    ids = engine.required_ids()
    for k in range(i, t):
        for u in rp.u_stratum(algebra, k):
            ids.add(engine.registry.canon(u))
    return GenCog(engine, ids)


def _simple_projective_vertices(quiver):
    return [i for i in range(quiver.n_vertices)
            if not any(quiver.arrow_source[a] == i for a in range(len(quiver.arrows)))]


def construct_lem47(algebra, d, engine=None):
    """M = A + DA_m + (tau^i Y_j for 0 <= i <= d-(2m+3)) + P, with the Y_j
    the middle of the almost split sequence ending in Z, where tau^(d-(2m+2)) Z
    is simple projective.  Z is preprojective, so `ar.ar_sequence` finds the
    Y_j from the one-dimensional Ext^1(Z, tau Z) over A, with no catalog.
    Returns (GenCog, witness N = cosyzygy^{2m} Z, Z)."""
    m_level = algebra.m
    if d < 2 * m_level + 3:
        raise InputError(f"lem47 needs d >= 2m+3 = {2 * m_level + 3}, got {d}")
    quiver, p = algebra.quiver, algebra.p
    steps = d - (2 * m_level + 2)
    z = None
    for i in _simple_projective_vertices(quiver):
        cand = qr.projective(quiver, p, quiver.vertices[i])
        ok = True
        for _ in range(steps):
            cand = qr.tau_inverse(cand)
            if cand.total_dim == 0:
                ok = False
                break
        if ok and qr.tau_inverse(cand).total_dim:
            z = cand
            break
    if z is None:
        raise ContractError(
            "no preprojective witness Z: base algebra looks representation-finite")
    _, middle = ar.ar_sequence(z)
    if engine is None:
        engine = MDimEngine.windowed(algebra)
    ids = engine.required_ids()
    for y, _ in middle:
        cur = y
        for i in range(d - (2 * m_level + 3) + 1):
            if cur.total_dim == 0:
                break
            ids.add(engine.registry.canon(rp.rep_at_layer(algebra, cur, 0)))
            cur = qr.tau(cur)
    gencog = GenCog(engine, ids)
    # witness N = Omega^{-2m}(Z) inside A^(m)
    n = rp.rep_at_layer(algebra, z, 0)
    for _ in range(2 * m_level):
        n = rp.cosyzygy(n)
    return gencog, n, z


def construct_lem48(algebra, engine=None):
    """M = A + DA_m + P + N' for a non-split self-extension N' of a brick N
    with Ext^1(N, N) != 0.  Returns (GenCog, N at layer 0, N')."""
    quiver, p = algebra.quiver, algebra.p
    n = _find_self_extending_brick(quiver, p, 3)
    if n is None:
        raise ContractError(
            "no brick with a self-extension found within the search bound "
            "(base algebra looks representation-finite)")
    e, incl, proj = qr.realize_extension(n, n, 0)
    if qr.sequence_splits(incl):
        raise AnomalyError("realized self-extension split")
    if engine is None:
        engine = MDimEngine.windowed(algebra)
    ids = engine.required_ids()
    ids.add(engine.registry.canon(rp.rep_at_layer(algebra, e, 0)))
    return GenCog(engine, ids), rp.rep_at_layer(algebra, n, 0), e


def _find_self_extending_brick(quiver, p, bound):
    base = rp.build_replicated(quiver, 0, p)
    rng = np.random.default_rng(ef.DEFAULT_SEED)
    for total in range(2, bound * quiver.n_vertices + 1):
        for dims in _dim_vectors(quiver.n_vertices, total, bound):
            candidates = _candidate_maps(quiver, p, dims, rng)
            for maps in candidates:
                try:
                    m = LayeredModule(base, [(dims, maps)], conn={})
                except InputError:
                    continue
                if len(qr.hom_basis(m, m)) == 1 and qr.ext1_dim(m, m) > 0:
                    return m
    return None


def _dim_vectors(n, total, bound):
    if n == 1:
        if total <= bound:
            yield (total,)
        return
    for first in range(min(bound, total) + 1):
        for rest in _dim_vectors(n - 1, total - first, bound):
            yield (first,) + rest


def _candidate_maps(quiver, p, dims, rng):
    """Small deterministic sweep of arrow-map families: zero, truncated
    identity, or a seeded random matrix per arrow."""
    shapes = [(dims[quiver.arrow_target[a]], dims[quiver.arrow_source[a]])
              for a in range(len(quiver.arrows))]
    out = []
    for code in range(3 ** len(shapes)):
        maps = []
        c = code
        for (r, cdim) in shapes:
            kind = c % 3
            c //= 3
            if kind == 2:
                mat = ef.fmat(rng.integers(0, p, size=(r, cdim)), p) if r * cdim \
                    else ef.zeros(r, cdim)
            else:
                mat = ef.zeros(r, cdim)
                if kind == 1:
                    for t in range(min(r, cdim)):
                        mat[t, t] = 1
            maps.append(mat)
        out.append(maps)
    return out
