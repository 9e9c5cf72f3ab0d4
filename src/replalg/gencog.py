"""Generator-cogenerators: minimal right approximations, M-dimension,
and global dimensions of endomorphism algebras.

The minimal right add-M approximation of X is built by projectivization:
the multiplicity of a summand M_i is dim Hom(M_i, X) / (radical image),
with chosen coset representatives assembled into the approximating map.
Approximations are additive, so only kernels of single indecomposables are
ever computed, and one walk gives every M-dimension: the level sets of
non-add-M summand ids, each the union of Omega_M of the one before, until
a level is empty.  A repeated level certifies an infinite M-dimension;
leaving the window (unbounded growth) yields an indeterminate verdict
(None), never a guess.  gl.dim End(M) is read off the M-dimensions alone;
the independent oracle in `endalg` only cross-checks it."""

import math

import numpy as np

from . import artrans as ar
from . import exactfield as ef
from . import quiverrep as qr
from . import replicated as rp
from .errors import AnomalyError, ContractError, InputError
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


class MDimEngine:
    """Shared approximation/omega caches over a registry of canonical
    modules, which also caches their Hom spaces (the catalog's own registry
    in exact mode, a growing store in windowed mode).  A kernel larger than
    MDIM_DIM_CAP, read at call time, leaves the window."""

    def __init__(self, algebra, registry, catalog=None):
        self.algebra = algebra
        self.registry = registry
        self.catalog = catalog
        self._required = None
        self._relevant = {}
        self._omega = {}

    @classmethod
    def for_catalog(cls, catalog):
        return cls(catalog.algebra, catalog.registry, catalog=catalog)

    @classmethod
    def windowed(cls, algebra):
        return cls(algebra, IsoRegistry())

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
            self._omega[key] = None if kernel.total_dim > MDIM_DIM_CAP else self.state(kernel)
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

    def mdim(self, start_ids, summand_ids):
        """(value, cycle) of the level-set walk from start_ids: L_0 is
        start_ids minus add M, and L_(i+1) the non-add-M ids of Omega_M of
        L_i, one omega_step.  value is the number of steps to an empty level,
        the largest M-dimension over start_ids; math.inf when a level
        repeats, with cycle = (first visit, revisit), else None; None when a
        member leaves the window or the walk reaches MDIM_MAX_STEPS."""
        level = frozenset(start_ids) - summand_ids
        seen = {}
        while level and level not in seen:
            if len(seen) == MDIM_MAX_STEPS:
                return None, None
            seen[level] = len(seen)
            nxt = self.omega_step(tuple(sorted(level)), summand_ids)
            if nxt is None:
                return None, None
            level = frozenset(nxt) - summand_ids
        if not level:
            return len(seen), None
        return math.inf, (seen[level], len(seen))


def m_dimension(gencog, x):
    """M-dimension of a module x as (value, cycle): the least i with
    Omega_M^i(x) in add M, math.inf, or None on window exit; when infinite,
    cycle = (summand id, (first visit, revisit)) of the last summand of x
    whose walk repeats a level, else None."""
    worst, cycle = 0, None
    for pid in sorted(set(gencog.engine.state(x)) - gencog.summands):
        val, cyc = gencog.engine.mdim((pid,), gencog.summands)
        if val is None:
            return None, None
        worst = max(worst, val)
        if cyc is not None:
            cycle = (pid, cyc)
    return worst, cycle


class GldimEndResult:
    """An exact value (math.inf included), or over a window the exact lower
    bound 2 + max M-dim over the census, which is also the window's upper check."""

    def __init__(self, value=None, lower=None, window_size=None, indeterminates=0):
        self.value = value
        self.lower = lower
        self.window_size = window_size
        self.indeterminates = indeterminates

    def __repr__(self):
        if self.value is not None:
            return f"GldimEnd(value={self.value})"
        return f"GldimEnd(lower={self.lower}, window={self.window_size})"


def gldim_end(gencog):
    """Exact gl.dim End(M) over a complete catalog from the M-dimensions
    alone: 2 + the largest M-dimension over the catalog.  For d >= 0,
    gl.dim End(M) <= d + 2 iff every module has M-dimension <= d.  So when
    every M-dimension is 0, gl.dim End(M) <= 2, and Auslander (QMC Notes,
    1971) gives >= 2 for a generator-cogenerator of a non-semisimple
    algebra: the value is 2.  A^(m) is semisimple only for m = 0 over a
    quiver without arrows (one vertex, as quivers are connected); there
    End(M) is a product of copies of F_p, of global dimension 0."""
    engine = gencog.engine
    if engine.catalog is None:
        raise ContractError("exact mode requires a complete catalog; use gldim_end_windowed")
    worst, _ = engine.mdim(range(len(engine.catalog)), gencog.summands)
    if worst is None:
        raise AnomalyError("indeterminate M-dimension in exact mode: "
                           "window exit or step cap")
    if worst == 0 and engine.algebra.m == 0 and not engine.algebra.quiver.arrows:
        return GldimEndResult(value=0)
    return GldimEndResult(value=worst + 2)


def gldim_end_windowed(gencog, census_modules):
    """Windowed mode: lower = 2 + the largest M-dimension found over the
    supplied census indecomposables, an exact lower bound and the
    window-checked upper bound."""
    engine = gencog.engine
    worst = 0
    indeterminates = 0
    for m in census_modules:
        val, _ = engine.mdim((engine.registry.canon(m),), gencog.summands)
        if val is None:
            indeterminates += 1
            continue
        if val == math.inf:
            return GldimEndResult(value=math.inf)
        worst = max(worst, val)
    return GldimEndResult(lower=worst + 2, window_size=len(census_modules),
                          indeterminates=indeterminates)


# ---------------------------------------------------------------------------
# the four constructions
# ---------------------------------------------------------------------------


def construct_thm32(catalog, d, engine):
    """M = catalog minus {tau^i Z: 0 <= i <= d-3} for a non-injective Z
    with tau^(d-2) Z projective, taken from the longest-orbit walk."""
    if d < 2:
        raise InputError(f"d must be >= 2, got {d}")
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


def construct_E(algebra, i, engine):
    """E_i = A + DA_m + P + (U_i + ... + U_{t-1}), t = gl.dim A^(m)."""
    t = rp.global_dimension(algebra)
    if not 1 <= i <= t - 1:
        raise InputError(f"construct_E: i = {i} outside [1, {t - 1}]")
    ids = engine.required_ids()
    for k in range(i, t):
        for u in rp.u_stratum(algebra, k):
            ids.add(engine.registry.canon(u))
    return GenCog(engine, ids)


def _simple_projective_vertices(quiver):
    return [i for i in range(quiver.n_vertices)
            if not any(quiver.arrow_source[a] == i for a in range(len(quiver.arrows)))]


def construct_lem47(algebra, d, engine):
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


def construct_lem48(algebra, engine):
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
