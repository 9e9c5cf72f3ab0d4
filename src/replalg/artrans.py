"""Auslander-Reiten machinery over the replicated algebra.

tau = DTr is computed from a minimal projective presentation
P1 -> P0 -> M, read off the projective cover P0 -> M alone: Omega M is
the kernel of the cover, in the coordinates of its canonical kernel basis
(the entries at the free rows), so the top of Omega M, and with it P1 and
the map P1 -> P0, comes from one quotient per component, without building
Omega M as a module or giving it a cover of its own.  The presentation
map is rewritten as a matrix of algebra elements, transposed into the
opposite algebra (replicated algebra of the opposite quiver, layers
reversed), its cokernel is the transpose, and dualizing brings the result
back.  tau^{-1} = TrD runs the same machinery starting from the dual.
Catalogs are built by closing the projectives and injectives under
tau and tau^{-1}.  The almost split sequence ending in a non-projective Z
is the pushout of 0 -> Omega Z -> P_0 -> Z -> 0 along a map spanning the
one-dimensional Ext^1(Z, tau Z); the AR quiver reads the arrows into each
vertex from that sequence, or from rad P at a projective P.  The mesh
check then compares the arrows into Z with those out of tau Z, which come
from other sequences.
"""

import time

import numpy as np

from . import exactfield as ef
from . import replicated as rp
from .errors import AnomalyError, BudgetExceeded, InputError
from .replicated import LayeredModule
from .splitting import fitting_split

CATALOG_BUDGET = 10000
PHASE_SECONDS = 60.0


def _presentation_matrix(m):
    """Minimal projective presentation P1 -> P0 -> M -> 0, with the map
    expressed as algebra elements: returns (summands0, summands1, lam)
    where lam[s][t] is a list of (basis element, coefficient).

    Everything is read off the cover P0 -> M.  Omega M has at each
    component c the canonical kernel basis of the cover block, which is
    the identity at its free rows, so a vector of Omega M has its entries
    at those rows as kernel coordinates.  rad Omega M at c is spanned by
    P0_e . basis[src] over the action edges e into c; at the free rows it
    gives the top generators of Omega M in the order of top_generators,
    and basis[c] carries each to its column in P0, the image of a
    generator of P1.  Each such span must lie in the kernel of the cover,
    else AnomalyError."""
    alg, p = m.algebra, m.p
    p0, cover, summands0 = rp.proj_cover(m)
    bases, frees = zip(*[ef.null_space(blk, p) for blk in cover.blocks])
    spans = [[] for _ in bases]
    for (src, tgt), mat in zip(alg.edges, p0.edge_matrices()):
        if not (mat.shape[0] and bases[src].shape[1]):
            continue  # an empty image
        image = ef.mul(mat, bases[src], p)
        if cover.blocks[tgt].size and ef.mul(cover.blocks[tgt], image, p).any():
            raise AnomalyError("the kernel of the projective cover is not closed "
                               "under the action")
        spans[tgt].append(image[frees[tgt]])
    summands1, cols = [], []
    for c, (k, i) in enumerate(alg.components()):
        n = len(frees[c])
        if not n:
            continue
        span = np.hstack(spans[c]) if spans[c] else ef.zeros(n, 0)
        _, section = ef.quotient_projection(span, n, p)
        for col in ef.mul(bases[c], section, p).T:
            summands1.append((i, k))
            cols.append(col)
    if not summands1:
        return summands0, [], []
    # row layout of P0 per component
    layouts0 = [alg.proj_basis(i, k) for (i, k) in summands0]
    lam = [[[] for _ in summands1] for _ in summands0]
    for t, ((i, k), col) in enumerate(zip(summands1, cols)):
        rows = [(s, b) for s, layout in enumerate(layouts0) for b in layout[alg.comp_index(k, i)]]
        assert len(rows) == len(col)
        for (s, b), c in zip(rows, col.tolist()):
            if c:
                lam[s][t].append((b, c))
    return summands0, summands1, lam


def transpose_layered(m):
    """Tr M as a module over the opposite replicated algebra: the cokernel
    of the dual presentation map P0* -> P1* = (+)_t P1_t*.  Its block
    from summand s to summand t is the generator morphism P0_s* -> P1_t*
    given by lam[s][t]; the blocks are disjoint, so each is written
    straight into the per-component matrices of the map.  P1* is the
    opposite algebra's proj_sum, built once per tuple of summands."""
    alg = m.algebra
    op = alg.opposite()
    summands0, summands1, lam = _presentation_matrix(m)
    if not summands1:
        return op.zero_module()
    # proj(i, k)* is the opposite algebra's proj(i, m - k)
    duals1 = [(i, alg.m - k) for (i, k) in summands1]
    total1, offs1 = op.proj_sum(duals1)
    offs0, dims0 = rp.component_offsets([op.proj(i, alg.m - k) for (i, k) in summands0])
    blocks = [ef.zeros(rows, cols) for rows, cols in zip(total1.component_dims(), dims0)]
    for s, (io, k0) in enumerate(summands0):
        ko = alg.m - k0
        for t, (i1, k1) in enumerate(duals1):
            if not lam[s][t]:
                continue
            target = op.proj(i1, k1)
            positions = op.opposite_positions(i1, k1)
            vec = np.zeros(len(op.proj_basis(i1, k1)[op.comp_index(ko, io)]), dtype=np.int64)
            for b, c in lam[s][t]:
                vec[positions[b]] = c
            _, mor = rp.generator_morphism((ko, io), np.mod(vec, alg.p), target)
            for out, blk, row, col in zip(blocks, mor.blocks, offs1[t], offs0[s]):
                if blk.size:
                    out[row:row + blk.shape[0], col:col + blk.shape[1]] = blk
    return total1.quotient(blocks)[0]


def tau(m):
    """Auslander-Reiten translate DTr: zero exactly on projectives."""
    return transpose_layered(m).dual()


def tau_inverse(m):
    """TrD: zero exactly on injectives."""
    return transpose_layered(m.dual())


def ar_sequence(z, tz=None):
    """The almost split sequence 0 -> tau Z -> E -> Z -> 0 ending in an
    indecomposable non-projective module Z over any A^(m), m >= 0, as
    (tau Z, [(Y, mult)]) with E = (+) Y^mult; tz, when given, is tau Z.

    With the projective cover P_0 -> Z and its kernel i: Omega Z -> P_0,
    Ext^1(Z, tau Z) is Hom(Omega Z, tau Z) modulo the restrictions g.i of
    Hom(P_0, tau Z), and a class f gives E as the pushout
    (tau Z (+) P_0) / {(f x, -i x)}.  The almost split class spans the
    socle of Ext^1(Z, tau Z) as an End(Z)-module (Auslander-Reiten-Smalo,
    ch. V), so it is nonzero.  When Ext^1(Z, tau Z) is one-dimensional
    every nonzero class is lam*xi with lam in F_p^*, and E_(lam*xi) is
    isomorphic to E_xi (see the `windows` docstring), so the class found
    here is almost split.  Any other dimension raises AnomalyError, so a
    returned sequence is certified."""
    if tz is None:
        tz = tau(z)
    p0, cover, _ = rp.proj_cover(z)
    omega, incl = cover.kernel()
    restricted = [g.compose(incl) for g in rp.hom_layered(p0, tz)]
    base = rp.span_dim(restricted)
    classes = rp.hom_layered(omega, tz)
    if len(classes) - base != 1:
        raise AnomalyError(f"dim Ext^1(Z, tau Z) = {len(classes) - base}, not 1: "
                           "the almost split class is not determined")
    f = next(h for h in classes if rp.span_dim(restricted + [h]) > base)
    total, _ = LayeredModule.block_sum([tz, p0])
    span = [np.vstack([fb, np.mod(-ib, z.p)]) for fb, ib in zip(f.blocks, incl.blocks)]
    return tz, rp.decompose_layered(total.quotient(span)[0])


class IndecCatalog:
    """One representative per isomorphism class of indecomposables, closed
    under tau and tau^{-1}, with flags, translation tables and the
    IsoRegistry that holds the modules and caches their Hom spaces."""

    def __init__(self, algebra, registry, tau_map, tau_inv_map,
                 projective, injective):
        self.algebra = algebra
        self.registry = registry
        self.modules = registry.modules
        self.tau_map = tau_map
        self.tau_inv_map = tau_inv_map
        self.projective = projective
        self.injective = injective
        self._leq = None

    def __len__(self):
        return len(self.modules)

    def layer0(self, idx):
        return self.modules[idx].is_layer_module(0)

    def find(self, m):
        """Catalog index of a module isomorphic to m, or None."""
        return self.registry.find(m)

    def label(self, idx):
        return f"X{idx}[{self.modules[idx].dim_label()}]"

    # -- Hom bookkeeping (cached in the registry) -----------------------------

    def hom_basis(self, i, j):
        return self.registry.hom_basis(i, j)

    def hom_dim(self, i, j):
        return len(self.hom_basis(i, j))

    def rad_basis(self, i, j):
        """Basis of rad(X_i, X_j): all of Hom for i != j, rad End(X_i)
        for i = j.  Nothing in the package calls it; it stays because the
        benchmark's layer trace (bench/tracer.py TARGETS) names it."""
        return self.hom_basis(i, j) if i != j else self.modules[i].rad_end()

    # -- predecessor order ----------------------------------------------------

    def leq_matrix(self):
        """Reflexive-transitive closure of {(i, j): Hom(X_i, X_j) != 0}."""
        if self._leq is None:
            n = len(self.modules)
            adj = np.zeros((n, n), dtype=bool)
            for i in range(n):
                adj[i, i] = True
                for j in range(n):
                    if i != j and self.hom_dim(i, j) > 0:
                        adj[i, j] = True
            for k in range(n):
                adj |= np.outer(adj[:, k], adj[k, :])
            self._leq = adj
        return self._leq

    def leq(self, i, j):
        if not (0 <= i < len(self.modules) and 0 <= j < len(self.modules)):
            raise InputError("leq: module not in catalog")
        return bool(self.leq_matrix()[i, j])

    def to_json(self):
        return {
            "fingerprint": self.algebra.fingerprint(),
            "modules": [m.to_json() for m in self.modules],
            "tau": self.tau_map,
            "tau_inv": self.tau_inv_map,
            "projective": sorted(self.projective),
            "injective": sorted(self.injective),
        }

    @classmethod
    def from_json(cls, algebra, data):
        """Inverse of to_json; a "seed" key, written by older versions, is
        ignored.  The data must be a JSON object; its modules, table lengths,
        ids and translation tables are checked as indec_catalog checks them,
        and a failure is an InputError."""
        if not isinstance(data, dict):
            raise InputError(f"catalog JSON is a {type(data).__name__}, not an object")
        if data.get("fingerprint") != algebra.fingerprint():
            raise InputError("catalog fingerprint does not match the algebra")

        def ids(entries, length):
            out = [None if t is None else int(t) for t in entries]
            if len(out) != length:
                raise InputError(f"catalog of {n} modules has a table of length {len(out)}")
            if any(t is not None and not 0 <= t < n for t in out):
                raise InputError(f"catalog id out of range 0..{n - 1}")
            return out

        try:
            registry = rp.IsoRegistry(LayeredModule.from_json(algebra, d)
                                      for d in data["modules"])
            n = len(registry)
            cat = cls(algebra, registry, ids(data["tau"], n), ids(data["tau_inv"], n),
                      set(ids(data["projective"], algebra.n_components)),
                      set(ids(data["injective"], algebra.n_components)))
            _check_translation_tables(cat)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad catalog JSON: {exc}") from exc
        except AnomalyError as exc:  # the file is at fault, not the program
            raise InputError(f"inconsistent catalog: {exc}") from exc
        return cat


def indec_catalog(algebra, budget=CATALOG_BUDGET):
    """Close {proj(i,k)} and {inj(i,k)} under tau^{-1} and tau.

    Exceeding the entry budget or PHASE_SECONDS (read at call time) raises
    BudgetExceeded (the expected signal for representation-infinite base
    algebras); a budget below 1 is an InputError.
    """
    if budget < 1:
        raise InputError(f"catalog budget must be >= 1, got {budget}")
    start = time.monotonic()
    seeds = [algebra.proj(i, k) for k in range(algebra.m + 1)
             for i in range(algebra.quiver.n_vertices)]
    seeds += [algebra.inj(i, algebra.m) for i in range(algebra.quiver.n_vertices)]
    index = rp.IsoRegistry()
    modules = index.modules

    def register(m):
        idx = index.find(m)
        if idx is not None:
            return idx, False
        if len(fitting_split(m)) != 1:
            raise AnomalyError("tau closure produced a decomposable module")
        index.add(m)
        if len(modules) > budget:
            raise BudgetExceeded(
                f"catalog exceeded {budget} entries: "
                "not representation-finite within budget")
        if time.monotonic() - start > PHASE_SECONDS:
            raise BudgetExceeded(f"catalog construction exceeded {PHASE_SECONDS:.0f}s")
        return len(modules) - 1, True

    queue = []
    for s in seeds:
        idx, fresh = register(s)
        if fresh:
            queue.append(idx)
    tau_map, tau_inv_map = {}, {}
    pos = 0
    while pos < len(queue):
        idx = queue[pos]
        pos += 1
        for op, table in ((tau_inverse, tau_inv_map), (tau, tau_map)):
            image = op(modules[idx])
            if image.is_zero():
                table[idx] = None
                continue
            jdx, fresh = register(image)
            table[idx] = jdx
            if fresh:
                queue.append(jdx)
    # every proj and inj was registered as a seed, so each is found
    comps = algebra.components()
    projective = {index.find(algebra.proj(i, k)) for k, i in comps}
    injective = {index.find(algebra.inj(i, k)) for k, i in comps}
    cat = IndecCatalog(algebra,
                       index,
                       [tau_map.get(i) for i in range(len(modules))],
                       [tau_inv_map.get(i) for i in range(len(modules))],
                       projective, injective)
    _check_translation_tables(cat)
    return cat


def _check_translation_tables(cat):
    """tau is defined exactly off projectives, tau^{-1} off injectives,
    and they are mutually inverse where defined."""
    for idx in range(len(cat)):
        if (cat.tau_map[idx] is None) != (idx in cat.projective):
            raise AnomalyError(f"tau undefined exactly on projectives fails at {cat.label(idx)}")
        if (cat.tau_inv_map[idx] is None) != (idx in cat.injective):
            raise AnomalyError(f"tau^-1 undefined exactly on injectives fails at {cat.label(idx)}")
        t = cat.tau_map[idx]
        if t is not None and cat.tau_inv_map[t] != idx:
            raise AnomalyError(f"tau^-1 tau != id at {cat.label(idx)}")


class ARQuiver:
    """Irreducible-map multiplicities over a catalog: mult[y, z] is
    dim rad(X_y, X_z) / rad^2(X_y, X_z) over F_p, the multiplicity of X_y
    in the middle term of the almost split sequence ending in X_z (in
    rad X_z when X_z is projective) times dim End(X_y) / rad End(X_y)."""

    def __init__(self, catalog):
        self.catalog = catalog
        mods, alg = catalog.modules, catalog.algebra
        self.mult = np.zeros((len(catalog), len(catalog)), dtype=np.int64)
        for z, tz in enumerate(catalog.tau_map):
            if tz is None:
                (k, i), _ = rp.top_generators(mods[z])[0]
                middle = rp.decompose_layered(rp.syzygy(alg.simple(i, k)))
            else:
                _, middle = ar_sequence(mods[z], mods[tz])
            for y, mult in middle:
                idx = catalog.find(y)
                if idx is None:
                    raise AnomalyError(f"an arrow into {catalog.label(z)} leaves the catalog")
                self.mult[idx, z] = mult * (catalog.hom_dim(idx, idx) - len(mods[idx].rad_end()))

    def mesh_violations(self):
        """Non-projective nodes z whose mesh fails: the dimension identity
        dim tau Z + dim Z = sum mult(Y -> Z) dim Y, or mult(tau Z -> Y) =
        mult(Y -> Z) for some Y.  The arrows out of tau Z come from the
        sequences ending in each Y (or from rad Y), not from the one ending
        in Z, so the second identity is an independent check."""
        cat = self.catalog
        dims = np.array([m.component_dims() for m in cat.modules], dtype=np.int64)
        bad = []
        for z, tz in enumerate(cat.tau_map):
            if tz is None:
                continue
            into = self.mult[:, z]
            if not (np.array_equal(dims[z] + dims[tz], into @ dims)
                    and np.array_equal(self.mult[tz], into)):
                bad.append(z)
        return bad

    def to_dot(self):
        """DOT digraph: solid arrows with multiplicities, dashed tau edges."""
        cat = self.catalog
        lines = ["digraph ar_quiver {", "  rankdir=LR;"]
        for i in range(len(cat)):
            flags = []
            if i in cat.projective:
                flags.append("P")
            if i in cat.injective:
                flags.append("I")
            tag = f" {'/'.join(flags)}" if flags else ""
            lines.append(f'  n{i} [label="X{i} ({cat.modules[i].dim_label()}){tag}"];')
        for i in range(len(cat)):
            for j in range(len(cat)):
                if self.mult[i, j]:
                    attr = f' [label="{self.mult[i, j]}"]' if self.mult[i, j] > 1 else ""
                    lines.append(f"  n{i} -> n{j}{attr};")
        for z, tz in enumerate(cat.tau_map):
            if tz is not None:
                lines.append(f"  n{z} -> n{tz} [style=dashed, constraint=false];")
        lines.append("}")
        return "\n".join(lines) + "\n"


class OrbitTable:
    """tau-orbits as chains from the projective end to the injective end."""

    def __init__(self, catalog):
        self.catalog = catalog
        n = len(catalog)
        self.orbits = []
        seen = set()
        for start in range(n):
            if start in seen or catalog.tau_map[start] is not None:
                continue
            chain = [start]
            seen.add(start)
            cur = start
            while catalog.tau_inv_map[cur] is not None:
                cur = catalog.tau_inv_map[cur]
                if cur in seen or len(chain) > n:
                    raise AnomalyError("tau-periodic orbit in a finite catalog")
                chain.append(cur)
                seen.add(cur)
            self.orbits.append(chain)
        if len(seen) != n:
            raise AnomalyError("orbit chains do not cover the catalog")

    def cardinalities(self):
        return sorted((len(o) for o in self.orbits), reverse=True)

    def max_cardinality(self):
        return max(len(o) for o in self.orbits)

    def to_json(self):
        cat = self.catalog
        return {
            "fingerprint": cat.algebra.fingerprint(),
            "orbits": [{"members": [cat.label(i) for i in o], "cardinality": len(o)}
                       for o in self.orbits],
            "cardinalities": self.cardinalities(),
        }


def ar_quiver(catalog):
    return ARQuiver(catalog)


def tau_orbits(catalog):
    return OrbitTable(catalog)


def stable_hom_dim(m, n):
    """dim Hom(M, N) minus the dimension of the subspace of morphisms
    factoring through add of the projective-injectives."""
    basis = rp.hom_layered(m, n)
    if not basis:
        return 0
    through = []
    for pi in m.algebra.projective_injectives():
        downs = rp.hom_layered(pi, n)
        through.extend(v.compose(u) for u in rp.hom_layered(m, pi) for v in downs)
    return len(basis) - rp.span_dim(through)
