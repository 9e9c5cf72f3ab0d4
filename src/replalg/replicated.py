"""The m-replicated algebra of a hereditary path algebra and its modules.

The algebra has basis {(p, k): p path, 0 <= k <= m} plus dual-path
elements {(p*, k): p path, 1 <= k <= m}; paths multiply within a layer,
a dual path at layer k eats path prefixes from layer k-1 on the right and
path suffixes from layer k on the left, and products of two dual elements
vanish.

ReplicatedAlgebra.mult is that product and its only encoding:
build_replicated checks that it is associative, the module relations are
compiled from it, the standard projective, injective and simple modules
are spans of basis elements (proj_basis) on which it acts, and dual
modules order their edges by its anti-isomorphism to_opposite_element.

A module is a tuple of layers M_0..M_m, each a plain (dims, maps) record
of a representation of the base quiver, together with connecting
matrices g[k, p] from the component of M_k at target(p) to the component
of M_{k-1} at source(p), one per dual basis element.  The prefix/suffix
relations tie each g[k, p] to those of the maximal paths through p.  Every
construction re-checks all relations against a table compiled once per
algebra (ReplicatedAlgebra.relations), so convention errors fail fast.

For m = 0 the algebra is the path algebra A itself, so the modules over
build_replicated(quiver, 0, p) are the A-modules: there is one module
type for A and for every A^(m).

Components are ordered (layer, vertex), flattened as k * n_vertices + i;
dimension vectors print as (layer0 | layer1 | ...).
"""

import hashlib
import itertools
from collections import namedtuple

import numpy as np

from . import exactfield as ef
from .errors import AnomalyError, InputError, WindowOverflow
from .splitting import find_invertible_combo, fitting_split, rad_end_blocks

PATH = "p"
DUAL = "d"

Layer = namedtuple("Layer", "dims maps")
Layer.__doc__ = """One layer of a module: per-vertex dimensions and one
matrix per arrow, of shape (dims[target], dims[source])."""

_Assembled = namedtuple("_Assembled", "dims mats")
_Assembled.__doc__ = """Component dims and action matrices in the order of
algebra.edges, int64 and already reduced mod p: the form in which internal
constructions (LayeredModule._assemble) hand a module to
LayeredModule.__init__, which checks every shape and relation of it but
neither copies nor reduces the matrices."""

Relation = namedtuple("Relation", "kind lhs rhs out row col k q r")
Relation.__doc__ = """One bimodule relation: out = lhs @ rhs, or lhs @ rhs = 0
when out is None.  lhs, rhs and out index LayeredModule.edge_matrices();
row and col are the components of the product block, so the relation is
vacuous when either has dimension 0.  kind, k, q (and r for the two-step
zero) name the relation in its error message."""

_RELATION_MESSAGES = {
    "prefix": "prefix relation fails at layer {k}, path {q}",
    "suffix": "suffix relation fails at layer {k}, path {q}",
    "arrow-after-dual": "zero product fails: arrow after {q}* at layer {k}",
    "dual-after-arrow": "zero product fails: {q}* after arrow at layer {k}",
    "two-step": "two-step zero fails: {r}* after {q}*",
}

# the kind of the relation of x then y, by (type of x, type of y, xy = 0)
_RELATION_KINDS = {
    (DUAL, PATH, False): "prefix",
    (PATH, DUAL, False): "suffix",
    (DUAL, PATH, True): "arrow-after-dual",
    (PATH, DUAL, True): "dual-after-arrow",
    (DUAL, DUAL, True): "two-step",
}


class ReplicatedAlgebra:
    """Basis and multiplication table of the m-replicated algebra."""

    def __init__(self, quiver, m, p):
        if m < 0:
            raise InputError(f"replication level m must be >= 0, got {m}")
        ef.FieldSpec(p)
        self.quiver = quiver
        self.m = m
        self.p = p
        pb = quiver.paths
        self.basis = [(PATH, k, q) for k in range(m + 1) for q in range(pb.n)]
        self.basis += [(DUAL, k, q) for k in range(1, m + 1) for q in range(pb.n)]
        self.dim = len(self.basis)
        self.n_components = (m + 1) * quiver.n_vertices
        self.conn_keys = [(k, q) for k in range(1, m + 1) for q in range(pb.n)]
        # (source, target) component of every action edge, in the order of
        # LayeredModule.edge_matrices: arrows layer by layer, then duals
        self.edges = [(self.comp_index(k, s), self.comp_index(k, t))
                      for k in range(m + 1)
                      for s, t in zip(quiver.arrow_source, quiver.arrow_target)]
        self.edges += [(self.comp_index(k, pb.target[q]), self.comp_index(k - 1, pb.source[q]))
                       for k, q in self.conn_keys]
        # the basis element acting along each edge, in the same order
        arrow_ids = [pb.index[(s, (a,))] for a, s in enumerate(quiver.arrow_source)]
        self.edge_elements = [(PATH, k, q) for k in range(m + 1) for q in arrow_ids]
        self.edge_elements += [(DUAL, k, q) for k, q in self.conn_keys]
        self._proj = {}
        self._proj_basis = {}
        self._opposite_pos = {}
        self._proj_sums = {}
        self._inj = {}
        self._opposite = None
        self._dual_edges = None
        self._gl_dim = None
        self._u_strata = {}
        self._relations = None
        self._live_relations = {}
        self._parallel = None
        self._zero = None

    def components(self):
        return [(k, i) for k in range(self.m + 1) for i in range(self.quiver.n_vertices)]

    def comp_index(self, k, i):
        return k * self.quiver.n_vertices + i

    def mult(self, b1, b2):
        """Product of two basis elements: a basis element or None (= zero)."""
        pb = self.quiver.paths
        t1, k1, p1 = b1
        t2, k2, p2 = b2
        if t1 == PATH and t2 == PATH:
            if k1 != k2:
                return None
            r = pb.compose(p1, p2)
            return None if r is None else (PATH, k1, r)
        if t1 == DUAL and t2 == PATH:
            # (p1*, k1) . (p2, k1 - 1) = r* where p1 = p2 r
            if k2 != k1 - 1:
                return None
            a1, a2 = pb.arrows_of[p1], pb.arrows_of[p2]
            if pb.source[p1] != pb.source[p2] or a1[:len(a2)] != a2:
                return None
            return (DUAL, k1, pb.index[(pb.target[p2], a1[len(a2):])])
        if t1 == PATH and t2 == DUAL:
            # (p1, k2) . (p2*, k2) = r* where p2 = r p1
            if k1 != k2:
                return None
            a1, a2 = pb.arrows_of[p1], pb.arrows_of[p2]
            if pb.target[p1] != pb.target[p2]:
                return None
            if len(a1) <= len(a2) and (not a1 or a2[len(a2) - len(a1):] == a1):
                return (DUAL, k2, pb.index[(pb.source[p2], a2[:len(a2) - len(a1)])])
            return None
        return None  # dual . dual = 0

    def parallel_edge_pairs(self):
        """Pairs (e, e') of indices into self.edges, e < e', of action edges
        with the same source and the same target component, computed once:
        on the Kronecker quiver, the two arrows of each layer and the duals
        a*, b* of the two arrows at each connecting level."""
        if self._parallel is None:
            groups = {}
            for idx, ends in enumerate(self.edges):
                groups.setdefault(ends, []).append(idx)
            self._parallel = tuple(pair for group in groups.values()
                                   for pair in itertools.combinations(group, 2))
        return self._parallel

    def relations(self):
        """Every bimodule relation a module must satisfy, compiled once
        from mult: for each composable pair of action edges, x acting
        first and then y, not both arrows, M_y M_x is the matrix of the
        edge of xy, or zero when xy = 0.  These are the prefix and suffix
        relations g[k, q] = M_a g[k, a.q] = g[k, q.a] M_a, the zero
        products of q* with the arrows that do not extend it, and the
        two-step zeros g[k-1, r] g[k, q] = 0."""
        if self._relations is None:
            self._relations = tuple(self._compile_relations())
        return self._relations

    def live_relations(self, dims):
        """The relations whose product block is non-empty for a module with
        component dims, in relations() order, computed once per dims: the
        others hold vacuously."""
        live = self._live_relations.get(dims)
        if live is None:
            live = self._live_relations[dims] = tuple(
                rel for rel in self.relations() if dims[rel.row] and dims[rel.col])
        return live

    def _compile_relations(self):
        index = {x: e for e, x in enumerate(self.edge_elements)}
        by_source = {}
        for e, (src, _) in enumerate(self.edges):
            by_source.setdefault(src, []).append(e)
        for ex, x in enumerate(self.edge_elements):
            for ey in by_source.get(self.edges[ex][1], ()):
                y = self.edge_elements[ey]
                if x[0] == y[0] == PATH:
                    continue
                xy = self.mult(x, y)
                # the relation is named by the dual element it ties down
                named = xy if xy is not None else (x if x[0] == DUAL else y)
                yield Relation(_RELATION_KINDS[x[0], y[0], xy is None], ey, ex,
                               None if xy is None else index[xy],
                               self.edges[ey][1], self.edges[ex][0], named[1], named[2],
                               y[2] if x[0] == y[0] else None)

    def relation_message(self, rel):
        """The InputError message for a failed relation."""
        name = self.quiver.paths.name
        return _RELATION_MESSAGES[rel.kind].format(
            k=rel.k, q=name(rel.q), r=None if rel.r is None else name(rel.r))

    def check_associativity(self):
        """(xy)z = x(yz) on all basis triples; products are basis elements
        or zero, so this is a finite table check.  Both sides vanish unless
        xy or yz is nonzero, so only those triples are compared, and of
        them only the ones where a side can be nonzero: for xy != 0, the z
        with (xy)z or yz nonzero; for yz != 0, the x with x(yz) or xy
        nonzero.  They are taken in basis order, so the first failing
        triple is the one a scan of all triples meets first."""
        table = {}
        right = {b: set() for b in self.basis}
        left = {b: set() for b in self.basis}
        for x in self.basis:
            for y in self.basis:
                r = self.mult(x, y)
                if r is not None:
                    table[(x, y)] = r
                    right[x].add(y)
                    left[y].add(x)
        order = {b: n for n, b in enumerate(self.basis)}

        def check(x, y, z):
            xy, yz = table.get((x, y)), table.get((y, z))
            lhs = table.get((xy, z)) if xy is not None else None
            rhs = table.get((x, yz)) if yz is not None else None
            if lhs != rhs:
                raise AnomalyError(f"associativity fails on {x}, {y}, {z}")

        for (x, y), xy in table.items():
            for z in sorted(right.get(xy, set()) | right[y], key=order.get):
                check(x, y, z)
        for (y, z), yz in table.items():
            for x in sorted(left.get(yz, set()) | left[y], key=order.get):
                check(x, y, z)
        return True

    def opposite(self):
        """The opposite algebra, realized as the replicated algebra of the
        opposite quiver with layers reversed; double opposite returns the
        original object."""
        if self._opposite is None:
            op = ReplicatedAlgebra(self.quiver.opposite(), self.m, self.p)
            op._opposite = self
            self._opposite = op
        return self._opposite

    def dual_edges(self):
        """For each action edge of the opposite algebra, in its edges
        order, the index into self.edges of the edge whose matrix it takes
        transposed in a dual module, computed once: the edge whose element
        to_opposite_element maps to the opposite edge's element (arrow a
        at layer K comes from arrow a at layer m-K, and the dual of the
        reversed path at level K from that of the path at level m-K+1)."""
        if self._dual_edges is None:
            index = {self.to_opposite_element(x): e for e, x in enumerate(self.edge_elements)}
            self._dual_edges = tuple(index[x] for x in self.opposite().edge_elements)
        return self._dual_edges

    def to_opposite_element(self, b):
        """(p, k) -> (p_rev, m - k); (p*, k) -> (p_rev*, m - k + 1)."""
        pb = self.quiver.paths
        pb_op = self.quiver.opposite().paths
        t, k, q = b
        q_op = pb.reversed_id(pb_op, q)
        return (t, self.m - k, q_op) if t == PATH else (t, self.m - k + 1, q_op)

    def fingerprint(self):
        return fingerprint(self.quiver, self.m, self.p)

    # -- distinguished modules ---------------------------------------------

    def proj(self, i, k):
        """Indecomposable projective e_(i,k) A^(m) at vertex i, layer k,
        spanned by proj_basis(i, k).  For k >= 1 the layer-k part is
        P_A(i), the layer-(k-1) part is I_A(i), and the module is
        projective-injective with top S(i,k) and socle S(i,k-1)."""
        key = (int(i), int(k))
        if key not in self._proj:
            self._proj[key] = self._spanned(self.proj_basis(*key))
        return self._proj[key]

    def proj_basis(self, i, k):
        """The algebra basis elements spanning proj(i, k), one list per
        component in components() order: the paths (q, k) from i at layer
        k, then the duals (r*, k) of the paths r into i at layer k - 1, in
        path-id order.  proj, generator_morphism, opposite_positions and the
        presentations of artrans all read this one basis; computed once per
        (i, k)."""
        key = (int(i), int(k))
        if key not in self._proj_basis:
            i, k = key
            if not (0 <= i < self.quiver.n_vertices and 0 <= k <= self.m):
                raise InputError(f"proj({i},{k}) out of range")
            pb = self.quiver.paths
            out = self._proj_basis[key] = []
            for l, j in self.components():
                if l == k:
                    out.append([(PATH, k, q) for q in pb.from_vertex[i] if pb.target[q] == j])
                elif l == k - 1:
                    out.append([(DUAL, k, r) for r in pb.into_vertex[i] if pb.source[r] == j])
                else:
                    out.append([])
        return self._proj_basis[key]

    def opposite_positions(self, i, k):
        """{opposite of b: position of b in its component's list} over the
        elements b of proj_basis(i, k), computed once per (i, k):
        artrans.transpose_layered places the terms of a presentation over
        the opposite algebra with it."""
        key = (int(i), int(k))
        if key not in self._opposite_pos:
            self._opposite_pos[key] = {self.to_opposite_element(b): pos
                                       for elts in self.proj_basis(*key)
                                       for pos, b in enumerate(elts)}
        return self._opposite_pos[key]

    def proj_sum(self, summands):
        """LayeredModule.block_sum of proj(i, k) over the summands (i, k),
        as (sum, offsets), built and validated once per tuple of summands:
        the projective covers and presentations of a catalog share few
        sums.  The shared sum's action matrices are read-only."""
        key = tuple((int(i), int(k)) for i, k in summands)
        if key not in self._proj_sums:
            total, offsets = LayeredModule.block_sum([self.proj(*ik) for ik in key])
            for mat in total.edge_matrices():
                mat.flags.writeable = False
            self._proj_sums[key] = total, offsets
        return self._proj_sums[key]

    def inj(self, i, k):
        """Indecomposable injective at vertex i, layer k: proj(i, k+1) for
        k < m; for k = m, I_A(i) in layer m, spanned by the duals
        (r*, m+1) of the paths r into i (the layer-m part of
        e_(i,m+1) A^(m+1))."""
        i, k = int(i), int(k)
        if not (0 <= i < self.quiver.n_vertices and 0 <= k <= self.m):
            raise InputError(f"inj({i},{k}) out of range")
        if k < self.m:
            return self.proj(i, k + 1)
        key = (i, k)
        if key not in self._inj:
            pb = self.quiver.paths
            basis = [[] for _ in range(self.n_components)]
            for r in pb.into_vertex[i]:
                basis[self.comp_index(k, pb.source[r])].append((DUAL, k + 1, r))
            self._inj[key] = self._spanned(basis)
        return self._inj[key]

    def _spanned(self, basis):
        """The module with the given basis elements, one list per
        component, on which each action edge acts by right multiplication
        with its element (mult).  A product outside the lists counts as 0,
        so the module is the span of the lists modulo the products that
        leave it."""
        pos = [{b: n for n, b in enumerate(elts)} for elts in basis]
        mats = []
        for (src, tgt), x in zip(self.edges, self.edge_elements):
            mat = ef.zeros(len(basis[tgt]), len(basis[src]))
            for col, b in enumerate(basis[src]):
                row = pos[tgt].get(self.mult(b, x))
                if row is not None:
                    mat[row, col] = 1
            mats.append(mat)
        return LayeredModule._assemble(self, [len(elts) for elts in basis], mats)

    def projective_injectives(self):
        """All proj(i, k) with k >= 1, in (k, i) order."""
        return [self.proj(i, k) for k in range(1, self.m + 1)
                for i in range(self.quiver.n_vertices)]

    def simple(self, i, k):
        """The simple top of proj(i, k), spanned by the trivial path at
        (i, k): its products with the edges span the radical and drop."""
        if not (0 <= i < self.quiver.n_vertices and 0 <= k <= self.m):
            raise InputError(f"simple({i},{k}) out of range")
        basis = [[] for _ in range(self.n_components)]
        basis[self.comp_index(k, i)].append((PATH, k, i))
        return self._spanned(basis)

    def zero_module(self):
        """The zero module, built once per algebra."""
        if self._zero is None:
            self._zero = LayeredModule(self, [self._zero_layer()] * (self.m + 1), conn={})
        return self._zero

    def _zero_layer(self):
        return ([0] * self.quiver.n_vertices, None)

    def _concentrated(self, layer, k):
        """The module with the given layer at layer k and zero elsewhere."""
        layers = [self._zero_layer()] * (self.m + 1)
        layers[k] = layer
        return LayeredModule(self, layers, conn={})

    def __repr__(self):
        return f"ReplicatedAlgebra(m={self.m}, p={self.p}, dim={self.dim})"


_ALGEBRAS = {}


def fingerprint(quiver, m, p):
    """A short hash naming the algebra A^(m) of quiver over F_p."""
    text = quiver.to_text() + f"|m={m}|p={p}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_replicated(quiver, m, p=ef.DEFAULT_PRIME):
    """Construct (and memoize) the m-replicated algebra; associativity of
    the multiplication table is verified on all basis triples, once per
    algebra."""
    key = (quiver.to_text(), m, p)
    if key not in _ALGEBRAS:
        alg = ReplicatedAlgebra(quiver, m, p)
        alg.check_associativity()
        _ALGEBRAS[key] = alg
    return _ALGEBRAS[key]


def _layer(quiver, p, dims, maps=None):
    """A checked Layer: dims has one entry >= 0 per vertex, there is one
    map per arrow, of shape (dims[target], dims[source]), reduced mod p."""
    shape_dims = tuple(int(d) for d in dims)
    if len(shape_dims) != quiver.n_vertices or any(d < 0 for d in shape_dims):
        raise InputError(f"bad dimension vector {dims}")
    shapes = [(shape_dims[t], shape_dims[s])
              for s, t in zip(quiver.arrow_source, quiver.arrow_target)]
    if maps is None:
        maps = [ef.zeros(*want) for want in shapes]
    if len(maps) != len(shapes):
        raise InputError(f"expected {len(shapes)} arrow maps, got {len(maps)}")
    out = []
    for a, (mat, want) in enumerate(zip(maps, shapes)):
        mat = np.mod(mat.astype(np.int64), p) if isinstance(mat, np.ndarray) else ef.fmat(mat, p)
        if mat.shape != want:
            raise InputError(f"arrow {quiver.arrows[a][0]}: matrix shape {mat.shape}, expected {want}")
        out.append(mat)
    return Layer(shape_dims, out)


def component_offsets(mods):
    """(offsets, dims) of the direct sum of mods: offsets[i][c] is the first
    row of summand i inside component c, dims[c] the sum's dimension there."""
    offsets, run = [], [0] * mods[0].algebra.n_components
    for m in mods:
        offsets.append(run)
        run = [r + d for r, d in zip(run, m._dims)]
    return offsets, run


class LayeredModule:
    """A right module over a ReplicatedAlgebra: one layer per level, given
    as (dims, maps) pairs and stored as checked Layer records, plus
    connecting matrices for every dual basis element.

    End(M) and rad End(M) are computed once, on the module (end_basis and
    rad_end); the first end_basis makes the action matrices read-only, so
    the memo cannot go stale."""

    def __init__(self, algebra, layers, conn=None):
        """layers: one (dims, maps) pair per level, with conn the connecting
        matrices by (k, path id) (a missing one is zero); or an _Assembled
        record from _assemble."""
        self.algebra = algebra
        if not isinstance(layers, _Assembled):
            layers = self._coerce(layers, conn or {})
        self._adopt(*layers)
        self._validate()
        self._iso_key = None
        self._end = None
        self._rad = None

    def _coerce(self, layers, conn):
        """Public input: layers as (dims, maps) pairs and connecting
        matrices, copied to int64, reduced mod p and shape-checked; returns
        (dims, mats) in the form _adopt takes."""
        algebra = self.algebra
        quiver, p, pb = algebra.quiver, algebra.p, algebra.quiver.paths
        if len(layers) != algebra.m + 1:
            raise InputError(f"expected {algebra.m + 1} layers, got {len(layers)}")
        checked = [_layer(quiver, p, dims, maps) for dims, maps in layers]
        unknown = set(conn) - set(algebra.conn_keys)
        if unknown:
            names = sorted(f"k={k}, path {pb.name(q) if q in range(pb.n) else repr(q)}"
                           for k, q in unknown)
            raise InputError(f"connecting matrix outside the dual basis elements "
                             f"(layers 1..{algebra.m}, paths of the quiver): {'; '.join(names)}")
        mats = [mat for layer in checked for mat in layer.maps]
        for k, pid in algebra.conn_keys:
            mat = conn.get((k, pid))
            want = (checked[k - 1].dims[pb.source[pid]], checked[k].dims[pb.target[pid]])
            if mat is None:
                mat = ef.zeros(*want)
            else:
                try:
                    mat = np.array(mat, dtype=np.int64)
                    mat = np.mod(mat.reshape(want), p)
                except (TypeError, ValueError) as exc:
                    raise InputError(f"connecting matrix of {pb.name(pid)}* at layer {k}: "
                                     f"shape {getattr(mat, 'shape', mat)}, expected {want}") from exc
            mats.append(mat)
        return [d for layer in checked for d in layer.dims], mats

    def _adopt(self, dims, mats):
        """The one place that builds the module's fields, from internal
        input (see _Assembled) or from _coerce: shapes are checked, and the
        matrices become the module's own without a copy."""
        algebra = self.algebra
        if len(dims) != algebra.n_components or len(mats) != len(algebra.edges):
            raise InputError(f"expected {algebra.n_components} component dims and "
                             f"{len(algebra.edges)} action matrices, got {len(dims)} and {len(mats)}")
        self._dims = dims = tuple(dims)
        for e, ((src, tgt), mat) in enumerate(zip(algebra.edges, mats)):
            if mat.shape != (dims[tgt], dims[src]):
                raise InputError(f"action edge {e}: matrix shape {mat.shape}, "
                                 f"expected {(dims[tgt], dims[src])}")
        nv, na = algebra.quiver.n_vertices, len(algebra.quiver.arrows)
        self.layers = [Layer(dims[k * nv:(k + 1) * nv], list(mats[k * na:(k + 1) * na]))
                       for k in range(algebra.m + 1)]
        self.conn = dict(zip(algebra.conn_keys, mats[(algebra.m + 1) * na:]))
        self._edge_mats = tuple(mats)

    @classmethod
    def _assemble(cls, algebra, dims, mats):
        """The module with component dims and action matrices in the order
        of algebra.edges (the inverse of component_dims/edge_matrices).
        The matrices must be int64 and reduced mod p; they are adopted
        without a copy, and __init__ checks their shapes and relations."""
        return cls(algebra, _Assembled(dims, mats))

    def _validate(self):
        """Check every bimodule relation of the algebra with a non-empty
        product block (the others hold vacuously), in the order of
        algebra.relations(); the first failure raises InputError."""
        alg, mats = self.algebra, self._edge_mats
        for rel in alg.live_relations(self._dims):
            got = ef.mul(mats[rel.lhs], mats[rel.rhs], alg.p)
            holds = not got.any() if rel.out is None else np.array_equal(got, mats[rel.out])
            if not holds:
                raise InputError(alg.relation_message(rel))

    # -- bookkeeping ---------------------------------------------------------

    @property
    def p(self):
        return self.algebra.p

    def component_dims(self):
        return list(self._dims)

    @property
    def total_dim(self):
        return sum(self._dims)

    def is_zero(self):
        return self.total_dim == 0

    def dim_table(self):
        """Per-layer dimension vectors, e.g. ((1, 1), (1, 0))."""
        return tuple(layer.dims for layer in self.layers)

    def dim_label(self):
        return "|".join(",".join(str(d) for d in layer.dims) for layer in self.layers)

    def support_layers(self):
        return [k for k in range(self.algebra.m + 1) if sum(self.layers[k].dims)]

    def is_layer_module(self, k):
        return self.support_layers() in ([k], [])

    def edge_matrices(self):
        """Arrow and connecting matrices in the order of algebra.edges."""
        return self._edge_mats

    def iso_key(self):
        """(component dims, semi_invariants(self)), computed on first use:
        equal for isomorphic modules."""
        if self._iso_key is None:
            self._iso_key = (self._dims, semi_invariants(self))
        return self._iso_key

    def end_basis(self):
        """hom_layered(self, self), computed once; the action matrices
        become read-only first."""
        if self._end is None:
            for mat in self._edge_mats:
                mat.flags.writeable = False
            self._end = hom_layered(self, self)
        return self._end

    def rad_end(self):
        """rad End(M) as morphisms, computed once: the ideal that the
        locality certificate proves (`splitting.rad_end_blocks`), [] when
        dim End <= 1; AnomalyError when End is not certified local."""
        if self._rad is None:
            self._rad = [LayeredMorphism(self, self, blocks)
                         for blocks in rad_end_blocks(self)]
        return self._rad

    # -- constructions --------------------------------------------------------

    def kernel_of(self, blocks):
        """(kernel, inclusion) of the morphism out of this module with the
        given per-component blocks, spanned by their canonical kernel
        bases, without solves: each basis is the
        identity at its free rows, so the kernel acts at an edge src -> tgt
        by M_e . basis[src] read at the free rows of tgt.  That product must
        lie in the kernel at tgt, else AnomalyError."""
        alg, p = self.algebra, self.algebra.p
        bases, frees = zip(*[ef.null_space(b, p) for b in blocks])
        mats = []
        for (src, tgt), mat in zip(alg.edges, self._edge_mats):
            if not (mat.shape[0] and bases[src].shape[1]):
                mats.append(ef.zeros(len(frees[tgt]), bases[src].shape[1]))
                continue  # an empty image
            image = ef.mul(mat, bases[src], p)
            coords = image[frees[tgt]]
            if not np.array_equal(ef.mul(bases[tgt], coords, p), image):
                raise AnomalyError("the kernel of a morphism is not closed under the action")
            mats.append(coords)
        sub = LayeredModule._assemble(alg, [b.shape[1] for b in bases], mats)
        return sub, LayeredMorphism._reduced(sub, self, list(bases))

    def quotient(self, span):
        """Quotient by the span of per-component columns (must be stable
        under all actions).  Returns (quotient, projection)."""
        alg, p = self.algebra, self.algebra.p
        if len(span) != alg.n_components or any(
                s.shape[0] != dim for s, dim in zip(span, self._dims)):
            raise InputError("quotient span does not match the module's component dims")
        projs, sections = zip(*[ef.quotient_projection(span[c], dim, p) if dim
                                else (ef.zeros(0, 0), ef.zeros(0, 0))
                                for c, dim in enumerate(self._dims)])
        dims = [pr.shape[0] for pr in projs]
        mats = [ef.mul(projs[tgt], ef.mul(mat, sections[src], p), p) if dims[tgt] and dims[src]
                else ef.zeros(dims[tgt], dims[src])
                for (src, tgt), mat in zip(alg.edges, self._edge_mats)]
        quo = LayeredModule._assemble(alg, dims, mats)
        proj = LayeredMorphism._reduced(self, quo, list(projs))
        if not proj.is_morphism():
            raise InputError("quotient span is not stable under all actions")
        return quo, proj

    @staticmethod
    def block_sum(mods):
        """Block direct sum without its inclusions and projections; returns
        (sum, offsets) with offsets as in component_offsets.  One matrix is
        allocated per action edge, and only non-empty summand blocks are
        copied into it."""
        if not mods:
            raise InputError("direct_sum of empty list")
        alg = mods[0].algebra
        if any(m.algebra is not alg for m in mods):
            raise InputError("direct_sum: modules over different algebras")
        offsets, total_dims = component_offsets(mods)
        mats = [ef.zeros(total_dims[tgt], total_dims[src]) for src, tgt in alg.edges]
        for m, off in zip(mods, offsets):
            dims = m._dims
            for out, (src, tgt), mat in zip(mats, alg.edges, m._edge_mats):
                if mat.shape != (dims[tgt], dims[src]):
                    raise InputError(f"direct_sum: summand matrix shape {mat.shape}, "
                                     f"expected {(dims[tgt], dims[src])}")
                if mat.size:
                    out[off[tgt]:off[tgt] + dims[tgt], off[src]:off[src] + dims[src]] = mat
        return LayeredModule._assemble(alg, total_dims, mats), offsets

    @staticmethod
    def direct_sum(mods):
        """Block direct sum; returns (sum, inclusions, projections)."""
        total, offsets = LayeredModule.block_sum(mods)
        incls, projs = [], []
        for m, off in zip(mods, offsets):
            iblocks = [np.eye(t, d, -o, dtype=np.int64)
                       for t, d, o in zip(total._dims, m._dims, off)]
            incls.append(LayeredMorphism._reduced(m, total, iblocks))
            projs.append(LayeredMorphism._reduced(total, m, [b.T for b in iblocks]))
        return total, incls, projs

    def dual(self):
        """The dual module over the opposite algebra: layer K is the dual
        of layer m-K, arrow and connecting matrices transpose (in the
        order of algebra.dual_edges())."""
        alg = self.algebra
        dims = [d for layer in reversed(self.layers) for d in layer.dims]
        mats = [self._edge_mats[e].T for e in alg.dual_edges()]
        return LayeredModule._assemble(alg.opposite(), dims, mats)

    def to_json(self):
        alg, quiver = self.algebra, self.algebra.quiver
        connecting = []
        for k, pid in alg.conn_keys:
            mat = self.conn[(k, pid)]
            if mat.any():
                connecting.append({"k": k, "path": quiver.paths.name(pid), "matrix": mat.tolist()})
        layers = [{"dims": {v: layer.dims[i] for i, v in enumerate(quiver.vertices)},
                   "maps": {name: layer.maps[a].tolist()
                            for a, (name, _, _) in enumerate(quiver.arrows)}}
                  for layer in self.layers]
        return {"m": alg.m, "p": alg.p, "layers": layers, "connecting": connecting}

    @classmethod
    def from_json(cls, algebra, data):
        quiver = algebra.quiver
        try:
            if data["m"] != algebra.m or data["p"] != algebra.p:
                raise InputError("module JSON does not match the algebra (m or p differ)")
            layers, arrows = [], {name for name, _, _ in quiver.arrows}
            for k, entry in enumerate(data["layers"]):
                unknown = ([f"vertex {v!r}" for v in entry["dims"] if v not in quiver.vindex]
                           + [f"arrow {a!r}" for a in entry["maps"] if a not in arrows])
                if unknown:
                    raise InputError(f"layer {k} names no {', no '.join(unknown)} of the quiver")
                dims = [entry["dims"][v] for v in quiver.vertices]
                maps = []
                for name, s, t in quiver.arrows:
                    shape = (dims[quiver.vindex[t]], dims[quiver.vindex[s]])
                    raw = entry["maps"].get(name)
                    maps.append(ef.zeros(*shape) if raw is None
                                else np.array(raw, dtype=np.int64).reshape(shape))
                layers.append((dims, maps))
            conn = {}
            for entry in data["connecting"]:
                key = (entry["k"], quiver.paths.by_name(entry["path"]))
                if key in conn:
                    raise InputError(f"connecting entry k={entry['k']}, path {entry['path']} "
                                     "appears twice")
                conn[key] = np.array(entry["matrix"], dtype=np.int64)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad layered-module JSON: {exc}") from exc
        return cls(algebra, layers, conn=conn)

    def __repr__(self):
        return f"Layered({self.dim_label()})"


class LayeredMorphism:
    """A morphism of layered modules: per-component matrices commuting
    with all arrow and connecting actions."""

    def __init__(self, source, target, blocks):
        p = source.algebra.p
        sdims, tdims = source._dims, target._dims
        self._adopt(source, target,
                    [np.mod(np.asarray(b, dtype=np.int64).reshape(tdims[c], sdims[c]), p)
                     for c, b in enumerate(blocks)])

    @classmethod
    def _reduced(cls, source, target, blocks):
        """The morphism with the given int64 blocks, already reduced mod p:
        their shapes are checked, and they are adopted without a copy."""
        mor = cls.__new__(cls)
        mor._adopt(source, target, blocks)
        return mor

    def _adopt(self, source, target, blocks):
        sdims, tdims = source._dims, target._dims
        if len(blocks) != len(sdims) or any(
                b.shape != (t, s) for b, s, t in zip(blocks, sdims, tdims)):
            raise InputError(f"morphism blocks {[b.shape for b in blocks]} do not match "
                             f"{source!r} -> {target!r}")
        self.source = source
        self.target = target
        self.p = source.algebra.p
        self.blocks = blocks

    def is_morphism(self):
        sdims, tdims = self.source._dims, self.target._dims
        for src, tgt, ms, mt in _action_edges(self.source, self.target):
            if not (tdims[tgt] and sdims[src]):
                continue  # both sides are empty matrices
            lhs = ef.mul(self.blocks[tgt], ms, self.p)
            rhs = ef.mul(mt, self.blocks[src], self.p)
            if not np.array_equal(lhs, rhs):
                return False
        return True

    def is_zero(self):
        return all(not b.any() for b in self.blocks)

    def compose(self, other):
        """self after other."""
        return LayeredMorphism._reduced(other.source, self.target,
                                        [ef.mul(a, b, self.p)
                                         for a, b in zip(self.blocks, other.blocks)])

    def add(self, other):
        return LayeredMorphism._reduced(self.source, self.target,
                                        [np.mod(a + b, self.p)
                                         for a, b in zip(self.blocks, other.blocks)])

    def flatten(self):
        if not self.blocks:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([b.reshape(-1) for b in self.blocks])

    @staticmethod
    def from_flat(source, target, vec):
        """Inverse of flatten; vec is reduced mod p once, as a whole."""
        vec = np.mod(np.asarray(vec, dtype=np.int64), source.algebra.p)
        blocks, pos = [], 0
        for s, t in zip(source._dims, target._dims):
            blocks.append(vec[pos:pos + s * t].reshape(t, s))
            pos += s * t
        return LayeredMorphism._reduced(source, target, blocks)

    @staticmethod
    def identity(module):
        return LayeredMorphism._reduced(module, module, [ef.eye(d) for d in module._dims])

    def kernel(self):
        return self.source.kernel_of(self.blocks)

    def cokernel(self):
        return self.target.quotient(list(self.blocks))

    def is_surjective(self):
        return all(ef.rank(b, self.p) == b.shape[0] for b in self.blocks)

    def dual(self, dual_source, dual_target):
        """The dual morphism dual_target -> dual_source (direction
        reverses), between the given duals of target and source."""
        alg = self.source.algebra
        blocks = [self.blocks[alg.comp_index(alg.m - kk, i)].T
                  for kk, i in alg.components()]
        return LayeredMorphism._reduced(dual_target, dual_source, blocks)

    def __repr__(self):
        return f"LayeredMorphism({self.source!r} -> {self.target!r})"


def _action_edges(m, n):
    """Aligned action matrices of two modules over the same algebra:
    yields (src_comp, tgt_comp, m_matrix, n_matrix)."""
    if n.algebra is not m.algebra:
        raise InputError("modules over different algebras")
    for (src, tgt), ms, mt in zip(m.algebra.edges, m.edge_matrices(), n.edge_matrices()):
        yield src, tgt, ms, mt


def hom_complex(m, n):
    """The matrix d with Hom(M, N) = ker d.

    Columns hold the row-major entries of one matrix phi_c per component;
    each action edge e: c -> c' (an arrow of a layer, or a dual element)
    contributes the rows of (d phi)_e = N_e phi_c - phi_c' M_e.  At m = 0
    this is the two-term complex of the standard projective resolution
    over the hereditary algebra A, so Ext^1(M, N) = coker d there.
    """
    sdims, tdims = m._dims, n._dims
    col_off = [0]
    for s, t in zip(sdims, tdims):
        col_off.append(col_off[-1] + s * t)
    ncols = col_off[-1]
    p = m.algebra.p
    rows = []
    for src, tgt, ms, mt in _action_edges(m, n):
        blk = tdims[tgt] * sdims[src]
        if blk == 0:
            continue
        row = ef.zeros(blk, ncols)
        # each term is written through a 4-index view of its column block,
        # whose entry [i, j, u, l] is the block's entry ((i, j), (u, l));
        # splitting the axes of a slice gives a view, not a copy
        if tdims[src]:
            # vec_rm(N_e . phi_src) = (N_e kron I) vec_rm(phi_src): the
            # entry at ((i, j), (u, j)) is N_e[i, u]
            view = row[:, col_off[src]:col_off[src + 1]].reshape(
                tdims[tgt], sdims[src], tdims[src], sdims[src])
            diag = np.arange(sdims[src])
            view[:, diag, :, diag] = mt
        if sdims[tgt]:
            # vec_rm(phi_tgt . M_e) = (I kron M_e^T) vec_rm(phi_tgt): the
            # entry at ((i, j), (i, l)) is M_e[l, j], subtracted
            view = row[:, col_off[tgt]:col_off[tgt + 1]].reshape(
                tdims[tgt], sdims[src], tdims[tgt], sdims[tgt])
            diag = np.arange(tdims[tgt])
            view[diag, :, diag, :] = np.mod(view[diag, :, diag, :] - ms.T, p)
        rows.append(row)
    return np.vstack(rows) if rows else ef.zeros(0, ncols)


def hom_layered(m, n):
    """A basis of the space of layered morphisms M -> N (canonical)."""
    if m.algebra is not n.algebra:
        raise InputError("hom_layered: modules over different algebras")
    if not any(s and t for s, t in zip(m._dims, n._dims)):
        return []
    ker = ef.kernel_basis(hom_complex(m, n), m.p)
    return [LayeredMorphism.from_flat(m, n, ker[:, c]) for c in range(ker.shape[1])]


def is_iso_layered(m, n):
    """Whether M and N are isomorphic, decided exactly (at once when they
    are one object).

    Some basis element of Hom(M, N) is an isomorphism when M and N are
    isomorphic and one of them is indecomposable.  Proof: let phi: M -> N
    be an isomorphism and End(M) local (ARS, ch. I-II).  For h in
    Hom(M, N), phi^-1 h is a unit or lies in rad End(M), so the
    non-isomorphisms in Hom(M, N) are exactly phi rad End(M), a proper
    subspace; a basis of Hom(M, N) spans it and cannot lie in that
    subspace.  The same argument runs through End(N), with rad End(N) phi,
    when N is the indecomposable one.

    So when no basis element is invertible, M and N are not isomorphic if M
    is indecomposable, and otherwise they are compared through their
    Krull-Schmidt decompositions, whose pieces the scan decides exactly.
    The random generator inside a Fitting split picks which split is
    found, never whether one exists, and the pieces are unique up to
    isomorphism (Krull-Schmidt), so the verdict does not depend on it.
    """
    if m is n:
        return True
    if m._dims != n._dims:
        return False
    if m.total_dim == 0:
        return True
    basis = hom_layered(m, n)
    if not basis:
        return False
    if find_invertible_combo([h.blocks for h in basis], m.p) is not None:
        return True
    pieces = fitting_split(m)
    if len(pieces) == 1:
        return False
    classes = IsoRegistry()
    ids = sorted(classes.canon(x) for x in pieces)
    return ids == sorted(classes.canon(y) for y in fitting_split(n))


SEMI_INVARIANT_POINTS = (0, 1, 2, 5, 7, 11)


def semi_invariants(m):
    """Determinantal semi-invariants of M, one tuple per parallel pair.

    For each pair (e, e') of algebra.parallel_edge_pairs() whose common
    source c and target c' have dim c = dim c' = n > 0, the tuple holds
    det(M_e + t M_e') for t in SEMI_INVARIANT_POINTS (mod p) and then
    det M_e' (the point t = infinity), divided by its first nonzero entry
    (left as is when every entry is zero).

    Proof of invariance.  An isomorphism phi: M -> N has invertible
    components with N_e phi_c = phi_c' M_e for every action edge, so
    N_e = phi_c' M_e phi_c^-1 and N_e + t N_e' = phi_c' (M_e + t M_e')
    phi_c^-1.  Every entry of N's tuple is therefore the same entry of M's
    times det phi_c' / det phi_c, a nonzero constant of the pair, and the
    normalized tuples agree.  (Schofield, "Semi-invariants of quivers",
    J. LMS 43 (1991); Derksen-Weyman, JAMS 13 (2000).)
    """
    dims, mats, p = m._dims, m._edge_mats, m.p
    edges = m.algebra.edges
    out = []
    for e, f in m.algebra.parallel_edge_pairs():
        src, tgt = edges[e]
        if not dims[src] or dims[src] != dims[tgt]:
            continue
        vals = [ef.det(mats[e] + t * mats[f], p) for t in SEMI_INVARIANT_POINTS]
        vals.append(ef.det(mats[f], p))
        lead = next((v for v in vals if v), 1)
        inv = pow(lead, p - 2, p)
        out.append(tuple(v * inv % p for v in vals))
    return tuple(out)


class IsoRegistry:
    """One representative per isomorphism class, with ids in first-seen
    order.  Candidates are bucketed by component dimensions, filtered by
    iso_key() (which adds the semi-invariants, equal for isomorphic
    modules) and tried in id order, so a lookup finds the id a linear scan
    would, skipping only modules that cannot be isomorphic.  A module alone
    in its dimensions never computes its key.  Candidates are tested with
    is_iso_layered.

    The registry is also the Hom cache of its modules: hom_basis computes
    each space once per pair of distinct ids, and End comes from the
    module's own memo (LayeredModule.end_basis)."""

    def __init__(self, modules=()):
        self.modules = []
        self._buckets = {}
        self._by_identity = {}
        self._homs = {}
        for m in modules:
            self.add(m)

    def find(self, m):
        """Id of a registered module isomorphic to m, or None."""
        for idx in self._buckets.get(m._dims, ()):
            cand = self.modules[idx]
            if cand.iso_key() == m.iso_key() and is_iso_layered(cand, m):
                return idx
        return None

    def add(self, m):
        """Register m as a new class (no iso test) and return its id."""
        idx = len(self.modules)
        self.modules.append(m)
        self._buckets.setdefault(m._dims, []).append(idx)
        self._by_identity.setdefault(id(m), idx)
        return idx

    def canon(self, m):
        """Id of m's class, registering m when it is new."""
        idx = self.find(m)
        return self.add(m) if idx is None else idx

    def identity_index(self, m):
        """Id of this very object, or None (no iso test)."""
        return self._by_identity.get(id(m))

    def hom_basis(self, i, j):
        """Basis of Hom(M_i, M_j) for ids i, j, computed once."""
        if i == j:
            return self.modules[i].end_basis()
        key = (i, j)
        if key not in self._homs:
            self._homs[key] = hom_layered(self.modules[i], self.modules[j])
        return self._homs[key]

    def __len__(self):
        return len(self.modules)


def decompose_layered(m):
    """Indecomposable summands of a layered module with multiplicities."""
    classes = IsoRegistry()
    mults = []
    for piece in fitting_split(m):
        idx = classes.find(piece)
        if idx is None:
            idx = classes.add(piece)
            mults.append(0)
        mults[idx] += 1
    return list(zip(classes.modules, mults))


def span_dim(morphisms):
    """Dimension of the span of morphisms with a common source and target;
    zero morphisms are dropped before the rank."""
    nonzero = [f for f in morphisms if not f.is_zero()]
    if not nonzero:
        return 0
    return ef.rank(np.array([f.flatten() for f in nonzero], dtype=np.int64), nonzero[0].p)


# ---------------------------------------------------------------------------
# radical, top, socle, covers, envelopes, syzygies
# ---------------------------------------------------------------------------


def rep_at_layer(algebra, rep, k):
    """Embed an A-module (a module over the m = 0 algebra of the same
    quiver and prime) as a layered module concentrated in layer k."""
    base = rep.algebra
    if base.m != 0 or base.p != algebra.p or (
            base.quiver is not algebra.quiver
            and base.quiver.to_text() != algebra.quiver.to_text()):
        raise InputError("rep_at_layer: not a module over the base algebra")
    return algebra._concentrated(rep.layers[0], k)


def radical_span(m):
    """Per-component spans of rad M: images of arrow maps plus images of
    every connecting action (the radical of the algebra is spanned by the
    non-trivial paths and all dual elements)."""
    spans = [[] for _ in m._dims]
    for (_, tgt), mat in zip(m.algebra.edges, m._edge_mats):
        if mat.size:
            spans[tgt].append(mat)
    return [np.hstack(s) if s else ef.zeros(dim, 0) for dim, s in zip(m._dims, spans)]


def top_generators(m):
    """[(component, lift)] giving a basis of M / rad M; components where M
    is zero are skipped."""
    spans = radical_span(m)
    gens = []
    for c, (k, i) in enumerate(m.algebra.components()):
        if not m._dims[c]:
            continue
        _, section = ef.quotient_projection(spans[c], m._dims[c], m.p)
        for col in range(section.shape[1]):
            gens.append(((k, i), section[:, col].copy()))
    return gens


def generator_morphism(comp, vec, m):
    """The morphism proj(i, k) -> M sending the canonical generator to vec;
    the extension is forced by the right action of the algebra basis.  The
    paths from i are walked by prefix (PathBasis orders them by length):
    the image of q.a is M_a times the image of q.  Components where M is
    zero get empty blocks without products."""
    alg, p = m.algebra, m.p
    pb = alg.quiver.paths
    k, i = comp
    source = alg.proj(i, k)
    maps = m.layers[k].maps
    image = {}
    for q in pb.from_vertex[i]:
        arrs = pb.arrows_of[q]
        image[q] = (ef.mul(maps[arrs[-1]], image[pb.index[(i, arrs[:-1])]], p) if arrs
                    else vec.reshape(-1, 1))
    blocks = []
    for dim, elts in zip(m._dims, alg.proj_basis(i, k)):
        if not (dim and elts):
            blocks.append(ef.zeros(dim, len(elts)))
            continue
        blocks.append(np.hstack([image[q] if kind == PATH
                                 else ef.mul(m.conn[(k, q)], image[i], p)
                                 for kind, _, q in elts]))
    return source, LayeredMorphism._reduced(source, m, blocks)


def proj_cover(m):
    """Minimal projective cover: (P, epimorphism, summand list [(i, k)]);
    P is the algebra's proj_sum of the summands, shared by every cover
    with the same summands."""
    alg = m.algebra
    gens = top_generators(m)
    if not gens:
        zero = alg.zero_module()
        return zero, LayeredMorphism._reduced(zero, m, [ef.zeros(d, 0) for d in m._dims]), []
    summands = [(i, k) for (k, i), _ in gens]
    total, _ = alg.proj_sum(summands)
    columns = zip(*[generator_morphism(comp, vec, m)[1].blocks for comp, vec in gens])
    blocks = [np.hstack(cols) if dim and width else ef.zeros(dim, width)
              for dim, width, cols in zip(m._dims, total._dims, columns)]
    cover = LayeredMorphism._reduced(total, m, blocks)
    return total, cover, summands


def syzygy(m):
    """Kernel of the projective cover (zero for projectives)."""
    _, cover, _ = proj_cover(m)
    return cover.kernel()[0]


def inj_envelope(m):
    """Minimal injective envelope via duality: E(M) = D(P(D M)).

    Returns (E, embedding).  The double dual has literally the same
    matrices as M, so the dualized cover is a morphism out of M itself.
    """
    dm = m.dual()
    p_cover, cover, _ = proj_cover(dm)
    env = p_cover.dual()
    embed = cover.dual(dual_source=env, dual_target=m)
    return env, embed


def cosyzygy(m):
    """Cokernel of the injective envelope (zero for injectives)."""
    env, embed = inj_envelope(m)
    return embed.cokernel()[0]


def pd(m):
    """Projective dimension via iterated syzygies (finite: the global
    dimension of the algebra is at most 2m+1)."""
    cur = m
    steps = 0
    while not cur.is_zero():
        cur = syzygy(cur)
        steps += 1
        if steps > 2 * m.algebra.m + 2:
            raise AnomalyError("syzygies fail to terminate within the 2m+1 bound")
    return max(steps - 1, 0)


def global_dimension(algebra):
    """max pd over the simple modules S(i, k), computed once per algebra."""
    if algebra._gl_dim is None:
        algebra._gl_dim = max(pd(algebra.simple(i, k))
                              for k in range(algebra.m + 1)
                              for i in range(algebra.quiver.n_vertices))
    return algebra._gl_dim


# ---------------------------------------------------------------------------
# window conversion and the Sigma_k / U_k strata
# ---------------------------------------------------------------------------


def convert_window(m, target_algebra):
    """Reinterpret a layered module over an algebra with a different level
    (same quiver, same prime); the support must fit the target."""
    alg = m.algebra
    if target_algebra.quiver.to_text() != alg.quiver.to_text() or target_algebra.p != alg.p:
        raise InputError("convert_window: different quiver or prime")
    sup = m.support_layers()
    if sup and max(sup) > target_algebra.m:
        raise WindowOverflow(
            f"module supported up to layer {max(sup)} exceeds window m={target_algebra.m}")
    layers = [m.layers[k] if k <= alg.m else target_algebra._zero_layer()
              for k in range(target_algebra.m + 1)]
    conn = {key: mat for key, mat in m.conn.items() if key[0] <= target_algebra.m}
    return LayeredModule(target_algebra, layers, conn=conn)


def sigma_stratum(algebra, k):
    """Sigma_k, the k-th cosyzygy shifts of the indecomposable projective
    A-modules, as a list of modules over the enlarged window A^(K),
    K = k+1 (capped at 2m+2); one cosyzygy step raises the layer support by
    at most one, so members occupy layers <= k.  k may run up to 2m+1 (the
    projective-dimension ceiling), which the pd-sandwich checks need."""
    if not 0 <= k <= 2 * algebra.m + 1:
        raise InputError(f"sigma_stratum: k={k} outside [0, 2m+1]")
    cap = 2 * algebra.m + 2
    window_m = min(max(k + 1, 1), cap)
    walg = build_replicated(algebra.quiver, window_m, algebra.p)
    members = []
    for i in range(algebra.quiver.n_vertices):
        x = walg.proj(i, 0)
        for step in range(k):
            x = cosyzygy(x)
            sup = x.support_layers()
            if sup and max(sup) > step + 1:
                raise WindowOverflow(
                    f"Sigma_{k}: support layer {max(sup)} after {step + 1} cosyzygies")
        if not x.is_zero() and len(fitting_split(x)) != 1:
            raise AnomalyError(
                f"cosyzygy of P({algebra.quiver.vertices[i]}) decomposed in Sigma_{k}")
        members.append(x)
    return members


def u_stratum(algebra, k):
    """Members of Sigma_k supported in layers <= m, reinterpreted over the
    algebra: the indecomposables of Sigma_k that are A^(m)-modules.
    Computed once per algebra and k (construct_E takes U_i..U_{t-1} for
    every i); each call returns a fresh list of the same modules."""
    if not 0 <= k <= global_dimension(algebra) - 1:
        raise InputError(f"u_stratum: k={k} outside [0, gl.dim - 1]")
    if k not in algebra._u_strata:
        algebra._u_strata[k] = [convert_window(x, algebra) for x in sigma_stratum(algebra, k)
                                if not x.is_zero() and max(x.support_layers()) <= algebra.m]
    return list(algebra._u_strata[k])
