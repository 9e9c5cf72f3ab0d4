"""Quivers, hereditary path algebras, and the base-algebra entry points.

A module over the path algebra A = kQ is a LayeredModule over the m = 0
replicated algebra build_replicated(quiver, 0, p); its single layer is the
representation.  This module builds the standard A-modules, computes
Ext^1 from the Hom complex of `replicated.hom_complex`, realizes
extensions, and names the base-algebra calls (hom_basis, is_iso,
decompose, tau, tau_inverse) that run on the shared module machinery.
These five are one-line forwards to `replicated` and `artrans`, and they
stay for two reasons: callers working over A use them, so layer traces
report base-algebra work apart from work over A^(m); and the benchmark's
layer trace (bench/tracer.py TARGETS) pins all five, is_iso and decompose
even though only tests call them.  Almost split sequences, over A as over
every A^(m), are `artrans.ar_sequence`.

Conventions, fixed once and pinned by tests:
  * a right module over kQ is a representation in which an arrow a: i -> j
    induces a linear map from the component at i to the component at j;
  * the indecomposable projective P(i) has basis the paths with source i,
    so dim Hom(P(i), M) = dim M at i;
  * the indecomposable injective I(i) has basis the (duals of) paths with
    target i, so dim Hom(M, I(i)) = dim M at i;
  * path composition is written left to right: pq means "p then q" and
    exists when target(p) = source(q).

Matrices act on column vectors; the map for a: i -> j has shape
(dim j, dim i).
"""

import json

import numpy as np

from . import artrans as ar
from . import exactfield as ef
from . import replicated as rp
from .errors import InputError


class Quiver:
    """A finite connected acyclic quiver with named vertices and arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = [str(v) for v in vertices]
        self.arrows = [(str(n), str(s), str(t)) for (n, s, t) in arrows]
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex names")
        if len(set(n for n, _, _ in self.arrows)) != len(self.arrows):
            raise InputError("duplicate arrow names")
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        for n, s, t in self.arrows:
            if s not in self.vindex or t not in self.vindex:
                raise InputError(f"arrow {n}: unknown endpoint {s if s not in self.vindex else t}")
        self.n_vertices = len(self.vertices)
        self.arrow_source = [self.vindex[s] for _, s, _ in self.arrows]
        self.arrow_target = [self.vindex[t] for _, _, t in self.arrows]
        self._check_acyclic()
        self._check_connected()
        self._paths = None
        self._opposite = None

    def _check_acyclic(self):
        indeg = [0] * self.n_vertices
        for t in self.arrow_target:
            indeg[t] += 1
        queue = [v for v in range(self.n_vertices) if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for a, s in enumerate(self.arrow_source):
                if s == v:
                    indeg[self.arrow_target[a]] -= 1
                    if indeg[self.arrow_target[a]] == 0:
                        queue.append(self.arrow_target[a])
        if seen != self.n_vertices:
            raise InputError("quiver has a directed cycle")

    def _check_connected(self):
        if self.n_vertices == 0:
            raise InputError("empty quiver")
        adj = [set() for _ in range(self.n_vertices)]
        for a in range(len(self.arrows)):
            adj[self.arrow_source[a]].add(self.arrow_target[a])
            adj[self.arrow_target[a]].add(self.arrow_source[a])
        seen = {0}
        queue = [0]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != self.n_vertices:
            raise InputError("quiver is not connected")

    @property
    def paths(self):
        if self._paths is None:
            self._paths = PathBasis(self)
        return self._paths

    def opposite(self):
        """The quiver with all arrows reversed (names preserved)."""
        if self._opposite is None:
            op = Quiver(self.vertices, [(n, t, s) for (n, s, t) in self.arrows])
            op._opposite = self
            self._opposite = op
        return self._opposite

    def __repr__(self):
        return f"Quiver({self.vertices}, {self.arrows})"

    @classmethod
    def from_text(cls, text):
        """Parse the line format: `vertex <name>` / `arrow <name>: <src> -> <tgt>`."""
        vertices, arrows = [], []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("vertex "):
                name = line[len("vertex "):].strip()
                if not name:
                    raise InputError(f"line {lineno}: vertex needs a name")
                vertices.append(name)
            elif line.startswith("arrow "):
                rest = line[len("arrow "):]
                if ":" not in rest or "->" not in rest:
                    raise InputError(f"line {lineno}: expected 'arrow <name>: <src> -> <tgt>'")
                name, ends = rest.split(":", 1)
                src, tgt = ends.split("->", 1)
                if not name.strip() or not src.strip() or not tgt.strip():
                    raise InputError(f"line {lineno}: expected 'arrow <name>: <src> -> <tgt>'")
                arrows.append((name.strip(), src.strip(), tgt.strip()))
            else:
                raise InputError(f"line {lineno}: unrecognized directive {line.split()[0]!r}")
        if not vertices:
            raise InputError("quiver file declares no vertices")
        return cls(vertices, arrows)

    @classmethod
    def from_json(cls, data):
        try:
            arrows = [(a["name"], a["source"], a["target"]) for a in data["arrows"]]
            return cls(data["vertices"], arrows)
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad quiver JSON: {exc}") from exc

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            return cls.from_json(json.loads(text))
        return cls.from_text(text)

    def to_text(self):
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [f"arrow {n}: {s} -> {t}" for (n, s, t) in self.arrows]
        return "\n".join(lines) + "\n"


class PathBasis:
    """All directed paths of an acyclic quiver, closed under composition.

    Paths are stored as tuples of arrow indices, ordered by (length, arrow
    tuple); the first n_vertices entries are the trivial paths.  Maximal
    paths (no proper extension on either side) index the bimodule
    generators of the dual of the algebra.
    """

    def __init__(self, quiver):
        self.quiver = quiver
        paths = [() for _ in range(quiver.n_vertices)]
        srcs = list(range(quiver.n_vertices))
        tgts = list(range(quiver.n_vertices))
        frontier = [((a,), quiver.arrow_source[a], quiver.arrow_target[a])
                    for a in range(len(quiver.arrows))]
        while frontier:
            frontier.sort()
            for arrs, s, t in frontier:
                paths.append(arrs)
                srcs.append(s)
                tgts.append(t)
            nxt = []
            for arrs, s, t in frontier:
                for a in range(len(quiver.arrows)):
                    if quiver.arrow_source[a] == t:
                        nxt.append((arrs + (a,), s, quiver.arrow_target[a]))
            frontier = nxt
        self.arrows_of = paths
        self.source = srcs
        self.target = tgts
        # trivial paths share the empty arrow tuple, so keys carry the source
        self.index = {(srcs[i], arrs): i for i, arrs in enumerate(paths)}
        self.n = len(paths)
        self.from_vertex = [[] for _ in range(quiver.n_vertices)]
        self.into_vertex = [[] for _ in range(quiver.n_vertices)]
        for i in range(self.n):
            self.from_vertex[srcs[i]].append(i)
            self.into_vertex[tgts[i]].append(i)
        has_left = set()   # p admits a*p
        has_right = set()  # p admits p*a
        for i in range(self.n):
            for a in range(len(quiver.arrows)):
                if quiver.arrow_target[a] == srcs[i]:
                    has_left.add(i)
                if quiver.arrow_source[a] == tgts[i]:
                    has_right.add(i)
        self.maximal = [i for i in range(self.n)
                        if i not in has_left and i not in has_right]

    def compose(self, p, q):
        """Path id of pq ("p then q"), or None if not composable."""
        if self.target[p] != self.source[q]:
            return None
        return self.index[(self.source[p], self.arrows_of[p] + self.arrows_of[q])]

    def name(self, p):
        arrs = self.arrows_of[p]
        if not arrs:
            return f"e_{self.quiver.vertices[self.source[p]]}"
        return ".".join(self.quiver.arrows[a][0] for a in arrs)

    def by_name(self, name):
        if name.startswith("e_"):
            v = name[2:]
            if v not in self.quiver.vindex:
                raise InputError(f"unknown trivial path {name!r}")
            return self.quiver.vindex[v]
        aindex = {n: i for i, (n, _, _) in enumerate(self.quiver.arrows)}
        try:
            arrs = tuple(aindex[part] for part in name.split("."))
        except KeyError as exc:
            raise InputError(f"unknown arrow in path {name!r}: {exc}") from exc
        key = (self.quiver.arrow_source[arrs[0]], arrs)
        if key not in self.index:
            raise InputError(f"{name!r} is not a path of the quiver")
        return self.index[key]

    def reversed_id(self, opposite_paths, p):
        """Id of the reversed path inside the opposite quiver's basis."""
        return opposite_paths.index[(self.target[p], tuple(reversed(self.arrows_of[p])))]

    def standard_layer(self, kind, v):
        """(dims, maps) of the simple S(v), projective P(v) or injective
        I(v) for kind "S", "P" or "I", with 0/1 entries.

        P(v): the component at j has basis the paths v ~> j, and an arrow
        acts by right extension of paths.  I(v): the component at j has
        basis the dual paths j ~> v, and an arrow a: j -> j' sends q* to
        (q')* when q = a.q'.  S(v): the trivial path at v alone.
        """
        quiver, nv = self.quiver, self.quiver.n_vertices
        if kind == "P":
            basis = [[q for q in self.from_vertex[v] if self.target[q] == j] for j in range(nv)]
        elif kind == "I":
            basis = [[q for q in self.into_vertex[v] if self.source[q] == j] for j in range(nv)]
        else:
            basis = [[v] if j == v else [] for j in range(nv)]
        dims = [len(b) for b in basis]
        pos = [{q: k for k, q in enumerate(b)} for b in basis]
        maps = []
        for a in range(len(quiver.arrows)):
            s, t = quiver.arrow_source[a], quiver.arrow_target[a]
            mat = ef.zeros(dims[t], dims[s])
            for k, q in enumerate(basis[s]):
                if kind == "I":  # strip a leading arrow from a dual path
                    arrs = self.arrows_of[q]
                    ext = self.index.get((t, arrs[1:])) if arrs and arrs[0] == a else None
                else:
                    ext = self.index.get((self.source[q], self.arrows_of[q] + (a,)))
                if ext is not None and ext in pos[t]:
                    mat[pos[t][ext], k] = 1
            maps.append(mat)
        return dims, maps


# ---------------------------------------------------------------------------
# standard modules: LayeredModules over the m = 0 algebra
# ---------------------------------------------------------------------------


def simple(quiver, p, v):
    return rp.build_replicated(quiver, 0, p).simple(_vertex_index(quiver, v), 0)


def projective(quiver, p, v):
    return rp.build_replicated(quiver, 0, p).proj(_vertex_index(quiver, v), 0)


def injective(quiver, p, v):
    return rp.build_replicated(quiver, 0, p).inj(_vertex_index(quiver, v), 0)


def _vertex_index(quiver, v):
    key = str(v)
    if key not in quiver.vindex:
        raise InputError(f"unknown vertex {v!r}")
    return quiver.vindex[key]


# ---------------------------------------------------------------------------
# base-algebra entry points (the module docstring says why they stay)
# ---------------------------------------------------------------------------


def hom_basis(m, n):
    """A basis of Hom(M, N), canonical for fixed inputs."""
    return rp.hom_layered(m, n)


def is_iso(m, n):
    """Whether M and N are isomorphic."""
    return rp.is_iso_layered(m, n)


def decompose(m):
    """Indecomposable direct summands of M, as (module, multiplicity) pairs."""
    return rp.decompose_layered(m)


def tau(m):
    """Auslander-Reiten translate DTr; zero for projective modules."""
    return ar.tau(m)


def tau_inverse(m):
    """TrD; zero for injective modules."""
    return ar.tau_inverse(m)


# ---------------------------------------------------------------------------
# Ext^1 over the hereditary algebra
#
# The standard projective resolution of M gives, after applying Hom(-, N),
# the complex
#     0 -> Hom(M,N) -> (+)_i hom(M_i, N_i) --d--> (+)_{a: i->j} hom(M_i, N_j)
# with (d phi)_a = N_a phi_i - phi_j M_a, which is `replicated.hom_complex`
# at m = 0; Ext^1(M, N) is coker d.
# ---------------------------------------------------------------------------


def _ext_complex(m, n):
    if m.algebra.m != 0:
        raise InputError("Ext^1 over the hereditary algebra needs modules over the m = 0 algebra")
    return rp.hom_complex(m, n)


def ext1_dim(m, n):
    """dim Ext^1(M, N) over the hereditary path algebra."""
    d = _ext_complex(m, n)
    return d.shape[0] - ef.rank(d, m.p)


def euler_form(quiver, dm, dn):
    """<dm, dn> = sum_i dm_i dn_i - sum_{a:i->j} dm_i dn_j
    (= dim Hom - dim Ext^1 for hereditary kQ)."""
    val = sum(dm[i] * dn[i] for i in range(quiver.n_vertices))
    for a in range(len(quiver.arrows)):
        val -= dm[quiver.arrow_source[a]] * dn[quiver.arrow_target[a]]
    return val


def realize_extension(m, n, class_index):
    """The middle term of the class_index-th basis extension class of
    Ext^1(M, N): a short exact sequence 0 -> N -> E -> M -> 0.

    Returns (E, incl, proj).  Class indices enumerate the canonical basis
    of coker(d); the sequence is non-split exactly for nonzero classes.
    """
    edim = ext1_dim(m, n)
    if not (0 <= class_index < edim):
        raise InputError(f"extension class index {class_index} out of range (dim Ext = {edim})")
    coeffs = [0] * edim
    coeffs[class_index] = 1
    return realize_extension_class(m, n, coeffs)


def realize_extension_class(m, n, coeffs):
    """The middle term for an arbitrary coefficient vector over the
    canonical basis of Ext^1(M, N)."""
    d = _ext_complex(m, n)
    alg, p = m.algebra, m.p
    quiver = alg.quiver
    proj_q, section = ef.quotient_projection(d, d.shape[0], p)
    edim = proj_q.shape[0]
    if len(coeffs) != edim:
        raise InputError(f"expected {edim} class coefficients, got {len(coeffs)}")
    xi_flat = np.mod(section @ np.array(coeffs, dtype=np.int64).reshape(-1, 1), p)[:, 0]
    (ndims, nmaps), (mdims, mmaps) = n.layers[0], m.layers[0]
    dims = [a + b for a, b in zip(ndims, mdims)]
    maps = []
    pos = 0
    for a in range(len(quiver.arrows)):
        i, j = quiver.arrow_source[a], quiver.arrow_target[a]
        blk = ef.zeros(dims[j], dims[i])
        blk[:ndims[j], :ndims[i]] = nmaps[a]
        blk[:ndims[j], ndims[i]:] = xi_flat[pos:pos + ndims[j] * mdims[i]].reshape(
            ndims[j], mdims[i])
        blk[ndims[j]:, ndims[i]:] = mmaps[a]
        maps.append(blk)
        pos += ndims[j] * mdims[i]
    e = rp.LayeredModule(alg, [(dims, maps)], conn={})
    iblocks = [np.vstack([ef.eye(x), ef.zeros(y, x)]) for x, y in zip(ndims, mdims)]
    pblocks = [np.hstack([ef.zeros(y, x), ef.eye(y)]) for x, y in zip(ndims, mdims)]
    return e, rp.LayeredMorphism(n, e, iblocks), rp.LayeredMorphism(e, m, pblocks)


def sequence_splits(incl):
    """Whether a short exact sequence splits, given the inclusion N -> E:
    tests for a retraction r with r . incl = id."""
    n, e = incl.source, incl.target
    basis = hom_basis(e, n)
    if not basis:
        return n.total_dim == 0
    restricted = np.array([h.compose(incl).flatten() for h in basis], dtype=np.int64).T
    target = rp.LayeredMorphism.identity(n).flatten().reshape(-1, 1)
    return ef.solve(restricted, target, n.p) is not None
