"""Direct computation of gl.dim End(M) from structure constants.

An independent oracle for the approximation-based route: the endomorphism
algebra of M = (+) M_i (pairwise non-isomorphic summands, so End(M) is
basic) is assembled from Hom bases and composition; right End(M)-modules
are component tuples with one action matrix per basis element; projective
covers come from tops (the radical is the span of the off-diagonal blocks
plus the nilpotent parts of the diagonal ones); the global dimension is
the maximum projective dimension of the simple modules.
"""

import numpy as np

from . import exactfield as ef
from . import replicated as rp
from .errors import AnomalyError, OracleUnavailable
from .splitting import single_eigenvalue

ORACLE_CAP = 400
PD_STEP_CAP = 64


class EndAlgebra:
    """End((+) M_i) by structure constants.

    Basis elements are (s, t, r): the r-th basis morphism of Hom(M_t, M_s),
    i.e. an element of e_s E e_t; it acts on a right module from the
    s-component to the t-component.
    """

    def __init__(self, summands, hom_fn=rp.hom_layered, cap=ORACLE_CAP):
        self.summands = summands
        self.p = summands[0].algebra.p
        n = len(summands)
        self.n = n
        self.bases = [[hom_fn(summands[t], summands[s]) for t in range(n)]
                      for s in range(n)]
        total = sum(len(self.bases[s][t]) for s in range(n) for t in range(n))
        if total > cap:
            raise OracleUnavailable(
                f"end-algebra oracle cap exceeded: dim End = {total} > {cap}")
        self.dim = total
        self._flat = {}
        for s in range(n):
            for t in range(n):
                flats = [f.flatten() for f in self.bases[s][t]]
                self._flat[(s, t)] = (np.array(flats, dtype=np.int64).T
                                      if flats else None)

    def coords(self, s, t, morphism):
        """Coordinates of a morphism M_t -> M_s in the chosen basis."""
        flat = self._flat[(s, t)]
        if flat is None:
            raise AnomalyError("morphism in an empty Hom block")
        sol = ef.solve(flat, morphism.flatten().reshape(-1, 1), self.p)
        if sol is None:
            raise AnomalyError("morphism outside its Hom block span")
        return sol[:, 0]

    def compose_coords(self, b1, b2):
        """Coordinates of b1 . b2 (matrix product in E): b1 = (s,t,r1) in
        e_s E e_t, b2 = (t,u,r2) in e_t E e_u; the product lies in e_s E e_u."""
        s, t, r1 = b1
        t2, u, r2 = b2
        assert t == t2
        phi = self.bases[s][t][r1]    # M_t -> M_s
        psi = self.bases[t][u][r2]    # M_u -> M_t
        comp = phi.compose(psi)       # M_u -> M_s
        if comp.is_zero():
            return None
        return self.coords(s, u, comp)

    def identity_coords(self, s):
        m = self.summands[s]
        ident = rp.LayeredMorphism.identity(m)
        return self.coords(s, s, ident)

    def scalar_part(self, s, r):
        """lam with basis morphism r of End(M_s) equal to lam*id + nilpotent.
        Assumes End(M_s) has residue field F_p: a summand whose residue
        field is larger (a Kronecker regular at a point of degree >= 2)
        still raises AnomalyError here, although rp.rad_end_basis handles
        it."""
        lam = single_eigenvalue(self.bases[s][s][r].blocks, self.p)
        if lam is None:
            raise AnomalyError("diagonal basis morphism is not scalar + nilpotent")
        return lam

    def rad_elements(self):
        """rad E as a list of (block (s,t), coefficient vector over that
        block's basis)."""
        out = []
        for s in range(self.n):
            for t in range(self.n):
                k = len(self.bases[s][t])
                if s != t:
                    for r in range(k):
                        vec = np.zeros(k, dtype=np.int64)
                        vec[r] = 1
                        out.append(((s, t), vec))
                else:
                    ident = self.identity_coords(s)
                    rows = []
                    for r in range(k):
                        lam = self.scalar_part(s, r)
                        vec = np.zeros(k, dtype=np.int64)
                        vec[r] = 1
                        rows.append(np.mod(vec - lam * ident, self.p))
                    if rows:
                        mat, pivots = ef.rref(np.array(rows, dtype=np.int64), self.p)
                        for idx in range(len(pivots)):
                            if mat[idx].any():
                                out.append(((s, s), mat[idx].copy()))
        return out


class EModule:
    """A right End(M)-module: one space per summand index plus an action
    matrix per algebra basis element (s, t, r), mapping the s-component
    to the t-component."""

    def __init__(self, algebra, dims, action):
        self.algebra = algebra
        self.dims = list(dims)
        self.action = action  # dict (s, t, r) -> matrix dims[t] x dims[s]

    @property
    def total_dim(self):
        return sum(self.dims)

    def block_action(self, s, t, coeffs):
        """Action of an element of e_s E e_t given by coefficients."""
        out = ef.zeros(self.dims[t], self.dims[s])
        for r, c in enumerate(coeffs):
            if c:
                out = np.mod(out + int(c) * self.action[(s, t, r)], self.algebra.p)
        return out


def projective_emodule(algebra, s):
    """e_s E as a right module: component at t is the basis of e_s E e_t."""
    dims = [len(algebra.bases[s][t]) for t in range(algebra.n)]
    action = {}
    for t in range(algebra.n):
        for u in range(algebra.n):
            for r in range(len(algebra.bases[t][u])):
                mat = ef.zeros(dims[u], dims[t])
                for col in range(dims[t]):
                    prod = algebra.compose_coords((s, t, col), (t, u, r))
                    if prod is not None:
                        mat[:, col] = prod
                action[(t, u, r)] = mat
    return EModule(algebra, dims, action)


def simple_emodule(algebra, s):
    """top(e_s E): one-dimensional at s; a diagonal basis morphism acts by
    its scalar part, everything else by zero."""
    dims = [1 if t == s else 0 for t in range(algebra.n)]
    action = {}
    for t in range(algebra.n):
        for u in range(algebra.n):
            for r in range(len(algebra.bases[t][u])):
                mat = ef.zeros(dims[u], dims[t])
                if t == u == s:
                    mat[0, 0] = algebra.scalar_part(s, r)
                action[(t, u, r)] = mat
    return EModule(algebra, dims, action)


def _top_generators(module):
    alg = module.algebra
    spans = [[] for _ in range(alg.n)]
    for (s, t), coeffs in alg.rad_elements():
        mat = module.block_action(s, t, coeffs)
        if mat.size:
            spans[t].append(mat)
    gens = []
    for t in range(alg.n):
        span = np.hstack(spans[t]) if spans[t] else ef.zeros(module.dims[t], 0)
        _, section = ef.quotient_projection(span, module.dims[t], alg.p)
        for c in range(section.shape[1]):
            gens.append((t, section[:, c].copy()))
    return gens


def _cover_and_kernel(module):
    """Projective cover of an EModule and the kernel with induced action."""
    alg = module.algebra
    gens = _top_generators(module)
    if not gens:
        return None  # zero module
    parts = [projective_emodule(alg, s) for s, _ in gens]
    dims = [sum(part.dims[t] for part in parts) for t in range(alg.n)]
    offs = []
    run = [0] * alg.n
    for part in parts:
        offs.append(list(run))
        run = [run[t] + part.dims[t] for t in range(alg.n)]
    # cover morphism blocks per component
    blocks = []
    for t in range(alg.n):
        cols = []
        for gen_idx, (s, vec) in enumerate(gens):
            # basis elements (s, t, r) map to vec . (s, t, r)
            k = len(alg.bases[s][t])
            mat = ef.zeros(module.dims[t], k)
            for r in range(k):
                mat[:, r] = ef.mul(module.action[(s, t, r)], vec.reshape(-1, 1),
                                   alg.p)[:, 0]
            cols.append(mat)
        blocks.append(np.hstack(cols) if cols else ef.zeros(module.dims[t], 0))
    # kernel bases per component
    kbases = [ef.kernel_basis(blocks[t], alg.p) for t in range(alg.n)]
    kdims = [b.shape[1] for b in kbases]
    # induced action on the kernel: total action on the cover, restricted
    kaction = {}
    for t in range(alg.n):
        for u in range(alg.n):
            for r in range(len(alg.bases[t][u])):
                big = ef.zeros(dims[u], dims[t])
                for pi, part in enumerate(parts):
                    sub = part.action[(t, u, r)]
                    big[offs[pi][u]:offs[pi][u] + part.dims[u],
                        offs[pi][t]:offs[pi][t] + part.dims[t]] = sub
                moved = ef.mul(big, kbases[t], alg.p)
                coords = ef.solve(kbases[u], moved, alg.p)
                if coords is None:
                    raise AnomalyError("kernel not stable under the algebra action")
                kaction[(t, u, r)] = coords
    return EModule(alg, kdims, kaction)


def emodule_pd(module):
    """Projective dimension of a right End(M)-module by iterated covers."""
    cur = module
    steps = 0
    while cur is not None and cur.total_dim:
        cur = _cover_and_kernel(cur)
        if cur is not None and cur.total_dim == 0:
            cur = None
        steps += 1
        if steps > PD_STEP_CAP:
            raise OracleUnavailable(f"syzygies did not terminate within {PD_STEP_CAP} steps")
    return max(steps - 1, 0)


def end_algebra_gldim(gencog_or_summands, hom_fn=rp.hom_layered, cap=ORACLE_CAP):
    """gl.dim End(M) by explicit projective resolutions of the simple
    End(M)-modules.  Accepts a GenCog or a plain list of summand modules
    (the oracle does not require a generator-cogenerator)."""
    if hasattr(gencog_or_summands, "modules"):
        summands = gencog_or_summands.modules()
    else:
        summands = list(gencog_or_summands)
    algebra = EndAlgebra(summands, hom_fn=hom_fn, cap=cap)
    worst = 0
    for s in range(algebra.n):
        worst = max(worst, emodule_pd(simple_emodule(algebra, s)))
    return worst
