"""Direct computation of gl.dim End(M) from structure constants.

An independent oracle for the approximation-based route.  The endomorphism
algebra E of M = (+) M_i (pairwise non-isomorphic summands, so E is basic)
is assembled once from Hom bases and composition: its structure constants
and rows spanning each rad End(M_s) (rad E is their sum with the
off-diagonal Hom blocks).  Every right E-module the oracle meets is a
syzygy, kept as a submodule K of a projective Q = (+) e_s E given by column
bases of its components K e_u; E acts on Q through the structure constants.  A resolution of the simple S_s starts from Omega S_s = rad e_s E
and repeatedly replaces K by the kernel of its projective cover, built from
generators of the top K / K rad E.  The global dimension is the maximum
projective dimension of the simple modules.
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

    The basis of the block e_s E e_t is bases[s][t], a basis of
    Hom(M_t, M_s); on a right module an element of e_s E e_t maps the
    s-component to the t-component.  consts[(s, t, u)][c, r] holds the
    coordinates of bases[s][t][c] . bases[t][u][r] in bases[s][u], kept only
    where the three blocks are non-empty.  rad E is the sum of the
    off-diagonal blocks and of the rad End(M_s); rad[s] holds rows spanning
    rad End(M_s) in the coordinates of bases[s][s].
    """

    def __init__(self, summands, hom_fn=rp.hom_layered, cap=ORACLE_CAP):
        self.p = summands[0].algebra.p
        self.n = n = len(summands)
        bases = [[hom_fn(summands[t], summands[s]) for t in range(n)] for s in range(n)]
        self.d = d = [[len(bases[s][t]) for t in range(n)] for s in range(n)]
        total = sum(map(sum, d))
        if total > cap:
            raise OracleUnavailable(
                f"end-algebra oracle cap exceeded: dim End = {total} > {cap}")
        self.consts = {}
        for s in range(n):
            for u in range(n):
                if d[s][u]:
                    self._build_consts(bases, s, u)
        self.rad = [self._diagonal_rad(bases[s][s]) for s in range(n)]

    def _build_consts(self, bases, s, u):
        """Coordinates in bases[s][u] of every product landing in e_s E e_u,
        read off a left inverse of the block's basis on its pivot rows."""
        p, d = self.p, self.d
        flat = np.array([f.flatten() for f in bases[s][u]], dtype=np.int64).T
        _, rows = ef.rref(flat.T, p)
        left = ef.zeros(flat.shape[1], flat.shape[0])
        left[:, rows] = ef.inverse(flat[rows], p)
        for t in range(self.n):
            if not (d[s][t] and d[t][u]):
                continue
            prods = np.array([phi.compose(psi).flatten() for phi in bases[s][t]
                              for psi in bases[t][u]], dtype=np.int64).T
            coords = ef.mul(left, prods, p)
            if not np.array_equal(ef.mul(flat, coords, p), prods):
                raise AnomalyError("morphism outside its Hom block span")
            self.consts[(s, t, u)] = coords.T.reshape(d[s][t], d[t][u], d[s][u])

    def _diagonal_rad(self, basis):
        """rad End(M_s): b_r - (lam_r / lam_r0) b_r0 for r != r0, where lam
        is the scalar part and b_r0 the first basis element with lam != 0.
        Assumes End(M_s) has residue field F_p; a summand whose residue
        field is larger (a Kronecker regular at a point of degree >= 2)
        raises AnomalyError, although LayeredModule.rad_end handles it."""
        lams = [single_eigenvalue(f.blocks, self.p) for f in basis]
        if None in lams:
            raise AnomalyError("diagonal basis morphism is not scalar + nilpotent")
        r0 = next(r for r, lam in enumerate(lams) if lam)
        rows = np.delete(ef.eye(len(basis)), r0, axis=0)
        rows[:, r0] = [(-lam * ef.inv_scalar(lams[r0], self.p)) % self.p
                       for r, lam in enumerate(lams) if r != r0]
        return rows

    def _act(self, mult, offsets, x, u, v, coeffs=None):
        """x . b in Q = (+) e_s E^mult[s] for every column of x (an element
        of Q e_u) and every element b of e_u E e_v: the basis, or the columns
        of coeffs in coordinates.  The columns of the result, in Q e_v, run
        over x first, then b.  offsets[s][v] is where the e_s E block of
        Q e_v starts."""
        d, k = self.d, x.shape[1]
        q = d[u][v] if coeffs is None else coeffs.shape[1]
        out = ef.zeros(offsets[-1][v], k * q)
        for s, c in enumerate(mult):
            const = self.consts.get((s, u, v)) if c else None
            if const is None:
                continue
            act = (const.transpose(0, 2, 1) if coeffs is None
                   else np.mod(np.tensordot(const, coeffs, axes=(1, 0)), self.p))
            block = x[offsets[s][u]:offsets[s + 1][u]].reshape(c, d[s][u], k)
            prod = np.tensordot(block, act, axes=(1, 0)).transpose(0, 2, 1, 3)
            out[offsets[s][v]:offsets[s + 1][v]] = prod.reshape(c * d[s][v], k * q)
        return np.mod(out, self.p)

    def syzygy(self, mult, basis):
        """Omega K for K with components basis[v] inside Q = (+) e_s E^mult[s]:
        the kernel of the projective cover of K, returned the same way
        inside the cover."""
        n, p = self.n, self.p
        offsets = np.vstack([np.zeros(n, dtype=np.int64),
                             np.cumsum(np.array(mult)[:, None] * self.d, axis=0)]).tolist()
        gens = []
        for v in range(n):
            # K rad E at v: K_u . e_u E e_v for u != v, K_v . rad End(M_v)
            span = np.hstack([self._act(mult, offsets, basis[v], v, v, self.rad[v].T)]
                             + [self._act(mult, offsets, basis[u], u, v) for u in range(n)
                                if u != v and basis[u].shape[1] and self.d[u][v]])
            _, pivots = ef.rref(np.hstack([span, basis[v]]), p)
            gens.append(basis[v][:, [c - span.shape[1] for c in pivots
                                     if c >= span.shape[1]]])
        cover = [g.shape[1] for g in gens]
        kernels = []
        for v in range(n):
            images = [self._act(mult, offsets, gens[u], u, v) for u in range(n)
                      if cover[u] and self.d[u][v]]
            kernels.append(ef.kernel_basis(np.hstack([ef.zeros(offsets[-1][v], 0)] + images), p))
        return cover, kernels

    def simple_pd(self, s):
        """Projective dimension of the simple module at summand s."""
        mult = [int(t == s) for t in range(self.n)]
        basis = [self.rad[s].T if t == s else ef.eye(self.d[s][t]) for t in range(self.n)]
        steps = 1
        while any(b.shape[1] for b in basis):
            mult, basis = self.syzygy(mult, basis)
            steps += 1
            if steps > PD_STEP_CAP:
                raise OracleUnavailable(
                    f"syzygies did not terminate within {PD_STEP_CAP} steps")
        return steps - 1


def end_algebra_gldim(gencog_or_summands, hom_fn=rp.hom_layered, cap=ORACLE_CAP):
    """gl.dim End(M) by explicit projective resolutions of the simple
    End(M)-modules.  Accepts a GenCog or a plain list of summand modules
    (the oracle does not require a generator-cogenerator)."""
    if hasattr(gencog_or_summands, "modules"):
        summands = gencog_or_summands.modules()
    else:
        summands = list(gencog_or_summands)
    algebra = EndAlgebra(summands, hom_fn=hom_fn, cap=cap)
    return max(algebra.simple_pd(s) for s in range(algebra.n))
