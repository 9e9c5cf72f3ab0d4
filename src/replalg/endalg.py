"""Direct computation of gl.dim End(M) from structure constants.

An independent oracle for the approximation-based route, off its computing
path: only `verify.suite_prop41` and the tests call it.  The endomorphism
algebra E of M = (+) M_i (pairwise non-isomorphic summands, so E is basic)
is assembled once from Hom bases and composition: its structure constants
and rows spanning each rad End(M_s) (rad E is their sum with the
off-diagonal Hom blocks).  Every right E-module the oracle meets is a
syzygy, kept as a submodule K of a projective Q = (+) e_s E given by column
bases of its components K e_u; E acts on Q through the structure constants.

gl.dim E = pd(E/rad E), and a minimal resolution of a direct sum is the sum
of the minimal resolutions, so one resolution answers for all simples.  It
starts from rad E inside (+) e_s E and repeatedly replaces K by the kernel
of its projective cover, built from generators of the top K / K rad E; the
number of steps until K = 0 is the largest projective dimension of a
simple.  The products of K with the off-diagonal blocks, which span part
of K rad E, carry the top generators into the cover as well, so each step
multiplies once by them (Auslander-Reiten-Smalo, ch. I-II).
"""

import numpy as np

from . import exactfield as ef
from . import replicated as rp
from .errors import AnomalyError, InputError, OracleUnavailable
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
    rad End(M_s) in the coordinates of bases[s][s].  A dimension of E
    above ORACLE_CAP, read at call time, raises OracleUnavailable.
    bench/selftest.py checks the hom_fn default, so it stays rp.hom_layered.
    """

    def __init__(self, summands, hom_fn=rp.hom_layered):
        if not summands:
            raise InputError("end-algebra oracle needs at least one summand")
        self.p = summands[0].algebra.p
        self.n = n = len(summands)
        bases = [[hom_fn(summands[t], summands[s]) for t in range(n)] for s in range(n)]
        self.d = d = [[len(bases[s][t]) for t in range(n)] for s in range(n)]
        total = sum(map(sum, d))
        if total > ORACLE_CAP:
            raise OracleUnavailable(
                f"end-algebra oracle cap exceeded: dim End = {total} > {ORACLE_CAP}")
        self.consts = {}
        for s in range(n):
            for u in range(n):
                if d[s][u]:
                    self._build_consts(bases, s, u)
        self.rad = [self._diagonal_rad(bases[s][s]) for s in range(n)]

    def _build_consts(self, bases, s, u):
        """Coordinates in bases[s][u] of every product landing in e_s E e_u,
        read off a left inverse of the block's basis on its pivot rows: the
        RREF T [flat^T | I] has the identity at those columns, so T is the
        inverse of their transpose.  The products through every t form one
        matrix: one left-inverse product and one span check per block."""
        p, d = self.p, self.d
        flat = np.array([f.flatten() for f in bases[s][u]], dtype=np.int64).T
        r, rows = ef.rref(np.hstack([flat.T, ef.eye(d[s][u])]), p)
        left = ef.zeros(flat.shape[1], flat.shape[0])
        left[:, rows] = r[:, flat.shape[0]:].T
        mids = [t for t in range(self.n) if d[s][t] and d[t][u]]
        # phi.compose(psi).flatten(), reduced once for the whole matrix
        prods = np.mod([np.concatenate([(a @ b).ravel() for a, b in zip(phi.blocks, psi.blocks)])
                        for t in mids for phi in bases[s][t] for psi in bases[t][u]], p).T
        coords = ef.mul(left, prods, p)
        if not np.array_equal(ef.mul(flat, coords, p), prods):
            raise AnomalyError("morphism outside its Hom block span")
        col = 0
        for t in mids:
            size = d[s][t] * d[t][u]
            self.consts[(s, t, u)] = coords[:, col:col + size].T.reshape(
                d[s][t], d[t][u], d[s][u])
            col += size

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
        Q e_v starts.  Entries of a product stay below p^2 dim E, so int64
        is exact."""
        d, p, k = self.d, self.p, x.shape[1]
        q = d[u][v] if coeffs is None else coeffs.shape[1]
        out = ef.zeros(offsets[-1][v], k * q)
        for s, c in enumerate(mult):
            const = self.consts.get((s, u, v)) if c else None
            if const is None:
                continue
            act = const.transpose(0, 2, 1)
            if coeffs is not None:
                act = np.mod(act @ coeffs, p)
            block = x[offsets[s][u]:offsets[s + 1][u]].reshape(c, d[s][u], k)
            prod = block.transpose(0, 2, 1).reshape(c * k, d[s][u]) @ \
                act.reshape(d[s][u], d[s][v] * q)
            out[offsets[s][v]:offsets[s + 1][v]] = prod.reshape(
                c, k, d[s][v], q).transpose(0, 2, 1, 3).reshape(c * d[s][v], k * q)
        return np.mod(out, p)

    def syzygy(self, mult, basis):
        """Omega K for K with components basis[v] inside Q = (+) e_s E^mult[s]:
        the kernel of the projective cover of K, returned the same way
        inside the cover.  The products K_u . e_u E e_v (u != v) span K rad E
        at v together with K_v . rad End(M_v); the top generators at u are
        columns of basis[u], so their images in the cover at v are columns of
        the same products, and only those at u = v, by all of e_v E e_v, are
        computed again."""
        n, p, d = self.n, self.p, self.d
        offsets = np.vstack([np.zeros(n, dtype=np.int64),
                             np.cumsum(np.array(mult)[:, None] * d, axis=0)]).tolist()
        cross = {(u, v): self._act(mult, offsets, basis[u], u, v)
                 for u in range(n) for v in range(n)
                 if u != v and basis[u].shape[1] and d[u][v]}
        chosen = []
        for v in range(n):
            span = np.hstack([self._act(mult, offsets, basis[v], v, v, self.rad[v].T)]
                             + [cross[(u, v)] for u in range(n) if (u, v) in cross])
            _, pivots = ef.rref(np.hstack([span, basis[v]]), p)
            chosen.append([c - span.shape[1] for c in pivots if c >= span.shape[1]])
        kernels = []
        for v in range(n):
            images = [ef.zeros(offsets[-1][v], 0)]
            for u in range(n):
                if not (chosen[u] and d[u][v]):
                    continue
                if u == v:
                    images.append(self._act(mult, offsets, basis[v][:, chosen[v]], v, v))
                else:
                    cols = np.add.outer(np.array(chosen[u]) * d[u][v], np.arange(d[u][v]))
                    images.append(cross[(u, v)][:, cols.ravel()])
            kernels.append(ef.kernel_basis(np.hstack(images), p))
        return [len(c) for c in chosen], kernels

    def top_pd(self, summands):
        """Projective dimension of the top of (+) e_s E over the given
        summands s (ascending), that is the largest pd of their simples.
        The resolution starts from its radical: at component t the
        block-diagonal sum over s of rad End(M_t) (s = t) and of all of
        e_s E e_t (s != t)."""
        mult = [int(s in summands) for s in range(self.n)]
        basis = [_block_diag([self.rad[t].T if s == t else ef.eye(self.d[s][t])
                              for s in summands]) for t in range(self.n)]
        steps = 1
        while any(b.shape[1] for b in basis):
            mult, basis = self.syzygy(mult, basis)
            steps += 1
            if steps > PD_STEP_CAP:
                raise OracleUnavailable(
                    f"syzygies did not terminate within {PD_STEP_CAP} steps")
        return steps - 1


def _block_diag(blocks):
    """The block-diagonal matrix with the given blocks."""
    out = ef.zeros(sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks))
    row = col = 0
    for b in blocks:
        out[row:row + b.shape[0], col:col + b.shape[1]] = b
        row, col = row + b.shape[0], col + b.shape[1]
    return out


def end_algebra_gldim(gencog_or_summands, hom_fn=rp.hom_layered):
    """gl.dim End(M) = pd(E/rad E), by one explicit projective resolution
    of the direct sum of the simple End(M)-modules.  Accepts a GenCog or a
    plain list of summand modules (the oracle does not require a
    generator-cogenerator).  bench/selftest.py checks the hom_fn default."""
    if hasattr(gencog_or_summands, "modules"):
        summands = gencog_or_summands.modules()
    else:
        summands = list(gencog_or_summands)
    algebra = EndAlgebra(summands, hom_fn=hom_fn)
    return algebra.top_pd(range(algebra.n))
