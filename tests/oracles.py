"""Independent test oracles shared between test modules."""

import itertools

import numpy as np

from replalg import exactfield as ef
from replalg import quiverrep as qr
from replalg import replicated as rp
from replalg import splitting as sp
from replalg import windows as w
from replalg.endalg import ORACLE_CAP, PD_STEP_CAP
from replalg.errors import AnomalyError, InputError, OracleUnavailable
from replalg.replicated import DUAL, PATH, LayeredModule, LayeredMorphism
from replalg.splitting import single_eigenvalue


def a2_quiver():
    return qr.Quiver(["1", "2"], [("a", "2", "1")])


def exhaustive_indecomposables_a2_m1(p):
    """Bounded-exhaustive census for the A_2, m=1 catalog: enumerate every
    layered module with all component dimensions <= 1 over F_p (three free
    scalars once the dimension vector is fixed; choices violating the
    bimodule relations are skipped), decompose, and collect the
    indecomposable summands up to isomorphism."""
    quiver = a2_quiver()
    alg = rp.build_replicated(quiver, 1, p)
    pb = quiver.paths
    a_id = pb.by_name("a")
    found = []
    for d10 in (0, 1):
        for d20 in (0, 1):
            for d11 in (0, 1):
                for d21 in (0, 1):
                    shapes = [(d10, d20), (d11, d21), (d20, d11)]
                    ranges = [range(p) if r * c else [0] for (r, c) in shapes]
                    for m0, m1, g in itertools.product(*ranges):
                        layers = [
                            ([d10, d20], [np.array([[m0]] if d10 * d20 else [],
                                                   dtype=np.int64).reshape(d10, d20)]),
                            ([d11, d21], [np.array([[m1]] if d11 * d21 else [],
                                                   dtype=np.int64).reshape(d11, d21)]),
                        ]
                        # the connecting matrices of e_1 and e_2 are the
                        # products of g with the arrow maps (prefix/suffix)
                        conn = {(1, a_id): np.array([[g]] if d20 * d11 else [],
                                                    dtype=np.int64).reshape(d20, d11),
                                (1, pb.by_name("e_1")): np.full((d10, d11), m0 * g),
                                (1, pb.by_name("e_2")): np.full((d20, d21), g * m1)}
                        try:
                            mod = rp.LayeredModule(alg, layers, conn=conn)
                        except InputError:
                            continue  # parameter choice violates the relations
                        for piece, _ in rp.decompose_layered(mod):
                            if not any(piece.component_dims() == k.component_dims()
                                       and rp.is_iso_layered(piece, k) for k in found):
                                found.append(piece)
    return found


# ---------------------------------------------------------------------------
# the factor-based Fitting search that replalg.splitting used before its
# locality certificate, kept verbatim as a reference for its replacement
# ---------------------------------------------------------------------------


def reference_single_eigenvalue(blocks, p):
    """lam if the endomorphism is lam*id + nilpotent, else None, by
    factoring the characteristic polynomial."""
    facs = ef.factor_poly(sp.endo_char_poly(blocks, p), p)
    if len(facs) == 1 and ef.poly_deg(facs[0][0]) == 1:
        return (-facs[0][0][0]) % p
    if not facs:  # zero-dimensional module
        return 0
    return None


def _reference_split_once(m, hom_fn, seed):
    ends = hom_fn(m, m)
    r = len(ends)
    if r <= 1:
        return None
    p = m.p
    for f in ends:
        pieces = sp._primary_split(m, f.blocks, p)
        if pieces:
            return pieces
    rng = np.random.default_rng(seed)
    nblocks = len(ends[0].blocks)
    for _ in range(20):
        coeffs = rng.integers(0, p, size=r)
        blocks = [np.mod(sum(int(c) * f.blocks[i] for c, f in zip(coeffs, ends)), p)
                  for i in range(nblocks)]
        pieces = sp._primary_split(m, blocks, p)
        if pieces:
            return pieces
    if p ** r <= 4096 * (p - 1):
        for code in range(1, p ** r):
            coeffs = [(code // p ** k) % p for k in range(r)]
            lead = next((c for c in coeffs if c), 0)
            if lead != 1:
                continue
            blocks = [np.mod(sum(c * f.blocks[i] for c, f in zip(coeffs, ends)), p)
                      for i in range(nblocks)]
            pieces = sp._primary_split(m, blocks, p)
            if pieces:
                return pieces
    return None


def reference_fitting_split(m, hom_fn, seed=ef.DEFAULT_SEED):
    """Pieces of m by the factor-based search: every basis endomorphism,
    then 20 seeded random combinations, then an exhaustive sweep when End
    is small; a piece is kept when none of them splits it."""
    out = []
    stack = [m]
    while stack:
        cur = stack.pop(0)
        if cur.total_dim == 0:
            continue
        pieces = _reference_split_once(cur, hom_fn, seed)
        if pieces is None:
            out.append(cur)
        else:
            stack.extend(pieces)
    return out


# ---------------------------------------------------------------------------
# LayeredModule._validate as it was before the relations were compiled
# once per algebra, kept verbatim as a reference for the compiled table
# ---------------------------------------------------------------------------


def _left_extension(quiver, pb, a, q):
    """Path id of (a then q), or None when the composite does not exist."""
    if quiver.arrow_target[a] != pb.source[q]:
        return None
    return pb.index.get((quiver.arrow_source[a], (a,) + pb.arrows_of[q]))


def _right_extension(quiver, pb, q, a):
    """Path id of (q then a), or None when the composite does not exist."""
    if quiver.arrow_source[a] != pb.target[q]:
        return None
    return pb.index.get((pb.source[q], pb.arrows_of[q] + (a,)))


def reference_validate(self):
    """The bimodule-relation check of a LayeredModule as it was before the
    relations were compiled per algebra: every relation re-derived and
    evaluated on every call, vacuous ones included.  Raises InputError."""
    alg, pb, quiver, p = self.algebra, self.algebra.quiver.paths, self.algebra.quiver, self.algebra.p
    for k in range(1, alg.m + 1):
        for q in range(pb.n):
            g_q = self.conn[(k, q)]
            arrs = pb.arrows_of[q]
            for a in range(len(quiver.arrows)):
                left = _left_extension(quiver, pb, a, q)
                if left is not None:
                    got = ef.mul(self.layers[k - 1].maps[a], self.conn[(k, left)], p)
                    if not np.array_equal(got, g_q):
                        raise InputError(
                            f"prefix relation fails at layer {k}, path {pb.name(q)}")
                right = _right_extension(quiver, pb, q, a)
                if right is not None:
                    got = ef.mul(self.conn[(k, right)], self.layers[k].maps[a], p)
                    if not np.array_equal(got, g_q):
                        raise InputError(
                            f"suffix relation fails at layer {k}, path {pb.name(q)}")
                # zero products: q* . a = 0 unless a is the first arrow
                # of q, and a . q* = 0 unless a is the last arrow of q
                if quiver.arrow_source[a] == pb.source[q] and arrs[:1] != (a,):
                    if ef.mul(self.layers[k - 1].maps[a], g_q, p).any():
                        raise InputError(
                            f"zero product fails: arrow after {pb.name(q)}* at layer {k}")
                if quiver.arrow_target[a] == pb.target[q] and arrs[-1:] != (a,):
                    if ef.mul(g_q, self.layers[k].maps[a], p).any():
                        raise InputError(
                            f"zero product fails: {pb.name(q)}* after arrow at layer {k}")
            if k >= 2:
                for r in range(pb.n):
                    if pb.target[r] == pb.source[q]:
                        two = ef.mul(self.conn[(k - 1, r)], self.conn[(k, q)], p)
                        if two.any():
                            raise InputError(
                                f"two-step zero fails: {pb.name(r)}* after {pb.name(q)}*")


def reference_hom_complex(m, n):
    """replicated.hom_complex as it was before its index-scatter build:
    every block is an np.kron with a fresh identity."""
    sdims, tdims = m._dims, n._dims
    col_off = [0]
    for s, t in zip(sdims, tdims):
        col_off.append(col_off[-1] + s * t)
    ncols = col_off[-1]
    p = m.algebra.p
    rows = []
    for src, tgt, ms, mt in rp._action_edges(m, n):
        blk = tdims[tgt] * sdims[src]
        if blk == 0:
            continue
        row = ef.zeros(blk, ncols)
        if tdims[src]:
            # vec_rm(N_e . phi_src) = (N_e kron I) vec_rm(phi_src)
            row[:, col_off[src]:col_off[src + 1]] = np.kron(mt, ef.eye(sdims[src]))
        if sdims[tgt]:
            # vec_rm(phi_tgt . M_e) = (I kron M_e^T) vec_rm(phi_tgt)
            row[:, col_off[tgt]:col_off[tgt + 1]] = np.mod(
                row[:, col_off[tgt]:col_off[tgt + 1]] - np.kron(ef.eye(tdims[tgt]), ms.T), p)
        rows.append(row)
    return np.vstack(rows) if rows else ef.zeros(0, ncols)


# ---------------------------------------------------------------------------
# determinants by the Leibniz formula, and the iso-class index as a linear
# scan, references for exactfield.det and replicated.IsoRegistry
# ---------------------------------------------------------------------------


def permutation_det(a, p):
    """det a mod p as the sum over permutations s of sign(s) times the
    product of a[i, s(i)] (small matrices only)."""
    n = a.shape[0]
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= int(a[i, perm[i]])
        total += term
    return total % p


class LinearScanRegistry:
    """One representative per isomorphism class, ids in first-seen order:
    every lookup tests each registered module of equal component dims, in
    id order, with is_iso_layered."""

    def __init__(self):
        self.modules = []

    def canon(self, m):
        for idx, cand in enumerate(self.modules):
            if cand.component_dims() == m.component_dims() \
                    and rp.is_iso_layered(cand, m):
                return idx
        self.modules.append(m)
        return len(self.modules) - 1


# ---------------------------------------------------------------------------
# LayeredModule.submodule and artrans.proj_basis_elements, kept verbatim as
# references for kernel_of and ReplicatedAlgebra.proj_basis
# ---------------------------------------------------------------------------


def reference_submodule(module, bases):
    """Submodule spanned by per-component column bases (must be closed
    under all actions).  Returns (sub, inclusion)."""
    alg = module.algebra
    if len(bases) != alg.n_components:
        raise InputError(f"expected {alg.n_components} submodule bases, got {len(bases)}")
    bases = [np.mod(np.asarray(b, dtype=np.int64), alg.p) for b in bases]
    mats = []
    for (src, tgt), mat in zip(alg.edges, module._edge_mats):
        coords = ef.solve(bases[tgt], ef.mul(mat, bases[src], alg.p), alg.p)
        if coords is None:
            raise InputError("submodule bases not closed under the action")
        mats.append(coords)
    sub = LayeredModule._assemble(alg, [b.shape[1] for b in bases], mats)
    return sub, LayeredMorphism._reduced(sub, module, bases)


def proj_basis_elements(algebra, i, k):
    """Algebra basis elements of proj(i, k) per component, matching the
    column order used by the proj constructor."""
    pb = algebra.quiver.paths
    out = {}
    for (l, j) in algebra.components():
        if l == k:
            out[(l, j)] = [(PATH, k, q) for q in pb.from_vertex[i] if pb.target[q] == j]
        elif k >= 1 and l == k - 1:
            out[(l, j)] = [(DUAL, k, r) for r in pb.into_vertex[i] if pb.source[r] == j]
        else:
            out[(l, j)] = []
    return out


# ---------------------------------------------------------------------------
# artrans._presentation_matrix as it was before it read the presentation off
# the projective cover alone: Omega M is built as a submodule, given its own
# projective cover, and the two are composed.  Kept verbatim as a reference
# ---------------------------------------------------------------------------


def reference_presentation_matrix(m):
    """Minimal projective presentation P1 -> P0 -> M -> 0, with the map
    expressed as algebra elements: returns (summands0, summands1, lam)
    where lam[s][t] is a list of (basis element, coefficient)."""
    alg = m.algebra
    p0, cover, summands0 = rp.proj_cover(m)
    ker, incl = cover.kernel()
    p1, cover1, summands1 = rp.proj_cover(ker)
    if not summands1:
        return summands0, [], []
    phi = incl.compose(cover1)
    # column offset of each P1 generator inside its component of P1
    gen_cols = []
    run = {}
    for t, (i, k) in enumerate(summands1):
        layout = proj_basis_elements(alg, i, k)
        start = {c: run.get(c, 0) for c in layout}
        for c, elts in layout.items():
            run[c] = run.get(c, 0) + len(elts)
        gen = (PATH, k, i)  # the trivial path at i has id i
        gen_cols.append(start[(k, i)] + layout[(k, i)].index(gen))
    # row layout of P0 per component
    layouts0 = [proj_basis_elements(alg, i, k) for (i, k) in summands0]
    lam = []
    for s in range(len(summands0)):
        lam.append([[] for _ in summands1])
    for t, (i, k) in enumerate(summands1):
        comp = alg.comp_index(k, i)
        col = phi.blocks[comp][:, gen_cols[t]]
        row = 0
        for s in range(len(summands0)):
            elts = layouts0[s][(k, i)]
            for b in elts:
                c = int(col[row])
                if c:
                    lam[s][t].append((b, c))
                row += 1
        assert row == len(col)
    return summands0, summands1, lam


# ---------------------------------------------------------------------------
# artrans.transpose_layered as it was before it wrote the presentation
# blocks in place: both direct sums are built, and every (s, t) block goes
# through incl_t . mor . proj_s and an add.  Kept verbatim as a reference
# ---------------------------------------------------------------------------


def reference_transpose_layered(m):
    """Tr M as a module over the opposite replicated algebra."""
    alg = m.algebra
    op = alg.opposite()
    summands0, summands1, lam = reference_presentation_matrix(m)
    if not summands1:
        return op.zero_module()

    def sigma_comp(i, k):
        return (i, alg.m - k)

    parts1 = [op.proj(*sigma_comp(i, k)) for (i, k) in summands1]
    total1, incls1, _ = LayeredModule.direct_sum(parts1)
    if not summands0:
        return total1
    parts0 = [op.proj(*sigma_comp(i, k)) for (i, k) in summands0]
    total0, _, projs0 = LayeredModule.direct_sum(parts0)
    acc = None
    for s, (i0, k0) in enumerate(summands0):
        io, ko = sigma_comp(i0, k0)
        for t in range(len(summands1)):
            if not lam[s][t]:
                continue
            i1, k1 = summands1[t]
            layout_t = proj_basis_elements(op, *sigma_comp(i1, k1))
            vec = np.zeros(parts1[t].layers[ko].dims[io], dtype=np.int64)
            slot = layout_t[(ko, io)]
            for b, c in lam[s][t]:
                vec[slot.index(alg.to_opposite_element(b))] = c
            _, mor = rp.generator_morphism((ko, io), np.mod(vec, alg.p), parts1[t])
            blk = incls1[t].compose(mor).compose(projs0[s])
            acc = blk if acc is None else acc.add(blk)
    if acc is None:
        return total1
    return acc.cokernel()[0]


# ---------------------------------------------------------------------------
# exactfield.quotient_projection as it was before it shared its null-space
# construction with kernel_basis, kept verbatim as a reference
# ---------------------------------------------------------------------------


def reference_quotient_projection(span, n, p):
    """Projection onto canonical coordinates for F^n modulo a subspace.

    span: matrix whose columns span the subspace U (may be redundant).
    Returns (proj, section): proj is q x n with kernel exactly U, section
    is n x q with proj @ section = I, where q = n - dim U.
    """
    if n == 0:
        return ef.zeros(0, 0), ef.zeros(0, 0)
    if span.size == 0:
        return ef.eye(n), ef.eye(n)
    r, pivots = ef.rref(span.T, p)
    free = [c for c in range(n) if c not in pivots]
    q = len(free)
    proj = ef.zeros(q, n)
    for j, fc in enumerate(free):
        proj[j, fc] = 1
        for i, pc in enumerate(pivots):
            proj[j, pc] = (-int(r[i, fc])) % p
    section = ef.zeros(n, q)
    for j, fc in enumerate(free):
        section[fc, j] = 1
    return proj, section


# ---------------------------------------------------------------------------
# exactfield.rref as it was before it eliminated on Python int rows (one
# row cleared at a time on an int64 array), kept verbatim as a reference
# ---------------------------------------------------------------------------


def reference_rref(a, p):
    """Reduced row echelon form with canonical pivoting.

    Pivots are chosen scanning columns left to right, taking the lowest
    remaining row with a nonzero entry, so the output (and every quantity
    derived from it: ranks, kernels, quotient coordinates) is unique for a
    given input.  Returns (R, pivot_columns).
    """
    r = np.mod(np.array(a, dtype=np.int64), p)
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        sel = None
        for i in range(row, nrows):
            if r[i, col] % p != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != row:
            r[[row, sel]] = r[[sel, row]]
        r[row] = np.mod(r[row] * ef.inv_scalar(r[row, col], p), p)
        for i in range(nrows):
            if i != row and r[i, col] != 0:
                r[i] = np.mod(r[i] - r[i, col] * r[row], p)
        pivots.append(col)
        row += 1
    return r, pivots


# ---------------------------------------------------------------------------
# windows.base_indecomposables as it was before it realized one extension
# class per line: every nonzero class when p^e <= EXT_ENUM_CAP, kept
# verbatim as a reference
# ---------------------------------------------------------------------------


def reference_base_indecomposables(quiver, p, bound, seed=ef.DEFAULT_SEED):
    """Window census of indecomposable modules over the base hereditary
    algebra with every vertex dimension <= bound (partial by design)."""
    found = rp.IsoRegistry()

    def add(m):
        if m.total_dim == 0 or any(d > bound for d in m.component_dims()) \
                or found.find(m) is not None:
            return False
        found.add(m)
        return True

    for v in quiver.vertices:
        add(qr.simple(quiver, p, v))
        add(qr.projective(quiver, p, v))
        add(qr.injective(quiver, p, v))
    for v in quiver.vertices:
        cur = qr.projective(quiver, p, v)
        for _ in range(4 * bound):
            cur = qr.tau_inverse(cur)
            if cur.total_dim == 0 or any(d > bound for d in cur.component_dims()):
                break
            add(cur)
        cur = qr.injective(quiver, p, v)
        for _ in range(4 * bound):
            cur = qr.tau(cur)
            if cur.total_dim == 0 or any(d > bound for d in cur.component_dims()):
                break
            add(cur)
    rng = np.random.default_rng(seed)
    # kept across rounds, keyed by census ids: a class realized in an
    # earlier round has already offered every piece of its middle term
    ext1, realized = {}, set()
    for _ in range(w.CLOSURE_ROUNDS):
        grew = False
        snapshot = list(found.modules)
        for i, m in enumerate(snapshot):
            for j, n in enumerate(snapshot):
                if any(a + b > bound for a, b in zip(m.component_dims(), n.component_dims())):
                    continue
                if (i, j) not in ext1:
                    ext1[i, j] = qr.ext1_dim(m, n)
                e = ext1[i, j]
                if e == 0:
                    continue
                if p ** e <= w.EXT_ENUM_CAP:
                    coeff_list = [w._digits(code, p, e) for code in range(1, p ** e)]
                else:
                    coeff_list = [[1 if t == k else 0 for t in range(e)] for k in range(e)]
                    coeff_list += [list(rng.integers(0, p, size=e)) for _ in range(4)]
                for coeffs in coeff_list:
                    key = (i, j, tuple(int(c) for c in coeffs))
                    if not any(coeffs) or key in realized:
                        continue
                    realized.add(key)
                    middle, _, _ = qr.realize_extension_class(m, n, coeffs)
                    for piece, _ in qr.decompose(middle):
                        if add(piece):
                            grew = True
        if not grew:
            break
    return found.modules


# ---------------------------------------------------------------------------
# rad End(M) as replicated.rad_end_basis computed it before LayeredModule.rad_end
# read it from the locality certificate alone, kept verbatim as a reference
# ---------------------------------------------------------------------------


def reference_rad_end_basis(ends):
    """Basis of rad End(M), rref-reduced, from a basis `ends` of End(M),
    for M with local End.  When every f is scalar + nilpotent (residue
    field F_p) it is spanned by the nonzero f - lam*id.  Otherwise it is
    the ideal J of splitting.certified_radical, which is rad End when the
    certificate holds (residue field F_p^e, e > 1); AnomalyError when it
    does not."""
    if not ends:
        return []
    x, p = ends[0].source, ends[0].p
    lams = [sp.single_eigenvalue(f.blocks, p) for f in ends]
    if None in lams:
        basis = [f.blocks for f in ends]
        mins = [sp.primary_poly(blocks, p)[0] for blocks in basis]
        ideal = None if None in mins else sp.certified_radical(basis, mins, p)
        if ideal is None:
            raise AnomalyError(f"End({x!r}) is not certified local")
        return [LayeredMorphism(x, x, blocks) for blocks in ideal]
    flats = []
    for f, lam in zip(ends, lams):
        g = np.concatenate([np.mod(b - lam * ef.eye(b.shape[0]), p).reshape(-1)
                            for b in f.blocks])
        if g.any():
            flats.append(g)
    if not flats:
        return []
    r, pivots = ef.rref(np.array(flats, dtype=np.int64), p)
    return [LayeredMorphism.from_flat(x, x, r[t]) for t in range(len(pivots))]


# ---------------------------------------------------------------------------
# the AR quiver's arrows as dim rad/rad^2 over all pairs of a catalog, as
# artrans computed them before it read them from almost split sequences,
# kept verbatim as a reference for ARQuiver.mult
# ---------------------------------------------------------------------------


def irreducible_mult(rad_basis, n, i, j):
    """dim rad(X_i, X_j) / rad^2(X_i, X_j), the multiplicity of the arrow
    X_i -> X_j in the AR quiver, over modules with ids 0..n-1 whose
    radical spaces rad_basis(a, b) gives; rad^2 is spanned by the
    composites through every X_z."""
    rad = rad_basis(i, j)
    if not rad:
        return 0
    return len(rad) - rp.span_dim(v.compose(u) for z in range(n)
                                   for u in rad_basis(i, z) for v in rad_basis(z, j))


def reference_ar_mult(catalog):
    """The matrix of irreducible_mult over every pair of catalog ids."""
    n = len(catalog)
    return np.array([[irreducible_mult(catalog.rad_basis, n, i, j)
                      if i == j or catalog.hom_dim(i, j) else 0
                      for j in range(n)] for i in range(n)], dtype=np.int64)


# The End(M) oracle before it resolved E/rad E in one pass: one resolution
# per simple, and the cover images of each syzygy step recomputed from
# scratch.  Kept verbatim as the reference for endalg.end_algebra_gldim.

class ReferenceEndAlgebra:
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


def reference_end_algebra_gldim(gencog_or_summands, hom_fn=rp.hom_layered, cap=ORACLE_CAP):
    """gl.dim End(M) by explicit projective resolutions of the simple
    End(M)-modules.  Accepts a GenCog or a plain list of summand modules
    (the oracle does not require a generator-cogenerator)."""
    if hasattr(gencog_or_summands, "modules"):
        summands = gencog_or_summands.modules()
    else:
        summands = list(gencog_or_summands)
    algebra = ReferenceEndAlgebra(summands, hom_fn=hom_fn, cap=cap)
    return max(algebra.simple_pd(s) for s in range(algebra.n))
