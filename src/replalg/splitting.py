"""Fitting-lemma decomposition of layered modules.

An endomorphism whose characteristic polynomial has at least two distinct
irreducible factors splits the module into the corresponding primary
components (Fitting's lemma).  Each piece that does not split is returned
with the kind of its indecomposability verdict; both kinds are proofs:

  * ``brick``: End(M) is one-dimensional;
  * ``certified-local``: End(M) is proved local from one basis of it (see
    `certified_radical`): a nilpotent two-sided ideal J whose quotient
    End/J is a field.

Splits read End(M) from the module's own memo (`m.end_basis()`), so End
of one module object is computed once however often it is split.  The
certificate is complete: once every basis endomorphism is primary, it
fails only when End(M) is not local, and then a Las Vegas search finds a
split (see `_split_once`).  Its fixed random generator picks which split
is found, never whether one exists.  A module with local End(M) is
indecomposable, so the certificate never hides a split.  Its ideal J is
rad End(M) (`rad_end_blocks`, memoized by LayeredModule.rad_end).

`find_invertible_combo` scans a basis of Hom(M, N) for an isomorphism,
which decides whether M and N are isomorphic when one of them is
indecomposable (proof at replicated.is_iso_layered).
"""

import math

import numpy as np

from . import exactfield as ef
from .errors import AnomalyError, BudgetExceeded

DIM_CAP = 2000

BRICK = "brick"
CERTIFIED_LOCAL = "certified-local"
VERDICT_KINDS = (BRICK, CERTIFIED_LOCAL)


def find_invertible_combo(bases, p):
    """A basis element of Hom(M, N) (as block lists) that is invertible,
    or None."""
    for blocks in bases:
        if all(ef.is_invertible(b, p) for b in blocks):
            return blocks
    return None


def endo_char_poly(blocks, p):
    """char poly of a block-diagonal endomorphism (product over components)."""
    cp = [1]
    for b in blocks:
        if b.shape[0]:
            cp = ef.poly_mul(cp, ef.char_poly(b, p), p)
    return cp


def _scalar_root(cp, p):
    """lam when the monic polynomial cp equals (x - lam)^n, else None.

    Write n = q * n1 with q a power of p and p not dividing n1.  Over F_p,
    (x - lam)^n = (x^q - lam^q)^n1 = (x^q - lam)^n1, whose coefficient of
    x^(n-q) is -n1 * lam; so lam is read off that coefficient and cp is
    compared with the binomial expansion, without factoring.
    """
    n = len(cp) - 1
    if n == 0:
        return 0
    q = 1
    while n % (q * p) == 0:
        q *= p
    n1 = n // q
    lam = (-cp[n - q] * pow(n1, p - 2, p)) % p
    want = [0] * (n + 1)
    for k in range(n1 + 1):
        want[q * k] = math.comb(n1, k) * pow(-lam, n1 - k, p) % p
    return lam if want == cp else None


def single_eigenvalue(blocks, p):
    """lam if the endomorphism is lam*id + nilpotent, else None (0 on a
    zero-dimensional module); no factoring is needed."""
    return _scalar_root(endo_char_poly(blocks, p), p)


def _primary_split(m, blocks, p, facs=None):
    """Split m along the primary components of an endomorphism, or None.
    facs, when given, is the factorization of its characteristic polynomial."""
    if facs is None:
        facs = ef.factor_poly(endo_char_poly(blocks, p), p)
    if len(facs) < 2:
        return None
    pieces = []
    for g, e in facs:
        gpow = [1]
        for _ in range(e):
            gpow = ef.poly_mul(gpow, g, p)
        sub, _ = m.kernel_of([ef.poly_eval_matrix(gpow, b, p) for b in blocks])
        pieces.append(sub)
    assert sum(piece.total_dim for piece in pieces) == m.total_dim
    return pieces


def _mul(a, b, p):
    """Composite a after b of block-diagonal endomorphisms."""
    return [np.mod(x @ y, p) for x, y in zip(a, b)]


def _span(elems, shapes, p):
    """A basis, as block lists, of the span of block-diagonal matrices."""
    if not elems:
        return []
    rows = np.array([np.concatenate([b.ravel() for b in e]) for e in elems],
                    dtype=np.int64)
    r, pivots = ef.rref(rows, p)
    out = []
    for i in range(len(pivots)):
        blocks, pos = [], 0
        for shape in shapes:
            size = shape[0] * shape[1]
            blocks.append(r[i, pos:pos + size].reshape(shape))
            pos += size
        out.append(blocks)
    return out


def certified_radical(basis, mins, p):
    """rad End(M) as a basis of block lists (rref-reduced) when End(M) is
    local, else None: the certificate is sound and complete.

    basis spans End(M) as block lists; mins[i] is an irreducible polynomial
    g_i with g_i(f_i) nilpotent (f_i is primary).  Let J be the two-sided
    ideal generated by S = {g_i(f_i)} and the commutators f_i f_j - f_j f_i,
    and e = dim End - dim J.  Certify when J is nilpotent and some g_i has
    degree e; J is then returned.

    Soundness.  1 is not in the nilpotent ideal J, so End/J is nonzero, and
    the image of f_i there has a minimal polynomial dividing g_i, hence
    equal to g_i.  So F_p[f_i] mod J is a copy of the field F_p[x]/(g_i),
    of dimension e = dim End/J: End/J is that field (F_p when e = 1).  If x
    is not in J, there is y with xy = 1 - j for some j in J; j is
    nilpotent, so xy is a unit and x has a right inverse, hence is a unit
    (End is finite-dimensional).  So the non-units of End form the ideal J:
    End is local with J = rad End, and M is indecomposable (ARS, ch. I-II).

    Completeness.  Let End be local with residue field K = F_{p^e}.
    (1) Every element of S lies in rad End: g_i(f_i) is nilpotent, hence a
    non-unit, and a commutator vanishes in the commutative K.  So J lies in
    rad End and is nilpotent.  (2) End/J is commutative and spanned by the
    images of the f_i, each a root of the separable g_i (F_p is perfect),
    so End/J is reduced: J = rad End.  (3) The proper subfields of K span a
    proper subspace (by the normal basis theorem it is the ideal of
    F_p[x]/(x^e - 1) generated by the gcd of the (x^e - 1)/(x^(e/l) - 1)
    over the primes l | e, a gcd of positive degree), so some f_i maps to a
    generator of K, and then deg g_i = e.  Where J without the commutators
    already certifies, End/J is a field and the commutators lie in J, so
    the returned basis is the same.
    """
    shapes = [b.shape for b in basis[0]]
    gens = [[ef.poly_eval_matrix(g, b, p) for b in f] for f, g in zip(basis, mins)]
    gens += [[np.mod(x - y, p) for x, y in zip(_mul(f, h, p), _mul(h, f, p))]
             for i, f in enumerate(basis) for h in basis[i + 1:]]
    gens = _span(gens, shapes, p)
    # End.S.End: left multiples first, then right ones
    left = _span([_mul(f, s, p) for f in basis for s in gens], shapes, p)
    ideal = _span([_mul(x, f, p) for x in left for f in basis], shapes, p)
    e = len(basis) - len(ideal)
    if all(ef.poly_deg(g) != e for g in mins):
        return None
    power = ideal
    while power:
        # J^(k+1) lies in J^k, so an equal dimension means J^k = J^(k+1) != 0
        nxt = _span([_mul(x, y, p) for x in power for y in ideal], shapes, p)
        if len(nxt) == len(power):
            return None
        power = nxt
    return ideal


def primary_poly(blocks, p):
    """(g, facs) for an endomorphism f given by its blocks.  When f is
    primary, g is the irreducible polynomial with g(f) nilpotent: x - lam
    read off without factoring when f is lam*id + nilpotent (facs is then
    None), else the one factor of the characteristic polynomial.  When f
    is not primary, g is None and facs, the factorization of the
    characteristic polynomial, has two or more factors."""
    cp = endo_char_poly(blocks, p)
    lam = _scalar_root(cp, p)
    if lam is not None:
        return [(-lam) % p, 1], None
    facs = ef.factor_poly(cp, p)
    return (facs[0][0] if len(facs) == 1 else None), facs


def _primary_pass(m):
    """(pieces, None) when some basis endomorphism of m is not primary,
    with pieces the split along its primary components; else (None, J),
    with J = certified_radical(...) for the basis of m.end_basis(), or
    None when the certificate fails.  For dim End(m) >= 2."""
    p = m.p
    basis = [f.blocks for f in m.end_basis()]
    mins = []
    for blocks in basis:
        g, facs = primary_poly(blocks, p)
        if g is None:
            return _primary_split(m, blocks, p, facs), None
        mins.append(g)
    return None, certified_radical(basis, mins, p)


def rad_end_blocks(m):
    """rad End(m) as an rref basis of block lists, proved by the locality
    certificate: [] when dim End(m) <= 1, else the ideal J of
    `certified_radical`; AnomalyError when End(m) is not certified local
    (m is then decomposable)."""
    if len(m.end_basis()) <= 1:
        return []
    _, ideal = _primary_pass(m)
    if ideal is None:
        raise AnomalyError(f"End({m!r}) is not certified local")
    return ideal


def _split_once(m):
    """(pieces, None) for one nontrivial split of m, or (None, kind) when m
    is indecomposable, with kind the verdict kind (see the module doc).

    Each basis endomorphism f_i of m.end_basis() is tested first: either
    its characteristic polynomial is (x - lam)^n (read off without
    factoring), or it is factored once.  The first f_i with two distinct
    irreducible factors splits m.  Otherwise every f_i is primary, which is
    what the locality certificate needs.  When it fails, End is not local,
    and random combinations are tried until one splits m (a Las Vegas
    search).  The generator is fixed: it picks which split is found, never
    whether one exists.

    Why the search ends.  The projection End -> End/rad is linear and onto,
    so a uniform f maps to a uniform element a of the semisimple algebra
    End/rad, which is not a field.  As rad is nilpotent, h(f) is nilpotent
    exactly when h(a) = 0, so f splits m exactly when the minimal
    polynomial of a has two distinct irreducible factors.  With two or more
    simple factors, a is primary only if its first two components are
    primary for one and the same irreducible polynomial; with one factor
    M_n(F_q), n >= 2, only if a has a single eigenvalue class.  Both have
    probability bounded away from 1 (for End/rad = F_p x F_p a try splits
    with probability 1 - 1/p, for M_2(F_2) with 3/8), so the bound of 1000
    tries is reached only if this argument is wrong.
    """
    ends = m.end_basis()
    r = len(ends)
    if r <= 1:
        return None, BRICK
    pieces, ideal = _primary_pass(m)
    if pieces:
        return pieces, None
    if ideal is not None:
        return None, CERTIFIED_LOCAL
    p = m.p
    basis = [f.blocks for f in ends]
    rng = np.random.default_rng(0)
    nblocks = len(basis[0])
    for _ in range(1000):
        coeffs = rng.integers(0, p, size=r)
        blocks = [np.mod(sum(int(c) * f[i] for c, f in zip(coeffs, basis)), p)
                  for i in range(nblocks)]
        pieces = _primary_split(m, blocks, p)
        if pieces:
            return pieces, None
    raise AnomalyError(f"End({m!r}) is not local, yet 1000 random endomorphisms "
                       "failed to split it")


def fitting_split_labelled(m):
    """The pieces of `fitting_split`, in the same order, each paired with
    the kind of its indecomposability verdict (one of VERDICT_KINDS)."""
    if m.total_dim > DIM_CAP:
        raise BudgetExceeded(f"decomposition of a module of total dimension {m.total_dim}")
    out = []
    stack = [m]
    while stack:
        cur = stack.pop(0)
        if cur.total_dim == 0:
            continue
        pieces, kind = _split_once(cur)
        if pieces is None:
            out.append((cur, kind))
        else:
            stack.extend(pieces)
    return out


def fitting_split(m):
    """All indecomposable pieces of m, with repetition, in a deterministic
    order; [] for the zero module."""
    return [piece for piece, _ in fitting_split_labelled(m)]
