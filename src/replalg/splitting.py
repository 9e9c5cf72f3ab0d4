"""Fitting-lemma decomposition of layered modules.

An endomorphism whose characteristic polynomial has at least two distinct
irreducible factors splits the module into the corresponding primary
components (Fitting's lemma).  Each piece that does not split is returned
with the kind of its indecomposability verdict:

  * ``brick``: End(M) is one-dimensional;
  * ``certified-local``: End(M) is proved local from one basis of it (see
    `certified_radical`): a nilpotent two-sided ideal J whose quotient
    End/J is a field.  No search runs;
  * ``exhaustive``: the certificate did not apply, and a sweep over every
    endomorphism up to scalars found no split;
  * ``probabilistic``: the certificate did not apply, End is too large to
    sweep, and the basis elements plus seeded random combinations all
    failed to split.  This is the only heuristic verdict.

A module with local End(M) is indecomposable, and the certificate holds
only for such modules, so it never hides a split: the pieces and their
order are those the search alone would give.
"""

import math

import numpy as np

from . import exactfield as ef
from .errors import BudgetExceeded

RANDOM_TRIES = 20
EXHAUSTIVE_CAP = 4096
DIM_CAP = 2000
ISO_EXHAUSTIVE_DIM = 4
ISO_EXHAUSTIVE_PRIME = 5

BRICK = "brick"
CERTIFIED_LOCAL = "certified-local"
EXHAUSTIVE = "exhaustive"
PROBABILISTIC = "probabilistic"
VERDICT_KINDS = (BRICK, CERTIFIED_LOCAL, EXHAUSTIVE, PROBABILISTIC)


def find_invertible_combo(bases, p, seed=ef.DEFAULT_SEED):
    """An invertible combination of a basis of Hom(M, N) (as block lists),
    or None: basis elements first, then seeded random combinations, then
    exhaustive enumeration when the space is tiny."""
    def invertible(blocks):
        return all(b.shape[0] == b.shape[1] and ef.rank(b, p) == b.shape[0]
                   for b in blocks)

    for blocks in bases:
        if invertible(blocks):
            return blocks
    rng = np.random.default_rng(seed)
    r = len(bases)
    nblocks = len(bases[0])
    for _ in range(RANDOM_TRIES):
        coeffs = rng.integers(0, p, size=r)
        blocks = [np.mod(sum(int(c) * h[i] for c, h in zip(coeffs, bases)), p)
                  for i in range(nblocks)]
        if invertible(blocks):
            return blocks
    if r <= ISO_EXHAUSTIVE_DIM and p <= ISO_EXHAUSTIVE_PRIME:
        for code in range(1, p ** r):
            coeffs = [(code // p ** k) % p for k in range(r)]
            blocks = [np.mod(sum(c * h[i] for c, h in zip(coeffs, bases)), p)
                      for i in range(nblocks)]
            if invertible(blocks):
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


def single_eigenvalue(blocks, p, seed=ef.DEFAULT_SEED):
    """lam if the endomorphism is lam*id + nilpotent, else None (0 on a
    zero-dimensional module).  seed is unused: no factoring is needed."""
    return _scalar_root(endo_char_poly(blocks, p), p)


def _primary_split(m, blocks, p, seed, facs=None):
    """Split m along the primary components of an endomorphism, or None.
    facs, when given, is the factorization of its characteristic polynomial."""
    if facs is None:
        facs = ef.factor_poly(endo_char_poly(blocks, p), p, seed)
    if len(facs) < 2:
        return None
    pieces = []
    for g, e in facs:
        gpow = [1]
        for _ in range(e):
            gpow = ef.poly_mul(gpow, g, p)
        bases = [ef.kernel_basis(ef.poly_eval_matrix(gpow, b, p), p) for b in blocks]
        sub, _ = m.submodule(bases)
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
    certified local, else None.

    basis spans End(M) as block lists; mins[i] is an irreducible polynomial
    g_i with g_i(f_i) nilpotent (f_i is primary).  Let J be the two-sided
    ideal generated by the g_i(f_i) and e = dim End - dim J.  Certify when
    J is nilpotent and some g_i has degree e; J is then returned.

    Proof.  1 is not in the nilpotent ideal J, so End/J is nonzero, and the
    image of f_i there has a minimal polynomial dividing g_i, hence equal
    to g_i.  So F_p[f_i] mod J is a copy of the field F_p[x]/(g_i), of
    dimension e = dim End/J: End/J is that field (F_p when e = 1).  If x is
    not in J, there is y with xy = 1 - j for some j in J; j is nilpotent,
    so xy is a unit and x has a right inverse, hence is a unit (End is
    finite-dimensional).  So the non-units of End form the ideal J: End is
    local with J = rad End, and M is indecomposable (ARS, ch. I-II).

    When End is local with residue field F_p, the f_i - lam_i span rad End,
    so J = rad End and e = 1: the common case.  When End is local with a
    larger residue field K (Kronecker regulars at points of degree >= 2),
    J lies in rad End and any f_i whose image generates K has deg g_i = e
    once J = rad End.
    """
    shapes = [b.shape for b in basis[0]]
    gens = [[ef.poly_eval_matrix(g, b, p) for b in f] for f, g in zip(basis, mins)]
    # End.S.End for S = {g_i(f_i)}: left multiples first, then right ones
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


def primary_poly(blocks, p, seed=ef.DEFAULT_SEED):
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
    facs = ef.factor_poly(cp, p, seed)
    return (facs[0][0] if len(facs) == 1 else None), facs


def _split_once(m, hom_fn, seed):
    """(pieces, None) for one nontrivial split of m, or (None, kind) when m
    is indecomposable, with kind the verdict kind (see the module doc).

    Each basis endomorphism f_i is tested first: either its characteristic
    polynomial is (x - lam)^n (read off without factoring), or it is
    factored once.  The first f_i with two distinct irreducible factors
    splits m.  Otherwise every f_i is primary, which is what the locality
    certificate needs; only when the certificate fails do seeded random
    combinations and, when End is small, an exhaustive sweep look for a
    split.  The sweep is projectivized (first nonzero coefficient = 1),
    which loses no splits since primary components are scale-invariant.
    """
    ends = hom_fn(m, m)
    r = len(ends)
    if r <= 1:
        return None, BRICK
    p = m.p
    basis = [f.blocks for f in ends]
    mins = []
    for blocks in basis:
        g, facs = primary_poly(blocks, p, seed)
        if g is None:
            return _primary_split(m, blocks, p, seed, facs), None
        mins.append(g)
    if certified_radical(basis, mins, p) is not None:
        return None, CERTIFIED_LOCAL
    rng = np.random.default_rng(seed)
    nblocks = len(basis[0])
    for _ in range(RANDOM_TRIES):
        coeffs = rng.integers(0, p, size=r)
        blocks = [np.mod(sum(int(c) * f[i] for c, f in zip(coeffs, basis)), p)
                  for i in range(nblocks)]
        pieces = _primary_split(m, blocks, p, seed)
        if pieces:
            return pieces, None
    if p ** r > EXHAUSTIVE_CAP * (p - 1):
        return None, PROBABILISTIC
    for code in range(1, p ** r):
        coeffs = [(code // p ** k) % p for k in range(r)]
        lead = next((c for c in coeffs if c), 0)
        if lead != 1:
            continue
        blocks = [np.mod(sum(c * f[i] for c, f in zip(coeffs, basis)), p)
                  for i in range(nblocks)]
        pieces = _primary_split(m, blocks, p, seed)
        if pieces:
            return pieces, None
    return None, EXHAUSTIVE


def fitting_split_labelled(m, hom_fn, seed=ef.DEFAULT_SEED):
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
        pieces, kind = _split_once(cur, hom_fn, seed)
        if pieces is None:
            out.append((cur, kind))
        else:
            stack.extend(pieces)
    return out


def fitting_split(m, hom_fn, seed=ef.DEFAULT_SEED):
    """All indecomposable pieces of m, with repetition, in a deterministic
    order.  hom_fn(M, N) must return a basis of Hom(M, N)."""
    return [piece for piece, _ in fitting_split_labelled(m, hom_fn, seed)]
