"""Deterministic exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced to [0, p).  All
routines are pure functions of their arguments, so results are
reproducible across runs; the random draws inside `factor_poly` come from
a fixed generator and never reach its output (a unique, sorted factorization).

Entries stay below p < PRIME_BOUND = 2^20, which FieldSpec enforces, so
every int64 sum the package forms is exact (FieldSpec says why).

`rref` is the elimination kernel behind ranks, kernels, solves, inverses
and quotient projections.  It eliminates on lists of Python ints, like
`det` and `char_poly`: almost every system here is small (Hom spaces,
submodules, action edges), and on those per-entry numpy indexing costs
far more than list arithmetic.  On large inputs (Kronecker windows at
d >= 7) a vectorized update per pivot would be faster (ROADMAP item 3).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError

DEFAULT_PRIME = 32003
DEFAULT_SEED = 0
PRIME_BOUND = 1 << 20


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A prime field F_p, p < PRIME_BOUND = 2^20, checked at construction.
    Below the bound every int64 sum the package forms is exact.  The
    largest is the random combination of End(M) in splitting._split_once:
    at most DIM_CAP^2 < 2^22 terms, each below p^2 < 2^40."""

    p: int

    def __post_init__(self):
        if self.p >= PRIME_BOUND:
            raise InputError(f"prime {self.p} is too large: int64 arithmetic is exact "
                             f"only for p < 2^20 = {PRIME_BOUND}")
        if not is_prime(self.p):
            raise InputError(f"modulus {self.p} is not prime")


def fmat(data, p):
    """Coerce data to an int64 matrix with entries reduced mod p."""
    a = np.array(data, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    return np.mod(a, p)


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n):
    return np.eye(n, dtype=np.int64)


def mul(a, b, p):
    """Exact matrix product mod p (int64 is exact for p < PRIME_BOUND)."""
    if a.shape[1] != b.shape[0]:
        raise InputError(f"shape mismatch {a.shape} x {b.shape}")
    return np.mod(a @ b, p)


def inv_scalar(a, p):
    return pow(int(a) % p, p - 2, p)


def rref(a, p):
    """Reduced row echelon form with canonical pivoting.

    Pivots are chosen scanning columns left to right, taking the lowest
    remaining row with a nonzero entry, so the output (and every quantity
    derived from it: ranks, kernels, quotient coordinates) is unique for a
    given input.  Returns (R, pivot_columns).  Eliminates on Python int
    rows (module docstring); entries left of a pivot in its row are zero,
    so each update touches only the columns from the pivot on.
    """
    r = np.mod(np.array(a, dtype=np.int64), p)
    nrows, ncols = r.shape
    m = r.tolist()
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        sel = next((i for i in range(row, nrows) if m[i][col]), None)
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        piv = m[row]
        inv = pow(piv[col], p - 2, p)
        if inv != 1:
            piv = piv[:col] + [x * inv % p for x in piv[col:]]
            m[row] = piv
        tail = piv[col:]
        for i in range(nrows):
            f = m[i][col]
            if f and i != row:
                mi = m[i]
                m[i] = mi[:col] + [(x - f * y) % p for x, y in zip(mi[col:], tail)]
        pivots.append(col)
        row += 1
    return np.array(m, dtype=np.int64).reshape(nrows, ncols), pivots


def rank(a, p):
    if a.size == 0:
        return 0
    _, pivots = rref(a, p)
    return len(pivots)


def kernel_basis(a, p):
    """Columns spanning the right null space of a, in canonical RREF form."""
    return null_space(a, p)[0]


def null_space(a, p):
    """(basis, free): the canonical kernel basis of kernel_basis, one
    column per free (non-pivot) column of rref(a), and the list of those
    free columns; basis is the identity at the free rows, so a kernel
    vector has its entries there as coordinates.  Every column of a matrix
    without entries is free."""
    if not a.size:
        return eye(a.shape[1]), list(range(a.shape[1]))
    r, pivots = rref(a, p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = zeros(a.shape[1], len(free))
    basis[free, np.arange(len(free))] = 1
    basis[pivots] = np.mod(-r[:len(pivots)][:, free], p)
    return basis, free


def solve(a, b, p):
    """One solution x of a @ x = b, or None if inconsistent.

    b may be a column vector or a matrix of right-hand sides; free
    variables are set to zero, so the solution is canonical.
    """
    b = np.mod(np.array(b, dtype=np.int64), p)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if a.shape[0] != b.shape[0]:
        raise InputError(f"solve: {a.shape} vs rhs {b.shape}")
    ncols = a.shape[1]
    if a.shape[0] == 0 or b.shape[1] == 0:
        return zeros(ncols, b.shape[1])
    aug = np.hstack([a, b])
    r, pivots = rref(aug, p)
    for i in range(len(pivots)):
        if pivots[i] >= ncols:
            return None
    x = zeros(ncols, b.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = r[i, ncols:]
    return x


def inverse(a, p):
    """Inverse of a square matrix, or None if singular."""
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise InputError("inverse of non-square matrix")
    aug = np.hstack([np.mod(a, p), eye(n)])
    r, pivots = rref(aug, p)
    if len(pivots) != n or pivots != list(range(n)):
        return None
    return r[:, n:]


def is_invertible(a, p):
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def det(a, p):
    """Determinant of a square matrix mod p (1 for the empty matrix), by
    Gaussian elimination with Python ints, so it is exact for any p."""
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise InputError("det of non-square matrix")
    m = [[int(x) % p for x in row] for row in a]
    out = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = -out
        lead = m[col][col]
        out = out * lead % p
        inv = pow(lead, p - 2, p)
        for i in range(col + 1, n):
            f = m[i][col] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[col])]
    return out % p


def quotient_projection(span, n, p):
    """Projection onto canonical coordinates for F^n modulo a subspace.

    span: matrix whose columns span the subspace U (may be redundant).
    Returns (proj, section): proj is q x n with kernel exactly U, section
    is n x q with proj @ section = I, where q = n - dim U.
    """
    if n == 0:
        return zeros(0, 0), zeros(0, 0)
    if span.size == 0:
        return eye(n), eye(n)
    basis, free = null_space(span.T, p)
    return basis.T, eye(n)[:, free]


# ---------------------------------------------------------------------------
# characteristic polynomials and factorization over F_p
#
# Polynomials are lists of ints, lowest degree first, reduced mod p, with no
# trailing zeros (the zero polynomial is []).
# ---------------------------------------------------------------------------


def char_poly(a, p):
    """Coefficients of det(xI - a), lowest degree first, monic.

    Uses the Berkowitz algorithm (division-free), carried out with Python
    ints mod p, so it is exact in any characteristic.
    """
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise InputError("char_poly of non-square matrix")
    if n == 0:
        return [1]
    m = [[int(x) % p for x in row] for row in np.mod(a, p)]
    # vec holds coefficients of det(xI - A_k) highest degree first
    vec = [1, (-m[0][0]) % p]
    for i in range(1, n):
        row = m[i][:i]
        col = [m[j][i] for j in range(i)]
        sub = [r[:i] for r in m[:i]]
        # first column of the Toeplitz matrix: 1, -a_ii, -R C, -R M C, ...
        c = [1, (-m[i][i]) % p]
        w = col
        for _ in range(i):
            c.append((-sum(r * v for r, v in zip(row, w))) % p)
            w = [sum(sub[j][k] * w[k] for k in range(i)) % p for j in range(i)]
        new = [0] * (i + 2)
        for j in range(i + 2):
            s = 0
            for k in range(min(j, len(c) - 1) + 1):
                if j - k < len(vec):
                    s += c[k] * vec[j - k]
            new[j] = s % p
        vec = new
    return [x % p for x in reversed(vec)]


def poly_trim(f, p):
    f = [int(c) % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_deg(f):
    return len(f) - 1


def poly_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return poly_trim(out, p)


def poly_divmod(f, g, p):
    f = poly_trim(f, p)
    g = poly_trim(g, p)
    if not g:
        raise ZeroDivisionError("poly division by zero")
    q = [0] * max(len(f) - len(g) + 1, 0)
    r = list(f)
    ginv = inv_scalar(g[-1], p)
    while len(r) >= len(g) and r:
        c = (r[-1] * ginv) % p
        d = len(r) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            r[d + i] = (r[d + i] - c * b) % p
        r = poly_trim(r, p)
    return poly_trim(q, p), r


def poly_monic(f, p):
    f = poly_trim(f, p)
    if not f:
        return f
    c = inv_scalar(f[-1], p)
    return [(a * c) % p for a in f]


def poly_gcd(f, g, p):
    f, g = poly_trim(f, p), poly_trim(g, p)
    while g:
        f, g = g, poly_divmod(f, g, p)[1]
    return poly_monic(f, p)


def poly_pow_mod(f, e, mod, p):
    result = [1]
    base = poly_divmod(f, mod, p)[1]
    while e > 0:
        if e & 1:
            result = poly_divmod(poly_mul(result, base, p), mod, p)[1]
        base = poly_divmod(poly_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def poly_derivative(f, p):
    return poly_trim([(i * c) % p for i, c in enumerate(f)][1:], p)


def _squarefree_parts(f, p):
    """[(squarefree factor, multiplicity)] with product = f (monic)."""
    f = poly_monic(f, p)
    out = []
    if poly_deg(f) < 1:
        return out
    fp = poly_derivative(f, p)
    if not fp:
        # f = g(x^p) = (frobenius-twisted g)(x)^p; over F_p coefficients are fixed
        g = [f[i] for i in range(0, len(f), p)]
        for fac, mult in _squarefree_parts(g, p):
            out.append((fac, mult * p))
        return out
    c = poly_gcd(f, fp, p)
    w = poly_divmod(f, c, p)[0]
    mult = 1
    while poly_deg(w) >= 1:
        y = poly_gcd(w, c, p)
        z = poly_divmod(w, y, p)[0]
        if poly_deg(z) >= 1:
            out.append((z, mult))
        w = y
        c = poly_divmod(c, y, p)[0]
        mult += 1
    if poly_deg(c) >= 1:
        # leftover c has zero derivative; the recursion takes the p-th root
        # and scales multiplicities by p itself
        out.extend(_squarefree_parts(c, p))
    return out


def _distinct_degree(f, p):
    """[(product of irreducible factors of degree d, d)] for squarefree monic f."""
    out = []
    x = [0, 1]
    h = x
    rest = list(f)
    d = 0
    while poly_deg(rest) >= 1:
        d += 1
        if 2 * d > poly_deg(rest):
            out.append((rest, poly_deg(rest)))
            break
        h = poly_pow_mod(h, p, rest, p)
        g = poly_gcd(poly_trim([(a - b) % p for a, b in
                                zip(h + [0] * len(x), x + [0] * len(h))], p), rest, p)
        if poly_deg(g) >= 1:
            out.append((g, d))
            rest = poly_divmod(rest, g, p)[0]
            h = poly_divmod(h, rest, p)[1]
    return out


def _equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus split of f (product of degree-d irreducibles)."""
    n = poly_deg(f)
    if n == d:
        return [f]
    while True:
        a = poly_trim([int(rng.integers(0, p)) for _ in range(n)], p)
        if poly_deg(a) < 1:
            continue
        g = poly_gcd(a, f, p)
        if 1 <= poly_deg(g) < n:
            pass
        elif p == 2:
            t = list(a)
            acc = list(a)
            for _ in range(d - 1):
                acc = poly_pow_mod(acc, 2, f, p)
                t = poly_trim([(x + y) % p for x, y in
                               zip(t + [0] * len(acc), acc + [0] * len(t))], p)
            g = poly_gcd(t, f, p)
        else:
            e = (p ** d - 1) // 2
            t = poly_pow_mod(a, e, f, p)
            t = poly_trim([(c - (1 if i == 0 else 0)) % p for i, c in
                           enumerate(t + [0])], p)
            g = poly_gcd(t, f, p)
        if 1 <= poly_deg(g) < n:
            h = poly_divmod(f, g, p)[0]
            return _equal_degree_split(g, d, p, rng) + _equal_degree_split(h, d, p, rng)


def factor_poly(f, p):
    """Irreducible factorization [(factor, multiplicity)], factors monic,
    sorted by (degree, coefficients).  The factorization is unique, so the
    random draws of the equal-degree split never change the result, and it
    is memoized on (reduced coefficients, p); every call returns fresh
    lists."""
    return [(list(fac), mult) for fac, mult in _factorization(tuple(poly_trim(f, p)), p)]


@functools.lru_cache(maxsize=4096)
def _factorization(f, p):
    """factor_poly of the trimmed coefficient tuple f, as tuples (a bounded
    memo: the Fitting splits of a census meet few distinct polynomials)."""
    rng = np.random.default_rng(0)
    f = list(f)
    if poly_deg(f) < 1:
        return ()
    out = []
    for sq, mult in _squarefree_parts(f, p):
        for prod, d in _distinct_degree(sq, p):
            for irr in _equal_degree_split(prod, d, p, rng):
                out.append((poly_monic(irr, p), mult))
    merged = {}
    for fac, mult in out:
        merged[tuple(fac)] = merged.get(tuple(fac), 0) + mult
    return tuple(sorted(merged.items(), key=lambda t: (len(t[0]), t[0])))


def poly_eval_matrix(f, a, p):
    """Evaluate a polynomial at a square matrix, mod p."""
    n = a.shape[0]
    out = zeros(n, n)
    power = eye(n)
    for c in f:
        if c:
            out = np.mod(out + c * power, p)
        power = mul(power, a, p)
    return out
