"""Bounded windows of indecomposables for representation-infinite checks.

Full enumeration is impossible over a representation-infinite algebra, so
upper bounds are verified over a window: every indecomposable the closure
below can reach whose per-vertex dimensions stay within a bound.  The
closure is explicitly partial (results quote the window); it combines

  * simples, projectives, injectives of the base algebra,
  * tau^{-1} walks from projectives and tau walks from injectives,
  * middle terms of extension classes between census members (every line
    of Ext^1 when p^e is small, the lines of the basis classes and of
    seeded random combinations otherwise; one class per line either way),
    iterated to a fixpoint; each middle term is split with lookups in the
    census registry, so a piece of a known class is never split or
    certified again (`splitting`), and every member is certified
    indecomposable once, as it joins,

and then transports the base census into the replicated algebra by
cosyzygy shifts computed in an enlarged window, keeping the shifts that
are supported in layers <= m.

One class per line loses nothing.  For lam in F_p^*, the middle terms of
xi and lam*xi in Ext^1(M, N) are isomorphic: with E_xi given by the block
matrices [[N_a, xi_a], [0, M_a]] on N + M, conjugating by
g = diag(lam*I_N, I_M) gives g [[N_a, xi_a], [0, M_a]] g^-1 =
[[N_a, lam*xi_a], [0, M_a]], the matrices of E_{lam*xi}
(Auslander-Reiten-Smalo, ch. I).  At every p a class is known by its
line's representative, the multiple whose most significant nonzero digit
is 1.  When p^e is small the enumeration keeps exactly these vectors, the
first class of each line in code order, so the census (its modules and
their order) is the one all classes would give.  When p^e is large every
vector is still drawn, in the same order, and a drawn vector whose line
was already realized for the pair is skipped; so the random stream, and
with it the census, is the one that realizing every draw would give.
"""

import numpy as np

from . import exactfield as ef
from . import quiverrep as qr
from . import replicated as rp
from .errors import AnomalyError, InputError
from .splitting import certify, fitting_split

EXT_ENUM_CAP = 81
CLOSURE_ROUNDS = 4


def base_indecomposables(quiver, p, bound, seed=ef.DEFAULT_SEED):
    """Window census of indecomposable modules over the base hereditary
    algebra with every vertex dimension <= bound (partial by design).
    A bound below 1 would give an empty window, on which every check
    passes vacuously, so it is an input error, as is a negative seed."""
    if bound < 1:
        raise InputError(f"window bound must be >= 1, got {bound}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    found = rp.IsoRegistry()

    def add(m):
        """Register m when it is a new class inside the window.  A member is
        certified indecomposable as it joins: a piece of a split reads its
        verdict from the memo, a seed is certified here."""
        if m.total_dim == 0 or any(d > bound for d in m.component_dims()) \
                or found.find(m) is not None:
            return False
        if not certify(m):
            raise AnomalyError(f"census member {m!r} is decomposable")
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
    for _ in range(CLOSURE_ROUNDS):
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
                if p ** e <= EXT_ENUM_CAP:
                    # one class per line (see the module docstring): the
                    # first in code order, whose most significant nonzero
                    # digit is 1
                    coeff_list = [c for c in (_digits(code, p, e) for code in range(1, p ** e))
                                  if next(x for x in reversed(c) if x) == 1]
                else:
                    coeff_list = [[1 if t == k else 0 for t in range(e)] for k in range(e)]
                    coeff_list += [list(rng.integers(0, p, size=e)) for _ in range(4)]
                for coeffs in coeff_list:
                    if not any(coeffs):
                        continue
                    # key by the line's representative, so a drawn multiple
                    # of a realized class is skipped (the draws themselves
                    # are kept, which keeps the random stream)
                    key = (i, j, _line_representative(coeffs, p))
                    if key in realized:
                        continue
                    realized.add(key)
                    middle, _, _ = qr.realize_extension_class(m, n, coeffs)
                    # a piece of a known class comes back as the member
                    # itself, which add skips at once
                    for piece in fitting_split(middle, found):
                        if add(piece):
                            grew = True
        if not grew:
            break
    return found.modules


def _line_representative(coeffs, p):
    """The multiple of a nonzero coefficient vector whose most significant
    nonzero digit is 1."""
    lead = ef.inv_scalar(next(x for x in reversed(coeffs) if x), p)
    return tuple(int(c) * lead % p for c in coeffs)


def _digits(code, p, length):
    out = []
    for _ in range(length):
        out.append(code % p)
        code //= p
    return out


def census_modules(algebra, bound, seed=ef.DEFAULT_SEED):
    """Window census over the replicated algebra: the base census at layer
    0 together with its cosyzygy shifts (computed in an enlarged window)
    that restrict to the algebra, plus projectives and injectives; all
    members have every component dimension <= bound (>= 1)."""
    quiver, p, m = algebra.quiver, algebra.p, algebra.m
    base = base_indecomposables(quiver, p, bound, seed)
    walg = rp.build_replicated(quiver, 2 * m + 2, p)
    out = rp.IsoRegistry()

    def add(mod):
        if not mod.is_zero() and all(d <= bound for d in mod.component_dims()):
            out.canon(mod)

    for k in range(m + 1):
        for i in range(quiver.n_vertices):
            add(algebra.proj(i, k))
            add(algebra.inj(i, k))
    for x in base:
        add(rp.rep_at_layer(algebra, x, 0))
        shifted = rp.rep_at_layer(walg, x, 0)
        for _ in range(2 * m + 1):
            shifted = rp.cosyzygy(shifted)
            if shifted.is_zero():
                break
            sup = shifted.support_layers()
            if sup and max(sup) <= m:
                # a shift supported in layers <= m satisfies every relation
                # of A^(m), so the conversion cannot fail
                try:
                    restricted = rp.convert_window(shifted, algebra)
                except InputError as exc:
                    raise AnomalyError(f"cosyzygy shift failed to restrict to A^({m}): {exc}") from exc
                add(restricted)
    return out.modules
