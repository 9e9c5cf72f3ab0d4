"""Independent test oracles shared between test modules."""

import itertools

import numpy as np

from replalg import exactfield as ef
from replalg import quiverrep as qr
from replalg import replicated as rp
from replalg import splitting as sp
from replalg.errors import InputError


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
                        conn = {(1, a_id): np.array([[g]] if d20 * d11 else [],
                                                    dtype=np.int64).reshape(d20, d11)}
                        try:
                            mod = rp.LayeredModule(alg, layers, maximal_conn=conn)
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


def reference_single_eigenvalue(blocks, p, seed=ef.DEFAULT_SEED):
    """lam if the endomorphism is lam*id + nilpotent, else None, by
    factoring the characteristic polynomial."""
    facs = ef.factor_poly(sp.endo_char_poly(blocks, p), p, seed)
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
        pieces = sp._primary_split(m, f.blocks, p, seed)
        if pieces:
            return pieces
    rng = np.random.default_rng(seed)
    nblocks = len(ends[0].blocks)
    for _ in range(sp.RANDOM_TRIES):
        coeffs = rng.integers(0, p, size=r)
        blocks = [np.mod(sum(int(c) * f.blocks[i] for c, f in zip(coeffs, ends)), p)
                  for i in range(nblocks)]
        pieces = sp._primary_split(m, blocks, p, seed)
        if pieces:
            return pieces
    if p ** r <= sp.EXHAUSTIVE_CAP * (p - 1):
        for code in range(1, p ** r):
            coeffs = [(code // p ** k) % p for k in range(r)]
            lead = next((c for c in coeffs if c), 0)
            if lead != 1:
                continue
            blocks = [np.mod(sum(c * f.blocks[i] for c, f in zip(coeffs, ends)), p)
                      for i in range(nblocks)]
            pieces = sp._primary_split(m, blocks, p, seed)
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
