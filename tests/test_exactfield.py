import numpy as np
import pytest

from oracles import permutation_det, reference_quotient_projection, reference_rref
from replalg import exactfield as ef


def cofactor_char_poly(a, p):
    """Independent oracle: det(xI - a) by cofactor expansion on polynomial
    entries, for matrices up to 6x6."""
    n = a.shape[0]
    assert n <= 6
    # polynomial entries, lowest degree first
    m = [[[(-int(a[i, j])) % p] if i != j else [(-int(a[i, j])) % p, 1]
          for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if len(cols) == 1:
            return m[rows[0]][cols[0]]
        i = rows[0]
        total = []
        for k, j in enumerate(cols):
            sub = det(rows[1:], cols[:k] + cols[k + 1:])
            term = ef.poly_mul(m[i][j], sub, p)
            if k % 2 == 1:
                term = [(-c) % p for c in term]
            size = max(len(total), len(term))
            total = [( (total[t] if t < len(total) else 0)
                       + (term[t] if t < len(term) else 0)) % p
                     for t in range(size)]
        return ef.poly_trim(total, p)

    return det(list(range(n)), list(range(n)))


def test_fieldspec_rejects_composite():
    with pytest.raises(ef.InputError):
        ef.FieldSpec(6)
    assert ef.FieldSpec(2).p == 2
    assert ef.FieldSpec(32003).p == 32003


LARGEST_PRIME = 1048573  # the largest prime below PRIME_BOUND = 2^20


def test_fieldspec_rejects_primes_where_int64_overflows():
    # at p = 2^31 - 1 a 1x3 by 3x1 product of p - 1 sums three terms near
    # 2^62 and wraps in int64
    with pytest.raises(ef.InputError, match="too large"):
        ef.FieldSpec(2147483647)
    with pytest.raises(ef.InputError, match="too large"):
        ef.FieldSpec(ef.PRIME_BOUND)
    assert ef.is_prime(LARGEST_PRIME) and ef.FieldSpec(LARGEST_PRIME).p == LARGEST_PRIME
    assert not any(ef.is_prime(q) for q in range(LARGEST_PRIME + 1, ef.PRIME_BOUND))


def test_mul_is_exact_at_the_largest_allowed_prime():
    # 2,048 entries of p - 1 on each side, and a seeded random product:
    # each equals the product over Python ints
    p = LARGEST_PRIME
    row, col = ef.fmat(np.full((1, 2048), p - 1), p), ef.fmat(np.full((2048, 1), p - 1), p)
    assert int(ef.mul(row, col, p)[0, 0]) == 2048 * (p - 1) ** 2 % p
    rng = np.random.default_rng(0)
    a, b = rng.integers(0, p, size=(8, 2048)), rng.integers(0, p, size=(2048, 8))
    want = [[sum(int(x) * int(y) for x, y in zip(r, c)) % p for c in b.T] for r in a]
    assert ef.mul(a, b, p).tolist() == want


def test_rank_identity_and_zero():
    assert ef.rank(ef.eye(3), 32003) == 3
    assert ef.rank(ef.zeros(2, 5), 32003) == 0
    assert ef.rank(ef.fmat([[1, 1], [1, 1]], 2), 2) == 1


def test_rank_equals_rank_of_transpose():
    rng = np.random.default_rng(0)
    for p in (2, 3, 32003):
        for _ in range(20):
            a = ef.fmat(rng.integers(0, p, size=(4, 6)), p)
            assert ef.rank(a, p) == ef.rank(a.T, p)


def test_rank_nullity():
    rng = np.random.default_rng(1)
    for p in (2, 5, 32003):
        for _ in range(20):
            a = ef.fmat(rng.integers(0, p, size=(5, 7)), p)
            k = ef.kernel_basis(a, p)
            assert ef.rank(a, p) + k.shape[1] == a.shape[1]
            if k.shape[1]:
                assert not np.any(ef.mul(a, k, p))


def test_solve_identity_and_zero():
    b = ef.fmat([[3], [5], [7]], 32003)
    x = ef.solve(ef.eye(3), b, 32003)
    assert np.array_equal(x, b)
    k = ef.kernel_basis(ef.zeros(2, 2), 32003)
    assert k.shape[1] == 2


def test_solve_random_remultiplication():
    p = 32003
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = ef.fmat(rng.integers(0, p, size=(6, 6)), p)
        b = ef.fmat(rng.integers(0, p, size=(6, 1)), p)
        x = ef.solve(a, b, p)
        if x is not None:
            assert np.array_equal(ef.mul(a, x, p), b)


def test_solve_dimension_mismatch():
    with pytest.raises(ef.InputError):
        ef.solve(ef.eye(3), ef.zeros(2, 1), 5)


def test_inverse_roundtrip():
    p = 101
    rng = np.random.default_rng(3)
    found = 0
    for _ in range(10):
        a = ef.fmat(rng.integers(0, p, size=(4, 4)), p)
        inv = ef.inverse(a, p)
        if inv is not None:
            found += 1
            assert np.array_equal(ef.mul(a, inv, p), ef.eye(4))
    assert found > 0


def test_quotient_projection():
    p = 7
    span = ef.fmat([[1, 0], [2, 0], [0, 1], [0, 0]], p)
    proj, section = ef.quotient_projection(span, 4, p)
    assert proj.shape == (2, 4)
    assert not np.any(ef.mul(proj, span, p))
    assert np.array_equal(ef.mul(proj, section, p), ef.eye(2))


def test_quotient_projection_matches_reference():
    # random spans of every rank (products of random factors), zero spans,
    # and the empty shapes: n = 0, a span with no columns or no entries
    rng = np.random.default_rng(6)
    for p in (2, 3, 32003):
        cases = [(ef.zeros(0, 0), 0), (ef.zeros(0, 3), 0), (ef.zeros(4, 0), 4),
                 (ef.zeros(0, 0), 3), (ef.zeros(3, 2), 3)]
        for _ in range(30):
            n, k, r = (int(x) for x in rng.integers(1, 7, size=3))
            span = ef.mul(ef.fmat(rng.integers(0, p, size=(n, r)), p),
                          ef.fmat(rng.integers(0, p, size=(r, k)), p), p)
            cases.append((span, n))
        for span, n in cases:
            got = ef.quotient_projection(span, n, p)
            want = reference_quotient_projection(span, n, p)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w)


# empty, 3x4, a rank-3 50x30 and a random 40x41: the small systems rref
# mostly sees and the large ones of Kronecker windows
KERNEL_PRIMES = (2, 3, 5, 32003)


def kernel_cases(p, rng):
    low_rank = ef.mul(ef.fmat(rng.integers(0, p, size=(50, 3)), p),
                      ef.fmat(rng.integers(0, p, size=(3, 30)), p), p)
    return [ef.zeros(0, 5), ef.zeros(5, 0), ef.fmat(rng.integers(0, p, size=(3, 4)), p),
            low_rank, ef.fmat(rng.integers(0, p, size=(40, 41)), p)]


def assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def reference_solve(a, b, p):
    """solve() on reference_rref, with no early exit for empty systems."""
    r, pivots = reference_rref(np.hstack([a, b]), p)
    if any(c >= a.shape[1] for c in pivots):
        return None
    x = ef.zeros(a.shape[1], b.shape[1])
    x[pivots] = r[:len(pivots), a.shape[1]:]
    return x


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_rref_matches_reference(p):
    for a in kernel_cases(p, np.random.default_rng(p)):
        r, pivots = ef.rref(a, p)
        want_r, want_pivots = reference_rref(a, p)
        assert_same(r, want_r)
        assert pivots == want_pivots


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_derived_kernels_match_reference(p):
    rng = np.random.default_rng(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ef, "rref", reference_rref)
        cases = kernel_cases(p, rng)
        squares = [ef.zeros(0, 0), ef.fmat(rng.integers(0, p, size=(3, 3)), p),
                   ef.fmat(rng.integers(0, p, size=(40, 40)), p), cases[3][:30]]
        want = ([ef.rank(a, p) for a in cases], [ef.kernel_basis(a, p) for a in cases],
                [ef.inverse(a, p) for a in squares],
                [ef.quotient_projection(a, a.shape[0], p) for a in cases])
    assert [ef.rank(a, p) for a in cases] == want[0]
    for a, k in zip(cases, want[1]):
        assert_same(ef.kernel_basis(a, p), k)
    for a, inv in zip(squares, want[2]):
        got = ef.inverse(a, p)
        assert (got is None) == (inv is None)
        if inv is not None:
            assert_same(got, inv)
    assert want[2][3] is None  # the 30x30 block has rank 3
    for a, (proj, section) in zip(cases, want[3]):
        got = ef.quotient_projection(a, a.shape[0], p)
        assert_same(got[0], proj)
        assert_same(got[1], section)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_solve_matches_reference(p):
    # consistent right-hand sides a @ x, random (for the rank-3 50x30 one
    # inconsistent) right-hand sides, single columns and matrices of them
    rng = np.random.default_rng(p)
    outcomes = set()
    for a in kernel_cases(p, rng):
        for k in (1, 3, 0):
            x = ef.fmat(rng.integers(0, p, size=(a.shape[1], k)), p)
            for b in (ef.mul(a, x, p), ef.fmat(rng.integers(0, p, size=(a.shape[0], k)), p)):
                got, want = ef.solve(a, b, p), reference_solve(a, b, p)
                outcomes.add(want is None)
                assert (got is None) == (want is None)
                if want is not None:
                    assert_same(got, want)
                    assert np.array_equal(ef.mul(a, got, p), b)
    assert outcomes == {True, False}


def test_char_poly_identity():
    # det(xI - I) = (x-1)^3 = x^3 - 3x^2 + 3x - 1
    p = 32003
    cp = ef.char_poly(ef.eye(3), p)
    assert cp == [(-1) % p, 3 % p, (-3) % p, 1]


def test_char_poly_matches_cofactor_oracle():
    rng = np.random.default_rng(4)
    for p in (2, 3, 32003):
        for n in (1, 2, 3, 4, 5, 6):
            a = ef.fmat(rng.integers(0, p, size=(n, n)), p)
            assert ef.char_poly(a, p) == cofactor_char_poly(a, p)


def test_factor_companion_x2_plus_1_char2():
    # x^2 + 1 = (x+1)^2 over F_2
    a = ef.fmat([[0, 1], [1, 0]], 2)  # companion matrix of x^2 + 1
    facs = ef.factor_poly(ef.char_poly(a, 2), 2)
    assert facs == [([1, 1], 2)]


def test_factor_diagonal_char3():
    # diag(1, -1) over F_3: (x-1)(x+1)
    a = ef.fmat([[1, 0], [0, -1]], 3)
    facs = ef.factor_poly(ef.char_poly(a, 3), 3)
    assert facs == [([1, 1], 1), ([2, 1], 1)]


def test_factor_reexpands_to_char_poly():
    rng = np.random.default_rng(5)
    for p in (2, 3, 32003):
        for _ in range(8):
            a = ef.fmat(rng.integers(0, p, size=(5, 5)), p)
            cp = ef.char_poly(a, p)
            prod = [1]
            for fac, mult in ef.factor_poly(cp, p):
                for _ in range(mult):
                    prod = ef.poly_mul(prod, fac, p)
            assert prod == cp


def test_factor_poly_handles_pth_powers():
    # (x^2 + 1)^2 = x^4 + 2x^2 + 1 over F_2 has zero derivative
    f = ef.poly_mul([1, 0, 1], [1, 0, 1], 2)
    facs = ef.factor_poly(f, 2)
    assert facs == [([1, 1], 4)]


def test_factor_poly_memo_hits_return_fresh_equal_lists():
    # (x+1)^2 (x^2+x+2) over F_3, untrimmed and as numpy ints on the
    # second call: one cached factorization, handed out as new lists
    f = ef.poly_mul(ef.poly_mul([1, 1], [1, 1], 3), [2, 1, 1], 3)
    first = ef.factor_poly(f, 3)
    hits = ef._factorization.cache_info().hits
    second = ef.factor_poly(np.array(f + [0, 3], dtype=np.int64), 3)
    assert ef._factorization.cache_info().hits == hits + 1
    assert first == second == [([1, 1], 2), ([2, 1, 1], 1)]
    assert first is not second
    assert all(a is not b and a[0] is not b[0] for a, b in zip(first, second))
    first[0][0].append(7)
    first.clear()
    assert ef.factor_poly(f, 3) == second == [([1, 1], 2), ([2, 1, 1], 1)]


def test_poly_eval_matrix_cayley_hamilton():
    rng = np.random.default_rng(6)
    for p in (3, 32003):
        a = ef.fmat(rng.integers(0, p, size=(4, 4)), p)
        cp = ef.char_poly(a, p)
        assert not np.any(ef.poly_eval_matrix(cp, a, p))


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_det_matches_permutation_expansion(p):
    rng = np.random.default_rng(11)
    for n in range(6):
        for _ in range(8):
            a = rng.integers(0, p, size=(n, n))
            assert ef.det(a, p) == permutation_det(a, p)
        # a repeated row, and a pivot found only after a row swap
        if n >= 2:
            a = rng.integers(0, p, size=(n, n))
            a[1] = a[0]
            assert ef.det(a, p) == permutation_det(a, p) == 0
            b = np.mod(ef.eye(n)[::-1] * (n + 1), p)
            assert ef.det(b, p) == permutation_det(b, p)
    with pytest.raises(ef.InputError):
        ef.det(ef.zeros(2, 3), p)
