"""GF(2) and Smith form tests, each checked against a naive oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubekh.linalg import (
    AbelianGroup,
    MatF2,
    cokernel_group,
    det_bareiss,
    f2_kernel_basis,
    f2_rank,
    smith_normal_form,
)
from linalg_helpers import (
    f2_in_row_space,
    f2_row_space,
    f2_solve,
    f2_subspace_intersection,
    f2_subspace_sum,
    is_unimodular,
    mat_mul_z,
)


# --- oracles ---------------------------------------------------------------

def naive_rank_gf2(rows):
    """Unpacked Gaussian elimination over GF(2) on lists of 0/1."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def naive_det_fraction(a):
    """Determinant via Fraction Gaussian elimination."""
    n = len(a)
    w = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if w[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            w[k], w[piv] = w[piv], w[k]
            det = -det
        det *= w[k][k]
        inv = 1 / w[k][k]
        for i in range(k + 1, n):
            f = w[i][k] * inv
            if f:
                w[i] = [x - f * y for x, y in zip(w[i], w[k])]
    assert det.denominator == 1
    return int(det)


def random_f2(rng, nrows, ncols):
    return MatF2.from_lists([[rng.randint(0, 1) for _ in range(ncols)]
                             for _ in range(nrows)])


# --- GF(2) -----------------------------------------------------------------

def test_rank_identity_and_zero():
    assert f2_rank(MatF2.identity(5)) == 5
    assert f2_rank(MatF2.zero(4, 7)) == 0


def test_rank_random_vs_naive_oracle():
    rng = random.Random(7)
    m = random_f2(rng, 64, 64)
    assert f2_rank(m) == naive_rank_gf2(m.to_lists())


@pytest.mark.parametrize("shape", [(3, 5), (10, 4), (17, 17), (1, 1), (0, 3)])
def test_rank_matches_oracle_many(shape):
    rng = random.Random(sum(shape))
    for _ in range(20):
        m = random_f2(rng, *shape) if shape[0] else MatF2.zero(0, shape[1])
        assert f2_rank(m) == naive_rank_gf2(m.to_lists())


def test_kernel_identity_empty():
    assert f2_kernel_basis(MatF2.identity(4)).nrows == 0


def test_kernel_zero_full():
    k = f2_kernel_basis(MatF2.zero(3, 3))
    assert k.nrows == 3
    assert f2_rank(k) == 3


def test_kernel_random_40x60():
    rng = random.Random(11)
    m = random_f2(rng, 40, 60)
    k = f2_kernel_basis(m)
    assert k.nrows == 60 - f2_rank(m)
    for row in k.rows:
        assert m.apply(row) == 0
    assert f2_rank(k) == k.nrows


@given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_rank_transpose_and_nullity(nr, nc, seed):
    rng = random.Random(seed)
    m = random_f2(rng, nr, nc)
    r = f2_rank(m)
    assert r == f2_rank(m.transpose())
    k = f2_kernel_basis(m)
    assert r + k.nrows == nc
    assert all(m.apply(row) == 0 for row in k.rows)
    assert f2_rank(k) == k.nrows


def test_solve_and_membership():
    rng = random.Random(3)
    m = random_f2(rng, 12, 9)
    for _ in range(20):
        x = rng.getrandbits(9)
        b = m.apply(x)
        sol = f2_solve(m, b)
        assert sol is not None and m.apply(sol) == b
    rs = f2_row_space(m)
    for row in m.rows:
        assert f2_in_row_space(row, rs)


def test_subspace_sum_intersection_dims():
    rng = random.Random(5)
    for _ in range(25):
        a = random_f2(rng, rng.randint(1, 8), 12)
        b = random_f2(rng, rng.randint(1, 8), 12)
        da, db = f2_rank(a), f2_rank(b)
        ds = f2_rank(f2_subspace_sum(a, b))
        di = f2_subspace_intersection(a, b).nrows
        assert ds + di == da + db
        for row in f2_subspace_intersection(a, b).rows:
            assert f2_in_row_space(row, f2_row_space(a))
            assert f2_in_row_space(row, f2_row_space(b))


def test_matmul_apply_consistency():
    rng = random.Random(9)
    a = random_f2(rng, 6, 8)
    b = random_f2(rng, 8, 5)
    ab = a @ b
    for j in range(5):
        col = 1 << j
        assert ab.apply(col) == a.apply(b.apply(col))


# --- Smith normal form ------------------------------------------------------

def check_snf(a):
    d, u, v = smith_normal_form(a)
    assert is_unimodular(u)
    assert is_unimodular(v)
    assert mat_mul_z(mat_mul_z(u, a), v) == d
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    for i, row in enumerate(d):
        for j, e in enumerate(row):
            if i != j:
                assert e == 0
    return diag


def test_snf_1x1():
    for p in (0, 1, 5, -7):
        diag = check_snf([[p]])
        assert diag == [abs(p)]


def test_snf_hand_example():
    # [[2,1],[1,2]]: row/col ops by hand give diag(1, 3)
    diag = check_snf([[2, 1], [1, 2]])
    assert diag == [1, 3]


def test_snf_gcd_lcm():
    # diag(6,4): invariant factors gcd=2 then lcm=12
    diag = check_snf([[6, 0], [0, 4]])
    assert diag == [2, 12]


def test_snf_random_det_product():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 8)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        diag = check_snf(a)
        det = det_bareiss(a)
        assert det == naive_det_fraction(a)
        prod = 1
        for x in diag:
            prod *= x
        assert abs(det) == prod


def test_snf_rectangular():
    rng = random.Random(17)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        check_snf(a)


# --- cokernel / abelian groups ----------------------------------------------

def test_cokernel_zp():
    g = cokernel_group([[5]])
    assert g.invariant_factors == (5,) and g.free_rank == 0
    assert g.order() == 5


def test_cokernel_zero_block():
    g = cokernel_group([[0]])
    assert g.free_rank == 1 and g.order() is None


def test_cokernel_2x2():
    g = cokernel_group([[2, 1], [1, 2]])
    assert g.invariant_factors == (3,) and g.free_rank == 0


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup((1,), 0)
    with pytest.raises(ValueError):
        AbelianGroup((4, 6), 0)
    assert str(AbelianGroup((2, 4), 1)) == "Z/2 + Z/4 + Z"
    assert str(AbelianGroup((), 0)) == "0"


def test_cokernel_order_matches_det():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        g = cokernel_group(a)
        det = abs(det_bareiss(a))
        if det:
            assert g.order() == det
        else:
            assert g.free_rank > 0
