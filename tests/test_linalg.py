"""GF(2) and Smith form tests, each checked against a naive oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubekh.errors import DimensionMismatch
from cubekh.linalg import (
    AbelianGroup,
    MatF2,
    cokernel_group,
    det_bareiss,
    f2_kernel_basis,
    f2_rank,
    product_is_zero,
    smith_normal_form,
)
from linalg_helpers import (
    f2_apply,
    f2_from_lists,
    f2_identity,
    f2_in_row_space,
    f2_row_space,
    f2_solve,
    f2_subspace_intersection,
    f2_subspace_sum,
    f2_to_lists,
    is_unimodular,
    mat_mul_z,
    smith_normal_form_oracle,
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
    return f2_from_lists([[rng.randint(0, 1) for _ in range(ncols)]
                             for _ in range(nrows)])


# --- GF(2) -----------------------------------------------------------------

def test_rank_identity_and_zero():
    assert f2_rank(f2_identity(5)) == 5
    assert f2_rank(MatF2.zero(4, 7)) == 0


def test_rank_random_vs_naive_oracle():
    rng = random.Random(7)
    m = random_f2(rng, 64, 64)
    assert f2_rank(m) == naive_rank_gf2(f2_to_lists(m))


@pytest.mark.parametrize("shape", [(3, 5), (10, 4), (17, 17), (1, 1), (0, 3)])
def test_rank_matches_oracle_many(shape):
    rng = random.Random(sum(shape))
    for _ in range(20):
        m = random_f2(rng, *shape) if shape[0] else MatF2.zero(0, shape[1])
        assert f2_rank(m) == naive_rank_gf2(f2_to_lists(m))


def test_kernel_identity_empty():
    assert f2_kernel_basis(f2_identity(4)).nrows == 0


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
        assert f2_apply(m, row) == 0
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
    assert all(f2_apply(m, row) == 0 for row in k.rows)
    assert f2_rank(k) == k.nrows


def test_solve_and_membership():
    rng = random.Random(3)
    m = random_f2(rng, 12, 9)
    for _ in range(20):
        x = rng.getrandbits(9)
        b = f2_apply(m, x)
        sol = f2_solve(m, b)
        assert sol is not None and f2_apply(m, sol) == b
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
        assert f2_apply(ab, col) == f2_apply(a, f2_apply(b, col))



@pytest.mark.parametrize("seed", range(20))
def test_product_is_zero_matches_product(seed):
    # rows of a from the left kernel of b give a @ b = 0; one more row of
    # a that is not in it does not
    rng = random.Random(seed)
    b = random_f2(rng, rng.randint(1, 12), rng.randint(1, 12))
    a = f2_kernel_basis(b.transpose())
    assert not any((a @ b).rows) and product_is_zero(a, b)
    c = MatF2(a.nrows + 1, a.ncols, a.rows + (rng.randrange(1, 1 << a.ncols),))
    assert product_is_zero(c, b) == (not any((c @ b).rows))
    with pytest.raises(DimensionMismatch):
        product_is_zero(b, MatF2.zero(b.ncols + 1, 2))


@pytest.mark.parametrize("ncols, rows, accepted", [
    (5, (3, -1, 0), False),          # a negative row has every high bit set
    (5, (1, 1 << 5), False),         # bit ncols is one past the last column
    (5, (0b11111, 0, 0b10101), True),
    (0, (0, 0), True),
    (0, (0, 1), False),
    (0, (-1,), False),
    (0, (), True),
])
def test_row_width_checked(ncols, rows, accepted):
    if accepted:
        assert MatF2(len(rows), ncols, rows).rows == rows
    else:
        with pytest.raises(DimensionMismatch, match="^row has bits beyond ncols$"):
            MatF2(len(rows), ncols, rows)


def test_row_count_checked():
    with pytest.raises(DimensionMismatch, match="^expected 2 rows, got 1$"):
        MatF2(2, 3, (1,))
    with pytest.raises(DimensionMismatch, match="^expected 1 rows, got 0$"):
        MatF2(1, 3)


# --- Smith normal form ------------------------------------------------------

def check_snf(a):
    """The transform oracle gives u @ a @ v = d with u, v unimodular; the
    transform-free src diagonal must equal its diagonal."""
    d, u, v = smith_normal_form_oracle(a)
    assert is_unimodular(u)
    assert is_unimodular(v)
    assert mat_mul_z(mat_mul_z(u, a), v) == d
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    assert smith_normal_form(a) == diag
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
    for _ in range(20):
        n = rng.randint(1, 9)
        a = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        assert abs(det_bareiss(a)) == math.prod(check_snf(a))


def test_snf_rectangular():
    rng = random.Random(17)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        check_snf(a)
    # no rows (a list of rows cannot tell 0x3 from 0x0), then no columns
    for a in ([], [[]], [[], [], []]):
        assert check_snf(a) == []
    for _ in range(40):
        n, m = rng.sample(range(1, 10), 2)
        a = [[rng.randint(-50, 50) for _ in range(m)] for _ in range(n)]
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


def test_cokernel_diagonal_checked_mod_2(monkeypatch):
    # Z/6 misread as Z/9: a has rank 1 mod 2, but both entries are odd
    import cubekh.linalg as linalg
    from cubekh.errors import InternalInconsistency
    assert cokernel_group([[2, 0], [0, 3]]).invariant_factors == (6,)
    monkeypatch.setattr(linalg, "smith_normal_form", lambda a: [1, 9])
    with pytest.raises(InternalInconsistency, match="rank mod 2"):
        cokernel_group([[2, 0], [0, 3]])


def test_abelian_group_validation():
    with pytest.raises(ValueError, match="^invariant factors must be >= 2$"):
        AbelianGroup((1,), 0)
    with pytest.raises(ValueError, match="^invariant factors must form a divisibility chain$"):
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
