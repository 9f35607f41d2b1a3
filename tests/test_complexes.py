"""Graded/double/filtered complex machinery, checked against long-exact
rank bookkeeping and direct homology computations."""

import random

import pytest

from cubekh.complexes import (
    ChainMap,
    DoubleComplexF2,
    FilteredComplexF2,
    GradedComplexF2,
    block_matrix,
    homology_ranks,
    is_quasi_isomorphism,
    mapping_cone,
    spectral_pages,
    total_complex,
)
from cubekh.errors import (
    FiltrationViolation,
    NotAComplex,
    NotBicomplex,
    NotChainMap,
)
from cubekh.linalg import MatF2, f2_rank
from linalg_helpers import f2_row_space, f2_solve


def rand_mat(rng, nr, nc):
    return MatF2.from_lists([[rng.randint(0, 1) for _ in range(nc)]
                             for _ in range(nr)])


def random_three_term(rng, dims):
    """Random complex 0 -> C0 -> C1 -> C2 -> 0 (d1 solved to kill d0)."""
    d0 = rand_mat(rng, dims[1], dims[0])
    # rows of d1 must annihilate the column space of d0
    colspace = f2_row_space(d0.transpose())
    from cubekh.linalg import f2_kernel_basis
    ker = f2_kernel_basis(colspace) if colspace.nrows else MatF2.identity(dims[1])
    rows = []
    for _ in range(dims[2]):
        v = 0
        for b in ker.rows:
            if rng.randint(0, 1):
                v ^= b
        rows.append(v)
    d1 = MatF2(dims[2], dims[1], tuple(rows))
    return GradedComplexF2({0: dims[0], 1: dims[1], 2: dims[2]}, {0: d0, 1: d1})


# --- homology ----------------------------------------------------------------

def test_zero_differential_homology():
    c = GradedComplexF2({0: 1, 1: 2, 2: 1}, {})
    assert homology_ranks(c) == {0: 1, 1: 2, 2: 1}


def test_identity_complex_acyclic():
    c = GradedComplexF2({0: 1, 1: 1}, {0: MatF2.identity(1)})
    assert homology_ranks(c) == {}


def test_not_a_complex_rejected():
    with pytest.raises(NotAComplex):
        GradedComplexF2({0: 1, 1: 1, 2: 1},
                        {0: MatF2.identity(1), 1: MatF2.identity(1)})


def test_homology_euler_characteristic():
    rng = random.Random(4)
    for _ in range(30):
        c = random_three_term(rng, [rng.randint(1, 6) for _ in range(3)])
        h = homology_ranks(c)
        chi_h = sum((-1) ** k * v for k, v in h.items())
        chi_c = sum((-1) ** k * v for k, v in c.dims.items())
        assert chi_h == chi_c


# --- mapping cone -------------------------------------------------------------

def test_cone_of_identity_acyclic():
    rng = random.Random(8)
    c = random_three_term(rng, [3, 4, 2])
    f = ChainMap(c, c, {k: MatF2.identity(c.dim(k)) for k in c.degrees()})
    assert homology_ranks(mapping_cone(f)) == {}
    assert is_quasi_isomorphism(f)


def test_cone_of_zero_splits():
    rng = random.Random(9)
    a = random_three_term(rng, [2, 3, 2])
    b = random_three_term(rng, [3, 2, 1])
    f = ChainMap(a, b, {})
    cone_h = homology_ranks(mapping_cone(f))
    ha, hb = homology_ranks(a), homology_ranks(b)
    expect = dict(hb)
    for k, v in ha.items():
        expect[k - 1] = expect.get(k - 1, 0) + v
    assert cone_h == {k: v for k, v in expect.items() if v}


def induced_homology_rank(f: ChainMap, k: int) -> int:
    """Oracle: rank of H_k(f) via cycle images modulo boundaries."""
    from cubekh.linalg import f2_kernel_basis
    src, tgt = f.source, f.target
    z = f2_kernel_basis(src.d(k))
    imgs = [f.block(k).apply(v) for v in z.rows]
    bt_rows = [tgt.d(k - 1).apply(1 << j) for j in range(tgt.dim(k - 1))]
    bt = f2_row_space(MatF2(len(bt_rows), tgt.dim(k), tuple(bt_rows)))
    stacked = MatF2(len(imgs), tgt.dim(k), tuple(imgs)).stack(bt)
    return f2_rank(stacked) - f2_rank(bt)


def test_cone_long_exact_sequence_bookkeeping():
    rng = random.Random(12)
    for _ in range(25):
        dims = [rng.randint(1, 4) for _ in range(3)]
        src = random_three_term(rng, dims)
        tgt = random_three_term(rng, [rng.randint(1, 4) for _ in range(3)])
        # random chain map: solve the commuting constraints degree by degree
        blocks = {}
        ok = True
        for k in (0, 1, 2):
            exp = (tgt.dim(k), src.dim(k))
            if k == 0:
                blocks[0] = rand_mat(rng, *exp)
                continue
            # need tgt.d(k-1) @ blocks[k-1] == blocks[k] @ src.d(k-1)
            want = tgt.d(k - 1) @ blocks[k - 1]
            sol_rows = []
            dk = src.d(k - 1)
            for i in range(exp[0]):
                x = f2_solve(dk.transpose(), want.rows[i])
                if x is None:
                    ok = False
                    break
                sol_rows.append(x)
            if not ok:
                break
            blocks[k] = MatF2(exp[0], exp[1], tuple(sol_rows))
        if not ok:
            continue
        f = ChainMap(src, tgt, blocks)
        cone_h = homology_ranks(mapping_cone(f))
        hs, ht = homology_ranks(src), homology_ranks(tgt)
        for k in range(-1, 3):
            want = (ht.get(k, 0) - induced_homology_rank(f, k)
                    + hs.get(k + 1, 0) - induced_homology_rank(f, k + 1))
            assert cone_h.get(k, 0) == want


def test_quasi_iso_iff_cone_acyclic():
    rng = random.Random(21)
    c = random_three_term(rng, [3, 3, 3])
    f = ChainMap(c, c, {k: MatF2.identity(c.dim(k)) for k in c.degrees()})
    assert is_quasi_isomorphism(f)
    z = ChainMap(c, c, {})
    assert is_quasi_isomorphism(z) == (not homology_ranks(c))


def test_chain_map_validation():
    a = GradedComplexF2({0: 1, 1: 1}, {0: MatF2.identity(1)})
    b = GradedComplexF2({0: 1, 1: 1}, {})
    with pytest.raises(NotChainMap):
        ChainMap(a, b, {0: MatF2.identity(1), 1: MatF2.identity(1)})


# --- double complexes ---------------------------------------------------------

def test_total_of_horizontal_only():
    rng = random.Random(6)
    d0 = rand_mat(rng, 3, 2)
    dc = DoubleComplexF2({(0, 0): 2, (1, 0): 3}, {(0, 0): d0}, {})
    total, _ = total_complex(dc)
    assert total.dims == {0: 2, 1: 3}
    assert total.d(0).rows == d0.rows


def test_acyclic_square():
    one = MatF2.identity(1)
    dc = DoubleComplexF2({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                         {(0, 0): one, (0, 1): one},
                         {(0, 0): one, (1, 0): one})
    total, _ = total_complex(dc)
    assert homology_ranks(total) == {}


def test_bicomplex_commutation_enforced():
    one = MatF2.identity(1)
    zero = MatF2.zero(1, 1)
    with pytest.raises(NotBicomplex):
        DoubleComplexF2({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                        {(0, 0): one, (0, 1): one},
                        {(0, 0): one, (1, 0): zero})


# --- filtered complexes and spectral pages -------------------------------------

def test_filtration_violation_detected():
    c = GradedComplexF2({0: 1, 1: 1}, {0: MatF2.identity(1)})
    with pytest.raises(FiltrationViolation):
        FilteredComplexF2(c, {0: [1], 1: [0]})


def test_spectral_zero_differential():
    c = GradedComplexF2({0: 2, 1: 3}, {})
    fc = FilteredComplexF2(c, {0: [0, 1], 1: [0, 1, 2]})
    pages = spectral_pages(fc)
    assert pages.stabilization_index == 0
    assert pages.pages[0] == pages.e_infinity
    assert sum(v for (p, t), v in pages.e_infinity.items() if t == 0) == 2
    assert sum(v for (p, t), v in pages.e_infinity.items() if t == 1) == 3


def random_filtered(rng, max_dim=4, levels=3):
    dims = {k: rng.randint(1, max_dim) for k in range(3)}
    lev = {k: [rng.randrange(levels) for _ in range(dims[k])] for k in range(3)}
    # allowed entries: target level >= source level; build d1 after d0 with
    # d1 d0 = 0 by solving in the kernel, then mask violations out by retry
    for _ in range(200):
        d0 = rand_mat(rng, dims[1], dims[0])
        rows = []
        for i in range(dims[1]):
            r = d0.rows[i]
            keep = 0
            for j in range(dims[0]):
                if (r >> j) & 1 and lev[1][i] >= lev[0][j]:
                    keep |= 1 << j
            rows.append(keep)
        d0 = MatF2(dims[1], dims[0], tuple(rows))
        from cubekh.linalg import f2_kernel_basis
        colspace = f2_row_space(d0.transpose())
        ker = (f2_kernel_basis(colspace) if colspace.nrows
               else MatF2.identity(dims[1]))
        rows = []
        good = True
        for i in range(dims[2]):
            v = 0
            for b in ker.rows:
                if rng.randint(0, 1):
                    v ^= b
            for j in range(dims[1]):
                if (v >> j) & 1 and lev[2][i] < lev[1][j]:
                    v &= ~(1 << j)
            rows.append(v)
        d1 = MatF2(dims[2], dims[1], tuple(rows))
        if (d1 @ d0).is_zero():
            try:
                c = GradedComplexF2(dims, {0: d0, 1: d1})
                return FilteredComplexF2(c, lev)
            except FiltrationViolation:
                continue
    raise AssertionError("could not build a random filtered complex")


def test_spectral_pages_invariants_random():
    rng = random.Random(33)
    for _ in range(40):
        fc = random_filtered(rng)
        pages = spectral_pages(fc)
        # monotone ranks pointwise
        for r in range(1, len(pages.pages)):
            for key, v in pages.pages[r].items():
                assert v <= pages.pages[r - 1].get(key, 0)
        # E-infinity totals match homology of the underlying complex
        beta = homology_ranks(fc.complex)
        einf = {}
        for (p, t), v in pages.e_infinity.items():
            einf[t] = einf.get(t, 0) + v
        assert einf == beta
        assert pages.stabilization_index <= fc.max_level + 1


def test_block_matrix_layout():
    a = MatF2.identity(2)
    b = MatF2.zero(2, 1)
    m = block_matrix({(0, 0): a, (0, 1): b}, [2], [2, 1])
    assert m.nrows == 2 and m.ncols == 3
    assert m.entry(0, 0) == 1 and m.entry(1, 1) == 1 and m.entry(0, 2) == 0
