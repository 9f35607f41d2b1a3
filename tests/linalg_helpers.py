"""GF(2) and integer matrix helpers that only tests use: echelon row
spaces, solving, row-space membership, subspace sum and intersection, and
the integer product and unimodularity test that check a Smith normal
form."""

from typing import Sequence

from cubekh.errors import DimensionMismatch
from cubekh.linalg import MatF2, _check_rect, _pivots, det_bareiss


def f2_row_space(m: MatF2) -> MatF2:
    """Echelon basis of the row space, ordered by pivot position."""
    pivots = _pivots(m.rows)
    basis = [pivots[k] for k in sorted(pivots)]
    return MatF2(len(basis), m.ncols, tuple(basis))


def f2_solve(m: MatF2, b: int) -> int | None:
    """One solution v of m @ v = b, or None if inconsistent."""
    at = m.transpose()
    lead_mask = (1 << m.nrows) - 1
    pivots: dict[int, int] = {}
    for i in range(m.ncols):
        r = at.rows[i] | (1 << (m.nrows + i))
        while r & lead_mask:
            low = (r & lead_mask) & -(r & lead_mask)
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
                break
            r ^= p
    acc = b
    sol = 0
    for low in sorted(pivots):
        if acc & low:
            row = pivots[low]
            acc ^= row & lead_mask
            sol ^= row >> m.nrows
    return sol if acc == 0 else None


def f2_in_row_space(v: int, m: MatF2) -> bool:
    pivots = _pivots(m.rows)
    while v:
        low = v & -v
        p = pivots.get(low)
        if p is None:
            return False
        v ^= p
    return True


def f2_subspace_sum(a: MatF2, b: MatF2) -> MatF2:
    """Echelon basis of rowspace(a) + rowspace(b)."""
    return f2_row_space(a.stack(b))


def f2_subspace_intersection(a: MatF2, b: MatF2) -> MatF2:
    """Basis of rowspace(a) ∩ rowspace(b) via the Zassenhaus trick."""
    if a.ncols != b.ncols:
        raise DimensionMismatch("ambient mismatch")
    n = a.ncols
    # Rows [x | x] for x in a, [y | 0] for y in b; intersection appears in
    # the right block of rows whose left block reduced to zero.
    aug = [r | (r << n) for r in a.rows] + list(b.rows)
    left = (1 << n) - 1
    pivots: dict[int, int] = {}
    inter: list[int] = []
    for row in aug:
        while row & left:
            low = (row & left) & -(row & left)
            p = pivots.get(low)
            if p is None:
                pivots[low] = row
                break
            row ^= p
        else:
            if row:
                inter.append(row >> n)
    return f2_row_space(MatF2(len(inter), n, tuple(inter)))


def mat_mul_z(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]):
    n, k = _check_rect(a)
    k2, m = _check_rect(b)
    if k != k2:
        raise DimensionMismatch("inner dimensions disagree")
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def is_unimodular(a: Sequence[Sequence[int]]) -> bool:
    return abs(det_bareiss(a)) == 1
