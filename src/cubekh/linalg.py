"""Exact linear algebra: bit-packed GF(2) matrices and integer Smith normal form.

GF(2) matrices store each row as a Python int bitmask (bit j = column j), so
row operations are single XORs regardless of width.  Integer matrices are
plain lists of lists of ints; Python's arbitrary precision removes any real
overflow concern.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, InternalInconsistency


# ---------------------------------------------------------------------------
# GF(2)
# ---------------------------------------------------------------------------

class MatF2(NamedTuple("MatF2", [("nrows", int), ("ncols", int), ("rows", tuple)])):
    """Dense GF(2) matrix with bit-packed rows.

    rows[i] is an int whose bit j is the (i, j) entry.  Vectors are plain
    ints in the same encoding.  A named tuple, equal and hashed by value;
    construction checks the row count and that no row has a bit beyond ncols.
    """

    __slots__ = ()

    def __new__(cls, nrows: int, ncols: int, rows: tuple = ()):
        if len(rows) != nrows:
            raise DimensionMismatch(f"expected {nrows} rows, got {len(rows)}")
        if rows and (min(rows) < 0 or max(rows) >> ncols):
            raise DimensionMismatch("row has bits beyond ncols")
        return tuple.__new__(cls, (nrows, ncols, rows))

    @staticmethod
    def zero(nrows: int, ncols: int) -> "MatF2":
        return MatF2(nrows, ncols, (0,) * nrows)

    def transpose(self) -> "MatF2":
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return MatF2(self.ncols, self.nrows, tuple(cols))

    def __matmul__(self, other: "MatF2") -> "MatF2":
        return MatF2(self.nrows, other.ncols, tuple(_product_rows(self, other)))


def _product_rows(a: MatF2, b: MatF2):
    """The rows of a @ b, one at a time: each row of a XORs the rows of b
    that its bits select, from its highest bit down (a bit length and one
    shift per bit)."""
    if a.ncols != b.nrows:
        raise DimensionMismatch(f"{a.ncols} cols vs {b.nrows} rows")
    rows = b.rows
    for r in a.rows:
        acc = 0
        while r:
            j = r.bit_length() - 1
            acc ^= rows[j]
            r ^= 1 << j
        yield acc


def product_is_zero(a: MatF2, b: MatF2) -> bool:
    """Whether a @ b = 0, without building the product or checking its
    rows: the first nonzero row of it ends the check."""
    return not any(_product_rows(a, b))


def _pivots(rows, pivots: dict[int, int] | None = None) -> dict[int, int]:
    """Echelon pivots keyed by the bit length of their lowest set bit, one
    more than its index, so a key is a small int however wide the rows are;
    values are reduced rows.  The keys, less one, are independent columns
    that span the column space: on them the pivots form a triangle with a
    unit diagonal.

    Given `pivots`, the elimination continues into it, so rows can be fed
    in batches and the pivots each batch adds are the dict's newest keys.
    """
    if pivots is None:
        pivots = {}
    for r in rows:
        while r:
            key = (r & -r).bit_length()
            p = pivots.get(key)
            if p is None:
                pivots[key] = r
                break
            r ^= p
    return pivots


def f2_rank(m: MatF2) -> int:
    """Rank over GF(2) by Gaussian elimination on bit-packed rows."""
    return len(_pivots(m.rows))


def f2_kernel_basis(m: MatF2) -> MatF2:
    """Rows form a basis of {v : m @ v = 0}; row count = ncols - rank."""
    # Reduce the rows of [A^T | I]: a pivot whose lowest bit lies in the I
    # block has a zero A^T side, so its I side is a kernel vector.
    n = m.nrows
    aug = (r | (1 << (n + i)) for i, r in enumerate(m.transpose().rows))
    kernel = [r >> n for key, r in _pivots(aug).items() if key > n]
    return MatF2(len(kernel), m.ncols, tuple(kernel))


# ---------------------------------------------------------------------------
# Integer matrices and Smith normal form
# ---------------------------------------------------------------------------

MatZ = list  # rows of ints; alias used in signatures for readability


def _check_rect(a: Sequence[Sequence[int]]) -> tuple[int, int]:
    n = len(a)
    m = len(a[0]) if n else 0
    for row in a:
        if len(row) != m:
            raise DimensionMismatch("ragged integer matrix")
    return n, m


def det_bareiss(a: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n, m = _check_rect(a)
    if n != m:
        raise DimensionMismatch("determinant of non-square matrix")
    if n == 0:
        return 1
    w = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if w[k][k] == 0:
            for i in range(k + 1, n):
                if w[i][k] != 0:
                    w[k], w[i] = w[i], w[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                w[i][j] = (w[i][j] * w[k][k] - w[i][k] * w[k][j]) // prev
            w[i][k] = 0
        prev = w[k][k]
    return sign * w[-1][-1]


class AbelianGroup(NamedTuple("AbelianGroup", [("invariant_factors", tuple),
                                               ("free_rank", int)])):
    """Finitely generated abelian group as invariant factors plus free rank."""

    __slots__ = ()

    def __new__(cls, invariant_factors: tuple, free_rank: int):
        for i, f in enumerate(invariant_factors):
            if f < 2:
                raise ValueError("invariant factors must be >= 2")
            if i and invariant_factors[i - 1] and f % invariant_factors[i - 1]:
                raise ValueError("invariant factors must form a divisibility chain")
        return tuple.__new__(cls, (invariant_factors, free_rank))

    def order(self) -> int | None:
        """Group order, or None when infinite (free_rank > 0)."""
        if self.free_rank:
            return None
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def __str__(self) -> str:
        parts = [f"Z/{f}" for f in self.invariant_factors]
        parts.extend(["Z"] * self.free_rank)
        return " + ".join(parts) if parts else "0"


def _gcdext(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _clear_column(d: list, t: int) -> None:
    """Extended-gcd 2x2 unimodular row operations on rows t and i > t that
    leave d[i][t] = 0 below row t, and d[t][t] the gcd of column t from
    row t down."""
    for i in range(t + 1, len(d)):
        p, q = d[t][t], d[i][t]
        if q == 0:
            continue
        dt, di = d[t], d[i]
        if p and q % p == 0:
            c = q // p
            d[i] = [b - c * a for a, b in zip(dt, di)]
            continue
        g, x, y = _gcdext(p, q)
        pg, qg = p // g, q // g
        d[t] = [x * a + y * b for a, b in zip(dt, di)]
        d[i] = [pg * b - qg * a for a, b in zip(dt, di)]


def smith_normal_form(a: Sequence[Sequence[int]]) -> list[int]:
    """Invariant diagonal of the Smith normal form over the integers.

    Returns the min(rows, cols) diagonal entries d[0] | d[1] | ..., all
    non-negative, zeros last.  Step t moves the least nonzero entry of the
    block from (t, t) on to (t, t), then clears column t with `_clear_column`
    and row t with the same routine on the transpose, which has the same
    invariant factors, until both are zero off the pivot; each gcd that is
    not the pivot itself makes the pivot smaller.  A row of the block that
    the pivot does not divide is added to row t and the step repeats.  The
    transforms themselves are not kept.
    """
    n, m = _check_rect(a)
    d = [list(map(int, row)) for row in a]
    rank_bound = min(n, m)
    t = 0
    while t < rank_bound:
        block = [(abs(x), i, j) for i in range(t, len(d))
                 for j, x in enumerate(d[i][t:], t) if x]
        if not block:
            break
        _, i, j = min(block)      # a tie keeps (t, t): a repeated step then shrinks it
        d[t], d[i] = d[i], d[t]
        for row in d:
            row[t], row[j] = row[j], row[t]
        _clear_column(d, t)
        while any(d[t][t + 1:]):
            d = [list(c) for c in zip(*d)]
            _clear_column(d, t)
        p = d[t][t]
        bad = next((row for row in d[t + 1:] if any(x % p for x in row[t + 1:])), None)
        if bad is None:
            t += 1
        else:
            d[t] = [x + y for x, y in zip(d[t], bad)]
    return [abs(d[i][i]) for i in range(t)] + [0] * (rank_bound - t)


def cokernel_group(a: Sequence[Sequence[int]]) -> AbelianGroup:
    """Cokernel Z^cols / rowspace(a), read off the invariant diagonal of a:
    entries above 1 are the invariant factors and each column past the
    nonzero entries adds one free summand.  The diagonal is checked against
    a GF(2) elimination: unimodular operations stay invertible mod 2, so the
    rank of a mod 2 is the number of odd entries.  For a square a, the
    product of the diagonal, the cokernel's order (0 if infinite), is also
    checked against |det a| by Bareiss elimination.  Either check raises
    InternalInconsistency when it fails."""
    n, m = _check_rect(a)
    if m == 0:
        return AbelianGroup((), 0)
    if n == 0:
        return AbelianGroup((), m)
    diag = smith_normal_form(a)
    mod2 = MatF2(n, m, tuple(sum((x & 1) << j for j, x in enumerate(row)) for row in a))
    if f2_rank(mod2) != sum(x & 1 for x in diag):
        raise InternalInconsistency("Smith normal form disagrees with the rank mod 2")
    if n == m:
        order, det = prod(diag), abs(det_bareiss(a))
        if order != det:
            raise InternalInconsistency(
                f"|H1| from the Smith form disagrees with the determinant: {order} vs {det}")
    factors = tuple(x for x in diag if x > 1)
    nonzero = sum(1 for x in diag if x != 0)
    return AbelianGroup(factors, m - nonzero)
