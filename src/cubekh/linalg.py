"""Exact linear algebra: bit-packed GF(2) matrices and integer Smith normal form.

GF(2) matrices store each row as a Python int bitmask (bit j = column j), so
row operations are single XORs regardless of width.  Integer matrices are
plain lists of lists of ints; Python's arbitrary precision removes any real
overflow concern, but an optional bit budget is enforced for callers that
want to detect coefficient explosion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, OverflowGuard


# ---------------------------------------------------------------------------
# GF(2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatF2:
    """Dense GF(2) matrix with bit-packed rows.

    rows[i] is an int whose bit j is the (i, j) entry.  Vectors are plain
    ints in the same encoding.
    """

    nrows: int
    ncols: int
    rows: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if len(self.rows) != self.nrows:
            raise DimensionMismatch(f"expected {self.nrows} rows, got {len(self.rows)}")
        mask = (1 << self.ncols) - 1
        for r in self.rows:
            if r & ~mask:
                raise DimensionMismatch("row has bits beyond ncols")

    @staticmethod
    def from_lists(rows: Sequence[Sequence[int]]) -> "MatF2":
        ncols = len(rows[0]) if rows else 0
        packed = []
        for row in rows:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            word = 0
            for j, e in enumerate(row):
                if e & 1:
                    word |= 1 << j
            packed.append(word)
        return MatF2(len(packed), ncols, tuple(packed))

    @staticmethod
    def zero(nrows: int, ncols: int) -> "MatF2":
        return MatF2(nrows, ncols, (0,) * nrows)

    @staticmethod
    def identity(n: int) -> "MatF2":
        return MatF2(n, n, tuple(1 << i for i in range(n)))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.ncols)] for r in self.rows]

    def transpose(self) -> "MatF2":
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return MatF2(self.ncols, self.nrows, tuple(cols))

    def apply(self, v: int) -> int:
        """Matrix times column vector (vector encoded as int bitmask)."""
        out = 0
        for i, r in enumerate(self.rows):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out

    def __matmul__(self, other: "MatF2") -> "MatF2":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} cols vs {other.nrows} rows")
        out = []
        for r in self.rows:
            acc = 0
            rr = r
            while rr:
                low = rr & -rr
                acc ^= other.rows[low.bit_length() - 1]
                rr ^= low
            out.append(acc)
        return MatF2(self.nrows, other.ncols, tuple(out))

    def __add__(self, other: "MatF2") -> "MatF2":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch")
        return MatF2(self.nrows, self.ncols,
                     tuple(a ^ b for a, b in zip(self.rows, other.rows)))

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    def stack(self, other: "MatF2") -> "MatF2":
        if self.ncols != other.ncols:
            raise DimensionMismatch("column mismatch")
        return MatF2(self.nrows + other.nrows, self.ncols, self.rows + other.rows)


def _pivots(rows, pivots: dict[int, int] | None = None) -> dict[int, int]:
    """Echelon pivots keyed by lowest set bit; values are reduced rows.

    Given `pivots`, the elimination continues into it, so rows can be fed
    in batches and the pivots each batch adds are the dict's newest keys.
    """
    if pivots is None:
        pivots = {}
    for r in rows:
        while r:
            low = r & -r
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
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
    kernel = [r >> n for low, r in _pivots(aug).items() if low >> n]
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


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group as invariant factors plus free rank."""

    invariant_factors: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        for i, f in enumerate(self.invariant_factors):
            if f < 2:
                raise ValueError("invariant factors must be >= 2")
            if i and self.invariant_factors[i - 1] and f % self.invariant_factors[i - 1]:
                raise ValueError("invariant factors must form a divisibility chain")

    def order(self) -> int | None:
        """Group order, or None when infinite (free_rank > 0)."""
        if self.free_rank:
            return None
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def is_trivial(self) -> bool:
        return not self.invariant_factors and not self.free_rank

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


def smith_normal_form(a: Sequence[Sequence[int]], bit_budget: int | None = None):
    """Smith normal form over the integers.

    Returns (d, u, v) with u @ a @ v = d, u and v unimodular, d diagonal with
    d[0] | d[1] | ... and non-negative diagonal.  Entries are cleared with
    extended-gcd 2x2 unimodular transforms, which keeps coefficient growth
    tame; if bit_budget is set, OverflowGuard is raised when any intermediate
    entry exceeds that many bits.
    """
    n, m = _check_rect(a)
    d = [list(map(int, row)) for row in a]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def guard():
        if bit_budget is None:
            return
        for row in d:
            for e in row:
                if abs(e).bit_length() > bit_budget:
                    raise OverflowGuard(f"entry exceeds {bit_budget} bits")

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in d:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def row_gcd_transform(t, i):
        # unimodular on rows t, i making d[t][t] = gcd and d[i][t] = 0
        p, q = d[t][t], d[i][t]
        if q == 0:
            return
        if p and q % p == 0:
            c = -(q // p)
            d[i] = [x + c * y for x, y in zip(d[i], d[t])]
            u[i] = [x + c * y for x, y in zip(u[i], u[t])]
            return
        g, x, y = _gcdext(p, q)
        pg, qg = p // g, q // g
        dt, di = d[t], d[i]
        d[t] = [x * a_ + y * b_ for a_, b_ in zip(dt, di)]
        d[i] = [-qg * a_ + pg * b_ for a_, b_ in zip(dt, di)]
        ut, ui = u[t], u[i]
        u[t] = [x * a_ + y * b_ for a_, b_ in zip(ut, ui)]
        u[i] = [-qg * a_ + pg * b_ for a_, b_ in zip(ut, ui)]

    def col_gcd_transform(t, j):
        p, q = d[t][t], d[t][j]
        if q == 0:
            return
        if p and q % p == 0:
            c = -(q // p)
            for row in d:
                row[j] += c * row[t]
            for row in v:
                row[j] += c * row[t]
            return
        g, x, y = _gcdext(p, q)
        pg, qg = p // g, q // g
        for row in d:
            a_, b_ = row[t], row[j]
            row[t] = x * a_ + y * b_
            row[j] = -qg * a_ + pg * b_
        for row in v:
            a_, b_ = row[t], row[j]
            row[t] = x * a_ + y * b_
            row[j] = -qg * a_ + pg * b_

    t = 0
    rank_bound = min(n, m)
    while t < rank_bound:
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                e = abs(d[i][j])
                if e and (best is None or e < best):
                    best = e
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, n):
                row_gcd_transform(t, i)
            if all(d[t][j] == 0 for j in range(t + 1, m)):
                break
            for j in range(t + 1, m):
                col_gcd_transform(t, j)
            guard()
            if all(d[i][t] == 0 for i in range(t + 1, n)):
                break
        # force divisibility of the remaining block by the pivot
        offending = None
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if d[i][j] % d[t][t]:
                    offending = i
                    break
            if offending is not None:
                break
        if offending is not None:
            d[t] = [x + y for x, y in zip(d[t], d[offending])]
            u[t] = [x + y for x, y in zip(u[t], u[offending])]
            continue
        t += 1

    for i in range(rank_bound):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return d, u, v


def smith_diagonal(a: Sequence[Sequence[int]]) -> list[int]:
    d, _, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def cokernel_group(a: Sequence[Sequence[int]]) -> AbelianGroup:
    """Cokernel Z^cols / rowspace(a) from the Smith form of a."""
    n, m = _check_rect(a)
    if m == 0:
        return AbelianGroup((), 0)
    if n == 0:
        return AbelianGroup((), m)
    diag = smith_diagonal(a)
    factors = tuple(x for x in diag if x > 1)
    nonzero = sum(1 for x in diag if x != 0)
    return AbelianGroup(factors, m - nonzero)
