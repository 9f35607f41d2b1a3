"""GF(2) and integer matrix helpers that only tests use: homology and the
persistence pairing by plain elimination, each differential from scratch
with nothing cleared (the oracles for the clearing in `cubekh.complexes`),
the identity and list forms of a GF(2) matrix, its entries, its product
with a vector and the stack of two, echelon row spaces, solving,
row-space membership, subspace sum and intersection, the Smith normal form
with its unimodular transforms and the integer product and unimodularity
test that check it, the quasi-isomorphism test by mapping cone, and the
weight of a multi-framing of a filled linking matrix.

The Smith form oracle is the oracle for `linalg.smith_normal_form`, which
keeps only the diagonal.  It shares no loop with it: the oracle clears rows
and columns with separate transforms that it carries along, while
`linalg` clears rows and columns with one column routine, run on the
matrix and on its transpose."""

from typing import Sequence

from cubekh.complexes import _shift, homology_ranks, mapping_cone
from cubekh.errors import DimensionMismatch
from cubekh.linalg import MatF2, _check_rect, _gcdext, _pivots, det_bareiss, f2_rank
from cubekh.surgery import _norm_framing


def plain_homology_ranks(c) -> dict:
    """Betti numbers of a GradedComplexF2, each differential ranked from
    scratch."""
    ranks = {k: f2_rank(m) for k, m in c.differentials.items()}
    out = {}
    for k in c.degrees():
        b = c.dim(k) - ranks.get(k, 0) - ranks.get(_shift(k, -1), 0)
        if b:
            out[k] = b
    return out


def plain_pairing(fc) -> tuple[dict, dict]:
    """(free, bars) of a FilteredComplexF2 as `complexes._pairing` gives
    them, with every column of every differential reduced in dict order
    and nothing cleared."""
    c = fc.complex
    free: dict[tuple, int] = {}
    for t in c.degrees():
        for p in fc.levels[t]:
            free[(p, t)] = free.get((p, t), 0) + 1
    bars: dict[tuple, int] = {}
    for t, m in c.differentials.items():
        order = sorted(range(m.nrows), key=fc.levels[t + 1].__getitem__)
        row_lv = sorted(fc.levels[t + 1])
        cols = [0] * m.ncols
        for b, i in enumerate(order):
            row = m.rows[i]
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= 1 << b
                row ^= low
        by_level: dict[int, list] = {}
        for j, p in enumerate(fc.levels[t]):
            by_level.setdefault(p, []).append(cols[j])
        pivots: dict[int, int] = {}
        born: list[int] = []    # level of the column behind each pivot, in pivot order
        for p in sorted(by_level, reverse=True):
            _pivots(by_level[p], pivots)
            born.extend([p] * (len(pivots) - len(born)))
        for p, key in zip(born, pivots):
            p_end = row_lv[key - 1]
            bars[(p, t, p_end)] = bars.get((p, t, p_end), 0) + 1
            free[(p, t)] -= 1
            free[(p_end, t + 1)] -= 1
    return free, bars


def f2_identity(n: int) -> MatF2:
    return MatF2(n, n, tuple(1 << i for i in range(n)))


def f2_to_lists(m: MatF2) -> list[list[int]]:
    return [[(r >> j) & 1 for j in range(m.ncols)] for r in m.rows]


def f2_from_lists(rows: Sequence[Sequence[int]]) -> MatF2:
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


def f2_entry(m: MatF2, i: int, j: int) -> int:
    return (m.rows[i] >> j) & 1


def f2_apply(m: MatF2, v: int) -> int:
    """Matrix times column vector (vector encoded as int bitmask)."""
    out = 0
    for i, r in enumerate(m.rows):
        if (r & v).bit_count() & 1:
            out |= 1 << i
    return out


def f2_stack(a: MatF2, b: MatF2) -> MatF2:
    """a's rows above b's."""
    if a.ncols != b.ncols:
        raise DimensionMismatch("column mismatch")
    return MatF2(a.nrows + b.nrows, a.ncols, a.rows + b.rows)


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
        p = pivots.get((v & -v).bit_length())
        if p is None:
            return False
        v ^= p
    return True


def f2_subspace_sum(a: MatF2, b: MatF2) -> MatF2:
    """Echelon basis of rowspace(a) + rowspace(b)."""
    return f2_row_space(f2_stack(a, b))


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


def smith_normal_form_oracle(a: Sequence[Sequence[int]]):
    """Smith normal form over the integers, with its transforms.

    Returns (d, u, v) with u @ a @ v = d, u and v unimodular, d diagonal with
    d[0] | d[1] | ... and non-negative diagonal.  Entries are cleared with
    extended-gcd 2x2 unimodular transforms, which keeps coefficient growth
    tame.
    """
    n, m = _check_rect(a)
    d = [list(map(int, row)) for row in a]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

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


def is_quasi_isomorphism(source, target, blocks) -> bool:
    return not homology_ranks(mapping_cone(source, target, blocks))


def framing_weight(v: Sequence) -> int:
    """Number of entries differing from 0 (infinity counts as weight 1)."""
    return sum(1 for x in v if _norm_framing(x) != 0)
