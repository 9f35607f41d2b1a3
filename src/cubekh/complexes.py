"""Finite chain complexes over GF(2): graded and filtered; total complexes
of double complexes, homology, mapping cones, and the spectral sequence of
a filtered complex.

The internal homological degree convention is that differentials raise
degree by one (cube weight in the Khovanov application).  Every complex is
checked when it is built: d^2 = 0, and for a double complex, given to
`total_complex` as its blocks, that d_h and d_v commute.  A mapping cone is
the total complex of a two-column double complex, so that check is also
the one that a map is a chain map.
Homology and the spectral sequence pages share one cleared row elimination
(`_cleared_pivots`), valid because d^2 = 0 was checked when the complex
was built; the pages are read off the persistence pairing it gives, which
yields every page and every d^r rank exactly.
"""

from __future__ import annotations

from itertools import groupby
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    FiltrationViolation,
    NotAComplex,
    NotBicomplex,
    NotChainMap,
)
from .linalg import MatF2, _pivots, product_is_zero


def block_matrix(blocks, row_dims: Sequence[int], col_dims: Sequence[int]) -> MatF2:
    """Assemble a MatF2 from a {(i, j): MatF2} block dictionary."""
    row_off = [0]
    for d in row_dims:
        row_off.append(row_off[-1] + d)
    col_off = [0]
    for d in col_dims:
        col_off.append(col_off[-1] + d)
    rows = [0] * row_off[-1]
    for (bi, bj), m in blocks.items():
        if m.nrows != row_dims[bi] or m.ncols != col_dims[bj]:
            raise DimensionMismatch(
                f"block ({bi},{bj}) is {m.nrows}x{m.ncols}, expected "
                f"{row_dims[bi]}x{col_dims[bj]}")
        for i, r in enumerate(m.rows):
            rows[row_off[bi] + i] |= r << col_off[bj]
    return MatF2(row_off[-1], col_off[-1], tuple(rows))


def _shift(k, by: int):
    """Degree k moved by `by`: an int, or a tuple (w, r, ...) whose first
    entry moves and whose other entries a differential keeps."""
    return k + by if isinstance(k, int) else (k[0] + by,) + k[1:]


class GradedComplexF2:
    """Finite complex of GF(2) spaces with d raising degree by one.

    dims maps degree -> dimension; differentials maps degree k to the matrix
    of d_k : C_k -> C_{k+1}.  d*d = 0 is checked at construction.  A degree
    may be a tuple (k, r): then d maps (k, r) to (k + 1, r), so the complex
    is a direct sum over r, checked and ranked one block at a time.
    """

    def __init__(self, dims: Mapping, differentials: Mapping):
        self.dims = {k: int(v) for k, v in dims.items() if v}
        self.differentials = {}
        for k, m in differentials.items():
            src = self.dims.get(k, 0)
            tgt = self.dims.get(_shift(k, 1), 0)
            if (m.nrows, m.ncols) != (tgt, src):
                raise DimensionMismatch(
                    f"d_{k} is {m.nrows}x{m.ncols}, expected {tgt}x{src}")
            if src and tgt:
                self.differentials[k] = m
        for k, m in self.differentials.items():
            nxt = self.differentials.get(_shift(k, 1))
            if nxt is not None and not product_is_zero(nxt, m):
                raise NotAComplex(f"d_{_shift(k, 1)} d_{k} != 0")

    def degrees(self) -> list:
        return sorted(self.dims)

    def dim(self, k) -> int:
        return self.dims.get(k, 0)

    def d(self, k) -> MatF2:
        m = self.differentials.get(k)
        if m is None:
            return MatF2.zero(self.dim(_shift(k, 1)), self.dim(k))
        return m


def _cleared_pivots(c: GradedComplexF2, levels: Mapping | None = None):
    """The one GF(2) elimination of `homology_ranks` and `_pairing`: yields
    (k, p', keys) for each run of d_k's rows of equal level p' in
    levels[k + 1] (one run of level 0 if levels is None), fed to `_pivots`
    lowest level first, where keys are the pivot keys the run adds.

    With clearing: the degrees are eliminated in descending order, which
    walks each block of a tuple-graded complex in descending first entry,
    and d_k without its rows at the pivot columns of d_{k+1}.  Those
    columns are independent and span d_{k+1}'s column space, and d_{k+1}
    d_k = 0, so those rows of d_k are sums of its other rows and the rank
    stays the same.  About rank d_k rows are left, so few reduce to zero.
    The clearing rests on d^2 = 0, checked when c was built."""
    dropped: dict = {}
    for k in sorted(c.differentials, reverse=True):
        rows, above = c.differentials[k].rows, _shift(k, 1)
        drop = dropped.pop(above, ())
        pivots: dict[int, int] = {}
        end = len(rows)
        runs = ([(0, end)] if levels is None else
                [(p, len(list(run))) for p, run in groupby(reversed(levels[above]))])
        for p, size in runs:
            start, n = end - size, len(pivots)
            _pivots((r for i, r in enumerate(rows[start:end], start) if i not in drop),
                    pivots)
            yield k, p, list(pivots)[n:]
            end = start
        dropped[k] = {key - 1 for key in pivots}


def homology_ranks(c: GradedComplexF2) -> dict:
    """Betti numbers: b_k = dim ker d_k - rank d_{k-1}, each rank the pivot
    count of d_k (`_cleared_pivots`)."""
    ranks = {k: len(keys) for k, _, keys in _cleared_pivots(c)}
    out = {}
    for k in c.degrees():
        b = c.dim(k) - ranks.get(k, 0) - ranks.get(_shift(k, -1), 0)
        if b:
            out[k] = b
    return out


def total_complex(dims: Mapping[tuple, int], d_h: Mapping[tuple, MatF2],
                  d_v: Mapping[tuple, MatF2]) -> tuple[GradedComplexF2, dict]:
    """Total complex of the double complex with cells dims[(p, q)] and
    blocks d_h : (p, q) -> (p + 1, q), d_v : (p, q) -> (p, q + 1): degree
    p + q and differential D = d_h + d_v, each degree holding its summands
    by descending p, so that p read as a filtration level never rises
    within a degree (`FilteredComplexF2`).

    Over GF(2) the bicomplex condition is d_h^2 = 0, d_v^2 = 0 and that d_h
    and d_v commute.  Out of each cell, D^2 is made of exactly those three
    blocks, so the condition is checked once, as D^2 = 0 when the total
    complex is built (NotBicomplex if not).

    Returns (complex, positions) where positions maps (p, q) to the
    coordinate offset of that summand inside its total degree.  One loop
    places the blocks of d_h and of d_v alike: each is checked against the
    dimensions of its source and target cells (0 for an absent cell,
    DimensionMismatch naming the block if not), then its rows are ORed in
    at the two cells' offsets.
    """
    cells = {pq: int(v) for pq, v in dims.items() if v}
    totals: dict = {}
    positions = {}
    for p, q in sorted(cells, reverse=True):
        positions[(p, q)] = totals.get(p + q, 0)
        totals[p + q] = positions[(p, q)] + cells[(p, q)]
    rows = {t: [0] * totals[t + 1] for t in sorted(totals) if t + 1 in totals}
    for name, blocks, (dp, dq) in (("d_h", d_h, (1, 0)), ("d_v", d_v, (0, 1))):
        for (p, q), m in blocks.items():
            tgt = (p + dp, q + dq)
            shape = (cells.get(tgt, 0), cells.get((p, q), 0))
            if (m.nrows, m.ncols) != shape:
                raise DimensionMismatch(f"{name} at {(p, q)} is {m.nrows}x{m.ncols}, "
                                        f"expected {shape[0]}x{shape[1]}")
            if all(shape):
                out, r0, c0 = rows[p + q], positions[tgt], positions[(p, q)]
                for i, r in enumerate(m.rows, r0):
                    out[i] |= r << c0
    diffs = {t: MatF2(totals[t + 1], totals[t], tuple(r)) for t, r in rows.items()}
    try:
        return GradedComplexF2(totals, diffs), positions
    except NotAComplex as e:
        raise NotBicomplex(f"total differential d_h + d_v: {e}") from None


def mapping_cone(source: GradedComplexF2, target: GradedComplexF2,
                 blocks: Mapping[int, MatF2]) -> GradedComplexF2:
    """Cone(f) of the map f : source -> target with f_k = blocks[k] (zero
    where absent): the total complex of the double complex with source_k at
    (-1, k), target_k at (0, k), d_h = f and d_v the two differentials, so
    Cone(f)_k holds target_k and then source_{k+1}.  Both differentials
    square to zero already, so D^2 = 0 on the cone is exactly f commuting
    with them, and a map that does not raises NotChainMap."""
    dims = {(-1, k): n for k, n in source.dims.items()}
    dims.update(((0, k), n) for k, n in target.dims.items())
    d_v = {(-1, k): m for k, m in source.differentials.items()}
    d_v.update(((0, k), m) for k, m in target.differentials.items())
    try:
        return total_complex(dims, {(-1, k): m for k, m in blocks.items()}, d_v)[0]
    except NotBicomplex as e:
        raise NotChainMap(f"Cone(f): {e}") from None


class FilteredComplexF2:
    """GradedComplexF2 with a non-negative filtration level per generator.

    The filtration is decreasing: F_p is spanned by generators of level >= p.
    Within each degree the generators must come in non-increasing level,
    so a row's lowest set bit is its highest-level entry and F_p is a
    prefix of every degree.  The differential must never lower the level.
    """

    def __init__(self, complex_: GradedComplexF2, levels: Mapping[int, Sequence[int]]):
        self.complex = complex_
        self.levels = {k: tuple(int(x) for x in levels.get(k, ())) for k in complex_.dims}
        for k in complex_.dims:
            lv = self.levels[k]
            if len(lv) != complex_.dim(k):
                raise DimensionMismatch(f"levels at degree {k} do not match dimension")
            if any(x < 0 for x in lv):
                raise FiltrationViolation("filtration levels must be non-negative")
            if any(a < b for a, b in zip(lv, lv[1:])):
                raise FiltrationViolation(f"filtration levels rise within degree {k}")
        for k, m in complex_.differentials.items():
            src_lv = self.levels[k]
            for row, p in zip(m.rows, self.levels[k + 1]):
                # the lowest set bit is the row's highest-level entry
                top = src_lv[(row & -row).bit_length() - 1] if row else 0
                if top > p:
                    raise FiltrationViolation(
                        f"d lowers filtration from level {top} to {p} at degree {k}")
        self.max_level = max((max(lv) for lv in self.levels.values() if lv), default=0)


class SpectralPages(NamedTuple):
    """Rank tables E^r_{p,t} (filtration p, total degree t) plus d^r ranks."""

    pages: tuple
    d_ranks: tuple
    stabilization_index: int

    @property
    def e_infinity(self) -> dict:
        return self.pages[-1]

    def page(self, r: int) -> dict:
        return self.pages[min(r, len(self.pages) - 1)]


def spectral_pages(fc: FilteredComplexF2) -> SpectralPages:
    """Spectral sequence of a filtered complex from its persistence pairing.

    Each d_t is row-reduced once, its rows fed one level at a time, lowest
    first (`_pairing`).  Each pivot pairs the generator x of level p in
    degree t that it sits on with the generator y of level p' >= p whose
    row gave it, in degree t + 1.

    Over a field, a filtered complex has a basis compatible with the
    filtration that is made of pairs x, y with dx = y and of single
    generators that are cycles and not boundaries (Barannikov's canonical
    form).  In that basis and in the reduction alike, the number of pairs
    with p >= a and p' < b is the rank of F_a C_t -> C_{t+1} / F_b C_{t+1},
    so the reduction finds the canonical form's count per (p, p', t),
    whatever the order of generators within a level.

    The spectral sequence of a direct sum is the sum of theirs, and each
    piece is exact to read: a pair has d^r = 0 for r < p' - p and d^(p'-p)
    an isomorphism, so it is on pages E^0 ... E^(p'-p) at (p, t) and at
    (p', t + 1), and adds 1 to d_ranks[p'-p][(p, t)] (d_ranks[0] is left
    empty).  A single generator is on every page.  No pair is longer than
    max_level, so page max_level + 1 is E^infinity, the last page.
    """
    return _pages_of(*_pairing(fc), fc.max_level + 1)


def _pairing(fc: FilteredComplexF2) -> tuple[dict, dict]:
    """(free, bars): the unpaired generators per (level, degree) and the
    pairs per (p, t, p') of fc's differential (see `spectral_pages`), from
    the cleared row elimination of `homology_ranks` with each d_t's rows
    fed in runs of equal level, lowest first (`_cleared_pivots`): a new
    pivot pairs its column, of level p, with its run's level p'.

    A degree's generators come in non-increasing level, so a row's pivot,
    its lowest set bit, is its highest-level column, and a row of level p'
    is reduced only by rows of level <= p'.  So once the rows of level < b
    are fed, the pivots at columns of level >= a, a prefix, number exactly
    the rank of F_a C_t -> C_{t+1} / F_b C_{t+1}, and those ranks fix the
    pairs per (p, t, p').  Clearing keeps each such rank: y's reduced row
    of d_{t+1} is y plus later columns, of level <= level(y), and d_{t+1}
    d_t = 0, so the row of d_t at a pivot column y is the sum of its rows
    at those columns; from the last row up, each dropped row is a sum of
    kept rows of no higher level.
    """
    c, levels = fc.complex, fc.levels
    free: dict[tuple, int] = {}
    for t in c.degrees():
        for p in levels[t]:
            free[(p, t)] = free.get((p, t), 0) + 1
    bars: dict[tuple, int] = {}
    for t, p_end, keys in _cleared_pivots(c, levels):
        src = levels[t]
        for key in keys:
            p = src[key - 1]
            bars[(p, t, p_end)] = bars.get((p, t, p_end), 0) + 1
            free[(p, t)] -= 1
            free[(p_end, t + 1)] -= 1
    return free, bars


def _pages_of(free: dict, bars: dict, r_end: int) -> SpectralPages:
    """The pages E^0 ... E^r_end and d^r ranks of a pairing (`spectral_pages`)."""
    pages = []
    d_ranks = []
    for r in range(r_end + 1):
        table = {key: n for key, n in free.items() if n}
        dr_table: dict = {}
        for (p, t, p_end), n in bars.items():
            if p_end - p >= r:
                table[(p, t)] = table.get((p, t), 0) + n
                table[(p_end, t + 1)] = table.get((p_end, t + 1), 0) + n
            if r and p_end - p == r:
                dr_table[(p, t)] = dr_table.get((p, t), 0) + n
        pages.append(table)
        d_ranks.append(dr_table)

    stab = len(pages) - 1
    final = pages[-1]
    for r in range(len(pages)):
        if pages[r] == final:
            stab = r
            break
    return SpectralPages(tuple(pages), tuple(d_ranks), stab)
