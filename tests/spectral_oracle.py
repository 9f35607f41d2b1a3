"""Reference versions of the filtered-complex layer, kept as oracles for the
persistence-pairing implementation in `cubekh.complexes`.

`spectral_pages` builds every page from explicit nested subspaces: one
kernel per (r, p, t) for Z^r, and each E^r as a subquotient of ranks.
`filtration_violation` checks the filtration entry by entry, column by
column.  `vertical_then_horizontal_ranks` computes the homology of vertical
homology of a double complex from class representatives and induced ranks,
where `cubekh.khovanov` reads it off the E^2 page; `dim`, `dh` and `dv`
read a double complex's cells and blocks for it, a zero block where none
is stored.
"""

from cubekh.complexes import SpectralPages
from cubekh.linalg import MatF2, f2_kernel_basis, f2_rank
from linalg_helpers import f2_identity, f2_row_space, f2_stack


def filtration_violation(complex_, levels):
    """(degree, source level, target level) of the first entry of a
    differential that lowers the level, scanning column by column; None
    when the filtration holds."""
    for k, m in complex_.differentials.items():
        src_lv = levels[k]
        tgt_lv = levels.get(k + 1, ())
        for j in range(m.ncols):
            col_mask = 1 << j
            for i, row in enumerate(m.rows):
                if row & col_mask and tgt_lv[i] < src_lv[j]:
                    return k, src_lv[j], tgt_lv[i]
    return None


def spectral_pages(fc) -> SpectralPages:
    """Spectral sequence of a filtered complex via explicit subquotients.

    E^r_{p,t} = Z^r_{p,t} / (Z^{r-1}_{p+1,t} + d Z^{r-1}_{p-r+1,t-1}) with
    Z^r_{p,t} = F_p C_t  intersect  d^{-1}(F_{p+r} C_{t+1}).  Pages stop
    changing once r exceeds the filtration length.
    """
    c = fc.complex
    pmax = fc.max_level
    r_end = pmax + 1
    degrees = c.degrees()

    # column form of each differential: image of a vector is an XOR of columns
    dcols: dict[int, list[int]] = {}
    for t in degrees:
        m = c.d(t)
        cols = [0] * m.ncols
        for i, row in enumerate(m.rows):
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= 1 << i
                row ^= low
        dcols[t] = cols

    def apply_d(t: int, v: int) -> int:
        cols = dcols.get(t)
        if cols is None:
            return 0
        out = 0
        while v:
            low = v & -v
            out ^= cols[low.bit_length() - 1]
            v ^= low
        return out

    def z_space(r: int, p: int, t: int) -> MatF2:
        # basis (rows) of {x in F_p C_t : d x in F_{p+r} C_{t+1}}
        n = c.dim(t)
        if n == 0:
            return MatF2.zero(0, 0)
        lv = fc.levels[t]
        constraint_rows = []
        for j in range(n):
            if lv[j] < max(p, 0):
                constraint_rows.append(1 << j)
        d_t = c.d(t)
        tgt_lv = fc.levels.get(t + 1, ())
        cutoff = p + r
        for i, row in enumerate(d_t.rows):
            if tgt_lv[i] < cutoff:
                constraint_rows.append(row)
        m = MatF2(len(constraint_rows), n, tuple(constraint_rows))
        return f2_kernel_basis(m)

    cache: dict = {}

    def z(r: int, p: int, t: int) -> MatF2:
        key = (r, p, t)
        if key not in cache:
            cache[key] = z_space(r, p, t)
        return cache[key]

    def image_under_d(basis: MatF2, t: int) -> MatF2:
        if c.dim(t + 1) == 0 or basis.nrows == 0:
            return MatF2.zero(0, c.dim(t + 1))
        return MatF2(basis.nrows, c.dim(t + 1),
                     tuple(apply_d(t, v) for v in basis.rows))

    pages = []
    d_ranks = []
    for r in range(r_end + 1):
        table: dict = {}
        dr_table: dict = {}
        for t in degrees:
            for p in range(pmax + 1):
                zn = z(r, p, t)
                if zn.nrows == 0:
                    continue
                if r == 0:
                    den = z(0, p + 1, t)
                else:
                    den = f2_stack(z(r - 1, p + 1, t),
                                   image_under_d(z(r - 1, p - r + 1, t - 1), t - 1))
                den_rank = f2_rank(den)
                rank = f2_rank(zn) - den_rank
                if rank:
                    table[(p, t)] = rank
                # induced d^r rank out of this cell
                if r and rank:
                    img = image_under_d(zn, t)
                    tgt_p = p + r
                    tden = f2_stack(z(r - 1, tgt_p + 1, t + 1),
                                    image_under_d(z(r - 1, tgt_p - r + 1, t), t))
                    dr = f2_rank(f2_stack(img, tden)) - f2_rank(tden)
                    if dr:
                        dr_table[(p, t)] = dr
        pages.append(table)
        d_ranks.append(dr_table)

    stab = len(pages) - 1
    final = pages[-1]
    for r in range(len(pages)):
        if pages[r] == final:
            stab = r
            break
    return SpectralPages(tuple(pages), tuple(d_ranks), stab)


def dim(dc, pq) -> int:
    return dc.dims.get(tuple(pq), 0)


def dh(dc, pq) -> MatF2:
    m = dc.d_h.get(tuple(pq))
    if m is None:
        return MatF2.zero(dim(dc, (pq[0] + 1, pq[1])), dim(dc, pq))
    return m


def dv(dc, pq) -> MatF2:
    m = dc.d_v.get(tuple(pq))
    if m is None:
        return MatF2.zero(dim(dc, (pq[0], pq[1] + 1)), dim(dc, pq))
    return m


def vertical_then_horizontal_ranks(dc) -> dict[tuple, int]:
    """Homology of vertical homology: generic double-complex computation.

    Vertical homology at each cell is a subquotient; the induced horizontal
    differential is computed by lifting class representatives, applying d_h
    and reducing modulo vertical boundaries.
    """
    reps: dict[tuple, MatF2] = {}
    boundaries: dict[tuple, MatF2] = {}
    for cell in dc.dims:
        p, q = cell
        dv_out = dv(dc, cell)
        kernel = _kernel_rows(dv_out, dim(dc, cell))
        # rows of the transpose are the images of the basis vectors below
        b_space = f2_row_space(dv(dc, (p, q - 1)).transpose())
        boundaries[cell] = b_space
        comp = []
        pivots = {(b & -b): b for b in b_space.rows}
        for v in kernel.rows:
            red = v
            while red:
                low = red & -red
                piv = pivots.get(low)
                if piv is None:
                    pivots[low] = red
                    comp.append(v)
                    break
                red ^= piv
        reps[cell] = MatF2(len(comp), dim(dc, cell), tuple(comp))

    out: dict[tuple, int] = {}
    induced: dict[tuple, int] = {}
    by_q: dict[int, list] = {}
    for (p, q) in dc.dims:
        by_q.setdefault(q, []).append(p)
    for q, ps in by_q.items():
        for p in ps:
            cell = (p, q)
            h_dim = reps[cell].nrows
            if h_dim == 0:
                continue
            # the map out of (p - 1, q) is the map into (p, q): rank it once
            for c in (cell, (p - 1, q)):
                if c not in induced:
                    induced[c] = _induced_rank(dc, reps, boundaries, c)
            b = h_dim - induced[cell] - induced[(p - 1, q)]
            if b:
                out[cell] = b
    return out


def _kernel_rows(m: MatF2, ambient: int) -> MatF2:
    if m.nrows == 0:
        return f2_identity(ambient) if ambient else MatF2.zero(0, 0)
    return f2_kernel_basis(m)


def _induced_rank(dc, reps, boundaries, cell) -> int:
    """Rank of the induced horizontal map H(cell) -> H(cell + (1,0))."""
    if cell not in dc.dims:
        return 0
    p, q = cell
    tgt = (p + 1, q)
    if tgt not in dc.dims or cell not in reps or reps[cell].nrows == 0:
        return 0
    # each image is the XOR of the columns of d_h a representative picks
    images = reps[cell] @ dh(dc, cell).transpose()
    tgt_b = boundaries.get(tgt, MatF2.zero(0, dim(dc, tgt)))
    return f2_rank(f2_stack(images, tgt_b)) - f2_rank(tgt_b)
