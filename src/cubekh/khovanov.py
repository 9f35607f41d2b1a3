"""Cube of resolutions and the four GF(2) homology theories built on it:
unreduced, reduced, twisted (by an arc marking) and dotted-diagram homology,
plus the cube-weight spectral sequence and the free-module identification of
reduced vertex spaces.

Vertex spaces are exterior algebras on the circle set of each resolved
state; the basis is circle subsets encoded as bitmasks in ascending order,
which makes every matrix deterministic.  A merge edge acts as the algebra
quotient identifying the two circles; a split edge wedges the representative
lift (split circle mapped to its lower-indexed piece) with the sum of the
two pieces.  The internal homological grading is cube weight; callers can
translate with `grading_tables`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .complexes import (
    DoubleComplexF2,
    FilteredComplexF2,
    GradedComplexF2,
    SpectralPages,
    homology_ranks,
    spectral_pages,
    total_complex,
)
from .diagram import (
    RES0_PAIRS,
    RES1_PAIRS,
    ArcMarking,
    Diagram,
    ResolvedState,
    induce_marking,
    resolve,
)
from .errors import (
    BadCircleMap,
    IncompatibleMarking,
    InternalInconsistency,
    SizeBudgetExceeded,
)
from .linalg import MatF2, f2_rank

DEFAULT_MAX_CROSSINGS = 14


def crossing_budget(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("CUBEKH_MAX_CROSSINGS")
    return int(env) if env else DEFAULT_MAX_CROSSINGS


def _check_budget(d: Diagram, max_crossings: int | None, loops: int = 0):
    """The crossings, plus `loops` free loops where each one doubles the
    basis, against the cube budget."""
    cap = crossing_budget(max_crossings)
    if d.n + loops > cap:
        size = f"{d.n} crossings" + (f" and {loops} free loops" if loops else "")
        raise SizeBudgetExceeded(f"{size} exceeds the cube budget of {cap}")


# ---------------------------------------------------------------------------
# Cube of resolutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CubeEdge:
    source: tuple
    target: tuple
    crossing: int
    kind: str                      # "merge" or "split"
    circles: tuple                 # merging pair (i, j) or splitting (c, (c1, c2))
    correspondence: dict           # source circle -> target circle (merge) or
                                   # non-split source circle -> target circle


class CubeComplex:
    """All 2^n resolved states of a diagram plus classified edges."""

    def __init__(self, d: Diagram, basepoint: int | None = 1,
                 max_crossings: int | None = None):
        _check_budget(d, max_crossings, d.free_loops)
        self.diagram = d
        self.basepoint = basepoint if (d.arc_count or d.free_loops) else None
        n = d.n
        indices = [tuple((bits >> t) & 1 for t in range(n))
                   for bits in range(1 << n)]
        self.states: dict[tuple, ResolvedState] = {
            ix: resolve(d, ix, basepoint=self.basepoint) for ix in indices}
        order = sorted(range(1 << n),
                       key=lambda bits: (bits.bit_count(), indices[bits]))
        self.vertices = [indices[bits] for bits in order]
        self.edges: list[CubeEdge] = []
        for bits in order:
            for t in range(n):
                if not (bits >> t) & 1:
                    self.edges.append(
                        self._classify(indices[bits], indices[bits | (1 << t)], t))

    def _classify(self, si, ti, crossing) -> CubeEdge:
        """Each source circle is carried by any one of its arcs; merge or
        split is read off the changed crossing, whose 0-resolution joins
        slots (0,1) and (2,3): slots 0 and 2 on different source circles
        merge, and otherwise their circle splits into the target circles
        through slots 0 and 1."""
        s, t = self.states[si], self.states[ti]
        src_of, tgt_of = s.arc_to_circle, t.arc_to_circle
        corr = {ci: tgt_of[circ[0]] for ci, circ in enumerate(s.circles) if circ}
        # free loop circles correspond positionally
        loops = self.diagram.free_loops
        pd_s, pd_t = s.n_circles - loops, t.n_circles - loops
        for fl in range(loops):
            corr[pd_s + fl] = pd_t + fl
        c = self.diagram.crossings[crossing]
        a, b = src_of[c[0]], src_of[c[2]]
        delta = t.n_circles - s.n_circles
        if delta != (-1 if a != b else 1):
            raise BadCircleMap(f"edge changes circle count by {delta}")
        if a != b:
            if corr[a] != corr[b]:
                raise BadCircleMap("merge edge must fuse exactly one pair")
            return CubeEdge(si, ti, crossing, "merge", (min(a, b), max(a, b)), corr)
        p1, p2 = tgt_of[c[0]], tgt_of[c[1]]
        if p1 == p2:
            raise BadCircleMap("split edge must divide exactly one circle")
        del corr[a]
        return CubeEdge(si, ti, crossing, "split", (a, (min(p1, p2), max(p1, p2))), corr)

    def state(self, index) -> ResolvedState:
        return self.states[tuple(index)]


def build_cube(d: Diagram, basepoint: int | None = 1,
               max_crossings: int | None = None) -> CubeComplex:
    return CubeComplex(d, basepoint=basepoint, max_crossings=max_crossings)


def edge_map(edge: CubeEdge, src: ResolvedState, tgt: ResolvedState,
             reduced: bool = False) -> MatF2:
    """Matrix of the merge or split map on the full exterior-algebra bases,
    or with reduced=True on the subsets containing each state's marked
    circle (the order of `_reduced_masks`).

    The image of each source subset is the image of the subset without its
    highest circle plus that circle's image, so the work grows with the
    basis size.  In the reduced basis the subset m of a state with marked
    circle b sits at ((m >> (b + 1)) << b) | (m & ((1 << b) - 1)).
    """
    corr = edge.correspondence
    split = edge.kind == "split"
    if split:
        c_split, (c1, c2) = edge.circles
        rep, other = 1 << min(c1, c2), 1 << max(c1, c2)
        image = [rep if c == c_split else 1 << corr[c] for c in range(src.n_circles)]
        has_split = 1 << c_split
    else:
        image = [1 << corr[c] for c in range(src.n_circles)]
    base = 0
    if reduced:
        ms, mt = src.marked_circle, tgt.marked_circle
        if ms is None or mt is None:
            raise BadCircleMap("state has no marked circle")
        keep = 1 << mt
        base = image.pop(ms)
        if split and c_split == ms:
            if keep not in (rep, other):
                raise BadCircleMap("split of the marked circle misses the marked circle")
            has_split = 0
        elif base != keep:
            raise BadCircleMap("edge does not carry the marked circle to its image")
        elif split:
            has_split = 1 << (c_split - (c_split > ms))
    out = [base]
    for img in image:
        if split:
            out += [o | img for o in out]
        else:
            # -1 marks a subset whose image repeats a target circle (zero in
            # the exterior algebra); -1 & img is nonzero, so it stays -1
            out += [o | img if not o & img else -1 for o in out]
    if reduced:
        def drop_marked(x):
            return ((x >> (mt + 1)) << mt) | (x & (keep - 1)) if x >= 0 else x

        out = [drop_marked(o) for o in out]
        if split:
            rep, other = drop_marked(rep), drop_marked(other)
    rows = [0] * (1 << (tgt.n_circles - 1) if reduced else 1 << tgt.n_circles)
    if split:
        for m, o in enumerate(out):
            # with the split circle present only the other-piece term survives
            if has_split and not m & has_split:
                rows[o | rep] ^= 1 << m
            rows[o | other] ^= 1 << m
    else:
        for m, o in enumerate(out):
            if o >= 0:
                rows[o] ^= 1 << m
    return MatF2(len(rows), len(out), tuple(rows))


def _reduced_masks(state: ResolvedState) -> list[int]:
    """Circle subsets containing the marked circle, ascending (none when the
    state has no marked circle)."""
    b = state.marked_circle
    if b is None:
        return []
    bit = 1 << b
    return [((j >> b) << (b + 1)) | bit | (j & (bit - 1))
            for j in range(1 << (state.n_circles - 1))]


# ---------------------------------------------------------------------------
# Chain complexes
# ---------------------------------------------------------------------------

def kh_complex(d: Diagram, max_crossings: int | None = None) -> GradedComplexF2:
    """Unreduced cube complex; homological degree is cube weight."""
    cube = build_cube(d, basepoint=None, max_crossings=max_crossings)
    return _assemble(cube, reduced=False)


def khr_complex(d: Diagram, basepoint: int = 1,
                max_crossings: int | None = None) -> GradedComplexF2:
    """Reduced cube complex with respect to a basepoint arc."""
    cube = build_cube(d, basepoint=basepoint, max_crossings=max_crossings)
    return _assemble(cube, reduced=True)


def _assemble(cube: CubeComplex, reduced: bool) -> GradedComplexF2:
    offsets: dict[tuple, int] = {}
    dims: dict[int, int] = {}
    labels: dict[int, list] = {}
    for index in cube.vertices:
        state = cube.states[index]
        basis = (_reduced_masks(state) if reduced
                 else range(1 << state.n_circles))
        w = sum(index)
        offsets[index] = dims.get(w, 0)
        dims[w] = offsets[index] + len(basis)
        labels.setdefault(w, []).extend((index, m) for m in basis)
    by_weight: dict[int, list[CubeEdge]] = {}
    for edge in cube.edges:
        by_weight.setdefault(sum(edge.source), []).append(edge)
    diffs = {}
    for w in range(cube.diagram.n):
        rows = [0] * dims.get(w + 1, 0)
        for edge in by_weight.get(w, ()):
            m = edge_map(edge, cube.states[edge.source], cube.states[edge.target],
                         reduced)
            so = offsets[edge.source]
            for i, row in enumerate(m.rows, offsets[edge.target]):
                if row:
                    rows[i] ^= row << so
        diffs[w] = MatF2(len(rows), dims.get(w, 0), tuple(rows))
    return GradedComplexF2(dims, diffs, labels=labels)


def kh_ranks(d: Diagram, max_crossings: int | None = None) -> dict[int, int]:
    return homology_ranks(kh_complex(d, max_crossings=max_crossings))


def khr_ranks(d: Diagram, basepoint: int = 1,
              max_crossings: int | None = None) -> dict[int, int]:
    return homology_ranks(khr_complex(d, basepoint=basepoint,
                                      max_crossings=max_crossings))


def grading_tables(d: Diagram, ranks: dict[int, int]) -> dict[str, dict[int, int]]:
    """Translate cube-weight keyed ranks to the two reported gradings."""
    return {
        "i": {w + d.n_plus: r for w, r in sorted(ranks.items())},
        "h": {w - d.n_minus: r for w, r in sorted(ranks.items())},
    }


# ---------------------------------------------------------------------------
# Twisted complex and dotted-diagram homology
# ---------------------------------------------------------------------------

def _marking_parities(cube: CubeComplex, marking: ArcMarking) -> dict[tuple, tuple]:
    d = cube.diagram
    if not marking.is_compatible(d):
        raise IncompatibleMarking(
            "arc marking must have even total parity to define a two-fold datum")
    return {index: induce_marking(d, marking, st)
            for index, st in cube.states.items()}


def _vertical_degree_offset(cube: CubeComplex) -> int:
    zero = cube.states[tuple([0] * cube.diagram.n)]
    return zero.n_circles % 2


def twisted_complex(d: Diagram, marking: ArcMarking, basepoint: int = 1,
                    max_crossings: int | None = None) -> DoubleComplexF2:
    """Double complex: horizontal = reduced cube differential, vertical =
    wedge with the sum of odd-parity circles at each vertex.

    The bigrading is (cube weight, exterior degree normalized so both
    differentials shift by exactly one).
    """
    cube = build_cube(d, basepoint=basepoint, max_crossings=max_crossings)
    return _twisted(cube, marking)


def _twisted(cube: CubeComplex, marking: ArcMarking) -> DoubleComplexF2:
    parities = _marking_parities(cube, marking)
    par = _vertical_degree_offset(cube)

    cells: dict[tuple, list] = {}
    # vertex -> (cell, position in cell) of each reduced basis element
    place: dict[tuple, list] = {}
    for index in cube.vertices:
        state = cube.states[index]
        if state.marked_circle is None:
            continue
        w, k = sum(index), state.n_circles
        slots = place[index] = []
        for mask in _reduced_masks(state):
            value = 2 * mask.bit_count() - w - k + par
            if value % 2:
                raise InternalInconsistency(
                    f"odd vertical degree {value}/2 at vertex {index}")
            cell = (w, value // 2)
            gens = cells.setdefault(cell, [])
            slots.append((cell, len(gens)))
            gens.append((index, mask))

    dims = {cell: len(gens) for cell, gens in cells.items()}
    d_h: dict[tuple, list] = {cell: [0] * dims.get((cell[0] + 1, cell[1]), 0)
                              for cell in cells}
    d_v: dict[tuple, list] = {cell: [0] * dims.get((cell[0], cell[1] + 1), 0)
                              for cell in cells}

    for edge in cube.edges:
        s, t = cube.states[edge.source], cube.states[edge.target]
        if s.marked_circle is None:
            continue
        m = edge_map(edge, s, t, reduced=True)
        src, tgt = place[edge.source], place[edge.target]
        for i, row in enumerate(m.rows):
            if not row:
                continue
            tcell, trow = tgt[i]
            while row:
                low = row & -row
                row ^= low
                cell, col = src[low.bit_length() - 1]
                if tcell != (cell[0] + 1, cell[1]):
                    raise InternalInconsistency("d_h must preserve the vertical degree")
                d_h[cell][trow] |= 1 << col

    for index, slots in place.items():
        mc = cube.states[index].marked_circle
        # wedging an odd circle c sets its bit in the reduced position
        wedges = [1 << (c - (c > mc)) for c, p in enumerate(parities[index])
                  if p and c != mc]
        for j, (cell, col) in enumerate(slots):
            for g in wedges:
                if not j & g:
                    tcell, trow = slots[j | g]
                    if tcell != (cell[0], cell[1] + 1):
                        raise InternalInconsistency(
                            "d_v must raise the vertical degree by one")
                    d_v[cell][trow] |= 1 << col

    dh_mats = {cell: MatF2(dims.get((cell[0] + 1, cell[1]), 0), dims[cell],
                           tuple(rows)) for cell, rows in d_h.items()}
    dv_mats = {cell: MatF2(dims.get((cell[0], cell[1] + 1), 0), dims[cell],
                           tuple(rows)) for cell, rows in d_v.items()}
    return DoubleComplexF2(dims, dh_mats, dv_mats, labels=cells)


def _filtered_by_p(dc: DoubleComplexF2) -> FilteredComplexF2:
    """The total complex of dc filtered by the horizontal degree p of each
    generator's cell (p >= 0, as cube weight is)."""
    total, positions = total_complex(dc)
    levels = {t: [0] * n for t, n in total.dims.items()}
    for (p, q), off in positions.items():
        n = dc.dim((p, q))
        levels[p + q][off:off + n] = [p] * n
    return FilteredComplexF2(total, levels)


def vertical_then_horizontal_ranks(dc: DoubleComplexF2) -> dict[tuple, int]:
    """Homology of vertical homology, H(H(C, d_v), d_h), keyed by (p, q).

    Filtering the total complex by p gives E^0 = C with d_0 = d_v, and E^1 =
    H(C, d_v) with d_1 the induced d_h, so this is the E^2 page, whose keys
    (p, p + q) are moved back to (p, q).
    """
    pages = spectral_pages(_filtered_by_p(dc))
    return {(p, t - p): rank for (p, t), rank in pages.page(2).items()}


def hd_even_subcomplex(d: Diagram, marking: ArcMarking, basepoint: int = 1,
                       max_crossings: int | None = None) -> dict[tuple, int]:
    """Dotted-diagram homology via the all-even-vertex subcomplex."""
    cube = build_cube(d, basepoint=basepoint, max_crossings=max_crossings)
    return _hd_even(cube, marking)


def _hd_even(cube: CubeComplex, marking: ArcMarking) -> dict[tuple, int]:
    parities = _marking_parities(cube, marking)
    par = _vertical_degree_offset(cube)
    even = [index for index in cube.vertices if not any(parities[index])]

    # per even vertex: (vertical degree, position among that degree's
    # elements) of each reduced basis element, and the count per degree
    slots: dict[tuple, list] = {}
    sizes: dict[tuple, dict] = {}
    for index in even:
        w, k = sum(index), cube.states[index].n_circles
        size = sizes[index] = {}
        sl = slots[index] = []
        for mask in _reduced_masks(cube.states[index]):
            v = (2 * mask.bit_count() - w - k + par) // 2
            sl.append((v, size.get(v, 0)))
            size[v] = size.get(v, 0) + 1

    # one complex per vertical degree v, graded by cube weight
    dims: dict[int, dict] = {}
    offsets: dict[int, dict] = {}
    for index in even:
        w = sum(index)
        for v, n_v in sizes[index].items():
            dv = dims.setdefault(v, {})
            offsets.setdefault(v, {})[index] = dv.get(w, 0)
            dv[w] = dv.get(w, 0) + n_v
    rows = {v: {w: [0] * dv.get(w + 1, 0) for w in dv} for v, dv in dims.items()}

    even_set = set(even)
    for edge in cube.edges:
        if edge.source not in even_set or edge.target not in even_set:
            continue
        s, t = cube.states[edge.source], cube.states[edge.target]
        m = edge_map(edge, s, t, reduced=True)
        src, tgt = slots[edge.source], slots[edge.target]
        w = sum(edge.source)
        for i, row in enumerate(m.rows):
            v, ii = tgt[i]
            while row:
                low = row & -row
                row ^= low
                vs, jj = src[low.bit_length() - 1]
                if vs == v:
                    so = offsets[v][edge.source]
                    to = offsets[v][edge.target]
                    rows[v][w][to + ii] ^= 1 << (so + jj)

    out: dict[tuple, int] = {}
    for v in sorted(dims):
        dv = dims[v]
        diffs = {w: MatF2(dv.get(w + 1, 0), dv[w], tuple(r))
                 for w, r in rows[v].items()}
        for w, b in homology_ranks(GradedComplexF2(dv, diffs)).items():
            out[(w, v)] = b
    return out


def hd_homology(d: Diagram, marking: ArcMarking, basepoint: int = 1,
                max_crossings: int | None = None) -> dict[tuple, int]:
    """Dotted-diagram homology ranks keyed by (cube weight, vertical degree).

    Read off the E^2 page of the twisted complex filtered by cube weight
    (`vertical_then_horizontal_ranks`) and cross-checked against the
    homology of the all-even-vertex subcomplex; raises InternalInconsistency
    if the two disagree.
    """
    cube = build_cube(d, basepoint=basepoint, max_crossings=max_crossings)
    a = vertical_then_horizontal_ranks(_twisted(cube, marking))
    b = _hd_even(cube, marking)
    if a != b:
        raise InternalInconsistency(
            f"dotted homology constructions disagree: {a} vs {b}")
    return a


def twisted_total_ranks(d: Diagram, marking: ArcMarking, basepoint: int = 1,
                        max_crossings: int | None = None) -> dict[int, int]:
    """Homology of the total twisted complex, keyed by total degree."""
    dc = twisted_complex(d, marking, basepoint=basepoint,
                         max_crossings=max_crossings)
    total, _ = total_complex(dc)
    return homology_ranks(total)


def weight_ss(d: Diagram, marking: ArcMarking, basepoint: int = 1,
              max_r: int | None = None,
              max_crossings: int | None = None) -> SpectralPages:
    """Spectral sequence of the cube-weight filtration of the twisted total
    complex.  E^1 equals vertical homology, E^2 the dotted-diagram homology
    of the all-even-vertex subcomplex, and the E^infinity total matches the
    homology of the total complex; all three identities are checked,
    raising InternalInconsistency."""
    cube = build_cube(d, basepoint=basepoint, max_crossings=max_crossings)
    dc = _twisted(cube, marking)
    hd = _hd_even(cube, marking)
    # the page computation is the memory peak; it needs no cube
    del cube
    fc = _filtered_by_p(dc)
    pages = spectral_pages(fc, max_r=max_r)

    # E^1 = vertical homology
    e1_expected: dict[tuple, int] = {}
    for (p, v), rank in _vertical_homology_ranks(dc).items():
        e1_expected[(p, p + v)] = e1_expected.get((p, p + v), 0) + rank
    if pages.page(1) != e1_expected:
        raise InternalInconsistency("E^1 page does not match vertical homology")
    # E^2 = dotted diagram homology
    e2_expected: dict[tuple, int] = {}
    for (p, v), rank in hd.items():
        e2_expected[(p, p + v)] = e2_expected.get((p, p + v), 0) + rank
    if pages.page(2) != e2_expected:
        raise InternalInconsistency(
            "E^2 page and even-vertex dotted homology disagree")
    # E^infinity total = homology of the total complex
    beta = homology_ranks(fc.complex)
    einf_tot: dict[int, int] = {}
    for (p, t), rank in pages.e_infinity.items():
        einf_tot[t] = einf_tot.get(t, 0) + rank
    if einf_tot != beta:
        raise InternalInconsistency("E^infinity does not match total homology")
    return pages


def _vertical_homology_ranks(dc: DoubleComplexF2) -> dict[tuple, int]:
    out = {}
    for cell in dc.dims:
        p, q = cell
        dv_out = dc.dv(cell)
        dv_in = dc.dv((p, q - 1))
        rank_out = f2_rank(dv_out) if dv_out.nrows else 0
        rank_in = f2_rank(dv_in) if dv_in.nrows else 0
        b = dc.dim(cell) - rank_out - rank_in
        if b:
            out[cell] = b
    return out


# ---------------------------------------------------------------------------
# Free-module model of reduced vertex spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaModuleModel:
    """Rank-one free module model: tensor powers of a two-element space,
    acted on by the exterior algebra on one generator per unmarked circle.

    Basis elements are subsets of generator positions (bitmasks); the
    identification sends the reduced monomial marked_circle ^ S_{c1} ^ ...
    to the generator subset for those circles.
    """

    k: int
    circle_for_gen: tuple

    def gen_for_circle(self) -> dict:
        return {c: g for g, c in enumerate(self.circle_for_gen)}


def psi_identification(state: ResolvedState) -> tuple[ThetaModuleModel, dict]:
    """Model for a resolved state plus the basis bijection of the reduced
    vertex space onto it.  Returns (model, psi) with psi mapping each reduced
    basis mask to a generator-subset mask."""
    if state.marked_circle is None:
        raise BadCircleMap("state has no marked circle")
    others = [c for c in range(state.n_circles) if c != state.marked_circle]
    model = ThetaModuleModel(len(others), tuple(others))
    gen_of = model.gen_for_circle()
    psi = {}
    for mask in _reduced_masks(state):
        out = 0
        for c in others:
            if (mask >> c) & 1:
                out |= 1 << gen_of[c]
        psi[mask] = out
    return model, psi


def model_edge_map(edge: CubeEdge, src: ResolvedState,
                   tgt: ResolvedState) -> MatF2:
    """Edge map computed purely inside the module models.

    A merge is the quotient of the exterior action killing the class of the
    surgery circle (pairs of generators identified, or one generator killed
    when the marked circle participates); a split wedges with the class of
    the new piece(s).  Matrices are in the theta-subset bases, aligned with
    the reduced bases through psi_identification.
    """
    m_src, _ = psi_identification(src)
    m_tgt, _ = psi_identification(tgt)
    gen_s = m_src.gen_for_circle()
    gen_t = m_tgt.gen_for_circle()
    rows = [0] * (1 << m_tgt.k)
    if edge.kind == "merge":
        i, j = edge.circles
        marked_involved = src.marked_circle in (i, j)
        gen_image: dict[int, int | None] = {}
        for c in m_src.circle_for_gen:
            if c in (i, j):
                if marked_involved:
                    gen_image[gen_s[c]] = None      # class dies: X_0 = 0
                else:
                    gen_image[gen_s[c]] = gen_t[edge.correspondence[c]]
            else:
                gen_image[gen_s[c]] = gen_t[edge.correspondence[c]]
        for mask in range(1 << m_src.k):
            out = 0
            dead = False
            for g in range(m_src.k):
                if (mask >> g) & 1:
                    img = gen_image[g]
                    if img is None or (out >> img) & 1:
                        dead = True
                        break
                    out |= 1 << img
            if not dead:
                rows[out] ^= 1 << mask
    else:
        c_split, (c1, c2) = edge.circles
        split_marked = c_split == src.marked_circle
        if split_marked:
            new_piece = c1 if c1 != tgt.marked_circle else c2
            kw = 1 << gen_t[new_piece]
            iota = {gen_s[c]: gen_t[edge.correspondence[c]]
                    for c in m_src.circle_for_gen}
        else:
            rep = min(c1, c2)
            kw = (1 << gen_t[c1]) | (1 << gen_t[c2])
            iota = {}
            for c in m_src.circle_for_gen:
                iota[gen_s[c]] = gen_t[edge.correspondence[c] if c != c_split else rep]
        for mask in range(1 << m_src.k):
            out = 0
            for g in range(m_src.k):
                if (mask >> g) & 1:
                    out |= 1 << iota[g]
            # wedge with the kernel class: sum over its generator bits
            kww = kw
            while kww:
                low = kww & -kww
                kww ^= low
                if not out & low:
                    rows[out | low] ^= 1 << mask
    return MatF2(1 << m_tgt.k, 1 << m_src.k, tuple(rows))


def check_psi_naturality(cube: CubeComplex) -> bool:
    """Every cube edge: reduced Khovanov map equals the model map through
    the psi identifications."""
    for edge in cube.edges:
        s, t = cube.states[edge.source], cube.states[edge.target]
        if s.marked_circle is None or t.marked_circle is None:
            continue
        kh_side = edge_map(edge, s, t, reduced=True)
        model_side = model_edge_map(edge, s, t)
        # aligned bases: psi is the identity permutation on sorted masks
        for state in (s, t):
            _, psi = psi_identification(state)
            perm = [psi[m] for m in _reduced_masks(state)]
            if perm != sorted(perm):
                raise InternalInconsistency(
                    "psi does not keep the order of the reduced basis")
        if kh_side.rows != model_side.rows:
            return False
    return True


# ---------------------------------------------------------------------------
# Determinant by Kauffman state sum
# ---------------------------------------------------------------------------

def _zeta8_mul(a, b):
    out = [0, 0, 0, 0]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            e = i + j
            if e >= 8:
                e -= 8
            if e >= 4:
                out[e - 4] -= ai * bj
            else:
                out[e] += ai * bj
    return out


def _zeta8_bracket(d: Diagram) -> tuple:
    """The single-circle state sum at A = zeta8 as the coefficients of 1, x,
    x^2, x^3 in Z[x]/(x^4+1), by the frontier dynamic program described in
    `state_sum_det` (at least one crossing, no free loops)."""
    frontier: list[int] = []
    keys = {(): (1, 0, 0, 0)}
    last = d.n - 1
    for t, c in enumerate(d.crossings):
        # positions: the frontier in order, then the arcs first met here
        pos = {a: i for i, a in enumerate(frontier)}
        fresh = [a for a in dict.fromkeys(c) if a not in pos]
        pos.update((a, len(frontier) + j) for j, a in enumerate(fresh))
        tail = tuple(range(len(frontier), len(pos)))
        frontier = ([a for a in frontier if a not in c]
                    + [a for a in fresh if c.count(a) == 1])
        kept = [pos[a] for a in frontier]
        smoothings = [([(pos[c[i]], pos[c[j]]) for i, j in pairs], shift)
                      for pairs, shift in ((RES0_PAIRS, 1), (RES1_PAIRS, -1))]
        out: dict[tuple, tuple] = {}
        for key, z in keys.items():
            for joins, shift in smoothings:
                lab = list(key + tail)
                for i, j in joins:
                    a, b = lab[i], lab[j]
                    if a != b:
                        lab = [a if x == b else x for x in lab]
                if t == last:
                    if len(set(lab)) != 1:
                        continue
                elif not set(lab) <= {lab[i] for i in kept}:
                    continue        # a closed circle: weight delta(zeta8) = 0
                canon: dict[int, int] = {}
                new = tuple(canon.setdefault(lab[i], len(canon)) for i in kept)
                z0, z1, z2, z3 = z
                w = (-z3, z0, z1, z2) if shift == 1 else (z1, z2, z3, -z0)
                old = out.get(new)
                out[new] = w if old is None else tuple(map(sum, zip(old, w)))
        keys = out
    return keys.get((), (0, 0, 0, 0))


def state_sum_det(d: Diagram, max_crossings: int | None = None) -> int:
    """|det| via the Kauffman bracket evaluated at A = zeta8, a primitive 8th
    root of unity, exact in Z[x]/(x^4+1).

    The circle weight delta = -A^2 - A^-2 vanishes at zeta8, so only the
    states that close into a single circle contribute, each with weight
    A^(#0-smoothings - #1-smoothings).  The sum runs as a dynamic program
    over the crossings in PD order.  The frontier is the set of arcs met
    exactly once so far; every partial state is summarized by its key, the
    connectivity labelling of the frontier arcs with labels in order of
    first occurrence, and the key's value is the summed weight of its
    partial states.  Each crossing extends every key by its 0-smoothing,
    which joins slots (0,1) and (2,3) with weight A, and by its
    1-smoothing, which joins (0,3) and (1,2) with weight A^-1.  A key whose
    component leaves the frontier before the last crossing carries a closed
    circle; the crossings still to come make another one, so every
    completion has delta = 0 as a factor and the key is dropped.  At the
    last crossing only the one-component key is kept.

    Every key comes from at least one partial state, so after t crossings
    there are at most 2^t keys, the count of the 2^n-state sum.  Each
    frontier component is a path with its two ends on the frontier, so
    there are also at most (f-1)!! keys for f frontier arcs; on the braid,
    rational and torus closures the frontier holds a few arcs.
    """
    _check_budget(d, max_crossings)
    n = d.n
    if n == 0:
        return 1 if d.free_loops == 1 else (0 if d.free_loops else 1)
    if d.free_loops:
        return 0
    z = _zeta8_bracket(d)
    conj = [z[0], -z[3], -z[2], -z[1]]
    norm = _zeta8_mul(z, conj)
    if norm[1] or norm[2] or norm[3]:
        if norm[2] or norm[1] != -norm[3]:
            raise InternalInconsistency(f"norm not real: {norm}")
        if norm[1]:
            raise InternalInconsistency(f"norm not an integer: {norm}")
    det_sq = norm[0]
    root = math.isqrt(det_sq)
    if root * root != det_sq:
        raise InternalInconsistency(f"|det|^2 = {det_sq} is not a perfect square")
    return root
