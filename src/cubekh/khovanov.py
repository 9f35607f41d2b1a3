"""Cube of resolutions and the four GF(2) homology theories built on it:
unreduced, reduced, twisted (by an arc marking) and dotted-diagram homology,
plus the cube-weight spectral sequence.

Vertex spaces are exterior algebras on the circle set of each resolved
state; the basis is circle subsets encoded as bitmasks in ascending order,
which makes every matrix deterministic.  A merge edge acts as the algebra
quotient identifying the two circles; a split edge wedges the representative
lift (split circle mapped to its lower-indexed piece) with the sum of the
two pieces.  The internal homological grading is cube weight; callers can
translate with `grading_tables`.

The cube is flat: `states[bits]` is the state resolving crossing t by bit
(bits >> t) & 1, one `diagram.resolve` call each, and `edges` holds one
int per edge, its shape, where `shapes[shape]` is the edge's `EdgeShape`,
interned and checked once per cube.  The edges come in vertex order and
then by ascending unset crossing, so an edge's source and target follow
from its place in the list and are not stored.  A state is flat too: it
holds the circle of each arc in a list indexed by arc label, the least arc
of each circle and the circle count, and no per-circle arc lists.

The cube is basepoint-free, so one cube serves kh and Khr: every reduced
complex marks circle 0 in each state.  `resolve` numbers circles by their
least arc, so circle 0 is the circle through arc 1 (the first free loop
in a diagram without arcs).  Over GF(2) no number depends on the marked
arc (Shumakovitch, *Torsion of Khovanov homology*): marking arc a of a
diagram is marking arc 1 of its relabelling that sends a to 1, on which
acceptance criterion 2 checks Khr, and the tests the twisted totals, hd
and ss pages, at every arc.  A kh job builds no
unreduced complex: over GF(2), Kh = Khr (x) V, so `kh_ranks` doubles Khr
per cube weight, and `kh_complex` serves the tests and the acceptance
suite.  Every kh, Khr and twisted job, so every hd and ss job too, checks
the reduced cells against Khovanov's graded Euler characteristic, summed
over the diagram by a frontier walk that reads neither `resolve` nor the
placement (`_check_euler`), before it takes a rank; the determinant is
read off the same sum (`state_sum_det`).

Every differential preserves the quantum grading q = k - 2|S| + w of a
generator: k is its state's circle count, S its subset (the marked circle
counts in |S|) and w the cube weight.  So kh, Khr and the twisted complex
share one layout (`_place`): a vertex's generators of one exterior degree
|S| take one contiguous slot, in ascending mask order, of a cell.  kh and
Khr are graded by (w, q) cells, checked and ranked one q-block at a time.
The twisted complex is placed once in total degree t = w + v, where v =
(par - q)/2 is its vertical degree, with the vertices in (descending w,
has an odd circle) order: each degree holds its cells (w, v) by descending
w, the all-even vertices first in each, so the cube weight never rises
within a degree, as the cube-weight filtration needs
(`FilteredComplexF2`), and d_h and d_v share its rows.

An edge's map depends only on its shape (merge or split, the circles
involved, the circle correspondence as a tuple indexed by source circle,
None at a split circle, and the target's circle count) and whether it is
reduced: the least-arc rule below carries circle 0 to circle 0, so the
marked pair is always (0, 0).  The shape follows from a short key, read
with two arc lookups per edge: `resolve` numbers the circles of a state
by their least arc, with free loops last, and an edge changes only the
one or two circles through its crossing.  A merge of source circles a < b gives one circle whose
least arc is a's, so the target numbers it a and keeps the others in
order: c -> c for c < b, b -> a and c -> c - 1 for c > b.  A split of a
leaves the piece with a's least arc at a, and the other piece p2 comes in
at its own least arc: c -> c for c < p2 (c != a) and c -> c + 1 for
c >= p2.  Free loops follow by position.  So an edge is keyed by
(a, b, k_t) or (a, p1, p2, k_t), k_t the target's circle count, and its
shape is built from arcs, and checked against the rule, only on the first
edge of its key (`CubeComplex._first_shape`).  Two circles at a crossing
always merge; one circle there splits in two or, on a non-planar diagram,
stays one, and then p1 = p2 gives a key of its own, refused on its first
edge.

The 2^(n-1)·n edges of a cube have few shapes (86 for the 24 576 edges of
a 12-crossing 3-braid closure), so each complex builds the map of each
shape once, rewritten into the slot basis (`_edge_block`), and places that
block at each edge of the shape (`_d_h`).  The cube is read-only: every job
builds one complex on its own cube, so blocks are built once per complex.

Every twisted job goes through one entry, `twisted_complex`, which refuses
a bad marking before any state is resolved and returns a `TwistedComplex`;
hd and ss check the E^2 page in one place, `_checked_e2`.  The hd job's
one entry is `hd_even_subcomplex`, which reads dotted homology through
`vertical_then_horizontal_ranks`, so both public entries are checked.
"""

from __future__ import annotations

import math
from itertools import groupby, product
from typing import NamedTuple

from .complexes import (
    FilteredComplexF2,
    GradedComplexF2,
    SpectralPages,
    _shift,
    homology_ranks,
    spectral_pages,
)
from .diagram import (
    ArcMarking,
    Diagram,
    _euler_state_sum,
    resolve,
)
from .errors import (
    BadCircleMap,
    IncompatibleMarking,
    InternalInconsistency,
    InvalidRange,
    NotAComplex,
    NotBicomplex,
    SizeBudgetExceeded,
)
from .linalg import MatF2

DEFAULT_MAX_CROSSINGS = 14


def cube_budget(max_crossings: int | None) -> int:
    """The cube budget, DEFAULT_MAX_CROSSINGS unless given; a negative one
    raises InvalidRange."""
    cap = DEFAULT_MAX_CROSSINGS if max_crossings is None else max_crossings
    if cap < 0:
        raise InvalidRange(f"max_crossings must be non-negative, got {cap}")
    return cap


def _check_budget(d: Diagram, max_crossings: int | None, loops: int = 0):
    """The crossings, plus `loops` free loops where each one doubles the
    basis, against the cube budget (`cube_budget`)."""
    cap = cube_budget(max_crossings)
    if d.n + loops > cap:
        size = f"{d.n} crossings" + (f" and {loops} free loops" if loops else "")
        raise SizeBudgetExceeded(f"{size} exceeds the cube budget of {cap}")


# ---------------------------------------------------------------------------
# Cube of resolutions
# ---------------------------------------------------------------------------

class EdgeShape(NamedTuple):
    """What an edge's map depends on.  A merge fuses `circles` = (i, j) of
    the source; a split divides source circle c into `circles` =
    (c, (c1, c2)) of the target.  `correspondence[c]` is the target circle
    of source circle c, and None at a split circle, so the source has
    len(correspondence) circles and the target `n_target`."""
    kind: str                      # "merge" or "split"
    circles: tuple
    correspondence: tuple
    n_target: int


def _checked_shape(kind, circles, correspondence, n_target) -> EdgeShape:
    """The shape, after the checks that an edge of it changes the circle
    count by one and fuses one pair or divides one circle; each is a
    function of the shape, so one edge of a shape checks them all."""
    delta = n_target - len(correspondence)
    if delta != (-1 if kind == "merge" else 1):
        raise BadCircleMap(f"edge changes circle count by {delta}")
    if kind == "merge":
        i, j = circles
        if correspondence[i] != correspondence[j]:
            raise BadCircleMap("merge edge must fuse exactly one pair")
    elif circles[1][0] == circles[1][1]:
        raise BadCircleMap("split edge must divide exactly one circle")
    return EdgeShape(kind, circles, correspondence, n_target)


class CubeComplex:
    """All 2^n resolved states of a diagram and its classified edges, flat.

    `states[bits]` is the state whose crossing t has resolution bit
    (bits >> t) & 1, and `vertices` lists the bit masks by cube weight, then
    by bit-reversed mask, which orders them as their bit vectors.  `edges`
    holds the shape of each edge, an int with `shapes[shape]` its
    `EdgeShape`, in vertex order and then by ascending unset crossing t, so
    the k-th edge out of `bits` is bits -> bits | 1 << t for the k-th t
    with bit t of `bits` unset (`_d_h` walks them so).  Its
    complexes share one slot basis: positions[x] is the position of basis
    index x among the indices of its bit count, ascending.  The cube is
    read-only; each complex built on it rewrites each shape's map into
    those positions once (`_edge_block`)."""

    def __init__(self, d: Diagram, max_crossings: int | None = None):
        _check_budget(d, max_crossings, d.free_loops)
        self.diagram = d
        n = d.n
        # rev[bits] is bits reversed over n bits, and rev[k] the state of the
        # k-th bit vector `product` yields, which varies crossing 0 slowest
        rev = [0]
        for _ in range(n):
            rev = [r << 1 for r in rev] + [(r << 1) | 1 for r in rev]
        self.states = [None] * (1 << n)
        for k, index in enumerate(product((0, 1), repeat=n)):
            self.states[rev[k]] = resolve(d, index)
        self.vertices = sorted(range(1 << n),
                               key=lambda bits: (bits.bit_count() << n) | rev[bits])
        size = max(state.n_circles for state in self.states)
        seen, self.positions = [0] * (size + 1), []
        for x in range(1 << size):
            self.positions.append(seen[x.bit_count()])
            seen[x.bit_count()] += 1
        self.shapes: list[EdgeShape] = []
        self.edges: list[int] = []
        self._classify()

    def _classify(self) -> None:
        """Each edge is interned by its key (see the module docstring).
        Merge or split is read off the changed crossing, whose 0-resolution
        joins slots (0,1) and (2,3): slots 0 and 2 on different source
        circles a < b merge, and otherwise their circle a splits into the
        target circles p1 < p2 through slots 0 and 1.  A key's shape is
        built and checked on its first edge (`_first_shape`)."""
        states, edges, shapes = self.states, self.edges, self.shapes
        counts = [state.n_circles for state in states]
        crossings = [(1 << t, c[0], c[1], c[2])
                     for t, c in enumerate(self.diagram.crossings)]
        interned: dict[tuple, int] = {}
        for bits in self.vertices:
            src_of = states[bits].arc_to_circle
            for bit, c0, c1, c2 in crossings:
                if bits & bit:
                    continue
                target = bits | bit
                kt = counts[target]
                a, b = src_of[c0], src_of[c2]
                if a != b:
                    key = (a, b, kt) if a < b else (b, a, kt)
                else:
                    tgt_of = states[target].arc_to_circle
                    p1, p2 = tgt_of[c0], tgt_of[c1]
                    key = (a, p1, p2, kt) if p1 < p2 else (a, p2, p1, kt)
                shape = interned.get(key)
                if shape is None:
                    shape = interned[key] = len(shapes)
                    shapes.append(self._first_shape(bits, target, key))
                edges.append(shape)

    def _first_shape(self, source: int, target: int, key: tuple) -> EdgeShape:
        """The shape of the edge source -> target, the first of its key: the
        correspondence carried by one arc of each source circle, checked by
        `_checked_shape`, and then against the least-arc rule, under which
        every edge of the key has this shape (BadCircleMap if not)."""
        loops = self.diagram.free_loops
        kt = key[-1]
        tgt_of = self.states[target].arc_to_circle
        # free loop circles come last and correspond positionally
        corr = [tgt_of[a] for a in self.states[source].least_arcs]
        corr.extend(range(kt - loops, kt))
        if len(key) == 3:
            a, b, _ = key
            shape = _checked_shape("merge", (a, b), tuple(corr), kt)
            rule = tuple(a if c == b else c - (c > b) for c in range(len(corr)))
        else:
            a, p1, p2, _ = key
            corr[a] = None
            shape = _checked_shape("split", (a, (p1, p2)), tuple(corr), kt)
            rule = (tuple(None if c == a else c + (c >= p2) for c in range(len(corr)))
                    if p1 == a else None)
        if shape.correspondence != rule:
            raise BadCircleMap(f"{shape.kind} edge {source} -> {target} breaks "
                               "the least-arc circle numbering")
        return shape


def build_cube(d: Diagram, max_crossings: int | None = None) -> CubeComplex:
    return CubeComplex(d, max_crossings=max_crossings)


def edge_map(shape: EdgeShape, marked: tuple[int, int] | None = None) -> MatF2:
    """Matrix of an edge's merge or split map on the full exterior-algebra
    bases of its source and target, or, given the marked circles (of the
    source, of the target), on the subsets containing each state's marked
    circle, in ascending order.

    The matrix is a function of the shape and the marked pair alone.  The
    cube complexes mark circle 0 in every state, so a complex builds it
    once per shape, at the marked pair None or (0, 0), through `_edge_block`.

    The image of each source subset is the image of the subset without its
    highest circle plus that circle's image, so the work grows with the
    basis size.  Images are built in the reduced positions directly: the
    marked circle b is in every subset and has no bit, so the subset m sits
    at ((m >> (b + 1)) << b) | (m & ((1 << b) - 1)).
    """
    corr = shape.correspondence
    split = shape.kind == "split"
    # on the full bases nothing is marked: inf lies above every circle
    ms, mt = marked or (math.inf, math.inf)

    def bit(c):
        return 0 if c == mt else 1 << (c - (c > mt))

    base = 0
    if split:
        c_split, (c1, c2) = shape.circles
        rep, other = bit(min(c1, c2)), bit(max(c1, c2))
        image = [rep if c == c_split else bit(corr[c])
                 for c in range(len(corr)) if c != ms]
        if c_split == ms:
            if mt not in (c1, c2):
                raise BadCircleMap("split of the marked circle misses the marked circle")
            # the marked circle is always present, so it always splits
            base, has_split = rep, 0
        else:
            has_split = 1 << (c_split - (c_split > ms))
    else:
        # a circle merged into the marked one meets it in every subset: zero
        image = [bit(corr[c]) or -1 for c in range(len(corr)) if c != ms]
    if marked and corr[ms] is not None and corr[ms] != mt:
        raise BadCircleMap("edge does not carry the marked circle to its image")
    out = [base]
    for img in image:
        if split:
            out += [o | img for o in out]
        else:
            # -1 marks a subset whose image repeats a target circle (zero in
            # the exterior algebra); -1 & img is nonzero, so it stays -1
            out += [o | img if not o & img else -1 for o in out]
    rows = [0] * (1 << (shape.n_target - (marked is not None)))
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


def _edge_block(shape: EdgeShape, positions: list, reduced: bool) -> list:
    """`edge_map(shape)`, or its reduced map at the marked circles (0, 0),
    in the slot basis of `_place` (`CubeComplex.positions`), as ((source
    degree, target degree), [(i, bits)]) pairs, with i and the bits of bits
    positions within the two slots.  An entry whose source and target have
    different quantum gradings raises InternalInconsistency."""
    # q = k - 2|S| + w is kept iff 2 (|S_t| - |S_s|) = k_t - k_s + 1
    shift = shape.n_target - len(shape.correspondence) + 1
    by_degrees: dict[tuple, list] = {}
    for i, row in enumerate(edge_map(shape, (0, 0) if reduced else None).rows):
        if not row:
            continue
        bits, degree = 0, i.bit_count()
        while row:
            low = row & -row
            row ^= low
            col = low.bit_length() - 1
            if 2 * (degree - col.bit_count()) != shift:
                raise InternalInconsistency("d_h must preserve the quantum grading")
            bits |= 1 << positions[col]
        by_degrees.setdefault((degree - shift // 2, degree), []).append((positions[i], bits))
    return list(by_degrees.items())


def _place(cube: CubeComplex, vertices, reduced: bool, cell_of, dims: dict,
           cells: list, offsets: list) -> None:
    """Each vertex's slots: entry j of cells[bits] and offsets[bits] is the
    cell and offset of the vertex's generators of exterior degree j (the
    marked circle 0 not counted when reduced), which share the quantum
    grading q and so the cell cell_of(w, q).  offsets[bits] is one tuple
    per vertex, and cells[bits] one tuple shared by every vertex of its
    (circle count, cube weight).  Vertices take their slots in the given order, extending
    `dims`, the size of each cell."""
    sizes: dict = {}            # (k, w) -> (cells, (cell, size) of each degree j)
    for bits in vertices:
        k, w = cube.states[bits].n_circles, bits.bit_count()
        if (k, w) not in sizes:
            m = k - reduced     # circles with a bit in a basis index
            kw_cells = tuple(cell_of(w, k - 2 * (j + reduced) + w) for j in range(m + 1))
            sizes[(k, w)] = (kw_cells, [(cell, math.comb(m, j))
                                        for j, cell in enumerate(kw_cells)])
        cells[bits], slots = sizes[(k, w)]
        out = []
        for cell, size in slots:
            offset = dims.get(cell, 0)
            out.append(offset)
            dims[cell] = offset + size
        offsets[bits] = tuple(out)


def _d_h(cube: CubeComplex, reduced: bool, dims: dict, cells: list,
         offsets: list) -> dict:
    """The rows of the differential of the cells `_place` laid out, one list
    per cell, into the next cell (w, r) -> (w + 1, r), or t -> t + 1 for
    total degrees: each edge XORs its shape's block (`_edge_block`, built
    once per shape into a list indexed by shape) into its source cell's
    rows, shifted to the offsets of its source and target slots.  The edges
    are walked as `cube.edges` lists them, vertex by vertex and then by
    ascending unset crossing, reading each edge's shape beside the walk."""
    rows = {cell: [0] * dims.get(_shift(cell, 1), 0) for cell in dims}
    blocks = [_edge_block(shape, cube.positions, reduced) for shape in cube.shapes]
    shapes = cube.edges
    crossing_bits = [1 << t for t in range(cube.diagram.n)]
    # a cells tuple is shared by the vertices of one (k, w), so its row
    # lists are looked up once for all of them
    rows_of: dict = {}
    e = 0
    for s in cube.vertices:
        src = offsets[s]
        src_rows = rows_of.get(cells[s])
        if src_rows is None:
            src_rows = rows_of[cells[s]] = [rows[cell] for cell in cells[s]]
        for bit in crossing_bits:
            if s & bit:
                continue
            t, block = s | bit, blocks[shapes[e]]
            e += 1
            tgt = offsets[t]
            for (js, jt), entries in block:
                so, to, out = src[js], tgt[jt], src_rows[js]
                for i, bits in entries:
                    out[to + i] ^= bits << so
    return rows


def _matrices(dims: dict, rows: dict) -> dict:
    """The MatF2 of each cell's rows (`_d_h`)."""
    return {cell: MatF2(len(r), dims[cell], tuple(r)) for cell, r in rows.items()}


# ---------------------------------------------------------------------------
# Chain complexes
# ---------------------------------------------------------------------------

def kh_complex(d: Diagram, max_crossings: int | None = None) -> GradedComplexF2:
    """Unreduced cube complex graded by (cube weight, quantum grading)."""
    return _assemble(build_cube(d, max_crossings=max_crossings), False)


def khr_complex(d: Diagram, max_crossings: int | None = None) -> GradedComplexF2:
    """Reduced cube complex marked at circle 0, the circle through arc 1,
    graded by (cube weight, quantum grading)."""
    return _assemble(build_cube(d, max_crossings=max_crossings), True)


def _assemble(cube: CubeComplex, reduced: bool) -> GradedComplexF2:
    """The cube complex, reduced at circle 0 or not, in (w, q) cells."""
    dims: dict[tuple, int] = {}
    cells: list = [None] * len(cube.states)
    offsets: list = [None] * len(cube.states)
    _place(cube, cube.vertices, reduced, lambda w, q: (w, q), dims, cells, offsets)
    return GradedComplexF2(dims, _matrices(dims, _d_h(cube, reduced, dims, cells, offsets)))


def weight_totals(ranks: dict[tuple, int]) -> dict[int, int]:
    """Bigraded ranks keyed (w, r) summed over r, keyed by w ascending."""
    out: dict[int, int] = {}
    for (w, _), b in sorted(ranks.items()):
        out[w] = out.get(w, 0) + b
    return out


def kh_ranks(d: Diagram, max_crossings: int | None = None) -> dict[int, int]:
    """Unreduced Khovanov ranks keyed by cube weight, read off the reduced
    complex (`khr_ranks`, with its checks): over GF(2),
    Kh(L) = Khr(L) (x) V with V in cube weight 0 and q-degrees +-1
    (Shumakovitch, *Torsion of Khovanov homology*), so each weight has
    twice Khr's rank.  The empty link has no circle to mark: its Khr is 0
    and its Kh one generator at weight 0.  `kh_complex` stays the tests'
    and the acceptance suite's unreduced oracle."""
    ranks = khr_ranks(d, max_crossings=max_crossings)
    if _empty_link(d):
        return {0: 1}
    return {w: 2 * r for w, r in ranks.items()}


def khr_ranks(d: Diagram, max_crossings: int | None = None) -> dict[int, int]:
    """Reduced Khovanov ranks keyed by cube weight, the one path of kh and
    Khr.  Besides d^2 = 0 and the grading checks made in building the
    complex, its cell dimensions are checked against the frontier state sum
    (`_check_euler`) before any rank is taken."""
    c = khr_complex(d, max_crossings=max_crossings)
    _check_euler(d, c.dims)
    return weight_totals(homology_ranks(c))


def _empty_link(d: Diagram) -> bool:
    return not d.crossings and not d.free_loops


def _check_euler(d: Diagram, dims: dict) -> None:
    """The reduced complex's cell dimensions against the unreduced graded
    Euler characteristic (`_euler_state_sum`): (1 + q^2) times
    sum_w (-1)^w dim C_{w,q} must match it at every q, as a reduced
    generator at q, a subset S holding the marked circle, stands for the
    two unreduced generators S at q and S without the marked circle at
    q + 2.  The empty link, with no circle to mark, has no reduced cells
    and one unreduced generator at (0, 0).  A mismatch raises
    InternalInconsistency naming the first q-block that differs."""
    found: dict[int, int] = {0: 1} if _empty_link(d) else {}
    for (w, q), size in dims.items():
        for e in (q, q + 2):
            found[e] = found.get(e, 0) + (-size if w & 1 else size)
    want = _euler_state_sum(d)
    for q in sorted(found.keys() | want.keys()):
        if found.get(q, 0) != want.get(q, 0):
            raise InternalInconsistency(
                f"graded Euler characteristic at q-block {q}: the cells give "
                f"{found.get(q, 0)}, the state sum {want.get(q, 0)}")


def grading_tables(d: Diagram, ranks: dict[int, int]) -> dict[str, dict[int, int]]:
    """Translate cube-weight keyed ranks to the two reported gradings."""
    return {
        "i": {w + d.n_plus: r for w, r in sorted(ranks.items())},
        "h": {w - d.n_minus: r for w, r in sorted(ranks.items())},
    }


# ---------------------------------------------------------------------------
# Twisted complex and dotted-diagram homology
# ---------------------------------------------------------------------------

def _marking_parities(cube: CubeComplex, marking: ArcMarking) -> list[list]:
    """Per state, in bit-mask order, the parities of its circles: each
    marked arc flips its circle's.  The marking's length was checked once
    against the diagram (`twisted_complex`), so it is not checked per state."""
    marked = [a for a, b in enumerate(marking.bits, 1) if b]
    out = []
    for st in cube.states:
        parities, of = [0] * st.n_circles, st.arc_to_circle
        for a in marked:
            parities[of[a]] ^= 1
        out.append(parities)
    return out


class TwistedComplex(NamedTuple):
    """The twisted complex in total degree t = w + v: `total` has the
    differential D = d_h + d_v, `weights[t]` lists the cube weight of each
    generator of degree t, non-increasing, and `cells[(w, v)]` is the
    offset of the cell (w, v) in degree w + v and its count of generators
    at all-even vertices, which come first in the cell (`_twisted`)."""
    total: GradedComplexF2
    weights: dict
    cells: dict


def twisted_complex(d: Diagram, marking: ArcMarking,
                    max_crossings: int | None = None) -> TwistedComplex:
    """The total complex of the twisted double complex, with its weights:
    horizontal = reduced cube differential, vertical = wedge with the sum
    of odd-parity circles at each vertex.

    The bigrading is (cube weight, exterior degree normalized so both
    differentials shift by exactly one); the total degree is their sum.
    The one entry of every twisted job: `_twisted` on d's cube, built only
    once the marking passes its check against d alone (`ArcMarking.fault`).
    """
    fault = marking.fault(d)
    if fault:
        raise IncompatibleMarking(fault)
    return _twisted(build_cube(d, max_crossings=max_crossings), marking)


def _twisted(cube: CubeComplex, marking: ArcMarking) -> TwistedComplex:
    """The twisted complex of a compatible marking, placed in total degree
    (see the module docstring).  D^2 = 0 holds exactly when d_h^2, d_v^2
    and d_h d_v + d_v d_h vanish, so it is the bicomplex check (NotBicomplex
    if not).  d_v is zero at an all-even vertex, one with no odd circle.
    The generators are the reduced complex's, so their counts by (w, q),
    q = par - 2v, are checked against the graded Euler characteristic
    (`_check_euler`), as in `khr_ranks`, before any differential is built."""
    parities = _marking_parities(cube, marking)
    odd = [any(p) for p in parities]
    par = cube.states[0].n_circles % 2     # v = (par - q)/2 at every generator

    def total_of(w, q):
        if (par - q) % 2:
            raise InternalInconsistency(
                f"odd vertical degree {par - q}/2 at cube weight {w}")
        return w + (par - q) // 2

    def group(bits):
        return -bits.bit_count(), odd[bits]

    dims: dict[int, int] = {}
    weights: dict[int, list] = {}
    cells: dict[tuple, tuple] = {}
    by_wq: dict[tuple, int] = {}    # the same generators by (w, q)
    slot_cells: list = [None] * len(cube.states)
    offsets: list = [None] * len(cube.states)
    order = sorted(cube.vertices, key=group)
    for (minus_w, has_odd), vertices in groupby(order, key=group):
        w, start = -minus_w, dict(dims)
        _place(cube, vertices, True, total_of, dims, slot_cells, offsets)
        for t, end in dims.items():
            n = end - start.get(t, 0)
            if n:
                weights.setdefault(t, []).extend([w] * n)
                cells.setdefault((w, t - w), (start.get(t, 0), 0 if has_odd else n))
                wq = (w, par - 2 * (t - w))
                by_wq[wq] = by_wq.get(wq, 0) + n
    _check_euler(cube.diagram, by_wq)
    # ascending degrees, so a failed D^2 = 0 names the lowest one first
    dims = dict(sorted(dims.items()))

    rows = _d_h(cube, True, dims, slot_cells, offsets)
    pos = cube.positions
    for index in (ix for ix in order if odd[ix]):
        cell, off = slot_cells[index], offsets[index]
        # wedging an odd circle c >= 1 sets bit c - 1, its reduced position
        wedges = [1 << (c - 1) for c, p in enumerate(parities[index]) if p and c]
        for x in range(1 << (len(off) - 1)):
            j = x.bit_count()
            out, bit = rows[cell[j]], 1 << (off[j] + pos[x])
            for g in wedges:
                if not x & g:
                    out[off[j + 1] + pos[x | g]] ^= bit
    try:
        total = GradedComplexF2(dims, _matrices(dims, rows))
    except NotAComplex as e:
        raise NotBicomplex(f"total differential d_h + d_v: {e}") from None
    return TwistedComplex(total, weights, cells)


def vertical_then_horizontal_ranks(tw: TwistedComplex) -> dict[tuple, int]:
    """Homology of vertical homology, H(H(C, d_v), d_h), keyed by (p, v).

    Filtering the total complex by cube weight p gives E^0 = C with d_0 =
    d_v, and E^1 = H(C, d_v) with d_1 the induced d_h, so this is the E^2
    page with its keys (p, p + v) moved back to (p, v).  It is read off the
    all-even-vertex subcomplex once the two are checked to agree
    (`_checked_e2`, InternalInconsistency if not).
    """
    return _checked_e2(tw)[1]


def hd_even_subcomplex(d: Diagram, marking: ArcMarking,
                       max_crossings: int | None = None) -> dict[tuple, int]:
    """Dotted-diagram homology ranks keyed by (cube weight, vertical degree):
    the homology of the all-even-vertex subcomplex, checked against the E^2
    page of the twisted complex (`vertical_then_horizontal_ranks`)."""
    return vertical_then_horizontal_ranks(twisted_complex(d, marking, max_crossings))


def _hd_even(tw: TwistedComplex) -> dict[tuple, int]:
    """Homology of d_h restricted to the generators of all-even vertices, one
    complex per vertical degree v graded by cube weight, keyed by (w, v).
    Its matrices are slices of the total rows: D maps the all-even part of
    cell (w, v) into that of (w + 1, v) through d_h alone."""
    dims, d_h = {}, {}
    for (w, v), (off, n) in tw.cells.items():
        if not n:
            continue
        dims[(w, v)] = n
        to, m = tw.cells.get((w + 1, v), (0, 0))
        rows = tw.total.d(w + v).rows[to:to + m]
        d_h[(w, v)] = MatF2(m, n, tuple((r >> off) & ((1 << n) - 1) for r in rows))
    return homology_ranks(GradedComplexF2(dims, d_h))


def _checked_e2(tw: TwistedComplex) -> tuple[SpectralPages, dict[tuple, int]]:
    """The cube-weight pages of tw and the homology of its all-even-vertex
    subcomplex (`_hd_even`), once the E^2 page is checked to equal the
    latter (InternalInconsistency if not).  They agree as wedging with a
    nonzero odd class is exact: E^1 = H(C, d_v) is the even-vertex part of
    C, and d_1 is d_h restricted to it; only the pages read d_v."""
    pages = spectral_pages(FilteredComplexF2(tw.total, tw.weights))
    hd = _hd_even(tw)
    if pages.page(2) != {(p, p + v): r for (p, v), r in hd.items()}:
        raise InternalInconsistency(
            "E^2 page and even-vertex dotted homology disagree")
    return pages, hd


def twisted_total_ranks(d: Diagram, marking: ArcMarking,
                        max_crossings: int | None = None) -> dict[int, int]:
    """Homology of the total twisted complex, keyed by total degree."""
    return homology_ranks(twisted_complex(d, marking, max_crossings).total)


def weight_ss(d: Diagram, marking: ArcMarking,
              max_crossings: int | None = None) -> SpectralPages:
    """Spectral sequence of the cube-weight filtration of the twisted total
    complex.  E^1 equals the count of generators at all-even vertices (the
    vertical homology, as wedging with a nonzero odd class is exact), E^2
    the dotted-diagram homology of the all-even-vertex subcomplex
    (`_checked_e2`), and the E^infinity total the homology of the total
    complex; all three identities are checked, raising
    InternalInconsistency.  The E^infinity check feeds the pages' own
    elimination (`complexes._cleared_pivots`) its rows in one run, so it
    checks the level-run feed; the elimination itself is checked against
    an independent column reduction, `plain_pairing`, in the tests."""
    # the page computation is the memory peak; it needs no cube, so none is kept
    tw = twisted_complex(d, marking, max_crossings)
    pages, _ = _checked_e2(tw)
    if pages.page(1) != {(w, w + v): n for (w, v), (_, n) in tw.cells.items() if n}:
        raise InternalInconsistency("E^1 page does not match the all-even generator count")
    beta = homology_ranks(tw.total)
    einf_tot: dict[int, int] = {}
    for (p, t), rank in pages.e_infinity.items():
        einf_tot[t] = einf_tot.get(t, 0) + rank
    if einf_tot != beta:
        raise InternalInconsistency("E^infinity does not match total homology")
    return pages


# ---------------------------------------------------------------------------
# Determinant by Kauffman state sum
# ---------------------------------------------------------------------------

def state_sum_det(d: Diagram, max_crossings: int | None = None) -> int:
    """|det| = |V_L(-1)|, read off the graded Euler characteristic chi of
    the frontier walk (`_euler_state_sum`).

    With crossings and no free loops, chi = (q + q^-1) P(q), where P at
    q = -A^-2 is A^-n times the Kauffman bracket.  q = i is A = zeta8, so
    P(i) = +-det or +-i det.  As q + q^-1 vanishes at i, chi(i) = 0 and
    P(i) = chi'(i)/2.  A nonzero chi(i), an odd chi'(i) or a P(i) with two
    nonzero parts raises InternalInconsistency.  Free loops are answered
    before the walk: det 1 for the empty link and the unknot, else 0."""
    _check_budget(d, max_crossings)
    if d.n == 0:
        return 1 if d.free_loops <= 1 else 0
    if d.free_loops:
        return 0
    # chi(i) and chi'(i) from the sums of c and e*c over e = 0, 1, 2, 3 mod 4
    s, t = [0] * 4, [0] * 4
    for e, c in _euler_state_sum(d).items():
        s[e % 4] += c
        t[e % 4] += e * c
    if s[0] != s[2] or s[1] != s[3]:
        raise InternalInconsistency("graded Euler characteristic is "
                                    f"{s[0] - s[2]}{s[1] - s[3]:+}i at q = i, not 0")
    re, im = t[1] - t[3], t[2] - t[0]
    if re % 2 or im % 2:
        raise InternalInconsistency(f"chi'(i) = {re}{im:+}i is not even")
    re, im = re // 2, im // 2
    if re and im:
        raise InternalInconsistency(
            f"bracket at q = i is {re}{im:+}i, with two nonzero parts")
    return abs(re or im)
