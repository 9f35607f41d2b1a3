"""Reference versions of the cube layer, kept as oracles for the one-pass
implementations in `cubekh.diagram` and `cubekh.khovanov`.

Each one is the straightforward form the fast code replaced: circles by a
dict-based union-find, edges classified by mapping every arc of every
source circle, edge maps built mask by mask on the full exterior-algebra
basis, the reduced map obtained by restricting the full one to the
subsets that contain the marked circle, read off `arc_to_circle` at the
given arc (`marked_circle`) where the library takes circle 0, circle
parities of a marking summed arc by arc, dotted-diagram homology from the
edge maps between all-even vertices, ranked by the plain elimination, and
the kh, Khr and twisted differentials placed edge by edge from one
`edge_map` call per edge, kh and Khr on whole-weight bases that
`split_by_quantum_grading` permutes into (w, q) cells.  `reduced_masks`
lists a reduced basis in the order every map here uses.
"""

from typing import NamedTuple

from cubekh.complexes import GradedComplexF2
from cubekh.diagram import RES0_PAIRS, RES1_PAIRS
from cubekh.errors import BadCircleMap, IncompatibleMarking, InternalInconsistency
from cubekh.khovanov import edge_map
from cubekh.linalg import MatF2
from linalg_helpers import plain_homology_ranks


def induce_marking(d, m, s) -> tuple[int, ...]:
    """Per-circle parities of the arc marking m on the resolved state s,
    summed over the arcs of each circle."""
    if len(m.bits) != d.arc_count:
        raise IncompatibleMarking(
            f"marking has {len(m.bits)} bits for {d.arc_count} arcs")
    return tuple(sum(m.bits[a - 1] for a in circ) % 2 for circ in s.circles)


def marked_circle(d, basepoint):
    """state -> its circle through the basepoint arc (circle 0 in a diagram
    without arcs); None for the unreduced theory."""
    if basepoint is None:
        return None
    if not d.arc_count:
        return lambda state: 0
    return lambda state: state.arc_to_circle[basepoint]


def marking_parities(cube, marking) -> list[tuple]:
    """Per state, in bit-mask order, the circle parities of the marking,
    summed over each circle's arcs (`induce_marking`)."""
    return [induce_marking(cube.diagram, marking, st) for st in cube.states]


def edge_triples(cube) -> list[tuple[int, int, int]]:
    """The cube's edges as (source, target, shape) triples: `cube.edges`
    holds only each edge's shape, in vertex order and then by ascending
    unset crossing t, the edge bits -> bits | 1 << t."""
    pairs = [(bits, bits | 1 << t) for bits in cube.vertices
             for t in range(cube.diagram.n) if not bits >> t & 1]
    assert len(pairs) == len(cube.edges)
    return [(s, t, shape) for (s, t), shape in zip(pairs, cube.edges)]


def reduced_masks(state, marked: int) -> list[int]:
    """Circle subsets containing the marked circle, ascending (none when the
    state has no circle)."""
    bit = 1 << marked
    return [((j >> marked) << (marked + 1)) | bit | (j & (bit - 1))
            for j in range((1 << state.n_circles) >> 1)]


def resolve_circles(d, index):
    """(circles, arc_to_circle) for one state, by a dict-based union-find
    with the smaller root kept; circles ordered by their minimum arc."""
    parent = {a: a for a in range(1, d.arc_count + 1)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ci, bit in enumerate(index):
        c = d.crossings[ci]
        for s, t in (RES1_PAIRS if bit else RES0_PAIRS):
            ra, rb = find(c[s]), find(c[t])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for a in parent:
        groups.setdefault(find(a), []).append(a)
    circles = [tuple(sorted(g)) for g in sorted(groups.values(), key=min)]
    circles.extend(() for _ in range(d.free_loops))
    arc_to_circle = {a: i for i, circ in enumerate(circles) for a in circ}
    return tuple(circles), arc_to_circle


def as_tuple(corr, s):
    """A dict correspondence in the edge shape's form: a tuple indexed by
    source circle, None at a circle without a single image."""
    return tuple(corr.get(c) for c in range(s.n_circles))


def classify(d, s, t) -> tuple:
    """The shape (kind, circles, correspondence, target circle count) of the
    edge from state s to state t, from the images of every arc of every
    circle."""
    corr = {}
    for ci, circ in enumerate(s.circles):
        if not circ:
            continue
        images = {t.arc_to_circle[a] for a in circ}
        if len(images) == 1:
            corr[ci] = images.pop()
        elif len(images) == 2:
            corr[ci] = tuple(sorted(images))
        else:
            raise BadCircleMap("circle maps onto more than two circles")
    pd_s = sum(1 for c in s.circles if c)
    pd_t = sum(1 for c in t.circles if c)
    for fl in range(d.free_loops):
        corr[pd_s + fl] = pd_t + fl
    delta = t.n_circles - s.n_circles
    if delta == -1:
        merged = {}
        for c_src, c_tgt in corr.items():
            if isinstance(c_tgt, tuple):
                raise BadCircleMap("merge edge with a splitting circle")
            merged.setdefault(c_tgt, []).append(c_src)
        pair = [v for v in merged.values() if len(v) == 2]
        if len(pair) != 1:
            raise BadCircleMap("merge edge must fuse exactly one pair")
        return ("merge", tuple(sorted(pair[0])), as_tuple(corr, s), t.n_circles)
    if delta == 1:
        splits = [(c, v) for c, v in corr.items() if isinstance(v, tuple)]
        if len(splits) != 1:
            raise BadCircleMap("split edge must divide exactly one circle")
        c, pieces = splits[0]
        clean = {k: v for k, v in corr.items() if not isinstance(v, tuple)}
        return ("split", (c, pieces), as_tuple(clean, s), t.n_circles)
    raise BadCircleMap(f"edge changes circle count by {delta}")


def least_arc_shape(kind, circles, n_source, n_target) -> tuple:
    """The shape that circles numbered by least arc, free loops last, give
    an edge of this kind and circles: a merge of a < b sends c -> c for
    c < b, b -> a and c -> c - 1 for c > b; a split of a leaves its piece
    at a, the other at p2, and sends c -> c for c < p2 and c -> c + 1 for
    c >= p2."""
    if kind == "merge":
        a, b = circles
        corr = tuple(a if c == b else c - (c > b) for c in range(n_source))
    else:
        a, (_, p2) = circles
        corr = tuple(None if c == a else c + (c >= p2) for c in range(n_source))
        circles = (a, (a, p2))
    return (kind, circles, corr, n_target)


def full_edge_map(shape, src, tgt) -> MatF2:
    """Merge or split map of an edge of the given shape (as `classify`
    gives it) on the full bases, one mask and one circle at a time."""
    kind, circles, correspondence, _ = shape
    ks, kt = src.n_circles, tgt.n_circles
    rows = [0] * (1 << kt)
    if kind == "merge":
        for mask in range(1 << ks):
            out = 0
            dead = False
            for c in range(ks):
                if (mask >> c) & 1:
                    c_t = correspondence[c]
                    if (out >> c_t) & 1:
                        dead = True
                        break
                    out |= 1 << c_t
            if not dead:
                rows[out] ^= 1 << mask
    else:
        c_split, (c1, c2) = circles
        rep, other = min(c1, c2), max(c1, c2)
        for mask in range(1 << ks):
            out = 0
            for c in range(ks):
                if (mask >> c) & 1:
                    out |= 1 << (correspondence[c] if c != c_split else rep)
            if (mask >> c_split) & 1:
                rows[out | (1 << other)] ^= 1 << mask
            else:
                rows[out | (1 << rep)] ^= 1 << mask
                rows[out | (1 << other)] ^= 1 << mask
    return MatF2(1 << kt, 1 << ks, tuple(rows))


def restrict_reduced(m: MatF2, src, tgt, basepoint) -> MatF2:
    """Rows and columns of a full map on the subsets containing the marked
    circle of each state, the circle through the basepoint arc, in
    ascending order."""
    def masks(state):
        bit = 1 << state.arc_to_circle[basepoint]
        return [x for x in range(1 << state.n_circles) if x & bit]

    src_masks, tgt_masks = masks(src), masks(tgt)
    rows = []
    for tm in tgt_masks:
        row = m.rows[tm]
        rows.append(sum(1 << i for i, sm in enumerate(src_masks) if (row >> sm) & 1))
    return MatF2(len(tgt_masks), len(src_masks), tuple(rows))


def hd_even_oracle(cube, marking, basepoint) -> dict[tuple, int]:
    """Dotted-diagram homology from its own pass over the cube: marking
    parities, placement of the all-even vertices' reduced generators by
    vertical degree, and the reduced edge maps between even vertices, one
    complex per vertical degree v graded by cube weight, keyed by (w, v).
    Entries of an edge map that change the vertical degree are dropped."""
    mark = marked_circle(cube.diagram, basepoint)
    parities = marking_parities(cube, marking)
    par = cube.states[0].n_circles % 2
    even = [index for index in cube.vertices if not any(parities[index])]

    # per even vertex: (vertical degree, position among that degree's
    # elements) of each reduced basis element, and the count per degree
    slots: dict[tuple, list] = {}
    sizes: dict[tuple, dict] = {}
    for index in even:
        w, k = index.bit_count(), cube.states[index].n_circles
        size = sizes[index] = {}
        sl = slots[index] = []
        for mask in reduced_masks(cube.states[index], mark(cube.states[index])):
            v = (2 * mask.bit_count() - w - k + par) // 2
            sl.append((v, size.get(v, 0)))
            size[v] = size.get(v, 0) + 1

    # one complex per vertical degree v, graded by cube weight
    dims: dict[int, dict] = {}
    offsets: dict[int, dict] = {}
    for index in even:
        w = index.bit_count()
        for v, n_v in sizes[index].items():
            dv = dims.setdefault(v, {})
            offsets.setdefault(v, {})[index] = dv.get(w, 0)
            dv[w] = dv.get(w, 0) + n_v
    rows = {v: {w: [0] * dv.get(w + 1, 0) for w in dv} for v, dv in dims.items()}

    even_set = set(even)
    for source, target, shape in edge_triples(cube):
        if source not in even_set or target not in even_set:
            continue
        s, t = cube.states[source], cube.states[target]
        m = edge_map(cube.shapes[shape], (mark(s), mark(t)))
        src, tgt = slots[source], slots[target]
        w = source.bit_count()
        for i, row in enumerate(m.rows):
            v, ii = tgt[i]
            while row:
                low = row & -row
                row ^= low
                vs, jj = src[low.bit_length() - 1]
                if vs == v:
                    so = offsets[v][source]
                    to = offsets[v][target]
                    rows[v][w][to + ii] ^= 1 << (so + jj)

    out: dict[tuple, int] = {}
    for v in sorted(dims):
        dv = dims[v]
        diffs = {w: MatF2(dv.get(w + 1, 0), dv[w], tuple(r))
                 for w, r in rows[v].items()}
        for w, b in plain_homology_ranks(GradedComplexF2(dv, diffs)).items():
            out[(w, v)] = b
    return out


def assemble_per_edge(cube, basepoint):
    """The cube complex, reduced unless basepoint is None, with one
    `edge_map` call and one placement pass per edge."""
    mark = marked_circle(cube.diagram, basepoint)
    offsets: dict[tuple, int] = {}
    dims: dict[int, int] = {}
    for index in cube.vertices:
        state = cube.states[index]
        # reduced: the half of the subsets that contain the marked circle
        size = (1 << state.n_circles) >> (mark is not None)
        w = index.bit_count()
        offsets[index] = dims.get(w, 0)
        dims[w] = offsets[index] + size
    by_weight: dict[int, list[tuple]] = {}
    for edge in edge_triples(cube):
        by_weight.setdefault(edge[0].bit_count(), []).append(edge)
    diffs = {}
    for w in range(cube.diagram.n):
        rows = [0] * dims.get(w + 1, 0)
        for source, target, shape in by_weight.get(w, ()):
            s, t = cube.states[source], cube.states[target]
            m = edge_map(cube.shapes[shape],
                         None if mark is None else (mark(s), mark(t)))
            so = offsets[source]
            for i, row in enumerate(m.rows, offsets[target]):
                if row:
                    rows[i] ^= row << so
        diffs[w] = MatF2(len(rows), dims.get(w, 0), tuple(rows))
    return GradedComplexF2(dims, diffs)


def split_by_quantum_grading(cube, basepoint, cx):
    """The per-edge complex cx, reduced unless basepoint is None, permuted
    into (w, q) cells: each weight's generators, in cx's order, go to the
    cell of their quantum grading q = k - 2|S| + w (the marked circle counts
    in |S|) in the order they come.  Returns the cell dimensions and the
    blocks (w, q) -> (w + 1, q); an entry of cx that changes q raises."""
    reduced = basepoint is not None
    dims: dict[tuple, int] = {}
    where: dict[int, list] = {}
    for index in cube.vertices:
        k, w = cube.states[index].n_circles, index.bit_count()
        for x in range((1 << k) >> reduced):
            cell = (w, k - 2 * (x.bit_count() + reduced) + w)
            where.setdefault(w, []).append((cell, dims.get(cell, 0)))
            dims[cell] = dims.get(cell, 0) + 1
    blocks = {cell: [0] * dims.get((cell[0] + 1, cell[1]), 0) for cell in dims}
    for w, m in cx.differentials.items():
        for i, row in enumerate(m.rows):
            (_, qt), ti = where[w + 1][i]
            while row:
                low = row & -row
                row ^= low
                cell, sj = where[w][low.bit_length() - 1]
                if cell[1] != qt:
                    raise InternalInconsistency("per-edge differential changes q")
                blocks[cell][ti] |= 1 << sj
    return dims, {cell: MatF2(len(r), dims[cell], tuple(r)) for cell, r in blocks.items()}


class DoubleBlocks(NamedTuple):
    """A double complex as its cells and blocks, the arguments of
    `total_complex`: d_h : (p, q) -> (p + 1, q), d_v : (p, q) -> (p, q + 1)."""
    dims: dict
    d_h: dict
    d_v: dict


def twisted_per_edge(cube, marking, basepoint):
    """The twisted double complex's blocks (`DoubleBlocks`, unchecked until
    `total_complex(*blocks)` builds its total) and its all-even counts per
    cell, with one `edge_map` call per edge."""
    mark = marked_circle(cube.diagram, basepoint)
    parities = marking_parities(cube, marking)
    par = cube.states[0].n_circles % 2

    dims: dict[tuple, int] = {}
    even: dict[tuple, int] = {}
    # vertex -> (cell, position in cell) of each reduced basis element,
    # placed all-even vertices first
    place: dict[tuple, list] = {}
    for index in sorted(cube.vertices, key=lambda ix: any(parities[ix])):
        state = cube.states[index]
        w, k = index.bit_count(), state.n_circles
        is_even = not any(parities[index])
        slots = place[index] = []
        for mask in reduced_masks(state, mark(state)):
            value = 2 * mask.bit_count() - w - k + par
            if value % 2:
                raise InternalInconsistency(
                    f"odd vertical degree {value}/2 at vertex {index}")
            cell = (w, value // 2)
            slots.append((cell, dims.get(cell, 0)))
            dims[cell] = slots[-1][1] + 1
            if is_even:
                even[cell] = dims[cell]

    d_h: dict[tuple, list] = {cell: [0] * dims.get((cell[0] + 1, cell[1]), 0)
                              for cell in dims}
    d_v: dict[tuple, list] = {cell: [0] * dims.get((cell[0], cell[1] + 1), 0)
                              for cell in dims}

    for source, target, shape in edge_triples(cube):
        s, t = cube.states[source], cube.states[target]
        m = edge_map(cube.shapes[shape], (mark(s), mark(t)))
        src, tgt = place[source], place[target]
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
        mc = mark(cube.states[index])
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
    return DoubleBlocks(dims, dh_mats, dv_mats), even
