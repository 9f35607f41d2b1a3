"""Planar link diagrams as PD codes: parsing, tracing, resolutions, markings,
and the frontier state sums over a diagram's smoothings.

Conventions fixed here and used everywhere else:

* A crossing is a 4-tuple of arc labels listed counterclockwise starting at
  the incoming under-strand, so slots 0 and 2 (0-indexed) hold the
  under-strand and slots 1 and 3 the over-strand.
* The 0-resolution joins slots (0,1) and (2,3); the 1-resolution joins
  slots (0,3) and (1,2).
* Crossingless unknot components cannot be written in a PD code, so a
  diagram carries a separate free_loops counter.
* Orientation is input as one +1/-1 flag per component, applied on top of
  the natural direction read off the under-strand slots; crossing signs are
  derived from the resulting arc directions.
* Internally the rotation system is one dart table (`_dart_table`).  Dart
  x = 4 * crossing + slot, and other[x] is the dart at the other end of x's
  arc.  A strand entering a crossing at x leaves at x ^ 2 and enters the
  next one at other[x ^ 2]; a face continues from x at the slot after
  other[x], counterclockwise at that crossing.  A resolved circle entering
  a crossing at x leaves it at x ^ 1 under the 0-smoothing and at x ^ 3
  under the 1-smoothing (`resolve`, kept in `resolution`).  Public results
  (`Diagram.arc_head`, `PlanarMap.faces` and `PlanarMap.face_of`) name
  darts the same way.
* The projection's pieces (`Diagram.pd_components`), planar map
  (`planar_map`) and graded Euler characteristic (`_euler_state_sum`) are
  found once per diagram and kept on it, and
  `ArcMarking.fault` is the one place the marking rule is written.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DisconnectedTrace,
    IncompatibleMarking,
    MalformedPD,
    NonPlanarTrace,
)
from .resolution import ResolvedState, resolve  # noqa: F401  (re-exported)

RES0_PAIRS = ((0, 1), (2, 3))
RES1_PAIRS = ((0, 3), (1, 2))


class _UnionFind:
    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def classes(self) -> list[tuple]:
        groups: dict = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return [tuple(sorted(g)) for g in sorted(groups.values(), key=min)]


def _dart_table(crossings) -> tuple[list[int], dict[int, int]]:
    """(other, first) for crossing tuples whose labels each appear twice:
    other[x] is the dart at the other end of dart x's arc, first[a] the
    first dart of arc a in PD order (first holds arcs in that order)."""
    other = [0] * (4 * len(crossings))
    first: dict[int, int] = {}
    for x, a in enumerate(a for c in crossings for a in c):
        y = first.setdefault(a, x)
        other[x], other[y] = y, x
    return other, first


def _strand(other: list[int], x: int) -> list[int]:
    """The darts a strand enters, from dart x round to x again."""
    walk = [x]
    y = other[x ^ 2]
    while y != x:
        walk.append(y)
        y = other[y ^ 2]
    return walk


def _strands(other: list[int], first: dict[int, int]):
    """One strand per component, walked from the first dart of its least
    arc; components come in order of least arc.  x -> other[x ^ 2] is a
    permutation, and x -> x ^ 2 would reverse an orbit it kept and so fix a
    dart or an arc: every strand closes up and passes each arc once."""
    seen: set[int] = set()
    for a in sorted(first):
        if first[a] not in seen:
            walk = _strand(other, first[a])
            seen.update(walk)
            seen.update(other[y] for y in walk)
            yield walk


class Diagram:
    """Validated oriented link diagram.

    Attributes (read-only by convention):
        crossings: tuple of 4-tuples of arc labels.
        arc_count: number of arcs (2 * crossings when nonempty).
        free_loops: crossingless unknot components.
        components: tuple of tuples of arcs, one per link component, ordered
            by smallest arc.
        orientation: per-component +1/-1 flags relative to natural direction.
        arc_head: a list, arc_head[a] the dart that arc a points into
            (entry 0, -1, is unused).
        signs: per-crossing +1/-1.
    """

    def __init__(self, crossings, free_loops: int = 0,
                 orientation: Sequence[int] | None = None):
        self.crossings = tuple(tuple(int(x) for x in c) for c in crossings)
        self.free_loops = int(free_loops)
        if self.free_loops < 0:
            raise MalformedPD("free_loops must be non-negative")
        for c in self.crossings:
            if len(c) != 4:
                raise MalformedPD(f"crossing {c} is not a 4-tuple")
        n = len(self.crossings)
        self.arc_count = 2 * n
        counts = Counter(a for c in self.crossings for a in c)
        if (set(counts) != set(range(1, self.arc_count + 1))
                or any(v != 2 for v in counts.values())):
            raise MalformedPD(
                "arc labels must be 1..2n with each label appearing exactly twice")

        self._other, self._first = _dart_table(self.crossings)
        self._labels = [a for c in self.crossings for a in c]   # arc of dart x
        self._pieces: list[tuple] | None = None     # see pd_components
        self._map: PlanarMap | None = None          # see planar_map
        self._chi: dict[int, int] | None = None     # see _euler_state_sum
        self.components, self.arc_head = self._trace_components()
        if orientation is None:
            orientation = [1] * len(self.components)
        orientation = tuple(int(x) for x in orientation)
        if len(orientation) != len(self.components):
            raise MalformedPD(
                f"expected {len(self.components)} orientation flags, got {len(orientation)}")
        if any(x not in (1, -1) for x in orientation):
            raise MalformedPD("orientation flags must be +1 or -1")
        self.orientation = orientation
        for comp, flag in zip(self.components, self.orientation):
            if flag == -1:
                for a in comp:
                    self.arc_head[a] = self._other[self.arc_head[a]]

        self.signs = tuple(self._crossing_sign(ci) for ci in range(n))
        self.n_plus = sum(1 for s in self.signs if s == 1)
        self.n_minus = n - self.n_plus

    # -- construction helpers -------------------------------------------------

    def _trace_components(self):
        """Walk strands, returning components and each arc's natural head dart."""
        other, labels = self._other, self._labels
        components: list[tuple[int, ...]] = []
        natural = [-1] * (self.arc_count + 1)
        for walk in _strands(other, self._first):
            slots = {x & 3 for x in walk}
            if 0 in slots and 2 in slots:
                raise DisconnectedTrace(
                    "under-strand directions are inconsistent along a component")
            for h in walk:
                natural[labels[h]] = other[h] if 2 in slots else h
            components.append(tuple(sorted(labels[h] for h in walk)))
        return tuple(components), natural

    def _crossing_sign(self, ci: int) -> int:
        c = self.crossings[ci]
        u = 1 if self.arc_head[c[0]] == 4 * ci else -1
        o = 1 if self.arc_head[c[1]] == 4 * ci + 1 else -1
        return u * o

    # -- basic queries ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.crossings)

    def pd_components(self) -> list[list[int]]:
        """Connected components of the diagram graph, as crossing index
        lists in order of their least crossing.  The union-find pass runs on
        the first call and its classes are kept, so parsing and the Goeritz
        matrix of one diagram share it."""
        if self._pieces is None:
            uf = _UnionFind(range(self.n))
            for x in self._first.values():
                uf.union(x >> 2, self._other[x] >> 2)
            self._pieces = uf.classes()
        return [list(c) for c in self._pieces]

    def __eq__(self, other):
        return (isinstance(other, Diagram)
                and self.crossings == other.crossings
                and self.free_loops == other.free_loops
                and self.orientation == other.orientation)

    def __hash__(self):
        return hash((self.crossings, self.free_loops, self.orientation))

    def __repr__(self):
        return (f"Diagram({list(map(list, self.crossings))}, "
                f"free_loops={self.free_loops})")


class ArcMarking(NamedTuple("ArcMarking", [("bits", tuple)])):
    """Per-arc parity bits; on a diagram they define a two-fold marking
    datum, the parities of its components, unless `fault` says why not."""

    __slots__ = ()

    def __new__(cls, bits: tuple):
        if any(b not in (0, 1) for b in bits):
            raise IncompatibleMarking("marking bits must be 0 or 1")
        return tuple.__new__(cls, (bits,))

    @staticmethod
    def zero(d: Diagram) -> "ArcMarking":
        return ArcMarking((0,) * d.arc_count)

    def fault(self, d: Diagram) -> str | None:
        """Why the marking defines no two-fold datum on d, or None when it
        does: it needs one bit per arc, and even total parity."""
        if len(self.bits) != d.arc_count:
            return f"marking has {len(self.bits)} bits for {d.arc_count} arcs"
        if sum(self.bits) % 2:
            return "arc marking must have even total parity to define a two-fold datum"
        return None


def strict_int(x, what: str, error: type = MalformedPD) -> int:
    """x itself when it is an int; floats, booleans and strings raise
    `error` instead of being coerced."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise error(f"{what} must be an integer, got {x!r}")
    return x


def parse_pd(data, free_loops: int = 0,
             orientation: Sequence[int] | None = None) -> Diagram:
    """Parse a PD code given as a list of 4-tuples.

    Input arriving here is checked strictly: every label, flag and the free
    loop count must be an integer, and the code must be planar (raises
    NonPlanarTrace otherwise).
    """
    if not isinstance(data, (list, tuple)):
        raise MalformedPD("PD code must be a list of 4-tuples")
    for c in data:
        if not isinstance(c, (list, tuple)):
            raise MalformedPD(f"crossing {c!r} is not a 4-tuple")
        for a in c:
            strict_int(a, "arc label")
    strict_int(free_loops, "free_loops")
    if orientation is not None:
        if not isinstance(orientation, (list, tuple)):
            raise MalformedPD("orientation must be a list of integer flags")
        for x in orientation:
            strict_int(x, "orientation flag")
    d = Diagram(data, free_loops=free_loops, orientation=orientation)
    planar_map(d)
    return d


# ---------------------------------------------------------------------------
# Crossing deletion, smoothing, simplification
# ---------------------------------------------------------------------------

def normalize_under_slots(crossings, free_loops: int = 0) -> Diagram:
    """Build a Diagram from raw tuples: number their labels 1, 2, ... in
    order, and turn any tuple by two slots so each under-strand is entered
    at slot 0 along one consistent direction per component.  Needed after
    surgery on tuples (smoothings, fusions, tangle constructions), which
    leaves gaps in the labels and can reverse strand directions.
    """
    counts = Counter(a for c in crossings for a in c)
    for a, k in counts.items():
        if k != 2:
            raise MalformedPD(f"arc {a} appears {k} times")
    number = {a: i for i, a in enumerate(sorted(counts), 1)}
    crossings = [tuple([number[a] for a in c]) for c in crossings]
    rotate = {x >> 2 for walk in _strands(*_dart_table(crossings))
              for x in walk if x & 3 == 2}
    fixed = [((c[2], c[3], c[0], c[1]) if ci in rotate else c)
             for ci, c in enumerate(crossings)]
    return Diagram(fixed, free_loops=free_loops)


def _glued(crossings, labels, unions, free_loops: int = 0):
    """The crossings with each label replaced by the least label the union
    pairs glue it to, and free_loops plus the glued classes of `labels`
    that no crossing meets, which close into free loops."""
    uf = _UnionFind(labels)
    for a, b in unions:
        uf.union(a, b)
    root = {a: uf.find(a) for a in uf.parent}
    out = [tuple([root.get(a, a) for a in c]) for c in crossings]
    live = {a for c in out for a in c}
    return out, free_loops + len(set(root.values()) - live)


def _delete(crossings, victims: dict[int, tuple[tuple[int, int], ...]],
            free_loops: int):
    """Delete the victim crossings from raw tuples, fusing arcs along the
    given slot pairings: victims maps crossing index -> pairs of slots
    whose arcs join up when the crossing is removed (`_glued`).

    Smoothings and Reidemeister moves run here, on raw tuples.  A glued
    class keeps its least label, so labels keep the order that numbering
    them after each move gives, and the move finders see a tuple turned by
    two slots as the same crossing.  So one `normalize_under_slots` after
    the moves gives the Diagram that one after each move gives: it turns a
    component by the first dart of its least arc, which no turn moves
    unless both ends of that arc lie at one crossing, as in no simplified
    planar diagram."""
    unions = [(crossings[ci][s], crossings[ci][t])
              for ci, pairs in victims.items() for s, t in pairs]
    survivors = [c for ci, c in enumerate(crossings) if ci not in victims]
    return _glued(survivors, [a for ci in victims for a in crossings[ci]], unions,
                  free_loops)


def _smoothing(d: Diagram, ci: int, bit: int):
    return _delete(d.crossings, {ci: RES0_PAIRS if bit == 0 else RES1_PAIRS},
                   d.free_loops)


def smooth_crossing(d: Diagram, ci: int, bit: int) -> Diagram:
    """Replace one crossing by its 0- or 1-resolution."""
    return normalize_under_slots(*_smoothing(d, ci, bit))


def _find_r1(crossings):
    for ci, c in enumerate(crossings):
        for s in range(4):
            if c[s] == c[(s + 1) % 4]:
                # loop arc occupies slots s, s+1; strand passes through the rest
                return {ci: (((s + 3) % 4, s), ((s + 1) % 4, (s + 2) % 4))}
    return None


def _find_r2(crossings):
    other, first = _dart_table(crossings)
    # arcs joining two crossings c1 < c2, as their slots there, in label order
    by_pair: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a in sorted(first):
        x = first[a]
        y = other[x]
        if x >> 2 != y >> 2:
            by_pair.setdefault((x >> 2, y >> 2), []).append((x & 3, y & 3))
    for (c1, c2), slots in sorted(by_pair.items()):
        for (x1, x2), (y1, y2) in combinations(slots, 2):
            # adjacent at both crossings and both under or both over there:
            # a Reidemeister-2 bigon, not a clasp
            if (x1 - y1) % 2 and (x2 - y2) % 2 and x1 % 2 == x2 % 2:
                return {c1: ((x1, x1 ^ 2), (y1, y1 ^ 2)),
                        c2: ((x2, x2 ^ 2), (y2, y2 ^ 2))}
    return None


def _simplified(crossings, free_loops: int):
    while True:
        victims = _find_r1(crossings) or _find_r2(crossings)
        if victims is None:
            return crossings, free_loops
        crossings, free_loops = _delete(crossings, victims, free_loops)


def simplify_greedy(d: Diagram) -> Diagram:
    """Apply Reidemeister-1 kink and Reidemeister-2 bigon removals until none
    applies.  Link type is preserved; the result carries natural orientation
    (d itself when no move applies)."""
    crossings, free_loops = _simplified(d.crossings, d.free_loops)
    if crossings is d.crossings:
        return d
    return normalize_under_slots(crossings, free_loops)


def simplified_smoothing(d: Diagram, ci: int, bit: int) -> Diagram:
    """`simplify_greedy(smooth_crossing(d, ci, bit))`, a child of a QA node,
    formed on raw tuples into one Diagram."""
    return normalize_under_slots(*_simplified(*_smoothing(d, ci, bit)))


def canonical_key(d: Diagram):
    """Deterministic key of the unoriented diagram, the same for any order
    of its crossings and, for knots, any relabeling of its arcs; used for
    memoization (collisions impossible, misses cheap).

    The key is the least, over a strand walk from each of the 4n darts, of
    the sorted crossing tuples relabelled by rank (the walked arcs in walk
    order, the others after them by label), each tuple or its turn by two
    slots, whichever is smaller.  Each strand cycle is walked once and a
    start's ranks are offsets along it.  A start's least tuple begins with
    1 exactly when its first arc sits at slot 0 or 2 of a crossing (as at
    every start at slot 0); only starts that tie on that tuple are ranked
    in full."""
    if d.n == 0:
        return (d.free_loops,)
    other, labels, crossings = d._other, d._labels, d.crossings
    seen = bytearray(4 * d.n)
    least, ties = None, []
    for s in range(4 * d.n):
        if seen[s]:
            continue
        walk = _strand(other, s)
        m = len(walk)
        # ranks from the start at s; the arcs off the walk follow it by label
        rank0 = [0] * (d.arc_count + 1)
        for i, y in enumerate(walk, 1):
            seen[y] = 1
            rank0[labels[y]] = i
        off = [a for a in range(1, d.arc_count + 1) if not rank0[a]]
        for i, a in enumerate(off, m + 1):
            rank0[a] = i
        for p, x in enumerate(walk):
            # the start's least tuple after its leading 1, if it has one
            top = None
            for z in (x, other[x]):
                if not z & 1:
                    c, k = crossings[z >> 2], z & 3
                    t = [(r - 1 - p) % m + 1 if r <= m else r
                         for r in (rank0[c[k + 1]], rank0[c[k ^ 2]], rank0[c[k ^ 3]])]
                    if top is None or t < top:
                        top = t
            if top is None or (ties and top > least):
                continue
            if not ties or top < least:
                least, ties = top, []
            ties.append((walk[p:] + walk[:p], rank0))
    keys = []
    for walk, rank in ties:
        rank = rank[:]
        for i, y in enumerate(walk, 1):
            rank[labels[y]] = i
        tuples = []
        for a, b, c, e in crossings:
            t = (rank[a], rank[b], rank[c], rank[e])
            r = (rank[c], rank[e], rank[a], rank[b])
            tuples.append(t if t < r else r)
        tuples.sort()
        keys.append(tuple(tuples))
    return (min(keys), d.free_loops)


# ---------------------------------------------------------------------------
# Combinatorial map: faces of the projection
# ---------------------------------------------------------------------------

class PlanarMap:
    """Faces of the 4-valent projection, from the rotation system the PD
    tuples define (slots listed counterclockwise).

    Darts are ints, as in the dart table.  faces[i] is a tuple of darts;
    face_of[x], for dart x = 4 * c + s, is the face containing the corner
    between slots s-1 and s at crossing c, which is also the face to the
    left of a strand entering the crossing at slot s.
    """

    __slots__ = ("faces", "face_of")

    def __init__(self, faces: tuple, face_of: list):
        self.faces, self.face_of = faces, face_of

    def arc_faces(self, d: Diagram, arc: int) -> tuple[int, int]:
        """The two faces flanking an arc (equal for nugatory situations)."""
        x = d._first[arc]
        return (self.face_of[x], self.face_of[(x & ~3) | ((x + 1) & 3)])


def planar_map(d: Diagram) -> PlanarMap:
    """Trace faces of the diagram's combinatorial map.

    Raises NonPlanarTrace when the face count violates the Euler formula for
    a genus 0 embedding (computed per connected piece of the projection).
    The map is kept on d, so parsing, the Goeritz matrix and the
    oriented-resolution filling of one diagram share one trace.
    """
    if d._map is not None:
        return d._map
    face_of = [-1] * (4 * d.n)
    faces = []
    for start in range(4 * d.n):
        if face_of[start] >= 0:
            continue
        orbit = []
        x = start
        while face_of[x] < 0:
            face_of[x] = len(faces)
            orbit.append(x)
            y = d._other[x]
            x = (y & ~3) | ((y + 1) & 3)
        faces.append(tuple(orbit))
    if d.n:
        # each connected piece of the projection is traced on its own sphere
        expected = d.n + 2 * len(d.pd_components())
        if len(faces) != expected:
            raise NonPlanarTrace(
                f"face count {len(faces)} != {expected}; PD code is not planar")
    d._map = PlanarMap(tuple(faces), face_of)
    return d._map


# ---------------------------------------------------------------------------
# Frontier state sum
# ---------------------------------------------------------------------------
# Khovanov's graded Euler characteristic, a state sum over the 2^n states,
# runs as a dynamic program over the crossings in PD order
# (`_frontier_steps`): the frontier is the set of arcs met exactly once so
# far, and every partial state is summarized by its key, the connectivity
# labelling of the frontier arcs with labels in order of first occurrence.
# Each crossing extends every key by its two smoothings (`_smooth`), which
# also count the components they close.  The walk reads the PD code alone,
# not `resolve`'s dart table.  Its one sum (`_euler_state_sum`) checks the
# cells of every kh, Khr and twisted complex, and `khovanov.state_sum_det`
# reads the determinant off it at q = i.

def _frontier_steps(d: Diagram):
    """The frontier walk, one step per crossing in PD order: (tail, kept,
    joins).  A key extended by `tail` labels the positions of the
    crossing's walk, the frontier in order and then the arcs first met
    here; `kept` lists the positions of the frontier after the crossing,
    and joins[bit] the position pairs that the crossing's bit-smoothing
    joins (RES0_PAIRS for bit 0 and RES1_PAIRS for bit 1, as in `resolve`)."""
    frontier: list[int] = []
    for c in d.crossings:
        pos = {a: i for i, a in enumerate(frontier)}
        fresh = [a for a in dict.fromkeys(c) if a not in pos]
        pos.update((a, len(frontier) + j) for j, a in enumerate(fresh))
        tail = tuple(range(len(frontier), len(pos)))
        frontier = ([a for a in frontier if a not in c]
                    + [a for a in fresh if c.count(a) == 1])
        kept = [pos[a] for a in frontier]
        joins = [[(pos[c[i]], pos[c[j]]) for i, j in pairs]
                 for pairs in (RES0_PAIRS, RES1_PAIRS)]
        yield tail, kept, joins


def _smooth(key: tuple, tail: tuple, joins: list, kept: list) -> tuple[tuple, int]:
    """The key that a smoothing with `joins` makes of `key` (see
    `_frontier_steps`), and the count of components it closes, those with
    no arc left on the frontier."""
    lab = list(key + tail)
    for i, j in joins:
        a, b = lab[i], lab[j]
        if a != b:
            lab = [a if x == b else x for x in lab]
    canon: dict[int, int] = {}
    new = tuple([canon.setdefault(lab[i], len(canon)) for i in kept])
    return new, len(set(lab)) - len(canon)


def _euler_state_sum(d: Diagram) -> dict[int, int]:
    """Khovanov's graded Euler characteristic of the unreduced complex, the
    sum over the 2^n states of (-1)^w q^w (q + q^-1)^k, w the state's count
    of 1-smoothings and k its circle count, free loops included, in
    cubekh's internal grading (q = k - 2|S| + w), as {q: coefficient}
    without zero coefficients; it reads neither `resolve` nor the placement.

    A key's polynomial is one integer, its value times q^(2n+1) at q = 2^W
    in signed base-2^W digits: a 1-smoothing multiplies it by -q, a closed
    circle by (1 + q^2)/q.  A circle takes two of the four slots of some
    crossing, so a state has at most 2n circles and every exponent is >= 1
    when a circle divides by q.  A key's coefficients sum in absolute value
    to at most 2^t * 2^(closed circles) <= 2^(3n), below 2^(W-1) for
    W = 3n + 4, so no digit spills into the next.

    The sum is walked once per diagram and kept on it; each caller gets a
    copy."""
    if d._chi is not None:
        return dict(d._chi)
    n = d.n
    W = 3 * n + 4
    keys: dict[tuple, int] = {(): 1 << W * (2 * n + 1)}
    for tail, kept, joins in _frontier_steps(d):
        out: dict[tuple, int] = {}
        for key, x in keys.items():
            for bit, smoothing in enumerate(joins):
                new, closed = _smooth(key, tail, smoothing, kept)
                y = -(x << W) if bit else x
                for _ in range(closed):
                    y = (y + (y << 2 * W)) >> W
                out[new] = out.get(new, 0) + y
        keys = out
    x, e = keys[()], -(2 * n + 1)
    half, mask = 1 << (W - 1), (1 << W) - 1
    poly: dict[int, int] = {}
    while x:
        poly[e] = c = ((x + half) & mask) - half
        x = (x - c) >> W
        e += 1
    poly = _times_circles(poly, d.free_loops)
    d._chi = {e: c for e, c in sorted(poly.items()) if c}
    return dict(d._chi)


def _times_circles(poly: dict, k: int) -> dict:
    """poly * (q + q^-1)^k, polynomials as {exponent: coefficient}."""
    for _ in range(k):
        out: dict[int, int] = {}
        for e, c in poly.items():
            out[e - 1] = out.get(e - 1, 0) + c
            out[e + 1] = out.get(e + 1, 0) + c
        poly = out
    return poly
