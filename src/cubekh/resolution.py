"""A diagram's complete resolutions, flat and in bytes.

`resolve` walks the circles of one state over the diagram's dart table
(see `diagram`), and `resolve_from` derives a state of the cube from its
lower neighbour by the one merge or split at a crossing; both make the one
`ResolvedState` form.  `diagram` exports `ResolvedState` and `resolve` as
its own.  They are kept apart from `diagram.py` so that no source file
grows past `khovanov.py`: without a bytecode cache, compiling the largest
file sets the peak RSS of a fresh process.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import LengthMismatch, SizeBudgetExceeded

if TYPE_CHECKING:
    from .diagram import Diagram


class ResolvedState(NamedTuple):
    """A full resolution of a diagram, flat, in bytes: `arc_to_circle[a]`
    is the circle of arc a (entry 0, UNSET, is no arc's), `least_arcs[c]`
    the least arc of circle c, and `n_circles` counts the free loops too,
    numbered after the circles with arcs.  `resolve` and `resolve_from`
    make it alike."""

    arc_to_circle: bytes
    least_arcs: bytes
    n_circles: int

    @property
    def circles(self) -> tuple[tuple[int, ...], ...]:
        """Each circle's arcs, ascending, and () for each free loop."""
        arcs: list = [[] for _ in self.least_arcs]
        for a in range(1, len(self.arc_to_circle)):
            arcs[self.arc_to_circle[a]].append(a)
        loops = self.n_circles - len(arcs)
        return tuple(map(tuple, arcs)) + ((),) * loops


# a resolved state holds circle numbers and arc labels as bytes: 2n arcs lie
# on at most 2n circles, so with n <= 127 every number fits below UNSET
MAX_RESOLVE_CROSSINGS = 127
UNSET = 255


def _circle_arcs(other: list[int], labels: list[int], bits: int, x: int) -> list[int]:
    """The arcs of the circle through dart x in the state whose crossing t
    has resolution bit (bits >> t) & 1: along an arc from dart x to
    other[x] = y, then across y's crossing to the dart y ^ 1 (0-smoothing)
    or y ^ 3 (1-smoothing), until the walk is back at x."""
    arcs, start = [], x
    while True:
        arcs.append(labels[x])
        y = other[x]
        x = y ^ 3 if bits >> (y >> 2) & 1 else y ^ 1
        if x == start:
            return arcs


def resolve(d: Diagram, index: Sequence[int]) -> ResolvedState:
    """Resolve every crossing of d according to the bit-vector index.

    Each circle is one dart walk (`_circle_arcs`).  Walks start at the
    least arc not yet on a circle, so circles come out numbered by their
    least arc; free loops count as extra circles, numbered last.  The state
    is flat (`ResolvedState`): the circle of each arc and the least arc of
    each circle, with no per-circle arc lists.  A bit that is not 0 or 1
    raises LengthMismatch, and a diagram of more than
    MAX_RESOLVE_CROSSINGS crossings SizeBudgetExceeded, as its circle
    numbers would not fit in bytes.  No circle is marked here, but the
    first walk starts at arc 1, so circle 0 is the circle through arc 1
    (the first free loop when d has no arcs) in every state: the circle
    that every reduced complex marks.  The cube resolves its all-0 state
    here and derives the others (`resolve_from`).
    """
    if len(index) != d.n:
        raise LengthMismatch(f"expected {d.n} bits, got {len(index)}")
    try:
        if bytes(index).translate(None, b"\0\1"):
            raise ValueError
    except (TypeError, ValueError):
        raise LengthMismatch("resolution bits must be 0 or 1") from None
    if d.n > MAX_RESOLVE_CROSSINGS:
        raise SizeBudgetExceeded(f"{d.n} crossings exceed the limit of "
                                 f"{MAX_RESOLVE_CROSSINGS} for a resolved state")
    bits = sum(b << t for t, b in enumerate(index))
    other, labels, first = d._other, d._labels, d._first
    arc_to_circle = bytearray((UNSET,)) * (d.arc_count + 1)
    least = bytearray()
    for a in range(1, d.arc_count + 1):
        if arc_to_circle[a] == UNSET:
            for x in _circle_arcs(other, labels, bits, first[a]):
                arc_to_circle[x] = len(least)
            least.append(a)
    return ResolvedState(bytes(arc_to_circle), bytes(least), len(least) + d.free_loops)


# translate tables made on first use: _MERGED[b << 8 | a] renumbers the
# circles after a < b merge, _SPLIT[p] after a new circle p comes in; circle
# numbers stay below 254, which bounds both
_MERGED: dict[int, bytes] = {}
_SPLIT: dict[int, bytes] = {}


def resolve_from(d: Diagram, parent: ResolvedState, bits: int) -> ResolvedState:
    """`resolve` at the bit mask `bits` (bit t for crossing t), derived
    from `parent`, the state at bits & (bits - 1), by the change at the
    lowest set bit t: crossing t goes from its 0- to its 1-smoothing.

    When slots 0 and 2 of crossing t lie on circles a < b, they merge into
    a circle whose least arc is a's, so it keeps the number a; b's least
    arc drops out and the circles above b move down by one.  When they lie
    on one circle a, it splits: the new circle is the piece through slot 0,
    or the piece through slot 1 when slot 0's holds a's least arc.  Its
    least arc m comes in at its bisect position p among the least arcs, the
    circles at p and above move up by one, and its arcs get p.  When slot
    0's piece holds a's least arc and slot 1 too, as only on a non-planar
    diagram, the circle does not split and the state is `parent`."""
    t = (bits & -bits).bit_length() - 1
    of, least = parent.arc_to_circle, parent.least_arcs
    c0, c1, c2, _ = d.crossings[t]
    a, b = of[c0], of[c2]
    if a != b:
        if b < a:
            a, b = b, a
        table = _MERGED.get(b << 8 | a)
        if table is None:
            table = _MERGED[b << 8 | a] = (bytes(range(b)) + bytes((a,))
                                           + bytes(range(b, UNSET - 1)) + bytes((UNSET,)))
        return ResolvedState(of.translate(table), least[:b] + least[b + 1:],
                             parent.n_circles - 1)
    piece = _circle_arcs(d._other, d._labels, bits, 4 * t)
    m = min(piece)
    if m == least[a]:
        if c1 in piece:
            return parent
        piece = _circle_arcs(d._other, d._labels, bits, 4 * t + 1)
        m = min(piece)
    p = bisect_left(least, m)
    table = _SPLIT.get(p)
    if table is None:
        table = _SPLIT[p] = (bytes(range(p)) + bytes(range(p + 1, UNSET + 1))
                             + bytes((UNSET,)))
    out = bytearray(of.translate(table))
    for x in piece:
        out[x] = p
    return ResolvedState(bytes(out), least[:p] + bytes((m,)) + least[p:],
                         parent.n_circles + 1)
