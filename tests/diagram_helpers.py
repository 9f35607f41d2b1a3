"""Diagram builders that only tests use: the connected sum of two
diagrams, which the determinant, branched-cover and diagram tests use to
build composite knots and to add Reidemeister-1 kinks; the mirror image,
the oracle for rankcheck's mirror duality; and an arc marking carried to
the relabelling `acceptance._relabelled` makes."""

from cubekh.diagram import ArcMarking, Diagram
from cubekh.errors import MalformedPD


def connect_sum(d1: Diagram, d2: Diagram, arc1: int = 1, arc2: int = 1) -> Diagram:
    """Connected sum splicing arc1 of d1 with arc2 of d2 (orientations chain)."""
    if not d1.arc_count or not d2.arc_count:
        raise MalformedPD("connect_sum requires diagrams with crossings")
    shift = d1.arc_count
    labels = ([a for c in d1.crossings for a in c]
              + [a + shift for c in d2.crossings for a in c])
    # splice: tail(arc1) -> head(arc2') and tail(arc2') -> head(arc1)
    h1, h2, off = d1.arc_head[arc1], d2.arc_head[arc2], 4 * d1.n
    labels[h2 + off] = arc1                     # tail of arc1 .. head of arc2'
    labels[d2._other[h2] + off] = arc2 + shift  # tail of arc2' .. head of arc1
    labels[h1] = arc2 + shift
    labels[d1._other[h1]] = arc1
    # relabel to consecutive integers
    relabel = {a: i + 1 for i, a in enumerate(sorted(set(labels)))}
    out = [tuple(relabel[a] for a in labels[x:x + 4])
           for x in range(0, len(labels), 4)]
    return Diagram(out, free_loops=d1.free_loops + d2.free_loops)


def mirror(d: Diagram) -> Diagram:
    """Swap over/under at every crossing, preserving component orientations."""
    new_crossings = []
    shift = []  # old slot s sits at new slot (s + shift) % 4
    for ci, c in enumerate(d.crossings):
        if d.arc_head[c[1]] == 4 * ci + 1:
            # over-strand runs slot1 -> slot3; it becomes the incoming under
            new_crossings.append((c[1], c[2], c[3], c[0]))
            shift.append(3)
        else:
            new_crossings.append((c[3], c[0], c[1], c[2]))
            shift.append(1)
    m = Diagram(new_crossings, free_loops=d.free_loops)
    flags = []
    for comp in m.components:
        a = min(comp)
        x = d.arc_head[a]
        ci = x >> 2
        flags.append(1 if m.arc_head[a] == 4 * ci + (x + shift[ci]) % 4 else -1)
    return Diagram(new_crossings, free_loops=d.free_loops, orientation=flags)


def relabelled_marking(m: ArcMarking, a: int) -> ArcMarking:
    """m on the relabelling that sends arc a to arc 1 (`acceptance._relabelled`):
    new arc y is old arc ((y + a - 2) mod 2n) + 1, so new bit y - 1 is old
    bit (y + a - 2) mod 2n."""
    return ArcMarking(m.bits[a - 1:] + m.bits[:a - 1])
