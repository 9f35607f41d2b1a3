"""Reference versions of the diagram layer, kept as oracles for the dart
table in `cubekh.diagram`.

Each one is the form the dart table replaced: an incidence table mapping
each arc to its two (crossing, slot) pairs, in the order they appear in
the PD code, and strands and faces walked one incidence at a time.
`trace_components`, `normalize_under_slots`, `canonical_key` and
`planar_faces` read only the crossing tuples (and the free loop count).

`smooth_crossing` and `simplify_greedy` are the per-move path that forming
a child on raw tuples replaced: every smoothing and every Reidemeister
move relabels its arcs 1, 2, ... and builds a normalized Diagram.
"""

from cubekh.diagram import Diagram
from cubekh.errors import DisconnectedTrace, MalformedPD


def incidences(crossings) -> dict:
    """arc -> its (crossing, slot) pairs in PD order."""
    inc: dict[int, list[tuple[int, int]]] = {}
    for ci, c in enumerate(crossings):
        for s, a in enumerate(c):
            inc.setdefault(a, []).append((ci, s))
    return dict(sorted(inc.items()))


def other_incidence(inc: dict, arc: int, at: tuple[int, int]) -> tuple[int, int]:
    a, b = inc[arc]
    if at == a:
        return b
    if at == b:
        return a
    raise MalformedPD(f"incidence {at} not on arc {arc}")


def trace_components(crossings):
    """Walk strands, returning components and natural (head, tail) per arc."""
    crossings = [tuple(c) for c in crossings]
    if not crossings:
        return (), {}
    inc = incidences(crossings)
    arc_count = 2 * len(crossings)
    visited: set[int] = set()
    components: list[tuple[int, ...]] = []
    natural: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
    for start in range(1, arc_count + 1):
        if start in visited:
            continue
        arc = start
        head = inc[arc][0]
        path: list[tuple[int, tuple[int, int]]] = []
        while True:
            path.append((arc, head))
            ci, s = head
            exit_inc = (ci, s ^ 2)
            nxt = crossings[ci][s ^ 2]
            head = other_incidence(inc, nxt, exit_inc)
            arc = nxt
            if arc == start and head == inc[start][0]:
                break
            if len(path) > arc_count:
                raise DisconnectedTrace("strand tracing does not close up")
        arcs_in_path = [a for a, _ in path]
        if len(set(arcs_in_path)) != len(arcs_in_path):
            raise DisconnectedTrace("strand tracing repeats an arc")
        under_in = sum(1 for _, (ci, s) in path if s == 0)
        under_out = sum(1 for _, (ci, s) in path if s == 2)
        if under_in and under_out:
            raise DisconnectedTrace(
                "under-strand directions are inconsistent along a component")
        reverse = under_out > 0
        for a, h in path:
            t = other_incidence(inc, a, h)
            natural[a] = (t, h) if reverse else (h, t)
        visited.update(arcs_in_path)
        components.append(tuple(sorted(arcs_in_path)))
    components.sort(key=min)
    return tuple(components), natural


def arc_heads_and_signs(crossings, orientation=None):
    """arc_head and crossing signs from `trace_components`, as `Diagram`
    defines them."""
    components, natural = trace_components(crossings)
    orientation = orientation or [1] * len(components)
    arc_head = {}
    for comp, flag in zip(components, orientation):
        for a in comp:
            head, tail = natural[a]
            arc_head[a] = head if flag == 1 else tail
    signs = []
    for ci, c in enumerate(crossings):
        u = 1 if arc_head[c[0]] == (ci, 0) else -1
        o = 1 if arc_head[c[1]] == (ci, 1) else -1
        signs.append(u * o)
    return components, arc_head, tuple(signs)


def normalize_under_slots(crossings, free_loops: int = 0) -> Diagram:
    """Rotate any tuple by two slots so each under-strand is entered at
    slot 0 along one consistent direction per component."""
    crossings = [tuple(c) for c in crossings]
    inc: dict[int, list[tuple[int, int]]] = {}
    for ci, c in enumerate(crossings):
        for s, a in enumerate(c):
            inc.setdefault(a, []).append((ci, s))
    for a, incs in inc.items():
        if len(incs) != 2:
            raise MalformedPD(f"arc {a} appears {len(incs)} times")

    def other(arc, at):
        x, y = inc[arc]
        return y if at == x else x

    rotate = set()
    visited = set()
    for start in sorted(inc):
        if start in visited:
            continue
        arc, head = start, inc[start][0]
        while True:
            visited.add(arc)
            ci, s = head
            if s == 2:
                rotate.add(ci)
            nxt = crossings[ci][s ^ 2]
            head = other(nxt, (ci, s ^ 2))
            arc = nxt
            if arc == start and head == inc[start][0]:
                break
    fixed = [((c[2], c[3], c[0], c[1]) if ci in rotate else c)
             for ci, c in enumerate(crossings)]
    return Diagram(fixed, free_loops=free_loops)


def canonical_key(d):
    """Least relabelled crossing multiset over every strand walk start."""
    n = d.n
    if n == 0:
        return (d.free_loops,)
    inc = incidences(d.crossings)
    best = None
    for start in range(1, d.arc_count + 1):
        for hidx in (0, 1):
            order: dict[int, int] = {}
            arc, head = start, inc[start][hidx]
            while True:
                if arc not in order:
                    order[arc] = len(order) + 1
                ci, s = head
                nxt = d.crossings[ci][s ^ 2]
                head = other_incidence(inc, nxt, (ci, s ^ 2))
                arc = nxt
                if arc in order and head == inc[start][hidx] and arc == start:
                    break
                if len(order) == d.arc_count and arc in order:
                    break
            for a in range(1, d.arc_count + 1):
                if a not in order:
                    order[a] = len(order) + 1
            tuples = []
            for c in d.crossings:
                t = tuple(order[a] for a in c)
                r = (t[2], t[3], t[0], t[1])
                tuples.append(min(t, r))
            key = (tuple(sorted(tuples)), d.free_loops)
            if best is None or key < best:
                best = key
    return best


def planar_faces(d):
    """(faces, face_of) of the combinatorial map, traced dart by dart."""
    darts = [(ci, s) for ci in range(d.n) for s in range(4)]
    theta = {}
    for a, incs in incidences(d.crossings).items():
        theta[incs[0]] = incs[1]
        theta[incs[1]] = incs[0]
    face_of = {}
    faces = []
    for start in darts:
        if start in face_of:
            continue
        orbit = []
        x = start
        while True:
            orbit.append(x)
            face_of[x] = len(faces)
            ci, s = theta[x]
            x = (ci, (s + 1) % 4)
            if x == start:
                break
        faces.append(tuple(orbit))
    return tuple(faces), face_of


def fuse_and_relabel(crossings, labels, unions, free_loops: int = 0) -> Diagram:
    """Glue arc labels along the union pairs, close the glued classes that
    no crossing meets into free loops, and number the others 1, 2, ... by
    least label."""
    root = {a: a for a in labels}

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for a, b in unions:
        ra, rb = sorted((find(a), find(b)))
        root[rb] = ra
    live = sorted({find(a) for c in crossings for a in c})
    loops = len({find(a) for a in labels}) - len(live)
    number = {r: i for i, r in enumerate(live, 1)}
    out = [tuple(number[find(a)] for a in c) for c in crossings]
    return normalize_under_slots(out, free_loops + loops)


def rebuild(d, victims) -> Diagram:
    """Delete the victim crossings (index -> slot pairs whose arcs join)."""
    unions = [(d.crossings[ci][s], d.crossings[ci][t])
              for ci, pairs in victims.items() for s, t in pairs]
    survivors = [c for ci, c in enumerate(d.crossings) if ci not in victims]
    return fuse_and_relabel(survivors, range(1, d.arc_count + 1), unions,
                            d.free_loops)


def smooth_crossing(d, ci: int, bit: int) -> Diagram:
    return rebuild(d, {ci: ((0, 1), (2, 3)) if bit == 0 else ((0, 3), (1, 2))})


def find_r1(d):
    for ci, c in enumerate(d.crossings):
        for s in range(4):
            if c[s] == c[(s + 1) % 4]:
                return {ci: (((s + 3) % 4, s), ((s + 1) % 4, (s + 2) % 4))}
    return None


def find_r2(d):
    by_pair: dict = {}
    for a, ((c1, s1), (c2, s2)) in incidences(d.crossings).items():
        if c1 != c2:
            by_pair.setdefault((c1, c2), []).append((s1, s2))
    for (c1, c2), slots in sorted(by_pair.items()):
        for i in range(len(slots)):
            for j in range(i + 1, len(slots)):
                (sx1, sx2), (sy1, sy2) = slots[i], slots[j]
                if (sx1 - sy1) % 4 not in (1, 3) or (sx2 - sy2) % 4 not in (1, 3):
                    continue
                if sx1 % 2 != sx2 % 2:
                    continue
                return {c1: ((sx1, sx1 ^ 2), (sy1, sy1 ^ 2)),
                        c2: ((sx2, sx2 ^ 2), (sy2, sy2 ^ 2))}
    return None


def simplify_greedy(d) -> Diagram:
    """Reidemeister-1 kinks first, then Reidemeister-2 bigons, one rebuilt
    Diagram per move."""
    while True:
        victims = find_r1(d) or find_r2(d)
        if victims is None:
            return d
        d = rebuild(d, victims)
