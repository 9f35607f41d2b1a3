"""Branched double cover arithmetic from checkerboard colorings: Goeritz
matrices, link determinants, first homology, the determinant/reduced-rank
inequality, quasi-alternating certification, and the oriented-resolution
filling check.

The Goeritz determinant and the Kauffman bracket, read at q = i off the
graded Euler characteristic's frontier state sum (`state_sum_det`), give
two fully independent routes to det(L); `checked_det` is the one place
they are compared, so every det job also checks that sum.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .diagram import (
    RES0_PAIRS,
    RES1_PAIRS,
    Diagram,
    PlanarMap,
    canonical_key,
    planar_map,
    resolve,
    simplified_smoothing,
    simplify_greedy,
)
from .errors import InternalInconsistency, NonPlanarTrace
from .khovanov import khr_ranks, state_sum_det
from .linalg import AbelianGroup, cokernel_group, det_bareiss


# ---------------------------------------------------------------------------
# Goeritz matrix and H1 of the double branched cover
# ---------------------------------------------------------------------------

class GoeritzData(NamedTuple):
    """Reduced Goeritz matrix of a PD diagram, the block sum over the
    projection's pieces with one white face deleted per piece, and
    `pieces`, the count of the projection's pieces and the free loops.  The
    checkerboard coloring it is read off is not kept."""

    matrix: tuple
    pieces: int

    def det(self) -> int:
        """det(L): 0 for a split diagram, else |det| of the matrix (1 for
        the unknot and the empty diagram, whose matrix is 0x0)."""
        if self.pieces > 1:
            return 0
        return abs(det_bareiss(self.matrix))


def _face_parities(d: Diagram, pm: PlanarMap, label, clash: str) -> list[int]:
    """XOR of label(arc) over the arcs crossed on a walk from the first face
    of each projection piece, found by a search over faces; a face reached
    with two different values raises NonPlanarTrace(clash)."""
    nfaces = len(pm.faces)
    parity = [-1] * nfaces
    adj: list[list] = [[] for _ in range(nfaces)]
    for arc in range(1, d.arc_count + 1):
        f1, f2 = pm.arc_faces(d, arc)
        bit = label(arc)
        adj[f1].append((f2, bit))
        adj[f2].append((f1, bit))
    for start in range(nfaces):
        if parity[start] != -1:
            continue
        parity[start] = 0
        stack = [start]
        while stack:
            f = stack.pop()
            for g, bit in adj[f]:
                want = parity[f] ^ bit
                if parity[g] == -1:
                    parity[g] = want
                    stack.append(g)
                elif parity[g] != want:
                    raise NonPlanarTrace(clash)
    return parity


def goeritz(d: Diagram) -> GoeritzData:
    """Goeritz matrix of the white regions, read off the diagram's one
    planar map: the block sum of the pieces' matrices in order of their
    least crossing, with the first white face of each piece deleted.

    White is the larger color class of each piece (a tie goes to the class
    of the piece's first face, where the parity walk starts at 0), which
    keeps the matrix small and matches the 1x1 matrix of a kink.
    """
    if d.n == 0:
        return GoeritzData((), d.free_loops)
    pieces = d.pd_components()
    pm = planar_map(d)
    # 2-coloring of faces: adjacent faces across an arc get opposite colors
    colors = _face_parities(d, pm, lambda arc: 1,
                            "projection is not checkerboard colorable")
    piece_of = {ci: k for k, piece in enumerate(pieces) for ci in piece}
    face_piece = [piece_of[orbit[0] >> 2] for orbit in pm.faces]
    tally = Counter(zip(face_piece, colors))
    white = [int(tally[k, 1] > tally[k, 0]) for k in range(len(pieces))]
    # the white faces piece by piece, the ones to delete included
    white_faces = sorted((f for f, c in enumerate(colors) if c == white[face_piece[f]]),
                         key=lambda f: (face_piece[f], f))
    w_index = {f: i for i, f in enumerate(white_faces)}
    size = len(white_faces)
    pre = [[0] * size for _ in range(size)]
    for ci in range(d.n):
        # corners[s]: the face at the corner between slots s-1 and s
        corners = pm.face_of[4 * ci:4 * ci + 4]
        whites = [s for s in range(4) if corners[s] in w_index]
        if len(whites) != 2 or (whites[1] - whites[0]) != 2:
            raise NonPlanarTrace("crossing does not see two opposite white corners")
        # corners (3,0)&(1,2) are the pair the under-strand sweeps toward the
        # over-strand; sign convention is global-flip safe for |det|
        eta = 1 if whites == [0, 2] else -1
        fi, fj = corners[whites[0]], corners[whites[1]]
        if fi != fj:
            i, j = w_index[fi], w_index[fj]
            pre[i][j] -= eta
            pre[j][i] -= eta
            pre[i][i] += eta
            pre[j][j] += eta
    # the white faces after the first of their piece
    keep = [i for i in range(1, size)
            if face_piece[white_faces[i]] == face_piece[white_faces[i - 1]]]
    reduced = tuple(tuple(pre[i][j] for j in keep) for i in keep)
    return GoeritzData(reduced, len(pieces) + d.free_loops)


def link_det(d: Diagram) -> int:
    """det(L) from the Goeritz matrix; split diagrams have det 0."""
    return goeritz(d).det()


def checked_det(d: Diagram, max_crossings: int | None = None) -> int:
    """det(L) by the frontier state sum, checked against the Goeritz
    determinant (InternalInconsistency if they differ).  The state sum runs
    first, so a diagram over the cube budget is refused before any Goeritz
    work."""
    ds = state_sum_det(d, max_crossings=max_crossings)
    dg = link_det(d)
    if dg != ds:
        raise InternalInconsistency(f"det oracles disagree: {dg} vs {ds}")
    return ds


def h1_sigma(d: Diagram) -> AbelianGroup:
    """H1 of the double branched cover: cokernel of the Goeritz matrix, the
    block sum of the pieces' matrices, plus one S^2 x S^1 summand per piece
    or free loop past the first."""
    g = goeritz(d)
    grp = cokernel_group(g.matrix)
    return AbelianGroup(grp.invariant_factors, grp.free_rank + max(g.pieces - 1, 0))


# ---------------------------------------------------------------------------
# Rank inequality
# ---------------------------------------------------------------------------

class RankInequalityReport(NamedTuple):
    det: int
    khr_mirror_rank: int
    holds: bool
    equality: bool


def rank_inequality_check(d: Diagram, max_crossings: int | None = None) -> RankInequalityReport:
    """det(L) <= total reduced rank of the mirror diagram, with both det
    oracles compared.  The rank is read off d's own cube: the mirror swaps
    the smoothings at every crossing and keeps the circles, so its complex
    is the dual of d's (Khovanov, *A categorification of the Jones
    polynomial*) and over GF(2) its Khr at cube weight w is d's at n - w,
    with the same total."""
    det = checked_det(d, max_crossings=max_crossings)
    rk = sum(khr_ranks(d, max_crossings=max_crossings).values())
    return RankInequalityReport(det, rk, det <= rk, det == rk)


# ---------------------------------------------------------------------------
# Quasi-alternating certification
# ---------------------------------------------------------------------------

class QACertificate(NamedTuple):
    """Certificate tree: either an unknot leaf or a crossing whose two
    resolutions are certified and determinant-additive."""

    diagram: Diagram
    det: int
    crossing: int | None = None
    children: tuple = ()

    @property
    def is_leaf(self) -> bool:
        return self.crossing is None

    def to_json(self) -> dict:
        """The certificate as JSON-ready dicts: each distinct node (one
        object, however many parents the search shared it among) is
        rendered once, and its dict is listed at every occurrence."""
        rendered: dict = {}

        def render(node: QACertificate) -> dict:
            out = rendered.get(id(node))
            if out is None:
                out = rendered[id(node)] = {
                    "pd": [list(c) for c in node.diagram.crossings],
                    "free_loops": node.diagram.free_loops,
                    "det": node.det}
                if not node.is_leaf:
                    out["crossing"] = node.crossing
                    out["children"] = [render(c) for c in node.children]
            return out

        return render(self)


def qa_certify(d: Diagram, budget: int = 20000, max_crossings: int | None = None,
               reason: list | None = None) -> QACertificate | None:
    """Depth-first search for a quasi-alternating certificate.

    Children are the two smoothings of a crossing followed by greedy
    simplification; a node closes when its determinant triple is additive
    with nonzero parts and both children certify.  Unknot recognition is
    greedy-only, so the certifier is sound but not complete: None means
    unknown, never a disproof.  When it is None and `reason` is a list,
    "budget" is appended if the node budget cut the search short, else
    "exhausted".  Each child it forms is one `simplified_smoothing`, keyed
    on a relabeling key once; verdicts are memoized by that key, failures
    only when no budget stop happened below the node, and each key's
    determinant is walked at most once, the root's only after its memo and
    budget checks.  A node of det 0 or 1 forms no child.
    """
    memo: dict = {}
    dets: dict = {}
    spent = [0]
    stops = [0]

    def keyed(diag: Diagram) -> tuple[Diagram, tuple]:
        return diag, canonical_key(diag)

    def det_of(diag: Diagram, key: tuple) -> int:
        if key not in dets:
            dets[key] = state_sum_det(diag, max_crossings=max_crossings)
        return dets[key]

    def search(diag: Diagram, key: tuple) -> QACertificate | None:
        if key in memo:
            return memo[key]
        if spent[0] >= budget:
            stops[0] += 1
            return None
        spent[0] += 1
        stops_below, cert = stops[0], None
        if diag.n == 0:
            cert = QACertificate(diag, 1) if diag.free_loops == 1 else None
        else:
            det = det_of(diag, key)
            # the triple is additive with nonzero parts only when
            # 0 < det0 < det and det1 = det - det0: never when det <= 1
            for ci in range(diag.n if det > 1 else 0):
                k0 = keyed(simplified_smoothing(diag, ci, 0))
                det0 = det_of(*k0)
                if not 0 < det0 < det:
                    continue
                k1 = keyed(simplified_smoothing(diag, ci, 1))
                if det_of(*k1) != det - det0:
                    continue
                c0 = search(*k0)
                c1 = None if c0 is None else search(*k1)
                if c1 is not None:
                    cert = QACertificate(diag, det, ci, (c0, c1))
                    break
        if cert is not None or stops[0] == stops_below:
            memo[key] = cert
        return cert

    cert = search(*keyed(simplify_greedy(d)))
    if cert is None and reason is not None:
        reason.append("budget" if stops[0] else "exhausted")
    return cert


def _node_holds(cert: QACertificate) -> bool:
    """One node's own checks: its det by state sum against the recorded
    one, and for an inner node its children against fresh smoothings of
    it and their additivity, or for a leaf the unknot."""
    det = state_sum_det(cert.diagram)
    if det != cert.det:
        return False
    if cert.is_leaf:
        return cert.diagram.n == 0 and cert.diagram.free_loops == 1 and det == 1
    c0, c1 = cert.children
    d0 = simplified_smoothing(cert.diagram, cert.crossing, 0)
    d1 = simplified_smoothing(cert.diagram, cert.crossing, 1)
    if {canonical_key(d0), canonical_key(d1)} != {canonical_key(c0.diagram),
                                                  canonical_key(c1.diagram)}:
        return False
    return c0.det != 0 and c1.det != 0 and c0.det + c1.det == det


def verify_certificate(cert: QACertificate) -> bool:
    """Re-verification: every node's determinant by state sum against the
    recorded one, its children against fresh smoothings of the node, their
    additivity, and the unknot leaves.  A node whose diagram the search
    already walked reads its state sum off the diagram's kept Euler sum,
    the same walk; the recorded det is only compared with that sum, so a
    tampered `cert.det` is refused.

    Each distinct subtree is checked once per call: a node is numbered by
    its diagram, det and crossing and its children's numbers, so the
    repeats of a node that the search shared among its parents, or that a
    JSON round trip copied, share one verdict, while a node whose subtree
    differs anywhere below gets its own."""
    numbers: dict = {}      # (diagram, det, crossing, child numbers) -> number
    met: dict = {}          # id(node) -> number, for a node met again
    verdicts: dict = {}     # number -> verdict

    def number(node: QACertificate) -> int:
        if id(node) not in met:
            kids = tuple(map(number, node.children))
            met[id(node)] = numbers.setdefault(
                (node.diagram, node.det, node.crossing, kids), len(numbers))
        return met[id(node)]

    def holds(node: QACertificate) -> bool:
        i = number(node)
        if i not in verdicts:
            verdicts[i] = _node_holds(node) and (
                node.is_leaf or all(map(holds, node.children)))
        return verdicts[i]

    return holds(cert)


# ---------------------------------------------------------------------------
# Oriented resolution filling
# ---------------------------------------------------------------------------

class FillingReport(NamedTuple):
    """Circles of the oriented resolution, their fill assignment, and the
    bands joining them."""

    circles: tuple
    filled: tuple
    bands: tuple


def oriented_resolution_filling(d: Diagram) -> FillingReport:
    """The filling of the oriented-resolution circles: fill a circle when
    "the left face of its least arc lies inside it" agrees with "an even
    number of other circles enclose it"; every band must then join one
    filled and one unfilled circle (raised as InternalInconsistency
    otherwise; the construction guarantees it for planar diagrams)."""
    if d.n == 0:
        n = d.free_loops
        return FillingReport(((),) * n, (True,) * n, ())
    ori = tuple(1 if s == 1 else 0 for s in d.signs)
    state = resolve(d, ori)
    pm = planar_map(d)

    # bit c of parity[f] says circle c separates f from the outer face of
    # its projection piece
    parity = _face_parities(d, pm, lambda arc: 1 << state.arc_to_circle[arc],
                            "inconsistent circle parity; diagram not planar")

    filled = []
    for c, arc in enumerate(state.least_arcs):
        inside = (parity[pm.face_of[d.arc_head[arc]]] >> c) & 1
        f1, _f2 = pm.arc_faces(d, arc)
        even = int.bit_count(parity[f1] & ~(1 << c)) % 2 == 0
        filled.append(bool(inside) == even)
    # free loops: vacuously filled, no bands touch them
    filled += [True] * d.free_loops

    bands = []
    for t in range(d.n):
        c = d.crossings[t]
        pairs = RES1_PAIRS if ori[t] else RES0_PAIRS
        x = state.arc_to_circle[c[pairs[0][0]]]
        y = state.arc_to_circle[c[pairs[1][0]]]
        if x == y or filled[x] == filled[y]:
            raise InternalInconsistency(
                f"band joins circles {x}, {y} with fill status "
                f"{filled[x]}, {filled[y]}")
        bands.append((x, y))
    return FillingReport(state.circles, tuple(filled), tuple(bands))
