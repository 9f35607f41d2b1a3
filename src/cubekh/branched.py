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
    simplify_greedy,
    smooth_crossing,
)
from .errors import BandConditionViolated, InternalInconsistency, NonPlanarTrace
from .khovanov import khr_ranks, state_sum_det
from .linalg import AbelianGroup, cokernel_group, det_bareiss


# ---------------------------------------------------------------------------
# Goeritz matrix and H1 of the double branched cover
# ---------------------------------------------------------------------------

class GoeritzData(NamedTuple):
    """Checkerboard coloring and reduced Goeritz matrix of a PD diagram:
    the block sum over the projection's pieces, one white face deleted per
    piece.  `white_faces` lists the white faces piece by piece, the deleted
    ones included; `pieces` counts the projection's pieces and the free
    loops."""

    white_faces: tuple
    colors: tuple
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
        return GoeritzData((), (), (), d.free_loops)
    pieces = d.pd_components()
    pm = planar_map(d)
    # 2-coloring of faces: adjacent faces across an arc get opposite colors
    colors = tuple(_face_parities(d, pm, lambda arc: 1,
                                  "projection is not checkerboard colorable"))
    piece_of = {ci: k for k, piece in enumerate(pieces) for ci in piece}
    face_piece = [piece_of[orbit[0][0]] for orbit in pm.faces]
    tally = Counter(zip(face_piece, colors))
    white = [int(tally[k, 1] > tally[k, 0]) for k in range(len(pieces))]
    white_faces = tuple(sorted((f for f, c in enumerate(colors) if c == white[face_piece[f]]),
                               key=lambda f: (face_piece[f], f)))
    w_index = {f: i for i, f in enumerate(white_faces)}
    size = len(white_faces)
    pre = [[0] * size for _ in range(size)]
    for ci in range(d.n):
        corners = [pm.face_of_corner(ci, s) for s in range(4)]
        whites = [s for s in range(4) if corners[s] in w_index]
        if len(whites) != 2 or (whites[1] - whites[0]) != 2:
            raise NonPlanarTrace("crossing does not see two opposite white corners")
        # corners (1,2)&(3,0) are the pair the under-strand sweeps toward the
        # over-strand; sign convention is global-flip safe for |det|
        eta = 1 if whites == [1, 3] else -1
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
    return GoeritzData(white_faces, colors, reduced, len(pieces) + d.free_loops)


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
        out = {"pd": [list(c) for c in self.diagram.crossings],
               "free_loops": self.diagram.free_loops,
               "det": self.det}
        if not self.is_leaf:
            out["crossing"] = self.crossing
            out["children"] = [c.to_json() for c in self.children]
        return out


def qa_certify(d: Diagram, budget: int = 20000, max_crossings: int | None = None,
               reason: list | None = None) -> QACertificate | None:
    """Depth-first search for a quasi-alternating certificate.

    Children are the two smoothings of a crossing followed by greedy
    simplification; a node closes when its determinant triple is additive
    with nonzero parts and both children certify.  Unknot recognition is
    greedy-only, so the certifier is sound but not complete: None means
    unknown, never a disproof.  When it is None and `reason` is a list,
    "budget" is appended if the node budget cut the search short, else
    "exhausted".  Results are memoized on a relabeling key, failures only
    when no budget stop happened below the node.
    """
    memo: dict = {}
    spent = [0]
    stops = [0]

    def search(diag: Diagram, det: int | None = None) -> QACertificate | None:
        # det, when given, is the determinant of diag's link, which greedy
        # simplification keeps
        diag = simplify_greedy(diag)
        key = canonical_key(diag)
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
            if det is None:
                det = state_sum_det(diag, max_crossings=max_crossings)
            for ci in range(diag.n if det else 0):
                d0 = smooth_crossing(diag, ci, 0)
                d1 = smooth_crossing(diag, ci, 1)
                det0 = state_sum_det(d0, max_crossings=max_crossings)
                det1 = state_sum_det(d1, max_crossings=max_crossings)
                if det0 == 0 or det1 == 0 or det0 + det1 != det:
                    continue
                c0 = search(d0, det0)
                c1 = None if c0 is None else search(d1, det1)
                if c1 is not None:
                    cert = QACertificate(diag, det, ci, (c0, c1))
                    break
        if cert is not None or stops[0] == stops_below:
            memo[key] = cert
        return cert

    cert = search(d)
    if cert is None and reason is not None:
        reason.append("budget" if stops[0] else "exhausted")
    return cert


def verify_certificate(cert: QACertificate) -> bool:
    """Independent re-verification: recompute every determinant by state sum
    and re-check additivity and the unknot leaves."""
    det = state_sum_det(cert.diagram)
    if det != cert.det:
        return False
    if cert.is_leaf:
        return cert.diagram.n == 0 and cert.diagram.free_loops == 1 and det == 1
    c0, c1 = cert.children
    d0 = simplify_greedy(smooth_crossing(cert.diagram, cert.crossing, 0))
    d1 = simplify_greedy(smooth_crossing(cert.diagram, cert.crossing, 1))
    if {canonical_key(d0), canonical_key(d1)} != {canonical_key(c0.diagram),
                                                  canonical_key(c1.diagram)}:
        return False
    if c0.det == 0 or c1.det == 0 or c0.det + c1.det != det:
        return False
    return verify_certificate(c0) and verify_certificate(c1)


# ---------------------------------------------------------------------------
# Oriented resolution filling
# ---------------------------------------------------------------------------

class FillingReport(NamedTuple):
    """Circles of the oriented resolution with winding signs, nesting signs,
    fill assignment, and the bands joining them."""

    circles: tuple
    a_signs: tuple
    b_signs: tuple
    filled: tuple
    bands: tuple

    def band_condition_holds(self) -> bool:
        return all(self.filled[x] != self.filled[y] for x, y in self.bands)


def oriented_resolution_filling(d: Diagram) -> FillingReport:
    """The filling of the oriented-resolution circles: fill a circle when
    its winding sign matches its nesting parity; every band must then join
    one filled and one unfilled circle (raised as BandConditionViolated
    otherwise; the construction guarantees it for planar diagrams)."""
    if d.n == 0:
        n = d.free_loops
        return FillingReport(((),) * n, (1,) * n, (1,) * n, (True,) * n, ())
    ori = tuple(1 if s == 1 else 0 for s in d.signs)
    state = resolve(d, ori)
    pm = planar_map(d)

    # bit c of parity[f] says circle c separates f from the outer face of
    # its projection piece
    parity = _face_parities(d, pm, lambda arc: 1 << state.arc_to_circle[arc],
                            "inconsistent circle parity; diagram not planar")

    a_signs = []
    b_signs = []
    for c, arc in enumerate(state.least_arcs):
        ci, s = d.arc_head[arc]
        left = pm.face_of[(ci, s)]
        a_signs.append(1 if (parity[left] >> c) & 1 else -1)
        f1, _f2 = pm.arc_faces(d, arc)
        m = int.bit_count(parity[f1] & ~(1 << c))
        b_signs.append(1 if m % 2 == 0 else -1)
    # free loops: vacuously filled, no bands touch them
    for _ in range(d.free_loops):
        a_signs.append(1)
        b_signs.append(1)
    filled = tuple(a * b == 1 for a, b in zip(a_signs, b_signs))

    bands = []
    for t in range(d.n):
        c = d.crossings[t]
        pairs = RES1_PAIRS if ori[t] else RES0_PAIRS
        x = state.arc_to_circle[c[pairs[0][0]]]
        y = state.arc_to_circle[c[pairs[1][0]]]
        bands.append((x, y))
    report = FillingReport(state.circles, tuple(a_signs), tuple(b_signs),
                           filled, tuple(bands))
    for x, y in report.bands:
        if x == y or report.filled[x] == report.filled[y]:
            raise BandConditionViolated(
                f"band joins circles {x}, {y} with fill status "
                f"{report.filled[x]}, {report.filled[y]}")
    return report
