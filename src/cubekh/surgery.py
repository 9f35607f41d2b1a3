"""Integer homology bookkeeping for framed links, surgery triads, plumbing
graphs, and L-space certification by determinant additivity.

"Certified" verdicts here mean: derivable from lens-space seeds through
surgery triads whose first-homology orders are verified additive, step by
step, with exact integer arithmetic.  The Floer-theoretic content behind
each step is taken from the underlying theory; the arithmetic chain is what
is checked and what gets re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .diagram import _UnionFind
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    InvalidRange,
    SizeBudgetExceeded,
)
from .linalg import AbelianGroup, cokernel_group, det_bareiss

INF = "inf"
# triad steps in one large-surgery derivation; each is an object in the
# verdict and an entry of the lspace job's output
MAX_LARGE_SURGERY_STEPS = 10_000


def _norm_framing(v) -> int | str:
    """Multi-framing entries: 0, 1, or infinity (written 'inf' or -1)."""
    if v in (0, 1):
        return v
    if v in (INF, -1, float("inf"), "infinity", "oo"):
        return INF
    raise DimensionMismatch(f"framing entry {v!r} not in {{0, 1, inf}}")


def framing_weight(v: Sequence) -> int:
    """Number of entries differing from 0 (infinity counts as weight 1)."""
    return sum(1 for x in v if _norm_framing(x) != 0)


@dataclass(frozen=True)
class FramedLinkPresentation:
    """Symmetric linking matrix with framings on the diagonal."""

    linking_matrix: tuple

    @staticmethod
    def from_lists(m: Sequence[Sequence[int]]) -> "FramedLinkPresentation":
        return FramedLinkPresentation(tuple(tuple(int(x) for x in row) for row in m))

    @staticmethod
    def from_linking_and_frames(linking: Sequence[Sequence[int]],
                                frames: Sequence[int]) -> "FramedLinkPresentation":
        m = [list(row) for row in linking]
        if len(frames) != len(m):
            raise DimensionMismatch("frame count does not match matrix size")
        for i, f in enumerate(frames):
            m[i][i] = int(f)
        return FramedLinkPresentation.from_lists(m)

    def __post_init__(self):
        n = len(self.linking_matrix)
        for row in self.linking_matrix:
            if len(row) != n:
                raise DimensionMismatch("linking matrix must be square")
        for i in range(n):
            for j in range(n):
                if self.linking_matrix[i][j] != self.linking_matrix[j][i]:
                    raise DimensionMismatch("linking matrix must be symmetric")

    @property
    def components(self) -> int:
        return len(self.linking_matrix)

    def filled_matrix(self, v: Sequence) -> list[list[int]]:
        """Delete infinity rows/columns, add 0/1 framings to the diagonal."""
        if len(v) != self.components:
            raise DimensionMismatch(
                f"multi-framing has {len(v)} entries for {self.components} components")
        vv = [_norm_framing(x) for x in v]
        keep = [i for i, x in enumerate(vv) if x != INF]
        m = [[self.linking_matrix[i][j] for j in keep] for i in keep]
        for r, i in enumerate(keep):
            m[r][r] += vv[i]
        return m


def surgered_h1(p: FramedLinkPresentation, v: Sequence) -> AbelianGroup:
    """H1 of the surgered manifold: cokernel of the filled linking matrix."""
    return cokernel_group(p.filled_matrix(v))


def h1_order(p: FramedLinkPresentation, v: Sequence) -> int:
    """|H1| when finite, else 0 (short-cut via the determinant)."""
    return abs(det_bareiss(p.filled_matrix(v)))


@dataclass(frozen=True)
class TriadReport:
    orders: tuple            # |H1| for the infinity-, 0-, 1-fillings
    additive: bool           # a = b + c under some cyclic rotation
    applicable: bool         # no member has b1 > 0

    def additive_rotation(self) -> tuple | None:
        a, b, c = self.orders
        for triple in ((a, b, c), (b, c, a), (c, a, b)):
            if triple[0] == triple[1] + triple[2]:
                return triple
        return None


def triad_additivity_check(p: FramedLinkPresentation, k: int) -> TriadReport:
    """Orders of the three fillings of component k (others filled at their
    declared framings) and whether they satisfy additivity."""
    if not 0 <= k < p.components:
        raise DimensionMismatch(f"component {k} out of range")
    base = [0] * p.components
    orders = []
    for fill in (INF, 0, 1):
        v = list(base)
        v[k] = fill
        orders.append(h1_order(p, v))
    orders = tuple(orders)
    applicable = all(o > 0 for o in orders)
    rep = TriadReport(orders, False, applicable)
    return TriadReport(orders, rep.additive_rotation() is not None, applicable)


# ---------------------------------------------------------------------------
# Plumbing graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlumbingGraph:
    """Vertices carry integer multiplicities; edges are index pairs."""

    multiplicities: tuple
    edges: tuple

    @staticmethod
    def from_lists(mult: Sequence[int], edges: Sequence[Sequence[int]]) -> "PlumbingGraph":
        return PlumbingGraph(tuple(int(x) for x in mult),
                             tuple(tuple(sorted((int(a), int(b)))) for a, b in edges))

    def __post_init__(self):
        n = len(self.multiplicities)
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n):
                raise DimensionMismatch(f"edge ({a},{b}) out of range")
            if a == b:
                raise DimensionMismatch("plumbing graphs here have no self-loops")

    @property
    def vertices(self) -> int:
        return len(self.multiplicities)

    def degree(self, v: int) -> int:
        return sum(1 for a, b in self.edges if v in (a, b))

    def is_forest(self) -> bool:
        uf = _UnionFind(range(self.vertices))
        for a, b in self.edges:
            if uf.find(a) == uf.find(b):
                return False
            uf.union(a, b)
        return True

    def component_vertices(self) -> list[list[int]]:
        """Components in order of their least vertex, each ascending."""
        uf = _UnionFind(range(self.vertices))
        for a, b in self.edges:
            uf.union(a, b)
        return [list(c) for c in uf.classes()]

    def remove_vertex(self, v: int) -> "PlumbingGraph":
        keep = [u for u in range(self.vertices) if u != v]
        idx = {u: i for i, u in enumerate(keep)}
        return PlumbingGraph(tuple(self.multiplicities[u] for u in keep),
                             tuple((idx[a], idx[b]) for a, b in self.edges
                                   if v not in (a, b)))

    def with_multiplicity(self, v: int, m: int) -> "PlumbingGraph":
        mult = list(self.multiplicities)
        mult[v] = m
        return PlumbingGraph(tuple(mult), self.edges)


def plumbing_linking_matrix(g: PlumbingGraph) -> list[list[int]]:
    n = g.vertices
    m = [[0] * n for _ in range(n)]
    for v in range(n):
        m[v][v] = g.multiplicities[v]
    for a, b in g.edges:
        m[a][b] += 1
        m[b][a] += 1
    return m


def plumbing_h1_order(g: PlumbingGraph) -> int:
    if g.vertices == 0:
        return 1
    return abs(det_bareiss(plumbing_linking_matrix(g)))


@dataclass(frozen=True)
class DerivationStep:
    kind: str                # "lens-seed", "contract-leaf", "triad", "connected-sum"
    description: str
    orders: tuple            # (|H1|,) or the additive triple (parent, child1, child2)


@dataclass(frozen=True)
class LSpaceVerdict:
    verdict: str             # "certified", "not-applicable", "unknown"
    h1_order: int
    derivation: tuple = ()

    def reverify(self) -> bool:
        """Triad steps must be exactly additive, contractions order-preserving,
        connected sums multiplicative."""
        for step in self.derivation:
            if step.kind == "triad" and step.orders[0] != step.orders[1] + step.orders[2]:
                return False
            if step.kind == "contract-leaf" and step.orders[0] != step.orders[1]:
                return False
            if step.kind == "connected-sum":
                total, *parts = step.orders
                prod = 1
                for x in parts:
                    prod *= x
                if total != prod:
                    return False
        return True


def _plumbing_hypotheses_hold(g: PlumbingGraph) -> bool:
    """Forest, deg <= mult everywhere, strict somewhere in each component."""
    if not g.is_forest():
        return False
    for comp in g.component_vertices():
        strict = False
        for v in comp:
            if g.degree(v) > g.multiplicities[v]:
                return False
            if g.degree(v) < g.multiplicities[v]:
                strict = True
        if not strict:
            return False
    return True


def _certify_tree(g: PlumbingGraph, steps: list) -> int:
    """Recursive leaf contraction / triad splitting; returns |H1|."""
    if g.vertices == 0:
        return 1
    if g.vertices == 1:
        m = g.multiplicities[0]
        steps.append(DerivationStep("lens-seed", f"lens space of order {m}", (m,)))
        return m
    # prefer contracting a multiplicity-1 leaf (same manifold, smaller graph)
    for v in range(g.vertices):
        if g.degree(v) == 1 and g.multiplicities[v] == 1:
            w = next(a if b == v else b for a, b in g.edges if v in (a, b))
            g2 = g.remove_vertex(v).with_multiplicity(w if w < v else w - 1,
                                                      g.multiplicities[w] - 1)
            steps.append(DerivationStep(
                "contract-leaf", f"blow down multiplicity-1 leaf {v}",
                (plumbing_h1_order(g), plumbing_h1_order(g2))))
            return _certify_tree(g2, steps)
    leaf = next(v for v in range(g.vertices) if g.degree(v) == 1)
    g1 = g.remove_vertex(leaf)
    g2 = g.with_multiplicity(leaf, g.multiplicities[leaf] - 1)
    o, o1, o2 = plumbing_h1_order(g), plumbing_h1_order(g1), plumbing_h1_order(g2)
    steps.append(DerivationStep(
        "triad", f"surgery triad at leaf {leaf}", (o, o2, o1)))
    r1 = _certify_tree(g1, steps)
    r2 = _certify_tree(g2, steps)
    if o1 != r1 or o2 != r2 or o != o1 + o2:
        raise InternalInconsistency("plumbing derivation became inconsistent")
    return o


def plumbing_lspace_check(g: PlumbingGraph) -> LSpaceVerdict:
    """Certify Y(G, m) as an L-space by the leaf induction, recording the
    derivation chain with |H1| values at every step."""
    order = plumbing_h1_order(g)
    if not _plumbing_hypotheses_hold(g):
        return LSpaceVerdict("not-applicable", order)
    comps = g.component_vertices()
    steps: list[DerivationStep] = []
    part_orders = []
    for comp in comps:
        idx = {u: i for i, u in enumerate(comp)}
        sub = PlumbingGraph(tuple(g.multiplicities[u] for u in comp),
                            tuple((idx[a], idx[b]) for a, b in g.edges
                                  if a in idx and b in idx))
        part_orders.append(_certify_tree(sub, steps))
    if len(comps) > 1:
        steps.append(DerivationStep("connected-sum",
                                    f"connected sum of {len(comps)} plumbed pieces",
                                    (order, *part_orders)))
    verdict = LSpaceVerdict("certified", order, tuple(steps))
    if not verdict.reverify():
        raise InternalInconsistency("derivation chain failed re-verification")
    return verdict


def large_surgery_family(p: int, q: int, n: int) -> LSpaceVerdict:
    """Certify n-surgery on the (p, q) torus knot for n >= pq - 1 via the
    chain of triads from the lens-space seed at pq - 1."""
    if p < 2 or q < 2:
        raise InvalidRange("torus knot parameters need p, q >= 2")
    from math import gcd
    if gcd(p, q) != 1:
        raise InvalidRange("torus knot parameters must be coprime")
    seed = p * q - 1
    if n < seed:
        return LSpaceVerdict("unknown", abs(n))
    if n - seed > MAX_LARGE_SURGERY_STEPS:
        raise SizeBudgetExceeded(
            f"large surgery n = {n} needs {n - seed} triad steps, over the "
            f"budget of {MAX_LARGE_SURGERY_STEPS}")
    steps = [DerivationStep("lens-seed",
                            f"(pq-1)-surgery on the ({p},{q}) torus knot is the "
                            f"lens space written L({p},{q}), order {seed}", (seed,))]
    for m in range(seed + 1, n + 1):
        steps.append(DerivationStep(
            "triad", f"triad of the three-sphere with surgeries {m-1}, {m}",
            (m, m - 1, 1)))
    verdict = LSpaceVerdict("certified", n, tuple(steps))
    if not verdict.reverify():
        raise InternalInconsistency("large surgery chain failed re-verification")
    return verdict
