"""Integer homology bookkeeping for framed links, surgery triads, plumbing
graphs, and L-space certification by determinant additivity.

"Certified" verdicts here mean: derivable from lens-space seeds through
surgery triads whose first-homology orders are verified additive, step by
step, with exact integer arithmetic.  The Floer-theoretic content behind
each step is taken from the underlying theory; the arithmetic chain is what
is checked and what gets re-verified.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

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
# multiplicity sum of one plumbing component: every level of the leaf
# induction lowers it by at least one, so it bounds the recursion depth,
# and the budget keeps that depth well inside Python's recursion limit
MAX_PLUMBING_DEPTH = 500
# steps of one plumbing derivation: the leaf induction on a chain of
# multiplicity-3 vertices takes about 2.6 times more steps per added vertex,
# so the depth budget alone lets the step list outgrow memory
MAX_PLUMBING_STEPS = 200_000
# vertices of one plumbing graph: its n x n linking matrix is built and its
# Bareiss determinant taken, O(n^3), before any other check
MAX_PLUMBING_VERTICES = 500


def _norm_framing(v) -> int | str:
    """Multi-framing entries: 0, 1, or infinity (written 'inf')."""
    if v in (0, 1, INF):
        return v
    raise DimensionMismatch(f"framing entry {v!r} not in {{0, 1, inf}}")


class FramedLinkPresentation(NamedTuple("FramedLinkPresentation",
                                         [("linking_matrix", tuple)])):
    """Symmetric linking matrix with framings on the diagonal."""

    __slots__ = ()

    def __new__(cls, linking_matrix: tuple):
        n = len(linking_matrix)
        for row in linking_matrix:
            if len(row) != n:
                raise DimensionMismatch("linking matrix must be square")
        for i in range(n):
            for j in range(n):
                if linking_matrix[i][j] != linking_matrix[j][i]:
                    raise DimensionMismatch("linking matrix must be symmetric")
        return tuple.__new__(cls, (linking_matrix,))

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


class TriadReport(NamedTuple):
    orders: tuple            # |H1| for the infinity-, 0-, 1-fillings
    additive: bool           # a = b + c under some cyclic rotation
    applicable: bool         # no member has b1 > 0


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
    a, b, c = orders
    additive = a == b + c or b == c + a or c == a + b
    return TriadReport(tuple(orders), additive, all(o > 0 for o in orders))


# ---------------------------------------------------------------------------
# Plumbing graphs
# ---------------------------------------------------------------------------

class PlumbingGraph(NamedTuple("PlumbingGraph", [("multiplicities", tuple),
                                                 ("edges", tuple)])):
    """Vertices carry integer multiplicities; edges are index pairs.  Equal
    and hashed by value: the leaf induction keys its plan on graphs."""

    __slots__ = ()

    def __new__(cls, multiplicities: tuple, edges: tuple):
        n = len(multiplicities)
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise DimensionMismatch(f"edge ({a},{b}) out of range")
            if a == b:
                raise DimensionMismatch("plumbing graphs here have no self-loops")
        return tuple.__new__(cls, (multiplicities, edges))

    @staticmethod
    def from_lists(mult: Sequence[int], edges: Sequence[Sequence[int]]) -> "PlumbingGraph":
        return PlumbingGraph(tuple(int(x) for x in mult),
                             tuple(tuple(sorted((int(a), int(b)))) for a, b in edges))

    @property
    def vertices(self) -> int:
        return len(self.multiplicities)

    def degree(self, v: int) -> int:
        return sum(1 for a, b in self.edges if v in (a, b))

    def component_vertices(self) -> list[list[int]]:
        """Components in order of their least vertex, each ascending."""
        uf = _UnionFind(range(self.vertices))
        for a, b in self.edges:
            uf.union(a, b)
        return [list(c) for c in uf.classes()]

    def induced(self, vertices: Sequence[int]) -> "PlumbingGraph":
        """The subgraph on the given ascending vertices, re-indexed from 0
        in their order, with the edges that join two of them."""
        idx = {u: i for i, u in enumerate(vertices)}
        return PlumbingGraph(tuple(self.multiplicities[u] for u in vertices),
                             tuple((idx[a], idx[b]) for a, b in self.edges
                                   if a in idx and b in idx))

    def remove_vertex(self, v: int) -> "PlumbingGraph":
        return self.induced([u for u in range(self.vertices) if u != v])

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
    return abs(det_bareiss(plumbing_linking_matrix(g)))


class DerivationStep:
    """One step of a derivation: its kind ("lens-seed", "contract-leaf",
    "triad" or "connected-sum"), description and orders, (|H1|,) or the
    additive triple (parent, child1, child2).  A leaf-induction step is made
    while its derivation is counted (`_step_count`), with its children's
    steps, last first (as a preorder walk pushes them), and the number of
    steps the induction writes for it; its orders are filled in once the
    count is within budget.  Hashed by identity: all the occurrences of a
    distinct graph share its one step."""

    __slots__ = ("kind", "description", "orders", "children", "count")

    def __init__(self, kind: str, description: str, orders: tuple,
                 children: Sequence = (), count: int = 1):
        self.kind, self.description, self.orders = kind, description, orders
        self.children, self.count = children, count


class LSpaceVerdict:
    __slots__ = ("verdict", "h1_order", "derivation")

    def __init__(self, verdict: str, h1_order: int, derivation: tuple = ()):
        self.verdict = verdict           # "certified", "not-applicable", "unknown"
        self.h1_order = h1_order
        self.derivation = derivation

    def reverify(self) -> bool:
        """Triad steps must be exactly additive, contractions order-preserving,
        connected sums multiplicative."""
        # a plumbing derivation repeats its distinct steps: check each once
        for step in dict.fromkeys(self.derivation):
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


def _plumbing_hypotheses_hold(g: PlumbingGraph, comps: list[list[int]]) -> bool:
    """Forest (each of the components `comps` has one edge fewer than
    vertices), deg <= mult everywhere, strict somewhere in each component."""
    if len(g.edges) != g.vertices - len(comps):
        return False
    for comp in comps:
        strict = False
        for v in comp:
            if g.degree(v) > g.multiplicities[v]:
                return False
            if g.degree(v) < g.multiplicities[v]:
                strict = True
        if not strict:
            return False
    return True


def _induction_step(g: PlumbingGraph) -> tuple[str, str, tuple]:
    """The leaf-induction step at a tree g: (kind, description, children).

    A single vertex is a lens-space seed.  Otherwise a multiplicity-1 leaf
    is blown down (same manifold, smaller graph); failing that, the first
    leaf gives the surgery triad of g, g minus the leaf, and g with the
    leaf's multiplicity lowered by one.
    """
    if g.vertices == 1:
        return "lens-seed", f"lens space of order {g.multiplicities[0]}", ()
    for v in range(g.vertices):
        if g.degree(v) == 1 and g.multiplicities[v] == 1:
            w = next(a if b == v else b for a, b in g.edges if v in (a, b))
            g2 = g.remove_vertex(v).with_multiplicity(w if w < v else w - 1,
                                                      g.multiplicities[w] - 1)
            return "contract-leaf", f"blow down multiplicity-1 leaf {v}", (g2,)
    leaf = next(v for v in range(g.vertices) if g.degree(v) == 1)
    return ("triad", f"surgery triad at leaf {leaf}",
            (g.remove_vertex(leaf),
             g.with_multiplicity(leaf, g.multiplicities[leaf] - 1)))


def _step_count(g: PlumbingGraph, plan: dict) -> int:
    """The number of steps the leaf induction writes for g, 1 plus its
    children's.  `plan` maps every graph met so far to its step, orders not
    yet filled in, inserted after its children's, so each distinct graph is
    looked at once."""
    step = plan.get(g)
    if step is None:
        kind, description, children = _induction_step(g)
        count = 1
        for child in children:
            count += _step_count(child, plan)
        step = plan[g] = DerivationStep(kind, description, (),
                                        [plan[child] for child in reversed(children)],
                                        count)
    return step.count


def plumbing_lspace_check(g: PlumbingGraph) -> LSpaceVerdict:
    """Certify Y(G, m) as an L-space by the leaf induction, recording the
    derivation chain with |H1| values at every step.  Each distinct graph
    gets one step, made while the steps are counted and shared by all its
    occurrences, so a derivation over the step budget is refused at the
    cost of its distinct graphs and g's order, not of its steps."""
    if g.vertices > MAX_PLUMBING_VERTICES:
        raise SizeBudgetExceeded(
            f"plumbing graph of {g.vertices} vertices exceeds the budget of "
            f"{MAX_PLUMBING_VERTICES} vertices")
    order = plumbing_h1_order(g)
    comps = g.component_vertices()
    if not _plumbing_hypotheses_hold(g, comps):
        return LSpaceVerdict("not-applicable", order)
    depth = max((sum(g.multiplicities[u] for u in comp) for comp in comps), default=0)
    if depth > MAX_PLUMBING_DEPTH:
        raise SizeBudgetExceeded(
            f"plumbing component multiplicity sum {depth} exceeds the "
            f"leaf-induction depth budget of {MAX_PLUMBING_DEPTH}")
    subs = [g.induced(comp) for comp in comps]
    plan: dict = {}
    if sum(_step_count(sub, plan) for sub in subs) > MAX_PLUMBING_STEPS:
        raise SizeBudgetExceeded(
            f"plumbing derivation exceeds the budget of {MAX_PLUMBING_STEPS} "
            f"leaf-induction steps")
    # each distinct graph's orders, children before parents (g's is known)
    root = plan.get(g)
    for graph, step in plan.items():
        if step.kind == "lens-seed":
            step.orders = (graph.multiplicities[0],)
            continue
        o = order if step is root else plumbing_h1_order(graph)
        step.orders = (o, *(child.orders[0] for child in step.children))
        if step.kind == "triad" and o != step.orders[1] + step.orders[2]:
            raise InternalInconsistency("plumbing derivation became inconsistent")
    # each component's steps in preorder: a step, its first child's, its second's
    roots = [plan[sub] for sub in subs]
    steps: list[DerivationStep] = []
    stack = roots[::-1]
    while stack:
        step = stack.pop()
        steps.append(step)
        stack += step.children
    if len(comps) > 1:
        steps.append(DerivationStep("connected-sum",
                                    f"connected sum of {len(comps)} plumbed pieces",
                                    (order, *(r.orders[0] for r in roots))))
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
