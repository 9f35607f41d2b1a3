"""Surgery arithmetic: filled linking matrices, triads, plumbing and large
surgery certification."""

import random

import pytest

from cubekh.errors import DimensionMismatch, InvalidRange
from cubekh.linalg import AbelianGroup, det_bareiss
from cubekh.surgery import (
    FramedLinkPresentation,
    PlumbingGraph,
    h1_order,
    large_surgery_family,
    plumbing_h1_order,
    plumbing_linking_matrix,
    plumbing_lspace_check,
    surgered_h1,
    triad_additivity_check,
)
from linalg_helpers import framing_weight


def random_presentation(rng, max_m=5, bound=9):
    m = rng.randint(1, max_m)
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            a[i][j] = a[j][i] = rng.randint(-bound, bound)
    return FramedLinkPresentation.from_lists(a)


# --- surgered H1 -----------------------------------------------------------------

def test_lens_space_h1():
    for p in (1, 2, 7, 50):
        pres = FramedLinkPresentation.from_lists([[p]])
        g = surgered_h1(pres, [0])
        assert (g.order() or 0) == p


def test_infinity_filling_is_sphere():
    pres = FramedLinkPresentation.from_lists([[123]])
    assert surgered_h1(pres, ["inf"]) == AbelianGroup((), 0)


def test_zero_framed_unknot():
    pres = FramedLinkPresentation.from_lists([[0]])
    g = surgered_h1(pres, [0])
    assert g.free_rank == 1
    assert h1_order(pres, [0]) == 0


def test_framing_validation():
    pres = FramedLinkPresentation.from_lists([[1, 0], [0, 1]])
    with pytest.raises(DimensionMismatch):
        surgered_h1(pres, [0])
    with pytest.raises(DimensionMismatch):
        surgered_h1(pres, [0, 2])
    # infinity is spelled "inf" only
    for bad in (-1, "oo", "infinity", float("inf")):
        with pytest.raises(DimensionMismatch) as e:
            surgered_h1(pres, [0, bad])
        assert str(e.value) == f"framing entry {bad!r} not in {{0, 1, inf}}"
    with pytest.raises(DimensionMismatch):
        FramedLinkPresentation.from_lists([[0, 1], [2, 0]])


def test_from_linking_and_frames():
    pres = FramedLinkPresentation.from_linking_and_frames(
        [[0, 1], [1, 0]], [3, 4])
    assert pres.linking_matrix == ((3, 1), (1, 4))


def test_framing_weight():
    assert framing_weight([0, 1, "inf", "inf", 0]) == 3


def test_h1_matches_det_oracle_random():
    rng = random.Random(61)
    for _ in range(1000):
        pres = random_presentation(rng)
        v = [rng.choice([0, 1, "inf"]) for _ in range(pres.components)]
        g = surgered_h1(pres, v)
        det = abs(det_bareiss(pres.filled_matrix(v)))
        assert (g.order() or 0) == det == h1_order(pres, v)


def test_euler_zero_iff_smith_zero():
    rng = random.Random(71)
    for _ in range(200):
        pres = random_presentation(rng, max_m=4, bound=4)
        v = [0] * pres.components
        g = surgered_h1(pres, v)
        chi = h1_order(pres, v)
        assert (chi == 0) == (g.free_rank > 0)


def test_connected_sum_multiplicativity():
    rng = random.Random(81)
    for _ in range(50):
        a = random_presentation(rng, max_m=3)
        b = random_presentation(rng, max_m=3)
        na, nb = a.components, b.components
        block = [[0] * (na + nb) for _ in range(na + nb)]
        for i in range(na):
            for j in range(na):
                block[i][j] = a.linking_matrix[i][j]
        for i in range(nb):
            for j in range(nb):
                block[na + i][na + j] = b.linking_matrix[i][j]
        pres = FramedLinkPresentation.from_lists(block)
        v = [0] * (na + nb)
        ca = h1_order(a, [0] * na)
        cb = h1_order(b, [0] * nb)
        if ca and cb:
            assert h1_order(pres, v) == ca * cb


# --- triads ----------------------------------------------------------------------

def test_n_framed_unknot_triad():
    pres = FramedLinkPresentation.from_lists([[5]])
    rep = triad_additivity_check(pres, 0)
    assert rep.orders == (1, 5, 6)
    assert rep.additive and rep.applicable
    assert rep.orders[2] == rep.orders[0] + rep.orders[1]


def test_triad_with_b1_member_not_applicable():
    pres = FramedLinkPresentation.from_lists([[0]])
    rep = triad_additivity_check(pres, 0)
    assert not rep.applicable


def test_triad_trefoil_branched_triple():
    # the (3, 2, 1) determinant triple realized on linking matrices
    pres = FramedLinkPresentation.from_lists([[2]])
    rep = triad_additivity_check(pres, 0)
    assert rep.orders == (1, 2, 3)
    assert rep.additive


def test_triads_additive_whenever_applicable():
    rng = random.Random(91)
    for _ in range(300):
        pres = random_presentation(rng, max_m=4)
        k = rng.randrange(pres.components)
        rep = triad_additivity_check(pres, k)
        if rep.applicable:
            assert rep.additive


# --- plumbing ---------------------------------------------------------------------

def test_single_vertex_lens():
    for p in (1, 2, 9):
        g = PlumbingGraph.from_lists([p], [])
        v = plumbing_lspace_check(g)
        assert v.verdict == "certified" and v.h1_order == p
        assert v.reverify()


def test_a2_chain():
    g = PlumbingGraph.from_lists([2, 2], [[0, 1]])
    assert plumbing_linking_matrix(g) == [[2, 1], [1, 2]]
    v = plumbing_lspace_check(g)
    assert v.verdict == "certified" and v.h1_order == 3


def test_an_chains():
    for n in range(1, 11):
        g = PlumbingGraph.from_lists([2] * n, [[i, i + 1] for i in range(n - 1)])
        v = plumbing_lspace_check(g)
        assert v.verdict == "certified"
        assert v.h1_order == n + 1
        assert v.reverify()


def test_zero_multiplicity_not_applicable():
    v = plumbing_lspace_check(PlumbingGraph.from_lists([0], []))
    assert v.verdict == "not-applicable"


def test_cycle_not_applicable():
    g = PlumbingGraph.from_lists([3, 3, 3], [[0, 1], [1, 2], [0, 2]])
    assert plumbing_lspace_check(g).verdict == "not-applicable"


def test_degree_exceeds_multiplicity_not_applicable():
    g = PlumbingGraph.from_lists([1, 5, 1], [[0, 1], [1, 2]])
    # center has degree 2 > would need m >= 2: here m=5 fine, leaves 1 >= 1
    assert plumbing_lspace_check(g).verdict == "certified"
    g2 = PlumbingGraph.from_lists([1, 1, 1], [[0, 1], [1, 2]])
    assert plumbing_lspace_check(g2).verdict == "not-applicable"


def test_forest_connected_sum():
    g = PlumbingGraph.from_lists([3, 2, 2], [[1, 2]])
    v = plumbing_lspace_check(g)
    assert v.verdict == "certified"
    assert v.h1_order == 9
    assert any(s.kind == "connected-sum" for s in v.derivation)
    assert v.reverify()


def _components(g):
    """The components of g, each re-indexed by its vertices in ascending
    order, as plumbing_lspace_check takes them."""
    subs = []
    for comp in g.component_vertices():
        idx = {u: i for i, u in enumerate(comp)}
        subs.append(PlumbingGraph(tuple(g.multiplicities[u] for u in comp),
                                  tuple((idx[a], idx[b]) for a, b in g.edges
                                        if a in idx and b in idx)))
    return subs


def _forest(*graphs):
    """The disjoint union of graphs, each after the ones before it."""
    mult, edges = [], []
    for h in graphs:
        edges += [[a + len(mult), b + len(mult)] for a, b in h.edges]
        mult += h.multiplicities
    return PlumbingGraph.from_lists(mult, edges)


def _derivation_by_fresh_orders(g):
    """(kind, description, orders) of every step of the leaf induction on
    each component of a forest, then of the connected sum when there are
    several, each order a Bareiss determinant of its own graph."""
    steps = []

    def walk(g):
        if g.vertices == 1:
            m = g.multiplicities[0]
            steps.append(("lens-seed", f"lens space of order {m}", (m,)))
            return
        for v in range(g.vertices):
            if g.degree(v) == 1 and g.multiplicities[v] == 1:
                w = next(a if b == v else b for a, b in g.edges if v in (a, b))
                g2 = g.remove_vertex(v).with_multiplicity(w if w < v else w - 1,
                                                          g.multiplicities[w] - 1)
                steps.append(("contract-leaf", f"blow down multiplicity-1 leaf {v}",
                              (plumbing_h1_order(g), plumbing_h1_order(g2))))
                walk(g2)
                return
        leaf = next(v for v in range(g.vertices) if g.degree(v) == 1)
        g1 = g.remove_vertex(leaf)
        g2 = g.with_multiplicity(leaf, g.multiplicities[leaf] - 1)
        steps.append(("triad", f"surgery triad at leaf {leaf}",
                      (plumbing_h1_order(g), plumbing_h1_order(g2),
                       plumbing_h1_order(g1))))
        walk(g1)
        walk(g2)

    subs = _components(g)
    for sub in subs:
        walk(sub)
    if len(subs) > 1:
        steps.append(("connected-sum", f"connected sum of {len(subs)} plumbed pieces",
                      (plumbing_h1_order(g), *map(plumbing_h1_order, subs))))
    return steps


@pytest.mark.parametrize("mult, edges", [
    ([3] * 7, [[i, i + 1] for i in range(6)]),
    ([2] * 6, [[i, i + 1] for i in range(5)]),
    ([4, 2, 2, 2, 2, 2, 2], [[0, 1], [0, 2], [0, 3], [1, 4], [2, 5], [3, 6]]),
    ([1, 5, 1], [[0, 1], [1, 2]]),
    ([2, 3, 1, 2, 4], [[0, 1], [1, 2], [1, 3], [3, 4]]),
    # forests: each component's walk, then the connected sum
    ([3, 2, 2], [[1, 2]]),
    ([2, 3, 2, 4, 1], [[0, 2], [1, 3], [3, 4]]),
    ([3] * 10, [[i, i + 1] for i in range(4)] + [[i, i + 1] for i in range(5, 9)]),
    ([2, 1, 3, 2, 2, 5], [[0, 3], [2, 4]]),
])
def test_derivation_orders_match_fresh_determinants(mult, edges):
    g = PlumbingGraph.from_lists(mult, edges)
    v = plumbing_lspace_check(g)
    assert v.verdict == "certified"
    got = [(s.kind, s.description, s.orders) for s in v.derivation]
    assert got == _derivation_by_fresh_orders(g)


def test_empty_plumbing_is_the_three_sphere():
    # no vertices: the 0x0 linking matrix has determinant 1, and the empty
    # derivation certifies S^3
    from cubekh.cli import run_job
    assert plumbing_h1_order(PlumbingGraph.from_lists([], [])) == 1
    assert run_job("plumbing", {"plumbing": {"mult": [], "edges": []}}) == {
        "verdict": "certified", "h1_order": 1, "h1": 1, "derivation": [],
        "reverified": True}


def test_plumbing_job_computes_each_graph_order_once(monkeypatch):
    # the ten-vertex chain has 17709 steps over 29 distinct linking
    # matrices; each graph's order is at most one Bareiss determinant
    import cubekh.surgery as surgery
    from cubekh.cli import run_job
    calls = []
    monkeypatch.setattr(surgery, "det_bareiss",
                        lambda a: calls.append(a) or det_bareiss(a))
    out = run_job("plumbing", {"plumbing": {"mult": [3] * 10,
                                            "edges": [[i, i + 1] for i in range(9)]}})
    assert out["verdict"] == "certified" and out["reverified"]
    assert len(out["derivation"]) == 17709
    assert len(calls) <= 29
    assert len({tuple(map(tuple, a)) for a in calls}) == len(calls)


def _chain(k):
    return PlumbingGraph.from_lists([3] * k, [[i, i + 1] for i in range(k - 1)])


def test_each_distinct_graph_gets_one_step(monkeypatch):
    # the ten-vertex chain's 17709 steps are the steps of 29 distinct
    # graphs, each built once and shared by all its occurrences
    import cubekh.surgery as surgery
    built = []
    step = surgery.DerivationStep
    monkeypatch.setattr(surgery, "DerivationStep",
                        lambda *args: built.append(args) or step(*args))
    v = plumbing_lspace_check(_chain(10))
    assert v.verdict == "certified" and v.reverify()
    assert len(v.derivation) == 17709
    assert len(built) == 29
    assert len({id(s) for s in v.derivation}) == 29


def _star(k):
    # a centre of multiplicity 4 with three arms of multiplicity 2
    edges, ends = [], [0, 0, 0]
    for v in range(1, k):
        edges.append([ends[(v - 1) % 3], v])
        ends[(v - 1) % 3] = v
    return PlumbingGraph.from_lists([4] + [2] * (k - 1), edges)


@pytest.mark.parametrize("g", [_chain(k) for k in range(6, 11)]
                         + [_star(k) for k in (7, 9, 11)]
                         + [_forest(_chain(6), _star(7)), _forest(_chain(7), _chain(7)),
                            _forest(_star(9), PlumbingGraph.from_lists([5], []), _chain(6))],
                         ids=[f"chain{k}" for k in range(6, 11)]
                         + [f"star{k}" for k in (7, 9, 11)]
                         + ["chain6+star7", "chain7+chain7", "star9+lens5+chain6"])
def test_step_count_is_derivation_length(g):
    # one step per step of each component's walk, and a connected sum when
    # there are several
    from cubekh.surgery import _step_count
    v = plumbing_lspace_check(g)
    assert v.verdict == "certified"
    subs = _components(g)
    plan = {}
    assert (sum(_step_count(sub, plan) for sub in subs) + (len(subs) > 1)
            == len(v.derivation))


def test_derivation_chain_orders():
    g = PlumbingGraph.from_lists([2, 3, 2], [[0, 1], [1, 2]])
    v = plumbing_lspace_check(g)
    assert v.verdict == "certified"
    assert v.h1_order == plumbing_h1_order(g)
    for step in v.derivation:
        if step.kind == "triad":
            assert step.orders[0] == step.orders[1] + step.orders[2]


# --- large surgeries ---------------------------------------------------------------

def test_large_surgery_seed():
    v = large_surgery_family(2, 3, 5)
    assert v.verdict == "certified" and v.h1_order == 5
    assert len(v.derivation) == 1


def test_large_surgery_chain():
    v = large_surgery_family(2, 3, 6)
    assert v.verdict == "certified" and v.h1_order == 6
    triads = [s for s in v.derivation if s.kind == "triad"]
    assert triads and triads[0].orders == (6, 5, 1)
    assert v.reverify()


def test_large_surgery_below_seed_unknown():
    assert large_surgery_family(2, 3, 4).verdict == "unknown"


def test_large_surgery_validation():
    with pytest.raises(InvalidRange):
        large_surgery_family(2, 4, 10)
    with pytest.raises(InvalidRange):
        large_surgery_family(1, 3, 10)


def test_large_surgery_long_chain():
    v = large_surgery_family(3, 4, 30)
    assert v.verdict == "certified" and v.h1_order == 30
    assert len([s for s in v.derivation if s.kind == "triad"]) == 30 - 11
