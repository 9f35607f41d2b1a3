"""Branched double cover arithmetic: two determinant oracles, H1 groups,
rank inequality, QA certificates, oriented-resolution filling."""

import json
import random

import pytest

from cubekh.branched import (
    GoeritzData,
    QACertificate,
    goeritz,
    h1_sigma,
    link_det,
    oriented_resolution_filling,
    qa_certify,
    rank_inequality_check,
    verify_certificate,
)
from cubekh.acceptance import corpus
from cubekh.corpus import braid_closure, random_braid_diagram, small_knot
from cubekh.diagram import (
    Diagram,
    canonical_key,
    parse_pd,
    simplify_greedy,
    smooth_crossing,
)
from cubekh.khovanov import khr_ranks, state_sum_det
from diagram_helpers import connect_sum, mirror

TREFOIL = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
HOPF = [[1, 3, 2, 4], [3, 1, 4, 2]]


# --- Goeritz -------------------------------------------------------------------

def test_goeritz_kink_1x1():
    g = goeritz(parse_pd([[1, 2, 2, 1]]))
    assert len(g.matrix) == 1
    assert g.det() == 1


def test_goeritz_small_knots_match_state_sum():
    for name, det in [("hopf", 2), ("3_1", 3), ("4_1", 5), ("5_1", 5),
                      ("5_2", 7), ("6_1", 9), ("6_2", 11), ("6_3", 13)]:
        d = small_knot(name)
        assert goeritz(d).det() == state_sum_det(d) == det


def test_goeritz_random_braids_match_state_sum():
    rng = random.Random(17)
    for _ in range(100):
        d = random_braid_diagram(rng, max_crossings=7)
        assert link_det(d) == state_sum_det(d)


def test_split_goeritz_is_block_sum_of_pieces():
    # a trefoil and a split Hopf link in one PD code, plus a free loop
    hopf = [[a + 6 for a in c] for c in HOPF]
    d = parse_pd(TREFOIL + hopf, free_loops=1)
    g = goeritz(d)
    a, b = goeritz(parse_pd(TREFOIL)).matrix, goeritz(parse_pd(HOPF)).matrix
    block_sum = tuple(row + (0,) * len(b) for row in a) + tuple((0,) * len(a) + row
                                                                for row in b)
    assert g.matrix == block_sum
    assert g.pieces == 3
    assert link_det(d) == g.det() == 0  # split link


def test_goeritz_det_of_crossingless_diagrams():
    # the 0x0 matrix has determinant 1: the unknot and the empty diagram
    assert goeritz(parse_pd([], free_loops=1)).det() == 1
    assert goeritz(parse_pd([])).det() == 1
    assert goeritz(parse_pd([], free_loops=2)).det() == 0


# --- H1 ------------------------------------------------------------------------

def test_h1_named():
    assert str(h1_sigma(small_knot("3_1"))) == "Z/3"
    assert str(h1_sigma(small_knot("hopf"))) == "Z/2"
    assert str(h1_sigma(parse_pd([], free_loops=2))) == "Z"
    assert str(h1_sigma(parse_pd([], free_loops=1))) == "0"
    assert h1_sigma(parse_pd([], free_loops=4)).free_rank == 3


def test_h1_order_matches_det():
    rng = random.Random(23)
    for _ in range(60):
        d = random_braid_diagram(rng, max_crossings=6)
        grp = h1_sigma(d)
        det = link_det(d)
        if det:
            assert grp.order() == det
        else:
            assert grp.free_rank > 0


def test_h1_split_diagram():
    d = parse_pd(TREFOIL, free_loops=1)
    grp = h1_sigma(d)
    assert grp.free_rank == 1
    assert grp.invariant_factors == (3,)


def test_h1_split_pieces_in_one_smith_call(monkeypatch):
    # Z/3 + Z/2 is Z/6 only once the pieces' diagonals are read together
    import cubekh.branched as branched
    calls = []
    real = branched.cokernel_group
    monkeypatch.setattr(branched, "cokernel_group",
                        lambda a: calls.append(a) or real(a))
    hopf = [[a + 6 for a in c] for c in HOPF]
    grp = h1_sigma(parse_pd(TREFOIL + hopf, free_loops=1))
    assert grp.invariant_factors == (6,) and grp.free_rank == 2
    assert len(calls) == 1


# --- rank inequality -------------------------------------------------------------

def test_rank_inequality_unknot_trefoil():
    r = rank_inequality_check(parse_pd([], free_loops=1))
    assert (r.det, r.khr_mirror_rank, r.equality) == (1, 1, True)
    r = rank_inequality_check(parse_pd(TREFOIL))
    assert (r.det, r.khr_mirror_rank, r.equality) == (3, 3, True)


def test_rank_inequality_connected_sum():
    d = connect_sum(parse_pd(TREFOIL), parse_pd(TREFOIL))
    r = rank_inequality_check(d)
    assert (r.det, r.khr_mirror_rank) == (9, 9)


def check_mirror_reverses_khr(d):
    # the mirror's complex is the dual of d's, so its Khr at cube weight w
    # is d's at n - w, and rankcheck reads the mirror's rank off d's cube
    mirrored = khr_ranks(mirror(d))
    assert mirrored == {d.n - w: r for w, r in khr_ranks(d).items()}, d
    assert rank_inequality_check(d).khr_mirror_rank == sum(mirrored.values())


def test_mirror_reverses_khr_corpus():
    for d in corpus()[:300]:
        check_mirror_reverses_khr(d)


def test_mirror_reverses_khr_with_free_loops():
    rng = random.Random(37)
    cases = [Diagram([], free_loops=loops) for loops in range(3)]
    for _ in range(100):
        d = random_braid_diagram(rng, max_crossings=8)
        cases.append(Diagram(d.crossings, free_loops=d.free_loops + rng.randint(0, 2)))
    for d in cases:
        check_mirror_reverses_khr(d)


def test_rank_inequality_random():
    rng = random.Random(31)
    for _ in range(40):
        d = random_braid_diagram(rng, max_crossings=6)
        r = rank_inequality_check(d)
        assert r.holds


# --- QA certification --------------------------------------------------------------

def test_qa_unknot_leaf():
    cert = qa_certify(parse_pd([], free_loops=1))
    assert cert is not None and cert.is_leaf and cert.det == 1


def test_qa_hopf_triple():
    cert = qa_certify(parse_pd(HOPF))
    assert cert is not None and not cert.is_leaf
    assert cert.det == 2
    assert {c.det for c in cert.children} == {1}
    assert verify_certificate(cert)


def test_qa_trefoil_triple():
    cert = qa_certify(parse_pd(TREFOIL))
    assert cert is not None and cert.det == 3
    assert sorted(c.det for c in cert.children) == [1, 2]
    assert verify_certificate(cert)


def test_tampered_certificate_det_is_refused():
    # the search leaves the node's Euler sum kept on its diagram; the
    # recorded det is still checked against it, at the root and below
    cert = qa_certify(parse_pd(TREFOIL))
    assert verify_certificate(cert)
    assert not verify_certificate(cert._replace(det=cert.det + 2))
    for child in cert.children:
        assert not verify_certificate(child._replace(det=child.det + 1))


def test_qa_alternating_knots_through_six_crossings():
    for name, det in [("3_1", 3), ("4_1", 5), ("5_1", 5), ("5_2", 7),
                      ("6_1", 9), ("6_2", 11), ("6_3", 13)]:
        cert = qa_certify(small_knot(name))
        assert cert is not None, name
        assert cert.det == det
        assert verify_certificate(cert), name


def test_qa_split_unlink_unknown():
    assert qa_certify(parse_pd([], free_loops=2)) is None


def test_qa_budget_exhaustion():
    assert qa_certify(small_knot("6_3"), budget=2) is None


def qa_certify_without_failure_memo(d, budget, det_of):
    """The search as it was before failed nodes were memoized: only nodes
    with det 0, unknot leaves and certified nodes are kept."""
    memo = {}
    spent = [0]

    def search(diag):
        diag = simplify_greedy(diag)
        key = canonical_key(diag)
        if key in memo:
            return memo[key]
        if spent[0] >= budget:
            return None
        spent[0] += 1
        if diag.n == 0:
            memo[key] = QACertificate(diag, 1) if diag.free_loops == 1 else None
            return memo[key]
        det = det_of(diag)
        if det == 0:
            memo[key] = None
            return None
        for ci in range(diag.n):
            d0, d1 = smooth_crossing(diag, ci, 0), smooth_crossing(diag, ci, 1)
            det0, det1 = det_of(d0), det_of(d1)
            if det0 == 0 or det1 == 0 or det0 + det1 != det:
                continue
            c0 = search(d0)
            c1 = None if c0 is None else search(d1)
            if c1 is not None:
                memo[key] = QACertificate(diag, det, ci, (c0, c1))
                return memo[key]
        return None

    return search(d)


def test_failure_memo_keeps_verdicts_and_saves_determinants(monkeypatch):
    import cubekh.branched as br
    calls = []

    def counted(diag, max_crossings=None):
        calls.append(diag)
        return state_sum_det(diag, max_crossings=max_crossings)

    def det_calls(d, budget):
        calls.clear()
        old = qa_certify_without_failure_memo(d, budget, counted)
        old_calls = len(calls)
        calls.clear()
        monkeypatch.setattr(br, "state_sum_det", counted)
        assert qa_certify(d, budget=budget) == old
        monkeypatch.setattr(br, "state_sum_det", state_sum_det)
        # one determinant per canonical key within the call
        assert len({canonical_key(diag) for diag in calls}) == len(calls)
        return old_calls, len(calls)

    # certified verdicts and certificates on the corpus are unchanged
    for d in corpus():
        old_calls, new_calls = det_calls(d, 4000)
        assert new_calls <= old_calls
    # the qa_arith torus closures (s1 s2)^4 and (s1 s2)^5 are not certified
    for k in (4, 5):
        old_calls, new_calls = det_calls(braid_closure([1, 2] * k, 3), 20000)
        assert new_calls <= old_calls
    # a 9-crossing closure whose failed nodes the search meets again
    d = parse_pd([[3, 5, 4, 2], [5, 7, 6, 4], [1, 6, 9, 8], [9, 7, 11, 10],
                  [8, 10, 13, 12], [12, 13, 15, 14], [14, 15, 17, 16],
                  [16, 17, 18, 1], [11, 3, 2, 18]])
    assert det_calls(d, 20000) == (87, 10)


@pytest.mark.parametrize("name, det_evals", [("5_2", 5), ("6_3", 6)])
def test_qa_search_evaluates_one_determinant_per_node(monkeypatch, name, det_evals):
    # a child is formed on raw tuples into one Diagram and keyed once, and
    # its determinant is taken on it, once per canonical key: a child met
    # again, or searched after its determinant was taken, is not evaluated
    # again; with the parsed root, one Diagram is built per key taken
    import cubekh.branched as br
    calls, keyed, built = [], [], []

    def counted(diag, max_crossings=None):
        calls.append(diag)
        return state_sum_det(diag, max_crossings=max_crossings)

    def counted_key(diag):
        keyed.append(diag)
        return canonical_key(diag)

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    init = Diagram.__init__
    pd = [list(c) for c in small_knot(name).crossings]
    monkeypatch.setattr(br, "state_sum_det", counted)
    monkeypatch.setattr(br, "canonical_key", counted_key)
    monkeypatch.setattr(Diagram, "__init__", counted_init)
    cert = qa_certify(parse_pd(pd))
    keys = {"5_2": 9, "6_3": 11}[name]
    assert (len(calls), len(keyed), len(built)) == (det_evals, keys, keys)
    assert len({canonical_key(diag) for diag in calls}) == det_evals
    assert verify_certificate(cert)


def occurrences(cert, path=()):
    """The path of child indices to every occurrence of every node."""
    yield path
    for i, child in enumerate(cert.children):
        yield from occurrences(child, path + (i,))


def node_at(cert, path):
    """The node at path, in a certificate or in its JSON."""
    for i in path:
        cert = cert["children"][i] if isinstance(cert, dict) else cert.children[i]
    return cert


def replaced(cert, path, node):
    """cert with the one occurrence at path replaced by node; the nodes off
    the path stay shared."""
    if not path:
        return node
    kids = list(cert.children)
    kids[path[0]] = replaced(kids[path[0]], path[1:], node)
    return cert._replace(children=tuple(kids))


def from_json(node):
    return QACertificate(parse_pd(node["pd"], free_loops=node["free_loops"]),
                         node["det"], node.get("crossing"),
                         tuple(map(from_json, node.get("children", ()))))


def verify_every_occurrence(cert) -> bool:
    """verify_certificate as it was before equal subtrees shared a verdict."""
    if state_sum_det(cert.diagram) != cert.det:
        return False
    if cert.is_leaf:
        return cert.diagram.n == 0 and cert.diagram.free_loops == 1 and cert.det == 1
    c0, c1 = cert.children
    d0 = simplify_greedy(smooth_crossing(cert.diagram, cert.crossing, 0))
    d1 = simplify_greedy(smooth_crossing(cert.diagram, cert.crossing, 1))
    if {canonical_key(d0), canonical_key(d1)} != {canonical_key(c0.diagram),
                                                  canonical_key(c1.diagram)}:
        return False
    if c0.det == 0 or c1.det == 0 or c0.det + c1.det != cert.det:
        return False
    return verify_every_occurrence(c0) and verify_every_occurrence(c1)


def test_certificate_json_renders_each_distinct_node_once():
    cert = qa_certify(small_knot("6_3"))

    def expanded(node):
        out = {"pd": [list(c) for c in node.diagram.crossings],
               "free_loops": node.diagram.free_loops, "det": node.det}
        if not node.is_leaf:
            out["crossing"] = node.crossing
            out["children"] = [expanded(c) for c in node.children]
        return out

    blob = cert.to_json()
    assert json.dumps(blob, sort_keys=True) == json.dumps(expanded(cert), sort_keys=True)
    dicts = [node_at(blob, path) for path in occurrences(cert)]
    assert (len(dicts), len({id(x) for x in dicts})) == (25, 6)


def test_verify_checks_each_distinct_subtree_once(monkeypatch):
    # 6_3's certificate has 25 occurrences of 6 distinct nodes, shared as
    # one object each by the search and copied apart by a JSON round trip
    import cubekh.branched as br
    checked = []

    def counted(node):
        checked.append(node)
        return holds(node)

    holds = br._node_holds
    monkeypatch.setattr(br, "_node_holds", counted)
    cert = qa_certify(small_knot("6_3"))
    for c in (cert, from_json(cert.to_json())):
        checked.clear()
        assert verify_certificate(c)
        assert len(checked) == 6


@pytest.mark.parametrize("json_copy", [False, True], ids=["shared", "json"])
def test_one_tampered_occurrence_of_a_shared_node_is_refused(json_copy):
    # a node that is shared elsewhere, or equal to a node elsewhere, gets
    # its own verdict once its subtree differs anywhere below
    cert = qa_certify(small_knot("6_3"))
    if json_copy:
        cert = from_json(cert.to_json())
    for path in occurrences(cert):
        node = node_at(cert, path)
        bad = replaced(cert, path, node._replace(det=node.det + 1))
        assert not verify_certificate(bad)
        assert not verify_every_occurrence(bad)
        if not node.is_leaf:
            other = node._replace(crossing=(node.crossing + 1) % node.diagram.n)
            moved = replaced(cert, path, other)
            assert verify_certificate(moved) == verify_every_occurrence(moved)


def test_qa_certified_implies_thin_equality():
    rng = random.Random(41)
    found = 0
    for _ in range(40):
        d = random_braid_diagram(rng, max_crossings=6)
        cert = qa_certify(d, budget=4000)
        if cert is None:
            continue
        found += 1
        r = rank_inequality_check(d)
        assert r.equality, d
    assert found >= 10


def test_certificate_json_roundtrip():
    cert = qa_certify(parse_pd(TREFOIL))
    blob = cert.to_json()
    assert blob["det"] == 3 and "children" in blob


# --- oriented resolution filling -----------------------------------------------------

def _bands_join_filled_to_unfilled(rep) -> bool:
    """Every band joins two circles, one filled and one not."""
    return all(x != y and rep.filled[x] != rep.filled[y] for x, y in rep.bands)


def test_filling_unknot_kink():
    rep = oriented_resolution_filling(parse_pd([[1, 2, 2, 1]]))
    assert len(rep.circles) == 2
    assert _bands_join_filled_to_unfilled(rep)
    assert sum(rep.filled) == 1


def test_filling_trefoil():
    rep = oriented_resolution_filling(parse_pd(TREFOIL))
    assert len(rep.circles) == 2
    assert len(rep.bands) == 3
    assert _bands_join_filled_to_unfilled(rep)


def test_filling_figure_eight():
    rep = oriented_resolution_filling(small_knot("4_1"))
    assert len(rep.circles) == 3
    assert len(rep.bands) == 4
    assert _bands_join_filled_to_unfilled(rep)


def test_filling_zero_crossing():
    rep = oriented_resolution_filling(parse_pd([], free_loops=1))
    assert rep.bands == ()
    assert rep.filled == (True,)


def test_filling_corpus_head_bands():
    for d in corpus()[:50]:
        rep = oriented_resolution_filling(d)
        assert len(rep.bands) == d.n
        assert _bands_join_filled_to_unfilled(rep)


def test_filling_random_never_violates():
    rng = random.Random(51)
    for _ in range(200):
        d = random_braid_diagram(rng, max_crossings=7)
        assert _bands_join_filled_to_unfilled(oriented_resolution_filling(d))
