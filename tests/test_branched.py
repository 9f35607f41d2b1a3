"""Branched double cover arithmetic: two determinant oracles, H1 groups,
rank inequality, QA certificates, oriented-resolution filling."""

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
    mirror,
    parse_pd,
    simplify_greedy,
    smooth_crossing,
)
from cubekh.khovanov import khr_ranks, state_sum_det
from diagram_helpers import connect_sum

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
    assert det_calls(d, 20000) == (87, 35)


@pytest.mark.parametrize("name, det_evals", [("5_2", 9), ("6_3", 11)])
def test_qa_search_evaluates_one_determinant_per_node(monkeypatch, name, det_evals):
    # a child's determinant is taken on its raw smoothing, before the child
    # is simplified and searched, and is not evaluated again there
    import cubekh.branched as br
    calls = []

    def counted(diag, max_crossings=None):
        calls.append(diag)
        return state_sum_det(diag, max_crossings=max_crossings)

    monkeypatch.setattr(br, "state_sum_det", counted)
    cert = qa_certify(small_knot(name))
    assert len(calls) == det_evals
    assert verify_certificate(cert)


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

def test_filling_unknot_kink():
    rep = oriented_resolution_filling(parse_pd([[1, 2, 2, 1]]))
    assert len(rep.circles) == 2
    assert rep.band_condition_holds()
    assert sum(rep.filled) == 1


def test_filling_trefoil():
    rep = oriented_resolution_filling(parse_pd(TREFOIL))
    assert len(rep.circles) == 2
    assert len(rep.bands) == 3
    assert rep.band_condition_holds()


def test_filling_figure_eight():
    rep = oriented_resolution_filling(small_knot("4_1"))
    assert len(rep.circles) == 3
    assert len(rep.bands) == 4
    assert rep.band_condition_holds()


def test_filling_zero_crossing():
    rep = oriented_resolution_filling(parse_pd([], free_loops=1))
    assert rep.bands == ()


def test_filling_random_never_violates():
    rng = random.Random(51)
    for _ in range(200):
        d = random_braid_diagram(rng, max_crossings=7)
        assert oriented_resolution_filling(d).band_condition_holds()
