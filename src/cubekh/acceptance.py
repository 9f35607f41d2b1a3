"""Release acceptance checks.

Each criterion is a function returning (passed, detail).  The same list
drives tests/test_acceptance.py and the CLI selftest command, so the release
gate is a single source of truth.  All tolerances are exact; a failure here
is a correctness bug, not a calibration issue.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

from .branched import (
    link_det,
    oriented_resolution_filling,
    qa_certify,
    rank_inequality_check,
    verify_certificate,
)
from .complexes import homology_ranks
from .corpus import (
    diagram_corpus,
    random_compatible_marking,
    small_knot,
)
from .diagram import ArcMarking, Diagram, parse_pd
from .errors import CubekhError, InternalInconsistency
from .khovanov import (
    _assemble,
    _twisted,
    build_cube,
    khr_ranks,
    state_sum_det,
    vertical_then_horizontal_ranks,
    weight_ss,
    weight_totals,
)
from .linalg import det_bareiss
from .rgraded import (
    check_double_mapping_cone,
    random_lemma_instance,
    random_violating_instance,
)
from .surgery import (
    FramedLinkPresentation,
    PlumbingGraph,
    h1_order,
    large_surgery_family,
    plumbing_lspace_check,
    surgered_h1,
    triad_additivity_check,
)

CORPUS_SEED = 20240
CORPUS_SIZE = 500
CORPUS_MAX_CROSSINGS = 7

_corpus_cache: list | None = None


def corpus():
    global _corpus_cache
    if _corpus_cache is None:
        _corpus_cache = diagram_corpus(CORPUS_SEED, CORPUS_SIZE,
                                       CORPUS_MAX_CROSSINGS)
    return _corpus_cache


def _basepoint_classes(cube) -> list[int]:
    """One representative arc per circle-signature class, its least arc,
    ascending: arc 1 comes first when d has arcs."""
    seen = {}
    for arc in range(1, cube.diagram.arc_count + 1):
        sig = tuple(state.arc_to_circle[arc] for state in cube.states)
        seen.setdefault(sig, arc)
    return sorted(seen.values())


def _relabelled(d: Diagram, a: int) -> Diagram:
    """d with each arc label x moved to ((x - a) mod 2n) + 1, so that arc a
    is arc 1: marking arc a of d is marking arc 1 of this diagram, as every
    reduced complex does.  The crossings keep their order; the orientation
    is the natural one, which no (cube weight, q) table reads."""
    n2 = d.arc_count
    return Diagram([tuple((x - a) % n2 + 1 for x in c) for c in d.crossings],
                   free_loops=d.free_loops)


def criterion_1_khovanov_engine():
    """Khr totals equal det for unknot, Hopf link, trefoil, figure eight."""
    expected = {"unknot": 1, "hopf": 2, "3_1": 3, "4_1": 5}
    details = []
    for name, want in expected.items():
        t0 = time.time()
        d = small_knot(name)
        total = sum(khr_ranks(d).values())
        det_g = link_det(d)
        det_s = state_sum_det(d)
        elapsed = time.time() - t0
        if not (total == det_g == det_s == want):
            return False, (f"{name}: khr={total} goeritz={det_g} "
                           f"statesum={det_s} expected={want}")
        if elapsed > 1.0:
            return False, f"{name}: took {elapsed:.2f}s (budget 1s)"
        details.append(f"{name}={total}")
    return True, ", ".join(details)


def criterion_2_complex_validity():
    """d^2 = 0, horizontal/vertical commutation, basepoint independence."""
    rng = random.Random(CORPUS_SEED + 2)
    t0 = time.time()
    for d in corpus():
        cube = build_cube(d)               # serves kh, twisted and Khr at arc 1
        _assemble(cube, False)             # kh; validates d^2 = 0 at construction
        m = random_compatible_marking(d, rng)
        _twisted(cube, m)                  # validates squares and commutation
        khr = homology_ranks(_assemble(cube, True))
        # every other basepoint class, as arc 1 of its relabelling
        for arc in _basepoint_classes(cube)[1:]:
            if homology_ranks(_assemble(build_cube(_relabelled(d, arc)), True)) != khr:
                return False, f"basepoint dependence on {d!r}"
    elapsed = time.time() - t0
    if elapsed > 300:
        return False, f"took {elapsed:.0f}s (budget 300s)"
    return True, f"{len(corpus())} diagrams in {elapsed:.0f}s"


def criterion_3_twisted_consistency():
    """Trivial marking gives Khr; the two dotted constructions agree."""
    rng = random.Random(CORPUS_SEED + 3)
    for d in corpus():
        cube = build_cube(d)
        tw0 = _twisted(cube, ArcMarking.zero(d))
        tw = _twisted(cube, random_compatible_marking(d, rng))
        try:
            # each call checks the E^2 page against the even-vertex homology
            hd0 = vertical_then_horizontal_ranks(tw0)
            vertical_then_horizontal_ranks(tw)
        except InternalInconsistency:
            return False, f"dotted constructions disagree on {d!r}"
        if weight_totals(hd0) != weight_totals(homology_ranks(_assemble(cube, True))):
            return False, f"trivial marking mismatch on {d!r}"
    return True, f"{len(corpus())} diagrams, trivial + random markings"


def criterion_4_spectral_engine():
    """E^1, E^2 identifications, E-infinity totals, monotone pages, bound."""
    rng = random.Random(CORPUS_SEED + 4)
    for d in corpus():
        m = random_compatible_marking(d, rng)
        pages = weight_ss(d, m)            # asserts E^1, E^2, E-infinity totals
        for r in range(1, len(pages.pages)):
            for key, v in pages.pages[r].items():
                if v > pages.pages[r - 1].get(key, 0):
                    return False, f"non-monotone page ranks on {d!r}"
        if pages.stabilization_index > d.n + 1:
            return False, f"stabilization index {pages.stabilization_index} on {d!r}"
    return True, f"{len(corpus())} diagrams with random markings"


def criterion_5_rank_inequality():
    """det <= reduced mirror rank everywhere; equality on certified members."""
    certified = 0
    for d in corpus():
        rep = rank_inequality_check(d)
        if not rep.holds:
            return False, f"inequality fails on {d!r}"
        cert = qa_certify(d, budget=4000)
        if cert is not None:
            certified += 1
            if not rep.equality:
                return False, f"certified but not thin: {d!r}"
    return True, f"{len(corpus())} diagrams, {certified} certified equal"


def criterion_6_qa_certifier():
    """Certificates for the alternating knots through six crossings."""
    t0 = time.time()
    expected = {"3_1": 3, "4_1": 5, "5_1": 5, "5_2": 7,
                "6_1": 9, "6_2": 11, "6_3": 13}
    for name, det in expected.items():
        cert = qa_certify(small_knot(name))
        if cert is None or cert.det != det:
            return False, f"{name}: no certificate"
        if not verify_certificate(cert):
            return False, f"{name}: certificate fails re-verification"
    elapsed = time.time() - t0
    if elapsed > 60:
        return False, f"took {elapsed:.0f}s (budget 60s)"
    return True, f"7 knots certified and re-verified in {elapsed:.1f}s"


def criterion_7_surgery_arithmetic():
    """|H1| vs determinant on 1000 presentations; lens row; chi bookkeeping;
    the exact triangle's |H1| triad is additive at every component."""
    rng = random.Random(CORPUS_SEED + 7)
    for _ in range(1000):
        mdim = rng.randint(1, 5)
        a = [[0] * mdim for _ in range(mdim)]
        for i in range(mdim):
            for j in range(i, mdim):
                a[i][j] = a[j][i] = rng.randint(-9, 9)
        pres = FramedLinkPresentation.from_lists(a)
        v = [rng.choice([0, 1, "inf"]) for _ in range(mdim)]
        g = surgered_h1(pres, v)
        det = abs(det_bareiss(pres.filled_matrix(v)))
        if (g.order() or 0) != det:
            return False, f"order/determinant mismatch on {a}, {v}"
        if (h1_order(pres, v) == 0) != (g.free_rank > 0):
            return False, f"chi bookkeeping wrong on {a}, {v}"
        # the filled determinant is affine in the diagonal entry, so the
        # 1-filling's is the sum of the 0- and infinity-fillings' up to sign
        for k in range(mdim):
            if not triad_additivity_check(pres, k).additive:
                return False, f"triad not additive on {a}, component {k}"
    for p in range(1, 51):
        pres = FramedLinkPresentation.from_lists([[p]])
        if h1_order(pres, [0]) != p:
            return False, f"lens space order {p} wrong"
    return True, "1000 presentations with additive triads + lens spaces p <= 50"


def criterion_8_plumbing():
    """Lens seeds, A_n chains, and derivation re-verification."""
    for p in range(1, 13):
        v = plumbing_lspace_check(PlumbingGraph.from_lists([p], []))
        if v.verdict != "certified" or v.h1_order != p or not v.reverify():
            return False, f"single vertex {p} failed"
    for n in range(1, 11):
        g = PlumbingGraph.from_lists([2] * n, [[i, i + 1] for i in range(n - 1)])
        v = plumbing_lspace_check(g)
        if v.verdict != "certified" or v.h1_order != n + 1 or not v.reverify():
            return False, f"A_{n} chain failed"
    for args in ((2, 3, 5), (2, 3, 9), (3, 4, 20)):
        v = large_surgery_family(*args)
        if v.verdict != "certified" or not v.reverify():
            return False, f"large surgery {args} failed"
    return True, "lens seeds, A_n chains n <= 10, large surgery chains"


def criterion_9_double_cone():
    """200 positive instances hold; 50 negative controls name hypothesis 3."""
    t0 = time.time()
    rng = random.Random(CORPUS_SEED + 9)
    for i in range(200):
        e0, e1, e2, f, g, h = random_lemma_instance(rng, 1)
        v = check_double_mapping_cone(e0, e1, e2, f, g, h, 1)
        if v.failed_hypothesis is not None or v.quasi_isomorphism is not True:
            return False, f"positive instance {i} failed: {v}"
    for i in range(50):
        e0, e1, e2, f, g, h = random_violating_instance(rng, 1)
        v = check_double_mapping_cone(e0, e1, e2, f, g, h, 1)
        if v.failed_hypothesis is None or not v.failed_hypothesis.startswith("(3)"):
            return False, f"negative control {i} not rejected as (3): {v}"
    elapsed = time.time() - t0
    if elapsed > 30:
        return False, f"took {elapsed:.0f}s (budget 30s)"
    return True, f"200 positive + 50 negative in {elapsed:.1f}s"


def criterion_10_filling():
    """Band condition of the oriented-resolution filling across the corpus."""
    for d in corpus():
        try:
            # raises on the first band joining two circles of the same fill
            oriented_resolution_filling(d)
        except InternalInconsistency:
            return False, f"band condition violated on {d!r}"
    return True, f"{len(corpus())} diagrams, zero violations"


CRITERIA = (
    ("1", "Khovanov engine ranks = det on unknot/Hopf/trefoil/figure-eight",
     criterion_1_khovanov_engine),
    ("2", "d^2 = 0, commutation, basepoint independence over the corpus",
     criterion_2_complex_validity),
    ("3", "twisted/dotted consistency over the corpus",
     criterion_3_twisted_consistency),
    ("4", "spectral sequence page identifications over the corpus",
     criterion_4_spectral_engine),
    ("5", "determinant/rank inequality with equality on certified members",
     criterion_5_rank_inequality),
    ("6", "quasi-alternating certificates for knots through six crossings",
     criterion_6_qa_certifier),
    ("7", "surgery arithmetic vs determinant oracle",
     criterion_7_surgery_arithmetic),
    ("8", "plumbing and large-surgery certification",
     criterion_8_plumbing),
    ("9", "double mapping cone criterion on randomized instances",
     criterion_9_double_cone),
    ("10", "oriented-resolution filling band condition",
     criterion_10_filling),
)


class CriterionResult(NamedTuple):
    number: str
    name: str
    passed: bool
    detail: str


def run_all() -> list[CriterionResult]:
    """Every criterion's result; one whose check raises a library error
    fails with the error's type and message, and the others still run."""
    results = []
    for number, name, fn in CRITERIA:
        try:
            passed, detail = fn()
        except CubekhError as e:
            passed, detail = False, f"{type(e).__name__}: {e}"
        results.append(CriterionResult(number, name, passed, detail))
    return results
