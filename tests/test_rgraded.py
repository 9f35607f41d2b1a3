"""Double mapping cone harness: hypothesis detection and the criterion on
randomized positive and negative instances."""

import hashlib
import random
from fractions import Fraction

import pytest

import cubekh.rgraded as rgraded
from cubekh import complexes
from cubekh.errors import NotChainMap
from cubekh.rgraded import (
    RGradedComplex,
    RGradedMap,
    check_double_mapping_cone,
    random_lemma_instance,
    random_violating_instance,
)
from linalg_helpers import f2_identity


def test_identity_with_zero_e2():
    grades = {0: [0], 1: [Fraction(2)]}
    d = {0: f2_identity(1)}
    e0 = RGradedComplex(grades, d)
    e1 = RGradedComplex(grades, d)
    e2 = RGradedComplex({}, {})
    f = RGradedMap(e0, e1, {k: f2_identity(1) for k in (0, 1)})
    g = RGradedMap(e1, e2, {})
    h = RGradedMap(e0, e2, {}, hdeg=-1)
    v = check_double_mapping_cone(e0, e1, e2, f, g, h, 1)
    assert v.failed_hypothesis is None
    assert v.quasi_isomorphism is True


def test_violating_differential_order_detected():
    # differential shift below 2*eps trips hypothesis (1)
    e0 = RGradedComplex({0: [0], 1: [1]}, {0: f2_identity(1)})
    e2 = RGradedComplex({}, {})
    f = RGradedMap(e0, e0, {k: f2_identity(1) for k in (0, 1)})
    g = RGradedMap(e0, e2, {})
    h = RGradedMap(e0, e2, {}, hdeg=-1)
    v = check_double_mapping_cone(e0, e0, e2, f, g, h, 1)
    assert v.failed_hypothesis == "(1) differential order"
    assert v.quasi_isomorphism is None


def test_order_decomposition_violation_detected():
    # a map entry with shift in [eps, 2*eps) cannot be split as required
    e0 = RGradedComplex({0: [0]}, {})
    e1 = RGradedComplex({0: [Fraction(3, 2)]}, {})
    e2 = RGradedComplex({}, {})
    f = RGradedMap(e0, e1, {0: f2_identity(1)})
    g = RGradedMap(e1, e2, {})
    h = RGradedMap(e0, e2, {}, hdeg=-1)
    v = check_double_mapping_cone(e0, e1, e2, f, g, h, 1)
    assert v.failed_hypothesis == "(2) order decomposition"


EPS = Fraction(1, 3)
TINY = Fraction(1, 1000)


@pytest.mark.parametrize("shift,failed", [
    (2 * EPS, None),                                # tail window: closed at 2 eps
    (2 * EPS - TINY, "(1) differential order"),     # just below it
])
def test_differential_window_ends(shift, failed):
    e = RGradedComplex({0: [0], 1: [shift]}, {0: f2_identity(1)})
    empty = RGradedComplex({}, {})
    f = RGradedMap(e, e, {k: f2_identity(1) for k in (0, 1)})
    v = check_double_mapping_cone(e, e, empty, f, RGradedMap(e, empty, {}),
                                  RGradedMap(e, empty, {}, hdeg=-1), EPS)
    assert v.failed_hypothesis == failed


@pytest.mark.parametrize("shift,failed", [
    (Fraction(0), None),                            # leading window: closed at 0
    (EPS - TINY, None),
    (EPS, "(2) order decomposition"),               # open at eps
    (-TINY, "(2) order decomposition"),
])
def test_f_leading_window_ends(shift, failed):
    e0 = RGradedComplex({0: [0]}, {})
    e1 = RGradedComplex({0: [shift]}, {})
    empty = RGradedComplex({}, {})
    f = RGradedMap(e0, e1, {0: f2_identity(1)})
    v = check_double_mapping_cone(e0, e1, empty, f, RGradedMap(e1, empty, {}),
                                  RGradedMap(e0, empty, {}, hdeg=-1), EPS)
    assert v.failed_hypothesis == failed


@pytest.mark.parametrize("shift,failed", [
    (Fraction(0), None),                            # g's leading window is {0}
    (TINY, "(2) order decomposition"),
])
def test_g_zero_window(shift, failed):
    e1 = RGradedComplex({0: [0]}, {})
    e2 = RGradedComplex({0: [shift]}, {})
    empty = RGradedComplex({}, {})
    g = RGradedMap(e1, e2, {0: f2_identity(1)})
    v = check_double_mapping_cone(empty, e1, e2, RGradedMap(empty, e1, {}), g,
                                  RGradedMap(empty, e2, {}, hdeg=-1), EPS)
    assert v.failed_hypothesis == failed


def test_random_positive_instances():
    rng = random.Random(2024)
    for _ in range(200):
        e0, e1, e2, f, g, h = random_lemma_instance(rng, 1)
        v = check_double_mapping_cone(e0, e1, e2, f, g, h, 1)
        assert v.failed_hypothesis is None
        assert v.quasi_isomorphism is True


def test_random_negative_controls():
    rng = random.Random(2025)
    for _ in range(50):
        e0, e1, e2, f, g, h = random_violating_instance(rng, 1)
        v = check_double_mapping_cone(e0, e1, e2, f, g, h, 1)
        assert v.failed_hypothesis is not None
        assert v.failed_hypothesis.startswith("(3)")
        assert v.quasi_isomorphism is None


def test_rational_epsilon():
    rng = random.Random(7)
    eps = Fraction(1, 3)
    e0, e1, e2, f, g, h = random_lemma_instance(rng, eps)
    v = check_double_mapping_cone(e0, e1, e2, f, g, h, eps)
    assert v.failed_hypothesis is None and v.quasi_isomorphism is True


def _check(e0, e1, e2, f, g, h, eps=1):
    return check_double_mapping_cone(e0, e1, e2, f, g, h, eps).failed_hypothesis


def _two_term():
    # one generator in degrees 0 and 1, joined by a differential of shift 2
    return RGradedComplex({0: [0], 1: [2]}, {0: f2_identity(1)})


def test_chain_map_failures_detected():
    e, empty = _two_term(), RGradedComplex({}, {})
    one = f2_identity(1)
    h = RGradedMap(e, empty, {}, hdeg=-1)
    # f = identity in degree 0 only: d f_0 != f_1 d
    f = RGradedMap(e, e, {0: one})
    assert _check(e, e, empty, f, RGradedMap(e, empty, {}), h) == "chain-maps"
    # g the same way, after an f that is a chain map
    f = RGradedMap(e, e, {0: one, 1: one})
    h = RGradedMap(e, e, {}, hdeg=-1)
    assert _check(e, e, e, f, RGradedMap(e, e, {0: one}), h) == "chain-maps"


def _cone_cells(src, tgt) -> dict:
    cells = {(-1, k): n for k, n in src.dims.items()}
    cells.update(((0, k), n) for k, n in tgt.dims.items())
    return cells


@pytest.mark.parametrize("which", ["f", "g"])
def test_chain_map_of_nonzero_degree_refused(which):
    e, empty = _two_term(), RGradedComplex({}, {})
    one = f2_identity(1)
    f = RGradedMap(e, e, {0: one, 1: one})
    g = RGradedMap(e, empty, {})
    h = RGradedMap(e, empty, {}, hdeg=-1)
    if which == "f":
        f = RGradedMap(e, e, {0: one}, hdeg=1)
    else:
        g = RGradedMap(e, empty, {}, hdeg=1)
    with pytest.raises(NotChainMap, match="^chain map check requires degree 0$"):
        _check(e, e, empty, f, g, h)


def test_positive_check_builds_each_cone_once(monkeypatch):
    # Cone(f), Cone(g) and Cone((h, g)), one total complex each; the
    # conclusion is the homology of the last, the cone whose build checked
    # the nullhomotopy
    built, ranked = [], []
    real_total, real_ranks = complexes.total_complex, rgraded.homology_ranks

    def counted(dims, d_h, d_v):
        out = real_total(dims, d_h, d_v)
        built.append((dims, out[0]))
        return out

    monkeypatch.setattr(complexes, "total_complex", counted)
    monkeypatch.setattr(rgraded, "homology_ranks",
                        lambda c: ranked.append(c) or real_ranks(c))
    e0, e1, e2, f, g, h = random_lemma_instance(random.Random(2024), 1)
    v = check_double_mapping_cone(e0, e1, e2, f, g, h, 1)
    assert v == (None, True)
    cone_f = built[0][1]
    assert [dims for dims, _ in built] == [
        _cone_cells(src, tgt) for src, tgt in ((e0, e1), (e1, e2), (cone_f, e2))]
    assert ranked == [built[2][1]]


def test_nullhomotopy_failures_detected():
    point = RGradedComplex({0: [0]}, {})
    one = {0: f2_identity(1)}
    f = RGradedMap(point, point, one)
    g = RGradedMap(point, point, one)
    # g f = identity, while d h + h d = 0 for every h of degree -1
    h = RGradedMap(point, point, {}, hdeg=-1)
    assert _check(point, point, point, f, g, h) == "nullhomotopy"
    # a map of degree 0 is no nullhomotopy, even on a positive instance
    e0, e1, e2, f, g, _ = random_lemma_instance(random.Random(2024), 1)
    assert _check(e0, e1, e2, f, g, RGradedMap(e0, e2, {}, hdeg=0)) == "nullhomotopy"


def test_exactness_failures_detected():
    point, empty = RGradedComplex({0: [0]}, {}), RGradedComplex({}, {})
    # f = 0 on a nonzero E0
    f = RGradedMap(point, point, {})
    g = RGradedMap(point, empty, {})
    h = RGradedMap(point, empty, {}, hdeg=-1)
    assert _check(point, point, empty, f, g, h) == "(3) exactness (f0 not injective)"
    # g = 0 onto a nonzero E2
    f = RGradedMap(empty, point, {})
    g = RGradedMap(point, point, {})
    h = RGradedMap(empty, point, {}, hdeg=-1)
    assert _check(empty, point, point, f, g, h) == "(3) exactness (g0 not surjective)"


def _instance_bytes(instance) -> bytes:
    """The grades and matrices of an instance (E0, E1, E2, f, g, h)."""
    def cx(c):
        return (sorted((k, tuple(map(str, v))) for k, v in c.grades.items()),
                sorted((k, m.nrows, m.ncols, m.rows) for k, m in c.differentials.items()))

    def mp(m):
        return m.hdeg, sorted((k, b.nrows, b.ncols, b.rows) for k, b in m.blocks.items())

    e0, e1, e2, f, g, h = instance
    return repr((cx(e0), cx(e1), cx(e2), mp(f), mp(g), mp(h))).encode()


def _digest(build) -> str:
    out = hashlib.sha256()
    for seed in (2024, 2025):
        for eps in (1, Fraction(1, 3)):
            rng = random.Random(seed)
            for _ in range(20):
                out.update(_instance_bytes(build(rng, eps)))
    return out.hexdigest()


@pytest.mark.parametrize("build, digest", [
    (random_lemma_instance,
     "6385156e49ffcef5076d387e62c552477fc1feada3c0a7ffeb9e40839d0542de"),
    (random_violating_instance,
     "7d9b106842d54a9713c388ef91e17b15654445b65b55e1207cf7bd5d3e00868c"),
], ids=["lemma", "violating"])
def test_random_instances_are_pinned(build, digest):
    # the first 20 instances at seeds 2024 and 2025, eps 1 and 1/3: the
    # builders keep drawing the population the acceptance gate checks
    assert _digest(build) == digest


def test_criterion_9_instances_are_pinned():
    # the 250 instances acceptance criterion 9 draws at CORPUS_SEED + 9, 200
    # lemma instances and then 50 negative controls, all at eps 1
    from cubekh.acceptance import CORPUS_SEED
    out = hashlib.sha256()
    rng = random.Random(CORPUS_SEED + 9)
    for build, count in ((random_lemma_instance, 200), (random_violating_instance, 50)):
        for _ in range(count):
            out.update(_instance_bytes(build(rng, 1)))
    assert out.hexdigest() == (
        "d100fd06c9e3f540e08512ba3ef9e84bcdd069370203ff735bacba459b427552")
