"""Diagram generators: braid closures, rational links, corpus determinism."""

import hashlib
import random

import pytest

from cubekh.acceptance import CORPUS_MAX_CROSSINGS, CORPUS_SEED
from cubekh.corpus import (
    braid_closure,
    diagram_corpus,
    random_braid_diagram,
    random_compatible_marking,
    rational_link,
    small_knot,
)
from cubekh.errors import MalformedPD
from cubekh.khovanov import state_sum_det
from det_oracle import continued_fraction_numerator


def test_braid_closure_basic():
    d = braid_closure([1, 1, 1], 2)
    assert d.n == 3
    assert len(d.components) + d.free_loops == 1
    assert state_sum_det(d) == 3  # (2,3) torus knot


def test_braid_closure_signs():
    d = braid_closure([1, 1], 2)
    assert d.signs == (1, 1)
    d = braid_closure([-1, -1], 2)
    assert d.signs == (-1, -1)


def test_braid_closure_untouched_strand_is_loop():
    assert braid_closure([1], 3).free_loops == 1
    assert braid_closure([1, 2], 3).free_loops == 0


def test_braid_closure_validation():
    with pytest.raises(MalformedPD):
        braid_closure([2], 2)
    with pytest.raises(MalformedPD):
        braid_closure([0], 2)


def test_rational_fraction_numerators():
    assert continued_fraction_numerator([3]) == 3
    assert continued_fraction_numerator([2, 2]) == 5
    assert continued_fraction_numerator([2, 1, 1, 2]) == 13


def test_rational_links_alternating_dets():
    for coeffs in ([2], [3], [2, 2], [5], [3, 2], [4, 2], [3, 1, 2], [2, 1, 1, 2]):
        d = rational_link(coeffs)
        assert d.n == sum(coeffs)
        assert state_sum_det(d) == continued_fraction_numerator(coeffs)


def test_small_knot_names():
    assert small_knot("unknot").free_loops == 1
    assert small_knot("trefoil").n == 3
    with pytest.raises(KeyError):
        small_knot("9_42")


def test_corpus_deterministic_and_distinct():
    a = diagram_corpus(7, 40, 6)
    b = diagram_corpus(7, 40, 6)
    assert [d.crossings for d in a] == [d.crossings for d in b]
    assert len({(d.crossings, d.free_loops) for d in a}) == 40
    assert all(d.n <= 6 and len(d.pd_components()) <= 1 for d in a)


def test_acceptance_corpus_is_pinned():
    # braid closures and rational diagrams glue and number their arcs with
    # the same helpers that form smoothings, so the corpus pins them too
    h = hashlib.sha256()
    for d in diagram_corpus(CORPUS_SEED, 500, CORPUS_MAX_CROSSINGS):
        h.update(repr((d.crossings, d.free_loops)).encode() + b"\n")
    assert h.hexdigest() == (
        "f2eda63e0ebb5b41ebae9a1dc3413f8eec1b7060f5980ba54cdee523011e04ff")


def test_random_marking_compatibility():
    rng = random.Random(3)
    for _ in range(50):
        d = random_braid_diagram(rng, max_crossings=6)
        m = random_compatible_marking(d, rng)
        assert m.fault(d) is None
        assert len(m.bits) == d.arc_count
