"""The dart table of `cubekh.diagram` against the reference versions in
diagram_oracle: components, arc heads, crossing signs, under-slot
normalisation, canonical keys and planar faces, on the acceptance corpus,
every smoothing of its diagrams and the greedy simplification of each, and
on random braid closures with free loops; and canonical keys under
relabelling.  The oracle names darts as (crossing, slot) pairs; its heads
and faces are converted to the dart ints x = 4 * crossing + slot that
`Diagram.arc_head` and `PlanarMap` hold before they are compared.  Every
child a QA node forms (`simplified_smoothing`, on raw tuples) is checked
against the oracle's per-move path, one rebuilt Diagram per move."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import diagram_oracle as oracle
from cubekh.acceptance import corpus
from cubekh.corpus import braid_closure, random_braid_diagram
from cubekh.diagram import (
    Diagram,
    canonical_key,
    normalize_under_slots,
    planar_map,
    simplified_smoothing,
    simplify_greedy,
    smooth_crossing,
)


def dart(pair):
    ci, s = pair
    return 4 * ci + s


def check_against_oracle(d):
    comps, heads, signs = oracle.arc_heads_and_signs(d.crossings, d.orientation)
    assert d.components == comps
    assert sorted(heads) == list(range(1, d.arc_count + 1))
    assert d.arc_head == [-1] + [dart(heads[a]) for a in sorted(heads)]
    assert d.signs == signs
    assert canonical_key(d) == oracle.canonical_key(d)
    pm = planar_map(d)
    faces, face_of = oracle.planar_faces(d)
    assert pm.faces == tuple(tuple(map(dart, f)) for f in faces)
    oracle_face_of = [-1] * (4 * d.n)
    for pair, f in face_of.items():
        oracle_face_of[dart(pair)] = f
    assert pm.face_of == oracle_face_of
    # every other crossing turned by two slots, as surgery on tuples leaves it
    turned = [(c[2], c[3], c[0], c[1]) if ci % 2 else c
              for ci, c in enumerate(d.crossings)]
    assert (normalize_under_slots(turned, d.free_loops)
            == oracle.normalize_under_slots(turned, d.free_loops))


def with_smoothings(d):
    yield d
    yield simplify_greedy(d)
    for ci in range(d.n):
        for bit in (0, 1):
            s = smooth_crossing(d, ci, bit)
            yield s
            yield simplify_greedy(s)


CHUNK = 100


@pytest.mark.parametrize("chunk", range(5))
def test_corpus_diagram_layer_matches_oracle(chunk):
    for d in corpus()[chunk * CHUNK:(chunk + 1) * CHUNK]:
        for e in with_smoothings(d):
            check_against_oracle(e)


@given(seed=st.integers(0, 2**32 - 1), free_loops=st.integers(0, 2))
def test_random_braid_diagram_layer_matches_oracle(seed, free_loops):
    rng = random.Random(seed)
    d = random_braid_diagram(rng, max_crossings=9)
    flags = [rng.choice((1, -1)) for _ in d.components]
    check_against_oracle(Diagram(d.crossings, free_loops=free_loops,
                                 orientation=flags))


def same(got, want):
    return (got.crossings, got.free_loops) == (want.crossings, want.free_loops)


def check_children_against_oracle(d):
    """d's simplification and every child of d, each crossing and both
    bits, against the per-move oracle, and their canonical keys."""
    assert same(simplify_greedy(d), oracle.simplify_greedy(d))
    assert canonical_key(d) == oracle.canonical_key(d)
    for ci in range(d.n):
        for bit in (0, 1):
            smoothed = oracle.smooth_crossing(d, ci, bit)
            assert same(smooth_crossing(d, ci, bit), smoothed)
            child = simplified_smoothing(d, ci, bit)
            assert same(child, oracle.simplify_greedy(smoothed))
            assert canonical_key(child) == oracle.canonical_key(child)


def test_first_corpus_children_match_per_move_oracle():
    for d in corpus()[:100]:
        check_children_against_oracle(d)


@given(seed=st.integers(0, 2**32 - 1), free_loops=st.integers(0, 2))
def test_random_link_children_match_per_move_oracle(seed, free_loops):
    rng = random.Random(seed)
    d = random_braid_diagram(rng, max_crossings=9)
    while len(d.components) < 2:
        d = random_braid_diagram(rng, max_crossings=9)
    check_children_against_oracle(Diagram(d.crossings, free_loops=free_loops))


@pytest.mark.parametrize("word", [[1, -2] * 7, [1, 2] * 5],
                         ids=["s1_s2inv_7", "s1_s2_5"])
def test_tie_heavy_closure_keys_match_oracle(word):
    # symmetric closures, where many walk starts tie on their least tuple
    check_children_against_oracle(braid_closure(word, 3))


def relabelled(d, rng):
    """d with its arcs renamed at random and its crossings reordered."""
    name = list(range(1, d.arc_count + 1))
    rng.shuffle(name)
    crossings = [tuple(name[a - 1] for a in c) for c in d.crossings]
    rng.shuffle(crossings)
    return Diagram(crossings, free_loops=d.free_loops)


@given(seed=st.integers(0, 2**32 - 1), free_loops=st.integers(0, 2))
def test_canonical_key_invariant_under_relabelling(seed, free_loops):
    # the key numbers the arcs of the other components by label after the
    # walked one, so renaming arcs keeps it for knots only
    rng = random.Random(seed)
    d = random_braid_diagram(rng, max_crossings=9)
    while len(d.components) != 1:
        d = random_braid_diagram(rng, max_crossings=9)
    d = Diagram(d.crossings, free_loops=free_loops)
    assert canonical_key(relabelled(d, rng)) == canonical_key(d)


@given(seed=st.integers(0, 2**32 - 1), free_loops=st.integers(0, 2))
def test_canonical_key_invariant_under_crossing_order(seed, free_loops):
    rng = random.Random(seed)
    d = random_braid_diagram(rng, max_crossings=9)
    crossings = list(d.crossings)
    rng.shuffle(crossings)
    assert (canonical_key(Diagram(crossings, free_loops=free_loops))
            == canonical_key(Diagram(d.crossings, free_loops=free_loops)))
