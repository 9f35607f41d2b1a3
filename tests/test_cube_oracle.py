"""The one-pass cube layer against the reference versions in cube_oracle:
resolution, edge classification, and edge maps on the full basis and on
the reduced basis of every basepoint class, all from one cube per diagram,
the even-vertex dotted homology read off the twisted complex against
its own pass over the cube, and the kh, Khr and twisted differentials
built from one edge map per shape against the per-edge assembly (kh and
Khr block by block in (w, q) cells), on the first acceptance-corpus
diagrams and on random braid closures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cube_oracle as oracle
from cubekh.acceptance import CORPUS_MAX_CROSSINGS, CORPUS_SEED, _basepoint_classes
from cubekh.corpus import diagram_corpus, random_braid_diagram, random_compatible_marking
from cubekh.diagram import ArcMarking, Diagram
from cubekh.errors import BadCircleMap
from cubekh.khovanov import (
    _assemble,
    _hd_even,
    _marked_circles,
    _twisted,
    build_cube,
    edge_map,
)


def check_cube_against_oracle(d):
    cube = build_cube(d)
    marks = {arc: _marked_circles(d, arc) for arc in _basepoint_classes(cube)}
    for index, state in cube.states.items():
        assert (state.circles, state.arc_to_circle) == oracle.resolve_circles(d, index)
    for edge in cube.edges:
        s, t = cube.states[edge.source], cube.states[edge.target]
        assert edge == oracle.classify(d, s, t, edge.source, edge.target,
                                       edge.crossing)
        full = oracle.full_edge_map(edge, s, t)
        assert edge_map(edge, s, t) == full
        for arc, mark in marks.items():
            assert (edge_map(edge, s, t, (mark(s), mark(t)))
                    == oracle.restrict_reduced(full, s, t, arc))


CORPUS_HEAD = diagram_corpus(CORPUS_SEED, 40, CORPUS_MAX_CROSSINGS)


@pytest.mark.parametrize("d", CORPUS_HEAD, ids=range(len(CORPUS_HEAD)))
def test_corpus_cube_matches_oracle(d):
    check_cube_against_oracle(d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), free_loops=st.integers(0, 2))
def test_random_braid_cube_matches_oracle(seed, free_loops):
    rng = random.Random(seed)
    d = random_braid_diagram(rng, max_crossings=7)
    check_cube_against_oracle(Diagram(d.crossings,
                                      free_loops=d.free_loops + free_loops))


def check_hd_even_against_oracle(d, rng):
    cube = build_cube(d)
    for m in (ArcMarking.zero(d), random_compatible_marking(d, rng)):
        assert _hd_even(*_twisted(cube, m, 1)) == oracle.hd_even_oracle(cube, m, 1)


HD_CORPUS_HEAD = diagram_corpus(CORPUS_SEED, 100, CORPUS_MAX_CROSSINGS)


@pytest.mark.parametrize("i", range(len(HD_CORPUS_HEAD)))
def test_corpus_hd_even_matches_oracle(i):
    check_hd_even_against_oracle(HD_CORPUS_HEAD[i], random.Random(i))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), free_loops=st.integers(0, 2))
def test_random_braid_hd_even_matches_oracle(seed, free_loops):
    rng = random.Random(seed)
    d = random_braid_diagram(rng, max_crossings=7)
    check_hd_even_against_oracle(
        Diagram(d.crossings, free_loops=d.free_loops + free_loops), rng)


def check_complexes_against_oracle(d, rng):
    cube = build_cube(d)
    for basepoint in [None] + _basepoint_classes(cube):
        new = _assemble(cube, basepoint)
        dims, blocks = oracle.split_by_quantum_grading(
            cube, basepoint, oracle.assemble_per_edge(cube, basepoint))
        assert new.dims == dims
        assert {cell: new.d(cell) for cell in dims} == blocks
    for m in (ArcMarking.zero(d), random_compatible_marking(d, rng)):
        dc, even = _twisted(cube, m, 1)
        odc, oeven = oracle.twisted_per_edge(cube, m, 1)
        assert (dc.dims, dc.d_h, dc.d_v, even) == (odc.dims, odc.d_h, odc.d_v, oeven)


@pytest.mark.parametrize("i", range(len(CORPUS_HEAD)))
def test_corpus_complexes_match_per_edge_assembly(i):
    check_complexes_against_oracle(CORPUS_HEAD[i], random.Random(i))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), free_loops=st.integers(0, 2))
def test_random_braid_complexes_match_per_edge_assembly(seed, free_loops):
    rng = random.Random(seed)
    d = random_braid_diagram(rng, max_crossings=7)
    check_complexes_against_oracle(
        Diagram(d.crossings, free_loops=d.free_loops + free_loops), rng)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), free_loops=st.integers(0, 2))
def test_equal_shapes_have_equal_edge_maps(seed, free_loops):
    # the premise of building one edge map per shape: the map is a function
    # of (kind, circles, correspondence, target circle count, marked pair)
    rng = random.Random(seed)
    d = random_braid_diagram(rng, max_crossings=7)
    d = Diagram(d.crossings, free_loops=d.free_loops + free_loops)
    cube = build_cube(d)
    marks = [None] + [_marked_circles(d, arc) for arc in _basepoint_classes(cube)]
    maps = {}
    for edge in cube.edges:
        s, t = cube.states[edge.source], cube.states[edge.target]
        for mark in marks:
            marked = None if mark is None else (mark(s), mark(t))
            key = (edge.kind, edge.circles, edge.correspondence, t.n_circles, marked)
            m = edge_map(edge, s, t, marked)
            assert maps.setdefault(key, m) == m


def test_nonplanar_edge_still_rejected():
    # one crossing whose resolutions both give a single circle
    with pytest.raises(BadCircleMap, match="circle count by 0"):
        build_cube(Diagram([[1, 2, 1, 2]]))
