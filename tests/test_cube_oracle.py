"""The one-pass cube layer against the reference versions in cube_oracle:
resolution, edge classification, and edge maps on the full and the reduced
basis, on the first acceptance-corpus diagrams and on random braid
closures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cube_oracle as oracle
from cubekh.acceptance import CORPUS_MAX_CROSSINGS, CORPUS_SEED
from cubekh.corpus import diagram_corpus, random_braid_diagram
from cubekh.diagram import Diagram
from cubekh.errors import BadCircleMap
from cubekh.khovanov import build_cube, edge_map


def check_cube_against_oracle(d, basepoint):
    cube = build_cube(d, basepoint=basepoint)
    for index, state in cube.states.items():
        assert (state.circles, state.arc_to_circle) == oracle.resolve_circles(d, index)
    for edge in cube.edges:
        s, t = cube.states[edge.source], cube.states[edge.target]
        assert edge == oracle.classify(d, s, t, edge.source, edge.target,
                                       edge.crossing)
        full = oracle.full_edge_map(edge, s, t)
        assert edge_map(edge, s, t) == full
        assert (edge_map(edge, s, t, reduced=True)
                == oracle.restrict_reduced(full, s, t))


CORPUS_HEAD = diagram_corpus(CORPUS_SEED, 40, CORPUS_MAX_CROSSINGS)


@pytest.mark.parametrize("d", CORPUS_HEAD, ids=range(len(CORPUS_HEAD)))
def test_corpus_cube_matches_oracle(d):
    for basepoint in sorted({1, d.arc_count}):
        check_cube_against_oracle(d, basepoint)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), free_loops=st.integers(0, 2))
def test_random_braid_cube_matches_oracle(seed, free_loops):
    rng = random.Random(seed)
    d = random_braid_diagram(rng, max_crossings=7)
    d = Diagram(d.crossings, free_loops=d.free_loops + free_loops)
    check_cube_against_oracle(d, rng.randint(1, d.arc_count))


def test_nonplanar_edge_still_rejected():
    # one crossing whose resolutions both give a single circle
    with pytest.raises(BadCircleMap, match="circle count by 0"):
        build_cube(Diagram([[1, 2, 1, 2]]))
