"""The one-pass cube layer against the reference versions in cube_oracle:
resolution, edge classification, and edge maps on the full basis and on
the reduced basis of every basepoint class, all from one cube per diagram,
every edge's shape against the least-arc rule that keys it, the
even-vertex dotted homology read off the twisted complex against
its own pass over the cube, and the kh, Khr and twisted differentials
built from one edge map per shape against the per-edge assembly (kh and
Khr block by block in (w, q) cells, Khr at arc 1 of each basepoint class's
relabelling), on the first acceptance-corpus diagrams and on random braid
closures, some with kinks and free loops."""

import random
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cube_oracle as oracle
import cubekh.khovanov as kh
from cubekh.acceptance import (
    CORPUS_MAX_CROSSINGS,
    CORPUS_SEED,
    _basepoint_classes,
    _relabelled,
)
from cubekh.complexes import total_complex
from cubekh.corpus import diagram_corpus, random_braid_diagram, random_compatible_marking
from cubekh.diagram import ArcMarking, Diagram, normalize_under_slots
from cubekh.errors import BadCircleMap
from cubekh.khovanov import (
    _assemble,
    _hd_even,
    _twisted,
    build_cube,
    edge_map,
    khr_complex,
)
from cubekh.resolution import UNSET, ResolvedState, resolve, resolve_from
from test_det_oracle import add_kinks


def bit_vector(bits, n):
    return tuple((bits >> t) & 1 for t in range(n))


def mask(vector):
    return sum(b << t for t, b in enumerate(vector))


def check_state_against_oracle(d, state, index):
    # the flat arc table, least arcs and circle count, and the circles
    # derived from them, arc by arc against the union-find
    circles, arc_to_circle = oracle.resolve_circles(d, index)
    assert type(state.arc_to_circle) is type(state.least_arcs) is bytes
    assert len(state.arc_to_circle) == d.arc_count + 1
    assert state.arc_to_circle[0] == UNSET
    for a in range(1, d.arc_count + 1):
        assert state.arc_to_circle[a] == arc_to_circle[a]
    assert list(state.least_arcs) == [circ[0] for circ in circles if circ]
    assert state.n_circles == len(circles)
    assert state.circles == circles


def check_cube_against_oracle(d):
    cube = build_cube(d)
    n = d.n
    marks = {arc: oracle.marked_circle(d, arc) for arc in _basepoint_classes(cube)}
    assert len(cube.states) == 1 << n
    for bits, state in enumerate(cube.states):
        check_state_against_oracle(d, state, bit_vector(bits, n))
    assert cube.vertices == sorted(range(1 << n), key=lambda bits: (
        bits.bit_count(), bit_vector(bits, n)))
    # the oracle's own vertex order, by (weight, bit vector), then the
    # ascending unset crossing
    by_vector = sorted(product((0, 1), repeat=n), key=lambda v: (sum(v), v))
    assert [(s, t) for s, t, _ in oracle.edge_triples(cube)] == [
        (mask(v), mask(v) | 1 << t) for v in by_vector
        for t in range(n) if not v[t]]
    assert len(set(cube.shapes)) == len(cube.shapes)
    assert {shape for _, _, shape in oracle.edge_triples(cube)} == set(range(len(cube.shapes)))
    for source, target, shape in oracle.edge_triples(cube):
        s, t = cube.states[source], cube.states[target]
        want = oracle.classify(d, s, t)
        assert cube.shapes[shape] == want
        # the rule that keys the edge holds on every edge, not only the
        # first of each key
        assert want == oracle.least_arc_shape(want[0], want[1], s.n_circles,
                                              t.n_circles)
        full = oracle.full_edge_map(want, s, t)
        assert edge_map(cube.shapes[shape]) == full
        for arc, mark in marks.items():
            assert (edge_map(cube.shapes[shape], (mark(s), mark(t)))
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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kinks=st.integers(1, 3),
       free_loops=st.integers(0, 2))
def test_kinked_cube_matches_oracle(seed, kinks, free_loops):
    # a kink's crossing holds one arc twice, so its edges split or merge a
    # circle through one arc
    rng = random.Random(seed)
    d = add_kinks(random_braid_diagram(rng, max_crossings=4), kinks, rng)
    check_cube_against_oracle(Diagram(d.crossings,
                                      free_loops=d.free_loops + free_loops))


def test_edge_breaking_least_arc_rule_refused(monkeypatch):
    # circles numbered by descending least arc: the first edge whose shape
    # breaks the rule is the first edge of its key, and is refused there
    def renumbered(s):
        # circle c -> k - 1 - c, its own inverse
        k = len(s.least_arcs)
        return ResolvedState(bytes([UNSET] + [k - 1 - c for c in s.arc_to_circle[1:]]),
                             s.least_arcs[::-1], s.n_circles)

    d = Diagram([[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, 2]])
    n = d.n
    states = [renumbered(resolve(d, bit_vector(bits, n))) for bits in range(1 << n)]
    vertices = sorted(range(1 << n), key=lambda bits: (bits.bit_count(),
                                                       bit_vector(bits, n)))
    breaking = []
    for bits in vertices:
        for t in range(n):
            if not bits >> t & 1:
                s, tgt = states[bits], states[bits | 1 << t]
                want = oracle.classify(d, s, tgt)
                if want != oracle.least_arc_shape(want[0], want[1], s.n_circles,
                                                  tgt.n_circles):
                    breaking.append((bits, bits | 1 << t))
    assert breaking and breaking[0] != (0, 1)
    # the cube resolves state 0 and derives each other state from its lower
    # neighbour: both are wrapped, the derivation undoing its neighbour's
    # renumbering first
    derived = []

    def renumbered_from(d, parent, bits):
        derived.append(bits)
        return renumbered(resolve_from(d, renumbered(parent), bits))

    monkeypatch.setattr(kh, "resolve", lambda d, index: renumbered(resolve(d, index)))
    monkeypatch.setattr(kh, "resolve_from", renumbered_from)
    source, target = breaking[0]
    with pytest.raises(BadCircleMap, match=f"edge {source} -> {target} breaks "
                                           "the least-arc circle numbering"):
        build_cube(d)
    assert derived == list(range(1, 1 << n))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kinks=st.integers(0, 2),
       free_loops=st.integers(0, 2))
def test_resolve_matches_union_find_oracle(seed, kinks, free_loops):
    # kinks put both ends of an arc at one crossing, where the dart walk
    # turns back into the crossing it just left
    rng = random.Random(seed)
    d = add_kinks(random_braid_diagram(rng, max_crossings=7), kinks, rng)
    d = Diagram(d.crossings, free_loops=d.free_loops + free_loops)
    for _ in range(8):
        bits = tuple(rng.randint(0, 1) for _ in range(d.n))
        check_state_against_oracle(d, resolve(d, bits), bits)


@pytest.mark.parametrize("free_loops", [1, 3])
def test_free_loops_come_last_with_no_arcs(free_loops):
    # free loops are circles without arcs, numbered after the others
    hopf = Diagram([[1, 3, 2, 4], [3, 1, 4, 2]], free_loops=free_loops)
    for bits in range(4):
        state = resolve(hopf, bit_vector(bits, 2))
        check_state_against_oracle(hopf, state, bit_vector(bits, 2))
        assert state.n_circles == len(state.least_arcs) + free_loops
        assert state.circles[-free_loops:] == ((),) * free_loops
    # with no arcs at all, every circle is a free loop, and the reduced
    # complex marks circle 0, the first free loop: its generators are the
    # subsets holding loop 0, so C(free_loops - 1, j) at q = free_loops - 2(j + 1)
    d = Diagram([], free_loops=free_loops)
    state = resolve(d, ())
    assert state == (bytes([UNSET]), b"", free_loops)
    check_state_against_oracle(d, state, ())
    cube = build_cube(d)
    assert (cube.states, cube.vertices, cube.edges) == ([state], [0], [])
    dims = {(0, free_loops - 2 * (j + 1)): comb(free_loops - 1, j)
            for j in range(free_loops)}
    assert khr_complex(d).dims == dims
    assert oracle.split_by_quantum_grading(
        cube, 1, oracle.assemble_per_edge(cube, 1))[0] == dims


def check_hd_even_against_oracle(d, rng):
    cube = build_cube(d)
    for m in (ArcMarking.zero(d), random_compatible_marking(d, rng)):
        assert ([tuple(p) for p in kh._marking_parities(cube, m)]
                == oracle.marking_parities(cube, m))
        assert _hd_even(_twisted(cube, m)) == oracle.hd_even_oracle(cube, m, 1)


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
    # kh on the cube, and Khr at arc 1 of each basepoint class's relabelling
    cube = build_cube(d)
    relabelled = [build_cube(_relabelled(d, arc)) for arc in _basepoint_classes(cube)[1:]]
    for c, basepoint in [(cube, None), (cube, 1)] + [(c, 1) for c in relabelled]:
        new = _assemble(c, basepoint is not None)
        dims, blocks = oracle.split_by_quantum_grading(
            c, basepoint, oracle.assemble_per_edge(c, basepoint))
        assert new.dims == dims
        assert {cell: new.d(cell) for cell in dims} == blocks
    for m in (ArcMarking.zero(d), random_compatible_marking(d, rng)):
        tw = _twisted(cube, m)
        odc, oeven = oracle.twisted_per_edge(cube, m, 1)
        total, positions = total_complex(*odc)
        assert (tw.total.dims, tw.total.differentials) == (total.dims, total.differentials)
        weights = {t: [] for t in total.dims}
        for (p, q), off in sorted(positions.items(), key=lambda cell: cell[1]):
            weights[p + q] += [p] * odc.dims[(p, q)]
        assert tw.weights == weights
        assert {cell: off for cell, (off, _) in tw.cells.items()} == positions
        assert {cell: n for cell, (_, n) in tw.cells.items() if n} == oeven


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
    # the premise of building one edge map per (shape, marked pair): the
    # oracle's map of every edge is a function of the two
    rng = random.Random(seed)
    d = random_braid_diagram(rng, max_crossings=7)
    d = Diagram(d.crossings, free_loops=d.free_loops + free_loops)
    cube = build_cube(d)
    marks = [(None, None)] + [(arc, oracle.marked_circle(d, arc))
                              for arc in _basepoint_classes(cube)]
    maps = {}
    for source, target, shape in oracle.edge_triples(cube):
        s, t = cube.states[source], cube.states[target]
        full = oracle.full_edge_map(oracle.classify(d, s, t), s, t)
        for arc, mark in marks:
            marked = None if mark is None else (mark(s), mark(t))
            m = full if mark is None else oracle.restrict_reduced(full, s, t, arc)
            assert maps.setdefault((shape, marked), m) == m


def test_nonplanar_edge_still_rejected():
    # one crossing whose resolutions both give a single circle: the derived
    # state is its lower neighbour itself
    d = Diagram([[1, 2, 1, 2]])
    s0 = resolve(d, (0,))
    assert resolve_from(d, s0, 1) is s0 and s0 == resolve(d, (1,))
    with pytest.raises(BadCircleMap, match="circle count by 0"):
        build_cube(d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_derived_states_match_oracle_on_random_codes(seed):
    # random label pairings, mostly non-planar, where a crossing may keep
    # one circle in both smoothings: every state derived from its lower
    # neighbour is the state resolve makes, and the union-find oracle's
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    labels = list(range(1, 2 * n + 1)) * 2
    rng.shuffle(labels)
    d = normalize_under_slots([labels[4 * i:4 * i + 4] for i in range(n)],
                              rng.randint(0, 1))
    states = [resolve(d, (0,) * n)]
    for bits in range(1, 1 << n):
        state = resolve_from(d, states[bits & (bits - 1)], bits)
        assert state == resolve(d, bit_vector(bits, n))
        check_state_against_oracle(d, state, bit_vector(bits, n))
        states.append(state)
