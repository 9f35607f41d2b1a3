"""The frontier walk of `_euler_state_sum`, and the determinant
`state_sum_det` reads off it, against the 2^n-state union-find sums in
det_oracle: the graded Euler characteristic and the determinant from the
bracket at zeta8, on acceptance-corpus diagrams, random braid closures with
free loops, split diagrams, diagrams with Reidemeister-1 kinks, shuffled
crossing orders, and a split diagram whose states reach 2n circles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import det_oracle as oracle
from cubekh.acceptance import CORPUS_MAX_CROSSINGS, CORPUS_SEED
from cubekh.corpus import braid_closure, diagram_corpus, random_braid_diagram
from cubekh.diagram import Diagram
from diagram_helpers import connect_sum
from cubekh.khovanov import state_sum_det
from cubekh.diagram import _euler_state_sum


def check_against_oracle(d):
    assert state_sum_det(d) == oracle.state_sum_det(d)
    assert _euler_state_sum(d) == oracle.euler_state_sum(d)


def split_union(d1, d2, rng):
    """d1 and d2 side by side, their crossings interleaved at random."""
    shift = d1.arc_count
    crossings = list(d1.crossings) + [tuple(a + shift for a in c)
                                      for c in d2.crossings]
    rng.shuffle(crossings)
    return Diagram(crossings, free_loops=d1.free_loops + d2.free_loops)


def add_kinks(d, count, rng):
    """d with `count` Reidemeister-1 kinks spliced into random arcs; each kink
    is a crossing that holds one arc twice."""
    for _ in range(count):
        kink = braid_closure([rng.choice((1, -1))], 2)
        d = connect_sum(d, kink, arc1=rng.randint(1, d.arc_count))
    return d


CORPUS_HEAD = diagram_corpus(CORPUS_SEED, 100, CORPUS_MAX_CROSSINGS)


@pytest.mark.parametrize("d", CORPUS_HEAD, ids=range(len(CORPUS_HEAD)))
def test_corpus_state_sum_matches_oracle(d):
    check_against_oracle(d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), free_loops=st.integers(0, 2))
def test_random_braid_state_sum_matches_oracle(seed, free_loops):
    d = random_braid_diagram(random.Random(seed), max_crossings=9)
    check_against_oracle(Diagram(d.crossings, free_loops=d.free_loops + free_loops))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_split_diagram_state_sum_is_zero(seed):
    rng = random.Random(seed)
    d = split_union(random_braid_diagram(rng, max_crossings=5),
                    random_braid_diagram(rng, max_crossings=4), rng)
    check_against_oracle(d)
    assert state_sum_det(d) == 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kinks=st.integers(1, 3))
def test_kinked_diagram_matches_oracle(seed, kinks):
    rng = random.Random(seed)
    d = random_braid_diagram(rng, max_crossings=6)
    kinked = add_kinks(d, kinks, rng)
    assert any(len(set(c)) < 4 for c in kinked.crossings)
    check_against_oracle(kinked)
    assert state_sum_det(kinked) == state_sum_det(d)


def test_single_kink_is_unknot():
    for sign in (1, -1):
        d = braid_closure([sign], 2)
        check_against_oracle(d)
        assert state_sum_det(d) == 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_shuffled_crossing_order_keeps_bracket(seed):
    rng = random.Random(seed)
    d = random_braid_diagram(rng, max_crossings=9)
    shuffled = Diagram(rng.sample(d.crossings, d.n), free_loops=d.free_loops)
    check_against_oracle(shuffled)
    assert _euler_state_sum(shuffled) == oracle.euler_state_sum(d)


def test_split_kinks_reach_the_slot_bounds():
    # 14 one-crossing kinks side by side: one state has 2n = 28 circles,
    # the most a state can have, which the walk's exponent offset must absorb
    rng = random.Random(14)
    d = braid_closure([1], 2)
    for _ in range(13):
        d = split_union(d, braid_closure([rng.choice((1, -1))], 2), rng)
    assert max(oracle._circles(d, bits)[0] for bits in range(1 << d.n)) == 2 * d.n
    check_against_oracle(d)
    assert state_sum_det(d) == 0
