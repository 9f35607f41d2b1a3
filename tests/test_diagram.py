"""Diagram parsing, resolution, marking and simplification tests.

Circle counts are checked against a literal strand-following oracle that
walks arc identifications one at a time instead of using union-find.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubekh.acceptance import corpus
from cubekh.corpus import braid_closure, random_braid_diagram
from cubekh.diagram import (
    ArcMarking,
    Diagram,
    canonical_key,
    parse_pd,
    planar_map,
    resolve,
    simplify_greedy,
    smooth_crossing,
)
from cubekh.resolution import MAX_RESOLVE_CROSSINGS, resolve_from
from cube_oracle import induce_marking
from diagram_helpers import connect_sum, mirror
from cubekh.errors import (
    DisconnectedTrace,
    LengthMismatch,
    MalformedPD,
    NonPlanarTrace,
    SizeBudgetExceeded,
)

TREFOIL = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
HOPF = [[1, 3, 2, 4], [3, 1, 4, 2]]


# --- oracle -----------------------------------------------------------------

def circle_count_oracle(crossings, bits, free_loops=0):
    """Count circles by literally following strands through the smoothings."""
    if not crossings:
        return free_loops
    # joins[arc] = list of arcs glued to it by some smoothing
    joins = {}
    for c, b in zip(crossings, bits):
        pairs = [(0, 1), (2, 3)] if b == 0 else [(0, 3), (1, 2)]
        for s, t in pairs:
            joins.setdefault(c[s], []).append(c[t])
            joins.setdefault(c[t], []).append(c[s])
    unvisited = set(joins)
    circles = 0
    while unvisited:
        start = min(unvisited)
        stack = [start]
        while stack:
            a = stack.pop()
            if a not in unvisited:
                continue
            unvisited.discard(a)
            stack.extend(joins[a])
        circles += 1
    return circles + free_loops


def random_braid_pd(rng, max_crossings=8):
    """Valid connected PD codes via braid closures (oracle-free construction)."""
    from cubekh.corpus import braid_closure
    strands = rng.randint(2, 3)
    length = rng.randint(strands - 1, max_crossings)
    while True:
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(length)]
        if {abs(x) for x in word} == set(range(1, strands)):
            return braid_closure(word, strands)


# --- parsing ----------------------------------------------------------------

def test_parse_trefoil():
    d = parse_pd([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]])
    assert d.n == 3
    assert len(d.components) == 1
    assert d.arc_count == 6


def test_parse_empty_unknot():
    d = parse_pd([], free_loops=1)
    assert d.n == 0 and d.free_loops == 1
    assert len(d.components) + d.free_loops == 1


def test_parse_hopf_two_components():
    d = parse_pd(HOPF)
    assert d.n == 2
    assert len(d.components) == 2
    assert d.components == ((1, 2), (3, 4))


@pytest.mark.parametrize("text", ["[[1,4,2,5],[3,6,4,1],[5,2,6,3]]", "[]"])
def test_parse_rejects_a_string(text):
    # a PD code is a list; a JSON string of one is refused, not decoded
    with pytest.raises(MalformedPD, match="^PD code must be a list of 4-tuples$"):
        parse_pd(text)


def test_parse_rejects_bad_frequency():
    with pytest.raises(MalformedPD):
        parse_pd([[1, 2, 3, 4], [1, 2, 3, 3]])


def test_parse_rejects_bad_arity():
    with pytest.raises(MalformedPD):
        parse_pd([[1, 2, 3]])


def test_parse_rejects_inconsistent_under_directions():
    # following the under strand out of crossing 0 enters crossing 1 backward
    with pytest.raises(DisconnectedTrace):
        parse_pd([[1, 2, 3, 4], [1, 4, 3, 2]])


def test_planar_map_rejects_virtual_code():
    # two circles crossing exactly once cannot be planar
    with pytest.raises(NonPlanarTrace):
        parse_pd([[1, 2, 1, 2]])
    with pytest.raises(NonPlanarTrace):
        planar_map(Diagram([[1, 2, 1, 2]]))


@pytest.mark.parametrize("pd, free_loops, orientation", [
    ([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3.0]], 0, None),
    ([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, True]], 0, None),
    ([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, "3"]], 0, None),
    ([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]], 1.5, None),
    ([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]], True, None),
    ([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]], 0, [1.0]),
    ([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]], 0, [True]),
])
def test_parse_rejects_non_integers(pd, free_loops, orientation):
    with pytest.raises(MalformedPD, match="must be an integer"):
        parse_pd(pd, free_loops=free_loops, orientation=orientation)


def test_trefoil_signs_all_positive():
    d = parse_pd(TREFOIL)
    assert d.signs == (1, 1, 1)
    assert (d.n_plus, d.n_minus) == (3, 0)


def test_reversing_orientation_preserves_signs_knot():
    # reversing every component of a knot preserves crossing signs
    d = parse_pd(TREFOIL, orientation=[-1])
    assert d.signs == (1, 1, 1)


def test_hopf_orientation_flip_changes_signs():
    d = parse_pd(HOPF)
    d2 = parse_pd(HOPF, orientation=[1, -1])
    assert d.signs == tuple(-s for s in d2.signs)


# --- resolve ----------------------------------------------------------------

def test_resolve_trefoil_extremes():
    d = parse_pd(TREFOIL)
    # values derived with circle_count_oracle under the fixed slot convention
    assert resolve(d, (0, 0, 0)).n_circles == circle_count_oracle(TREFOIL, (0, 0, 0)) == 3
    assert resolve(d, (1, 1, 1)).n_circles == circle_count_oracle(TREFOIL, (1, 1, 1)) == 2


def test_resolve_empty():
    d = parse_pd([], free_loops=1)
    assert resolve(d, ()).n_circles == 1


def test_resolve_length_mismatch():
    d = parse_pd(TREFOIL)
    with pytest.raises(LengthMismatch):
        resolve(d, (0, 1))


@pytest.mark.parametrize("bad", [0.5, 2, -1, "1", None])
def test_resolve_refuses_bits_that_are_not_0_or_1(bad):
    # a bit is looked up, never coerced: int(0.5) would read as 0
    d = parse_pd(TREFOIL)
    with pytest.raises(LengthMismatch, match="resolution bits must be 0 or 1"):
        resolve(d, (0, bad, 1))


def test_resolve_refuses_more_than_127_crossings():
    # circle numbers and arc labels are bytes: 127 crossings have 254 arcs
    # on at most 254 circles, numbered below the unset entry 255
    assert MAX_RESOLVE_CROSSINGS == 127
    d = braid_closure([1] * 127, 2)
    for bits in ((0,) * 127, (1,) * 127, (1,) + (0,) * 126):
        s = resolve(d, bits)
        assert s.n_circles == circle_count_oracle(d.crossings, bits)
    assert {resolve(d, (b,) * 127).n_circles for b in (0, 1)} == {2, 127}
    assert resolve_from(d, resolve(d, (0,) * 127), 1) == resolve(d, (1,) + (0,) * 126)
    over = braid_closure([1] * 128, 2)
    with pytest.raises(SizeBudgetExceeded, match="128 crossings exceed the limit "
                                                 "of 127 for a resolved state"):
        resolve(over, (0,) * 128)


def check_arc_1_on_circle_0(d):
    # every reduced complex marks circle 0 as the circle through arc 1
    for bits in range(1 << d.n):
        s = resolve(d, tuple((bits >> t) & 1 for t in range(d.n)))
        assert (s.arc_to_circle[1], s.least_arcs[0]) == (0, 1), (d, bits)


def test_resolve_marks_basepoint_circle():
    # states carry no marked circle; resolve numbers circles by least arc,
    # so arc 1 lies on circle 0 in every state of every corpus diagram
    d = parse_pd(TREFOIL)
    assert not hasattr(resolve(d, (0, 0, 0)), "marked_circle")
    for d in corpus():
        check_arc_1_on_circle_0(d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), free_loops=st.integers(0, 2))
def test_resolve_puts_arc_1_on_circle_0_random_braids(seed, free_loops):
    d = random_braid_diagram(random.Random(seed), max_crossings=7)
    check_arc_1_on_circle_0(Diagram(d.crossings, free_loops=d.free_loops + free_loops))


def test_resolve_against_oracle_random():
    rng = random.Random(42)
    for _ in range(1000):
        d = random_braid_pd(rng)
        bits = tuple(rng.randint(0, 1) for _ in range(d.n))
        s = resolve(d, bits)
        assert s.n_circles == circle_count_oracle(d.crossings, bits, d.free_loops)
        assert all(len(c) >= 1 for c in s.circles)


def test_edge_flip_changes_circles_by_one():
    rng = random.Random(7)
    for _ in range(100):
        d = random_braid_pd(rng, max_crossings=6)
        bits = [rng.randint(0, 1) for _ in range(d.n)]
        k0 = resolve(d, bits).n_circles
        for t in range(d.n):
            flipped = list(bits)
            flipped[t] ^= 1
            assert abs(resolve(d, flipped).n_circles - k0) == 1


# --- mirror -----------------------------------------------------------------

def test_mirror_trefoil_swaps_signs():
    d = parse_pd(TREFOIL)
    m = mirror(d)
    assert (m.n_plus, m.n_minus) == (0, 3)


def test_mirror_involution_hopf():
    d = parse_pd(HOPF)
    assert mirror(mirror(d)) == d


def test_mirror_involution_random():
    rng = random.Random(3)
    for _ in range(50):
        d = random_braid_pd(rng, max_crossings=6)
        m = mirror(d)
        assert (m.n_plus, m.n_minus) == (d.n_minus, d.n_plus)
        assert mirror(m) == d


def test_mirror_empty():
    d = parse_pd([], free_loops=1)
    assert mirror(d) == d


# --- markings ---------------------------------------------------------------

def test_induce_marking_zero():
    d = parse_pd([], free_loops=1)
    s = resolve(d, ())
    assert induce_marking(d, ArcMarking(()), s) == (0,)


def test_induce_marking_trefoil_single_arc():
    d = parse_pd(TREFOIL)
    m = ArcMarking((1, 0, 0, 0, 0, 0))
    s = resolve(d, (0, 0, 0))
    pars = induce_marking(d, m, s)
    assert pars[s.arc_to_circle[1]] == 1
    assert sum(pars) == 1  # odd: this marking is not a valid two-fold datum
    assert m.fault(d) is not None


def test_induce_marking_hopf_both_components():
    d = parse_pd(HOPF)
    m = ArcMarking((1, 0, 0, 1))
    assert m.fault(d) is None
    s = resolve(d, (0, 0))
    pars = induce_marking(d, m, s)
    assert sum(pars) % 2 == 0
    assert pars == (1, 1)


def test_marking_fault_names_each_rule():
    d = parse_pd(TREFOIL)
    assert ArcMarking((1, 0, 0, 0, 0)).fault(d) == "marking has 5 bits for 6 arcs"
    assert "even total parity" in ArcMarking((1, 0, 0, 0, 0, 0)).fault(d)
    assert ArcMarking((1, 0, 0, 0, 0, 1)).fault(d) is None


def test_induced_parity_even_for_valid_markings():
    rng = random.Random(11)
    for _ in range(50):
        d = random_braid_pd(rng, max_crossings=6)
        bits = [0] * d.arc_count
        # mark two arcs on the first component (even on one component)
        comp = d.components[0]
        if len(comp) >= 2:
            bits[comp[0] - 1] = 1
            bits[comp[1] - 1] = 1
        m = ArcMarking(tuple(bits))
        assert m.fault(d) is None
        idx = tuple(rng.randint(0, 1) for _ in range(d.n))
        s = resolve(d, idx)
        assert sum(induce_marking(d, m, s)) % 2 == 0


# --- simplification ---------------------------------------------------------

def test_r1_kink_removal():
    d = parse_pd([[1, 2, 2, 1]])
    out = simplify_greedy(d)
    assert out.n == 0 and out.free_loops == 1


def test_r1_other_kink_forms():
    for pd in ([[1, 1, 2, 2]], [[2, 2, 1, 1]], [[2, 1, 1, 2]]):
        out = simplify_greedy(parse_pd(pd))
        assert out.n == 0 and out.free_loops == 1


def test_r2_two_crossing_unknot():
    # trefoil with one crossing switched is an unknot with an R2 bigon
    d = parse_pd([[4, 2, 5, 1], [3, 6, 4, 1], [5, 2, 6, 3]])
    out = simplify_greedy(d)
    assert out.n == 0 and out.free_loops == 1


def test_trefoil_not_simplified():
    d = parse_pd(TREFOIL)
    out = simplify_greedy(d)
    assert out.n == 3


def test_hopf_not_simplified():
    assert simplify_greedy(parse_pd(HOPF)).n == 2


def test_simplify_idempotent_and_monotone():
    rng = random.Random(5)
    for _ in range(100):
        d = random_braid_pd(rng, max_crossings=7)
        s1 = simplify_greedy(d)
        assert s1.n <= d.n
        s2 = simplify_greedy(s1)
        assert s2 == s1


def test_smooth_crossing_reduces():
    d = parse_pd(TREFOIL)
    for bit in (0, 1):
        out = smooth_crossing(d, 0, bit)
        assert out.n == 2
        assert out.arc_count == 4


# --- connect sum / canonical keys / faces ------------------------------------

def test_connect_sum_components_and_validity():
    d = parse_pd(TREFOIL)
    s = connect_sum(d, d)
    assert s.n == 6
    assert len(s.components) == 1
    assert s.arc_count == 12


def test_canonical_key_relabel_invariance():
    d1 = parse_pd(TREFOIL)
    # same diagram with crossings listed in a different order
    d2 = parse_pd([[3, 6, 4, 1], [5, 2, 6, 3], [1, 4, 2, 5]])
    assert canonical_key(d1) == canonical_key(d2)
    assert canonical_key(d1) != canonical_key(parse_pd(HOPF))


def test_planar_map_face_counts():
    assert len(planar_map(parse_pd(TREFOIL)).faces) == 5
    assert len(planar_map(parse_pd(HOPF)).faces) == 4
    assert len(planar_map(parse_pd([[1, 2, 2, 1]])).faces) == 3


def test_planar_map_random_braids():
    rng = random.Random(9)
    for _ in range(50):
        d = random_braid_pd(rng)
        pm = planar_map(d)
        assert len(pm.faces) == d.n + 2
        # corners tile: every dart in exactly one face
        assert sum(len(f) for f in pm.faces) == 4 * d.n
