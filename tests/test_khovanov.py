"""Khovanov engine tests.

The oracle here rebuilds the cube from scratch with frozenset circles and
dict-based GF(2) vectors (symmetric differences), sharing no code with the
bit-packed implementation, and computes homology by set-based elimination.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubekh.khovanov as kh
import spectral_oracle
from cube_oracle import edge_triples, hd_even_oracle, induce_marking, twisted_per_edge
from det_oracle import continued_fraction_numerator
from diagram_helpers import relabelled_marking
from cubekh.acceptance import (
    CORPUS_MAX_CROSSINGS,
    CORPUS_SEED,
    _basepoint_classes,
    _relabelled,
)
from cubekh.complexes import FilteredComplexF2, homology_ranks, spectral_pages
from cubekh.corpus import (
    braid_closure,
    diagram_corpus,
    random_braid_diagram,
    random_compatible_marking,
    rational_link,
    small_knot,
)
from cubekh.diagram import ArcMarking, Diagram, parse_pd, resolve
from cubekh.errors import (
    IncompatibleMarking,
    InternalInconsistency,
    NotAComplex,
    SizeBudgetExceeded,
)
from cubekh.khovanov import (
    build_cube,
    edge_map,
    grading_tables,
    hd_even_subcomplex,
    kh_complex,
    kh_ranks,
    khr_complex,
    khr_ranks,
    state_sum_det,
    twisted_complex,
    twisted_total_ranks,
    vertical_then_horizontal_ranks,
    weight_ss,
    weight_totals,
)
from psi_oracle import check_psi_naturality, model_edge_map, psi_identification

TREFOIL = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
HOPF = [[1, 3, 2, 4], [3, 1, 4, 2]]


# --- independent cube oracle --------------------------------------------------

def oracle_circles(pd, bits, free_loops=0):
    sets = {a: frozenset([a]) for c in pd for a in c}
    def union(x, y):
        sx, sy = sets[x], sets[y]
        if sx == sy:
            return
        merged = sx | sy
        for a in merged:
            sets[a] = merged
    for t, (a, b, c, d) in enumerate(pd):
        if (bits >> t) & 1:
            union(a, d)
            union(b, c)
        else:
            union(a, b)
            union(c, d)
    circles = sorted({s for s in sets.values()}, key=min)
    circles += [frozenset([("loop", i)]) for i in range(free_loops)]
    return circles


def oracle_kh_ranks(pd, free_loops=0, reduced=False, basepoint=1):
    """Per-weight homology via dict-vector elimination over GF(2)."""
    n = len(pd)
    gens = {}      # weight -> list of (bits, frozenset-of-circles subset)
    for bits in range(1 << n):
        circles = oracle_circles(pd, bits, free_loops)
        w = bin(bits).count("1")
        marked = None
        if reduced:
            marked = next((c for c in circles if basepoint in c), None)
            if marked is None and circles:
                marked = circles[0] if not pd else None
        subsets = []
        for mask in range(1 << len(circles)):
            chosen = frozenset(circles[i] for i in range(len(circles))
                               if (mask >> i) & 1)
            if reduced and (marked is None or marked not in chosen):
                continue
            subsets.append((bits, chosen))
        gens.setdefault(w, []).extend(subsets)

    def differential(gen):
        bits, chosen = gen
        out = set()
        for t in range(n):
            if (bits >> t) & 1:
                continue
            bits2 = bits | (1 << t)
            circles2 = oracle_circles(pd, bits2, free_loops)
            def target_of(circ):
                arc = min(circ)
                return next(c2 for c2 in circles2 if arc in c2)
            if len(circles2) < len(oracle_circles(pd, bits, free_loops)):
                img = set()
                dead = False
                for circ in chosen:
                    tc = target_of(circ)
                    if tc in img:
                        dead = True
                        break
                    img.add(tc)
                if not dead:
                    out ^= {(bits2, frozenset(img))}
            else:
                circles1 = oracle_circles(pd, bits, free_loops)
                split = next(c for c in circles1
                             if len([c2 for c2 in circles2 if c2 & c]) == 2)
                pieces = sorted([c2 for c2 in circles2 if c2 & split], key=min)
                rep, other = pieces[0], pieces[1]
                img = set()
                for circ in chosen:
                    img.add(target_of(circ) if circ != split else rep)
                if split in chosen:
                    out ^= {(bits2, frozenset(img | {other}))}
                else:
                    out ^= {(bits2, frozenset(img | {rep}))}
                    out ^= {(bits2, frozenset(img | {other}))}
        return out

    def rank_of(weight):
        basis = []
        rank = 0
        for gen in gens.get(weight, []):
            v = differential(gen)
            for lead, vec in basis:
                if lead in v:
                    v ^= vec
            if v:
                basis.append((min(v), v))
                rank += 1
        return rank

    ranks = {}
    rk = {w: rank_of(w) for w in gens}
    for w, gg in gens.items():
        b = len(gg) - rk.get(w, 0) - rk.get(w - 1, 0)
        if b:
            ranks[w] = b
    return ranks


# --- cube structure -------------------------------------------------------------

def test_cube_unknot():
    cube = build_cube(parse_pd([], free_loops=1))
    assert cube.vertices == [0]
    assert cube.states[0] == ([-1], [], 1)


def test_cube_hopf_circle_counts():
    cube = build_cube(parse_pd(HOPF))
    counts = sorted(cube.states[ix].n_circles for ix in cube.vertices)
    assert counts == [1, 1, 2, 2]


def test_cube_trefoil_circle_counts():
    # derived from the union-find oracle under the fixed slot convention
    cube = build_cube(parse_pd(TREFOIL))
    by_weight = {}
    for ix in cube.vertices:
        by_weight.setdefault(ix.bit_count(), []).append(cube.states[ix].n_circles)
    assert by_weight == {0: [3], 1: [2, 2, 2], 2: [1, 1, 1], 3: [2]}


def test_edge_kinds_change_k_by_one():
    rng = random.Random(77)
    for _ in range(30):
        d = random_braid_diagram(rng, max_crossings=6)
        cube = build_cube(d)
        for source, target, shape in edge_triples(cube):
            ks = cube.states[source].n_circles
            kt = cube.states[target].n_circles
            assert abs(kt - ks) == 1
            assert cube.shapes[shape].kind == ("merge" if kt < ks else "split")


def test_flat_cube_of_twelve_crossings(monkeypatch):
    # one resolve call per state, and one edge_map call per shape per
    # complex, (shape, None) for kh and (shape, (0, 0)) for Khr: the cube
    # keeps no blocks, so assembling again calls it once more per shape
    from collections import Counter
    d = braid_closure([1, -2] * 6, 3)
    resolved, real_resolve = [], kh.resolve
    monkeypatch.setattr(kh, "resolve",
                        lambda d, ix: resolved.append(ix) or real_resolve(d, ix))
    cube = build_cube(d)
    assert (len(cube.states), len(cube.edges), len(cube.shapes)) == (4096, 24576, 86)
    assert len(resolved) == len(set(resolved)) == 4096
    calls, real_edge_map = Counter(), kh.edge_map

    def counted(shape, marked=None):
        calls[(shape, marked)] += 1
        return real_edge_map(shape, marked)

    monkeypatch.setattr(kh, "edge_map", counted)
    for reduced in (False, True):
        kh._assemble(cube, reduced)
    # Khr's marked pair, the circles through arc 1, is (0, 0) on every edge
    marked = {(cube.shapes[shape], (cube.states[s].arc_to_circle[1],
                                    cube.states[t].arc_to_circle[1]))
              for s, t, shape in edge_triples(cube)}
    assert marked == {(sh, (0, 0)) for sh in cube.shapes}
    keys = marked | {(sh, None) for sh in cube.shapes}
    assert set(calls) == keys and set(calls.values()) == {1}
    for reduced in (False, True):
        kh._assemble(cube, reduced)
    assert sum(calls.values()) == 2 * len(keys) == 4 * 86
    assert set(calls.values()) == {2}


def test_lean_cube_of_twelve_crossings():
    # each edge is stored as its shape id alone, no (source, target, shape)
    # tuple, and a whole Khr assembly of the 12-crossing 3-braid closure
    # peaks below 6.5 MB under tracemalloc (8.3 MB with edge triples and
    # per-slot (cell, offset) tuples)
    import gc
    import tracemalloc
    d = braid_closure([1, -2] * 6, 3)
    cube = build_cube(d)
    assert len(cube.edges) == 24576
    assert all(type(shape) is int for shape in cube.edges)
    del cube
    gc.collect()
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        khr_complex(d)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 6.5e6


def test_cube_is_read_only():
    # kh, Khr and two twisted complexes built on one cube leave it as it
    # was, and each equals the complex built on a fresh cube of its own
    import copy
    rng = random.Random(34)
    d = random_braid_diagram(rng, max_crossings=6)
    markings = (ArcMarking.zero(d), random_compatible_marking(d, rng))
    cube = build_cube(d)
    before = copy.deepcopy(vars(cube))
    builds = ([lambda c, r=r: kh._assemble(c, r) for r in (False, True)]
              + [lambda c, m=m: kh._twisted(c, m) for m in markings])

    def form(c):
        if isinstance(c, kh.TwistedComplex):
            return form(c.total), c.weights, c.cells
        return c.dims, c.differentials

    shared = [form(build(cube)) for build in builds]
    assert vars(cube) == before
    assert shared == [form(build(build_cube(d))) for build in builds]


def test_split_then_merge_composition_vanishes():
    # Delta followed by the merge of the same two circles is zero over GF(2)
    from cubekh.khovanov import EdgeShape
    cube = build_cube(parse_pd(HOPF))
    split = next(sh for sh in cube.shapes if sh.kind == "split")
    delta = edge_map(split)
    c, (c1, c2) = split.circles
    back_corr = {v: k for k, v in enumerate(split.correspondence) if v is not None}
    back_corr[c1] = c
    back_corr[c2] = c
    remerge = EdgeShape("merge", (c1, c2),
                        tuple(back_corr[i] for i in range(split.n_target)),
                        len(split.correspondence))
    m = edge_map(remerge)
    assert not any((m @ delta).rows)


def test_size_budget():
    d = small_knot("3_1")
    with pytest.raises(SizeBudgetExceeded):
        build_cube(d, max_crossings=2)


def test_free_loops_count_against_cube_budget():
    # each free loop doubles the basis, so it counts like a crossing
    build_cube(parse_pd(TREFOIL, free_loops=1), max_crossings=4)
    with pytest.raises(SizeBudgetExceeded, match="3 crossings and 2 free loops"):
        build_cube(parse_pd(TREFOIL, free_loops=2), max_crossings=4)
    # the state sum returns 0 on free loops without allocating anything
    assert state_sum_det(parse_pd(TREFOIL, free_loops=2), max_crossings=3) == 0


# --- homology against the oracle ------------------------------------------------

def test_unknot_ranks():
    d = parse_pd([], free_loops=1)
    assert khr_ranks(d) == {0: 1}
    assert kh_ranks(d) == {0: 2}


def test_trefoil_ranks_frozen_and_oracle():
    d = parse_pd(TREFOIL)
    kh = kh_ranks(d)
    khr = khr_ranks(d)
    assert sum(kh.values()) == 6
    assert sum(khr.values()) == 3
    assert kh == oracle_kh_ranks(TREFOIL)
    assert khr == oracle_kh_ranks(TREFOIL, reduced=True)


def test_hopf_ranks_frozen_and_oracle():
    kh = kh_ranks(parse_pd(HOPF))
    khr = khr_ranks(parse_pd(HOPF))
    assert sum(kh.values()) == 4 and sum(khr.values()) == 2
    assert kh == oracle_kh_ranks(HOPF)
    assert khr == oracle_kh_ranks(HOPF, reduced=True)


def test_random_diagrams_match_oracle():
    rng = random.Random(123)
    for _ in range(12):
        d = random_braid_diagram(rng, max_crossings=4)
        pd = [list(c) for c in d.crossings]
        assert kh_ranks(d) == oracle_kh_ranks(pd, d.free_loops)
        assert khr_ranks(d) == oracle_kh_ranks(pd, d.free_loops, reduced=True)


def test_kh_rank_doubles_khr():
    rng = random.Random(5)
    for _ in range(25):
        d = random_braid_diagram(rng, max_crossings=6)
        assert sum(kh_ranks(d).values()) == 2 * sum(khr_ranks(d).values())


def check_shumakovitch_bigraded(d):
    # over GF(2), Kh = Khr (x) F2[x]/(x^2) with x of quantum degree -2, so
    # Kh_{w,q} = Khr_{w,q} + Khr_{w,q-2} per (cube weight, quantum grading)
    # block; the reduced q counts the marked circle in |S|.  A generator in
    # the wrong q moves a rank between blocks, which the totals would miss.
    kh = homology_ranks(kh_complex(d))
    khr = homology_ranks(khr_complex(d))
    assert kh and all(isinstance(cell, tuple) for cell in kh)
    cells = set(kh) | set(khr) | {(w, q + 2) for w, q in khr}
    for w, q in cells:
        assert kh.get((w, q), 0) == khr.get((w, q), 0) + khr.get((w, q - 2), 0), (w, q)


SHUMAKOVITCH_CORPUS = diagram_corpus(CORPUS_SEED, 100, CORPUS_MAX_CROSSINGS)


def test_bigraded_shumakovitch_corpus():
    for d in SHUMAKOVITCH_CORPUS:
        check_shumakovitch_bigraded(d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), free_loops=st.integers(0, 2))
def test_bigraded_shumakovitch_random_braids(seed, free_loops):
    d = random_braid_diagram(random.Random(seed), max_crossings=7)
    check_shumakovitch_bigraded(Diagram(d.crossings, free_loops=d.free_loops + free_loops))


# --- kh read off Khr, against the unreduced complex ----------------------------
# kh_ranks reads twice Khr per cube weight, so these compare it with the
# homology of the unreduced complex, which it no longer builds

def unreduced_ranks(d):
    return weight_totals(homology_ranks(kh_complex(d)))


def test_kh_ranks_match_unreduced_complex_corpus():
    for d in SHUMAKOVITCH_CORPUS:
        assert kh_ranks(d) == unreduced_ranks(d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), free_loops=st.integers(0, 2))
def test_kh_ranks_match_unreduced_complex_random_braids(seed, free_loops):
    d = random_braid_diagram(random.Random(seed), max_crossings=7)
    d = Diagram(d.crossings, free_loops=d.free_loops + free_loops)
    assert kh_ranks(d) == unreduced_ranks(d)


@pytest.mark.parametrize("free_loops, kh, khr", [
    (0, {0: 1}, {}), (1, {0: 2}, {0: 1}), (2, {0: 4}, {0: 2})])
def test_kh_ranks_without_crossings(free_loops, kh, khr):
    # the empty link has no circle to mark: Khr is 0 and Kh one generator
    d = Diagram([], free_loops=free_loops)
    assert kh_ranks(d) == kh == unreduced_ranks(d)
    assert khr_ranks(d) == khr


def test_basepoint_independence():
    # the public entries mark arc 1; bigraded Khr is the same at every arc,
    # marked as arc 1 of the relabelling that sends it there
    rng = random.Random(55)
    for _ in range(15):
        d = random_braid_diagram(rng, max_crossings=6)
        tables = {tuple(sorted(homology_ranks(khr_complex(_relabelled(d, arc))).items()))
                  for arc in range(1, d.arc_count + 1)}
        assert len(tables) == 1


def test_grading_tables():
    d = parse_pd(TREFOIL)
    tabs = grading_tables(d, khr_ranks(d))
    assert sum(tabs["i"].values()) == 3
    assert set(tabs["i"]) == {w + d.n_plus for w in khr_ranks(d)}
    assert set(tabs["h"]) == {w - d.n_minus for w in khr_ranks(d)}


# --- twisted / dotted ------------------------------------------------------------

def test_trivial_marking_equals_khr():
    rng = random.Random(9)
    for _ in range(10):
        d = random_braid_diagram(rng, max_crossings=5)
        hd = hd_even_subcomplex(d, ArcMarking.zero(d))
        collapsed = {}
        for (p, v), r in hd.items():
            collapsed[p] = collapsed.get(p, 0) + r
        assert collapsed == khr_ranks(d)
        assert (sum(twisted_total_ranks(d, ArcMarking.zero(d)).values())
                == sum(collapsed.values()))


def check_twisted_basepoint_classes(d, m):
    # twisted totals, hd and every ss page are the same at every basepoint
    # class, each marked as arc 1 of its relabelling with the marking
    # carried along, so the public entries may mark arc 1 alone
    seen = set()
    for arc in _basepoint_classes(build_cube(d)):
        tw = kh._twisted(build_cube(_relabelled(d, arc)), relabelled_marking(m, arc))
        pages = spectral_pages(FilteredComplexF2(tw.total, tw.weights)).pages
        seen.add((tuple(sorted(homology_ranks(tw.total).items())),
                  tuple(sorted(kh._hd_even(tw).items())),
                  tuple(tuple(sorted(page.items())) for page in pages)))
    assert len(seen) == 1, d


def test_twisted_basepoint_independence_corpus():
    rng = random.Random(57)
    for d in SHUMAKOVITCH_CORPUS:
        check_twisted_basepoint_classes(d, random_compatible_marking(d, rng))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), free_loops=st.integers(0, 2))
def test_twisted_basepoint_independence_random_braids(seed, free_loops):
    rng = random.Random(seed)
    d = random_braid_diagram(rng, max_crossings=7)
    d = Diagram(d.crossings, free_loops=d.free_loops + free_loops)
    check_twisted_basepoint_classes(d, random_compatible_marking(d, rng))


def test_odd_total_marking_rejected():
    d = parse_pd(TREFOIL)
    with pytest.raises(IncompatibleMarking):
        twisted_complex(d, ArcMarking((1, 0, 0, 0, 0, 0)))


def test_single_vertex_vertical_homology():
    # wedging with a nonzero odd class is exact, so E^1, vertical homology, lives
    # on the all-even vertices, where d_v = 0: per cube weight its ranks sum
    # to 2^(k - 1) over the all-even vertices of that weight (k circles)
    rng = random.Random(19)
    cases = [(parse_pd(HOPF), ArcMarking((1, 0, 0, 1)))]
    for _ in range(40):
        d = random_braid_diagram(rng, max_crossings=6)
        cases.append((d, random_compatible_marking(d, rng)))
    for d, m in cases:
        expected = {}
        for ix, state in enumerate(build_cube(d).states):
            if not any(induce_marking(d, m, state)):
                w = ix.bit_count()
                expected[w] = expected.get(w, 0) + 2 ** (state.n_circles - 1)
        sums = {}
        for (p, _), r in weight_ss(d, m).page(1).items():
            sums[p] = sums.get(p, 0) + r
        assert sums == expected


def test_hd_constructions_agree_random():
    # the call compares the E^2 page with the even-vertex subcomplex of the
    # same twisted complex; the result must also match the oracle's own
    # pass over the cube
    rng = random.Random(11)
    for _ in range(20):
        d = random_braid_diagram(rng, max_crossings=5)
        m = random_compatible_marking(d, rng)
        assert hd_even_subcomplex(d, m) == hd_even_oracle(build_cube(d), m, 1)


def test_dotted_entries_check_the_e2_page(monkeypatch):
    # both public dotted entries compare the E^2 page with the even-vertex
    # homology, so a wrong one is refused, not returned
    d = parse_pd(TREFOIL)
    m = ArcMarking.zero(d)
    tw = twisted_complex(d, m)
    monkeypatch.setattr(kh, "_hd_even", lambda tw: {})
    with pytest.raises(InternalInconsistency, match="disagree"):
        vertical_then_horizontal_ranks(tw)
    with pytest.raises(InternalInconsistency, match="disagree"):
        hd_even_subcomplex(d, m)


def test_induced_horizontal_rank_once_per_cell(monkeypatch):
    # the map out of (p - 1, q) is the map into (p, q); it is ranked once,
    # and the ranks equal the ones from ranking each map at both ends
    rng = random.Random(13)
    original = spectral_oracle._induced_rank
    for _ in range(10):
        d = random_braid_diagram(rng, max_crossings=6)
        dc, _ = twisted_per_edge(build_cube(d), random_compatible_marking(d, rng), 1)
        calls = []

        def counted(dc, reps, boundaries, cell):
            calls.append((cell, reps, boundaries))
            return original(dc, reps, boundaries, cell)

        monkeypatch.setattr(spectral_oracle, "_induced_rank", counted)
        ranks = spectral_oracle.vertical_then_horizontal_ranks(dc)
        monkeypatch.setattr(spectral_oracle, "_induced_rank", original)
        cells = [cell for cell, _, _ in calls]
        assert len(cells) == len(set(cells))
        if not calls:
            assert ranks == {}
            continue
        _, reps, boundaries = calls[0]
        expected = {}
        for (p, q) in dc.dims:
            h_dim = reps[(p, q)].nrows
            b = (h_dim - original(dc, reps, boundaries, (p, q))
                 - original(dc, reps, boundaries, (p - 1, q))) if h_dim else 0
            if b:
                expected[(p, q)] = b
        assert ranks == expected


def test_weight_ss_trefoil_trivial_marking():
    d = parse_pd(TREFOIL)
    pages = weight_ss(d, ArcMarking.zero(d))
    assert sum(pages.page(2).values()) == 3
    assert sum(pages.e_infinity.values()) == 3
    assert pages.stabilization_index <= d.n + 1


def test_weight_ss_unknot():
    d = parse_pd([], free_loops=1)
    pages = weight_ss(d, ArcMarking(()))
    assert sum(pages.page(2).values()) == 1
    assert sum(pages.e_infinity.values()) == 1


def test_weight_ss_marked_hopf():
    d = parse_pd(HOPF)
    pages = weight_ss(d, ArcMarking((1, 0, 0, 1)))
    assert pages.stabilization_index <= 3
    # E^2 equals dotted homology (checked internally); pages monotone
    for r in range(1, len(pages.pages)):
        for key, v in pages.pages[r].items():
            assert v <= pages.pages[r - 1].get(key, 0)


def test_weight_ss_random_markings():
    rng = random.Random(230)
    for _ in range(10):
        d = random_braid_diagram(rng, max_crossings=5)
        m = random_compatible_marking(d, rng)
        pages = weight_ss(d, m)
        assert pages.stabilization_index <= d.n + 1


# --- module model ---------------------------------------------------------------

def test_psi_identity_on_single_circle():
    d = parse_pd([], free_loops=1)
    s = resolve(d, ())
    model, psi = psi_identification(s, 0)
    assert model.k == 0
    assert psi == {1: 0}


def test_psi_naturality_small_knots():
    for name in ("hopf", "3_1", "4_1"):
        cube = build_cube(small_knot(name))
        assert check_psi_naturality(cube)


def test_psi_naturality_random():
    rng = random.Random(303)
    for _ in range(20):
        d = random_braid_diagram(rng, max_crossings=6)
        assert check_psi_naturality(build_cube(d))


def test_model_edge_dimensions():
    cube = build_cube(parse_pd(TREFOIL))
    for source, target, shape in edge_triples(cube):
        s, t = cube.states[source], cube.states[target]
        m = model_edge_map(cube.shapes[shape], s, t,
                           (s.arc_to_circle[1], t.arc_to_circle[1]))
        assert (m.nrows, m.ncols) == (1 << (t.n_circles - 1), 1 << (s.n_circles - 1))


# --- determinant state sum --------------------------------------------------------

def test_state_sum_basics():
    assert state_sum_det(parse_pd([], free_loops=1)) == 1
    assert state_sum_det(parse_pd(TREFOIL)) == 3
    assert state_sum_det(rational_link([2, 2])) == 5
    assert state_sum_det(parse_pd([], free_loops=2)) == 0


def test_state_sum_split_diagram_zero():
    d = parse_pd(TREFOIL)
    d2 = parse_pd(TREFOIL, free_loops=1)
    assert state_sum_det(d2) == 0
    assert state_sum_det(d) == 3


def test_two_bridge_determinants():
    for coeffs in ([3], [2, 2], [5], [3, 2], [4, 2], [3, 1, 2], [2, 1, 1, 2], [7]):
        assert (state_sum_det(rational_link(coeffs))
                == continued_fraction_numerator(coeffs))


# --- deliberate corruption is caught ----------------------------------------------

def test_corrupted_differential_detected():
    # flipping a single matrix entry must trip the d*d = 0 validation of
    # its quantum-grading block
    from cubekh.complexes import GradedComplexF2
    from cubekh.linalg import MatF2
    cx = kh_complex(parse_pd(TREFOIL))
    diffs = dict(cx.differentials)
    m = diffs[(0, 1)]
    rows = list(m.rows)
    rows[0] ^= 1
    diffs[(0, 1)] = MatF2(m.nrows, m.ncols, tuple(rows))
    with pytest.raises(NotAComplex):
        GradedComplexF2(dict(cx.dims), diffs)
