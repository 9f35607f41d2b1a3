"""Clearing in every GF(2) elimination against the plain elimination in
linalg_helpers, which ranks each differential from scratch and reduces
every column: Betti numbers of kh, Khr, the twisted total complex and the
all-even-vertex subcomplex (hd), and the persistence pairing and pages of
the cube-weight filtration (ss), on the 500-diagram acceptance corpus with
a random compatible marking and on random braid closures with kinks and
free loops; and the d^2 = 0 check, on which clearing rests, still runs
before any rank is taken."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubekh.complexes as cx
import cubekh.khovanov as kh
from cubekh.acceptance import CORPUS_MAX_CROSSINGS, CORPUS_SEED, CORPUS_SIZE
from cubekh.corpus import diagram_corpus, random_braid_diagram, random_compatible_marking
from cubekh.diagram import Diagram
from cubekh.errors import NotAComplex, NotBicomplex
from cubekh.linalg import MatF2
from cube_oracle import edge_triples
from linalg_helpers import plain_homology_ranks, plain_pairing
from test_det_oracle import add_kinks


def check_clearing(d, marking, monkeypatch):
    """Every rank and every pairing that kh, Khr, the twisted complex, hd
    and ss take on d's cube equals the plain one."""
    taken = {"ranks": 0, "pages": 0}

    def ranks(c):
        got = cx.homology_ranks(c)
        assert got == plain_homology_ranks(c)
        taken["ranks"] += 1
        return got

    def pages(fc):
        got = cx.spectral_pages(fc)
        free, bars = plain_pairing(fc)
        assert cx._pairing(fc) == (free, bars)
        assert got == cx._pages_of(free, bars, fc.max_level + 1)
        taken["pages"] += 1
        return got

    cube = kh.build_cube(d)
    with monkeypatch.context() as mp:
        mp.setattr(kh, "homology_ranks", ranks)
        mp.setattr(kh, "spectral_pages", pages)
        kh.homology_ranks(kh._assemble(cube, False))
        kh.homology_ranks(kh._assemble(cube, True))
        tw = kh._twisted(cube, marking)
        kh.homology_ranks(tw.total)
        kh._checked_e2(tw)
    # kh, Khr, the total complex and hd; the pages once
    assert taken == {"ranks": 4, "pages": 1}


CORPUS = diagram_corpus(CORPUS_SEED, CORPUS_SIZE, CORPUS_MAX_CROSSINGS)
CHUNK = 50


@pytest.mark.parametrize("start", range(0, len(CORPUS), CHUNK))
def test_corpus_clearing_matches_plain_elimination(start, monkeypatch):
    for i in range(start, min(start + CHUNK, len(CORPUS))):
        d = CORPUS[i]
        check_clearing(d, random_compatible_marking(d, random.Random(i)), monkeypatch)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kinks=st.integers(0, 2),
       free_loops=st.integers(0, 2))
def test_random_braid_clearing_matches_plain_elimination(seed, kinks, free_loops):
    rng = random.Random(seed)
    d = add_kinks(random_braid_diagram(rng, max_crossings=7), kinks, rng)
    d = Diagram(d.crossings, free_loops=d.free_loops + free_loops)
    with pytest.MonkeyPatch.context() as mp:
        check_clearing(d, random_compatible_marking(d, rng), mp)


def test_d_squared_checked_before_any_rank(monkeypatch):
    # clearing is only valid when d^2 = 0: a complex whose d_1 d_0 != 0 is
    # refused when it is built, and no elimination has run
    calls = []
    real = cx._pivots

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cx, "_pivots", counted)
    one = MatF2(1, 1, (1,))
    with pytest.raises(NotAComplex, match=r"d_1 d_0 != 0"):
        cx.GradedComplexF2({0: 1, 1: 1, 2: 1}, {0: one, 1: one})
    with pytest.raises(NotAComplex):
        cx.GradedComplexF2({(0, 1): 1, (1, 1): 1, (2, 1): 1},
                           {(0, 1): one, (1, 1): one})
    assert not calls


@pytest.mark.parametrize("cmd", ["kh", "khr", "twisted", "hd", "ss"])
def test_broken_cube_refused_before_any_rank(monkeypatch, cmd):
    # the trefoil with the map of one edge's shape zeroed: a face of the
    # cube fails d^2 = 0, which is refused before anything is eliminated
    from cubekh.cli import run_job
    import cubekh.linalg as la
    pd = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]
    cube = kh.build_cube(Diagram(pd))
    victim = next(cube.shapes[shape] for s, t, shape in edge_triples(cube) if (s, t) == (0, 1))
    real_edge_map = kh.edge_map

    def broken_edge_map(shape, marked=None):
        m = real_edge_map(shape, marked)
        return MatF2.zero(m.nrows, m.ncols) if shape == victim else m

    calls = []
    real = la._pivots

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kh, "edge_map", broken_edge_map)
    for module in (cx, la):
        monkeypatch.setattr(module, "_pivots", counted)
    with pytest.raises((NotAComplex, NotBicomplex)):
        run_job(cmd, {"pd": pd})
    assert not calls
