"""Spectral pages from the persistence pairing against the subquotient
oracle in spectral_oracle, the mask-based filtration check against the
entry-by-entry one, and dotted homology read off the E^2 page against the
class-representative computation: on random filtered complexes, on random
level assignments, on the twisted complexes of the first acceptance-corpus
diagrams, and on random braid closures."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectral_oracle as oracle
from cubekh.acceptance import CORPUS_MAX_CROSSINGS, CORPUS_SEED
from cubekh.complexes import (
    DoubleComplexF2,
    FilteredComplexF2,
    spectral_pages,
    total_complex,
)
from cubekh.corpus import (
    diagram_corpus,
    random_braid_diagram,
    random_compatible_marking,
)
from cubekh.diagram import ArcMarking
from cubekh.errors import FiltrationViolation
from cubekh.khovanov import twisted_complex, vertical_then_horizontal_ranks
from test_complexes import random_filtered, random_three_term


def check_pages(fc):
    for max_r in (None, 1, fc.max_level + 3):
        assert spectral_pages(fc, max_r) == oracle.spectral_pages(fc, max_r)


@pytest.mark.parametrize("max_dim,levels", [(2, 1), (4, 3), (6, 5), (8, 4)])
def test_random_filtered_pages_match_oracle(max_dim, levels):
    rng = random.Random(100 * max_dim + levels)
    for _ in range(25):
        check_pages(random_filtered(rng, max_dim=max_dim, levels=levels))


def test_filtration_check_matches_oracle():
    rng = random.Random(7)
    raised = 0
    for _ in range(300):
        c = random_three_term(rng, [rng.randint(1, 6) for _ in range(3)])
        levels = {k: [rng.randrange(4) for _ in range(c.dim(k))]
                  for k in c.degrees()}
        want = oracle.filtration_violation(c, levels)
        if want is None:
            FilteredComplexF2(c, levels)
            continue
        raised += 1
        with pytest.raises(FiltrationViolation) as info:
            FilteredComplexF2(c, levels)
        # the reported entry is a genuine violation in the same degree
        src, tgt, k = map(int, re.fullmatch(
            r"d lowers filtration from level (\d+) to (\d+) at degree (-?\d+)",
            str(info.value)).groups())
        assert k == want[0] and tgt < src
    assert 0 < raised < 300


CORPUS_HEAD = diagram_corpus(CORPUS_SEED, 40, CORPUS_MAX_CROSSINGS)


@pytest.mark.parametrize("i", range(len(CORPUS_HEAD)))
def test_corpus_weight_filtration_pages_match_oracle(i):
    d = CORPUS_HEAD[i]
    m = random_compatible_marking(d, random.Random(CORPUS_SEED + i))
    total, _ = total_complex(twisted_complex(d, m))
    levels = {t: [sum(lab[0]) for lab in total.labels[t]]
              for t in total.degrees()}
    check_pages(FilteredComplexF2(total, levels))


def check_dotted(d, rng):
    for m in (ArcMarking.zero(d), random_compatible_marking(d, rng)):
        dc = twisted_complex(d, m)
        # the E^2 route takes the levels from the cells, not the labels
        bare = DoubleComplexF2(dc.dims, dc.d_h, dc.d_v, check=False)
        assert (vertical_then_horizontal_ranks(bare)
                == oracle.vertical_then_horizontal_ranks(dc))


@pytest.mark.parametrize("i", range(len(CORPUS_HEAD)))
def test_corpus_dotted_homology_matches_oracle(i):
    check_dotted(CORPUS_HEAD[i], random.Random(CORPUS_SEED + i))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_braid_dotted_homology_matches_oracle(seed):
    rng = random.Random(seed)
    check_dotted(random_braid_diagram(rng, max_crossings=7), rng)
