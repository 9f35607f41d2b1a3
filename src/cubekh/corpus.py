"""Diagram constructions: braid closures, rational tangle closures, and the
small named knots and links the test suites lean on.

Braid closures give valid connected PD codes by construction, which makes
them the workhorse for randomized corpora.  Rational (2-bridge) diagrams are
built from twist regions; correctness of each named knot is pinned by its
determinant, crossing number and component count in the tests.
"""

from __future__ import annotations

import random
from typing import Sequence

from .diagram import ArcMarking, Diagram, _glued, normalize_under_slots
from .errors import MalformedPD


def braid_closure(word: Sequence[int], strands: int) -> Diagram:
    """Close a braid word into a link diagram.

    word entries are nonzero integers +-i for the standard generators on
    `strands` strands; positions untouched by any letter close into free
    loops.
    """
    if strands < 1:
        raise MalformedPD("need at least one strand")
    for w in word:
        if w == 0 or abs(w) >= strands:
            raise MalformedPD(f"letter {w} invalid for {strands} strands")
    nxt = strands + 1
    cur = list(range(1, strands + 1))
    init = list(cur)
    crossings = []
    for w in word:
        i = abs(w) - 1
        a, b = cur[i], cur[i + 1]
        c, dd = nxt, nxt + 1
        nxt += 2
        if w > 0:
            crossings.append((a, b, dd, c))
        else:
            crossings.append((b, dd, c, a))
        cur[i], cur[i + 1] = c, dd
    labels = range(1, nxt)
    unions = [(cur[j], init[j]) for j in range(strands)]
    return normalize_under_slots(*_glued(crossings, labels, unions))


class _Tangle:
    """Rational tangle under construction; ends are raw arc labels."""

    def __init__(self):
        self.crossings: list[tuple[int, int, int, int]] = []
        self.nw = self.ne = 1
        self.sw = self.se = 2
        self.next = 3

    def _fresh(self):
        x = self.next
        self.next += 1
        return x

    def twist_right(self):
        a, b = self.ne, self.se
        x, y = self._fresh(), self._fresh()
        self.crossings.append((a, b, y, x))
        self.ne, self.se = x, y

    def twist_bottom(self):
        # the opposite handedness to twist_right, so alternating twist
        # regions give an alternating diagram
        a, b = self.sw, self.se
        x, y = self._fresh(), self._fresh()
        self.crossings.append((a, x, y, b))
        self.sw, self.se = x, y

    def numerator_closure(self) -> Diagram:
        unions = [(self.nw, self.ne), (self.sw, self.se)]
        return normalize_under_slots(*_glued(self.crossings, range(1, self.next),
                                             unions))


def rational_link(coeffs: Sequence[int]) -> Diagram:
    """Numerator closure of the rational tangle with the given twist counts.

    Twist regions alternate bottom/right starting with bottom; the diagram is
    alternating and its determinant is the continued fraction numerator of
    the coefficients.
    """
    if not coeffs or any(c < 0 for c in coeffs):
        raise MalformedPD("twist counts must be positive")
    # odd length makes the innermost level horizontal, so construction can
    # start from the 0-tangle; [.., a] = [.., a-1, 1] preserves the fraction
    c = list(coeffs)
    if len(c) % 2 == 0:
        if c[-1] > 1:
            c = c[:-1] + [c[-1] - 1, 1]
        else:
            c = c[:-2] + [c[-2] + 1]
    t = _Tangle()
    # inside out: level j uses right twists when j is odd, bottom when even
    for j in range(len(c), 0, -1):
        for _ in range(c[j - 1]):
            if j % 2 == 1:
                t.twist_right()
            else:
                t.twist_bottom()
    return t.numerator_closure()


_NAMED = {
    "unknot": [],
    "hopf": [2],
    "3_1": [3],
    "trefoil": [3],
    "4_1": [2, 2],
    "5_1": [5],
    "5_2": [3, 2],
    "6_1": [4, 2],
    "6_2": [3, 1, 2],
    "6_3": [2, 1, 1, 2],
    "7_4_torus": [7],
}


def small_knot(name: str) -> Diagram:
    """Named small knots and links as rational diagrams (unknot: free loop)."""
    if name not in _NAMED:
        raise KeyError(f"unknown diagram name {name!r}")
    coeffs = _NAMED[name]
    if not coeffs:
        return Diagram([], free_loops=1)
    return rational_link(coeffs)


def random_braid_diagram(rng: random.Random, max_crossings: int = 7,
                         min_crossings: int = 1) -> Diagram:
    """Random connected braid-closure diagram with n <= max_crossings."""
    while True:
        strands = rng.randint(2, min(4, max(2, max_crossings)))
        length = rng.randint(max(min_crossings, strands - 1), max_crossings)
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1)
                for _ in range(length)]
        if {abs(w) for w in word} == set(range(1, strands)):
            return braid_closure(word, strands)


def random_compatible_marking(d: Diagram, rng: random.Random) -> ArcMarking:
    """Random arc marking whose induced two-fold datum has even total parity."""
    comp_bits = [rng.randint(0, 1) for _ in d.components]
    if sum(comp_bits) % 2:
        comp_bits[rng.randrange(len(comp_bits))] ^= 1
    bits = [0] * d.arc_count
    for comp, parity in zip(d.components, comp_bits):
        arcs = list(comp)
        size = rng.randint(0, len(arcs))
        if size % 2 != parity:
            size = size + 1 if size < len(arcs) else size - 1
        for a in rng.sample(arcs, size):
            bits[a - 1] = 1
    return ArcMarking(tuple(bits))


def diagram_corpus(seed: int = 2024, count: int = 500,
                   max_crossings: int = 7) -> list[Diagram]:
    """Deterministic corpus of distinct connected diagrams for acceptance runs."""
    rng = random.Random(seed)
    seen = set()
    out: list[Diagram] = []
    while len(out) < count:
        d = random_braid_diagram(rng, max_crossings=max_crossings)
        key = (d.crossings, d.free_loops)
        if key not in seen:
            seen.add(key)
            out.append(d)
    return out
