"""Real-graded GF(2) chain complexes and the double mapping cone criterion.

Generators carry an exact rational grade; a map has order I when every
nonzero matrix entry shifts the grade by an amount inside I.  The criterion
checked here: given chain maps f : E0 -> E1, g : E1 -> E2 and a
nullhomotopy h of g o f such that

  (1) each differential has order [2e, inf),
  (2) f splits as f0 + f1 with f0 of order [0, e), g and h split with
      order-0 leading parts and remainders of order [2e, inf),
  (3) 0 -> E0 -> E1 -> E2 -> 0 is exact through the leading parts,

the combined map (h, g) : Cone(f) -> E2 is a quasi-isomorphism.  The checker
verifies the hypotheses, names the first one that fails, and only asserts
the conclusion when all hold.  A map is checked as a chain map by building
its cone (`mapping_cone`).  Once f and g are chain maps, (h, g) commutes
with the differentials exactly when d h + h d = g o f, so Cone((h, g)) is
built once: building it is the nullhomotopy check, and its homology is the
conclusion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

from .complexes import GradedComplexF2, block_matrix, homology_ranks, mapping_cone
from .errors import DimensionMismatch, NotChainMap
from .linalg import MatF2, f2_kernel_basis, f2_rank, product_is_zero


def _gr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class RGradedComplex(GradedComplexF2):
    """GradedComplexF2 whose generators carry rational grades: grades[k][j]
    is the grade of generator j in homological degree k."""

    def __init__(self, grades: Mapping[int, Sequence], diff: Mapping[int, MatF2]):
        self.grades = {k: tuple(_gr(x) for x in v) for k, v in grades.items() if v}
        super().__init__({k: len(v) for k, v in self.grades.items()}, diff)


def _keep(m: MatF2, src_grades, tgt_grades, *windows: Callable) -> MatF2:
    """The entries of m whose shift (target grade - source grade) one of the
    windows, a predicate on the shift, accepts; only the set bits are
    visited."""
    rows = []
    for t, row in zip(tgt_grades, m.rows):
        keep, r = 0, row
        while r:
            low = r & -r
            shift = t - src_grades[low.bit_length() - 1]
            if any(w(shift) for w in windows):
                keep |= low
            r ^= low
        rows.append(keep)
    return MatF2(m.nrows, m.ncols, tuple(rows))


class RGradedMap(NamedTuple):
    """Map of real-graded complexes, shifting homological degree by hdeg."""

    source: RGradedComplex
    target: RGradedComplex
    blocks: dict
    hdeg: int = 0

    def block(self, k: int) -> MatF2:
        m = self.blocks.get(k)
        exp = (self.target.dim(k + self.hdeg), self.source.dim(k))
        if m is None:
            return MatF2.zero(*exp)
        if (m.nrows, m.ncols) != exp:
            raise DimensionMismatch(f"map block at degree {k} has wrong shape")
        return m

    def part(self, *windows: Callable) -> "RGradedMap":
        """The entries whose shift one of the windows accepts, as a map with
        one block per source degree."""
        return RGradedMap(self.source, self.target, {
            k: _keep(self.block(k), self.source.grades[k],
                     self.target.grades.get(k + self.hdeg, ()), *windows)
            for k in self.source.degrees()}, self.hdeg)


class DoubleConeVerdict(NamedTuple):
    """Outcome of the double mapping cone check."""

    failed_hypothesis: str | None
    quasi_isomorphism: bool | None


def check_double_mapping_cone(e0: RGradedComplex, e1: RGradedComplex,
                              e2: RGradedComplex, f: RGradedMap, g: RGradedMap,
                              h: RGradedMap, eps) -> DoubleConeVerdict:
    """Verify hypotheses (1)-(3) and, when they hold, the conclusion that
    (h, g) : Cone(f) -> E2 is a quasi-isomorphism.

    Returns a verdict naming the first failed hypothesis; the conclusion is
    only evaluated when every hypothesis holds.
    """
    eps = _gr(eps)
    if eps <= 0:
        raise DimensionMismatch("eps must be positive")

    # the grade windows, as predicates on the shift s of an entry
    def tail(s):
        return s >= 2 * eps

    def leading_f(s):
        return 0 <= s < eps

    def zero_only(s):
        return s == 0

    cones = []
    for m in (f, g):
        if m.hdeg != 0:
            raise NotChainMap("chain map check requires degree 0")
        try:
            cones.append(mapping_cone(m.source, m.target,
                                      {k: m.block(k) for k in m.source.degrees()}))
        except NotChainMap:
            return DoubleConeVerdict("chain-maps", None)
    if h.hdeg != -1:
        return DoubleConeVerdict("nullhomotopy", None)
    # phi = (h, g) : Cone(f) -> E2, in the cone's layout (E1_k, then
    # E0_{k+1}); with f and g chain maps, phi commutes exactly when
    # d h + h d = g f
    phi_blocks = {k: block_matrix({(0, 0): g.block(k), (0, 1): h.block(k + 1)},
                                  [g.target.dim(k)], [f.target.dim(k), f.source.dim(k + 1)])
                  for k in cones[0].degrees()}
    try:
        cone_phi = mapping_cone(cones[0], g.target, phi_blocks)
    except NotChainMap:
        return DoubleConeVerdict("nullhomotopy", None)

    for cx in (e0, e1, e2):
        for k, d in cx.differentials.items():
            if _keep(d, cx.grades[k], cx.grades[k + 1], tail) != d:
                return DoubleConeVerdict("(1) differential order", None)

    for m, leading in ((f, leading_f), (g, zero_only), (h, zero_only)):
        kept = m.part(leading, tail)
        if any(b != m.block(k) for k, b in kept.blocks.items()):
            return DoubleConeVerdict("(2) order decomposition", None)

    f0 = f.part(leading_f)
    g0 = g.part(zero_only)
    for k in set(e0.grades) | set(e1.grades) | set(e2.grades):
        mf = f0.block(k)
        mg = g0.block(k)
        rf, rg = f2_rank(mf), f2_rank(mg)
        if rf != e0.dim(k):
            return DoubleConeVerdict("(3) exactness (f0 not injective)", None)
        if rg != e2.dim(k):
            return DoubleConeVerdict("(3) exactness (g0 not surjective)", None)
        if not product_is_zero(mg, mf) or rf + rg != e1.dim(k):
            return DoubleConeVerdict("(3) exactness (middle)", None)

    return DoubleConeVerdict(None, not homology_ranks(cone_phi))


# ---------------------------------------------------------------------------
# Randomized instances for exercising the criterion
# ---------------------------------------------------------------------------

def _matrix(nrows: int, ncols: int, entries) -> MatF2:
    """The nrows x ncols matrix with a 1 at each (i, j) of entries."""
    rows = [0] * nrows
    for i, j in entries:
        rows[i] |= 1 << j
    return MatF2(nrows, ncols, tuple(rows))


def _positions(src_grades, tgt_grades, eps) -> list:
    """Entries (i, j), row by row, that a map of shifts >= 2*eps may use."""
    return [(i, j) for i, t in enumerate(tgt_grades)
            for j, s in enumerate(src_grades) if t - s >= 2 * eps]


def _random_solution(rng, positions: list, image) -> list:
    """Random subset of positions whose unit matrices sum to a solution X of
    image(X) = 0, for a linear `image` given by image(p), its value at the
    unit matrix at p; entry (i, j) of that value is equation i * ncols + j."""
    if not positions:
        return []
    columns = []
    for p in positions:
        m = image(p)
        columns.append(sum(r << (i * m.ncols) for i, r in enumerate(m.rows)))
    constraints = MatF2(len(columns), m.nrows * m.ncols, tuple(columns)).transpose()
    v = 0
    for row in f2_kernel_basis(constraints).rows:
        if rng.randint(0, 1):
            v ^= row
    return [p for idx, p in enumerate(positions) if (v >> idx) & 1]


def _random_graded_complex(rng, eps, max_dim=4) -> RGradedComplex:
    """Three-term complex with differential shifts >= 2*eps and d*d = 0."""
    grid = [k * 2 * eps for k in range(4)]
    grades = {k: tuple(sorted(rng.choice(grid) for _ in range(rng.randint(1, max_dim))))
              for k in range(3)}
    n0, n1, n2 = (len(grades[k]) for k in range(3))
    d0 = _keep(MatF2(n1, n0, tuple(rng.getrandbits(n0) for _ in range(n1))),
               grades[0], grades[1], lambda s: s >= 2 * eps)
    # d1 with shifts >= 2*eps and d1 @ d0 = 0
    d1 = _matrix(n2, n1, _random_solution(
        rng, _positions(grades[1], grades[2], eps),
        lambda p: _matrix(n2, n1, [p]) @ d0))
    return RGradedComplex(grades, {0: d0, 1: d1})


def _random_degree1_coupling(rng, eps, src: RGradedComplex, tgt: RGradedComplex) -> dict:
    """Blocks of a degree +1 map beta : src_k -> tgt_{k+1} with shifts
    >= 2*eps and d beta + beta d = 0, suitable as an extension coupling."""
    shape = {k: (tgt.dim(k + 1), src.dim(k)) for k in (0, 1)}
    positions = [(k, i, j) for k in (0, 1)
                 for i, j in _positions(src.grades.get(k, ()),
                                        tgt.grades.get(k + 1, ()), eps)]

    def image(p):
        # (d_tgt beta + beta d_src) : src_0 -> tgt_2 of the unit beta at p
        k, i, j = p
        unit = _matrix(*shape[k], [(i, j)])
        return tgt.d(1) @ unit if k == 0 else unit @ src.d(0)

    sol = _random_solution(rng, positions, image)
    return {k: _matrix(*shape[k], [(i, j) for pk, i, j in sol if pk == k])
            for k in (0, 1)}


def _direct_sum(parts: Sequence[RGradedComplex],
                couplings: Mapping[tuple, dict] | None = None) -> RGradedComplex:
    """Direct sum with optional upper-triangular couplings (chain maps
    part[b] -> part[a] folded into the differential)."""
    grades = {k: tuple(x for cx in parts for x in cx.grades.get(k, ())) for k in range(3)}
    diff = {}
    for k in (0, 1):
        blocks = {(idx, idx): cx.d(k) for idx, cx in enumerate(parts)}
        for (a, b), blk in (couplings or {}).items():
            blocks[(a, b)] = blk[k]
        diff[k] = block_matrix(blocks,
                               [cx.dim(k + 1) for cx in parts],
                               [cx.dim(k) for cx in parts])
    return RGradedComplex(grades, diff)


def _instance(parts: Sequence[RGradedComplex], couplings=None):
    """(E0, E1, E2, f, g, h = 0) with E1 the direct sum of parts, E0 its first
    summand and E2 its last: f includes E0 and g projects onto E2."""
    e0, e2 = parts[0], parts[-1]
    e1 = _direct_sum(parts, couplings)
    f_blocks, g_blocks = {}, {}
    for k in range(3):
        n0, n1, n2 = e0.dim(k), e1.dim(k), e2.dim(k)
        f_blocks[k] = _matrix(n1, n0, [(i, i) for i in range(n0)])
        g_blocks[k] = _matrix(n2, n1, [(i, n1 - n2 + i) for i in range(n2)])
    return (e0, e1, e2, RGradedMap(e0, e1, f_blocks), RGradedMap(e1, e2, g_blocks),
            RGradedMap(e0, e2, {}, hdeg=-1))


def random_lemma_instance(rng, eps):
    """Instance satisfying hypotheses (1)-(3): E1 is an extension of E2 by E0."""
    eps = _gr(eps)
    e0 = _random_graded_complex(rng, eps)
    e2 = _random_graded_complex(rng, eps)
    return _instance([e0, e2], {(0, 1): _random_degree1_coupling(rng, eps, e2, e0)})


def random_violating_instance(rng, eps):
    """Negative control: exactness at E1 fails (extra direct summand)."""
    eps = _gr(eps)
    e0 = _random_graded_complex(rng, eps)
    e2 = _random_graded_complex(rng, eps)
    return _instance([e0, _random_graded_complex(rng, eps, max_dim=2), e2])
