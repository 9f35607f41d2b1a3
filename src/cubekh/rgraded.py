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
the conclusion when all hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .complexes import ChainMap, GradedComplexF2, block_matrix, homology_ranks, mapping_cone
from .errors import DimensionMismatch, NotChainMap
from .linalg import MatF2, f2_kernel_basis, f2_rank


@dataclass(frozen=True)
class Interval:
    """Grade interval containing lo; hi=None means +infinity, and hi is
    contained only when hi_closed."""

    lo: Fraction
    hi: Fraction | None = None
    hi_closed: bool = False

    def contains(self, x: Fraction) -> bool:
        if x < self.lo:
            return False
        if self.hi is None:
            return True
        if self.hi_closed:
            return x <= self.hi
        return x < self.hi


def _gr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class RGradedComplex(GradedComplexF2):
    """GradedComplexF2 whose generators carry rational grades: grades[k][j]
    is the grade of generator j in homological degree k."""

    def __init__(self, grades: Mapping[int, Sequence], diff: Mapping[int, MatF2]):
        self.grades = {k: tuple(_gr(x) for x in v) for k, v in grades.items() if v}
        super().__init__({k: len(v) for k, v in self.grades.items()}, diff)

    def support(self) -> set:
        return {s for v in self.grades.values() for s in v}

    def has_gap(self, interval: Interval) -> bool:
        supp = sorted(self.support())
        for i, s in enumerate(supp):
            for t in supp[i:]:
                if interval.contains(t - s):
                    return False
        return True

    def differential_shifts(self) -> set:
        out = set()
        for k, m in self.differentials.items():
            out |= _shifts(m, self.grades[k], self.grades[k + 1])
        return out


def _shifts(m: MatF2, src_grades, tgt_grades) -> set:
    out = set()
    for i, row in enumerate(m.rows):
        r = row
        while r:
            low = r & -r
            j = low.bit_length() - 1
            out.add(tgt_grades[i] - src_grades[j])
            r ^= low
    return out


@dataclass(frozen=True)
class RGradedMap:
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

    def shifts(self) -> set:
        out = set()
        for k in self.source.degrees():
            out |= _shifts(self.block(k), self.source.grades[k],
                           self.target.grades.get(k + self.hdeg, ()))
        return out

    def restrict_shifts(self, interval: Interval) -> "RGradedMap":
        """Submap keeping only the entries whose shift lies in the interval."""
        out = {}
        for k in self.source.degrees():
            m = self.block(k)
            src_g = self.source.grades[k]
            tgt_g = self.target.grades.get(k + self.hdeg, ())
            rows = []
            for i, row in enumerate(m.rows):
                keep = 0
                r = row
                while r:
                    low = r & -r
                    j = low.bit_length() - 1
                    if interval.contains(tgt_g[i] - src_g[j]):
                        keep |= low
                    r ^= low
                rows.append(keep)
            out[k] = MatF2(m.nrows, m.ncols, tuple(rows))
        return RGradedMap(self.source, self.target, out, self.hdeg)


def is_nullhomotopy(h: RGradedMap, f: RGradedMap, g: RGradedMap) -> bool:
    """h : E0 -> E2 of degree -1 with d h + h d = g o f."""
    if h.hdeg != -1:
        return False
    e0, e2 = f.source, g.target
    for k in set(e0.grades) | set(e2.grades):
        lhs = (e2.d(k - 1) @ h.block(k)) + (h.block(k + 1) @ e0.d(k))
        rhs = g.block(k) @ f.block(k)
        if lhs.rows != rhs.rows:
            return False
    return True


@dataclass(frozen=True)
class DoubleConeVerdict:
    """Outcome of the double mapping cone check."""

    failed_hypothesis: str | None
    quasi_isomorphism: bool | None


def _cone_map_to_target(f: ChainMap, g: RGradedMap, h: RGradedMap) -> ChainMap:
    """(h, g) : Cone(f) -> E2 as a plain GF(2) chain map."""
    e0, e1, e2 = f.source, f.target, g.target
    cone = mapping_cone(f)
    blocks = {}
    for k in cone.degrees():
        m = block_matrix(
            {(0, 0): h.block(k + 1), (0, 1): g.block(k)},
            [e2.dim(k)], [e0.dim(k + 1), e1.dim(k)])
        blocks[k] = m
    return ChainMap(cone, e2, blocks)


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
    tail = Interval(2 * eps, None)
    leading_f = Interval(Fraction(0), eps)
    zero_only = Interval(Fraction(0), Fraction(0), hi_closed=True)

    chain_maps = []
    for m in (f, g):
        if m.hdeg != 0:
            raise NotChainMap("chain map check requires degree 0")
        try:
            chain_maps.append(ChainMap(m.source, m.target,
                                       {k: m.block(k) for k in m.source.degrees()}))
        except NotChainMap:
            return DoubleConeVerdict("chain-maps", None)
    if not is_nullhomotopy(h, f, g):
        return DoubleConeVerdict("nullhomotopy", None)

    for name, cx in (("E0", e0), ("E1", e1), ("E2", e2)):
        if not all(tail.contains(s) for s in cx.differential_shifts()):
            return DoubleConeVerdict("(1) differential order", None)

    def splits(m: RGradedMap, leading: Interval) -> bool:
        return all(leading.contains(s) or tail.contains(s) for s in m.shifts())

    if not (splits(f, leading_f) and splits(g, zero_only) and splits(h, zero_only)):
        return DoubleConeVerdict("(2) order decomposition", None)

    f0 = f.restrict_shifts(leading_f)
    g0 = g.restrict_shifts(zero_only)
    for k in set(e0.grades) | set(e1.grades) | set(e2.grades):
        mf = f0.block(k)
        mg = g0.block(k)
        rf = f2_rank(mf)
        if rf != e0.dim(k):
            return DoubleConeVerdict("(3) exactness (f0 not injective)", None)
        if f2_rank(mg) != e2.dim(k):
            return DoubleConeVerdict("(3) exactness (g0 not surjective)", None)
        if not (mg @ mf).is_zero() or rf + f2_rank(mg) != e1.dim(k):
            return DoubleConeVerdict("(3) exactness (middle)", None)

    phi = _cone_map_to_target(chain_maps[0], g, h)
    qi = not homology_ranks(mapping_cone(phi))
    return DoubleConeVerdict(None, qi)


# ---------------------------------------------------------------------------
# Randomized instances for exercising the criterion
# ---------------------------------------------------------------------------

def _random_kernel_element(rng, constraints: MatF2) -> int:
    basis = f2_kernel_basis(constraints)
    v = 0
    for row in basis.rows:
        if rng.randint(0, 1):
            v ^= row
    return v


def _random_graded_complex(rng, eps, max_dim=4) -> RGradedComplex:
    """Three-term complex with differential shifts >= 2*eps and d*d = 0."""
    grid = [k * 2 * eps for k in range(4)]
    grades = {k: tuple(sorted(rng.choice(grid) for _ in range(rng.randint(1, max_dim))))
              for k in range(3)}

    def allowed(src, tgt):
        rows = []
        for g_t in grades[tgt]:
            word = 0
            for j, g_s in enumerate(grades[src]):
                if g_t - g_s >= 2 * eps:
                    word |= 1 << j
            rows.append(word)
        return rows

    mask0 = allowed(0, 1)
    d0_rows = [rng.getrandbits(len(grades[0])) & m for m in mask0]
    d0 = MatF2(len(grades[1]), len(grades[0]), tuple(d0_rows))
    # solve d1 with allowed support and d1 @ d0 = 0
    mask1 = allowed(1, 2)
    positions = [(i, j) for i, m in enumerate(mask1)
                 for j in range(len(grades[1])) if (m >> j) & 1]
    n1, n2 = len(grades[1]), len(grades[2])
    if positions:
        eq_rows = []
        for i in range(n2):
            for c0 in range(len(grades[0])):
                word = 0
                for idx, (pi, pj) in enumerate(positions):
                    if pi == i and (d0.rows[pj] >> c0) & 1:
                        word |= 1 << idx
                eq_rows.append(word)
        sol = _random_kernel_element(rng, MatF2(len(eq_rows), len(positions),
                                                tuple(eq_rows)))
        d1_rows = [0] * n2
        for idx, (pi, pj) in enumerate(positions):
            if (sol >> idx) & 1:
                d1_rows[pi] |= 1 << pj
        d1 = MatF2(n2, n1, tuple(d1_rows))
    else:
        d1 = MatF2.zero(n2, n1)
    return RGradedComplex(grades, {0: d0, 1: d1})


def _random_degree1_coupling(rng, eps, src: RGradedComplex, tgt: RGradedComplex) -> dict:
    """Blocks of a degree +1 map beta : src_k -> tgt_{k+1} with shifts
    >= 2*eps and d beta + beta d = 0, suitable as an extension coupling."""
    positions = []
    for k in (0, 1):
        for i, g_t in enumerate(tgt.grades.get(k + 1, ())):
            for j, g_s in enumerate(src.grades.get(k, ())):
                if g_t - g_s >= 2 * eps:
                    positions.append((k, i, j))
    if not positions:
        return {}
    eq_rows = []
    # (d_tgt beta + beta d_src) : src_0 -> tgt_2 must vanish
    for i in range(tgt.dim(2)):
        for j in range(src.dim(0)):
            word = 0
            for idx, (pk, pi, pj) in enumerate(positions):
                if pk == 0 and pj == j and (tgt.d(1).rows[i] >> pi) & 1:
                    word ^= 1 << idx
                if pk == 1 and pi == i and (src.d(0).rows[pj] >> j) & 1:
                    word ^= 1 << idx
            eq_rows.append(word)
    sol = _random_kernel_element(rng, MatF2(len(eq_rows), len(positions), tuple(eq_rows)))
    blocks: dict = {}
    for idx, (pk, pi, pj) in enumerate(positions):
        if (sol >> idx) & 1:
            m = blocks.setdefault(pk, [[0] * src.dim(pk)
                                       for _ in range(tgt.dim(pk + 1))])
            m[pi][pj] = 1
    return {k: MatF2.from_lists(m) for k, m in blocks.items()}


def _direct_sum(parts: Sequence[RGradedComplex],
                couplings: Mapping[tuple, dict] | None = None) -> RGradedComplex:
    """Direct sum with optional upper-triangular couplings (chain maps
    part[b] -> part[a] folded into the differential)."""
    couplings = couplings or {}
    grades = {}
    offs = {}
    for k in range(3):
        row = []
        for idx, cx in enumerate(parts):
            offs[(idx, k)] = len(row)
            row.extend(cx.grades.get(k, ()))
        grades[k] = tuple(row)
    diff = {}
    for k in (0, 1):
        blocks = {}
        for idx, cx in enumerate(parts):
            blocks[(idx, idx)] = cx.d(k)
        for (a, b), blk in couplings.items():
            m = blk.get(k)
            if m is not None:
                blocks[(a, b)] = m
        diff[k] = block_matrix(blocks,
                               [cx.dim(k + 1) for cx in parts],
                               [cx.dim(k) for cx in parts])
    return RGradedComplex(grades, diff)


def random_lemma_instance(rng, eps):
    """Instance satisfying hypotheses (1)-(3): E1 is an extension of E2 by E0."""
    eps = _gr(eps)
    e0 = _random_graded_complex(rng, eps)
    e2 = _random_graded_complex(rng, eps)
    beta = _random_degree1_coupling(rng, eps, e2, e0)
    e1 = _direct_sum([e0, e2], {(0, 1): beta})
    f_blocks = {}
    g_blocks = {}
    for k in range(3):
        n0, n2 = e0.dim(k), e2.dim(k)
        f_blocks[k] = MatF2(n0 + n2, n0,
                            tuple(1 << i for i in range(n0)) + (0,) * n2)
        g_blocks[k] = MatF2(n2, n0 + n2, tuple(1 << (n0 + i) for i in range(n2)))
    f = RGradedMap(e0, e1, f_blocks)
    g = RGradedMap(e1, e2, g_blocks)
    h = RGradedMap(e0, e2, {}, hdeg=-1)
    return e0, e1, e2, f, g, h


def random_violating_instance(rng, eps):
    """Negative control: exactness at E1 fails (extra direct summand)."""
    eps = _gr(eps)
    e0 = _random_graded_complex(rng, eps)
    e2 = _random_graded_complex(rng, eps)
    extra = _random_graded_complex(rng, eps, max_dim=2)
    e1 = _direct_sum([e0, extra, e2])
    f_blocks = {}
    g_blocks = {}
    for k in range(3):
        n0, nx, n2 = e0.dim(k), extra.dim(k), e2.dim(k)
        f_blocks[k] = MatF2(n0 + nx + n2, n0,
                            tuple(1 << i for i in range(n0)) + (0,) * (nx + n2))
        g_blocks[k] = MatF2(n2, n0 + nx + n2,
                            tuple(1 << (n0 + nx + i) for i in range(n2)))
    f = RGradedMap(e0, e1, f_blocks)
    g = RGradedMap(e1, e2, g_blocks)
    h = RGradedMap(e0, e2, {}, hdeg=-1)
    return e0, e1, e2, f, g, h
