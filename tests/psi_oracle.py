"""Free-module model of reduced vertex spaces, kept as an independent oracle
for the reduced edge maps of `cubekh.khovanov`.

Each reduced vertex space is identified (psi) with a rank-one free module:
tensor powers of a two-element space, acted on by the exterior algebra on
one generator per unmarked circle.  The edge maps are computed inside the
models alone and compared with the cube's reduced maps through psi.  Every
function takes the marked circle explicitly; `check_psi_naturality` reads
it off each state as `arc_to_circle[basepoint]`.
"""

from dataclasses import dataclass

from cubekh.errors import InternalInconsistency
from cube_oracle import edge_triples, reduced_masks
from cubekh.khovanov import edge_map
from cubekh.linalg import MatF2


@dataclass(frozen=True)
class ThetaModuleModel:
    """Rank-one free module model: tensor powers of a two-element space,
    acted on by the exterior algebra on one generator per unmarked circle.

    Basis elements are subsets of generator positions (bitmasks); the
    identification sends the reduced monomial marked ^ S_{c1} ^ ... to the
    generator subset for those circles.
    """

    k: int
    circle_for_gen: tuple

    def gen_for_circle(self) -> dict:
        return {c: g for g, c in enumerate(self.circle_for_gen)}


def psi_identification(state, marked: int) -> tuple[ThetaModuleModel, dict]:
    """Model for a resolved state with the given marked circle plus the
    basis bijection of the reduced vertex space onto it.  Returns (model,
    psi) with psi mapping each reduced basis mask to a generator-subset
    mask."""
    others = [c for c in range(state.n_circles) if c != marked]
    model = ThetaModuleModel(len(others), tuple(others))
    gen_of = model.gen_for_circle()
    psi = {}
    for mask in reduced_masks(state, marked):
        out = 0
        for c in others:
            if (mask >> c) & 1:
                out |= 1 << gen_of[c]
        psi[mask] = out
    return model, psi


def model_edge_map(shape, src, tgt, marked: tuple[int, int]) -> MatF2:
    """Map of an edge of the given shape from state src to state tgt,
    computed purely inside the module models, given the marked circles (of
    src, of tgt).

    A merge is the quotient of the exterior action killing the class of the
    surgery circle (pairs of generators identified, or one generator killed
    when the marked circle participates); a split wedges with the class of
    the new piece(s).  Matrices are in the theta-subset bases, aligned with
    the reduced bases through psi_identification.
    """
    ms, mt = marked
    m_src, _ = psi_identification(src, ms)
    m_tgt, _ = psi_identification(tgt, mt)
    gen_s = m_src.gen_for_circle()
    gen_t = m_tgt.gen_for_circle()
    rows = [0] * (1 << m_tgt.k)
    if shape.kind == "merge":
        i, j = shape.circles
        marked_involved = ms in (i, j)
        gen_image: dict[int, int | None] = {}
        for c in m_src.circle_for_gen:
            if c in (i, j):
                if marked_involved:
                    gen_image[gen_s[c]] = None      # class dies: X_0 = 0
                else:
                    gen_image[gen_s[c]] = gen_t[shape.correspondence[c]]
            else:
                gen_image[gen_s[c]] = gen_t[shape.correspondence[c]]
        for mask in range(1 << m_src.k):
            out = 0
            dead = False
            for g in range(m_src.k):
                if (mask >> g) & 1:
                    img = gen_image[g]
                    if img is None or (out >> img) & 1:
                        dead = True
                        break
                    out |= 1 << img
            if not dead:
                rows[out] ^= 1 << mask
    else:
        c_split, (c1, c2) = shape.circles
        split_marked = c_split == ms
        if split_marked:
            new_piece = c1 if c1 != mt else c2
            kw = 1 << gen_t[new_piece]
            iota = {gen_s[c]: gen_t[shape.correspondence[c]]
                    for c in m_src.circle_for_gen}
        else:
            rep = min(c1, c2)
            kw = (1 << gen_t[c1]) | (1 << gen_t[c2])
            iota = {}
            for c in m_src.circle_for_gen:
                iota[gen_s[c]] = gen_t[shape.correspondence[c] if c != c_split else rep]
        for mask in range(1 << m_src.k):
            out = 0
            for g in range(m_src.k):
                if (mask >> g) & 1:
                    out |= 1 << iota[g]
            # wedge with the kernel class: sum over its generator bits
            kww = kw
            while kww:
                low = kww & -kww
                kww ^= low
                if not out & low:
                    rows[out | low] ^= 1 << mask
    return MatF2(1 << m_tgt.k, 1 << m_src.k, tuple(rows))


def check_psi_naturality(cube, basepoint: int = 1) -> bool:
    """Every cube edge: the reduced Khovanov map at the circle through the
    basepoint arc equals the model map through the psi identifications."""
    for source, target, shape in edge_triples(cube):
        s, t = cube.states[source], cube.states[target]
        marked = (s.arc_to_circle[basepoint], t.arc_to_circle[basepoint])
        kh_side = edge_map(cube.shapes[shape], marked)
        model_side = model_edge_map(cube.shapes[shape], s, t, marked)
        # aligned bases: psi is the identity permutation on sorted masks
        for state, mc in zip((s, t), marked):
            _, psi = psi_identification(state, mc)
            perm = [psi[m] for m in reduced_masks(state, mc)]
            if perm != sorted(perm):
                raise InternalInconsistency(
                    "psi does not keep the order of the reduced basis")
        if kh_side.rows != model_side.rows:
            return False
    return True
