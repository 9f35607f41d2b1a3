"""Reference version of the Kauffman state sum, kept as the oracle for the
frontier dynamic program in `cubekh.khovanov.state_sum_det`.

It is the straightforward form the dynamic program replaced: all 2^n states,
each resolved by a fresh dict union-find over the arcs, and every state that
closes into a single circle added with weight A^(#0-smoothings - #1-smoothings)
at A = zeta8, in Z[x]/(x^4+1).  `continued_fraction_numerator` gives the
determinant of a rational link from its continued fraction.
"""

import math
from fractions import Fraction

from cubekh.diagram import _UnionFind
from cubekh.errors import InternalInconsistency


def _zeta8_mul(a, b):
    """Product in Z[x]/(x^4+1), coefficients of 1, x, x^2, x^3."""
    out = [0, 0, 0, 0]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            e = i + j
            if e >= 8:
                e -= 8
            if e >= 4:
                out[e - 4] -= ai * bj
            else:
                out[e] += ai * bj
    return out


def zeta8_bracket(d):
    """The single-circle state sum as the 4 coefficients of 1, x, x^2, x^3
    (diagrams with at least one crossing and no free loops)."""
    n = d.n
    z = [0, 0, 0, 0]
    for bits in range(1 << n):
        uf = _UnionFind(range(1, d.arc_count + 1))
        zeros = 0
        for t in range(n):
            c = d.crossings[t]
            if (bits >> t) & 1:
                uf.union(c[0], c[3])
                uf.union(c[1], c[2])
            else:
                zeros += 1
                uf.union(c[0], c[1])
                uf.union(c[2], c[3])
        roots = {uf.find(a) for a in range(1, d.arc_count + 1)}
        if len(roots) != 1:
            continue
        e = (zeros - (n - zeros)) % 8
        if e >= 4:
            z[e - 4] -= 1
        else:
            z[e] += 1
    return tuple(z)


def state_sum_det(d):
    """|det| from the bracket at zeta8 as the square root of its norm
    z * conj(z), which must be a non-negative integer square."""
    n = d.n
    if n == 0:
        return 1 if d.free_loops == 1 else (0 if d.free_loops else 1)
    if d.free_loops:
        return 0
    z = zeta8_bracket(d)
    conj = [z[0], -z[3], -z[2], -z[1]]
    norm = _zeta8_mul(z, conj)
    if norm[1] or norm[2] or norm[3]:
        if norm[2] or norm[1] != -norm[3]:
            raise InternalInconsistency(f"norm not real: {norm}")
        if norm[1]:
            raise InternalInconsistency(f"norm not an integer: {norm}")
    det_sq = norm[0]
    root = math.isqrt(det_sq)
    if root * root != det_sq:
        raise InternalInconsistency(f"|det|^2 = {det_sq} is not a perfect square")
    return root


def continued_fraction_numerator(coeffs):
    """p for the fraction [a1, a2, ...] = a1 + 1/(a2 + 1/(...))."""
    val = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        val = a + 1 / val
    return abs(val.numerator)
