"""Reference versions of the frontier state sum: the graded Euler
characteristic of `cubekh.diagram._euler_state_sum`, and the determinant
that `cubekh.khovanov.state_sum_det` reads off it at q = i.

They are the straightforward form the dynamic program replaced: all 2^n
states, each resolved by a fresh dict union-find over the arcs.  For the
Euler characteristic, every state with w 1-smoothings and k circles adds
(-1)^w q^w (q + q^-1)^k.  The determinant takes another route, the Kauffman
bracket at A = zeta8, where the circle weight vanishes: every state that
closes into a single circle is added with weight
A^(#0-smoothings - #1-smoothings), in Z[x]/(x^4+1), and |det| is the square
root of the norm.  `continued_fraction_numerator` gives the determinant of
a rational link from its continued fraction.
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


def _circles(d, bits):
    """(circle count without free loops, count of 1-smoothings) of a state."""
    uf = _UnionFind(range(1, d.arc_count + 1))
    for t, c in enumerate(d.crossings):
        if (bits >> t) & 1:
            uf.union(c[0], c[3])
            uf.union(c[1], c[2])
        else:
            uf.union(c[0], c[1])
            uf.union(c[2], c[3])
    return len({uf.find(a) for a in range(1, d.arc_count + 1)}), bits.bit_count()


def euler_state_sum(d):
    """The sum over states of (-1)^w q^w (q + q^-1)^k as {q: coefficient},
    zero coefficients left out, k counting the free loops."""
    out = {}
    for bits in range(1 << d.n):
        k, w = _circles(d, bits)
        k += d.free_loops
        for j in range(k + 1):
            e = w + k - 2 * j
            out[e] = out.get(e, 0) + (-1) ** w * math.comb(k, j)
    return {e: c for e, c in sorted(out.items()) if c}


def zeta8_bracket(d):
    """The single-circle state sum as the 4 coefficients of 1, x, x^2, x^3
    (diagrams with at least one crossing and no free loops)."""
    n = d.n
    z = [0, 0, 0, 0]
    for bits in range(1 << n):
        circles, ones = _circles(d, bits)
        if circles != 1:
            continue
        zeros = n - ones
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
