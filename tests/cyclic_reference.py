"""Closed forms for the isolated cyclic quotient singularities
1/r(1, a_2, ..., a_n): the orthant, with the ambient lattice N extended
by (1, a_2, ..., a_n)/r, where every weight is a unit mod r.

The interior lattice points of the orthant in N fall into the cosets
k = 0, ..., r - 1 of Z^n.  The least point of coset k is the vector of
fractional parts {k a_i / r}, all positive for k > 0 since the weights
are units, and (1, ..., 1) for k = 0; every other point of the coset is
that point plus a vector of nonnegative integers.  With no boundary, L
is the coordinate sum, so the least value of coset k is the age-like sum
s_k = sum_i {k a_i / r} (s_0 = n) and the coset holds C(j + n - 1, n - 1)
points of value s_k + j.  The regional fundamental group is N / Z^n, the
cyclic group of order r.

A boundary coefficient b_i on the ray e_i makes L the weighted sum
sum_i (1 - b_i) v_i.  The least point of each coset is least in every
coordinate, so it still has the least value, sum_i (1 - b_i) {k a_i / r}
(sum_i (1 - b_i) for k = 0); the window count and the group no longer
follow, as L no longer steps by 1 and the orbifold lattice grows.  In dimension 3 the germ is terminal (mld > 1)
iff two weights sum to 0 mod r (White, Pacific J. Math. 1964; Morrison
and Stevens, Proc. AMS 1984).

Nothing here calls the package's invariants; ``germ`` only builds the
germ they are compared on.
"""

from __future__ import annotations

import math
from fractions import Fraction

import toricmld as t


def germ(r: int, weights, boundary=None) -> t.ToricGerm:
    """The germ 1/r(weights), with boundary[i] (default 0) on the ray e_i."""
    n = len(weights)
    orthant = t.make_cone(n, [tuple(int(i == j) for j in range(n)) for i in range(n)])
    lattice = t.lattice_from_generators(n, [tuple(Fraction(a, r) for a in weights)])
    if boundary is not None:  # make_cone sorts the rays: e_i is not rays[i]
        boundary = [boundary[ray.index(1)] for ray in orthant.rays]
    return t.make_germ(orthant, boundary, lattice)


def least_values(r: int, weights, boundary=None) -> list[Fraction]:
    """s_k, the least log discrepancy over coset k, for k = 0, ..., r - 1."""
    w = [1 - Fraction(b) for b in boundary or [0] * len(weights)]
    return [sum(w)] + [
        sum(wi * Fraction(k * a % r, r) for wi, a in zip(w, weights)) for k in range(1, r)
    ]


def mld(r: int, weights, boundary=None) -> Fraction:
    """min(sum_i (1 - b_i), min over k of sum_i (1 - b_i) {k a_i / r})."""
    return min(least_values(r, weights, boundary))


def window_count(r: int, weights, low, high) -> int:
    """The number of interior lattice points with log discrepancy in
    [low, high): sum over k and j of C(j + n - 1, n - 1) [s_k + j in [low, high)]."""
    n = len(weights)
    lo, hi = Fraction(low), Fraction(high)
    return sum(
        math.comb(j + n - 1, n - 1)
        for s in least_values(r, weights)
        for j in range(max(0, math.ceil(hi - s)))
        if lo <= s + j < hi
    )


def is_terminal_3fold(r: int, weights) -> bool:
    """Dimension 3: some two weights sum to 0 mod r."""
    a, b, c = weights
    return any((x + y) % r == 0 for x, y in ((a, b), (a, c), (b, c)))
