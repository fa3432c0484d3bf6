"""Tuple-based box points, a tuple-per-point window lift and the
``Fraction`` orbifold lattice: the references the package's column-wise
box points and window lift and its integer orbifold lattice in
``toricmld.invariants`` are checked against.

``_box_points`` and ``_interior_points_upto`` are the package's earlier
enumerator, kept unchanged: it builds one tuple per coset of each cell
and one point tuple per box point, and lifts each box point by a
depth-first walk over the cell's rays.  ``orbifold`` is the earlier
``ToricGerm.orbifold``: it builds the ``Fraction`` generators ray/n_ray,
with n_ray = floor(1 / (1 - coeff)), and hands them, with N's rows, to
``lattice_from_generators``.  ``count_window`` is the earlier window
lift over the column-wise box points: it builds one point tuple per box
point below ``high`` (``_box_point``) and per lifted point, converts each
to ambient coordinates and sorts the (point, ``Fraction`` value) pairs.
``mld`` is the earlier ``invariants.mld``, which builds one tuple per
minimizing box point, and ``lifted_values`` the earlier values-only lift
of ``invariants.mld_window_counts``, one pass per ray over every box
value.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from toricmld import invariants, linalg
from toricmld.errors import BoundBelowMinimum
from toricmld.invariants import MldResult, Rebased, ToricGerm, WindowCount, _cells
from toricmld.linalg import LatticeBasis, dot, lattice_from_generators


def _box_points(rb: Rebased):
    """The least lattice point of each coset in each half-open cell, as
    (point, L numerator, cell rays, their L numerators).

    A point u belongs to the cell whose interior holds u - t*y for small
    t > 0, with y the ray sum perturbed lexicographically along the
    coordinates, so a cell facet with inward normal w is closed iff the
    first nonzero entry of (w . y, w_1, ..., w_n) is negative; the cone's
    own facets are open.  For cell rays V and d = |det V|, the cosets are
    the u with 0 <= u_j < H_jj, H = hnf(V), and d times u's coordinates in
    V is u . (d V^-1) mod d, where a 0 becomes d if its facet is open.
    """
    cone, l_num, n = rb.cone, rb.l_num, rb.cone.n
    y = tuple(map(sum, zip(*cone.rays)))
    for cell in _cells(cone):
        v = [cone.rays[i] for i in cell]
        ells = [dot(l_num, r) for r in v]
        h = linalg.hnf(v)
        # w[i] is d times the dual vector of v[i], the inward normal of the facet opposite v[i]
        d, w = linalg.dual_basis(v)
        closed = [next(x for x in (dot(wi, y), *wi) if x) < 0 for wi in w]
        mus = [(0,) * n]
        for j in range(n):
            step = [wi[j] for wi in w]
            mus = [tuple(m + t * s for m, s in zip(mu, step)) for mu in mus for t in range(h[j][j])]
        for mu in mus:
            c = [x % d or (0 if cl else d) for x, cl in zip(mu, closed)]
            yield tuple(dot(c, col) // d for col in zip(*v)), dot(c, ells) // d, v, ells


def _interior_points_upto(boxes, b_num: int):
    """Interior lattice points u of the cone with 0 < L(u) <= b_num / den,
    paired with the numerator of L(u), in rebased coordinates: each least
    point of ``boxes`` (``_box_points``) plus the nonnegative combinations
    of its cell's rays that stay within the bound."""
    result = []
    # rays are added in nonincreasing index order, so each combination comes once
    stack = [(p, val, len(rays), rays, ells) for p, val, rays, ells in boxes if val <= b_num]
    while stack:
        p, val, top, rays, ells = stack.pop()
        result.append((p, val))
        for i in range(top):
            if val + ells[i] <= b_num:
                stack.append((tuple(map(operator.add, p, rays[i])), val + ells[i], i + 1, rays, ells))
    return result


def orbifold(germ: ToricGerm) -> LatticeBasis:
    """Lattice generated by N and the rescaled ray generators ray/n_ray."""
    gens = list(germ.lattice.rows)
    for ray, b in zip(germ.cone.rays, germ.boundary):
        m = math.floor(1 / (1 - Fraction(b)))
        gens.append(tuple(Fraction(x, m) for x in ray))
    return lattice_from_generators(germ.dim, gens)


def _box_point(v, d: int, cols, k: int) -> tuple[int, ...]:
    """The k-th box point of a cell of ``invariants._box_points``, in rebased coordinates."""
    c = [col[k] for col in cols]
    return tuple(dot(c, coord) // d for coord in zip(*v))


def lifted_values(cells, b_num: int) -> list[int]:
    """The numerators L(u) <= b_num of the interior lattice points u, one
    per point: each box point value of ``cells`` (``invariants._box_points``) plus the
    nonnegative combinations of its cell's ray values, one ray at a time."""
    result = []
    for _, ells, _, _, values in cells:
        for ell in ells:
            values = [x + j * ell for x in values for j in range((b_num - x) // ell + 1)]
        result += values
    return result


def mld(germ: ToricGerm, bound=None) -> MldResult:
    """Minimum of the log discrepancy functional over interior lattice
    points, with every minimizer.

    Every interior lattice point is a box point plus rays of positive L, so
    the minimizers are the box points of least L.  The ray sum is an
    interior lattice point, so L(ray sum), the default bound, certifies the
    minimum; BoundBelowMinimum is raised iff the minimum exceeds the bound.
    """
    rb = germ.rebased
    b = Fraction(rb.ray_sum_value(), rb.den) if bound is None else Fraction(bound)
    b_num = math.floor(b * rb.den)
    cells = list(invariants._box_points(rb))
    value = min(min(values) for *_, values in cells)
    if value > b_num:
        raise BoundBelowMinimum(
            f"no interior lattice point with L <= {b}; the bound is below the minimum"
        )
    pts = [_box_point(v, d, cols, k) for v, _, d, cols, xs in cells for k, x in enumerate(xs) if x == value]
    return MldResult(Fraction(value, rb.den), tuple(sorted(map(germ.lattice.to_ambient, pts))), b)


def count_window(germ: ToricGerm, low, high) -> WindowCount:
    """All interior lattice points with log discrepancy in [low, high)."""
    lo, hi = Fraction(low), Fraction(high)
    if not (0 < lo <= hi):
        raise ValueError("window must satisfy 0 < low <= high")
    rb = germ.rebased
    # integer numerators v with lo <= v / den < hi
    lo_num, hi_num = math.ceil(lo * rb.den), math.ceil(hi * rb.den)
    kept = []
    for v, ells, d, cols, values in invariants._box_points(rb):
        # box points below hi, then plus nonnegative combinations of the cell's rays
        pts = [(x, _box_point(v, d, cols, k)) for k, x in enumerate(values) if x < hi_num]
        for ell, ray in zip(ells, v):
            pts = [
                (x + j * ell, tuple(a + j * r for a, r in zip(p, ray)))
                for x, p in pts for j in range((hi_num - 1 - x) // ell + 1)
            ]
        kept += [(germ.lattice.to_ambient(p), Fraction(x, rb.den)) for x, p in pts if x >= lo_num]
    kept.sort()
    return WindowCount(lo, hi, tuple(kept), len(kept))
