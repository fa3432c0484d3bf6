"""Constructive decompositions of interior lattice points.

Three related constructions:

* find the first proper ray subset, in lexicographic order, whose cone
  keeps a given interior point in its relative interior, of full rank
  or of any rank: a depth-first search prunes a subtree on one test, so
  it tests O(k^2) subsets of k rays, and no ray count is refused;
* the trichotomy: a full-dimensional cone is simplicial, or one of
  those sub-cones is full-dimensional, or two of them together span the
  ambient space (found by descending from the point along a ray to the
  boundary and recursing into the face hit there);
* a bounded decomposition k0 * m = v_1 + ... + v_n where each v_i is a
  nonnegative integer combination of the rays and the v_i are linearly
  independent, built by recursing through the trichotomy and merging
  the two sub-cone solutions along a spanning pair; each half of a pair
  is recursed into as it is, a cone in its own span in ambient
  coordinates.  Its cones take their rays from the top cone, so every
  level carries one integer row per vector over the top cone's rays; a
  merge reads its basis off one elimination and adds the rest to the
  first row, which it keeps independent.

The decomposition accepts any interior lattice point, not only a
minimizer of the log discrepancy; nothing below uses minimality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from . import linalg
from .cones import (
    Cone,
    Membership,
    has_opposite_facets,
    is_simplicial,
    make_cone,
    membership,
    minimal_face_containing,
)
from .errors import DependentVectors, InternalError, NotFullDimensional, NotInteriorPoint
from .germio import format_q
from .invariants import ToricGerm, pi1_order
from .linalg import det, dot, express_in_basis, mat_vec, primitive, rank, transpose


class Simplicial(NamedTuple):
    def __bool__(self):  # an empty tuple would be falsy
        return True


class FullDimSubcone(NamedTuple):
    tau: Cone


class SpanningPair(NamedTuple):
    tau1: Cone
    tau2: Cone


TrichotomyResult = Union[Simplicial, FullDimSubcone, SpanningPair]


class Decomposition(NamedTuple):
    """k0 * m = sum of the vectors; vectors[i] = sum over rays of
    coefficients[i][ray] * ray with nonnegative integer coefficients."""

    k0: int
    vectors: tuple[tuple, ...]
    coefficients: tuple[tuple[int, ...], ...]
    total_weight: int


class BlowupReport(NamedTuple):
    """Data of the simplicial sub-cone spanned by a decomposition, with
    the order of the regional fundamental group it was checked against."""

    sigma0: Cone
    k_values: tuple[Fraction, ...]
    group_order: int
    coarse_order: int
    pi1_order: int


# ---------------------------------------------------------------------------


def _subtree_hits(c: Cone, m, full: bool, p, u) -> bool:
    """Does some S with p <= S <= u (index tuples into c.rays) have m in
    the relative interior of cone(S), with rank S = c.dim when full?

    Any rank: iff m is in cone(u) and p lies in the minimal face of
    cone(u) containing m, since a face that contains a positive
    combination contains every term of it; S is then the rays of that
    face.  Full: the same with p := u, as relative interiors grow with
    the cone in a fixed span, and rank u = c.dim.  One elimination of
    [u^T | m] reads rank u and the signs of m's coordinates over u; only
    a dependent u builds its cone."""
    if full and len(u) < c.dim:
        return False
    rays = [c.rays[i] for i in u]
    dim_u, _, y = linalg.solve_scaled(transpose(rays), m)  # y = d x, d > 0: the signs of m's coordinates
    if y is linalg.INCONSISTENT or full and dim_u != c.dim:
        return False
    k = len(u) if full else len(p)
    if y is not linalg.UNDERDETERMINED:
        return all(x >= 0 for x in y) and all(x > 0 for x in y[:k])
    # u lists p first, and its rays are the extremal rays of their cone
    facets = make_cone(c.n, rays).facets
    if any(dot(f, m) < 0 for f in facets):
        return False
    return all(dot(f, r) == 0 for f in facets if dot(f, m) == 0 for r in rays[:k])


def _first_subset(c: Cone, m, full: bool):
    """The first proper ray subset, as an index tuple, in lexicographic
    order ((0,), (0, 1), (0, 1, 2), ..., (0, 2), ...) whose cone has m in
    its relative interior, and rank c.dim when full; None if there is
    none.  Depth first: the subtree of a prefix p holds the sets between
    p and u, p plus every later ray, and is skipped when one test of
    (p, u) fails.  A passing subtree holds a hit, so the search never
    backtracks out of it, and at most k children are tested per level:
    O(k^2) tests for k rays.  Only on the leftmost chain is u every ray,
    which is not proper, so the search descends there untested."""
    k = len(c.rays)

    def search(prefix, start):
        for i in range(start, k):
            p = prefix + (i,)
            u = p + tuple(range(i + 1, k))
            if len(u) < k and not _subtree_hits(c, m, full, p, u):
                continue
            if len(p) < k and (p == u or _subtree_hits(c, m, full, p, p)):
                return p
            found = search(p, i + 1)
            if found is not None:
                return found
        return None

    return search((), 0)


def _tau_containing_ray(c: Cone, m, rho) -> Cone:
    """A proper-subset sub-cone containing rho with m in its relative
    interior: walk from m along -rho to the boundary and recurse into
    the face met there."""
    # the boundary point m - (a/b) rho at the least ratio a/b = f.m / f.rho,
    # scaled by b: a positive multiple has the same minimal face and relint.
    # The first least ratio, compared by cross-multiplying, as every b > 0
    a = b = None
    for f in c.facets:
        fb = dot(f, rho)
        if fb > 0:
            fa = dot(f, m)
            if b is None or fa * b < a * fb:
                a, b = fa, fb
    m2 = tuple(b * x - a * r for x, r in zip(m, rho))
    face = minimal_face_containing(c, m2)
    if not face.ray_indices:
        raise InternalError("descent from an interior point reached the origin")
    face_cone = face.as_cone()
    if is_simplicial(face_cone):
        chosen = face_cone.rays
    else:
        idx = _first_subset(face_cone, m2, False)
        if idx is None:
            raise InternalError("a non-simplicial face has no sub-cone through the descent point")
        chosen = tuple(face_cone.rays[i] for i in idx)
    return make_cone(c.n, (tuple(rho),) + chosen)


def trichotomy(c: Cone, m: Sequence) -> TrichotomyResult:
    """Classify (cone, interior point) into the three structural cases."""
    if c.dim < c.n:
        raise NotFullDimensional("trichotomy needs a full-dimensional cone")
    return _trichotomy(c, m)


def _trichotomy(c: Cone, m: Sequence) -> TrichotomyResult:
    """The trichotomy of a cone in its own span: full dimension and
    spanning mean rank c.dim."""
    if membership(c, m) is not Membership.RELATIVE_INTERIOR:
        raise NotInteriorPoint(f"({', '.join(map(format_q, m))}) is not an interior point")
    if is_simplicial(c):
        return Simplicial()
    idx = _first_subset(c, m, True)
    if idx is not None:
        return FullDimSubcone(make_cone(c.n, [c.rays[i] for i in idx]))
    idx = _first_subset(c, m, False)
    if idx is None:
        raise InternalError("a non-simplicial cone always admits such a sub-cone")
    tau1 = make_cone(c.n, [c.rays[i] for i in idx])
    while True:
        # after tau1's rays, the first kept row is the first ray outside their span
        rho = c.rays[linalg.independent_rows(tau1.rays + c.rays)[tau1.dim] - len(tau1.rays)]
        tau2 = _tau_containing_ray(c, m, rho)
        if tau2.dim >= c.dim:
            raise InternalError("a sub-cone through a boundary face is full-dimensional")
        if rank(tau1.rays + tau2.rays) == c.dim:
            return SpanningPair(tau1, tau2)
        tau1 = make_cone(c.n, tau1.rays + tau2.rays)


# ---------------------------------------------------------------------------


def _decompose_rec(cone: Cone, m, top):
    """k0 and cone.dim nonnegative integer rows over top, the top cone's
    rays, which hold cone.rays: one per vector v_i = rows[i] . top, with
    k0 * m = sum of the v_i and the v_i independent, for m in the
    relative interior of the cone."""
    tri = _trichotomy(cone, m)
    if isinstance(tri, Simplicial):
        # m = sum of (y_i / d) rays[i]; the least k0 with integral k0 y_i / d is d / gcd(d, y)
        if has_opposite_facets(cone):
            b = [dot(f, r) for f, r in zip(cone.facets, cone.rays)]
            d = math.lcm(*b)
            y = tuple(dot(f, m) * (d // bi) for f, bi in zip(cone.facets, b))
        else:
            _, d, y = linalg.solve_scaled(transpose(cone.rays), m)
        if not isinstance(y, tuple) or not all(x > 0 for x in y):
            raise InternalError("an interior point is not a positive combination of simplicial rays")
        g = math.gcd(d, *y)
        return d // g, [[x // g if r == ray else 0 for r in top] for x, ray in zip(y, cone.rays)]
    if isinstance(tri, FullDimSubcone):
        return _decompose_rec(tri.tau, m, top)
    k0a, rows = _decompose_rec(tri.tau1, m, top)
    k0b, rows_b = _decompose_rec(tri.tau2, m, top)
    rows += rows_b
    cols = transpose(top)
    vectors = [mat_vec(cols, row) for row in rows]
    # tau1's vectors are independent, and a later vector is kept iff it
    # raises the rank of those before it: the basis a greedy loop builds
    keep = linalg.independent_rows(vectors)
    if len(keep) != cone.dim:
        raise InternalError("the two sub-cone decompositions do not span")
    unused = [row for i, row in enumerate(rows) if i not in keep]
    rows = [rows[i] for i in keep]
    if unused:
        # w = k0b * m - (tau2's kept vectors) has coordinate k0b / k0a on each
        # of tau1's vectors, which come first, and -1 on tau2's kept ones;
        # adding it to row 0 scales the determinant by 1 + k0b / k0a > 0
        w = [sum(col) for col in zip(*unused)]
        rows[0] = [a + b for a, b in zip(rows[0], w)]
    return k0a + k0b, rows


def decompose(germ: ToricGerm, m: Sequence) -> Decomposition:
    """Decompose k0 * m into independent nonnegative ray combinations."""
    rb = germ.rebased
    m_c = express_in_basis(germ.lattice, m)
    if m_c is None or membership(rb.cone, m_c) is not Membership.RELATIVE_INTERIOR:
        raise NotInteriorPoint(f"({', '.join(map(format_q, m))}) is not an interior lattice point")
    # N's basis is upper triangular with positive pivots, so rb.cone.rays
    # come in the order of germ.cone.rays and the rows are over both
    k0, rows = _decompose_rec(rb.cone, m_c, rb.cone.rays)
    cols = transpose(germ.cone.rays)
    vectors = tuple(mat_vec(cols, row) for row in rows)
    result = Decomposition(k0, vectors, tuple(map(tuple, rows)), k0 + sum(map(sum, rows)))
    _validate_decomposition(germ, m, result)
    return result


def _validate_decomposition(germ, m, d):
    rays = germ.cone.rays
    n = germ.dim
    if rank(d.vectors) != n:
        raise InternalError("decomposition vectors are not independent")
    for v, row in zip(d.vectors, d.coefficients):
        if any(k < 0 for k in row):
            raise InternalError(f"negative ray coefficient in {row}")
        combo = tuple(sum(k * r[j] for k, r in zip(row, rays)) for j in range(n))
        if tuple(v) != combo:
            raise InternalError(f"vector {tuple(v)} is not its ray combination {combo}")
    # sum of v = k0 * m, with m's coordinates p / q, ints or Fractions
    if any(sum(col) * x.denominator != d.k0 * x.numerator for col, x in zip(zip(*d.vectors), m)):
        raise InternalError("decomposition vectors do not sum to k0 * m")


def blowup_report(germ: ToricGerm, d: Decomposition) -> BlowupReport:
    """Orbifold-primitive generators of the decomposition rays, their log
    discrepancies, and the two quotient orders.

    A vector's log discrepancy is read off its ray coefficients in d by
    linearity, L(ray_j) = 1 - b_j, over the gcd of its orbifold coordinates.

    The order of the quotient by the raw vectors bounds the order of the
    regional fundamental group from above, because the vectors generate
    a subgroup of the group the rays generate; this is checked
    numerically, and the order of that group is reported as pi1_order.
    """
    n = germ.dim
    if det(d.vectors) == 0:
        raise DependentVectors("decomposition vectors are linearly dependent")
    ob = germ.orbifold
    rb = germ.rebased  # L exists: raises NotQCartier or NotFullDimensional otherwise
    ells = [dot(rb.l_num, r) for r in rb.cone.rays]  # rb.den * L(ray_j), rays in germ.cone.rays' order
    raw_coords = []
    prim_coords = []
    k_values = []
    for v, row in zip(d.vectors, d.coefficients):
        c = express_in_basis(ob, v)
        if c is None:
            raise InternalError(f"ray combination {tuple(v)} is not in the orbifold lattice")
        raw_coords.append(c)
        c0 = primitive(c)
        prim_coords.append(c0)
        k_values.append(Fraction(dot(row, ells), rb.den * math.gcd(*c)))
    coarse = abs(int(det(raw_coords)))
    group = abs(int(det(prim_coords)))
    pi1 = pi1_order(germ)
    if coarse < pi1:
        raise InternalError(f"coarse order {coarse} is below |pi1_reg| = {pi1}")
    # den * ambient point of each c0, which make_cone takes to its primitive direction
    sigma0 = make_cone(n, [mat_vec(transpose(ob.num), c0) for c0 in prim_coords])
    return BlowupReport(sigma0, tuple(k_values), group, coarse, pi1)
