"""Gaussian elimination over ``fractions.Fraction``: the references the
fraction-free kernel in ``toricmld.linalg`` is checked against.

These are the package's earlier ``rank``, ``det``, ``solve_rational``
(and the ``solve_scaled`` of a square integer system read off it),
``express_in_basis`` (through ``coords_in_basis``), the double
description that starts from an identity lineality space and the
rank-per-generator extremality test, kept so the tests can compare the
integer paths with them, and the ``primitive_direction`` of a rational
vector that the double description here uses.  ``lower_dimensional_cone``
is the package's earlier construction of a cone that does not span the
space, over the Hermite basis of the lattice its generators generate,
with its facet normals lifted into the span.  ``rebased_by_solve`` and
``simplicial_rows_by_solve`` are the solves that L and the simplicial
base case of the decomposition came from before a simplicial cone read
them off its facets.  Nothing in ``src/``
imports this module, and its checks raise rather than assert, so they
hold under ``python -O`` too.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from nf_reference import mat_mul
from toricmld import linalg
from toricmld.cones import Cone, make_cone
from toricmld.errors import InternalError
from toricmld.linalg import (
    INCONSISTENT,
    UNDERDETERMINED,
    IntVec,
    LatticeBasis,
    RatVec,
    dot,
    mat_vec,
    primitive,
    transpose,
)


def primitive_direction(v: Sequence) -> IntVec:
    """Primitive integer vector spanning the same ray as a rational vector."""
    fracs = [Fraction(x) for x in v]
    d = math.lcm(*[x.denominator for x in fracs])
    return primitive([(x * d).numerator for x in fracs])


def pivot_columns(a) -> tuple[int, ...]:
    """Pivot columns of the row echelon form of a, by Gaussian elimination:
    the earliest maximal independent set of columns."""
    rows = [[Fraction(x) for x in row] for row in a]
    if not rows:
        return ()
    n = len(rows[0])
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return tuple(pivots)


def rank(a) -> int:
    """Rank over the rationals, by Gaussian elimination."""
    return len(pivot_columns(a))


def det(a) -> Fraction:
    rows = [[Fraction(x) for x in row] for row in a]
    n = len(rows)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        result *= rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[c][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return sign * result


def solve_rational(a, b):
    """Solve the linear system row_i . x = b_i exactly.

    Returns the unique solution as a tuple of Fractions, or the
    INCONSISTENT / UNDERDETERMINED sentinel.  Inconsistency wins over
    underdetermination: a system with no solutions is reported as
    inconsistent even when its coefficient rank is deficient.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    pivot_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv_p = 1 / aug[r][c]
        aug[r] = [x * inv_p for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivot_cols.append(c)
        r += 1
    for i in range(r, m):
        if aug[i][n] != 0:
            return INCONSISTENT
    if r < n:
        return UNDERDETERMINED
    x = [Fraction(0)] * n
    for i, c in enumerate(pivot_cols):
        x[c] = aug[i][n]
    return tuple(x)


def solve_scaled(a, b):
    """(r, d, y) of ``toricmld.linalg.solve_scaled`` for a square system of
    ints, from the Fraction solve: r is the rank of a; for a nonsingular a,
    d = |det a| and y = d * x, ints, and otherwise d = 1 and y the sentinel."""
    x = solve_rational(a, b)
    if not isinstance(x, tuple):
        return rank(a), 1, x
    d = abs(det(a))
    if d.denominator != 1:
        raise InternalError("solve_scaled's reference takes ints")
    return len(a), d.numerator, tuple((d * xi).numerator for xi in x)


def coords_in_basis(basis: LatticeBasis, v: Sequence) -> RatVec:
    """Rational coordinates c with c . basis = v (basis is square, full rank)."""
    a = transpose(basis.rows)
    sol = solve_rational(a, tuple(Fraction(x) for x in v))
    if not isinstance(sol, tuple):
        raise InternalError("a full-rank square lattice basis gave no unique coordinates")
    return sol


def express_in_basis(basis: LatticeBasis, v: Sequence):
    """Integer coordinates of v in the lattice basis, or None if v is not
    a lattice point."""
    c = coords_in_basis(basis, v)
    if any(x.denominator != 1 for x in c):
        return None
    return tuple(int(x) for x in c)


def double_description(n: int, ineqs: Sequence[IntVec]):
    """Extreme rays and lineality basis of {y : a . y >= 0 for all a}.

    Incremental over the inequalities; rays carry the bitmask of the
    inequalities they satisfy with equality, which feeds the standard
    combinatorial adjacency test.
    """
    lineality = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    rays: list[tuple[IntVec, int]] = []
    for idx, a in enumerate(ineqs):
        hit = next((i for i, l in enumerate(lineality) if dot(a, l) != 0), None)
        if hit is not None:
            l0 = lineality.pop(hit)
            v0 = dot(a, l0)
            if v0 < 0:
                l0 = tuple(-x for x in l0)
                v0 = -v0
            lineality = [
                tuple(lx - Fraction(dot(a, l), v0) * l0x for lx, l0x in zip(l, l0))
                for l in lineality
            ]
            new_rays = []
            for r, z in rays:
                rv = dot(a, r)
                vec = tuple(Fraction(rx) - Fraction(rv, v0) * l0x for rx, l0x in zip(r, l0))
                new_rays.append((primitive_direction(vec), z | (1 << idx)))
            new_rays.append((primitive_direction(l0), (1 << idx) - 1))
            rays = new_rays
            continue
        pos = [(r, z) for r, z in rays if dot(a, r) > 0]
        zero = [(r, z | (1 << idx)) for r, z in rays if dot(a, r) == 0]
        neg = [(r, z) for r, z in rays if dot(a, r) < 0]
        if not neg:
            rays = pos + zero
            continue
        created = []
        for (p, zp), (q, zq) in itertools.product(pos, neg):
            zc = zp & zq
            adjacent = not any(
                (z & zc) == zc for r, z in rays if r is not p and r is not q
            )
            if not adjacent:
                continue
            ap, aq = dot(a, p), dot(a, q)
            vec = tuple(ap * qx - aq * px for px, qx in zip(p, q))
            created.append((primitive(vec), (zc | (1 << idx))))
        seen = set()
        merged = []
        for r, z in pos + zero + created:
            if r not in seen:
                seen.add(r)
                merged.append((r, z))
        rays = merged
    return [r for r, _ in rays], lineality


def extremal_by_rank(n: int, prims: Sequence[IntVec], facets: Sequence[IntVec]) -> tuple:
    """The generators of a strongly convex full-dimensional cone whose
    tight facets have rank n - 1, one rank per generator: the incidence
    test ``make_cone`` used before it read the double description's
    tight-row bitmasks."""
    return tuple(p for p in prims if rank([f for f in facets if dot(f, p) == 0]) == n - 1)


def _lift_normals(inner_facets, basis):
    """Pull facet normals computed in coordinates over the rows B of
    ``basis`` back to the ambient space: h = h' . (B B^T)^-1 . B lies in
    the span of B and evaluates like h' on its points.  The Gram matrix
    B B^T is symmetric, so its dual basis is D (B B^T)^-1 and one call
    serves every normal."""
    cols = transpose(basis)
    lift = mat_mul(cols, linalg.dual_basis(mat_mul(basis, cols))[1])
    return [primitive(mat_vec(lift, h)) for h in inner_facets]


def lower_dimensional_cone(n: int, generators: Sequence[Sequence[int]]) -> Cone:
    """The cone of generators that do not span Q^n, as ``make_cone`` built
    it before it projected the span onto its pivot coordinates: rays in
    ambient coordinates, facet normals in the span.  A zero generator
    raises ZeroVector and a line NotStronglyConvex."""
    prims = sorted({primitive(g) for g in generators})
    basis = linalg.independent_rows(prims)
    # every generator has integer coordinates over the Hermite basis
    # of the lattice the generators generate, and a primitive one has
    # primitive coordinates, so the inner rays map back to generators
    lat = linalg.hnf(prims)[:len(basis)]
    inner = make_cone(len(lat), [linalg.echelon_coords(lat, p) for p in prims])
    out_rays = tuple(sorted(mat_vec(transpose(lat), c) for c in inner.rays))
    return Cone(n, out_rays, tuple(sorted(_lift_normals(inner.facets, lat))), inner.dim)


def rebased_by_solve(germ) -> tuple:
    """(cone, l_num, den) of ``germ.rebased`` as it was built for every
    cone: the rays in coordinates of N, L solved over them, and the cone
    of the rebased rays.  Raises InternalError if L is not unique."""
    rays = germ.cone.rays
    if not germ.lattice.is_standard:
        rays = [express_in_basis(germ.lattice, r) for r in rays]
    coeffs = solve_rational(rays, [1 - b for b in germ.boundary])
    if not isinstance(coeffs, tuple):
        raise InternalError(f"L over the rays is {coeffs!r}")
    cone = germ.cone if germ.lattice.is_standard else make_cone(germ.dim, rays)
    den = math.lcm(*[f.denominator for f in coeffs])
    return cone, tuple(f.numerator * (den // f.denominator) for f in coeffs), den


def simplicial_rows_by_solve(cone: Cone, m) -> tuple[int, list[list[int]]]:
    """k0 and the diagonal rows of the decomposition of m over a
    simplicial cone's rays, from m's coordinates over the rays: k0 is the
    lcm of their denominators and row i holds k0 times coordinate i."""
    sol = solve_rational(transpose(cone.rays), m)
    if not isinstance(sol, tuple) or not all(x > 0 for x in sol):
        raise InternalError(f"m's coordinates over the rays are {sol!r}")
    k0 = math.lcm(*[x.denominator for x in sol])
    return k0, [[int(x * k0) if i == j else 0 for j in range(len(sol))] for i, x in enumerate(sol)]
