"""Strongly convex rational polyhedral cones.

A cone is stored by its primitive extremal rays together with an eagerly
computed facet description (primitive inward normals).  The dual
description is obtained by the double description method over exact
rationals, processing one inequality at a time; extremality and
membership are read off the facets.  Relative interiors of ray subsets
take one linear solve, and the facets only when the rays are dependent.
Cones that do not span the ambient space are handled by rebasing to a
basis of span intersect Z^n and recursing in lower dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import EmptyInput, InternalError, NotFullRank, NotInCone, NotStronglyConvex, ZeroVector
from .linalg import IntVec, dot, mat_inverse, mat_mul, primitive, primitive_direction, rank, transpose


class Membership(Enum):
    OUTSIDE = "Outside"
    BOUNDARY = "Boundary"
    RELATIVE_INTERIOR = "RelativeInterior"


@dataclass(frozen=True)
class Cone:
    """Strongly convex rational polyhedral cone.

    ``rays`` are the primitive extremal generators, sorted; ``facets``
    are primitive inward facet normals valid on span(cone).  ``span`` is
    a saturated lattice basis of span(cone) when the cone is not
    full-dimensional, else None.
    """

    n: int
    rays: tuple[IntVec, ...]
    facets: tuple[IntVec, ...]
    dim: int
    span: tuple[IntVec, ...] | None = field(default=None)

    def __repr__(self):
        return f"Cone(n={self.n}, rays={list(self.rays)})"


@dataclass(frozen=True)
class Face:
    """Face of a cone, recorded by the indices of the parent rays it contains."""

    parent: Cone
    ray_indices: tuple[int, ...]

    @property
    def rays(self) -> tuple[IntVec, ...]:
        return tuple(self.parent.rays[i] for i in self.ray_indices)

    @property
    def dim(self) -> int:
        return rank(self.rays) if self.ray_indices else 0

    def as_cone(self) -> Cone:
        if not self.ray_indices:
            raise EmptyInput("the zero face has no generating rays")
        return make_cone(self.parent.n, self.rays)


# ---------------------------------------------------------------------------
# double description


def _double_description(n: int, ineqs: Sequence[IntVec]):
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


def _lift_normals(inner_facets, span_basis):
    """Pull facet normals computed in span coordinates back to the ambient
    space: h = h' . (B B^T)^-1 . B evaluates like h' on span points."""
    g = mat_mul(span_basis, transpose(span_basis))
    m = mat_mul(mat_inverse(g), span_basis)
    lifted = []
    for h in inner_facets:
        amb = tuple(sum(Fraction(h[i]) * m[i][j] for i in range(len(h))) for j in range(len(m[0])))
        lifted.append(primitive_direction(amb))
    return lifted


def make_cone(n: int, generators: Sequence[Sequence[int]]) -> Cone:
    """Build the cone spanned by the generators.

    Generators are normalised to primitive vectors, duplicates and
    non-extremal generators are dropped, and strong convexity is
    verified.  Raises EmptyInput, ZeroVector or NotStronglyConvex.
    """
    if not generators:
        raise EmptyInput("a cone needs at least one generator")
    prims = sorted({primitive(g) for g in generators})
    r = rank(prims)
    if r < n:
        sat = linalg.saturation_basis(prims, n)
        coords = [_span_coords(sat, p) for p in prims]
        if None in coords:
            raise NotFullRank("generator outside the saturated span")
        inner = make_cone(r, coords)
        out_rays = tuple(sorted(tuple(dot(c, col) for col in zip(*sat)) for c in inner.rays))
        out_facets = tuple(sorted(_lift_normals(inner.facets, sat)))
        return Cone(n, out_rays, out_facets, inner.dim, span=sat)
    dual_rays, lin = _double_description(n, prims)
    if lin:
        raise InternalError("full-rank generators left a lineality space in the dual")
    if rank(dual_rays) < n:
        raise NotStronglyConvex("cone contains a line")
    # incidence test: a generator is extremal iff the facets tight at it have rank n - 1
    extremal = [p for p in prims if rank([f for f in dual_rays if dot(f, p) == 0]) == n - 1]
    return Cone(n, tuple(extremal), tuple(sorted(dual_rays)), n, span=None)


def _span_coords(sat_rows, v) -> IntVec | None:
    """Integer coordinates of v in the saturated span basis, if any."""
    sol = _rational_span_coords(sat_rows, v)
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def dual_cone(c: Cone) -> Cone:
    """Cone of functionals nonnegative on c (c must be full-dimensional,
    otherwise the dual contains a line)."""
    if c.dim < c.n:
        raise NotStronglyConvex("dual of a non-full-dimensional cone contains a line")
    return make_cone(c.n, c.facets)


def membership(c: Cone, v: Sequence) -> Membership:
    v = tuple(Fraction(x) for x in v)
    if c.span is not None and _rational_span_coords(c.span, v) is None:
        return Membership.OUTSIDE
    vals = [dot(f, v) for f in c.facets]
    if any(x < 0 for x in vals):
        return Membership.OUTSIDE
    if any(x == 0 for x in vals):
        return Membership.BOUNDARY
    return Membership.RELATIVE_INTERIOR


def in_relint(rays: Sequence[Sequence], v: Sequence) -> bool:
    """Is v in the relative interior of the cone the rays span?

    One linear solve decides most cases: v outside the span of the rays
    is not in the cone, and for independent rays (a simplicial cone) v is
    interior iff its coordinates are all positive.  Only dependent rays
    build the cone and ask the facets.

    A zero ray raises ZeroVector.  The rays must span a strongly convex
    cone, as any subset of a strongly convex cone's rays does; rays that
    contain a line raise NotStronglyConvex, but only when v lies in their
    span (otherwise the answer is False without building the cone).
    """
    if not rays:
        return all(x == 0 for x in v)
    if not all(any(r) for r in rays):
        raise ZeroVector("the zero vector has no primitive generator")
    sol = linalg.solve_rational(transpose(rays), v)
    if sol is linalg.INCONSISTENT:
        return False
    if sol is not linalg.UNDERDETERMINED:
        return all(x > 0 for x in sol)
    return membership(make_cone(len(v), rays), v) is Membership.RELATIVE_INTERIOR


def _rational_span_coords(sat_rows, v):
    sol = linalg.solve_rational(transpose(sat_rows), v)
    return sol if isinstance(sol, tuple) else None


def is_simplicial(c: Cone) -> bool:
    return len(c.rays) == c.dim


def minimal_face_containing(c: Cone, v: Sequence) -> Face:
    """The unique face whose relative interior contains v."""
    v = tuple(Fraction(x) for x in v)
    if membership(c, v) is Membership.OUTSIDE:
        raise NotInCone(f"{v} is not in the cone")
    zero_facets = [f for f in c.facets if dot(f, v) == 0]
    idx = tuple(i for i, r in enumerate(c.rays) if all(dot(f, r) == 0 for f in zero_facets))
    return Face(c, idx)
