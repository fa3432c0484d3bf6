"""Strongly convex rational polyhedral cones.

A cone is stored by its primitive extremal rays together with an eagerly
computed facet description (primitive inward normals).  The dual
description is obtained by the double description method in integers:
it starts from the simplicial cone of n independent generators and adds
the others one inequality at a time.  Extremality is read off its
tight-row bitmasks and membership off the facets.  Exactly n
independent generators skip it: their dual basis (cofactors for n <= 3,
one elimination from n = 4) is the whole dual description, facet i
opposite ray i.  A cone that
does not span the ambient space keeps its rays in ambient coordinates;
its dual description is computed on the pivot coordinates of its span,
onto which the span projects one to one, and its facet normals are
supported there.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import linalg
from .errors import EmptyInput, NotInCone, NotStronglyConvex, ValidationError
from .linalg import IntVec, dot, primitive, rank, transpose


class Membership(Enum):
    OUTSIDE = "Outside"
    BOUNDARY = "Boundary"
    RELATIVE_INTERIOR = "RelativeInterior"


class Cone(NamedTuple):
    """Strongly convex rational polyhedral cone.

    ``rays`` are the primitive extremal generators, sorted, and ``dim``
    is the dimension of their span; ``facets`` are primitive inward
    facet normals.  If dim == n == len(rays), facets[i] is the one facet
    with facets[i] . rays[i] > 0, opposite rays[i]; other cones sort
    their facets.  A cone of dim < n has normals supported on its
    span's pivot coordinates, which are inward only on the span, and
    tests membership in its span by a solve against its rays.
    """

    n: int
    rays: tuple[IntVec, ...]
    facets: tuple[IntVec, ...]
    dim: int

    def __repr__(self):
        return f"Cone(n={self.n}, rays={list(self.rays)})"


class Face(NamedTuple):
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


def _double_description(ineqs: Sequence[IntVec], start: Sequence[int]):
    """Extreme rays of {y : a . y >= 0 for every row a of ineqs}.

    ``start`` indexes n independent rows B, with n the ambient dimension.
    cone(B) is simplicial, so its dual's rays are B's dual basis w_j, and
    w_j is tight on every row of B but row j.  The other rows are then
    added one at a time.  Returns (ray, bitmask of the rows the ray is
    tight on) pairs; the bitmasks feed the combinatorial adjacency test.
    """
    tight = sum(1 << i for i in start)
    _, w = linalg.dual_basis([ineqs[i] for i in start])
    rays = [(primitive(wj), tight & ~(1 << i)) for wj, i in zip(w, start)]
    for idx, a in enumerate(ineqs):
        if tight >> idx & 1:
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
    return rays


def make_cone(n: int, generators: Sequence[Sequence[int]]) -> Cone:
    """Build the cone spanned by the generators.

    Generators are normalised to primitive vectors, duplicates and
    non-extremal generators are dropped, and strong convexity is
    verified.  n independent generators span a simplicial cone: they are
    its rays, and their dual basis, in ray order, its facets.  Raises
    ValidationError (a generator not of length n), EmptyInput,
    ZeroVector or NotStronglyConvex.
    """
    for g in generators:
        if len(g) != n:
            raise ValidationError(f"a generator of length {len(g)} in dimension {n}")
    if not generators:
        raise EmptyInput("a cone needs at least one generator")
    prims = sorted({primitive(g) for g in generators})
    if len(prims) == n and (inverse := linalg.dual_basis(prims)) is not None:
        return Cone(n, tuple(prims), tuple(map(primitive, inverse[1])), n)
    basis = linalg.independent_rows(prims)
    if len(basis) < n:
        # the span projects one to one onto its pivot coordinates, so
        # distinct generators have distinct projected primitive vectors,
        # and a normal h put on the pivots, 0 elsewhere, reads h at the
        # projection of each point of the span
        pivots = linalg.independent_rows(transpose([prims[i] for i in basis]))
        back = {primitive([p[j] for j in pivots]): p for p in prims}
        inner = make_cone(len(pivots), list(back))
        at = {j: k for k, j in enumerate(pivots)}
        facets = sorted(tuple(h[at[j]] if j in at else 0 for j in range(n)) for h in inner.facets)
        return Cone(n, tuple(sorted(back[r] for r in inner.rays)), tuple(facets), inner.dim)
    dual = _double_description(prims, basis)
    if rank([f for f, _ in dual]) < n:
        raise NotStronglyConvex("cone contains a line")
    # t[k] is the bitmask of the facets tight at generator k, which is
    # extremal iff no other generator is tight on all of them
    t = [sum(1 << j for j, (_, z) in enumerate(dual) if z >> k & 1) for k in range(len(prims))]
    extremal = [p for k, p in enumerate(prims) if all(q == k or s & t[k] != t[k] for q, s in enumerate(t))]
    if len(extremal) == n:  # simplicial: the facet opposite each ray, as for n generators
        return Cone(n, tuple(extremal), tuple(next(f for f, _ in dual if dot(f, r) > 0) for r in extremal), n)
    return Cone(n, tuple(extremal), tuple(sorted(f for f, _ in dual)), n)


def dual_cone(c: Cone) -> Cone:
    """Cone of functionals nonnegative on c (c must be full-dimensional,
    otherwise the dual contains a line)."""
    if c.dim < c.n:
        raise NotStronglyConvex("dual of a non-full-dimensional cone contains a line")
    return make_cone(c.n, c.facets)


def membership(c: Cone, v: Sequence) -> Membership:
    if len(v) != c.n:
        raise ValidationError(f"a point of length {len(v)} in dimension {c.n}")
    d = math.lcm(*[x.denominator for x in v])  # v scaled to ints, by d > 0
    v = [x.numerator * (d // x.denominator) for x in v]
    if c.dim < c.n and linalg.solve_scaled(transpose(c.rays), v)[2] is linalg.INCONSISTENT:
        return Membership.OUTSIDE
    vals = [dot(f, v) for f in c.facets]
    if any(x < 0 for x in vals):
        return Membership.OUTSIDE
    if any(x == 0 for x in vals):
        return Membership.BOUNDARY
    return Membership.RELATIVE_INTERIOR


def is_simplicial(c: Cone) -> bool:
    return len(c.rays) == c.dim


def has_opposite_facets(c: Cone) -> bool:
    """Is c full-dimensional and simplicial, so that facets[i] is opposite rays[i]?"""
    return c.dim == c.n == len(c.rays)


def minimal_face_containing(c: Cone, v: Sequence) -> Face:
    """The unique face whose relative interior contains v."""
    if membership(c, v) is Membership.OUTSIDE:
        raise NotInCone(f"({', '.join(str(Fraction(x)) for x in v)}) is not in the cone")
    zero_facets = [f for f in c.facets if dot(f, v) == 0]
    idx = tuple(i for i, r in enumerate(c.rays) if all(dot(f, r) == 0 for f in zero_facets))
    return Face(c, idx)
