"""The vectors-and-grids decomposition: the reference the package's
row-based ``toricmld.structure.decompose`` is checked against.

``_decompose_rec`` and ``decompose`` are the package's earlier
construction, kept unchanged: each recursion level carries its vectors
in its own coordinates together with one dict per vector, keyed by ray
vectors, of the ray coefficients; a half of a spanning pair is rebased
to its saturated span, the basis ``nf_reference.saturation_basis``
gives, and mapped back up by an ``up`` closure, and the top level maps
the rays back to ambient coordinates and then to column indices.  It
calls the package's ``trichotomy`` and ``_validate_decomposition``.

``rows_by_rank`` is the row-based recursion as it was before the rows
were kept over the top cone's rays, kept unchanged but for its name:
each level maps its sub-cones' rows into its own columns with ``_over``,
merges a spanning pair by re-ranking the growing basis one vector at a
time, and tries each basis row with one more rank.  It calls the
package's ``_trichotomy``.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import nf_reference
from toricmld import linalg
from toricmld.cones import Cone, Membership, has_opposite_facets, make_cone, membership
from toricmld.errors import InternalError, NotInteriorPoint
from toricmld.germio import format_q
from toricmld.invariants import ToricGerm
from toricmld.linalg import dot, express_in_basis, mat_vec, rank, solve_rational, transpose
from toricmld.structure import (
    Decomposition,
    FullDimSubcone,
    Simplicial,
    _trichotomy,
    _validate_decomposition,
    trichotomy,
)


def _simplicial_decomposition(cone: Cone, m):
    sol = solve_rational(transpose(cone.rays), m)
    if not isinstance(sol, tuple) or not all(x > 0 for x in sol):
        raise InternalError("an interior point is not a positive combination of simplicial rays")
    k0 = math.lcm(*[x.denominator for x in sol])
    vectors = []
    grids = []
    for coeff, ray in zip(sol, cone.rays):
        k = int(coeff * k0)
        vectors.append(tuple(k * x for x in ray))
        grids.append({ray: k})
    return k0, vectors, grids


def _rebase_to_span(tau: Cone, m):
    sat = nf_reference.saturation_basis(tau.rays, tau.n)
    cols = list(zip(*sat))

    def down(v):
        c = linalg.echelon_coords(sat, v)
        if c is None:
            raise InternalError(f"{tuple(v)} has no integer coordinates in the saturated span")
        return c

    def up(v):
        return tuple(dot(v, col) for col in cols)

    return [down(r) for r in tau.rays], down(m), len(sat), up


def _decompose_rec(cone: Cone, m):
    """Decomposition for a cone that is full-dimensional in Q^n."""
    n = cone.n
    tri = trichotomy(cone, m)
    if isinstance(tri, Simplicial):
        return _simplicial_decomposition(cone, m)
    if isinstance(tri, FullDimSubcone):
        return _decompose_rec(tri.tau, m)
    parts = []
    for tau in (tri.tau1, tri.tau2):
        sub_rays, sub_m, d, up = _rebase_to_span(tau, m)
        k0_t, vecs_t, grids_t = _decompose_rec(make_cone(d, sub_rays), sub_m)
        vecs = [up(v) for v in vecs_t]
        grids = [{up(r): k for r, k in g.items()} for g in grids_t]
        parts.append((k0_t, vecs, grids))
    (k0a, vecs_a, grids_a), (k0b, vecs_b, grids_b) = parts
    basis = list(vecs_a)
    basis_grids = list(grids_a)
    unused_vecs, unused_grids = [], []
    for v, g in zip(vecs_b, grids_b):
        if len(basis) < n and rank(basis + [v]) > rank(basis):
            basis.append(v)
            basis_grids.append(g)
        else:
            unused_vecs.append(v)
            unused_grids.append(g)
    if rank(basis) != n:
        raise InternalError("the two sub-cone decompositions do not span")
    if unused_vecs:
        w = tuple(sum(col) for col in zip(*unused_vecs))
        gw = {}
        for g in unused_grids:
            for r, k in g.items():
                gw[r] = gw.get(r, 0) + k
        for i in range(n):
            cand = basis[:i] + [tuple(a + b for a, b in zip(basis[i], w))] + basis[i + 1:]
            if rank(cand) == n:
                basis = cand
                merged = dict(basis_grids[i])
                for r, k in gw.items():
                    merged[r] = merged.get(r, 0) + k
                basis_grids[i] = merged
                break
        else:  # pragma: no cover - impossible: k0*m would vanish
            raise InternalError("no replacement keeps the family independent")
    return k0a + k0b, basis, basis_grids


def decompose(germ: ToricGerm, m: Sequence) -> Decomposition:
    """Decompose k0 * m into independent nonnegative ray combinations."""
    rb = germ.rebased
    m_c = express_in_basis(germ.lattice, m)
    if m_c is None or membership(rb.cone, m_c) is not Membership.RELATIVE_INTERIOR:
        raise NotInteriorPoint(f"({', '.join(map(format_q, m))}) is not an interior lattice point")
    k0, vecs_c, grids = _decompose_rec(rb.cone, m_c)
    amb_of = {r: germ.lattice.to_ambient(r) for r in rb.cone.rays}
    col = {amb: j for j, amb in enumerate(germ.cone.rays)}
    vectors = []
    coefficients = []
    for v, g in zip(vecs_c, grids):
        vectors.append(germ.lattice.to_ambient(v))
        row = [0] * len(germ.cone.rays)
        for r, k in g.items():
            row[col[amb_of[r]]] = k
        coefficients.append(tuple(row))
    total = k0 + sum(sum(row) for row in coefficients)
    result = Decomposition(k0, tuple(vectors), tuple(coefficients), total)
    _validate_decomposition(germ, m, result)
    return result


def _over(rows, sub_rays, rays):
    """Rows over sub_rays, a sublist of rays, as rows over rays."""
    pos = {r: i for i, r in enumerate(sub_rays)}
    return [[row[pos[r]] if r in pos else 0 for r in rays] for row in rows]


def rows_by_rank(cone: Cone, m):
    """k0 and cone.dim nonnegative integer rows over cone.rays, one per
    vector v_i = rows[i] . rays, with k0 * m = sum of the v_i and the v_i
    independent, for m in the relative interior of the cone."""
    n, k = cone.dim, len(cone.rays)
    tri = _trichotomy(cone, m)
    if isinstance(tri, Simplicial):
        if has_opposite_facets(cone):
            sol = tuple(Fraction(dot(f, m), dot(f, r)) for f, r in zip(cone.facets, cone.rays))
        else:
            sol = solve_rational(transpose(cone.rays), m)
        if not isinstance(sol, tuple) or not all(x > 0 for x in sol):
            raise InternalError("an interior point is not a positive combination of simplicial rays")
        k0 = math.lcm(*[x.denominator for x in sol])
        return k0, [[int(x * k0) if i == j else 0 for j in range(k)] for i, x in enumerate(sol)]
    if isinstance(tri, FullDimSubcone):
        k0, rows = rows_by_rank(tri.tau, m)
        return k0, _over(rows, tri.tau.rays, cone.rays)
    k0a, rows = rows_by_rank(tri.tau1, m)
    k0b, rows_b = rows_by_rank(tri.tau2, m)
    rows, rows_b = _over(rows, tri.tau1.rays, cone.rays), _over(rows_b, tri.tau2.rays, cone.rays)
    cols = transpose(cone.rays)
    basis = [mat_vec(cols, row) for row in rows]
    unused = [0] * k
    for row in rows_b:
        v = mat_vec(cols, row)
        if len(basis) < n and rank(basis + [v]) > len(basis):
            basis.append(v)
            rows.append(row)
        else:
            unused = [a + b for a, b in zip(unused, row)]
    if rank(basis) != n:
        raise InternalError("the two sub-cone decompositions do not span")
    if any(unused):
        w = mat_vec(cols, unused)
        for i in range(n):
            cand = basis[:i] + [tuple(a + b for a, b in zip(basis[i], w))] + basis[i + 1:]
            if rank(cand) == n:
                rows[i] = [a + b for a, b in zip(rows[i], unused)]
                break
        else:  # pragma: no cover - impossible: k0*m would vanish
            raise InternalError("no replacement keeps the family independent")
    return k0a + k0b, rows
