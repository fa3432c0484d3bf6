"""Naive reference enumeration for interior lattice point searches.

This module is a deliberately independent reimplementation used to
cross-check the main search path.  It re-derives everything from
scratch: the functional by its own Gaussian elimination, valid
inequalities by brute-force enumeration of ray subsets, and the search
region as a flat integer bounding box around the scaled generators.  It
shares no geometry code with the rest of the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InternalError, NotQCartier


def _gauss_solve(rows, rhs):
    """Unique rational solution of rows . x = rhs, or None."""
    m = len(rows)
    n = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    r = 0
    piv_cols = []
    for c in range(n):
        p = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    if r < n:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        x[c] = aug[i][n]
    return tuple(x)


def _nullspace_direction(rows, n):
    """A nonzero vector orthogonal to all rows, when the nullspace is a line."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    piv = {}
    for c in range(n):
        p = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        piv[c] = r
        r += 1
    free = [c for c in range(n) if c not in piv]
    if len(free) != 1:
        return None
    f = free[0]
    v = [Fraction(0)] * n
    v[f] = Fraction(1)
    for c, row_i in piv.items():
        v[c] = -mat[row_i][f]
    den = math.lcm(*[x.denominator for x in v])
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    return tuple(x // g for x in ints)


def _rebase_rays(germ):
    """Germ rays as integer coordinate vectors in a basis of N."""
    basis = germ.lattice.rows
    n = germ.dim
    at = [[basis[i][j] for i in range(n)] for j in range(n)]
    out = []
    for ray in germ.cone.rays:
        c = _gauss_solve(at, ray)
        if c is None or any(x.denominator != 1 for x in c):
            raise InternalError(f"oracle: ray {ray} is not integral in the lattice basis")
        out.append(tuple(int(x) for x in c))
    return out


def _functional(germ, rays_c):
    rows = [tuple(Fraction(x) for x in c) for c in rays_c]
    rhs = [1 - Fraction(b) for b in germ.boundary]
    sol = _gauss_solve(rows, rhs)
    if sol is None:
        raise NotQCartier("oracle: functional is not determined consistently")
    return sol


def _valid_inequalities(rays, n):
    """Primitive integer normals of all valid inequalities spanned by
    (n-1)-subsets of the rays.  For a full-dimensional pointed cone this
    set defines both the cone and its interior."""
    seen = set()
    out = []
    for subset in itertools.combinations(rays, n - 1):
        w = _nullspace_direction(subset, n)
        if w is None:
            continue
        vals = [sum(a * b for a, b in zip(w, r)) for r in rays]
        if all(v >= 0 for v in vals):
            keep = w
        elif all(v <= 0 for v in vals):
            keep = tuple(-x for x in w)
        else:
            continue
        if keep not in seen:
            seen.add(keep)
            out.append(keep)
    return out


def _to_ambient(germ, c):
    basis = germ.lattice.rows
    out = []
    for j in range(germ.dim):
        out.append(sum(Fraction(c[i]) * basis[i][j] for i in range(len(c))))
    return tuple(int(x) if x.denominator == 1 else x for x in out)


def _scan(germ, bound, lo=None, hi=None):
    """Integer box scan; returns (point, value) pairs in rebased
    coordinates, keeping strict interior points with value in
    [lo, hi) when given, else 0 < value <= bound."""
    n = germ.dim
    rays_c = _rebase_rays(germ)
    l = _functional(germ, rays_c)
    normals = _valid_inequalities(rays_c, n)
    bound = Fraction(bound)
    # box around the scaled generators: the level set {L <= bound} of the
    # cone is the convex hull of 0 and bound * ray / L(ray)
    verts = [tuple(Fraction(0) for _ in range(n))]
    for c in rays_c:
        lv = sum(a * b for a, b in zip(l, c))
        verts.append(tuple(bound * Fraction(x) / lv for x in c))
    los = [math.floor(min(v[j] for v in verts)) for j in range(n)]
    his = [math.ceil(max(v[j] for v in verts)) for j in range(n)]
    den = math.lcm(*[f.denominator for f in l])
    l_int = [int(f * den) for f in l]
    b_num = bound * den
    lo_num = Fraction(lo) * den if lo is not None else None
    hi_num = Fraction(hi) * den if hi is not None else None
    found = []
    rows = normals + [l_int]
    k = len(rows)
    point = [0] * n

    def recurse(depth, partial):
        if depth == n:
            lval = partial[k - 1]
            if any(partial[i] <= 0 for i in range(k - 1)):
                return
            if lo_num is not None:
                if not (lo_num <= lval < hi_num):
                    return
            elif not (0 < lval <= b_num):
                return
            found.append((tuple(point), Fraction(lval, den)))
            return
        base = [partial[i] + rows[i][depth] * los[depth] for i in range(k)]
        steps = [rows[i][depth] for i in range(k)]
        for t in range(los[depth], his[depth] + 1):
            point[depth] = t
            recurse(depth + 1, base)
            base = [base[i] + steps[i] for i in range(k)]

    recurse(0, [0] * k)
    return found


def oracle_mld(germ, bound=None):
    """Brute-force minimum and minimizers, in ambient coordinates."""
    rays_c = _rebase_rays(germ)
    l = _functional(germ, rays_c)
    if bound is None:
        s = [sum(c[j] for c in rays_c) for j in range(germ.dim)]
        bound = sum(a * b for a, b in zip(l, s))
    pts = _scan(germ, bound)
    if not pts:
        raise ValueError("oracle: no interior lattice point below the bound")
    value = min(v for _, v in pts)
    mins = sorted(_to_ambient(germ, p) for p, v in pts if v == value)
    return value, tuple(mins)


def oracle_window(germ, low, high):
    """Brute-force window enumeration, in ambient coordinates."""
    pts = _scan(germ, high, lo=low, hi=high)
    return tuple(sorted((_to_ambient(germ, p), v) for p, v in pts))
