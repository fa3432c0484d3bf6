"""Hermite and Smith normal forms with their unimodular transforms: the
references the transform-free kernel in ``toricmld.linalg`` is checked
against.

These are the package's earlier ``hnf`` (H with U . a = H) and ``snf``
(S = U . A . V, through ``SNFResult`` and ``_snf_clear_at``), kept
unchanged so the tests can compare the package with them and check the
transforms themselves with ``mat_mul``, and the Smith-based
``saturation_basis``, a basis of span intersect Z^n that the package no
longer needs: the tests use it to rebase lower-dimensional cones.
``orbifold`` is the integer Hermite construction of the orbifold lattice
that ``ToricGerm.orbifold`` skips when every n_ray is 1.
Nothing in ``src/`` imports this module, and its checks raise rather
than assert, so they hold under ``python -O`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from toricmld import linalg
from toricmld.errors import InternalError
from toricmld.invariants import multiplicity
from toricmld.linalg import IntVec, LatticeBasis, dot, identity, solve_rational, transpose, xgcd


def mat_mul(a, b) -> tuple:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def hnf(a) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Row Hermite normal form.

    Returns (H, U) with H = U . a, U unimodular.  Convention: row style,
    pivots positive, entries above a pivot reduced into [0, pivot).
    """
    m = len(a)
    n = len(a[0]) if m else 0
    h = [list(map(int, row)) for row in a]
    u = [list(row) for row in identity(m)]
    r = 0
    for j in range(n):
        piv = next((i for i in range(r, m) if h[i][j] != 0), None)
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, m):
            if h[i][j] == 0:
                continue
            g, x, y = xgcd(h[r][j], h[i][j])
            p, q = h[r][j] // g, h[i][j] // g
            h[r], h[i] = (
                [x * rr + y * ri for rr, ri in zip(h[r], h[i])],
                [-q * rr + p * ri for rr, ri in zip(h[r], h[i])],
            )
            u[r], u[i] = (
                [x * rr + y * ri for rr, ri in zip(u[r], u[i])],
                [-q * rr + p * ri for rr, ri in zip(u[r], u[i])],
            )
        if h[r][j] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][j] // h[r][j]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return tuple(map(tuple, h)), tuple(map(tuple, u))


@dataclass(frozen=True)
class SNFResult:
    """Smith decomposition S = U . A . V with U, V unimodular.

    S is diagonal with nonnegative entries d1 | d2 | ... followed by
    zeros.  ``invariant_factors`` strips the trailing zeros; the rank is
    their count.
    """

    S: tuple[IntVec, ...]
    U: tuple[IntVec, ...]
    V: tuple[IntVec, ...]

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(len(self.S), len(self.S[0]) if self.S else 0)
        return tuple(self.S[i][i] for i in range(k) if self.S[i][i] != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def _snf_clear_at(s, u, v, k):
    """Clear row k and column k (beyond the diagonal) by gcd transforms.

    When the pivot already divides the entry a plain subtraction is used,
    which leaves the pivot row/column untouched; this is what makes the
    row/column alternation terminate.
    """
    m, n = len(s), len(s[0])
    while True:
        for i in range(k + 1, m):
            if s[i][k] == 0:
                continue
            if s[i][k] % s[k][k] == 0:
                q = s[i][k] // s[k][k]
                s[i] = [b - q * a for a, b in zip(s[k], s[i])]
                u[i] = [b - q * a for a, b in zip(u[k], u[i])]
                continue
            g, x, y = xgcd(s[k][k], s[i][k])
            p, q = s[k][k] // g, s[i][k] // g
            s[k], s[i] = (
                [x * a + y * b for a, b in zip(s[k], s[i])],
                [-q * a + p * b for a, b in zip(s[k], s[i])],
            )
            u[k], u[i] = (
                [x * a + y * b for a, b in zip(u[k], u[i])],
                [-q * a + p * b for a, b in zip(u[k], u[i])],
            )
        if all(s[k][j] == 0 for j in range(k + 1, n)):
            return
        for j in range(k + 1, n):
            if s[k][j] == 0:
                continue
            if s[k][j] % s[k][k] == 0:
                q = s[k][j] // s[k][k]
                for row in s:
                    row[j] -= q * row[k]
                for row in v:
                    row[j] -= q * row[k]
                continue
            g, x, y = xgcd(s[k][k], s[k][j])
            p, q = s[k][k] // g, s[k][j] // g
            for row in s:
                row[k], row[j] = x * row[k] + y * row[j], -q * row[k] + p * row[j]
            for row in v:
                row[k], row[j] = x * row[k] + y * row[j], -q * row[k] + p * row[j]
        if all(s[i][k] == 0 for i in range(k + 1, m)):
            return


def snf(a) -> SNFResult:
    """Smith normal form with both unimodular transforms."""
    m = len(a)
    n = len(a[0]) if m else 0
    s = [list(map(int, row)) for row in a]
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]
    t = min(m, n)
    for k in range(t):
        piv = next(
            ((i, j) for i in range(k, m) for j in range(k, n) if s[i][j] != 0),
            None,
        )
        if piv is None:
            break
        pi, pj = piv
        if pi != k:
            s[k], s[pi] = s[pi], s[k]
            u[k], u[pi] = u[pi], u[k]
        if pj != k:
            for row in s:
                row[k], row[pj] = row[pj], row[k]
            for row in v:
                row[k], row[pj] = row[pj], row[k]
        _snf_clear_at(s, u, v, k)
    # enforce the divisibility chain d1 | d2 | ...
    while True:
        dirty = False
        for k in range(t - 1):
            dk, dk1 = s[k][k], s[k + 1][k + 1]
            if dk != 0 and dk1 % dk != 0:
                for row in s:
                    row[k] += row[k + 1]
                for row in v:
                    row[k] += row[k + 1]
                _snf_clear_at(s, u, v, k)
                dirty = True
        if not dirty:
            break
    for k in range(t):
        if s[k][k] < 0:
            s[k] = [-x for x in s[k]]
            u[k] = [-x for x in u[k]]
    return SNFResult(tuple(map(tuple, s)), tuple(map(tuple, u)), tuple(map(tuple, v)))


def saturation_basis(rows, n: int) -> tuple[IntVec, ...]:
    """Basis of span_Q(rows) intersected with Z^n, HNF-canonicalised.

    If S = U.A.V is the Smith form of the row matrix A, the first
    rank-many rows of V^-1 span the saturation.
    """
    res = snf(rows)
    basis = []
    vt = transpose(res.V)
    for i in range(res.rank):
        # row i of V^-1 solves x . V = e_i
        row = solve_rational(vt, [int(i == j) for j in range(n)])
        if any(x.denominator != 1 for x in row):
            raise InternalError("the inverse of a unimodular Smith transform is not integral")
        basis.append(tuple(x.numerator for x in row))
    h, _ = hnf(basis)
    return tuple(h[: res.rank])


def orbifold(germ) -> LatticeBasis:
    """Lattice generated by N and the rays/n_ray: the Hermite form of M N and
    the M ray/n_ray with n_ray > 1, over M = lcm(N's denominator, n_ray)."""
    ms = [multiplicity(b) for b in germ.boundary]
    big, den = math.lcm(germ.lattice.den, *ms), germ.lattice.den
    rows = [[x * (big // den) for x in row] for row in germ.lattice.num]
    rows += [[x * (big // m) for x in ray] for ray, m in zip(germ.cone.rays, ms) if m > 1]
    basis = linalg.hnf(rows)[: germ.dim]
    g = math.gcd(big, *(x for row in basis for x in row))
    return LatticeBasis(germ.dim, tuple(tuple(x // g for x in row) for row in basis), big // g)
