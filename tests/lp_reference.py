"""Exact two-phase simplex: the reference the facet-based cone tests in
``toricmld.cones`` are checked against.

The package decides extremality and relative interiors from the facet
description that double description computes; these LP versions answer
the same questions from the generators alone, so the tests can compare
the two.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from toricmld.linalg import primitive, transpose


def _lp_max(a_rows, b, c_obj):
    """Maximise c.x subject to a_rows . x = b, x >= 0, exactly.

    Returns (status, value, x) with status one of 'optimal',
    'infeasible', 'unbounded'.  Two-phase tableau simplex with Bland's
    rule.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    rows = []
    rhs = []
    for row, bi in zip(a_rows, b):
        r = [Fraction(x) for x in row]
        bi = Fraction(bi)
        if bi < 0:
            r = [-x for x in r]
            bi = -bi
        rows.append(r)
        rhs.append(bi)
    # phase 1: artificial variables n..n+m-1
    tab = [rows[i] + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    total = n + m

    def pivot(pr, pc):
        piv = tab[pr][pc]
        tab[pr] = [x / piv for x in tab[pr]]
        for i in range(m):
            if i != pr and tab[i][pc] != 0:
                f = tab[i][pc]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[pr])]
        basis[pr] = pc

    def optimise(cost, allowed):
        # maximise cost over columns in `allowed`; Bland's rule
        while True:
            z = [Fraction(0)] * (total + 1)
            for i, bi in enumerate(basis):
                ci = cost[bi]
                if ci != 0:
                    z = [zz + ci * x for zz, x in zip(z, tab[i])]
            entering = None
            for j in range(total):
                if j in allowed and j not in basis and cost[j] - z[j] > 0:
                    entering = j
                    break
            if entering is None:
                return "optimal", z[total]
            ratios = [
                (tab[i][total] / tab[i][entering], basis[i], i)
                for i in range(m)
                if tab[i][entering] > 0
            ]
            if not ratios:
                return "unbounded", None
            _, _, pr = min(ratios)
            pivot(pr, entering)

    cost1 = [Fraction(0)] * n + [Fraction(-1)] * m + [Fraction(0)]
    status, val = optimise(cost1, set(range(total)))
    if status != "optimal":  # phase 1 is bounded by 0; a raise survives python -O
        raise RuntimeError(f"phase 1 of the simplex ended {status}")
    if val != 0:
        return "infeasible", None, None
    # drive artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            pc = next((j for j in range(n) if tab[i][j] != 0), None)
            if pc is not None:
                pivot(i, pc)
    cost2 = [Fraction(x) for x in c_obj] + [Fraction(0)] * m + [Fraction(0)]
    status, val = optimise(cost2, set(range(n)))
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i][total]
    return "optimal", val, tuple(x)


def in_cone(rays: Sequence[Sequence], v: Sequence) -> bool:
    """Exact feasibility: is v a nonnegative combination of the rays?"""
    if not rays:
        return all(x == 0 for x in v)
    a = transpose(rays)  # ambient coordinate equations, one unknown per ray
    status, _, _ = _lp_max(a, tuple(v), [0] * len(rays))
    return status != "infeasible"


def in_relint(rays: Sequence[Sequence], v: Sequence) -> bool:
    """Is v a strictly positive combination of all the rays?

    This characterises the relative interior of the cone the rays span.
    """
    k = len(rays)
    if k == 0:
        return all(x == 0 for x in v)
    n = len(v)
    # variables: lambda_1..k, t, s_1..k ; rows: ambient eqs, then lambda_i - t - s_i = 0
    a = []
    b = []
    for j in range(n):
        a.append([rays[i][j] for i in range(k)] + [0] + [0] * k)
        b.append(v[j])
    for i in range(k):
        row = [0] * (2 * k + 1)
        row[i] = 1
        row[k] = -1
        row[k + 1 + i] = -1
        a.append(row)
        b.append(0)
    c = [0] * (2 * k + 1)
    c[k] = 1
    status, val, _ = _lp_max(a, b, c)
    if status == "infeasible":
        return False
    if status == "unbounded":
        return True
    return val > 0


def extremal_generators(generators: Sequence[Sequence[int]]) -> tuple:
    """The primitive, deduplicated generators that no others generate,
    sorted: the extremal rays of a strongly convex cone, decided by one
    feasibility LP per generator."""
    prims = sorted({primitive(g) for g in generators})
    extremal = []
    for i, p in enumerate(prims):
        others = prims[:i] + prims[i + 1:]
        if not in_cone(others, p):
            extremal.append(p)
    return tuple(extremal)
