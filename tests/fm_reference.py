"""Fourier-Motzkin lattice point enumeration: the reference the package's
box-point enumerator in ``toricmld.invariants`` is checked against.

These are the package's earlier ``_normalize_rows``, ``_fm_eliminate``,
``_fm_cascade``, ``_ceil_div``, ``_enumerate_polytope_points`` and the
FM body of ``_interior_points_upto``, kept unchanged, together with the
``mld``, ``count_window`` and ``mld_window_counts`` that read them.  The
search region {L <= bound} is cut out of the cone by Fourier-Motzkin
projections, walked coordinate by coordinate, and filtered for
interiority.  Nothing in ``src/`` imports this module, and its checks
raise rather than assert, so they hold under ``python -O`` too.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Sequence

from toricmld.errors import BoundBelowMinimum, InternalError
from toricmld.invariants import MldResult, Rebased, ToricGerm, WindowCount
from toricmld.linalg import dot, vec_gcd


# ---------------------------------------------------------------------------
# lattice point enumeration: Fourier-Motzkin projections give exact
# per-prefix coordinate bounds, so the recursion only ever visits
# integer points of rational projections of the search polytope.


def _normalize_rows(rows):
    out = {}
    for coeffs, const in rows:
        g = vec_gcd(coeffs)
        g = math.gcd(g, abs(const))
        if g == 0:
            continue
        key = tuple(x // g for x in coeffs)
        val = const // g if const % g == 0 else Fraction(const, g)
        if all(x == 0 for x in key):
            # 0 >= c is vacuous for c <= 0.  For c > 0 the system is
            # infeasible, and dropping the row is still sound: the walk
            # emits only points that satisfy every non-constant row of
            # every level, so every original row, and so it emits none.
            continue
        if key not in out or out[key] < val:
            out[key] = val
    return [(k, v) for k, v in out.items()]


def _fm_eliminate(rows, k):
    """Project {x : coeffs . x >= const} onto the first k coordinates."""
    pos, neg, zero = [], [], []
    for coeffs, const in rows:
        a = coeffs[k]
        if a > 0:
            pos.append((coeffs, const))
        elif a < 0:
            neg.append((coeffs, const))
        else:
            zero.append((coeffs[:k], const))
    for (cp, dp) in pos:
        for (cq, dq) in neg:
            ap, aq = cp[k], cq[k]
            coeffs = tuple(-aq * x + ap * y for x, y in zip(cp[:k], cq[:k]))
            zero.append((coeffs, -aq * dp + ap * dq))
    return _normalize_rows(zero)


def _fm_cascade(n, rows):
    systems = [None] * (n + 1)
    systems[n] = _normalize_rows(rows)
    for j in range(n - 1, 0, -1):
        systems[j] = _fm_eliminate(systems[j + 1], j)
    return systems


def _ceil_div(p, q):
    # q > 0
    return -((-p) // q)


def _enumerate_polytope_points(n, int_rows):
    """All integer points of {x in Z^n : coeffs . x >= const for each row}.

    The system must describe a bounded nonempty polytope.
    """
    systems = _fm_cascade(n, int_rows)
    out = []
    point = [0] * n

    def walk(depth):
        lo, hi = None, None
        for coeffs, const in systems[depth + 1]:
            a = coeffs[depth]
            if a == 0:
                continue
            s = const - sum(coeffs[i] * point[i] for i in range(depth))
            if a > 0:
                b = _ceil_div(s, a)
                lo = b if lo is None or b > lo else lo
            else:
                b = s // a
                hi = b if hi is None or b < hi else hi
        if lo is None or hi is None:
            raise InternalError("search region is unbounded")
        for t in range(lo, hi + 1):
            point[depth] = t
            if depth + 1 == n:
                out.append(tuple(point))
            else:
                walk(depth + 1)

    walk(0)
    return out


def _interior_points_upto(rb: Rebased, b_num: int):
    """Interior lattice points u of the cone with 0 < L(u) <= b_num / den,
    paired with the numerator of L(u), in rebased coordinates."""
    facets, l_num = rb.cone.facets, rb.l_num
    rows = [(f, 0) for f in facets]
    rows.append((tuple(-x for x in l_num), -b_num))
    result = []
    for p in _enumerate_polytope_points(rb.cone.n, rows):
        if all(dot(f, p) > 0 for f in facets):
            val = dot(l_num, p)
            if val > 0:
                result.append((p, val))
    return result



# ---------------------------------------------------------------------------
# the invariants, read off the FM enumeration


def mld(germ: ToricGerm, bound=None) -> MldResult:
    """Minimum of the log discrepancy functional over interior lattice
    points, with every minimizer.

    The default enumeration bound is L(sum of rays); the ray sum is an
    interior lattice point, so the region {L <= bound} is certified to
    contain the minimum.
    """
    rb = germ.rebased
    if bound is None:
        b_num = rb.ray_sum_value()
        b = Fraction(b_num, rb.den)
    else:
        b = Fraction(bound)
        b_num = math.floor(b * rb.den)
    pts = _interior_points_upto(rb, b_num)
    if not pts:
        raise BoundBelowMinimum(
            f"no interior lattice point with L <= {b}; the bound is below the minimum"
        )
    value = min(v for _, v in pts)
    minimizers = sorted(germ.lattice.to_ambient(p) for p, v in pts if v == value)
    return MldResult(Fraction(value, rb.den), tuple(minimizers), b)


def count_window(germ: ToricGerm, low, high) -> WindowCount:
    """All interior lattice points with log discrepancy in [low, high)."""
    lo, hi = Fraction(low), Fraction(high)
    if not (0 < lo <= hi):
        raise ValueError("window must satisfy 0 < low <= high")
    rb = germ.rebased
    # integer numerators v with lo <= v / den < hi
    lo_num, hi_num = math.ceil(lo * rb.den), math.ceil(hi * rb.den)
    pts = _interior_points_upto(rb, hi_num - 1)
    kept = sorted(
        (germ.lattice.to_ambient(p), Fraction(v, rb.den)) for p, v in pts if v >= lo_num
    )
    return WindowCount(lo, hi, tuple(kept), len(kept))


def mld_window_counts(germ: ToricGerm, deltas: Sequence) -> tuple[Fraction, tuple[int, ...]]:
    """The mld and, for each delta, the number of interior lattice points
    with log discrepancy in [mld, mld + delta).

    Equal to ``mld(germ).value`` and ``count_window(germ, m, m + delta).count``
    for each delta, from one enumeration up to L(sum of rays), plus a
    second one up to mld + max(deltas) only when that exceeds it.
    """
    rb = germ.rebased
    bound = rb.ray_sum_value()
    pts = _interior_points_upto(rb, bound)
    m = min(v for _, v in pts)
    # the largest numerator inside [m, m + delta)
    tops = [m + math.ceil(Fraction(d) * rb.den) - 1 for d in deltas]
    if tops and max(tops) > bound:
        pts = _interior_points_upto(rb, max(tops))
    values = sorted(v for _, v in pts)
    return Fraction(m, rb.den), tuple(bisect.bisect_right(values, top) for top in tops)

