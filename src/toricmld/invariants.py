"""Invariants of toric klt germs.

A germ is a full-dimensional strongly convex cone together with one
boundary coefficient in [0, 1) per ray and an ambient lattice N that may
strictly contain Z^n.  The log discrepancy of the divisorial valuation
attached to an interior lattice point u is L(u), where L is the unique
linear functional taking 1 - coeff at each primitive ray generator.  The
minimal log discrepancy is the minimum of L over the interior lattice
points; the regional fundamental group is the quotient of the orbifold
lattice by the subgroup the rays generate.

Extended lattices are handled by rebasing: all searches run in integer
coordinates with respect to a basis of N, and points are reported back
in the original coordinates.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from . import cones, linalg
from .cones import Cone, Membership, make_cone
from .errors import (
    BoundBelowMinimum,
    CoefficientOutOfRange,
    InternalError,
    NotFullDimensional,
    NotInteriorPoint,
    NotQCartier,
    ValidationError,
)
from .linalg import (
    INCONSISTENT,
    UNDERDETERMINED,
    LatticeBasis,
    dot,
    express_in_basis,
    lattice_from_generators,
    snf,
    vec_gcd,
)

Point = tuple  # lattice point in ambient coordinates (ints or Fractions)


@dataclass(frozen=True)
class ToricGerm:
    """Toric singularity germ (cone, boundary, ambient lattice).  Its derived
    data is built on first use, kept on the germ and freed with it."""

    cone: Cone
    boundary: tuple[Fraction, ...]
    lattice: LatticeBasis

    @property
    def dim(self) -> int:
        return self.cone.n

    @cached_property
    def rebased(self) -> Rebased:
        """The germ in coordinates of N; raises as ``log_disc_functional``."""
        ldf = log_disc_functional(self)
        if self.lattice.is_standard:
            cone, coeffs = self.cone, ldf.coeffs
        else:
            rays_c = []
            for ray in self.cone.rays:
                c = express_in_basis(self.lattice, ray)
                if c is None:
                    raise InternalError(f"ray {ray} of a validated germ is not a point of N")
                rays_c.append(c)
            cone = make_cone(self.dim, rays_c)
            coeffs = tuple(ldf(row) for row in self.lattice.rows)
        den = math.lcm(*[f.denominator for f in coeffs])
        l_num = tuple(f.numerator * (den // f.denominator) for f in coeffs)
        return Rebased(ldf, cone, l_num, den)

    @cached_property
    def orbifold(self) -> LatticeBasis:
        """Lattice generated by N and the rescaled ray generators ray/n_ray."""
        gens = list(self.lattice.rows)
        for ray, b in zip(self.cone.rays, self.boundary):
            m = multiplicity(b)
            gens.append(tuple(Fraction(x, m) for x in ray))
        return lattice_from_generators(self.dim, gens)


def make_germ(
    cone: Cone,
    boundary: Sequence | None = None,
    lattice: LatticeBasis | None = None,
) -> ToricGerm:
    """Validate and build a germ; raises ValidationError on bad data."""
    n = cone.n
    if lattice is None:
        lattice = LatticeBasis.standard(n)
    if lattice.dim != n:
        raise ValidationError("lattice dimension does not match the cone")
    if boundary is None:
        boundary = [Fraction(0)] * len(cone.rays)
    coeffs = tuple(Fraction(b) for b in boundary)
    if len(coeffs) != len(cone.rays):
        raise ValidationError(
            f"{len(coeffs)} boundary coefficients for {len(cone.rays)} rays"
        )
    for b in coeffs:
        if not (0 <= b < 1):
            raise ValidationError(f"boundary coefficient {b} outside [0, 1)")
    for ray in cone.rays:
        c = express_in_basis(lattice, ray)
        if c is None:
            raise ValidationError(f"ray {ray} is not a lattice point of N")
        if vec_gcd(c) != 1:
            raise ValidationError(f"ray {ray} is not primitive in the ambient lattice")
    return ToricGerm(cone, coeffs, lattice)


def multiplicity(coeff) -> int:
    """Largest n with 1 - 1/n <= coeff, for coeff in [0, 1)."""
    c = Fraction(coeff)
    if not (0 <= c < 1):
        raise CoefficientOutOfRange(f"coefficient {c} outside [0, 1)")
    return math.floor(1 / (1 - c))


def orbifold_lattice(germ: ToricGerm) -> LatticeBasis:
    """Lattice generated by N and the rescaled ray generators ray/n_ray."""
    return germ.orbifold


@dataclass(frozen=True)
class LogDiscFunctional:
    """The linear functional measuring log discrepancies of toric valuations."""

    coeffs: tuple[Fraction, ...]

    def __call__(self, v: Sequence) -> Fraction:
        return Fraction(dot(self.coeffs, v))


def log_disc_functional(germ: ToricGerm) -> LogDiscFunctional:
    """Solve L(ray) = 1 - coeff over all rays.

    The value at the primitive generator of a ray is the log discrepancy
    of the corresponding invariant divisor.  Inconsistency means the log
    canonical divisor is not Q-Cartier at the point; an underdetermined
    system means the cone is not full-dimensional.
    """
    rows = [tuple(Fraction(x) for x in ray) for ray in germ.cone.rays]
    rhs = [1 - Fraction(b) for b in germ.boundary]
    sol = linalg.solve_rational(rows, rhs)
    if sol is INCONSISTENT:
        raise NotQCartier("no linear functional matches all ray values")
    if sol is UNDERDETERMINED:
        raise NotFullDimensional("the cone does not span the ambient space")
    return LogDiscFunctional(sol)


@dataclass(frozen=True)
class Rebased:
    """A germ's log discrepancy functional ``ldf`` and its cone in integer
    coordinates with respect to the basis of N.

    Log discrepancies are kept as integer numerators over ``den``:
    L(c) = dot(l_num, c) / den for rebased coordinates c.
    """

    ldf: LogDiscFunctional
    cone: Cone
    l_num: tuple[int, ...]
    den: int

    def ray_sum_value(self) -> int:
        """Numerator of L at the ray sum, an interior lattice point."""
        return sum(dot(self.l_num, ray) for ray in self.cone.rays)


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
# the invariants


@dataclass(frozen=True)
class MldResult:
    value: Fraction
    minimizers: tuple[Point, ...]
    search_bound: Fraction


@dataclass(frozen=True)
class WindowCount:
    low: Fraction
    high: Fraction
    points: tuple[tuple[Point, Fraction], ...]
    count: int


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant factor presentation d1 | d2 | ... with all d > 1."""

    invariant_factors: tuple[int, ...]
    order: int
    free_rank: int


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


def log_discrepancy_at(germ: ToricGerm, u: Sequence) -> Fraction:
    """L(u) for an interior lattice point u, in ambient coordinates."""
    c = express_in_basis(germ.lattice, u)
    if c is None:
        raise NotInteriorPoint(f"{tuple(u)} is not a point of the ambient lattice")
    rb = germ.rebased
    if cones.membership(rb.cone, c) is not Membership.RELATIVE_INTERIOR:
        raise NotInteriorPoint(f"{tuple(u)} is not in the interior of the cone")
    return Fraction(dot(rb.l_num, c), rb.den)


def pi1_reg(germ: ToricGerm) -> FiniteAbelianGroup:
    """Regional fundamental group: orbifold lattice modulo the rays.

    Computed as the cokernel of the ray matrix written in a basis of the
    orbifold lattice, from that matrix's invariant factors (``snf``, read
    off its Hermite form).  For a full-dimensional cone the group is
    finite; otherwise the free rank is reported.
    """
    rows = []
    for ray in germ.cone.rays:
        c = express_in_basis(germ.orbifold, ray)
        if c is None:
            raise InternalError(f"ray {ray} is not a point of the orbifold lattice")
        rows.append(c)
    factors = snf(rows)
    nontrivial = tuple(d for d in factors if d > 1)
    return FiniteAbelianGroup(nontrivial, math.prod(factors), germ.dim - len(factors))
