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
from functools import cached_property, partial
from fractions import Fraction
from itertools import compress
from typing import NamedTuple, Sequence

from . import cones, linalg
from .cones import Cone, Membership
from .errors import (
    BoundBelowMinimum,
    CoefficientOutOfRange,
    InternalError,
    InvalidWindow,
    NotFullDimensional,
    NotInteriorPoint,
    NotQCartier,
    ValidationError,
)
from .linalg import (
    INCONSISTENT,
    UNDERDETERMINED,
    LatticeBasis,
    as_rational,
    dot,
    express_in_basis,
    primitive,
    snf,
    vec_gcd,
)

Point = tuple  # lattice point in ambient coordinates (ints or Fractions)


class ToricGerm:
    """Toric singularity germ (cone, boundary, ambient lattice), with read-only
    fields.  Its derived data is built at most once, kept on the germ and freed with it."""

    def __init__(self, cone: Cone, boundary: tuple[Fraction, ...], lattice: LatticeBasis):
        self.__dict__.update(cone=cone, boundary=boundary, lattice=lattice, _key=(cone, boundary, lattice))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a ToricGerm")

    def __eq__(self, other):
        return type(other) is type(self) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "ToricGerm(cone={!r}, boundary={!r}, lattice={!r})".format(*self._key)

    @property
    def dim(self) -> int:
        return self.cone.n

    @cached_property
    def boundary_ratios(self) -> tuple[tuple[int, int], ...]:
        """The boundary coefficients as (numerator, denominator) pairs in lowest terms."""
        return tuple(b.as_integer_ratio() for b in self.boundary)

    @cached_property
    def rebased(self) -> Rebased:
        """The germ in coordinates of N, with L(ray) = 1 - coeff there: the
        sum of (1 - b_i) f_i / (f_i . r_i) for a simplicial cone, f_i the
        facet opposite r_i, else solved.  No solution means K is not
        Q-Cartier at the point; many, that the cone is not full-dimensional.
        The cone is mapped, not rebuilt: its rays are ``coords``, in order (N's basis is upper
        triangular), and a facet f becomes primitive(num f), as f . x = (num f) . c / den."""
        rays, cone = self.coords, self.cone
        if not self.lattice.is_standard:
            facets = [primitive(linalg.mat_vec(self.lattice.num, f)) for f in cone.facets]
            cone = Cone(cone.n, rays, tuple(facets if cones.has_opposite_facets(cone) else sorted(facets)), cone.dim)
        if cones.has_opposite_facets(cone):
            # (1 - b_i) / (f_i . r_i) = p_i / q_i, over the common denominator den
            pq = [(q - p, q * dot(f, r)) for (p, q), f, r in zip(self.boundary_ratios, cone.facets, rays)]
            den = math.lcm(*[q for _, q in pq])
            l_num = [sum(p * (den // q) * f[j] for (p, q), f in zip(pq, cone.facets)) for j in range(self.dim)]
        else:
            # big * (1 - b_i), over big the lcm of the coefficients' denominators
            big = math.lcm(*[q for _, q in self.boundary_ratios])
            _, den, l_num = linalg.solve_scaled(rays, [(q - p) * (big // q) for p, q in self.boundary_ratios])
            if l_num is INCONSISTENT:
                raise NotQCartier("no linear functional matches all ray values")
            if l_num is UNDERDETERMINED:
                raise NotFullDimensional("the cone does not span the ambient space")
            den *= big
        g = math.gcd(den, *l_num)
        return Rebased(cone, tuple(x // g for x in l_num), den // g)

    @cached_property
    def coords(self) -> tuple:
        """The rays' coordinates in N's basis, the rays themselves on the
        standard lattice; None for a ray that is not a point of N."""
        if self.lattice.is_standard:
            return self.cone.rays
        return tuple(express_in_basis(self.lattice, ray) for ray in self.cone.rays)

    @cached_property
    def orbifold(self) -> LatticeBasis:
        """Lattice generated by N and the rays/n_ray: N when every n_ray is 1, else the Hermite
        form of M N and the M ray/n_ray with n_ray > 1, over M = lcm(N's denominator, n_ray)."""
        ms = [q // (q - p) for p, q in self.boundary_ratios]  # multiplicity(b)
        if all(m == 1 for m in ms):
            return self.lattice
        big, den = math.lcm(self.lattice.den, *ms), self.lattice.den
        rows = [[x * (big // den) for x in row] for row in self.lattice.num]
        rows += [[x * (big // m) for x in ray] for ray, m in zip(self.cone.rays, ms) if m > 1]
        basis = linalg.hnf(rows)[: self.dim]
        g = math.gcd(big, *(x for row in basis for x in row))
        return LatticeBasis(self.dim, tuple(tuple(x // g for x in row) for row in basis), big // g)


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
    coeffs = tuple(as_rational(b, "boundary coefficient") for b in boundary)
    if len(coeffs) != len(cone.rays):
        raise ValidationError(
            f"{len(coeffs)} boundary coefficients for {len(cone.rays)} rays"
        )
    germ = ToricGerm(cone, coeffs, lattice)
    for b, (p, q) in zip(coeffs, germ.boundary_ratios):
        if not (0 <= p < q):
            raise ValidationError(f"boundary coefficient {b} outside [0, 1)")
    for ray, c in zip(cone.rays, germ.coords):
        if c is None:
            raise ValidationError(f"ray {ray} is not a lattice point of N")
        if vec_gcd(c) != 1:
            raise ValidationError(f"ray {ray} is not primitive in the ambient lattice")
    return germ


def multiplicity(coeff) -> int:
    """Largest n with 1 - 1/n <= coeff = p/q in [0, 1), that is q // (q - p)."""
    c = as_rational(coeff, "coefficient")
    p, q = c.as_integer_ratio()
    if not (0 <= p < q):
        raise CoefficientOutOfRange(f"coefficient {c} outside [0, 1)")
    return q // (q - p)


class Rebased(NamedTuple):
    """A germ's cone in integer coordinates with respect to the basis of N,
    and its log discrepancy functional L as integer numerators over
    ``den``: L(c) = dot(l_num, c) / den for rebased coordinates c.
    """

    cone: Cone
    l_num: tuple[int, ...]
    den: int

    def ray_sum_value(self) -> int:
        """Numerator of L at the ray sum, an interior lattice point."""
        return sum(dot(self.l_num, ray) for ray in self.cone.rays)


# ---------------------------------------------------------------------------
# lattice point enumeration: the half-open simplicial cells of a pulling
# triangulation hold each interior lattice point once (Koeppe and
# Verdoolaege, Electron. J. Combin. 15, 2008), and the lattice points of a
# cell are its box points plus rays (Borisov, Manuscripta Math. 1997).


def _cells(cone: Cone) -> list[tuple[int, ...]]:
    """The cells of the pulling triangulation of a full-dimensional cone
    by its rays in order, as tuples of ray indices.  A face of dimension k
    with k rays is a cell; otherwise its first ray is coned over the cells
    of each facet that misses it, the facets being its intersections with
    the cone's facets that have rank k - 1."""
    rays = cone.rays
    if cones.has_opposite_facets(cone):
        return [tuple(range(len(rays)))]
    on_facet = [{i for i, r in enumerate(rays) if dot(h, r) == 0} for h in cone.facets]

    def triangulate(face: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
        if len(face) == k:
            return [face]
        subs = dict.fromkeys(tuple(i for i in face if i in s) for s in on_facet if face[0] not in s)
        return [
            (face[0], *cell)
            for sub in subs
            if linalg.rank([rays[i] for i in sub]) == k - 1
            for cell in triangulate(sub, k - 1)
        ]

    return triangulate(tuple(range(len(rays))), cone.n)


def _box_points(rb: Rebased):
    """The box points of each half-open cell, one per coset of its rays V,
    as (V, their L numerators, d, cols, values): the k-th is the point
    sum_i cols[i][k] V_i / d, of L numerator values[k].

    A point u belongs to the cell whose interior holds u - t*y for small
    t > 0, with y the ray sum perturbed lexicographically along the
    coordinates, so a cell facet with inward normal w is closed iff the
    first nonzero entry of (w . y, w_1, ..., w_n) is negative; the cone's
    own facets are open.  For d = |det V|, the cosets are the u with
    0 <= u_j < H_jj, H = hnf(V), and d times u's coordinates in V is
    u . (d V^-1) mod d, where a 0 becomes d if its facet is open: one list
    pass per H_jj > 1 builds a column, and one per column folds the values.
    """
    cone, l_num = rb.cone, rb.l_num
    y = tuple(map(sum, zip(*cone.rays)))
    for cell in _cells(cone):
        v = [cone.rays[i] for i in cell]
        ells = [dot(l_num, r) for r in v]
        d, w, h = _cell_dual(cone, v)  # w[i]: the inward normal of the facet opposite v[i]
        diag = [(j, hj) for j, hj in enumerate(h) if hj > 1]
        cols, values = [], [0] * d
        for wi, ell in zip(w, ells):
            col = [0]
            for j, hj in diag:
                steps = [t * wi[j] for t in range(hj)]
                col = [x + s for x in col for s in steps]
            closed = next(x for x in (dot(wi, y), *wi) if x) < 0
            col = [x % d for x in col] if closed else [x % d or d for x in col]
            values = [a + c * ell for a, c in zip(values, col)]
            cols.append(col)
        yield v, ells, d, cols, [a // d for a in values]


def _cell_dual(cone: Cone, v):
    """(d, w, h) for a cell v: d = |det v|, w[i] = d times the dual vector
    of v[i], and h the diagonal of hnf(v).  A cell of at most 4 rays reads
    all three off one set of cofactors; a larger one takes hnf(v), and the
    one cell of a simplicial cone then reads w[i] off facets[i], the facet
    opposite v[i]."""
    if small := linalg.cofactor_dual(v):
        return small
    h = [row[j] for j, row in enumerate(linalg.hnf(v))]
    if cones.has_opposite_facets(cone):
        d = math.prod(h)
        return d, [[d // dot(f, r) * x for x in f] for f, r in zip(cone.facets, v)], h
    return (*linalg.dual_basis(v), h)


def _lift(cols, steps, top: int):
    """The points p + sum_i j_i steps[i], j_i >= 0, of L numerator <= top,
    over points p of numerator <= top held column by column, numerators in
    cols[0]; a step is a ray's numerator, then its entries in the other
    columns.  One step at a time, so each point comes once.  A step above
    top - min(cols[0]) lifts nothing: it is skipped, and if all are, so is
    the copy of ``cols``."""
    room = top - min(cols[0], default=top)
    for step in steps:
        ell = step[0]
        if ell > room:
            continue
        reps = [(top - x) // ell + 1 for x in cols[0]]
        cols = [[a + j * s for a, m in zip(col, reps) for j in range(m)] for col, s in zip(cols, step)]
    return cols


def _window(germ: ToricGerm, cells, lo_num: int, hi_num: int) -> list[tuple[int, ...]]:
    """The sorted keys of the interior lattice points of L numerator in
    [lo_num, hi_num), from the ``_box_points`` cells: den_N times a point's
    ambient coordinates, den_N being N's denominator, then its numerator.
    Keys sort as the points do.  Each cell's box points below hi_num are
    lifted on integer columns of the key; a cell with none builds no
    column, and only the points kept become tuples."""
    lat = germ.lattice
    num_cols = None if lat.is_standard else linalg.transpose(lat.num)
    keys = []
    for v, ells, d, cols, values in cells:
        below = [k for k, x in enumerate(values) if x < hi_num]
        if not below:
            continue
        rays = v if num_cols is None else [linalg.mat_vec(num_cols, r) for r in v]
        # the box points below hi_num, d times den_N times their ambient coordinates
        coords = [[0] * len(below) for _ in range(germ.dim)]
        for col, ray in zip(cols, rays):
            picked = [col[k] for k in below]
            coords = [[a + c * r for a, c in zip(acc, picked)] if r else acc for acc, r in zip(coords, ray)]
        xs, *coords = _lift(
            [[values[k] for k in below], *([a // d for a in acc] for acc in coords)],
            [(ell, *ray) for ell, ray in zip(ells, rays)], hi_num - 1,
        )
        keep = [x >= lo_num for x in xs]
        keys += zip(*[compress(acc, keep) for acc in coords], compress(xs, keep))
    keys.sort()
    return keys


def _point(key: tuple[int, ...], den: int) -> Point:
    """The ambient point of a ``_window`` key, for den = den_N: ints where integral."""
    if den == 1:
        return key[:-1]
    return tuple(a // den if a % den == 0 else Fraction(a, den) for a in key[:-1])


# ---------------------------------------------------------------------------
# the invariants


class MldResult(NamedTuple):
    value: Fraction
    minimizers: tuple[Point, ...]
    search_bound: Fraction


class WindowCount(NamedTuple):
    low: Fraction
    high: Fraction
    points: tuple[tuple[Point, Fraction], ...]
    count: int


class FiniteAbelianGroup(NamedTuple):
    """Invariant factor presentation d1 | d2 | ... with all d > 1."""

    invariant_factors: tuple[int, ...]
    order: int
    free_rank: int


def mld(germ: ToricGerm, bound=None) -> MldResult:
    """Minimum of the log discrepancy functional over interior lattice
    points, with every minimizer.

    Every interior lattice point is a box point plus rays of positive L, so
    the minimum is the least box-point numerator m, and the minimizers are
    the window of numerators [m, m + 1) (``_window``), which no ray reaches.
    The ray sum is an interior lattice point, so L(ray sum), the default
    bound, certifies the minimum; BoundBelowMinimum is raised iff the
    minimum exceeds the bound.
    """
    rb = germ.rebased
    b = Fraction(rb.ray_sum_value(), rb.den) if bound is None else as_rational(bound, "bound")
    p, q = b.as_integer_ratio()
    cells = list(_box_points(rb))
    value = min(min(values) for *_, values in cells)
    if value > p * rb.den // q:  # floor(b * den)
        raise BoundBelowMinimum(
            f"no interior lattice point with L <= {b}; the bound is below the minimum"
        )
    den = germ.lattice.den
    minimizers = tuple(_point(key, den) for key in _window(germ, cells, value, value + 1))
    return MldResult(Fraction(value, rb.den), minimizers, b)


def count_window(germ: ToricGerm, low, high) -> WindowCount:
    """All interior lattice points with log discrepancy in [low, high),
    sorted (``window_keys``); only the returned points hold Fractions."""
    lo, hi = as_rational(low, "low"), as_rational(high, "high")
    keys, den = window_keys(germ, lo, hi), germ.lattice.den
    points = tuple((_point(key, den), Fraction(key[-1], germ.rebased.den)) for key in keys)
    return WindowCount(lo, hi, points, len(points))


def window_keys(germ: ToricGerm, low: Fraction, high: Fraction) -> list[tuple[int, ...]]:
    """``count_window`` in integers: the sorted ``_window`` keys of the
    interior lattice points with log discrepancy in [low, high), their L
    numerators over ``germ.rebased.den``."""
    (lp, lq), (hp, hq) = low.as_integer_ratio(), high.as_integer_ratio()
    if not (0 < lp and lp * hq <= hp * lq):
        raise InvalidWindow("window must satisfy 0 < low <= high")
    rb = germ.rebased
    # integer numerators v with low <= v / den < high
    lo_num, hi_num = -(-lp * rb.den // lq), -(-hp * rb.den // hq)
    return _window(germ, _box_points(rb), lo_num, hi_num)


def mld_window_counts(germ: ToricGerm, deltas: Sequence) -> tuple[Fraction, tuple[int, ...]]:
    """The mld and, for each delta, the number of interior lattice points
    with log discrepancy in [mld, mld + delta).

    Equal to ``mld(germ).value`` and ``count_window(germ, m, m + delta).count``
    for each delta.  In dimension 2 the points are counted, not listed
    (``_plane_counter``), and the mld numerator is the least k with a point
    of numerator <= k, found by bisection below L(ray sum).  Otherwise the
    mld is the least value over the box points, and one lift of them up to
    mld + max(deltas), values only (``_lift``), gives every count.
    """
    rb = germ.rebased
    if germ.dim == 2:
        count = _plane_counter(rb)
        m, hi = 1, rb.ray_sum_value()
        while m < hi:
            mid = (m + hi) // 2
            m, hi = (m, mid) if count(mid) else (mid + 1, hi)
    else:
        cells = list(_box_points(rb))
        m = min(min(values) for *_, values in cells)
    # the largest numerator inside [m, m + delta), m + ceil(delta * den) - 1
    tops = [m - (-p * rb.den // q) - 1 for p, q in (d.as_integer_ratio() for d in deltas)]
    if germ.dim != 2:
        top = max(tops, default=m - 1)
        lifts = [_lift([[x for x in xs if x <= top]], [(ell,) for ell in ells], top)[0] for _, ells, _, _, xs in cells]
        count = partial(bisect.bisect_right, sorted(x for xs in lifts for x in xs))
    return Fraction(m, rb.den), tuple(map(count, tops))


def _plane_counter(rb: Rebased):
    """For a 2-dimensional germ, count(k): the number of interior lattice
    points of L numerator <= k, in O(log) steps.

    For r1 = (p, q) and u p + v q = 1 (``xgcd``), the rows (q, -p), (u, v)
    send r1 to (0, 1) and r2 to (-det, y); a reflection of x when -det < 0
    and a shear y -> y + jx give (r, -a), r = |det| and a = -y mod r: the
    Hirzebruch-Jung normal form.  The interior points are then the (x, y)
    with x >= 1 and s = ry + ax >= 1, of numerator (s l1 + x l2) / r, for
    l_i = L(r_i).  At each x, y runs from ceil((1 - ax) / r) up to
    floor((kr - x(l2 + a l1)) / (r l1)), a run of length >= 0 iff
    x <= (kr - l1) / l2, so the count is two floor sums.
    """
    (p, q), (x2, y2) = rb.cone.rays
    l1, l2 = (dot(rb.l_num, ray) for ray in rb.cone.rays)
    _, u, v = linalg.xgcd(p, q)
    r = abs(q * x2 - p * y2)
    a = -(u * x2 + v * y2) % r
    c = l2 + a * l1

    def count(k: int) -> int:
        n = max(0, (k * r - l1) // l2)  # the columns x = 1, ..., n hold the points
        return n + linalg.floor_sum(n, r * l1, -c, k * r - c) + linalg.floor_sum(n, r, a, a - 1)

    return count


def log_discrepancy_at(germ: ToricGerm, u: Sequence) -> Fraction:
    """L(u) for an interior lattice point u, in ambient coordinates."""
    c = express_in_basis(germ.lattice, u)
    shown = ", ".join(str(Fraction(x)) for x in u)
    if c is None:
        raise NotInteriorPoint(f"({shown}) is not a point of the ambient lattice")
    rb = germ.rebased
    if cones.membership(rb.cone, c) is not Membership.RELATIVE_INTERIOR:
        raise NotInteriorPoint(f"({shown}) is not in the interior of the cone")
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


def pi1_order(germ: ToricGerm) -> int:
    """Order of the regional fundamental group, [O : <rays>] for the orbifold lattice O: the
    product of the rays' Hermite diagonal, |det rays| for n rays, over covol(O) =
    prod(diag O.num) / O.den^n, with no coordinates and no Smith form.  Rays that do not span
    raise NotFullDimensional."""
    n, o, rays = germ.dim, germ.orbifold, germ.cone.rays
    if len(rays) == n:
        index = abs(linalg.det(rays).numerator)
    else:
        diag = [row[i] for i, row in enumerate(linalg.hnf(rays)[:n])]
        index = math.prod(diag) if len(diag) == n else 0
    if not index:
        raise NotFullDimensional("the cone does not span the ambient space")
    return index * o.den**n // math.prod(o.num[i][i] for i in range(n))
