import itertools
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import toricmld as t
from toricmld import structure
from toricmld.errors import DependentVectors, InternalError, NotFullDimensional, NotInteriorPoint, NotQCartier
from toricmld.linalg import dot, rank
from toricmld.structure import (
    Decomposition,
    FullDimSubcone,
    Simplicial,
    SpanningPair,
    _first_subset,
    _tau_containing_ray,
    _validate_decomposition,
)

import subset_reference
import elim_reference as elim_ref
from lp_reference import in_cone, in_relint

F = Fraction

FOURRAY = t.make_cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
ORTHANT3 = t.make_cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_subcones_simplicial_empty():
    assert subset_reference.subcones_containing(ORTHANT3, (1, 1, 1)) == []


def test_subcones_examples():
    subs = subset_reference.subcones_containing(FOURRAY, (1, 1, 0))
    ray_sets = [set(c.rays) for c in subs]
    assert {(1, 0, 0), (0, 1, 0)} in ray_sets
    assert {(0, 0, 1), (1, 1, -1)} in ray_sets
    subs = subset_reference.subcones_containing(FOURRAY, (2, 1, 1))
    assert {(1, 0, 0), (0, 0, 1), (1, 1, -1)} in [set(c.rays) for c in subs]


def test_subcones_oracle_feasibility():
    # every reported subset keeps the point in its relative interior, and
    # no omitted subset does (checked by the LP oracle)
    import itertools

    for m in [(1, 1, 0), (2, 1, 1), (2, 2, 1)]:
        reported = {frozenset(c.rays) for c in subset_reference.subcones_containing(FOURRAY, m)}
        k = len(FOURRAY.rays)
        for size in range(1, k):
            for idx in itertools.combinations(range(k), size):
                rays = [FOURRAY.rays[i] for i in idx]
                expect = in_relint(rays, m)
                assert (frozenset(rays) in reported) == expect


def test_subcones_errors():
    with pytest.raises(NotInteriorPoint):
        subset_reference.subcones_containing(FOURRAY, (1, 0, 1))
    # points on a parabola are in convex position, so the cone over them
    # has one extremal ray per point; more than 16 rays get an answer
    rays = [(i, i * i, 1) for i in range(17)]
    cone17 = t.make_cone(3, rays)
    assert len(cone17.rays) == 17
    interior = tuple(sum(col) for col in zip(*cone17.rays))
    _revalidate(cone17, interior, t.trichotomy(cone17, interior))


def _revalidate(cone, m, res):
    if isinstance(res, Simplicial):
        assert t.is_simplicial(cone)
        return
    if isinstance(res, FullDimSubcone):
        tau = res.tau
        assert tau.dim == cone.n
        assert set(tau.rays) < set(cone.rays)
        assert in_relint(tau.rays, m)
        return
    assert isinstance(res, SpanningPair)
    for tau in (res.tau1, res.tau2):
        assert set(tau.rays) < set(cone.rays)
        assert in_relint(tau.rays, m)
    assert rank(res.tau1.rays + res.tau2.rays) == cone.n


def test_trichotomy_examples():
    res = t.trichotomy(ORTHANT3, (1, 1, 1))
    assert isinstance(res, Simplicial)
    res = t.trichotomy(FOURRAY, (1, 1, 0))
    assert isinstance(res, SpanningPair)
    _revalidate(FOURRAY, (1, 1, 0), res)
    res = t.trichotomy(FOURRAY, (2, 2, 1))
    assert isinstance(res, FullDimSubcone)
    assert set(res.tau.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    _revalidate(FOURRAY, (2, 2, 1), res)


def _eager_index_sets(c, m):
    """Reference: test every proper subset by the facets of its own cone,
    then sort the hits."""
    k = len(c.rays)
    hits = []
    for size in range(1, k):
        for idx in itertools.combinations(range(k), size):
            sub = t.make_cone(c.n, [c.rays[i] for i in idx])
            if t.membership(sub, m) is t.Membership.RELATIVE_INTERIOR:
                hits.append(idx)
    return sorted(hits)


def _eager_tau_containing_ray(c, m, rho):
    ratios = [F(dot(f, m), dot(f, rho)) for f in c.facets if dot(f, rho) > 0]
    lam = min(ratios)
    m2 = tuple(F(x) - lam * r for x, r in zip(m, rho))
    face_cone = t.minimal_face_containing(c, m2).as_cone()
    if t.is_simplicial(face_cone):
        chosen = face_cone.rays
    else:
        chosen = tuple(face_cone.rays[i] for i in _eager_index_sets(face_cone, m2)[0])
    return t.make_cone(c.n, (tuple(rho),) + chosen)


def _eager_trichotomy(c, m):
    """Reference: all hits first, then the first full-rank one, else the
    spanning-pair walk from the first one."""
    if t.is_simplicial(c):
        return Simplicial()
    hits = [[c.rays[i] for i in idx] for idx in _eager_index_sets(c, m)]
    full = [rays for rays in hits if rank(rays) == c.n]
    if full:
        return FullDimSubcone(t.make_cone(c.n, full[0]))
    tau1 = t.make_cone(c.n, hits[0])
    while True:
        rho = next(r for r in c.rays if rank(tau1.rays + (r,)) > rank(tau1.rays))
        tau2 = _eager_tau_containing_ray(c, m, rho)
        if rank(tau1.rays + tau2.rays) == c.n:
            return SpanningPair(tau1, tau2)
        tau1 = t.make_cone(c.n, tau1.rays + tau2.rays)


def test_lazy_subset_search_agrees_with_eager_reference():
    # random non-simplicial cones, probed at the ray sum and at the
    # interior sums of two rays (which often lie on an inner wall and need
    # a spanning pair): the reference walk yields the hits in sorted
    # order, and trichotomy and _tau_containing_ray, through the pruned
    # search, return the same cones as the eager reference
    from conftest import height_cone_germ

    cones = [height_cone_germ(3, s).cone for s in range(8)]
    cones += [height_cone_germ(4, s, spread=1).cone for s in range(3)]
    seen = set()
    for c in cones:
        points = [tuple(sum(col) for col in zip(*c.rays))]
        for r1, r2 in itertools.combinations(c.rays, 2):
            m = tuple(a + b for a, b in zip(r1, r2))
            if t.membership(c, m) is t.Membership.RELATIVE_INTERIOR:
                points.append(m)
        for m in points[:4]:
            assert list(subset_reference.subcone_index_sets(c, m)) == _eager_index_sets(c, m)
            got = t.trichotomy(c, m)
            assert got == _eager_trichotomy(c, m), (c, m)
            seen.add(type(got))
            for rho in c.rays:
                assert _tau_containing_ray(c, m, rho) == _eager_tau_containing_ray(c, m, rho)
    assert seen == {FullDimSubcone, SpanningPair}


@st.composite
def cones_with_points(draw):
    """A cone over distinct lattice points at height one, with at most 10
    rays: full-dimensional in Z^n, n = 2..6, or in its own span of
    dimension n - 1, with the extra coordinate a drawn combination of
    the others; and an interior point.  Half the point sets are
    centrally symmetric, probed at their centre, the ray sum, which lies
    on many inner walls; the others at the sum of two or three drawn
    rays when that is interior, else at the ray sum."""
    n = draw(st.integers(2, 6))
    d = draw(st.sampled_from((n, n - 1) if n > 2 else (n,)))
    spread = 2 if d <= 4 else 1
    coords = st.tuples(*[st.integers(-spread, spread)] * (d - 1))
    pts = draw(st.lists(coords, min_size=d + 2, max_size=10, unique=True))
    symmetric = draw(st.booleans())
    if symmetric:
        pts = list(dict.fromkeys(pts[:5] + [tuple(-x for x in p) for p in pts[:5]]))
    rays = [p + (1,) for p in pts]
    if d < n:
        at = draw(st.integers(0, d))
        a = draw(st.tuples(*[st.integers(-2, 2)] * d))
        rays = [r[:at] + (dot(a, r),) + r[at:] for r in rays]
    c = t.make_cone(n, rays)
    m = tuple(map(sum, zip(*c.rays)))
    picks = draw(st.sets(st.integers(0, len(c.rays) - 1), min_size=2, max_size=3))
    pair_sum = tuple(map(sum, zip(*[c.rays[i] for i in picks])))
    if not symmetric and structure.membership(c, pair_sum) is t.Membership.RELATIVE_INTERIOR:
        m = pair_sum
    return c, m


def test_first_subset_agrees_with_the_walk(monkeypatch):
    """The pruned search returns the exhaustive walk's first hit in both
    modes, None included, and trichotomy and _tau_containing_ray choose
    the same cones as with the walk, in dims 2-6 with up to 10 rays, on
    full-dimensional cones and cones in their own lower-dimensional span."""
    seen = set()

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(cones_with_points())
    def check(cm):
        c, m = cm
        got = [_first_subset(c, m, full) for full in (True, False)]
        assert got == [subset_reference.first_subset(c, m, full) for full in (True, False)], (c, m)
        tri = structure.trichotomy if c.dim == c.n else structure._trichotomy
        res = tri(c, m)
        taus = [_tau_containing_ray(c, m, rho) for rho in c.rays]
        with monkeypatch.context() as mp:
            mp.setattr(structure, "_first_subset", subset_reference.first_subset)
            assert res == tri(c, m), (c, m)
            assert taus == [_tau_containing_ray(c, m, rho) for rho in c.rays]
        seen.add("full-rank hit" if got[0] else "any-rank hit only" if got[1] else "no hit")
        seen.add(type(res).__name__)
        seen.add("lower-dimensional" if c.dim < c.n else "full-dimensional")

    check()
    assert seen >= {
        "full-rank hit", "any-rank hit only", "no hit", "SpanningPair",
        "lower-dimensional", "full-dimensional",
    }, seen


@st.composite
def cones_with_probes(draw):
    """A cone over 3 to 6 distinct lattice points at height one, in Z^n,
    n = 2..5, full-dimensional or in its own span of dimension n - 1,
    and a probe: the ray sum, a ray, the ray sum of a facet (a boundary
    point), a lattice point drawn from [-2, 2]^n, or, for half the cones
    of dimension 4 or 5, whose points then include the square (+-1, +-1,
    0, ...), the ray sum of the square, whose four rays have rank 3."""
    n = draw(st.integers(2, 5))
    d = draw(st.sampled_from((n, n - 1) if n > 2 else (n,)))
    coords = st.tuples(*[st.integers(-1, 1)] * (d - 1))
    pts = draw(st.lists(coords, min_size=min(d + 1, 3 ** (d - 1)), max_size=6, unique=True))
    square = [(a, b) + (0,) * (d - 3) for a in (-1, 1) for b in (-1, 1)] if d >= 4 and draw(st.booleans()) else []
    pts = square + [p for p in pts if p not in square][: 6 - len(square)]
    rays = [p + (1,) for p in pts]
    if d < n:
        at = draw(st.integers(0, d))
        a = draw(st.tuples(*[st.integers(-2, 2)] * d))
        rays = [r[:at] + (dot(a, r),) + r[at:] for r in rays]
    c = t.make_cone(n, rays)
    kind = draw(st.sampled_from(["ray sum", "ray", "boundary", "random"] + ["square"] * bool(square)))
    if kind == "square":
        m = tuple(map(sum, zip(*rays[:4])))
    elif kind == "ray sum":
        m = tuple(map(sum, zip(*c.rays)))
    elif kind == "ray":
        m = draw(st.sampled_from(c.rays))
    elif kind == "boundary":
        f = draw(st.sampled_from(c.facets))
        m = tuple(map(sum, zip(*[r for r in c.rays if dot(f, r) == 0])))
    else:
        m = draw(st.tuples(*[st.integers(-2, 2)] * n))
    return c, m


def test_subtree_test_agrees_with_its_definition(monkeypatch):
    """For every (p, u) that the search asks, in both modes, the subtree
    test answers its definition: some S with p <= S <= u has m in the
    relative interior of cone(S), decided by the LP, and rank S = c.dim
    when full.  Cones in dims 2-5, full-dimensional and lower-dimensional,
    probed at interior, boundary, ray and outside points."""
    seen = set()

    # no shrinking: a failing example is reported as it is, which keeps a
    # mutant's run short, as each example runs dozens of LPs
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              phases=(Phase.explicit, Phase.generate))
    @given(cones_with_probes())
    # the square's rays, of rank 3, are rays 0, 1, 4 and 5 in the search's
    # order, so the full-rank search asks u = (0, 1, 4, 5) around their sum
    @example((t.make_cone(4, [(a, b, 0, 1) for a in (-1, 1) for b in (-1, 1)] + [(0, -1, 1, 1), (0, 1, -1, 1)]),
              (0, 0, 0, 4)))
    def check(cm):
        c, m = cm
        asked = []
        real = structure._subtree_hits

        def recorded(c, m, full, p, u):
            asked.append((full, p, u))
            return real(c, m, full, p, u)

        with monkeypatch.context() as mp:
            mp.setattr(structure, "_subtree_hits", recorded)
            for full in (True, False):
                _first_subset(c, m, full)
        inside = in_cone(c.rays, m)  # cone(S) lies in cone(c)
        relint = {}

        def hit(s, full):
            rays = [c.rays[i] for i in s]
            if full and elim_ref.rank(rays) != c.dim:
                return False
            if s not in relint:  # relint cone(S) lies in span S
                relint[s] = inside and elim_ref.rank(rays + [m]) == elim_ref.rank(rays) and in_relint(rays, m)
            return relint[s]

        for full, p, u in asked:
            rest = [i for i in u if i not in p]
            expect = any(
                hit(tuple(sorted(p + extra)), full)
                for size in range(len(rest) + 1) for extra in itertools.combinations(rest, size)
            )
            assert real(c, m, full, p, u) == expect, (c, m, full, p, u)
            rays = [c.rays[i] for i in u]
            if full and len(u) >= c.dim > elim_ref.rank(rays) and hit(u, False):
                seen.add("m in relint cone(u) of rank below c.dim")
            if full and len(u) < c.dim:
                system = "refused"
            elif elim_ref.rank(rays + [m]) > elim_ref.rank(rays):
                system = "inconsistent"
            else:
                system = "independent" if elim_ref.rank(rays) == len(u) else "dependent"
            seen.update({("answer", full, expect), (system, full)})
        seen.add("lower-dimensional" if c.dim < c.n else "full-dimensional")

    check()
    wanted = {("answer", full, a) for full in (True, False) for a in (True, False)}
    wanted |= {(system, full) for full in (True, False) for system in ("independent", "dependent", "inconsistent")}
    wanted |= {"m in relint cone(u) of rank below c.dim", "lower-dimensional", "full-dimensional"}
    assert seen >= wanted, seen


def _cross_polytope(n):
    """The cone over the cross-polytope: rays +-e_i + e_n, i < n - 1,
    around m = e_n, which lies on every inner wall."""
    rays = [tuple(s * (j == i) + (j == n - 1) for j in range(n)) for i in range(n - 1) for s in (1, -1)]
    return t.make_cone(n, rays), tuple(int(j == n - 1) for j in range(n))


def test_cross_polytope_search_is_quadratic(monkeypatch):
    # the exhaustive walk tested up to 2^k subsets; the pruned search
    # tests at most k^2 in a whole trichotomy, spanning pair included
    tests = []
    real = structure._subtree_hits
    monkeypatch.setattr(structure, "_subtree_hits", lambda *a: tests.append(a) or real(*a))
    for n in range(5, 12):
        c, m = _cross_polytope(n)
        k = len(c.rays)
        tests.clear()
        res = t.trichotomy(c, m)
        assert isinstance(res, SpanningPair)
        _revalidate(c, m, res)
        assert 0 < len(tests) <= k * k, (n, len(tests))
    monkeypatch.undo()
    c, m = _cross_polytope(9)
    g = t.make_germ(c)
    start = time.perf_counter()
    d = t.decompose(g, m)
    assert time.perf_counter() - start < 1
    _check_decomposition(g, m, d)


def test_decompose_many_ray_parabola_cones():
    # points on a parabola are in convex position: one ray per point
    for k in (24, 40):
        g = t.make_germ(t.make_cone(3, [(i, i * i, 1) for i in range(k)]))
        assert len(g.cone.rays) == k
        m = tuple(map(sum, zip(*g.cone.rays)))
        _check_decomposition(g, m, t.decompose(g, m))


def test_trichotomy_errors():
    with pytest.raises(NotFullDimensional):
        t.trichotomy(t.make_cone(3, [(1, 0, 0), (0, 1, 0)]), (1, 1, 0))
    with pytest.raises(NotInteriorPoint):
        t.trichotomy(FOURRAY, (1, 0, 0))


def test_interior_point_errors_print_rationals():
    """The point in an interior-point error reads as p/q values, as the
    CLI's other outputs do, whether its coordinates are ints or Fractions."""
    point = (Fraction(1, 2), Fraction(0), 0)
    germ = t.make_germ(FOURRAY)
    for fn, arg in ((t.trichotomy, FOURRAY), (t.decompose, germ)):
        with pytest.raises(NotInteriorPoint, match=r"^\(1/2, 0, 0\) is not"):
            fn(arg, point)


def _check_decomposition(germ, m, d):
    n = germ.dim
    rays = germ.cone.rays
    assert d.k0 > 0
    assert rank(d.vectors) == n
    for v, row in zip(d.vectors, d.coefficients):
        assert all(isinstance(k, int) and k >= 0 for k in row)
        assert tuple(v) == tuple(
            sum(k * r[j] for k, r in zip(row, rays)) for j in range(n)
        )
    sums = tuple(sum(F(v[j]) for v in d.vectors) for j in range(n))
    assert sums == tuple(d.k0 * F(x) for x in m)
    assert d.total_weight == d.k0 + sum(sum(r) for r in d.coefficients)


def test_decompose_orthant():
    g = t.make_germ(t.make_cone(2, [(1, 0), (0, 1)]))
    d = t.decompose(g, (1, 1))
    assert d.k0 == 1
    assert set(d.vectors) == {(1, 0), (0, 1)}
    _check_decomposition(g, (1, 1), d)


def test_decompose_ex1():
    g = t.make_germ(t.make_cone(2, [(0, 1), (5, 1)]))
    d = t.decompose(g, (1, 1))
    _check_decomposition(g, (1, 1), d)
    assert d.k0 == 5


def test_decompose_fourray():
    g = t.make_germ(FOURRAY)
    d = t.decompose(g, (1, 1, 0))
    _check_decomposition(g, (1, 1, 0), d)
    assert d.k0 == 2


def test_decompose_simplicial_uniqueness():
    # the simplicial case must clear the denominators of the unique solution
    g = t.make_germ(t.make_cone(2, [(0, 1), (5, 1)]))
    d = t.decompose(g, (2, 3))
    # (2,3) = (13/5)(0,1) + (2/5)(5,1): k0 = 5
    assert d.k0 == 5
    assert set(d.vectors) == {(0, 13), (10, 2)}
    _check_decomposition(g, (2, 3), d)


def test_decompose_accepts_any_interior_point():
    g = t.make_germ(FOURRAY)
    for m in [(1, 1, 1), (2, 2, 1), (3, 2, 0), (1, 1, -1 + 3)]:
        if t.membership(FOURRAY, m) is not t.Membership.RELATIVE_INTERIOR:
            continue
        _check_decomposition(g, m, t.decompose(g, m))


def test_decompose_extended_lattice():
    g = t.family("ex4", 3)
    m = (F(1, 3), F(1, 3), F(1, 3))
    d = t.decompose(g, m)
    _check_decomposition(g, m, d)
    rep = t.blowup_report(g, d)
    assert rep.coarse_order >= t.pi1_reg(g).order == 3
    assert all(k > 0 for k in rep.k_values)


def test_blowup_report_examples():
    g = t.make_germ(t.make_cone(2, [(1, 0), (0, 1)]))
    d = t.decompose(g, (1, 1))
    rep = t.blowup_report(g, d)
    assert rep.sigma0.rays == ((0, 1), (1, 0))
    assert rep.k_values == (1, 1)
    assert rep.group_order == 1 and rep.coarse_order == 1
    assert rep.pi1_order == 1

    g = t.make_germ(t.make_cone(2, [(0, 1), (5, 1)]))
    d = t.decompose(g, (1, 1))
    rep = t.blowup_report(g, d)
    assert rep.coarse_order >= rep.pi1_order == t.pi1_reg(g).order == 5

    g = t.make_germ(FOURRAY)
    d = t.decompose(g, (1, 1, 0))
    rep = t.blowup_report(g, d)
    # this cone's rays already generate Z^3, so the group is trivial;
    # the decomposition quotient is strictly coarser
    assert t.pi1_reg(g).order == 1
    assert rep.coarse_order >= 1
    # with a boundary that is not Q-Cartier there is no L to read
    boundary = [F(1, 2) if r == (1, 0, 0) else F(0) for r in FOURRAY.rays]
    with pytest.raises(NotQCartier):
        t.blowup_report(t.make_germ(FOURRAY, boundary), d)


def test_blowup_report_rejects_dependent_vectors():
    g = t.make_germ(FOURRAY)
    d = t.decompose(g, (1, 1, 0))
    dependent = Decomposition(d.k0, (d.vectors[0],) * 3, (d.coefficients[0],) * 3, 0)
    with pytest.raises(DependentVectors):
        t.blowup_report(g, dependent)


def test_blowup_sigma0_inside_cone():
    g = t.make_germ(FOURRAY)
    d = t.decompose(g, (2, 2, 1))
    rep = t.blowup_report(g, d)
    for r in rep.sigma0.rays:
        assert t.membership(FOURRAY, r) is not t.Membership.OUTSIDE


def test_decompose_100_random_cones_at_minimizers():
    # weights stay finite on a hundred random full-dimensional cones with
    # m a minimizer of the log discrepancy; the maxima per dimension are
    # recorded, never asserted against a closed form
    import random

    from conftest import height_cone_germ, sampled_germs

    germs = []
    germs += sampled_germs(2, 5, 4, 40, seed0=70_000)
    germs += sampled_germs(3, 5, 2, 35, seed0=80_000)
    germs += sampled_germs(4, 5, 2, 15, seed0=85_000)
    germs += [height_cone_germ(3, s) for s in range(6)]
    germs += [height_cone_germ(4, s, spread=1) for s in range(4)]
    assert len(germs) == 100
    max_weight = {}
    for g in germs:
        m = t.mld(g).minimizers[0]
        d = t.decompose(g, m)
        _check_decomposition(g, m, d)
        rep = t.blowup_report(g, d)
        assert rep.coarse_order >= t.pi1_reg(g).order
        # each k-value, read off the coefficients, is L at the vector's
        # primitive generator in the orbifold lattice
        rb = g.rebased
        for v, k in zip(d.vectors, rep.k_values):
            g_v = math.gcd(*t.express_in_basis(g.orbifold, v))
            assert k == F(dot(rb.l_num, t.express_in_basis(g.lattice, v)), rb.den * g_v)
        max_weight[g.dim] = max(max_weight.get(g.dim, 0), d.total_weight)
    print(f"max decomposition weight by dimension: {max_weight}")


def test_validate_decomposition_rejects_corrupted():
    # each check is a real raise, so it also holds under python -O
    g = t.make_germ(FOURRAY)
    m = (1, 1, 0)
    d = t.decompose(g, m)
    _validate_decomposition(g, m, d)
    rows = [list(row) for row in d.coefficients]
    j = rows[0].index(0)
    rows[0][j] = -1
    signed = tuple(a - b for a, b in zip(d.vectors[0], FOURRAY.rays[j]))
    corrupted = {
        "not independent": Decomposition(d.k0, (d.vectors[0],) * 3, (d.coefficients[0],) * 3, 0),
        "negative": Decomposition(d.k0, (signed,) + d.vectors[1:], tuple(map(tuple, rows)), 0),
        "not its ray combination": Decomposition(d.k0, d.vectors, d.coefficients[::-1], 0),
        "do not sum": Decomposition(d.k0 + 1, d.vectors, d.coefficients, 0),
    }
    for message, bad in corrupted.items():
        with pytest.raises(InternalError, match=message):
            _validate_decomposition(g, m, bad)


def test_decompose_agrees_with_the_vectors_and_grids_reference(monkeypatch):
    # the row-based decompose gives the same k0, vectors, coefficients and
    # total weight as the earlier vectors-and-grids construction, at the
    # ray sum and at the first mld minimizer of each germ; the corpus
    # covers a half of a spanning pair recursed into, a full-dimensional
    # sub-cone step, an extended lattice and a boundary
    import decompose_reference
    from conftest import height_cone_germ, sampled_germs

    from toricmld import structure

    germs = []
    germs += sampled_germs(2, 5, 4, 20, seed0=60_000)
    germs += sampled_germs(3, 6, 3, 40, seed0=61_000)
    germs += sampled_germs(4, 6, 2, 15, seed0=62_000)
    germs += [height_cone_germ(3, s) for s in range(12)]
    germs += [height_cone_germ(4, s, spread=1) for s in range(6)]
    for s in range(8):
        cone = height_cone_germ(3, s).cone
        for extra in ((F(1, 2), F(1, 2), 0), (F(1, 3), F(2, 3), 0)):
            germs.append(t.make_germ(cone, None, t.lattice_from_generators(3, [extra])))
    germs += [t.family("ex4", n) for n in range(2, 6)] + [t.family("ex3", r) for r in range(2, 6)]

    steps = []
    real_rec, real_tri = structure._decompose_rec, structure._trichotomy

    def rec(cone, m, top):
        steps.append(("rec", cone.dim))
        return real_rec(cone, m, top)

    def tri(cone, m):
        res = real_tri(cone, m)
        steps.append((type(res).__name__, cone.dim))
        return res

    monkeypatch.setattr(structure, "_decompose_rec", rec)
    monkeypatch.setattr(structure, "_trichotomy", tri)
    cases = set()
    pairs = 0
    for g in germs:
        ray_sum = tuple(sum(col) for col in zip(*g.cone.rays))
        for m in dict.fromkeys([ray_sum, t.mld(g).minimizers[0]]):
            steps.clear()
            got = t.decompose(g, m)
            assert got == decompose_reference.decompose(g, m), (g, m)
            pairs += 1
            # only a spanning pair's half is recursed into in a lower dimension
            if any(kind == "rec" and n < g.dim for kind, n in steps):
                cases.add("spanning half")
            if any(kind == "FullDimSubcone" for kind, _ in steps):
                cases.add("full-dimensional sub-cone")
            if not g.lattice.is_standard:
                cases.add("extended lattice")
            if any(g.boundary):
                cases.add("boundary")
    assert pairs >= 200
    assert cases == {"spanning half", "full-dimensional sub-cone", "extended lattice", "boundary"}


def test_decompose_matches_the_rank_loop_reference(monkeypatch):
    """Rows over the top cone's rays, merged by one elimination that adds
    the unused rows to row 0, equal the rank loop that maps each level's
    rows into its own columns, on the cross-polytope cones of dims 3-8,
    parabola cones and drawn germs.  The cross-polytope of dim n makes
    n - 2 merges with unused rows.  In each, the sum w of the unused
    vectors has a positive coordinate on the first kept vector: w is
    k0b / k0a times the sum of tau1's vectors less the kept vectors of
    tau2, so it is row 0 that adding w keeps independent."""
    import decompose_reference
    from conftest import germs

    from toricmld import linalg

    replaced = []
    real_rows = linalg.independent_rows

    def independent_rows(vectors):
        keep = real_rows(vectors)
        unused = [v for i, v in enumerate(vectors) if i not in keep]
        if sys._getframe(1).f_code.co_name == "_decompose_rec" and unused:
            w = [sum(col) for col in zip(*unused)]
            x = elim_ref.solve_rational(list(zip(*[vectors[i] for i in keep])), w)
            assert x[0] > 0 and all(c in (x[0], -1) for c in x), x
            replaced.append(next(i for i, c in enumerate(x) if c != -1))
        return keep

    monkeypatch.setattr(linalg, "independent_rows", independent_rows)

    def check(g, m):
        d = t.decompose(g, m)
        rb = g.rebased
        k0, rows = decompose_reference.rows_by_rank(rb.cone, t.express_in_basis(g.lattice, m))
        assert (d.k0, d.coefficients) == (k0, tuple(map(tuple, rows))), (g, m)

    for n in range(3, 9):
        c, m = _cross_polytope(n)
        replaced.clear()
        check(t.make_germ(c), m)
        assert len(replaced) == n - 2, (n, replaced)
    for k in (5, 9, 17, 24):
        g = t.make_germ(t.make_cone(3, [(i, i * i, 1) for i in range(k)]))
        check(g, tuple(map(sum, zip(*g.cone.rays))))
    drawn = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(germs(min_dim=2), st.data())
    def drawn_germs(g, data):
        coeffs = [data.draw(st.integers(1, 3)) for _ in g.cone.rays]
        check(g, tuple(sum(a * r[j] for a, r in zip(coeffs, g.cone.rays)) for j in range(g.dim)))
        drawn.append(len(g.cone.rays) > g.dim)

    drawn_germs()
    assert sum(drawn) >= 30, drawn
    assert replaced and set(replaced) == {0}


def test_echelon_coordinates_keep_the_ray_order():
    # coordinates in an echelon basis with positive pivots keep the
    # lexicographic order, so a germ's cone rebased to N, and a spanning
    # pair's half rebased to the Hermite basis of the lattice its rays
    # generate, list their rays in the order of the rays they come from;
    # only the N part is load-bearing: decompose relies on it, and it
    # recurses into the halves in ambient coordinates
    import random

    from conftest import height_cone_germ, random_unimodular, transform_germ

    from toricmld.linalg import echelon_coords, hnf

    rng = random.Random(24)
    germs = [height_cone_germ(3, s) for s in range(8)] + [height_cone_germ(4, s, spread=1) for s in range(4)]
    germs += [t.make_germ(g.cone, None, t.lattice_from_generators(3, [(F(1, 2), F(1, 2), 0)])) for g in germs[:8]]
    germs += [t.family("ex4", n) for n in range(2, 6)]
    germs += [transform_germ(g, random_unimodular(g.dim, rng)) for g in list(germs) for _ in range(3)]
    halves = 0
    for g in germs:
        rb = g.rebased
        assert tuple(g.lattice.to_ambient(r) for r in rb.cone.rays) == g.cone.rays
        points = [tuple(map(sum, zip(*rb.cone.rays)))]
        points += [tuple(map(sum, zip(r1, r2))) for r1, r2 in itertools.combinations(rb.cone.rays, 2)]
        for m in points:
            if t.membership(rb.cone, m) is not t.Membership.RELATIVE_INTERIOR:
                continue
            res = t.trichotomy(rb.cone, m)
            for tau in (res.tau1, res.tau2) if isinstance(res, SpanningPair) else ():
                basis = hnf(tau.rays)[: tau.dim]
                coords = tuple(echelon_coords(basis, r) for r in tau.rays)
                assert t.make_cone(tau.dim, coords).rays == coords
                halves += 1
    assert halves >= 50
