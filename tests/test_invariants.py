import random
from fractions import Fraction

import pytest

import toricmld as t
from toricmld.errors import (
    BoundBelowMinimum,
    CoefficientOutOfRange,
    InternalError,
    InvalidWindow,
    NotFullDimensional,
    NotInteriorPoint,
    NotQCartier,
    ToricError,
    ValidationError,
)
from fm_reference import _enumerate_polytope_points

F = Fraction

FOURRAY = t.make_cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])


def germ2(n):
    return t.make_germ(t.make_cone(2, [(0, 1), (n, 1)]))


def test_multiplicity_examples():
    assert t.multiplicity(0) == 1
    assert t.multiplicity(F(1, 2)) == 2
    assert t.multiplicity(F(3, 5)) == 2
    assert t.multiplicity(F(2, 3)) == 3
    assert t.multiplicity(F(3, 4)) == 4
    with pytest.raises(CoefficientOutOfRange):
        t.multiplicity(1)
    with pytest.raises(CoefficientOutOfRange):
        t.multiplicity(F(-1, 2))


def test_germ_validation():
    cone = t.make_cone(2, [(0, 1), (5, 1)])
    with pytest.raises(ValidationError):
        t.make_germ(cone, [F(1, 2)])  # wrong count
    with pytest.raises(ValidationError):
        t.make_germ(cone, [F(1, 2), F(1, 1)])  # coefficient 1 rejected
    # a ray that is non-primitive in an extended lattice is rejected
    half = t.lattice_from_generators(2, [(F(1, 2), F(1, 2))])
    with pytest.raises(ValidationError):
        t.make_germ(t.make_cone(2, [(1, 1), (1, 0)]), None, half)


def test_orbifold_lattice_examples():
    g = germ2(5)
    assert g.orbifold == g.lattice  # empty boundary: N itself
    cone = t.make_cone(2, [(1, 0), (1, 2)])
    g = t.make_germ(cone, [F(1, 2), F(1, 2)])
    ob = g.orbifold
    assert ob.rows == ((F(1, 2), 0), (0, 1))
    g4 = t.family("ex4", 3)
    assert g4.orbifold == g4.lattice


def test_log_disc_functional_examples():
    rb = germ2(7).rebased
    assert (rb.l_num, rb.den) == ((0, 1), 1)
    rb = t.make_germ(FOURRAY).rebased
    assert (rb.l_num, rb.den) == ((1, 1, 1), 1)
    boundary = [F(1, 2) if r == (1, 0, 0) else F(0) for r in FOURRAY.rays]
    with pytest.raises(NotQCartier):
        t.make_germ(FOURRAY, boundary).rebased
    # in N coordinates: ex4's N has basis rows (1/3, 1/3, 1/3), e2, e3
    rb = t.family("ex4", 3).rebased
    assert (rb.l_num, rb.den) == ((1, 1, 1), 1)


def test_mld_examples():
    r = t.mld(germ2(5))
    assert r.value == 1
    assert r.minimizers == ((1, 1), (2, 1), (3, 1), (4, 1))
    r = t.mld(t.make_germ(t.make_cone(2, [(1, 0), (0, 1)])))
    assert r.value == 2 and r.minimizers == ((1, 1),)
    r = t.mld(t.family("ex3", 4))
    assert r.value == F(5, 4) and r.minimizers == ((1, 1, 3),)


def test_mld_custom_bound():
    g = germ2(5)
    r = t.mld(g, bound=1)
    assert r.value == 1 and len(r.minimizers) == 4
    with pytest.raises(ValueError):
        t.mld(g, bound=F(1, 2))


def test_bound_below_minimum_is_a_domain_error():
    with pytest.raises(BoundBelowMinimum):
        t.mld(germ2(5), bound=F(1, 2))


def test_unbounded_search_region_is_an_internal_error():
    # x >= 0, y >= 0 alone leave the region unbounded
    with pytest.raises(InternalError, match="unbounded"):
        _enumerate_polytope_points(2, [((1, 0), 0), ((0, 1), 0)])


def test_mld_pair_with_boundary():
    # (A^2, coeff * axis divisor): blowing up the origin gives 2 - coeff
    cone = t.make_cone(2, [(1, 0), (0, 1)])
    for coeff in (F(1, 2), F(2, 3), F(3, 4)):
        boundary = [coeff if r == (1, 0) else F(0) for r in cone.rays]
        assert t.mld(t.make_germ(cone, boundary)).value == 2 - coeff


def test_count_window_examples():
    wc = t.count_window(germ2(5), 1, F(3, 2))
    assert wc.count == 4
    assert [p for p, _ in wc.points] == [(1, 1), (2, 1), (3, 1), (4, 1)]
    wc = t.count_window(t.family("ex3", 6), F(7, 6), 2)
    assert wc.count == 5
    assert [p for p, _ in wc.points] == [(1, 1, i) for i in range(1, 6)]
    assert [v for _, v in wc.points] == [2 - F(i, 6) for i in range(1, 6)]
    # no divisor has log discrepancy strictly between 1 and 2 on ex4
    wc = t.count_window(t.family("ex4", 3), 1, 2)
    assert all(v == 1 for _, v in wc.points)


def test_count_window_validation():
    with pytest.raises(ValueError):
        t.count_window(germ2(3), 0, 1)
    with pytest.raises(ValueError):
        t.count_window(germ2(3), 2, 1)
    for low, high in ((0, 1), (2, 1), (-1, 1)):
        with pytest.raises(ToricError, match=r"^window must satisfy 0 < low <= high$"):
            t.count_window(germ2(3), low, high)


def test_invalid_window_is_a_toric_error_and_a_value_error():
    assert issubclass(InvalidWindow, ToricError) and issubclass(InvalidWindow, ValueError)
    with pytest.raises(InvalidWindow):
        t.count_window(germ2(3), F(1, 2), F(1, 3))


def test_pi1_examples():
    assert t.pi1_reg(germ2(5)).invariant_factors == (5,)
    g = t.make_germ(t.make_cone(2, [(-1, 3), (1, 3)]))
    assert t.pi1_reg(g).invariant_factors == (6,)
    cone = t.make_cone(2, [(1, 0), (1, 2)])
    g = t.make_germ(cone, [F(1, 2), F(1, 2)])
    pi = t.pi1_reg(g)
    assert pi.invariant_factors == (2, 2)
    assert pi.order == 4
    assert pi.free_rank == 0


def test_pi1_families_match_ray_determinant():
    # simplicial, empty boundary: order = |det| of the rays expressed in
    # a basis of the ambient lattice
    from toricmld.linalg import det, express_in_basis

    for name, params in [("ex1", range(2, 8)), ("ex2", range(2, 8)),
                         ("ex3", range(2, 8)), ("ex4", range(2, 7))]:
        for p in params:
            g = t.family(name, p)
            rows = [express_in_basis(g.lattice, r) for r in g.cone.rays]
            assert t.pi1_reg(g).order == abs(int(det(rows)))


def test_pi1_simplicial_determinant():
    # with empty boundary the order equals |det| of the ray matrix
    from toricmld.linalg import det

    rng = random.Random(11)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 4)
        rays = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)]
        try:
            cone = t.make_cone(n, rays)
        except t.ToricError:
            continue
        if not t.is_simplicial(cone) or cone.dim < n:
            continue
        g = t.make_germ(cone)
        assert t.pi1_reg(g).order == abs(int(det(cone.rays)))
        checked += 1


def test_log_discrepancy_at_examples():
    g = t.make_germ(t.make_cone(2, [(1, 0), (0, 1)]))
    assert t.log_discrepancy_at(g, (1, 1)) == 2
    g3 = t.family("ex3", 4)
    assert t.log_discrepancy_at(g3, (1, 1, 1)) == F(7, 4)
    g4 = t.family("ex4", 3)
    assert t.log_discrepancy_at(g4, (F(1, 3), F(1, 3), F(1, 3))) == 1
    with pytest.raises(NotInteriorPoint):
        t.log_discrepancy_at(g4, (F(1, 2), F(1, 3), F(1, 3)))
    with pytest.raises(NotInteriorPoint):
        t.log_discrepancy_at(g, (1, 0))


def test_log_discrepancy_at_errors_print_rational_points():
    g = t.make_germ(t.make_cone(2, [(1, 0), (0, 1)]))
    with pytest.raises(NotInteriorPoint) as exc:
        t.log_discrepancy_at(g, (F(1, 2), F(1)))
    assert str(exc.value) == "(1/2, 1) is not a point of the ambient lattice"
    with pytest.raises(NotInteriorPoint) as exc:
        t.log_discrepancy_at(g, (F(-1), 2))
    assert str(exc.value) == "(-1, 2) is not in the interior of the cone"


def test_mld_in_range_and_minimality():
    # mld of the smooth orthant is the dimension; every enumerated interior
    # point bounds the minimum from above
    for n in (2, 3, 4):
        orthant = t.make_cone(n, [tuple(int(i == j) for j in range(n)) for i in range(n)])
        g = t.make_germ(orthant)
        r = t.mld(g)
        assert r.value == n
    g = germ2(9)
    r = t.mld(g)
    wc = t.count_window(g, r.value, r.value + 2)
    assert all(v >= r.value for _, v in wc.points)


def test_boundary_monotonicity():
    rng = random.Random(23)
    coeffs = [F(0), F(1, 2), F(2, 3), F(3, 4)]
    done = 0
    while done < 20:
        n = rng.randint(2, 3)
        rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        try:
            cone = t.make_cone(n, rays)
        except t.ToricError:
            continue
        if not t.is_simplicial(cone) or cone.dim < n:
            continue
        lo = [rng.choice(coeffs) for _ in cone.rays]
        hi = [rng.choice([c for c in coeffs if c >= b]) for b in lo]
        m_lo = t.mld(t.make_germ(cone, lo)).value
        m_hi = t.mld(t.make_germ(cone, hi)).value
        assert m_hi <= m_lo
        done += 1


def test_ex1_family_all_n():
    for n in range(2, 13):
        g = germ2(n)
        r = t.mld(g)
        pi = t.pi1_reg(g)
        assert (r.value, pi.order, len(r.minimizers)) == (1, n, n - 1)


def test_extended_lattice_rebasing_roundtrip():
    g4 = t.family("ex4", 4)
    r = t.mld(g4)
    assert r.value == 1
    assert r.minimizers == ((F(1, 4), F(1, 4), F(1, 4), F(1, 4)),)
    # reported minimizer is a lattice point and interior
    assert t.log_discrepancy_at(g4, r.minimizers[0]) == 1


def test_derived_data_lives_on_the_germ_and_is_freed_with_it():
    """The rebased record and the orbifold lattice are built once and do
    not refer back to the germ, so the germ is freed by reference counting
    alone, without the cyclic collector."""
    import gc
    import weakref

    cone = t.make_cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    lattice = t.lattice_from_generators(3, [(F(1, 2), F(1, 2), F(0))])
    germ = t.make_germ(cone, None, lattice)
    gc.disable()
    try:
        m = t.mld(germ).minimizers[0]
        assert t.pi1_reg(germ).order == 2
        t.decompose(germ, m)
        assert germ.rebased is germ.rebased and germ.orbifold is germ.orbifold
        ref = weakref.ref(germ)
        del germ
        assert ref() is None
    finally:
        gc.enable()


def test_derived_data_keeps_the_error_types():
    germ = t.make_germ(FOURRAY, [F(1, 2), F(0), F(0), F(0)])
    for _ in range(2):  # a failed build is not kept
        with pytest.raises(NotQCartier):
            t.mld(germ)
        with pytest.raises(NotQCartier):
            t.decompose(germ, (1, 1, 1))
    flat = t.make_germ(t.make_cone(3, [(1, 0, 0), (0, 1, 0)]))
    with pytest.raises(NotFullDimensional):
        t.mld(flat)
    assert t.pi1_reg(flat).free_rank == 1


def test_invariants_are_gl_n_z_equivariant_on_drawn_germs():
    """A unimodular transform of the rays and of lattice_extra leaves the
    mld, the window count over [mld, mld + 1/2), ``mld_window_counts``,
    π₁'s invariant factors and its order unchanged, and ``decompose`` at
    the image's ray sum passes ``_validate_decomposition``; boundaries,
    extended lattices, cones with at least n + 2 rays and transforms of
    determinant -1 (in dimension 2 too, which flips the counting path's
    orientation) all occur.  k0 is not compared: the transform reorders
    the rays."""
    from collections import Counter

    from hypothesis import given, settings
    from hypothesis import strategies as st

    from conftest import germs, random_unimodular, transform_germ
    from toricmld.invariants import mld_window_counts
    from toricmld.linalg import det
    from toricmld.structure import _validate_decomposition

    seen = Counter()
    deltas = (F(1, 4), F(1, 2), F(3, 4))

    def invariants(germ):
        m = t.mld(germ).value
        group = t.pi1_reg(germ)
        return (m, t.count_window(germ, m, m + F(1, 2)).count, mld_window_counts(germ, deltas),
                group.invariant_factors, t.pi1_order(germ))

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(germs(min_dim=2), st.integers(0, 2**32))
    def check(germ, seed):
        mat = random_unimodular(germ.dim, random.Random(seed))
        image = transform_germ(germ, mat)
        assert invariants(image) == invariants(germ)
        m = tuple(map(sum, zip(*image.cone.rays)))
        _validate_decomposition(image, m, t.decompose(image, m))
        seen["boundary"] += any(germ.boundary)
        seen["extended lattice"] += not germ.lattice.is_standard
        seen["n + 2 rays"] += len(germ.cone.rays) >= germ.dim + 2
        flipped = det(mat) == -1
        seen["det -1"] += flipped
        seen["dim 2, det -1"] += flipped and germ.dim == 2

    check()
    assert len(seen) == 5 and min(seen.values()) >= 10, seen


def test_the_mld_is_at_most_the_dimension_with_equality_iff_smooth_and_no_boundary():
    """mld <= n for a toric germ, with equality iff the germ is smooth, its
    rays a basis of N, and B = 0 (Ambro, Math. Res. Lett. 6, 1999), on
    drawn germs of dimension 2-4 and on the orthants."""
    from collections import Counter

    from hypothesis import assume, given, settings

    from conftest import germs
    from toricmld.linalg import det

    seen = Counter()

    def check_one(germ):
        n = germ.dim
        smooth = len(germ.cone.rays) == n and abs(det(germ.coords)) == 1
        value = t.mld(germ).value
        assert value <= n
        assert (value == n) == (smooth and not any(germ.boundary))
        seen[("smooth" if smooth else "singular", "B = 0" if not any(germ.boundary) else "B > 0")] += 1

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(germs(min_dim=2))
    def check(germ):
        assume(germ.dim <= 4)
        check_one(germ)

    check()
    for n in (2, 3, 4):
        check_one(t.make_germ(t.make_cone(n, [tuple(int(i == j) for j in range(n)) for i in range(n)])))
        check_one(t.family("ex4", n))
    assert len(seen) == 4 and min(seen.values()) >= 3, seen
