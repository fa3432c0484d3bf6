import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toricmld as t
from toricmld import cones
from toricmld.errors import EmptyInput, NotInCone, NotStronglyConvex, ValidationError, ZeroVector
from toricmld.linalg import dot, identity, primitive, rank

import elim_reference as elim_ref
import nf_reference as nf_ref
from elim_reference import extremal_by_rank
from lp_reference import extremal_generators, in_cone
from lp_reference import in_relint as lp_in_relint

ORTHANT2 = t.make_cone(2, [(1, 0), (0, 1)])
FOURRAY = t.make_cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])


def test_make_cone_examples():
    c = t.make_cone(2, [(0, 1), (5, 1)])
    assert c.rays == ((0, 1), (5, 1))
    with pytest.raises(NotStronglyConvex):
        t.make_cone(2, [(1, 0), (-1, 0)])
    c = t.make_cone(2, [(2, 0), (0, 1), (1, 1)])
    assert c.rays == ((0, 1), (1, 0))


def test_make_cone_empty():
    with pytest.raises(EmptyInput):
        t.make_cone(2, [])


def test_make_cone_rejects_generators_of_the_wrong_length():
    # checked first, so a ragged or all-zero generator is not a ZeroVector
    cases = [(3, [(1, 0), (0, 1)]), (2, [(1, 0), (0, 1), (1, 1, 1)]), (2, [(1, 0, 0), (0, 1, 0)]), (2, [(0, 0, 0)])]
    for n, gens in cases:
        with pytest.raises(ValidationError):
            t.make_cone(n, gens)


def test_simplicial_cones_run_no_double_description(monkeypatch):
    calls = []
    real = cones._double_description

    def spy(ineqs, start):
        calls.append(len(ineqs))
        return real(ineqs, start)

    monkeypatch.setattr(cones, "_double_description", spy)
    # n independent generators, scaled duplicates, a lower-dimensional simplicial cone
    for n, gens in [(1, [(2,)]), (3, [(1, 0, 0), (0, 1, 0), (1, 1, 5)]), (2, [(1, 2), (2, 4), (1, 0)]),
                    (3, [(1, 0, 0), (0, 1, 0)])]:
        t.make_cone(n, gens)
    assert calls == []
    t.make_cone(3, FOURRAY.rays)
    t.make_cone(2, [(1, 0), (0, 1), (1, 1)])
    assert calls == [4, 3]


def test_make_cone_idempotent():
    for cone in (ORTHANT2, FOURRAY, t.make_cone(2, [(-1, 3), (1, 3)])):
        again = t.make_cone(cone.n, cone.rays)
        assert again.rays == cone.rays
        assert again.facets == cone.facets


def test_dual_cone_examples():
    assert t.dual_cone(ORTHANT2).rays == ORTHANT2.rays  # self-dual
    d = t.dual_cone(FOURRAY)
    assert d.rays == ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))
    assert d.facets == FOURRAY.rays  # facets of the dual are the rays
    d2 = t.dual_cone(t.make_cone(2, [(0, 1), (5, 1)]))
    assert d2.rays == ((-1, 5), (1, 0))


def test_dual_involution_small():
    for cone in (ORTHANT2, FOURRAY, t.make_cone(2, [(0, 1), (5, 1)]),
                 t.make_cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])):
        assert t.dual_cone(t.dual_cone(cone)).rays == cone.rays


def test_membership_examples():
    assert t.membership(ORTHANT2, (1, 1)) is t.Membership.RELATIVE_INTERIOR
    assert t.membership(FOURRAY, (1, 1, 0)) is t.Membership.RELATIVE_INTERIOR
    assert t.membership(FOURRAY, (1, 0, 1)) is t.Membership.BOUNDARY
    assert t.membership(ORTHANT2, (-1, 0)) is t.Membership.OUTSIDE


def test_membership_lower_dimensional():
    c = t.make_cone(3, [(1, 0, 0), (0, 1, 0)])
    assert c.dim == 2
    assert t.membership(c, (1, 1, 0)) is t.Membership.RELATIVE_INTERIOR
    assert t.membership(c, (1, 0, 0)) is t.Membership.BOUNDARY
    assert t.membership(c, (1, 1, 1)) is t.Membership.OUTSIDE


def test_membership_consistency_with_rays():
    rng = random.Random(3)
    cones = [ORTHANT2, FOURRAY,
             t.make_cone(2, [(0, 1), (7, 2)]),
             t.make_cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])]
    for cone in cones:
        total = tuple(sum(col) for col in zip(*cone.rays))
        assert t.membership(cone, total) is t.Membership.RELATIVE_INTERIOR
        for _ in range(5):
            combo = [rng.randint(1, 4) for _ in cone.rays]
            v = tuple(sum(k * r[j] for k, r in zip(combo, cone.rays))
                      for j in range(cone.n))
            assert t.membership(cone, v) is t.Membership.RELATIVE_INTERIOR
        if cone.dim >= 2:
            for r in cone.rays:
                assert t.membership(cone, r) is t.Membership.BOUNDARY


def test_is_simplicial_examples():
    assert t.is_simplicial(t.make_cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert not t.is_simplicial(FOURRAY)
    assert t.is_simplicial(t.make_cone(2, [(-1, 3), (1, 3)]))


def test_minimal_face_examples():
    f = t.minimal_face_containing(ORTHANT2, (1, 0))
    assert f.rays == ((1, 0),)
    f = t.minimal_face_containing(ORTHANT2, (1, 1))
    assert f.rays == ORTHANT2.rays
    # (1,1,2) = (1,1,-1) + 3*(0,0,1) is interior: every facet is positive
    # on it, so the minimal face is the cone itself
    assert t.membership(FOURRAY, (1, 1, 2)) is t.Membership.RELATIVE_INTERIOR
    f = t.minimal_face_containing(FOURRAY, (1, 1, 2))
    assert f.rays == FOURRAY.rays
    # a genuinely two-dimensional face
    f = t.minimal_face_containing(FOURRAY, (1, 0, 1))
    assert f.rays == ((0, 0, 1), (1, 0, 0))
    assert f.dim == 2


def test_minimal_face_zero_point():
    f = t.minimal_face_containing(ORTHANT2, (0, 0))
    assert f.rays == ()
    assert f.dim == 0


def test_minimal_face_outside():
    with pytest.raises(NotInCone):
        t.minimal_face_containing(ORTHANT2, (-1, 2))


def test_minimal_face_outside_prints_a_rational_point():
    with pytest.raises(NotInCone) as exc:
        t.minimal_face_containing(ORTHANT2, (Fraction(-1), Fraction(1, 2)))
    assert str(exc.value) == "(-1, 1/2) is not in the cone"


def test_minimal_face_feasibility_oracle():
    # v lies in the relative interior of the face cone, and the face rays
    # are a subset of the parent rays (checked by exact LP feasibility)
    cones = [FOURRAY,
             t.make_cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]),
             t.make_cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                             (0, 0, 0, 1), (1, 1, 1, -1)])]
    probes = [(1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 2), (1, 1, 0)]
    for cone in cones:
        for p in probes:
            v = p if len(p) == cone.n else p + (1,) * (cone.n - len(p))
            if t.membership(cone, v) is t.Membership.OUTSIDE:
                continue
            face = t.minimal_face_containing(cone, v)
            assert set(face.rays) <= set(cone.rays)
            if face.rays:
                assert lp_in_relint(face.rays, v)
            else:
                assert all(x == 0 for x in v)


def test_in_cone_feasibility():
    assert in_cone([(1, 0), (0, 1)], (2, 3))
    assert not in_cone([(1, 0), (0, 1)], (-1, 0))
    assert in_cone([(1, 0), (1, 1)], (2, 1))


def test_facets_vanish_on_enough_rays():
    for cone in (ORTHANT2, FOURRAY,
                 t.make_cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])):
        for f in cone.facets:
            touching = [r for r in cone.rays if dot(f, r) == 0]
            assert rank(touching) >= cone.dim - 1
            assert all(dot(f, r) >= 0 for r in cone.rays)


def test_membership_agrees_with_lp_oracle():
    # the facet description must induce exactly the same membership
    # decisions as exact feasibility over the generators
    rng = random.Random(17)
    cones = []
    while len(cones) < 12:
        n = rng.randint(2, 4)
        rays = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(n, n + 3))]
        try:
            cone = t.make_cone(n, rays)
        except (t.ToricError,):
            continue
        if cone.dim == n:
            cones.append(cone)
    for cone in cones:
        for _ in range(20):
            v = tuple(rng.randint(-6, 6) for _ in range(cone.n))
            via_facets = t.membership(cone, v) is not t.Membership.OUTSIDE
            assert via_facets == in_cone(cone.rays, v)
            interior = t.membership(cone, v) is t.Membership.RELATIVE_INTERIOR
            assert interior == lp_in_relint(cone.rays, v)


def _random_generators(rng, n):
    """Generators of a random cone in Z^n, possibly of lower rank, padded
    with a non-extremal sum, a duplicate and a non-primitive multiple."""
    r = rng.randint(max(1, n - 1), n)
    basis = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(r)]
    gens = []
    for _ in range(rng.randint(r, r + 3)):
        coeffs = [rng.randint(-2, 2) for _ in range(r)]
        gens.append(tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)))
    gens = [g for g in gens if any(g)]
    if len(gens) >= 2:
        gens.append(tuple(a + b for a, b in zip(gens[0], gens[1])))
        gens.append(gens[1])
        gens.append(tuple(3 * x for x in gens[-1]))
    return gens


def test_make_cone_extremal_rays_agree_with_lp():
    # the incidence test keeps exactly the generators that no others
    # generate, on full-dimensional and lower-dimensional cones alike
    rng = random.Random(41)
    checked = {"full": 0, "lower": 0}
    for n in (2, 3, 4, 5):
        tries = 0
        while tries < 40:
            gens = _random_generators(rng, n)
            try:
                cone = t.make_cone(n, gens)
            except (NotStronglyConvex, EmptyInput, ZeroVector):
                continue
            tries += 1
            assert cone.rays == extremal_generators(gens)
            checked["full" if cone.dim == n else "lower"] += 1
    assert checked["full"] >= 20 and checked["lower"] >= 20


def test_bitmask_extremality_matches_the_rank_and_lp_references():
    # make_cone keeps a generator iff no other generator is tight on all of
    # its facets; the rank of its tight facets and an LP per generator agree
    rng = random.Random(43)
    dropped = 0
    for n in (1, 2, 3, 4, 5):
        tries = 0
        while tries < 30:
            gens = _random_generators(rng, n)
            if n == 1 and rng.randint(0, 1):
                gens = [(rng.randint(1, 3),) for _ in range(rng.randint(1, 3))]
            try:
                cone = t.make_cone(n, gens)
            except (NotStronglyConvex, EmptyInput, ZeroVector):
                continue
            if cone.dim < n:
                continue
            tries += 1
            prims = sorted({primitive(g) for g in gens})
            assert cone.rays == extremal_by_rank(n, prims, cone.facets) == extremal_generators(gens)
            dropped += len(prims) > len(cone.rays)
            if len(cone.rays) == n:  # simplicial: facet i is the one facet positive on ray i
                assert all((dot(f, r) > 0) == (i == j) for i, f in enumerate(cone.facets) for j, r in enumerate(cone.rays))
            dual = t.dual_cone(cone)
            assert dual.rays == extremal_by_rank(n, sorted(set(cone.facets)), dual.facets)
            assert dual.rays == tuple(sorted(cone.facets))
    assert dropped >= 40


def test_points_of_the_wrong_length_are_rejected():
    lower = t.make_cone(3, [(1, 0, 0), (0, 1, 0)])
    for cone in (FOURRAY, lower):
        for v in ((1, 1), (1, 1, 0, 0), (Fraction(1, 2),) * 4):
            with pytest.raises(ValidationError):
                t.membership(cone, v)
            with pytest.raises(ValidationError):
                t.minimal_face_containing(cone, v)


def test_lower_dimensional_cones_match_the_lp_and_elimination_references():
    """Rank-deficient generator sets in dims 2-6, among them sets whose
    lattice has index > 1 in its saturation, as (1, 1, 0), (1, -1, 0) does:
    make_cone's rays and dim agree with the LP and elimination references,
    each facet is zero off the pivot columns of the generators and agrees
    on the span with one extreme ray of the reference dual, and membership
    agrees with the LPs at points in the relative interior, on the
    boundary, outside in the span, outside the span and at non-lattice
    points of the saturation."""
    seen = Counter()
    kinds = {
        (True, True): "relative interior", (True, False): "boundary",
        (False, False): "outside in the span", (False, None): "outside the span",
    }

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 6), st.data())
    def check(n, data):
        ints = st.integers(-2, 2)
        r = data.draw(st.integers(1, n - 1))
        basis = [[data.draw(ints) for _ in range(n)] for _ in range(r)]
        gens = []
        for _ in range(data.draw(st.integers(1, r + 2))):
            coeffs = [data.draw(st.integers(-1, 2)) for _ in range(r)]
            gens.append(tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)))
        gens = [g for g in gens if any(g)]
        assume(gens)
        prims = sorted({primitive(g) for g in gens})
        dim = elim_ref.rank(prims)
        if any(in_cone(prims, [-x for x in p]) for p in prims):
            with pytest.raises(NotStronglyConvex):
                t.make_cone(n, gens)
            seen["line"] += 1
            return
        cone = t.make_cone(n, gens)
        assert cone.dim == dim and cone.rays == extremal_generators(gens)
        if math.prod(nf_ref.snf(prims).invariant_factors) > 1:
            seen["index > 1"] += 1
        dual, _ = elim_ref.double_description(n, prims)
        tight = {frozenset(i for i, ray in enumerate(cone.rays) if dot(y, ray) == 0): y for y in dual}
        assert len(cone.facets) == len(tight)
        pivots = elim_ref.pivot_columns(prims)
        for f in cone.facets:
            assert primitive(f) == f and all(x == 0 for j, x in enumerate(f) if j not in pivots)
            y = tight[frozenset(i for i, ray in enumerate(cone.rays) if dot(f, ray) == 0)]
            # f and y are positive multiples of one functional on the span
            fv, yv = [dot(f, p) for p in prims], [dot(y, p) for p in prims]
            assert all(a >= 0 for a in fv) and sum(fv) > 0 and sum(yv) > 0
            assert all(a * sum(yv) == b * sum(fv) for a, b in zip(fv, yv))
        total = tuple(map(sum, zip(*cone.rays)))
        points = [total, cone.rays[0], tuple(-x for x in total), tuple(Fraction(x, 2) for x in total)]
        points += [tuple(Fraction(x, 3) for x in cone.rays[-1]), tuple(0 for _ in range(n))]
        points += nf_ref.saturation_basis(prims, n)
        points += [e for e in identity(n) if elim_ref.rank(prims + [e]) > dim][:1]
        points.append(tuple(data.draw(ints) for _ in range(n)))
        for v in points:
            got = t.membership(cone, v)
            inside, interior = in_cone(cone.rays, v), lp_in_relint(cone.rays, v)
            assert (got is not t.Membership.OUTSIDE, got is t.Membership.RELATIVE_INTERIOR) == (inside, interior)
            in_span = elim_ref.rank(prims + [v]) == dim
            seen[kinds[inside, interior if in_span else None]] += 1
        seen[f"dim {n}"] += 1

    check()
    wanted = ["line", "index > 1", *kinds.values()] + [f"dim {n}" for n in range(2, 7)]
    assert all(seen[kind] for kind in wanted), seen


def test_lower_dimensional_cones_match_the_hermite_reference():
    """Rank-deficient generator sets in dims 2-6, ranks 1 to n - 1, zero
    generators among them: make_cone raises what the earlier construction
    over the Hermite basis raises, or agrees with it on rays and dim, and
    its facets match the reference's one to one by their values on the
    generators, up to a positive multiple.  Permuting, duplicating and
    scaling the generators, or adding a non-extremal one, gives an equal
    cone."""
    seen = Counter()

    def build(make, n, gens):
        try:
            return make(n, gens)
        except (NotStronglyConvex, ZeroVector) as exc:
            return type(exc)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 6), st.data())
    def check(n, data):
        r = data.draw(st.integers(1, n - 1))
        basis = [[data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(r)]
        gens = []
        for _ in range(data.draw(st.integers(1, r + 3))):
            coeffs = [data.draw(st.integers(-1, 3)) for _ in range(r)]
            gens.append(tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)))
        got, want = build(t.make_cone, n, gens), build(elim_ref.lower_dimensional_cone, n, gens)
        if not isinstance(want, t.Cone):
            assert got is want
            seen[want.__name__] += 1
            return
        assert (got.n, got.rays, got.dim) == (want.n, want.rays, want.dim) and got.dim < n
        prims = sorted({primitive(g) for g in gens})
        values = [sorted(primitive([dot(f, p) for p in prims]) for f in c.facets) for c in (got, want)]
        assert values[0] == values[1] and len(set(values[0])) == len(values[0])
        if math.prod(nf_ref.snf(prims).invariant_factors) > 1:
            seen["index > 1"] += 1
        variant = data.draw(st.permutations(gens)) + [gens[0], tuple(3 * x for x in gens[-1])]
        variant.append(tuple(map(sum, zip(*got.rays))))
        assert t.make_cone(n, variant) == got
        seen["lower-dimensional"] += 1
        seen[f"dim {n}"] += 1
        seen[f"rank {got.dim}"] += 1

    check()
    wanted = ["lower-dimensional", "index > 1", "NotStronglyConvex", "ZeroVector"]
    wanted += [f"dim {n}" for n in range(2, 7)] + [f"rank {k}" for k in range(1, 6)]
    assert all(seen[kind] for kind in wanted), seen
