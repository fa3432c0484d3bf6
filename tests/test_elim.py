"""The fraction-free elimination and the substitutions in ``toricmld.linalg``,
and the double description that starts from a simplicial cone, checked
against the ``Fraction`` versions they replaced (``elim_reference``)."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import elim_reference as ref
import nf_reference as nf_ref
from conftest import SQUARE_KINDS, small_squares
from toricmld import cones, linalg
from toricmld.errors import ValidationError
from toricmld.linalg import (
    INCONSISTENT,
    UNDERDETERMINED,
    LatticeBasis,
    det,
    dot,
    dual_basis,
    echelon_coords,
    express_in_basis,
    identity,
    independent_rows,
    lattice_from_generators,
    mat_vec,
    primitive,
    rank,
    solve_rational,
    solve_scaled,
)

entries = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


def _matrix(draw, m, n):
    rows = [tuple(draw(entries) for _ in range(n)) for _ in range(m)]
    # rank deficiency: a row that is a combination of two others, or zero
    if m >= 3 and draw(st.booleans()):
        k = draw(entries)
        rows[-1] = tuple(x + k * y for x, y in zip(rows[0], rows[1]))
    if m >= 1 and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = (0,) * n
    return rows


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_rank_solve_and_independent_rows_match_the_reference(m, n, data):
    a = _matrix(data.draw, m, n)
    b = tuple(data.draw(entries) for _ in range(m))
    assert rank(a) == ref.rank(a)
    assert solve_rational(a, b) == ref.solve_rational(a, b)
    # the earliest maximal independent rows, by greedy rank tests
    kept = []
    for i, row in enumerate(a):
        if ref.rank([a[k] for k in kept] + [row]) > len(kept):
            kept.append(i)
    assert independent_rows(a) == tuple(kept)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.data())
def test_det_matches_the_reference(n, data):
    a = _matrix(data.draw, n, n)
    assert det(a) == ref.det(a)
    assert isinstance(det(a), Fraction)


def _check_dual_basis(a):
    """dual_basis(a) against the reference solve, column by column; returns
    the sign of det a, or 0 after checking that a singular a gives None."""
    d = ref.det(a)
    if d == 0:
        assert dual_basis(a) is None
        return 0
    big_d, w = dual_basis(a)
    assert big_d == abs(d)
    assert len(w) == len(a)
    for i, wi in enumerate(w):
        x = ref.solve_rational(a, [int(k == i) for k in range(len(a))])
        assert all(type(y) is int for y in wi)
        assert wi == tuple(big_d * y for y in x)
    return 1 if d > 0 else -1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.data())
def test_dual_basis_matches_the_reference_solve(n, data):
    a = [tuple(data.draw(st.integers(-4, 4)) for _ in range(n)) for _ in range(n)]
    if n >= 2 and data.draw(st.booleans()):
        a[0], a[1] = a[1], a[0]  # the other sign of the determinant
    if n >= 3 and data.draw(st.booleans()):
        a[-1] = tuple(x - y for x, y in zip(a[0], a[1]))  # singular
    _check_dual_basis(a)


def test_dual_basis_signs_sizes_and_singular_inputs():
    rng = random.Random(23)
    seen = set()
    for _ in range(700):
        n = rng.randint(0, 6)
        a = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        seen.add((n, _check_dual_basis(a)))
    assert {(n, s) for n in range(1, 7) for s in (1, -1)} <= seen
    assert {(n, 0) for n in range(1, 5)} <= seen
    assert dual_basis([]) == (1, ())
    assert dual_basis([(0, 1), (1, 0)]) == (1, ((0, 1), (1, 0)))
    assert dual_basis([(2, 0), (0, -3)]) == (6, ((3, 0), (0, -2)))
    assert dual_basis([(1, 2), (2, 4)]) is None


def _int_square(draw, n, kind):
    """A square matrix of ints of size n: any, singular (its last row a
    combination of the others), with a zero row, or unimodular (a triangle
    with diagonal +-1, rows mixed by adding multiples and permuted)."""
    ints = st.integers(-4, 4)
    if kind == "unimodular":
        a = [[draw(st.sampled_from((1, -1))) if i == j else draw(ints) if j > i else 0 for j in range(n)]
             for i in range(n)]
        for _ in range(n):
            i, j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(ints)
            if i != j:
                a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        return [tuple(a[i]) for i in draw(st.permutations(range(n)))]
    a = [tuple(draw(ints) for _ in range(n)) for _ in range(n)]
    if kind == "singular":
        ks = [draw(ints) for _ in range(n - 1)]
        a[-1] = tuple(sum(k * row[j] for k, row in zip(ks, a)) for j in range(n))
    elif kind == "zero row":
        a[draw(st.integers(0, n - 1))] = (0,) * n
    return a


def test_integer_square_systems_match_the_reference():
    """Square matrices of ints of sizes 1-4 take the cofactors and size 5
    the elimination; on both sides of that switch, dual_basis, det, rank
    and the exact (r, d, y) of solve_scaled equal the Fraction reference,
    for singular, unimodular and zero-row matrices and right-hand sides
    with a unique solution, none (INCONSISTENT) and many (UNDERDETERMINED)."""
    seen = Counter()

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([(n, kind) for n in range(1, 6) for kind in ("any", "singular", "zero row", "unimodular")]),
           st.booleans(), st.data())
    def check(shape, image, data):
        n, kind = shape
        a = _int_square(data.draw, n, kind)
        # b = a . x is consistent whatever a's rank; a drawn b is rarely so when a is singular
        x = [data.draw(st.integers(-3, 3)) for _ in range(n)]
        b = mat_vec(a, x) if image else tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
        sign = _check_dual_basis(a)
        assert det(a) == ref.det(a) and rank(a) == ref.rank(a)
        r, d, y = got = solve_scaled(a, b)
        assert got == ref.solve_scaled(a, b), (a, b)
        assert type(r) is int and type(d) is int and d > 0
        outcome = y if y in (INCONSISTENT, UNDERDETERMINED) else "unique"
        if outcome == "unique":
            assert all(type(v) is int for v in y)
        if kind == "unimodular":
            assert abs(ref.det(a)) == 1
        seen[n, outcome] += 1
        seen[n, kind, sign] += 1

    check()
    for n in range(1, 6):
        assert all(seen[n, outcome] for outcome in ("unique", INCONSISTENT, UNDERDETERMINED)), (n, seen)
        assert all(seen[n, kind, 0] for kind in ("singular", "zero row")), (n, seen)
        assert all(seen[n, "unimodular", sign] for sign in (1, -1) if n > 1), (n, seen)


def test_cofactors_match_the_minors_and_the_elimination():
    """Each cofactor of a square matrix of ints of size 0-4 is its signed
    minor (the reference det), and a nonsingular matrix's det and cofactor
    rows are the sign of the row permutation times the last pivot and the
    back substitutions of one elimination of [a | I], which is how
    dual_basis reads them from size 5; a bool or Fraction entry gets no
    cofactors.  The sizes, the empty matrix, both signs of det, singular,
    unimodular and large entries all occur."""
    seen = Counter()

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(small_squares())
    def check(drawn):
        kind, a = drawn
        n = len(a)
        cof = linalg._cofactors(a)
        if kind in ("bool", "Fraction"):
            assert cof is None and linalg.cofactor_dual(a) is None
            assert det(a) == ref.det(a) and dual_basis(a) == dual_basis([tuple(map(int, row)) for row in a])
            seen[kind] += 1
            return
        d, w = cof
        assert type(d) is int and d == ref.det(a)
        for i in range(n):
            for j in range(n):
                minor = [row[:j] + row[j + 1:] for k, row in enumerate(a) if k != i]
                assert w[i][j] == (-1) ** (i + j) * ref.det(minor), (a, i, j)
        rows = [[*row, *e] for row, e in zip(a, identity(n))]
        pivots, sign = linalg._eliminate(rows, n)
        if len(pivots) == n:
            assert d == sign * (rows[n - 1][n - 1] if n else 1)
            assert w == tuple(tuple(sign * x for x in linalg._back_substitute(rows, n, n + i)) for i in range(n))
        else:
            assert d == 0
        seen[n, (d > 0) - (d < 0)] += 1
        seen[kind] += 1

    check()
    assert seen[0, 1], seen
    assert all(seen[n, sign] for n in range(1, 5) for sign in (1, -1, 0)), seen
    assert all(seen[kind] for kind in SQUARE_KINDS), seen


def test_fraction_and_bool_systems_take_the_elimination():
    """A small square system with a Fraction or bool entry, in the matrix
    or the right-hand side, is solved by the elimination of its scaled
    rows: d and y stay ints, and the solution is the reference's."""
    rng = random.Random(29)
    kinds = Counter()
    for _ in range(300):
        n = rng.randint(1, 3)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        b = [rng.randint(-3, 3) for _ in range(n)]
        kind = rng.choice(("Fraction entry", "integral Fraction entry", "bool entry", "Fraction right-hand side"))
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == "Fraction entry":
            a[i][j] = Fraction(2 * rng.randint(-3, 3) + 1, 2)
        elif kind == "integral Fraction entry":
            a[i][j] = Fraction(a[i][j])
        elif kind == "bool entry":
            a[i][j] = bool(a[i][j] % 2)
        else:
            b[i] = Fraction(2 * b[i] + 1, 3)
        r, d, y = solve_scaled(a, b)
        assert type(r) is int and type(d) is int and d > 0
        if y not in (INCONSISTENT, UNDERDETERMINED):
            assert all(type(v) is int for v in y)
            kinds[kind] += 1
        assert solve_rational(a, b) == ref.solve_rational(a, b)
        assert det(a) == ref.det(a) and rank(a) == ref.rank(a)
    assert len(kinds) == 4, kinds


def test_solve_outcomes_and_edge_cases():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(600):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(m)]
        b = tuple(rng.randint(-2, 2) for _ in range(m))
        sol = solve_rational(a, b)
        assert sol == ref.solve_rational(a, b)
        outcomes.add(sol if sol in (INCONSISTENT, UNDERDETERMINED) else "unique")
    assert outcomes == {INCONSISTENT, UNDERDETERMINED, "unique"}
    # empty systems and systems without unknowns
    assert solve_rational([], []) == ref.solve_rational([], []) == ()
    assert solve_rational([(), ()], (0, 0)) == ()
    assert solve_rational([(), ()], (0, 1)) is INCONSISTENT
    assert rank([]) == rank([()]) == 0 and independent_rows([]) == ()
    assert det([]) == ref.det([]) == 1
    # a pivot in the right-hand side wins over a rank deficiency
    assert solve_rational([(1, 1), (2, 2)], (1, 3)) is INCONSISTENT
    assert solve_rational([(1, 1), (2, 2)], (1, 2)) is UNDERDETERMINED


def test_solve_rejects_shape_mismatches():
    with pytest.raises(ValidationError):
        solve_rational([(1, 0), (0, 1)], (1, 2, 3))
    with pytest.raises(ValidationError):
        solve_rational([(1, 0), (0, 1)], (1,))
    with pytest.raises(ValidationError):
        solve_rational([(1, 0), (0, 1, 2)], (1, 2))


def _random_lattice(rng, n):
    gens = [
        tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))
        for _ in range(rng.randint(0, 3))
    ]
    return lattice_from_generators(n, gens), gens


def test_express_in_basis_matches_the_reference():
    rng = random.Random(5)
    found = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(1, 4)
        basis, gens = _random_lattice(rng, n)
        num = basis.num
        assert all(num[i][j] == 0 for i in range(n) for j in range(i))  # upper triangular
        coeffs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(3)]
        lattice_points = [basis.to_ambient(c) for c in coeffs]
        others = [
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n))
            for _ in range(3)
        ]
        for v in gens + lattice_points + others:
            got = express_in_basis(basis, v)
            assert got == ref.express_in_basis(basis, v)
            found[got is not None] += 1
        for c, v in zip(coeffs, lattice_points):
            assert express_in_basis(basis, v) == c
        with pytest.raises(ValidationError):
            express_in_basis(basis, (0,) * (n + 1))
    assert all(found.values()), found


def test_to_ambient_returns_ints_where_integral():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 4)
        basis, _ = _random_lattice(rng, n)
        c = tuple(rng.randint(-4, 4) for _ in range(n))
        point = basis.to_ambient(c)
        assert point == tuple(sum(ci * row[j] for ci, row in zip(c, basis.rows)) for j in range(n))
        assert all(isinstance(x, int) or x.denominator != 1 for x in point)
    assert LatticeBasis.standard(3).to_ambient((1, -2, 3)) == (1, -2, 3)


def test_span_substitution_matches_a_solve():
    rng = random.Random(9)
    kinds = {"lattice": 0, "rational": 0, "outside": 0}
    for _ in range(150):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        if not any(any(r) for r in rows):
            continue
        sat = nf_ref.saturation_basis(rows, n)
        points = [
            tuple(sum(rng.randint(-2, 2) * x for x in col) for col in zip(*sat)),
            tuple(sum(Fraction(rng.randint(-3, 3), 2) * x for x in col) for col in zip(*rows)),
            tuple(rng.randint(-3, 3) for _ in range(n)),
        ]
        for v in points:
            sol = ref.solve_rational(list(zip(*sat)), v)
            expected = None
            if isinstance(sol, tuple):
                kind = "rational"
                if all(x.denominator == 1 for x in sol):
                    kind = "lattice"
                    expected = tuple(int(x) for x in sol)
            else:
                kind = "outside"
            assert echelon_coords(sat, v) == expected, (sat, v)
            kinds[kind] += 1
    assert all(kinds.values()), kinds


def _full_rank_generators(rng, n):
    while True:
        gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n, n + 3))]
        if ref.rank(gens) == n:
            break
    extra = [gens[0], tuple(3 * x for x in gens[-1])]  # duplicate directions
    extra.append(tuple(x + y for x, y in zip(gens[0], gens[1 % len(gens)])))  # non-extremal
    out = gens + extra
    rng.shuffle(out)
    return out


def test_double_description_matches_the_lineality_reference():
    rng = random.Random(17)
    pointed = 0
    for n in range(1, 6):
        for _ in range(40):
            gens = _full_rank_generators(rng, n)
            expected, lineality = ref.double_description(n, gens)
            assert lineality == []
            pairs = cones._double_description(gens, independent_rows(gens))
            got = [r for r, _ in pairs]
            assert len(got) == len(set(got))
            # each bitmask is exactly the set of rows its ray is tight on
            for r, z in pairs:
                assert z == sum(1 << i for i, g in enumerate(gens) if dot(g, r) == 0)
            assert sorted(got) == sorted(expected), gens
            pointed += ref.rank(expected) == n
    assert 0 < pointed < 200  # both strongly convex cones and cones with a line


def test_simplicial_make_cone_matches_the_double_description():
    """On n independent generators (scaled duplicates allowed), make_cone
    returns their primitive vectors and their dual basis, facet i the one
    facet positive on ray i: the facet set of the double description and
    of the lineality reference, and the Cone that a non-extremal
    generator v0 + v1 forces through the double description."""
    seen = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6), st.data())
    def check(n, data):
        gens = [tuple(data.draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(n)]
        assume(rank(gens) == n)
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=2)):
            k = data.draw(st.integers(2, 3))
            gens.append(tuple(k * x for x in gens[i]))  # scaled duplicate
        cone = cones.make_cone(n, gens)
        prims = sorted({primitive(g) for g in gens})
        assert cone.rays == tuple(prims) and cone.dim == n
        assert all((dot(f, r) > 0) == (i == j) for i, f in enumerate(cone.facets) for j, r in enumerate(cone.rays))
        dd = cones._double_description(prims, independent_rows(prims))
        assert sorted(cone.facets) == sorted(f for f, _ in dd)
        expected, lineality = ref.double_description(n, prims)
        assert lineality == [] and sorted(cone.facets) == sorted(expected)
        assert ref.extremal_by_rank(n, prims, cone.facets) == cone.rays
        if n >= 2:
            assert cones.make_cone(n, gens + [tuple(x + y for x, y in zip(gens[0], gens[1]))]) == cone
        seen[f"dim {n}"] += 1
        seen[f"det sign {det(prims) > 0}"] += 1
        seen["scaled duplicate"] += len(gens) > n

    check()
    kinds = ["det sign True", "det sign False", "scaled duplicate"] + [f"dim {n}" for n in range(1, 7)]
    assert all(seen[kind] for kind in kinds), seen


def test_standard_lattice_coordinates_match_the_echelon_substitution():
    """In the standard basis, express_in_basis returns v's entries as ints,
    None for a non-integral v and ValidationError for the wrong length,
    as the substitution on the identity and the reference solve do, and
    to_ambient returns the coordinates."""
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6), st.sampled_from(("int", "integral Fraction", "non-integral", "wrong length")), st.data())
    def check(n, kind, data):
        basis = LatticeBasis.standard(n)
        ints = st.integers(-5, 5)
        if kind == "wrong length":
            v = tuple(data.draw(ints) for _ in range(data.draw(st.sampled_from((n - 1, n + 1)))))
            with pytest.raises(ValidationError):
                express_in_basis(basis, v)
            seen[kind] += 1
            return
        v = [data.draw(ints) for _ in range(n)]
        i = data.draw(st.integers(0, n - 1))
        if kind == "integral Fraction":
            v[i] = Fraction(v[i])
        elif kind == "non-integral":
            v[i] = Fraction(2 * v[i] + 1, 2)
        got = express_in_basis(basis, v)
        if kind == "non-integral":
            expected = None
        else:
            expected = echelon_coords(identity(n), [int(x) for x in v])
            assert all(type(x) is int for x in got)
            assert basis.to_ambient(got) == tuple(dot(got, col) for col in zip(*identity(n))) == tuple(v)
            assert all(type(x) is int for x in basis.to_ambient(got))
        assert got == expected == ref.express_in_basis(basis, v)
        seen[kind] += 1
        seen[f"dim {n}"] += 1

    check()
    kinds = ["int", "integral Fraction", "non-integral", "wrong length"] + [f"dim {n}" for n in range(1, 7)]
    assert all(seen[kind] for kind in kinds), seen
