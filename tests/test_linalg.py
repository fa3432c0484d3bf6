import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nf_reference as ref
from toricmld import linalg
from toricmld.errors import ValidationError, ZeroVector
from toricmld.linalg import (
    INCONSISTENT,
    UNDERDETERMINED,
    LatticeBasis,
    det,
    express_in_basis,
    hnf,
    identity,
    lattice_from_generators,
    primitive,
    rank,
    snf,
    solve_rational,
)


def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((0, 7)) == (0, 1)
    assert primitive((-3, 6, 9)) == (-1, 2, 3)


def test_primitive_zero_vector():
    with pytest.raises(ZeroVector):
        primitive((0, 0, 0))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=6), st.integers(1, 9))
def test_primitive_idempotent_and_scale_invariant(v, k):
    if all(x == 0 for x in v):
        return
    p = primitive(v)
    assert primitive(p) == p
    assert primitive([k * x for x in v]) == p


def _gcd_by_loop(v) -> int:
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    return g


VECTORS = [(), (0,), (0, 0, 0), (7,), (-7,), (-4, 6), (0, -5, 10), (3, 5), (-1, 0), (2**70, -(2**71))]


@pytest.mark.parametrize("v", VECTORS, ids=map(str, VECTORS))
def test_vec_gcd_and_primitive_match_a_loop(v):
    """vec_gcd is math.gcd over the entries, and primitive divides by it,
    returning the entries themselves, as ints, when it is 1; the empty and
    the zero vectors have gcd 0 and no primitive generator."""
    g = _gcd_by_loop(v)
    assert linalg.vec_gcd(v) == g
    assert linalg.vec_gcd(list(v)) == g
    if g == 0:
        with pytest.raises(ZeroVector):
            primitive(v)
        return
    p = primitive(list(v))
    assert type(p) is tuple and p == tuple(x // g for x in v)
    assert all(type(x) is int for x in p)


@given(st.lists(st.integers(-60, 60), max_size=6))
def test_vec_gcd_and_primitive_match_a_loop_on_drawn_vectors(v):
    g = _gcd_by_loop(v)
    assert linalg.vec_gcd(v) == g
    if g:
        p = primitive(v)
        assert p == tuple(x // g for x in v) and all(type(x) is int for x in p)


def _check_snf(a):
    """The reference's transforms and S, then the package's invariant
    factors: equal to the reference's, positive, a divisibility chain."""
    res = ref.snf(a)
    m, n = len(a), len(a[0])
    assert abs(det(res.U)) == 1
    assert abs(det(res.V)) == 1
    assert ref.mat_mul(ref.mat_mul(res.U, a), res.V) == res.S
    diag = [res.S[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert res.S[i][j] == 0
    nonzero = [d for d in diag if d != 0]
    assert diag[: len(nonzero)] == nonzero, "zeros must trail"
    factors = snf(a)
    assert factors == res.invariant_factors
    assert all(d > 0 for d in factors)
    for a_, b_ in zip(factors, factors[1:]):
        assert b_ % a_ == 0
    return factors


def test_snf_examples():
    assert _check_snf([[2, 0], [0, 3]]) == (1, 6)
    assert _check_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)
    res = ref.snf(identity(3))
    assert res.S == identity(3)
    assert res.U == identity(3) and res.V == identity(3)
    assert _check_snf([[2, 2], [0, 2]]) == (2, 2)


def test_snf_rank_and_trailing_zeros():
    factors = _check_snf([[1, 2, 3], [2, 4, 6]])
    assert factors == (1,)
    assert len(factors) == rank([[1, 2, 3], [2, 4, 6]]) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_random_invariants(m, n, data):
    a = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(m)]
    _check_snf(a)


def _check_hnf(a):
    """The reference's transform, then the package's H: equal to the
    reference's, in echelon shape with positive, reduced pivots."""
    ref_h, u = ref.hnf(a)
    assert abs(det(u)) == 1
    assert ref.mat_mul(u, a) == ref_h
    h = hnf(a)
    assert h == ref_h
    # echelon shape with positive pivots and reduced entries above
    last = -1
    for row in h:
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        if piv is None:
            continue
        assert piv > last
        last = piv
        assert row[piv] > 0
    for j in range(len(h[0])):
        col_pivots = [i for i in range(len(h)) if h[i][j] != 0 and
                      next(k for k, x in enumerate(h[i]) if x != 0) == j]
        for i in col_pivots:
            for i2 in range(i):
                assert 0 <= h[i2][j] < h[i][j]
    return h


def test_hnf_examples():
    h = _check_hnf([[1, 0], [0, 1]])
    assert h == identity(2)
    h = _check_hnf([[0, 1], [5, 1]])
    assert abs(det(h)) == 5
    h = _check_hnf([[2, 0], [1, 1]])
    assert h == ((1, 1), (0, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_hnf_random_invariants(m, n, data):
    a = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(m)]
    h = _check_hnf(a)
    if m == n:
        assert abs(det(h)) == abs(det(a))


def test_solve_rational_examples():
    assert solve_rational(identity(2), (1, Fraction(1, 2))) == (1, Fraction(1, 2))
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]
    assert solve_rational(rows, (1, 1, 1, 1)) == (1, 1, 1)
    assert solve_rational(rows, (Fraction(1, 2), 1, 1, 1)) is INCONSISTENT


def test_solve_rational_underdetermined():
    assert solve_rational([(1, 0, 0)], (1,)) is UNDERDETERMINED


def test_lattice_from_generators_examples():
    std = lattice_from_generators(2, [])
    assert std == LatticeBasis.standard(2)
    half = lattice_from_generators(2, [(Fraction(1, 2), 0)])
    assert half.rows == ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1)))
    ex4 = lattice_from_generators(3, [(Fraction(1, 3),) * 3])
    assert ex4.covolume() == Fraction(1, 3)  # index 3 over Z^3
    # a generator of the wrong length is a ValidationError, as in make_cone
    with pytest.raises(ValidationError, match="a generator of length 2 in dimension 3"):
        lattice_from_generators(3, [(Fraction(1, 2), 0)])


def test_express_in_basis_examples():
    std = LatticeBasis.standard(2)
    assert express_in_basis(std, (3, 4)) == (3, 4)
    half = lattice_from_generators(2, [(Fraction(1, 2), 0)])
    assert express_in_basis(half, (1, 0)) == (2, 0)
    assert express_in_basis(half, (Fraction(1, 3), 0)) is None


def test_express_recovers_generators():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 4)
        gens = [
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))
            for _ in range(rng.randint(0, 3))
        ]
        basis = lattice_from_generators(n, gens)
        for g in gens:
            assert express_in_basis(basis, g) is not None
        for e in identity(n):
            assert express_in_basis(basis, e) is not None

