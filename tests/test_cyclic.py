"""The package on isolated cyclic quotient singularities 1/r(1, a, ...),
against the closed forms of ``cyclic_reference``."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import toricmld as t
from toricmld import invariants
from toricmld.errors import ValidationError

import cyclic_reference as ref
import pi1_reference as pi1_ref


@st.composite
def isolated_weights(draw, dims=(2, 5), max_r=60):
    """(r, (1, a_2, ..., a_n), boundary) with every weight a unit mod r and
    a coefficient in {0, 1/2} on each ray e_i, all 0 for half the draws."""
    n = draw(st.integers(*dims))
    r = draw(st.integers(2, max_r))
    units = [a for a in range(1, r) if math.gcd(a, r) == 1]
    rest = draw(st.lists(st.sampled_from(units), min_size=n - 1, max_size=n - 1))
    halves = st.sampled_from((Fraction(0), Fraction(1, 2)))
    boundary = draw(st.one_of(st.just((Fraction(0),) * n), st.tuples(*[halves] * n)))
    return r, (1, *rest), boundary


def test_cyclic_quotients_match_the_closed_forms():
    """mld against the closed form, with or without a boundary; without
    one, the window [1, 2) and the cyclic group of order r too, and with
    one, whose orbifold lattice is larger, the group against the listing."""
    seen = set()

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(isolated_weights())
    def check(case):
        r, weights, boundary = case
        germ = ref.germ(r, weights, boundary)
        assert t.mld(germ).value == ref.mld(r, weights, boundary)
        group = t.pi1_reg(germ)
        if any(boundary):
            assert (group.invariant_factors, group.free_rank) == (pi1_ref.pi1_factors(germ), 0)
            seen.add("boundary")
        else:
            assert t.count_window(germ, 1, 2).count == ref.window_count(r, weights, 1, 2)
            assert (group.invariant_factors, group.order, group.free_rank) == ((r,), r, 0)
        seen.update({f"dim {len(weights)}", "r > 23" if r > 23 else "r <= 23"})

    check()
    assert seen >= {"boundary", "dim 5", "r > 23"}, seen


def test_terminal_cyclic_3folds_are_the_white_morrison_stevens_ones():
    """Every isolated 1/r(1, a, b) with r < 24: mld > 1 iff two weights
    sum to 0 mod r."""
    terminal = 0
    for r in range(2, 24):
        units = [a for a in range(1, r) if math.gcd(a, r) == 1]
        for a in units:
            for b in units:
                expected = ref.is_terminal_3fold(r, (1, a, b))
                assert (ref.mld(r, (1, a, b)) > 1) is expected
                assert (t.mld(ref.germ(r, (1, a, b))).value > 1) is expected
                terminal += expected
    assert terminal > 0


@st.composite
def abelian_actions(draw):
    """(r, a, s, b, boundary) for the orthant in Z^n + Z a/r + Z b/s, n in
    2-5 and r, s <= 30, with a coefficient in {0, 1/2} on each ray e_i,
    all 0 for half the draws.  a and b need not be units: the action may
    fix a coordinate hyperplane, or have order below r * s."""
    n = draw(st.integers(2, 5))
    r, s = draw(st.integers(2, 30)), draw(st.integers(2, 30))
    a = tuple(draw(st.integers(0, r - 1)) for _ in range(n))
    b = tuple(draw(st.integers(0, s - 1)) for _ in range(n))
    halves = st.sampled_from((Fraction(0), Fraction(1, 2)))
    boundary = draw(st.one_of(st.just((Fraction(0),) * n), st.tuples(*[halves] * n)))
    return r, a, s, b, boundary


def test_abelian_quotients_match_the_coset_minimum():
    """The orthant modulo Z/r x Z/s: the interior lattice points fall into
    the cosets (j, k) of Z^n, and the least point of a coset has the
    coordinates x_i = {j a_i / r + k b_i / s}, with 1 in place of 0, so the
    mld is the least sum (1 - b_i) x_i.  The group is checked against the
    listing and, when the orbifold lattice is N and |pi1| = r * s, against
    Z/r x Z/s = Z/gcd(r, s) x Z/lcm(r, s).  A ray that is not primitive in
    N, the image of a pseudo-reflection, is refused by make_germ."""
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(abelian_actions())
    def check(case):
        r, a, s, b, boundary = case
        n = len(a)
        orthant = t.make_cone(n, [tuple(int(i == j) for j in range(n)) for i in range(n)])
        lattice = t.lattice_from_generators(n, [[Fraction(x, r) for x in a], [Fraction(x, s) for x in b]])
        try:  # make_cone sorts the rays: e_i is not rays[i]
            germ = t.make_germ(orthant, [boundary[ray.index(1)] for ray in orthant.rays], lattice)
        except ValidationError:
            seen.add("pseudo-reflection")
            return
        weights = [1 - c for c in boundary]
        expected = min(
            sum(w * (Fraction((j * x * s + k * y * r) % (r * s), r * s) or 1)
                for w, x, y in zip(weights, a, b))
            for j in range(r) for k in range(s)
        )
        assert t.mld(germ).value == expected
        assert invariants.mld_window_counts(germ, (Fraction(1, 2),))[0] == expected
        group = t.pi1_reg(germ)
        assert (group.invariant_factors, group.free_rank) == (pi1_ref.pi1_factors(germ), 0)
        if germ.orbifold == germ.lattice and group.order == r * s:
            assert group.invariant_factors == tuple(d for d in (math.gcd(r, s), math.lcm(r, s)) if d > 1)
            seen.add("Z/r x Z/s")
        if 1 / germ.lattice.covolume() < r * s:
            seen.add("not faithful")
        if any(boundary):
            seen.add("boundary")
        if len(group.invariant_factors) >= 2:
            seen.add("two or more factors")
        seen.add(f"dim {n}")

    check()
    wanted = {"pseudo-reflection", "Z/r x Z/s", "not faithful", "boundary", "two or more factors", "dim 5"}
    assert seen >= wanted, seen
