"""The package on isolated cyclic quotient singularities 1/r(1, a, ...),
against the closed forms of ``cyclic_reference``."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import toricmld as t

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
