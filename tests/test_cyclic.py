"""The package on isolated cyclic quotient singularities 1/r(1, a, ...),
against the closed forms of ``cyclic_reference``."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import toricmld as t

import cyclic_reference as ref


@st.composite
def isolated_weights(draw, dims=(2, 4), max_r=23):
    """(r, (1, a_2, ..., a_n)) with every weight a unit mod r."""
    n = draw(st.integers(*dims))
    r = draw(st.integers(2, max_r))
    units = [a for a in range(1, r) if math.gcd(a, r) == 1]
    rest = draw(st.lists(st.sampled_from(units), min_size=n - 1, max_size=n - 1))
    return r, (1, *rest)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(isolated_weights())
def test_cyclic_quotients_match_the_closed_forms(case):
    r, weights = case
    germ = ref.germ(r, weights)
    assert t.mld(germ).value == ref.mld(r, weights)
    assert t.count_window(germ, 1, 2).count == ref.window_count(r, weights, 1, 2)
    group = t.pi1_reg(germ)
    assert (group.invariant_factors, group.order, group.free_rank) == ((r,), r, 0)


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
