"""Rebasing maps the parsed cone into N's coordinates.

``ToricGerm.rebased`` takes its rays from the coordinates that
``make_germ`` computed (``ToricGerm.coords``) and each facet f to
primitive(num f), with no second ``make_cone``.  These tests compare it
with the slow path it replaced, ``elim_reference.rebased_by_solve``,
which expresses every ray again and builds the cone of the results, and
check that a germ of rank < n still fails with the error class of that
path.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

import elim_reference as ref
from conftest import germs, height_cone_germ
import toricmld as t
from toricmld import linalg
from toricmld.errors import NotFullDimensional, NotQCartier

HALF = Fraction(1, 2)


def _kind(germ) -> str:
    if germ.lattice.is_standard:
        return "standard lattice"
    return "simplicial, extended" if len(germ.cone.rays) == germ.dim else "non-simplicial, extended"


def _check(germ) -> None:
    assert germ.coords == tuple(ref.express_in_basis(germ.lattice, r) for r in germ.cone.rays)
    rb = germ.rebased
    assert (rb.cone, rb.l_num, rb.den) == ref.rebased_by_solve(germ)


def test_mapped_rebasing_matches_the_solve_on_drawn_germs():
    """Drawn germs, and lattice-extended cones over points at height one,
    whose rays stay primitive in Z^n + Z (1/2, 1/2, 0, ...)."""
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(germs())
    def check(germ):
        _check(germ)
        seen[_kind(germ)] += 1

    check()
    for n in (3, 4, 5):
        for seed in range(6):
            cone = height_cone_germ(n, seed, spread=1 if n == 5 else 2).cone
            germ = t.make_germ(cone, None, linalg.lattice_from_generators(n, [[HALF, HALF] + [0] * (n - 2)]))
            _check(germ)
            seen[_kind(germ)] += 1
    assert len(seen) == 3 and min(seen.values()) >= 10, seen


# four rays of rank 3 in Q^4, primitive in Z^4 + Z (1/2, 1/2, 1/2, 1/2)
DEGENERATE = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0)]


@pytest.mark.parametrize("boundary, error", [
    (None, NotFullDimensional),  # L is 1 on r1 + r4 and on r2 + r3: many solutions
    ([HALF, 0, 0, 0], NotQCartier),  # 1/2 + 1 against 1 + 1: none, which wins
])
def test_a_rank_deficient_extended_germ_keeps_its_error(boundary, error):
    cone = t.make_cone(4, DEGENERATE)
    assert cone.dim == 3 and len(cone.rays) == 4
    germ = t.make_germ(cone, boundary, linalg.lattice_from_generators(4, [[HALF] * 4]))
    assert not germ.lattice.is_standard
    with pytest.raises(error):
        germ.rebased
