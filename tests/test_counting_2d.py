"""The dimension-2 counting path of ``mld_window_counts``.

In dimension 2, ``mld_window_counts`` counts interior lattice points with
floor sums in the Hirzebruch-Jung normal form (``invariants._plane_counter``)
instead of listing box points.  It is checked here against ``mld`` and
``count_window``, which still list them, against the closed forms of ex1
and ex2 far beyond what listing can reach, and ``linalg.floor_sum``
against a plain loop.
"""

from __future__ import annotations

import io
import itertools
import json
import sys
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toricmld as t
from toricmld.cli import main
from toricmld.invariants import mld_window_counts
from toricmld.linalg import floor_sum

COEFFS = (F(0), F(1, 2), F(2, 3), F(3, 4), F(5, 7), F(1, 3))
DELTAS = (F(1, 1000), F(1, 4), F(1, 2), F(3, 4), F(1), F(5, 3))
BIG = 10**9 + 7


def _run(argv, stdin=""):
    out, err, old = io.StringIO(), io.StringIO(), (sys.stdin, sys.stdout, sys.stderr)
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


@st.composite
def plane_germs(draw):
    """2-dimensional germs: two independent rays in a box of drawn size, a
    boundary coefficient per ray and, for some, the lattice Z^2 + Z v/k
    for a v that keeps both rays primitive."""
    c = draw(st.sampled_from((1, 3, 12, 40)))
    gens = [(draw(st.integers(-c, c)), draw(st.integers(-c, c))) for _ in range(2)]
    assume(gens[0][0] * gens[1][1] != gens[0][1] * gens[1][0])
    cone = t.make_cone(2, gens)
    boundary = [draw(st.sampled_from(COEFFS)) for _ in cone.rays]
    k = draw(st.sampled_from((1, 2, 3, 5)))
    extensions = [
        v
        for v in itertools.product(range(k), repeat=2)
        if any(v) and not any(all((x - j * y) % k == 0 for x, y in zip(r, v)) for r in cone.rays for j in range(k))
    ]
    lattice = None
    if extensions:
        v = draw(st.sampled_from(extensions))
        lattice = t.lattice_from_generators(2, [tuple(F(x, k) for x in v)])
    return t.make_germ(cone, boundary, lattice)


def _normal_form(germ):
    """(det(r1, r2) > 0, r, a) for the rebased rays r1, r2, where (r, -a),
    0 <= a < r, is what r2 becomes once a unimodular map sends r1 to (0, 1).
    As (r, -a) + a (0, 1) lies in r Z^2, a is the one residue with
    r2 + a r1 in r Z^2, read off here without the map (a = 0 iff r = 1)."""
    (p, q), (x2, y2) = germ.rebased.cone.rays
    d = p * y2 - q * x2
    r = abs(d)
    a = next(a for a in range(r) if (x2 + a * p) % r == 0 and (y2 + a * q) % r == 0)
    return (d > 0), r, a


def test_counting_agrees_with_the_box_points_on_drawn_germs():
    """mld_window_counts equals mld and count_window, which list box points;
    boundaries, extended lattices, both orientations of r2, a = 0 and
    a = r - 1 all occur."""
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(plane_germs(), st.lists(st.sampled_from(DELTAS), max_size=4))
    def check(germ, deltas):
        m = t.mld(germ).value
        expected = (m, tuple(t.count_window(germ, m, m + d).count for d in deltas))
        assert mld_window_counts(germ, deltas) == expected
        positive, r, a = _normal_form(germ)
        seen["boundary"] += any(germ.boundary)
        seen["extended lattice"] += not germ.lattice.is_standard
        seen["det > 0"] += positive
        seen["det < 0"] += not positive
        seen["a = 0"] += a == 0
        seen["a = r - 1 > 0"] += a == r - 1 > 0
        seen["r > 100"] += r > 100

    check()
    assert len(seen) == 7 and min(seen.values()) >= 10, seen


def test_normal_form_reading_of_the_test():
    """The test's reading of (r, a) on germs whose normal form is known:
    ex1 at n is 1/n(1, n - 1), the smooth quadrant has a = 0, and the
    cone over (0, 1), (5, -2) is 1/5(1, 2)."""
    assert _normal_form(t.family("ex1", 7))[1:] == (7, 6)
    assert _normal_form(t.make_germ(t.make_cone(2, [(1, 0), (0, 1)])))[1:] == (1, 0)
    assert _normal_form(t.make_germ(t.make_cone(2, [(0, 1), (5, -2)])))[1:] == (5, 2)


@pytest.mark.parametrize("n", [2, 3, 10, 3000, 10**5, BIG])
def test_closed_forms_of_ex1_and_ex2(n):
    """ex1 at n has mld 1 and n - 1 points of L = 1, so every count is n - 1
    for 0 < delta <= 1; ex2 at n has mld 1/n and ceil(n delta) points in
    [1/n, 1/n + delta) for 0 < delta < 1, the points (0, k) of L = k/n."""
    deltas = (F(1, 4), F(1, 2), F(3, 4), F(1, n + 1), F(n - 1, n))
    assert mld_window_counts(t.family("ex1", n), deltas) == (F(1), (n - 1,) * len(deltas))
    ceil = tuple(-(-n * d.numerator // d.denominator) for d in deltas)
    assert mld_window_counts(t.family("ex2", n), deltas) == (F(1, n), ceil)


def test_a_scan_at_a_billion_uses_the_closed_forms():
    """A scan spec over ex1 and ex2 at 10^9 + 7 ends in well under a second:
    ex1 satisfies with window count 10^9 + 6 and |pi_1| = n, and ex2, of mld
    1/n, violates epsilon = 1/2."""
    spec = {"families": [{"name": name, "param_range": [BIG, BIG]} for name in ("ex1", "ex2")],
            "grid": [{"epsilon": "1/2", "delta": "1/2"}]}
    start = time.monotonic()
    code, out, err = _run(["scan", "--spec", "-"], json.dumps(spec))
    assert time.monotonic() - start < 1
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["violates_mld"], doc["degenerate"]) == (1, 0)
    assert [(c["N"], c["max_pi1"], c["instances"]) for c in doc["cells"]] == [(BIG - 1, BIG, 1)]


@given(st.integers(0, 60), st.integers(1, 50), st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
def test_floor_sum_matches_a_loop(n, m, a, b):
    assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_floor_sum_edges():
    assert floor_sum(0, 7, -3, -5) == 0
    assert floor_sum(1, 7, -3, -5) == -1
    assert floor_sum(5, 1, -2, 0) == -20
    n, m, a, b = 10**6, 10**9 + 7, -(10**12) - 3, 10**15 + 11
    assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


@pytest.mark.parametrize("doc", [
    {"dim": 2, "rays": [[1, 2]]},
    {"dim": 2, "rays": [[0, 1]], "boundary": ["1/2"], "lattice_extra": [["1/2", "0"]]},
], ids=["standard", "boundary-and-lattice"])
def test_a_one_ray_plane_germ_is_degenerate(doc):
    """The rebased germ is read before the counting path, so a germ whose
    ray does not span still raises and ``check`` says Degenerate."""
    code, out, err = _run(["check", "-", "--epsilon", "1/2", "--delta", "1/2"], json.dumps(doc))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"classification": "Degenerate",
                               "diagnostic": "the cone does not span the ambient space"}
