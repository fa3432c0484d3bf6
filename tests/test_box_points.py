"""The box-point enumerator in ``toricmld.invariants`` (half-open cells of
a pulling triangulation), checked against the Fourier-Motzkin enumeration
it replaced (``fm_reference``), against the tuple-based box points,
window lift and ``Fraction`` orbifold lattice it replaced
(``box_reference``) and, on germs small enough to scan, against the
brute-force oracle."""

import itertools
import math
from collections import Counter
from fractions import Fraction as F

from conftest import _box_volume, germs
from hypothesis import given, settings
from hypothesis import strategies as st

import box_reference
import cyclic_reference
import fm_reference as ref
import toricmld as t
from toricmld import invariants, oracle
from toricmld.errors import BoundBelowMinimum, ToricError
from toricmld.invariants import mld_window_counts
from toricmld.linalg import hnf

ORACLE_CAP = 2_000  # points in the oracle's search box


def outcome(f, *args):
    """f(*args), or the type of the ToricError it raises."""
    try:
        return f(*args)
    except ToricError as exc:
        return type(exc)


def test_box_points_match_the_fm_reference_and_the_oracle():
    seen = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(germs(), st.data())
    def check(germ, data):
        m = ref.mld(germ)
        assert t.mld(germ) == m == box_reference.mld(germ)
        bound = m.value + F(data.draw(st.integers(-4, 4)), 4)
        got = outcome(t.mld, germ, bound)
        assert got == outcome(ref.mld, germ, bound) == outcome(box_reference.mld, germ, bound)
        low = max(F(1, 4), m.value + F(data.draw(st.integers(-2, 4)), 4))
        high = low + F(data.draw(st.integers(0, 6)), 4)
        window = t.count_window(germ, low, high)
        assert window == ref.count_window(germ, low, high)
        deltas = data.draw(st.lists(st.sampled_from((F(1, 4), F(1, 2), F(1), F(5, 2))), max_size=3))
        assert mld_window_counts(germ, deltas) == ref.mld_window_counts(germ, deltas)

        seen[f"dim {germ.dim}"] += 1
        seen["non-simplicial"] += len(germ.cone.rays) > germ.dim
        seen["9 or more rays"] += len(germ.cone.rays) >= 9
        seen["boundary"] += any(germ.boundary)
        seen["extended lattice"] += not germ.lattice.is_standard
        seen["below minimum"] += got is BoundBelowMinimum
        if _box_volume(germ) <= ORACLE_CAP:
            seen["oracle"] += 1
            assert oracle.oracle_mld(germ) == (m.value, m.minimizers)
            assert oracle.oracle_window(germ, low, high) == window.points

    check()
    kinds = ["non-simplicial", "9 or more rays", "boundary", "extended lattice", "below minimum", "oracle"]
    assert all(seen[kind] for kind in kinds + [f"dim {n}" for n in range(1, 6)]), seen


def test_box_points_match_the_tuple_reference():
    """Per cell, the column-wise box points and their values are the
    tuple-based reference's, each coset once, and the values lifted ray
    by ray (``_lift`` on values alone) are those of the reference's walk
    and of the one-pass values lift, with multiplicity."""
    seen = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(germs(min_dim=2), st.integers(0, 4))
    def check(germ, halves):
        rb = germ.rebased
        cells = list(invariants._box_points(rb))
        boxes = list(box_reference._box_points(rb))
        expected = [
            (rays, Counter((p, val) for p, val, _, _ in group))
            for rays, group in itertools.groupby(boxes, key=lambda box: tuple(box[2]))
        ]
        got = [
            (tuple(v), Counter((box_reference._box_point(v, d, cols, k), x) for k, x in enumerate(values)))
            for v, _, d, cols, values in cells
        ]
        assert got == expected
        assert all(len(values) == d for _, _, d, _, values in cells)
        b_num = min(min(values) for *_, values in cells) + halves * rb.den // 2
        lifted = Counter(val for _, val in box_reference._interior_points_upto(boxes, b_num))
        assert Counter(box_reference.lifted_values(cells, b_num)) == lifted
        values_only = Counter(
            x for _, ells, _, _, xs in cells
            for x in invariants._lift([[x for x in xs if x <= b_num]], [(ell,) for ell in ells], b_num)[0]
        )
        assert values_only == lifted

        seen[f"dim {germ.dim}"] += 1
        seen["non-simplicial"] += len(germ.cone.rays) > germ.dim
        seen["boundary with n_ray > 2"] += any(b > F(1, 2) for b in germ.boundary)
        seen["extended lattice"] += not germ.lattice.is_standard
        seen["non-cyclic cell group"] += any(
            sum(row[j] > 1 for j, row in enumerate(hnf(v))) >= 2 for v, *_ in cells
        )

    check()
    kinds = ["non-simplicial", "boundary with n_ray > 2", "extended lattice", "non-cyclic cell group"]
    assert all(seen[kind] for kind in kinds + [f"dim {n}" for n in range(2, 6)]), seen


def test_orbifold_matches_the_fraction_reference():
    """The integer orbifold lattice is the ``Fraction`` builder's, as a
    ``LatticeBasis``, and ``multiplicity`` is floor(1 / (1 - coeff))."""
    seen = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(germs(min_dim=2))
    def check(germ):
        assert germ.orbifold == box_reference.orbifold(germ)
        seen[f"dim {germ.dim}"] += 1
        seen["non-simplicial"] += len(germ.cone.rays) > germ.dim
        seen["boundary with n_ray > 2"] += any(b > F(1, 2) for b in germ.boundary)
        seen["extended lattice"] += not germ.lattice.is_standard
        seen["orbifold above N"] += germ.orbifold != germ.lattice

    check()
    kinds = ["non-simplicial", "boundary with n_ray > 2", "extended lattice", "orbifold above N"]
    assert all(seen[kind] for kind in kinds + [f"dim {n}" for n in range(2, 6)]), seen
    for q in range(1, 40):
        for p in range(q):
            assert t.multiplicity(F(p, q)) == math.floor(1 / (1 - F(p, q)))


def _recording_lifts(monkeypatch) -> list:
    """Record the input and output columns of every ``_lift`` call."""
    calls = []
    real = invariants._lift

    def lift(cols, steps, top):
        out = real(cols, steps, top)
        calls.append((cols, out))
        return out

    monkeypatch.setattr(invariants, "_lift", lift)
    return calls


def test_mld_builds_a_point_for_each_minimizer_only(monkeypatch):
    germ = t.family("ex1", 3000)
    boxes = sum(len(values) for *_, values in invariants._box_points(germ.rebased))
    calls = _recording_lifts(monkeypatch)
    minimizers = t.mld(germ).minimizers
    assert sum(len(cols[0]) for cols, _ in calls) == len(minimizers) < boxes


def test_lift_skips_the_rays_that_lift_no_point(monkeypatch):
    """No ray lifts a minimizer, and no ray of L at least a window's width
    lifts a point into it: ``_lift`` then returns its input columns, and
    copies none of them."""
    germs = [t.family("ex1", 3000), cyclic_reference.germ(101, (1, 7, 93))]
    calls = _recording_lifts(monkeypatch)
    for germ in germs:
        minimizers = t.mld(germ).minimizers
        assert sum(len(cols[0]) for cols, _ in calls) == len(minimizers) > 1
        assert all(out is cols for cols, out in calls)
        calls.clear()
    germ = t.family("ex2", 2000)  # every ray has L = 1
    window = t.count_window(germ, F(1, 100), F(1, 50))
    assert window.count > 0 and calls
    assert all(out is cols for cols, out in calls)


def test_count_window_matches_the_tuple_reference():
    """The column-wise window lift, with its integer sort keys, returns the
    tuple-per-point reference's points and values, in the same order."""
    seen = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(germs(), st.integers(-2, 4), st.integers(0, 6))
    def check(germ, low_steps, width):
        m = t.mld(germ).value
        low = max(F(1, 4), m + F(low_steps, 4))
        high = low + F(width, 4)
        window = t.count_window(germ, low, high)
        assert window == box_reference.count_window(germ, low, high)

        seen[f"dim {germ.dim}"] += 1
        seen["extended lattice"] += not germ.lattice.is_standard
        seen["Fraction coordinates"] += any(type(x) is F for p, _ in window.points for x in p)
        seen["points below low"] += m < low and window.count > 0
        seen["empty"] += window.count == 0
        seen["10 or more points"] += window.count >= 10

    check()
    kinds = ["extended lattice", "Fraction coordinates", "points below low", "empty", "10 or more points"]
    assert all(seen[kind] for kind in kinds + [f"dim {n}" for n in range(1, 6)]), seen


def test_narrow_window_lifts_the_box_points_below_high_only(monkeypatch):
    """``count_window`` lifts the box points below high only, and no point
    past high; it builds key tuples and Fractions for the returned points
    only, though it lifts points below low too."""
    germ = t.family("ex2", 2000)
    rb = germ.rebased
    lo_num, hi_num = math.ceil(F(1, 100) * rb.den), math.ceil(F(1, 50) * rb.den)
    values = [x for *_, vals in invariants._box_points(rb) for x in vals]
    below = sum(x < hi_num for x in values)
    lifted, yielded, fractions = [], [], []
    real_lift, real_compress = invariants._lift, invariants.compress

    def lift(cols, steps, top):
        out = real_lift(cols, steps, top)
        lifted.append((cols[0], out[0]))
        return out

    def compress(data, selectors):
        for x in real_compress(data, selectors):
            yielded.append(x)
            yield x

    class CountingFraction(F):
        def __new__(cls, *args):
            fractions.append(args)
            return F(*args)

    monkeypatch.setattr(invariants, "_lift", lift)
    monkeypatch.setattr(invariants, "compress", compress)
    monkeypatch.setattr(invariants, "Fraction", CountingFraction)
    window = t.count_window(germ, F(1, 100), F(1, 50))
    assert sum(len(box) for box, _ in lifted) == below
    assert all(x < hi_num for box, out in lifted for x in box + out)
    assert any(x < lo_num for _, out in lifted for x in out)
    # one entry per coordinate and one value per returned point; low and high,
    # Fractions already, are not rebuilt
    assert len(yielded) == (germ.dim + 1) * window.count
    assert len(fractions) == window.count
    assert 0 < window.count <= below < len(values) // 10
