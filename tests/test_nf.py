"""The transform-free Hermite kernel in ``toricmld.linalg`` and the Smith
invariants read off it, checked against the normal forms with unimodular
transforms that they replaced (``nf_reference``)."""

import math
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import nf_reference as ref
from conftest import SQUARE_KINDS, small_squares
from toricmld import linalg
from toricmld.linalg import rank


@st.composite
def matrices(draw):
    """0-6 x 0-6 integer matrices with entries up to +-50 (up to +-100 in
    a row that is the difference of two earlier rows), with zero rows, zero
    columns and dependent rows."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    rows = [[draw(st.integers(-50, 50)) for _ in range(n)] for _ in range(m)]
    for i in range(m):
        kind = draw(st.sampled_from(("free", "free", "zero", "negated", "difference")))
        if kind == "zero":
            rows[i] = [0] * n
        elif kind == "negated" and i >= 1:
            rows[i] = [-x for x in rows[draw(st.integers(0, i - 1))]]
        elif kind == "difference" and i >= 2:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            rows[i] = [x - y for x, y in zip(rows[j], rows[k])]
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    return rows


def test_hermite_smith_and_saturation_match_the_reference(monkeypatch):
    kinds = set()
    passes = []
    hnf = linalg.hnf
    calls = [0]

    def counting_hnf(a):
        calls[0] += 1
        return hnf(a)

    monkeypatch.setattr(linalg, "hnf", counting_hnf)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(matrices())
    def check(a):
        m, n = len(a), len(a[0]) if a else 0
        h, _ = ref.hnf(a)
        assert hnf(a) == h
        calls[0] = 0
        assert linalg._hermite_smith(a) == ref.snf(a).invariant_factors
        passes.append(calls[0])
        assert linalg.snf(a) == ref.snf(a).invariant_factors
        r = rank(a) if m and n else 0
        kinds.add("full rank" if r == min(m, n) else "rank deficient")
        if m != n:
            kinds.add("wide" if m < n else "tall")

    check()
    assert kinds == {"full rank", "rank deficient", "wide", "tall"}
    assert max(passes) >= 3, "no Smith call needed a third Hermite pass"


def test_snf_three_pass_example(monkeypatch):
    # the row pass leaves 3 beside the corner 2; the column pass makes the
    # corner 1 but leaves 6 beside it; the third pass clears that row.
    # snf reads this nonsingular 2 x 2 off its determinantal divisors, so
    # the Hermite-pass path is called directly
    hnf = linalg.hnf
    seen = []

    def recording_hnf(a):
        seen.append(a)
        return hnf(a)

    monkeypatch.setattr(linalg, "hnf", recording_hnf)
    a = [[2, 3], [0, 6]]
    assert linalg._hermite_smith(a) == linalg.snf(a) == ref.snf(a).invariant_factors == (1, 12)
    assert len(seen) == 3


def test_determinantal_divisors_match_hermite_and_smith():
    """On square matrices of size 0-4, snf equals the Hermite-pass path
    and the reference Smith form, and cofactor_dual of a nonsingular
    matrix of ints is dual_basis and the diagonal of hnf; a singular
    matrix, or one with a bool or Fraction entry, gets None from
    cofactor_dual and the Hermite passes from snf.  Every kind occurs, and
    in sizes 3 and 4 the divisors below D_(n-1) are read (D_(n-1) > 1) for
    both forms."""
    seen = Counter()

    @settings(max_examples=800, deadline=None, derandomize=True, database=None)
    @given(small_squares())
    def check(drawn):
        kind, a = drawn
        n = len(a)
        smith = ref.snf(a).invariant_factors
        assert linalg.snf(a) == linalg._hermite_smith(a) == smith, a
        small = linalg.cofactor_dual(a)
        if kind in ("bool", "Fraction") or len(smith) < n:
            assert small is None
            seen[kind] += 1
            return
        d, w, h = small
        assert (d, w) == linalg.dual_basis(a)
        hermite = linalg.hnf(a)
        assert h == tuple(hermite[i][i] for i in range(n)), a
        seen[kind] += 1
        seen[n] += 1
        if n > 2:
            seen["Hermite", n] += math.prod(h[:-1]) > 1
            seen["Smith", n] += math.prod(smith[:-1]) > 1

    check()
    assert seen[0] and all(seen[kind] for kind in SQUARE_KINDS), seen
    assert all(seen[form, n] for form in ("Hermite", "Smith") for n in (3, 4)), seen
