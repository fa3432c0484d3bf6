"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion; run with `pytest
tests/test_acceptance.py -v -s` to see them.  All assertions are exact
(zero tolerance); the only non-exact checks are the wall-clock budgets
stated alongside each criterion.
"""

import io
import contextlib
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import toricmld as t
from toricmld.cli import main as cli_main
from toricmld.lab import Classification

from conftest import (
    geometry_corpus,
    nonsimplicial_corpus,
    oracle_corpus,
    random_unimodular,
    transform_germ,
)

F = Fraction


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num} FAIL: {desc}")
        raise
    else:
        print(f"CRITERION {num} PASS: {desc}")


def test_criterion_1_example_family_one():
    with criterion(1, "family ex1 n=2..12: mld 1, n-1 minimizers, pi1 = Z_n, <1s each"):
        for n in range(2, 13):
            start = time.monotonic()
            g = t.family("ex1", n)
            r = t.mld(g)
            pi = t.pi1_reg(g)
            elapsed = time.monotonic() - start
            assert r.value == 1
            assert len(r.minimizers) == n - 1
            assert r.minimizers == tuple((i, 1) for i in range(1, n))
            assert pi.invariant_factors == (n,)
            assert pi.order == n
            assert elapsed < 1.0, f"n={n} took {elapsed:.2f}s"


def test_criterion_2_example_family_three():
    with criterion(2, "family ex3 r=2..12: mld 1+1/r, ladder 2-i/r, >= floor(r*delta) window points, <2s each"):
        for r_ in range(2, 13):
            start = time.monotonic()
            g = t.family("ex3", r_)
            res = t.mld(g)
            assert res.value == 1 + F(1, r_)
            assert res.minimizers == ((1, 1, r_ - 1),)
            pi = t.pi1_reg(g)
            assert pi.order == r_
            assert pi.invariant_factors == (r_,)
            for i in range(1, r_):
                assert t.log_discrepancy_at(g, (1, 1, i)) == 2 - F(i, r_)
            for delta in (F(1, 4), F(1, 2)):
                wc = t.count_window(g, res.value, res.value + delta)
                assert wc.count >= math.floor(r_ * delta)
            elapsed = time.monotonic() - start
            assert elapsed < 2.0, f"r={r_} took {elapsed:.2f}s"


def test_criterion_3_example_family_four():
    with criterion(3, "family ex4 n=2..6: mld 1, pi1 = Z_n, open window (1,2) empty"):
        for n in range(2, 7):
            g = t.family("ex4", n)
            r = t.mld(g)
            assert r.value == 1
            pi = t.pi1_reg(g)
            assert pi.order == n
            assert pi.invariant_factors == (n,)
            wc = t.count_window(g, 1, 2)
            assert all(v == 1 for _, v in wc.points), "no value strictly inside (1, 2)"


def test_criterion_4_example_family_two():
    with criterion(4, "family ex2 n=2..12: pi1 = Z_2n, mld equals the brute-force oracle"):
        for n in range(2, 13):
            g = t.family("ex2", n)
            pi = t.pi1_reg(g)
            assert pi.order == 2 * n
            assert pi.invariant_factors == (2 * n,)
            r = t.mld(g)
            o_value, o_mins = t.oracle_mld(g)
            assert r.value == o_value
            assert r.minimizers == o_mins
            # documented discrepancy: the published example states 2/n for
            # this cone; direct enumeration (both implementations here)
            # yields 1/n with unique minimizer (0, 1).  The assertion is
            # oracle agreement, never either constant.
            assert r.minimizers == ((0, 1),)


def test_criterion_5_oracle_equivalence():
    with criterion(5, "oracle equivalence on 200 seeded germs (dims 2-4), <3min"):
        start = time.monotonic()
        germs = oracle_corpus()
        assert len(germs) >= 200
        for g in germs:
            r = t.mld(g)
            o_value, o_mins = t.oracle_mld(g)
            assert r.value == o_value
            assert r.minimizers == o_mins
            wc = t.count_window(g, r.value, r.value + F(1, 2))
            ow = t.oracle_window(g, r.value, r.value + F(1, 2))
            assert wc.points == ow
        elapsed = time.monotonic() - start
        assert elapsed < 180, f"suite took {elapsed:.1f}s"


def test_criterion_6_linear_algebra_properties():
    with criterion(6, "SNF/HNF invariants on 500 random matrices, <30s"):
        start = time.monotonic()
        rng = random.Random(12345)
        import nf_reference as ref
        from toricmld.linalg import det, hnf, rank, snf

        for _ in range(500):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            # the transforms live in the reference, which pins the package
            res = ref.snf(a)
            assert abs(det(res.U)) == 1
            assert abs(det(res.V)) == 1
            assert ref.mat_mul(ref.mat_mul(res.U, a), res.V) == res.S
            diag = [res.S[i][i] for i in range(min(m, n))]
            assert all(
                res.S[i][j] == 0 for i in range(m) for j in range(n) if i != j
            )
            nonzero = [d for d in diag if d]
            assert diag[: len(nonzero)] == nonzero
            factors = snf(a)
            assert factors == tuple(nonzero)
            assert len(factors) == rank(a)
            assert all(d > 0 for d in factors)
            assert all(b % a_ == 0 for a_, b in zip(factors, factors[1:]))
            ref_h, u = ref.hnf(a)
            assert abs(det(u)) == 1
            assert ref.mat_mul(u, a) == ref_h
            h = hnf(a)
            assert h == ref_h
            if m == n:
                assert abs(det(h)) == abs(det(a))
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_7_geometry_properties():
    with criterion(7, "duality, membership, GL_n(Z) equivariance on 50 germs x 20 transforms, <2min"):
        from toricmld.structure import _validate_decomposition

        start = time.monotonic()
        germs = geometry_corpus()
        assert len(germs) == 50
        rng = random.Random(999)
        for g in germs:
            cone = g.cone
            assert t.dual_cone(t.dual_cone(cone)).rays == cone.rays
            total = tuple(sum(col) for col in zip(*cone.rays))
            assert t.membership(cone, total) is t.Membership.RELATIVE_INTERIOR
            if cone.dim >= 2:
                for ray in cone.rays:
                    assert t.membership(cone, ray) is t.Membership.BOUNDARY
            base_mld = t.mld(g)
            base_window = t.count_window(g, base_mld.value, base_mld.value + F(1, 2))
            base_pi = t.pi1_reg(g)
            for _ in range(20):
                mat = random_unimodular(g.dim, rng)
                tg = transform_germ(g, mat)
                r = t.mld(tg)
                assert r.value == base_mld.value
                assert len(r.minimizers) == len(base_mld.minimizers)
                wc = t.count_window(tg, r.value, r.value + F(1, 2))
                assert wc.count == base_window.count
                assert t.pi1_reg(tg).invariant_factors == base_pi.invariant_factors
                # k0 is not compared: the transform reorders the rays
                tm = tuple(sum(col) for col in zip(*tg.cone.rays))
                _validate_decomposition(tg, tm, t.decompose(tg, tm))
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"took {elapsed:.1f}s"


def test_criterion_8_structure_algorithms():
    with criterion(8, "trichotomy/decompose/blowup on non-simplicial germs at mld minimizers, <2min"):
        from lp_reference import in_relint
        from toricmld.linalg import rank
        from toricmld.structure import FullDimSubcone, SpanningPair, Simplicial

        start = time.monotonic()
        germs = nonsimplicial_corpus()
        assert germs
        max_weight = {}
        for g in germs:
            assert not t.is_simplicial(g.cone)
            m = t.mld(g).minimizers[0]
            m_int = tuple(int(x) for x in m)
            res = t.trichotomy(g.cone, m_int)
            if isinstance(res, FullDimSubcone):
                assert res.tau.dim == g.dim
                assert set(res.tau.rays) < set(g.cone.rays)
                assert in_relint(res.tau.rays, m_int)
            elif isinstance(res, SpanningPair):
                for tau in (res.tau1, res.tau2):
                    assert set(tau.rays) < set(g.cone.rays)
                    assert in_relint(tau.rays, m_int)
                assert rank(res.tau1.rays + res.tau2.rays) == g.dim
            else:
                assert isinstance(res, Simplicial) and t.is_simplicial(g.cone)
            d = t.decompose(g, m)
            assert rank(d.vectors) == g.dim
            for v, row in zip(d.vectors, d.coefficients):
                assert all(k >= 0 for k in row)
                assert tuple(v) == tuple(
                    sum(k * r[j] for k, r in zip(row, g.cone.rays))
                    for j in range(g.dim)
                )
            sums = tuple(sum(F(v[j]) for v in d.vectors) for j in range(g.dim))
            assert sums == tuple(d.k0 * F(x) for x in m)
            rep = t.blowup_report(g, d)
            assert rep.coarse_order >= t.pi1_reg(g).order
            key = g.dim
            max_weight[key] = max(max_weight.get(key, 0), d.total_weight)
        print(f"  observed max decomposition weight per dimension: {max_weight}")
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"took {elapsed:.1f}s"


def test_criterion_9_scan_determinism(tmp_path):
    with criterion(9, "fixture scan byte-identical across runs"):
        spec = {
            "families": [
                {"name": "ex1", "param_range": [2, 12]},
                {"name": "ex2", "param_range": [2, 12]},
                {"name": "ex3", "param_range": [2, 12]},
                {"name": "ex4", "param_range": [2, 6]},
            ],
            "grid": [{"epsilon": "1/2", "delta": "1/2"}],
        }
        spec_path = tmp_path / "scan_fixture.json"
        spec_path.write_text(json.dumps(spec))

        def run_scan():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(["scan", "--spec", str(spec_path)])
            assert code == 0
            return out.getvalue()

        first = run_scan()
        second = run_scan()
        assert first == second
        doc = json.loads(first)
        # ex2 instances all fail the mld hypothesis at epsilon = 1/2
        assert doc["violates_mld"] == 11
        assert doc["degenerate"] == 0
        buckets = {(c["n"], c["N"]): c["max_pi1"] for c in doc["cells"]}
        for n in range(2, 13):
            assert buckets[(2, n - 1)] == n  # ex1 cells
