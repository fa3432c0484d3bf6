"""Simplicial cones read their dual data off their facets.

A full-dimensional simplicial cone (dim == n == number of rays) keeps
facets[i] opposite rays[i], and L, the box-point cells and the base
case of the decomposition read their answers off those facets instead
of eliminating again.  These tests compare each of those fast paths
with the elimination it replaces, check that a rank-deficient cone with
n rays stays off them, and count the eliminations per command so that a
refactor which brings the duplicates back fails here.
"""

import contextlib
import io
import json
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import elim_reference as ref
from conftest import height_cone_germ, oracle_corpus
import toricmld as t
from toricmld import cli, cones, invariants, linalg, structure
from toricmld.errors import ToricError, ValidationError
from toricmld.linalg import primitive, rank

COEFFS = [Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1, 3)]


def _simplicial_germ(data, n):
    """A germ over n independent generators, drawn with a boundary and a
    lattice_extra generator, and with a non-extremal generator v0 + v1
    that sends make_cone through the double description; returns the
    germ and the kinds it covers."""
    draw = data.draw
    gens = [tuple(draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(n)]
    assume(rank(gens) == n)
    kinds = {f"dim {n}", f"det sign {ref.det(sorted(map(primitive, gens))) > 0}"}
    extra = []
    if n >= 2 and draw(st.booleans()):
        extra = [tuple(x + y for x, y in zip(gens[0], gens[1]))]
        kinds.add("double description")
    cone = t.make_cone(n, gens + extra)
    assert len(cone.rays) == cone.dim == n
    boundary = [draw(st.sampled_from(COEFFS)) for _ in cone.rays]
    if any(boundary):
        kinds.add("boundary")
    lattice = None
    if draw(st.booleans()):
        k = draw(st.integers(2, 3))
        lattice = linalg.lattice_from_generators(n, [[Fraction(draw(st.integers(0, k - 1)), k) for _ in range(n)]])
        kinds.add("lattice_extra" if not lattice.is_standard else "trivial lattice_extra")
    try:
        germ = t.make_germ(cone, boundary, lattice)
    except ValidationError:  # a ray that is not primitive in N
        assume(False)
    return germ, kinds


def test_simplicial_fast_paths_match_the_eliminations():
    """L from the facets equals the solve, the one cell's (d, w) equals
    its dual basis, and the base case of the decomposition equals the
    solve of m over the rays; dims 1-6, boundaries, lattice_extra and
    cones built by the double description all occur."""
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6), st.data())
    def check(n, data):
        germ, kinds = _simplicial_germ(data, n)
        rb = germ.rebased
        assert (rb.cone, rb.l_num, rb.den) == ref.rebased_by_solve(germ)
        cone = rb.cone
        assert cone.dim == cone.n == len(cone.rays)
        assert invariants._cells(cone) == [tuple(range(n))]
        v = list(cone.rays)
        d, w, h = invariants._cell_dual(cone, v)
        assert (d, tuple(map(tuple, w))) == linalg.dual_basis(v)
        assert tuple(h) == tuple(row[j] for j, row in enumerate(linalg.hnf(v)))
        # an interior point with fractional coordinates over the rays
        coeffs = [data.draw(st.integers(1, 4)) for _ in v]
        shift = [data.draw(st.integers(-1, 1)) for _ in range(n)]
        m = tuple(sum(a * r[j] for a, r in zip(coeffs, v)) + s for j, s in enumerate(shift))
        assume(t.membership(cone, m) is t.Membership.RELATIVE_INTERIOR)
        k0, rows = structure._decompose_rec(cone, m, cone.rays)
        assert (k0, rows) == ref.simplicial_rows_by_solve(cone, m)
        seen.update(kinds)
        seen["fractional coordinates"] += k0 > 1

    check()
    kinds = ["det sign True", "det sign False", "double description", "boundary", "lattice_extra",
             "fractional coordinates"] + [f"dim {n}" for n in range(1, 7)]
    assert all(seen[kind] for kind in kinds), seen


def test_rebased_matches_the_solve_on_the_oracle_corpus():
    """Simplicial germs read L off their facets and the others solve for
    it with ``solve_scaled``; both give the reference's minimal (l_num, den)."""
    half = Fraction(1, 2)
    extended = [t.make_germ(height_cone_germ(n, s).cone, None,
                            linalg.lattice_from_generators(n, [[half, half] + [0] * (n - 2)]))
                for n in (3, 4) for s in range(4)]  # height-one rays stay primitive
    seen = Counter()
    for germ in oracle_corpus() + extended + [t.family("ex4", n) for n in range(2, 7)]:
        rb = germ.rebased
        assert (rb.cone, rb.l_num, rb.den) == ref.rebased_by_solve(germ)
        seen[len(rb.cone.rays) == rb.cone.n, germ.lattice.is_standard] += 1
    assert len(seen) == 4, seen


def test_lower_dimensional_simplicial_base_case_solves():
    """A cone of k < n independent rays is simplicial in its span, and its
    base case is the solve: its facets are not opposite its rays."""
    seen = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 6), st.data())
    def check(n, data):
        k = data.draw(st.integers(1, n - 1))
        gens = [tuple(data.draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(k)]
        assume(rank(gens) == k)
        cone = t.make_cone(n, gens)
        coeffs = [data.draw(st.integers(1, 4)) for _ in cone.rays]
        m = tuple(sum(a * r[j] for a, r in zip(coeffs, cone.rays)) for j in range(n))
        assert cone.dim == k < n
        assert structure._decompose_rec(cone, m, cone.rays) == ref.simplicial_rows_by_solve(cone, m)
        seen[(n, k)] += 1

    check()
    assert len(seen) >= 10, seen


def test_simplicial_base_case_in_integers_matches_the_solve():
    """The base case reads d * x in integers, off the facets when dim = n
    and off ``solve_scaled`` when dim < n, and returns k0 = d / gcd(d, y)
    with rows y / gcd(d, y): the lcm of the denominators of the Fraction
    solve and k0 times its coordinates, each placed at its ray among the
    top cone's rays, whatever their order and however many others there
    are.  Each m is a positive ray combination, as it is and divided by
    the gcd of its entries, so its coordinates are integers with a common
    factor or often fractional."""
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 5), st.data())
    def check(n, data):
        k = data.draw(st.integers(1, n))
        gens = [tuple(data.draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(k)]
        assume(rank(gens) == k)
        cone = t.make_cone(n, gens)
        coeffs = [data.draw(st.integers(1, 4)) for _ in cone.rays]
        m = [sum(a * r[j] for a, r in zip(coeffs, cone.rays)) for j in range(n)]
        others = [tuple(data.draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(2)]
        others = [primitive(v) for v in others if any(v)]
        top = list(dict.fromkeys(list(cone.rays) + others))
        top = [top[i] for i in data.draw(st.permutations(range(len(top))))]
        branch = "facets" if k == n else "solve"
        for point in dict.fromkeys([tuple(m), primitive(m)]):
            k0, rows = structure._decompose_rec(cone, point, top)
            k0_ref, diag = ref.simplicial_rows_by_solve(cone, point)
            assert k0 == k0_ref
            assert rows == [[row[i] if r == ray else 0 for r in top] for i, (row, ray) in enumerate(zip(diag, cone.rays))]
            seen[branch, "k0 > 1"] += k0 > 1
            seen[branch, "integral with a common factor"] += k0 == 1 and math.gcd(*map(sum, rows)) > 1
        seen[branch, "more top rays"] += len(top) > k

    check()
    kinds = ("k0 > 1", "integral with a common factor", "more top rays")
    assert all(seen[b, kind] for b in ("facets", "solve") for kind in kinds), seen


# ---------------------------------------------------------------------------
# a cone with n rays that does not span Q^n


DEGENERATE = {"dim": 4, "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]]}


def _run(argv, doc):
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(json.dumps(doc))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), _stdin(stdin):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _stdin(stream):
    saved, sys.stdin = sys.stdin, stream
    try:
        yield
    finally:
        sys.stdin = saved


def test_a_rank_three_cone_with_four_rays_in_q4_is_not_full_dimensional():
    cone = t.make_cone(4, DEGENERATE["rays"])
    assert len(cone.rays) == cone.n == 4 and cone.dim == 3
    for argv in (["mld", "-"], ["window", "-", "--low", "1", "--high", "2"],
                 ["decompose", "-", "--point", "2,2,2,0"], ["blowup", "-"]):
        code, out, err = _run(argv, DEGENERATE)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: NotFullDimensional:"), (argv, err)
    code, out, _ = _run(["check", "-", "--epsilon", "1/2", "--delta", "1/2"], DEGENERATE)
    assert code == 0 and json.loads(out)["classification"] == "Degenerate"
    code, out, _ = _run(["pi1", "-"], DEGENERATE)
    assert code == 0 and json.loads(out)["free_rank"] == 1
    with pytest.raises(ToricError):
        t.make_germ(cone).rebased


# ---------------------------------------------------------------------------
# work counts


@pytest.fixture
def eliminations(monkeypatch):
    """A list that collects one entry per call of linalg._eliminate."""
    calls = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *a: calls.append(1) or real(*a))
    return calls


SIMPLICIAL_DOCS = [
    {"dim": 2, "rays": [[1, 0], [1, 4]], "boundary": ["1/2", "0"]},
    {"dim": 2, "rays": [[-1, 4], [1, 4]]},
    {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [1, 1, 3]]},
    {"dim": 3, "rays": [[0, 1, 0], [1, 0, 0], [1, 2, 5]], "boundary": ["0", "2/3", "1/2"]},
    {"dim": 4, "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 5]], "boundary": ["0", "1/3", "0", "1/2"]},
]


COMMANDS = [["mld", "-"], ["window", "-", "--low", "1", "--high", "2"], ["pi1", "-"],
            ["check", "-", "--epsilon", "1/2", "--delta", "1/2"]]


def _half_extra(n):
    """lattice_extra (1/2, 1/2, 0, ...), which keeps every ray of these documents primitive."""
    return [["1/2", "1/2"] + ["0"] * (n - 2)]


@pytest.mark.parametrize("doc", SIMPLICIAL_DOCS, ids=[f"dim{doc['dim']}-{i}" for i, doc in enumerate(SIMPLICIAL_DOCS)])
def test_one_elimination_per_command_on_simplicial_germs(doc, eliminations):
    """make_cone's dual basis of the rays is the only linear solve: L, the
    box points and π₁ read the rest off the facets, cofactors and
    determinantal divisors, and with lattice_extra the rebased cone is
    mapped from the parsed one.  In dims 2 to 4 that dual basis is the
    cofactors, so no command runs an elimination."""
    for argv in COMMANDS:
        for d in (doc, dict(doc, lattice_extra=_half_extra(doc["dim"]))):
            eliminations.clear()
            assert _run(argv, d)[0] == 0
            assert len(eliminations) == 0, (argv, d)


def _calls(run, *funcs):
    """run() and the number of calls of each function, counted by code
    object, so that every module's imported name counts as well."""
    codes = {f.__code__: f.__name__ for f in funcs}
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, counts


@pytest.mark.parametrize("doc", SIMPLICIAL_DOCS + [{"dim": 3, "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]}],
                         ids=[f"dim{doc['dim']}-{i}" for i, doc in enumerate(SIMPLICIAL_DOCS)] + ["square"])
def test_a_lattice_extended_command_builds_its_cone_once(doc):
    """With lattice_extra, mld, window and check build the cone once, at
    parsing, and express each ray in N once, in make_germ: the rebased
    cone maps the parsed one's facets and reuses the germ's coordinates."""
    d = dict(doc, lattice_extra=_half_extra(doc["dim"]))
    for argv in [a for a in COMMANDS if a[0] != "pi1"]:  # pi1 also expresses the rays in O
        (code, _, err), counts = _calls(lambda: _run(argv, d), cones.make_cone, linalg.express_in_basis)
        assert code == 0, (argv, err)
        assert counts == {"make_cone": 1, "express_in_basis": len(d["rays"])}, (argv, counts)


def test_one_elimination_per_tested_subset_of_the_full_rank_search(monkeypatch, eliminations):
    """Each full-rank subtree test of the trichotomy's search reads rank U
    and m's coordinates over U off one solve of U^T x = m: a square U of
    size at most 4 solves by cofactors, without an elimination, unless it
    is singular (in Q^4, rays 0 + 4 = rays 2 + 3 in the cone's order),
    when it takes one elimination of [U^T | m] for its rank; a U with
    fewer than dim rays is refused without a solve.  Each cone has n + 1
    rays, so no tested U has more than n rays and none builds a cone."""
    counts = []
    real = structure._subtree_hits

    def counted(c, m, full, p, u):
        before = len(eliminations)
        hit = real(c, m, full, p, u)
        if full:
            n = len(eliminations) - before
            counts.append((len(u) >= c.dim, len(u) == c.dim and not linalg.det([c.rays[i] for i in u]), n))
        return hit

    monkeypatch.setattr(structure, "_subtree_hits", counted)
    cases = [
        ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 0, 1), (1, 1, 4), (1, 0, 3)]),
        ([(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 0, 1), (0, 1, 1, 1)], [(2, 3, 2, 5), (1, 2, 1, 3)]),
    ]
    for rays, points in cases:
        c = t.make_cone(len(rays[0]), rays)
        assert len(c.rays) == c.n + 1
        for m in points:
            counts.clear()
            t.trichotomy(c, m)
            assert counts and all(n == singular for _, singular, n in counts), (rays, m, counts)
            assert any(long for long, _, _ in counts)
            assert c.n == 3 or {singular for long, singular, _ in counts if long} == {False, True}


def _counted_ranks(monkeypatch):
    """A list that collects the rows of each structure.rank call; more
    than ten calls stop a walk that does not end."""
    ranks = []

    def counted(rows):
        ranks.append(rows)
        if len(ranks) > 10:
            raise AssertionError("the spanning-pair walk does not end")
        return rank(rows)

    monkeypatch.setattr(structure, "rank", counted)
    return ranks


def test_the_spanning_pair_walk_reads_the_ranks_it_has(monkeypatch, eliminations):
    """The trichotomy of the four-ray cone at (1, 1, 0) is a spanning pair.
    rho is read off one elimination of tau1's rays followed by the cone's,
    and each subtree test of either rank is one solve: one rank call, the
    spanning check, and 11 eliminations, where 21 before the solves of
    nonsingular 3x3 systems took cofactors.  A walk whose rho does not
    raise the rank never ends, so the count stops it."""
    ranks = _counted_ranks(monkeypatch)
    c = t.make_cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    eliminations.clear()
    assert isinstance(t.trichotomy(c, (1, 1, 0)), structure.SpanningPair)
    assert (len(ranks), len(eliminations)) == (1, 11)


def test_the_merge_reads_one_elimination(monkeypatch, eliminations):
    """decompose of the four-ray germ at (1, 1, 0) merges a spanning pair
    with one elimination of both halves' vectors, and adds the unused
    vector to row 0 without a solve, so its rank calls are the spanning
    check and the validation's: 2 rank calls and 16 eliminations.
    Re-ranking the growing basis took 7 and 30, a solve for the replaced
    row 2 and 28, and the cofactors of 3x3 systems take 11 of those."""
    germ = t.make_germ(t.make_cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]))
    germ.rebased
    ranks = _counted_ranks(monkeypatch)
    eliminations.clear()
    d = t.decompose(germ, (1, 1, 0))
    assert d.coefficients == ((1, 0, 1, 0), (0, 0, 0, 1), (0, 1, 0, 0))
    assert (len(ranks), len(eliminations)) == (2, 16)
