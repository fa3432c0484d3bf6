"""The regional fundamental group: its order from two Hermite diagonals
(``pi1_order``) and its invariant factors (``pi1_reg``), checked against a
listing of the group that uses no normal form (``pi1_reference``) and
against each other; the orbifold lattice of a germ with every n_ray = 1,
which is N itself, checked against the Hermite construction it skips
(``nf_reference.orbifold``); and work counts that pin ``check`` and
``scan`` to no Smith form."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from conftest import germs
from hypothesis import given, settings

import nf_reference
import pi1_reference as ref
import toricmld as t
from toricmld import cli, invariants, linalg
from toricmld.errors import NotFullDimensional

REFERENCE_CAP = 2_000  # largest group_bound the listing is run on
KINDS = ("boundary", "extended lattice", "non-simplicial", "several factors")


def _kinds(germ, factors) -> set:
    kinds = {f"dim {germ.dim}"}
    if any(germ.boundary):
        kinds.add("boundary")
    if not germ.lattice.is_standard:
        kinds.add("extended lattice")
    if len(germ.cone.rays) > germ.dim:
        kinds.add("non-simplicial")
    if len(factors) >= 2:
        kinds.add("several factors")
    return kinds


def test_pi1_matches_the_group_listing():
    seen = Counter()

    @settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @given(germs(min_dim=2))
    def check(germ):
        if ref.group_bound(germ) > REFERENCE_CAP:
            seen["skipped"] += 1
            return
        factors = ref.pi1_factors(germ)
        group = t.pi1_reg(germ)
        assert (group.invariant_factors, group.free_rank) == (factors, 0)
        assert t.pi1_order(germ) == group.order == math.prod(factors)
        seen.update(_kinds(germ, factors))

    check()
    assert all(seen[kind] for kind in KINDS), seen
    assert seen["skipped"] < 50, seen


def test_pi1_order_and_the_orbifold_short_cut_match_the_slow_paths():
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(germs(min_dim=2))
    def check(germ):
        assert germ.orbifold == nf_reference.orbifold(germ)
        if all(t.multiplicity(b) == 1 for b in germ.boundary):
            assert germ.orbifold is germ.lattice
            seen["orbifold is N"] += 1
        group = t.pi1_reg(germ)
        assert t.pi1_order(germ) == group.order
        seen.update(_kinds(germ, group.invariant_factors))
        seen["orbifold above N"] += germ.orbifold != germ.lattice

    check()
    kinds = KINDS + ("orbifold is N", "orbifold above N") + tuple(f"dim {n}" for n in range(2, 6))
    assert all(seen[kind] for kind in kinds), seen


@pytest.mark.parametrize("n", range(2, 9))
def test_pi1_order_of_the_extended_orthant(n):
    # the orthant in Z^n + Z (1/n, ..., 1/n): N has denominator n, and the group is Z/n
    germ = t.family("ex4", n)
    assert germ.orbifold.den == n
    assert t.pi1_order(germ) == t.pi1_reg(germ).order == n


def _counting(monkeypatch, name) -> list:
    """Record every call of ``linalg.<name>``, through each package module
    that holds it."""
    calls = []
    real = getattr(linalg, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in [m for key, m in sys.modules.items() if key.startswith("toricmld")]:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


def _run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


DOCS = [
    {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]],
     "lattice_extra": [["1/2", "1/2", "0"]]},
    {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [1, 1, 4]], "boundary": ["1/2", "0", "2/3"]},
    {"dim": 2, "rays": [[1, 0], [2, 5]], "lattice_extra": [["1/3", "2/3"]]},
]


def test_check_and_scan_take_no_smith_form(monkeypatch):
    smith = _counting(monkeypatch, "snf")
    for doc in DOCS:
        code, out, _ = _run(["check", "-", "--epsilon", "1/4", "--delta", "1/2"], json.dumps(doc))
        assert code == 0 and int(json.loads(out)["pi1_order"]) > 1
    spec = {"families": [{"name": name, "param_range": [2, 6]} for name in ("ex1", "ex2", "ex3", "ex4")],
            "grid": [{"epsilon": "1/2", "delta": "1/2"}]}
    code, out, _ = _run(["scan", "--spec", "-"], json.dumps(spec))
    assert code == 0 and max(cell["max_pi1"] for cell in json.loads(out)["cells"]) > 1
    assert smith == []
    # the pi1 command still reads the invariant factors off the Smith form
    assert _run(["pi1", "-"], json.dumps(DOCS[0]))[0] == 0 and len(smith) == 1


def test_an_orbifold_with_every_n_ray_one_is_n_and_takes_no_hermite_form(monkeypatch):
    hermite = _counting(monkeypatch, "hnf")
    lattice = t.lattice_from_generators(2, [(F(1, 3), F(2, 3))])
    cone = t.make_cone(2, [(1, 0), (2, 5)])
    for boundary in ([0, 0], [F(1, 3), F(2, 5)]):  # n_ray = floor(1 / (1 - b)) = 1
        germ = t.make_germ(cone, boundary, lattice)
        before = len(hermite)
        assert germ.orbifold is lattice and len(hermite) == before
    germ = t.make_germ(cone, [F(1, 2), 0], lattice)
    before = len(hermite)
    assert germ.orbifold != lattice and len(hermite) == before + 1


FLAT = [
    (4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0)]),  # rank 3, four rays
    (3, [(1, 0, 0), (0, 1, 0)]),  # fewer rays than the dimension
    (3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
]


@pytest.mark.parametrize("n, rays", FLAT, ids=["rank-3-in-q4", "two-rays-in-q3", "plane-in-q3"])
def test_pi1_order_of_a_cone_that_does_not_span(n, rays):
    germ = t.make_germ(t.make_cone(n, rays))
    with pytest.raises(NotFullDimensional):
        t.pi1_order(germ)
    assert t.pi1_reg(germ).free_rank >= 1
    doc = json.dumps({"dim": n, "rays": [list(r) for r in rays]})
    code, out, _ = _run(["check", "-", "--epsilon", "1/2", "--delta", "1/2"], doc)
    assert code == 0 and json.loads(out)["classification"] == "Degenerate"
    code, out, _ = _run(["pi1", "-"], doc)
    assert code == 0 and json.loads(out)["free_rank"] >= 1


def test_pi1_order_does_not_span_under_python_o():
    """The rank test is no assert: under ``python -O`` it still raises."""
    src = str(Path(invariants.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import toricmld as t\n"
        "from toricmld.errors import NotFullDimensional\n"
        f"for n, rays in {FLAT!r}:\n"
        "    try:\n"
        "        t.pi1_order(t.make_germ(t.make_cone(n, rays)))\n"
        "    except NotFullDimensional:\n"
        "        print('raised')\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "raised\n" * len(FLAT), "")
