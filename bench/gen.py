"""Seeded input generator: ``python3 bench/gen.py WORKLOAD SEED OUTDIR [--tiny]``.

Writes ``OUTDIR/inputs.json`` (the CLI operations: argv, stdin text and
instance count) and ``OUTDIR/expect.json`` (one reference per operation,
read by ``check.py`` only after the timed loop).  The same seed gives
byte-identical files.  References are computed here, untimed: mld and
window answers by the brute-force ``toricmld.oracle``, group orders and
the example families by the closed forms in ``check.py``.  Germs whose
naive oracle search box exceeds a cap are redrawn, as in the test suite's
corpora, which keeps generation to a few seconds.

Points are passed as ``--point=<coords>``: argparse reads
``--point -1,0,2`` as an unknown option, so the separate form fails on a
negative first coordinate.
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import check  # noqa: E402
from toricmld import lab, oracle  # noqa: E402
from toricmld.errors import ToricError  # noqa: E402
from toricmld.germio import germ_doc, parse_germ  # noqa: E402

COEFFS = ("1/2", "2/3", "3/4")
GRID = (("1/2", "1/4"), ("1/3", "1/2"), ("1/2", "3/4"))

BOX_CAP = 4_000  # largest naive oracle search box of a generated germ

# query: (dim, max generators, coordinate bound, ops per command)
QUERY_DIMS = ((2, 4, 5, 32), (3, 5, 2, 32), (4, 5, 1, 16))
QUERY_COMMANDS = ("mld", "window", "pi1", "check")
QUERY_NOT_Q_CARTIER = 6  # extra mld operations per dimension 3 and 4

# structure: (dim, number of rays, height-one spread, germs); plus the two
# fixed non-simplicial cones of the test suite and a few simplicial germs
STRUCTURE_HEIGHT_ONE = ((3, 4, 2, 8), (3, 5, 2, 2), (4, 5, 1, 2))
STRUCTURE_FIXED = (
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]],
    [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
)
STRUCTURE_SIMPLICIAL = 3

# scan: family ladder (one spec per parameter) and sampler specs
SCAN_LADDER = (
    [("ex1", p) for p in (10, 30, 100, 300, 1000, 3000)]
    + [(name, p) for name in ("ex2", "ex3", "ex4") for p in range(2, 9)]
)
# one sampler spec per dimension: (n, max_rays, coord_bound, count)
SCAN_SAMPLER = ((2, 4, 5, 24), (3, 5, 2, 24), (4, 5, 1, 24))


def q_str(x) -> str:
    return str(Fraction(x))


def coords(p) -> list:
    return [int(x) if Fraction(x).denominator == 1 else q_str(x) for x in p]


def doc_text(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def box_volume(doc) -> int:
    """Size of the integer box around the level set {L <= L(ray sum)}."""
    n = doc["dim"]
    values = check.solve(doc["rays"], [1 - b for b in check.boundary(doc)])
    lv = [sum(a * b for a, b in zip(values, r)) for r in doc["rays"]]
    bound = sum(lv)
    verts = [[Fraction(0)] * n] + [[bound * x / v for x in r] for r, v in zip(doc["rays"], lv)]
    vol = 1
    for j in range(n):
        vol *= math.ceil(max(v[j] for v in verts)) - math.floor(min(v[j] for v in verts)) + 1
    return vol * check.covolume(
        [[int(i == k) for k in range(n)] for i in range(n)] + check.extras(doc), n
    ).denominator


_GERMS = {}


def germ_of(doc):
    """The parsed germ of a canonical document (memoised per document)."""
    text = doc_text(doc)
    if text not in _GERMS:
        _GERMS[text] = parse_germ(text)
    return _GERMS[text]


def random_doc(rng, n, max_rays, coord_bound, boundary=True):
    """Random Q-Cartier germ over at most max_rays generators.

    Generators have a positive last coordinate, so the cone is pointed.
    Two thirds of the draws are simplicial; the rest are height-one cones
    (last coordinate 1), Q-Cartier for an empty boundary and usually
    non-simplicial.  About half of the draws get a boundary.  Returns the
    canonical document (extremal rays), used for the references, and the
    document sent to the CLI, which keeps the non-extremal generators when
    there is no boundary.  Germs whose search box exceeds BOX_CAP points
    are redrawn.
    """
    while True:
        height_one = rng.random() < 1 / 3
        gens = [
            [rng.randint(-coord_bound, coord_bound) for _ in range(n - 1)]
            + [1 if height_one else rng.randint(1, coord_bound)]
            for _ in range(rng.randint(n, max_rays) if height_one else n)
        ]
        if check.rank(gens) < n:
            continue
        if height_one:
            rays = [list(r) for r in parse_germ(doc_text({"dim": n, "rays": gens})).cone.rays]
        else:  # independent generators are the extremal rays
            rays = sorted(check.primitive(g) for g in gens)
        doc = {"dim": n, "rays": rays}
        sent = {"dim": n, "rays": gens}
        if boundary and rng.random() < 0.5:
            for _ in range(4):
                coeffs = [rng.choice(("0",) + COEFFS) for _ in doc["rays"]]
                if any(c != "0" for c in coeffs) and check.q_cartier(dict(doc, boundary=coeffs)):
                    doc["boundary"] = coeffs
                    sent = doc
                    break
        if check.q_cartier(doc) and box_volume(doc) <= BOX_CAP:
            return doc, sent


def lattice_extra(rng, doc):
    """A row v/k extending N such that every ray stays primitive in N.

    N lies in (1/k) Z^n with k prime, so a ray r (primitive in Z^n)
    fails to be primitive in N exactly when r/k is in N, that is
    r = j v mod k for some j in 1..k-1.
    """
    n = doc["dim"]
    for _ in range(20):
        k = rng.choice((2, 3))
        v = [rng.randrange(k) for _ in range(n)]
        if not any(v) or any(
            all((x - j * y) % k == 0 for x, y in zip(r, v))
            for r in doc["rays"]
            for j in range(1, k)
        ):
            continue
        return [[q_str(Fraction(x, k)) for x in v]]
    return None


def not_q_cartier_doc(rng, n, max_rays):
    """A non-simplicial height-one germ with a boundary no functional fits."""
    while True:
        gens = [[rng.randint(-1, 1) for _ in range(n - 1)] + [1] for _ in range(max_rays)]
        if check.rank(gens) < n:
            continue
        rays = [list(r) for r in parse_germ(doc_text({"dim": n, "rays": gens})).cone.rays]
        if len(rays) == n:
            continue
        for _ in range(10):
            doc = {"dim": n, "rays": rays, "boundary": [rng.choice(("0",) + COEFFS) for _ in rays]}
            if not check.q_cartier(doc):
                return doc


def height_one_doc(rng, dim, n_rays, spread):
    """Cone over random lattice points at height one, with n_rays rays."""
    while True:
        pts = {tuple(rng.randint(0, spread) for _ in range(dim - 1)) for _ in range(n_rays + 2)}
        try:
            germ = parse_germ(doc_text({"dim": dim, "rays": [list(p) + [1] for p in pts]}))
        except ToricError:
            continue
        if len(germ.cone.rays) == n_rays:
            return germ_doc(germ)


def oracle_mld(doc):
    value, mins = oracle.oracle_mld(germ_of(doc))
    return Fraction(value), [coords(p) for p in mins]


def oracle_window(doc, low, high):
    pts = oracle.oracle_window(germ_of(doc), Fraction(low), Fraction(high))
    return [[coords(p), q_str(v)] for p, v in pts]


# ---------------------------------------------------------------------------
# workloads


def query_ops(rng, tiny):
    slots = []
    for dim, max_rays, cb, count in QUERY_DIMS:
        count = 1 if tiny else count
        for cmd in QUERY_COMMANDS:
            slots += [(dim, max_rays, cb, cmd, i % 4 == 0) for i in range(count)]
        if dim >= 3:
            slots += [(dim, max_rays, cb, "nqc", False)] * (1 if tiny else QUERY_NOT_Q_CARTIER)
    seen = set()
    ops = []
    for dim, max_rays, cb, cmd, extra in slots:
        while True:
            if cmd == "nqc":
                doc = sent = not_q_cartier_doc(rng, dim, max_rays)
            else:
                doc, sent = random_doc(rng, dim, max_rays, cb)
            if extra:
                row = lattice_extra(rng, doc)
                if row is None:
                    continue
                doc, sent = dict(doc, lattice_extra=row), dict(sent, lattice_extra=row)
                if box_volume(doc) > BOX_CAP:
                    continue
            text = doc_text(sent)
            if text not in seen:
                seen.add(text)
                break
        ops.append(query_op(cmd, doc, text))
    return ops


def query_op(cmd, doc, text):
    if cmd == "nqc":
        return ["mld", "-"], text, {"kind": "mld", "error": "NotQCartier"}
    if cmd == "mld":
        value, mins = oracle_mld(doc)
        return ["mld", "-"], text, {"kind": "mld", "mld": q_str(value), "minimizers": mins}
    if cmd == "window":
        exp = {"kind": "window", "points": oracle_window(doc, 1, 2)}
        return ["window", "-", "--low", "1", "--high", "2"], text, exp
    if cmd == "pi1":
        return ["pi1", "-"], text, {"kind": "pi1", "order": check.pi1_order(doc)}
    value, _ = oracle_mld(doc)
    exp = {
        "kind": "check",
        "mld": q_str(value),
        "epsilon": "1/2",
        "window_count": len(oracle_window(doc, value, value + Fraction(1, 2))),
        "pi1_order": check.pi1_order(doc),
    }
    return ["check", "-", "--epsilon", "1/2", "--delta", "1/2"], text, exp


def structure_ops(rng, tiny):
    docs = [{"dim": 3, "rays": rays} for rays in STRUCTURE_FIXED]
    for dim, n_rays, spread, count in STRUCTURE_HEIGHT_ONE:
        docs += [height_one_doc(rng, dim, n_rays, spread) for _ in range(1 if tiny else count)]
    docs += [random_doc(rng, 3, 3, 2)[0] for _ in range(1 if tiny else STRUCTURE_SIMPLICIAL)]
    if tiny:
        docs = docs[1:]
    ops = []
    for doc in docs:
        text = doc_text(doc)
        n = doc["dim"]
        ray_sum = [sum(col) for col in zip(*doc["rays"])]
        minimizer = oracle_mld(doc)[1][0]
        base = {"dim": n, "rays": doc["rays"]}
        for p in (ray_sum, minimizer):
            arg = "--point=" + ",".join(str(x) for x in p)
            ops.append((["decompose", "-", arg], text, dict(base, kind="decompose", point=p)))
        p = rng.choice((ray_sum, minimizer))
        arg = "--point=" + ",".join(str(x) for x in p)
        ops.append((["trichotomy", "-", arg], text, dict(base, kind="trichotomy")))
        exp = dict(base, kind="blowup", m=minimizer, pi1_order=check.pi1_order(doc))
        ops.append((["blowup", "-"], text, exp))
    return ops


def scan_expect(germs, grid):
    """Reference report for (doc, mld, {delta: window count}, pi1) germs."""
    cells = {}
    violates = 0
    for doc, mld, windows, pi1 in germs:
        for eps, delta in grid:
            if mld <= Fraction(eps):
                violates += 1
                continue
            key = (doc["dim"], windows[delta], eps, delta)
            cell = cells.setdefault(key, {"instances": 0, "max_pi1": 0, "witnesses": []})
            cell["instances"] += 1
            if pi1 > cell["max_pi1"]:
                cell["max_pi1"], cell["witnesses"] = pi1, []
            if pi1 == cell["max_pi1"]:
                cell["witnesses"].append(doc)
    rows = [
        dict(n=n, N=count, epsilon=eps, delta=delta, **cell)
        for (n, count, eps, delta), cell in sorted(cells.items())
    ]
    return {"kind": "scan", "cells": rows, "degenerate": 0, "violates_mld": violates}


def scan_ops(rng, tiny):
    grid = [{"epsilon": e, "delta": d} for e, d in GRID]
    deltas = [d for _, d in GRID]
    ladder = SCAN_LADDER if not tiny else [("ex1", 10), ("ex2", 3), ("ex3", 4), ("ex4", 3)]
    ops = []
    for name, p in ladder:
        spec = {"families": [{"name": name, "param_range": [p, p]}], "grid": grid}
        windows = {d: check.family_window(name, p, Fraction(d)) for d in deltas}
        germ = (check.family_doc(name, p), check.family_mld(name, p), windows,
                check.family_pi1(name, p))
        ops.append((spec, scan_expect([germ], GRID), len(GRID)))
    for n, max_rays, cb, count in SCAN_SAMPLER:
        count = 2 if tiny else count
        while True:
            seed = rng.randrange(1 << 30)
            try:
                docs = [germ_doc(lab.sample_random(n, max_rays, cb, seed + i)) for i in range(count)]
            except ToricError:
                continue
            break
        germs = []
        for doc in docs:
            mld, _ = oracle_mld(doc)
            values = [Fraction(v) for _, v in oracle_window(doc, mld, mld + max(map(Fraction, deltas)))]
            windows = {d: sum(v < mld + Fraction(d) for v in values) for d in deltas}
            germs.append((doc, mld, windows, check.pi1_order(doc)))
        sampler = {"n": n, "max_rays": max_rays, "coord_bound": cb, "count": count, "seed": seed}
        ops.append(({"sampler": sampler, "grid": grid}, scan_expect(germs, GRID), count * len(GRID)))
    return [(["scan", "--spec", "-"], doc_text(spec), exp, k) for spec, exp, k in ops]


def generate(workload: str, seed: int, tiny: bool = False):
    rng = random.Random(f"{workload}/{seed}")
    if workload == "query":
        ops = [op + (1,) for op in query_ops(rng, tiny)]
    elif workload == "structure":
        ops = [op + (1,) for op in structure_ops(rng, tiny)]
    elif workload == "scan":
        ops = scan_ops(rng, tiny)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    inputs = [{"argv": argv, "stdin": text, "instances": k} for argv, text, _, k in ops]
    expect = [exp for _, _, exp, _ in ops]
    return inputs, expect


def main(argv) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    inputs, expect = generate(workload, seed, tiny="--tiny" in argv[3:])
    out.mkdir(parents=True, exist_ok=True)
    (out / "inputs.json").write_text(json.dumps(inputs))
    (out / "expect.json").write_text(json.dumps(expect, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
