"""Instance checking and scanning for the boundedness hypotheses.

An instance is a germ together with thresholds (epsilon, delta).  The
checker computes the minimal log discrepancy, the number of divisorial
valuations with log discrepancy in [mld, mld + delta), and the order of
the regional fundamental group, then classifies the instance.  A scan
folds many instances into per-cell maxima of the group order, where a
cell is (dimension, realized window count, epsilon, delta).

The window counts cover toric divisorial valuations only; this caveat
is recorded in every scan report.
"""

from __future__ import annotations

import json
import random
from enum import Enum
from fractions import Fraction
from itertools import chain, groupby
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from .cones import make_cone
from .errors import (
    BadParam,
    EmptyInput,
    NotFullDimensional,
    NotQCartier,
    NotStronglyConvex,
    ParseError,
    SamplingExhausted,
    ValidationError,
    ZeroVector,
)
from .germio import format_q, germ_doc, parse_int, parse_q
from .invariants import ToricGerm, make_germ, mld_window_counts, pi1_order
from .linalg import as_rational, identity, lattice_from_generators

SCOPE_NOTE = "window counts cover toric divisorial valuations only"

_COEFF_CHOICES = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))

# the sampler draws up to this many vectors per attempt
MAX_SAMPLER_RAYS = 32


class _InstanceFields(NamedTuple):
    germ: ToricGerm
    epsilon: Fraction
    delta: Fraction


class ConjectureInstance(_InstanceFields):  # a NamedTuple's own body may not define __new__
    def __new__(cls, germ: ToricGerm, epsilon, delta):
        epsilon, delta = as_rational(epsilon, "epsilon"), as_rational(delta, "delta")
        _check_thresholds(epsilon, delta)
        return super().__new__(cls, germ, epsilon, delta)


def _check_thresholds(epsilon: Fraction, delta: Fraction):
    if not epsilon.numerator > 0:
        raise ValidationError("epsilon must be positive")
    p, q = delta.as_integer_ratio()
    if not (0 < p < q):
        raise ValidationError("delta must lie in (0, 1)")


class Classification(Enum):
    SATISFIES = "Satisfies"
    VIOLATES_MLD = "ViolatesMld"
    DEGENERATE = "Degenerate"


class InstanceResult(NamedTuple):
    mld_value: Fraction | None
    hypothesis_mld_ok: bool
    window_count: int | None
    pi1_order: int | None
    classification: Classification
    diagnostic: str = ""


def check_instance(inst: ConjectureInstance) -> InstanceResult:
    """Compute mld, window count and group order, and classify."""
    return _check_germ(inst.germ, [inst.delta])(inst)


def _check_germ(germ: ToricGerm, deltas: list[Fraction]):
    """One evaluation of the germ for the given deltas, as the function
    that gives the result of an instance on this germ."""
    try:
        value, counts = mld_window_counts(germ, deltas)
    except (NotQCartier, NotFullDimensional) as exc:
        degenerate = InstanceResult(
            None, False, None, None, Classification.DEGENERATE, str(exc)
        )
        return lambda inst: degenerate
    count_of = dict(zip(deltas, counts))
    order = pi1_order(germ)
    num, den = value.as_integer_ratio()

    def result(inst: ConjectureInstance) -> InstanceResult:
        p, q = inst.epsilon.as_integer_ratio()
        ok = num * q > p * den  # value > epsilon
        cls = Classification.SATISFIES if ok else Classification.VIOLATES_MLD
        return InstanceResult(value, ok, count_of[inst.delta], order, cls)

    return result


# ---------------------------------------------------------------------------
# instance sources


# The four boundary-free example families, name -> (largest param or None,
# germ builder); every one needs param >= 2.  ex1: 2-dim cone over (0,1),
# (n,1); ex2: 2-dim cone over (-1,n), (1,n); ex3: 3-dim cone over (1,0,0),
# (0,1,0), (1,1,r); ex4: the n-dim orthant with the ambient lattice
# extended by (1/n, ..., 1/n).
FAMILIES = {
    "ex1": (None, lambda n: make_germ(make_cone(2, [(0, 1), (n, 1)]))),
    "ex2": (None, lambda n: make_germ(make_cone(2, [(-1, n), (1, n)]))),
    "ex3": (None, lambda r: make_germ(make_cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, r)]))),
    "ex4": (8, lambda n: make_germ(
        make_cone(n, identity(n)), None, lattice_from_generators(n, [(Fraction(1, n),) * n])
    )),
}


def _check_family(name, lo: int, hi: int):
    """BadParam unless name is a family and each param in lo..hi is within
    its limits; the message names the first that is not, as a build would."""
    if not isinstance(name, str) or name not in FAMILIES:
        raise BadParam(f"unknown family {name!r}")
    top = FAMILIES[name][0]
    if lo <= hi and lo < 2 and top is None:
        raise BadParam(f"{name} needs param >= 2, got {lo}")
    if lo <= hi and top is not None and (lo < 2 or hi > top):
        raise BadParam(f"{name} needs 2 <= param <= {top}, got {lo if lo < 2 else max(lo, top + 1)}")


def family(name: str, param: int) -> ToricGerm:
    """The germ of the example family ``name`` at ``param``; see ``FAMILIES``."""
    _check_family(name, param, param)
    return FAMILIES[name][1](param)


def _check_sampler(n: int, max_rays: int, coord_bound: int):
    if not (2 <= n <= 5):
        raise BadParam(f"dimension {n} outside 2..5")
    if max_rays < n:
        raise BadParam("max_rays must be at least the dimension")
    if max_rays > MAX_SAMPLER_RAYS:
        raise BadParam(f"max_rays must be at most {MAX_SAMPLER_RAYS}")
    if coord_bound < 1:
        raise BadParam("coord_bound must be positive")


def sample_random(n: int, max_rays: int, coord_bound: int, seed: int) -> ToricGerm:
    """Deterministic pseudo-random germ.

    Draws up to max_rays integer vectors in the coordinate box, retries
    until the cone is strongly convex and full-dimensional, then draws a
    boundary (zero, or coefficients from the standard set) and retries
    the whole draw until the germ passes the Q-Cartier check.
    """
    _check_sampler(n, max_rays, coord_bound)
    rng = random.Random(seed)
    for _ in range(500):
        k = rng.randint(n, max_rays)
        vecs = [
            tuple(rng.randint(-coord_bound, coord_bound) for _ in range(n))
            for _ in range(k)
        ]
        try:
            cone = make_cone(n, vecs)
        except (ZeroVector, NotStronglyConvex, EmptyInput):
            continue
        if cone.dim < n:
            continue
        # the top bit of the first 32-bit word: random() < 0.5 without a float
        if not (rng.getrandbits(64) >> 31) & 1:
            boundary = None
        else:
            boundary = [rng.choice(_COEFF_CHOICES) for _ in cone.rays]
        germ = make_germ(cone, boundary)
        try:
            germ.rebased  # solves L, the Q-Cartier check, and keeps it for the scan
        except NotQCartier:
            continue
        return germ
    raise SamplingExhausted(
        f"no valid germ after 500 draws (n={n}, max_rays={max_rays}, "
        f"coord_bound={coord_bound}, seed={seed})"
    )


# ---------------------------------------------------------------------------
# scanning


class _Cell:
    def __init__(self, instances: int, max_pi1: int, witness: dict, witness_key: str):
        self.instances, self.max_pi1, self.witness, self.witness_key = instances, max_pi1, witness, witness_key

    def __eq__(self, other):  # a class with __eq__ and no __hash__ is unhashable
        return type(other) is type(self) and vars(other) == vars(self)


class ScanReport:
    """Per-cell maxima of the group order over satisfying instances: the
    scan's accumulator, which it folds into in place."""

    def __init__(self, cells: dict, degenerate: int = 0, violates_mld: int = 0):
        self.cells, self.degenerate, self.violates_mld = cells, degenerate, violates_mld

    __eq__ = _Cell.__eq__

    def to_doc(self) -> dict:
        rows = []
        for (n, bucket, eps, delta) in sorted(self.cells):
            cell = self.cells[(n, bucket, eps, delta)]
            rows.append(
                {
                    "n": n,
                    "N": bucket,
                    "epsilon": format_q(eps),
                    "delta": format_q(delta),
                    "instances": cell.instances,
                    "max_pi1": cell.max_pi1,
                    "witness": cell.witness,
                }
            )
        return {
            "cells": rows,
            "degenerate": self.degenerate,
            "violates_mld": self.violates_mld,
            "note": SCOPE_NOTE,
        }


def scan(instances: Iterable[ConjectureInstance]) -> ScanReport:
    """Fold instances into a report, streaming: each run of consecutive
    instances on one germ is evaluated once, for all of its deltas, and
    then dropped, so memory is bounded by the report.  The
    fold is a commutative merge, so the result is independent of the
    instance order."""
    report = ScanReport(cells={})
    for germ, run in groupby(instances, attrgetter("germ")):
        run = list(run)
        _fold_run(report, germ, run, _check_germ(germ, [inst.delta for inst in run]))
    return report


def _fold_run(report: ScanReport, germ: ToricGerm, run: list[ConjectureInstance], result):
    """Fold a run of instances on one germ, of results ``result(inst)``,
    into the report; the germ's witness document is built once."""
    witness = None
    for inst in run:
        res = result(inst)
        if res.classification is Classification.DEGENERATE:
            report.degenerate += 1
        elif res.classification is Classification.VIOLATES_MLD:
            report.violates_mld += 1
        else:
            if witness is None:
                doc = germ_doc(germ)
                witness = doc, json.dumps(doc, sort_keys=True, separators=(",", ":"))
            key = (germ.dim, res.window_count, inst.epsilon, inst.delta)
            cell = report.cells.setdefault(key, _Cell(0, 0, *witness))
            cell.instances += 1
            # ties broken by the canonical serialisation, so the witness
            # does not depend on the instance order
            if res.pi1_order > cell.max_pi1 or (
                res.pi1_order == cell.max_pi1 and witness[1] < cell.witness_key
            ):
                cell.max_pi1 = res.pi1_order
                cell.witness, cell.witness_key = witness


def instances_from_spec(spec: dict) -> Iterator[ConjectureInstance]:
    """Parse a scan specification, then stream its instances germ by germ.

    Shape: {"families": [{"name": .., "param_range": [lo, hi]}],
    "sampler": {"n", "max_rays", "coord_bound", "count", "seed"},
    "grid": [{"epsilon": "p/q", "delta": "p/q"}]}.  The whole spec is
    read and checked here, family names, param limits and sampler ranges
    included, before any germ is built; the returned
    iterator builds each germ when it is reached and yields one instance
    per grid point, in a deterministic order.
    """
    if not isinstance(spec, dict):
        raise ParseError(f"scan spec must be a JSON object, got {type(spec).__name__}")
    families = []
    for i, fam in enumerate(spec.get("families", [])):
        where = f"families[{i}].param_range"
        param_range = fam["param_range"]
        if not isinstance(param_range, list) or len(param_range) != 2:
            raise ParseError(f"{where}: expected [lo, hi]")
        lo, hi = (parse_int(x, where) for x in param_range)
        families.append((fam["name"], lo, hi))
    sampler, sampled = spec.get("sampler"), ()
    if sampler:
        count, n, max_rays, coord_bound, seed = (
            parse_int(sampler[k], f"sampler.{k}")
            for k in ("count", "n", "max_rays", "coord_bound", "seed")
        )
        sampled = (sample_random(n, max_rays, coord_bound, s) for s in range(seed, seed + count))
    grid = [
        (parse_q(g["epsilon"], f"grid[{i}].epsilon"), parse_q(g["delta"], f"grid[{i}].delta"))
        for i, g in enumerate(spec["grid"])
    ]
    for eps, delta in grid:
        _check_thresholds(eps, delta)
    # the germ parameters, in stream order, after every parse error
    for name, lo, hi in families:
        _check_family(name, lo, hi)
    if sampler and count > 0:
        _check_sampler(n, max_rays, coord_bound)
    germs = chain((family(name, p) for name, lo, hi in families for p in range(lo, hi + 1)), sampled)
    return (ConjectureInstance(germ, eps, delta) for germ in germs for eps, delta in grid)
