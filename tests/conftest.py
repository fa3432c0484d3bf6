"""Shared corpus builders for the test suite.

All corpora are seeded and deterministic.  Random germs come from the
package sampler; non-simplicial coverage comes from cones over lattice
polytopes placed at height one, which are always Q-Cartier for an empty
boundary.  ``germs`` is the hypothesis strategy that draws all of these,
with boundaries and extended lattices.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

import toricmld as t
from toricmld.errors import ToricError
from toricmld.linalg import rank

COEFFS = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
DODECAGON = ((0, 0), (1, 0), (3, 1), (4, 2), (5, 4), (5, 5), (4, 6), (3, 6), (1, 5), (0, 4), (-1, 2), (-1, 1))


def height_cone_germ(dim: int, seed: int, spread: int = 2) -> t.ToricGerm:
    """Non-simplicial germ: cone over random lattice points at height one."""
    rng = random.Random(seed)
    while True:
        pts = {tuple(rng.randint(0, spread) for _ in range(dim - 1)) for _ in range(dim + 3)}
        rays = [p + (1,) for p in pts]
        try:
            cone = t.make_cone(dim, rays)
        except ToricError:
            continue
        if cone.dim == dim and len(cone.rays) > dim:
            return t.make_germ(cone)


@st.composite
def germs(draw, min_dim=1):
    """Germs in dims min_dim-5 of three kinds: simplicial cones over independent
    vectors with a positive last coordinate and any boundary; cones at
    height one over vertices of a lattice 12-gon (dim 3, up to 11 rays) or
    of the unit cube (dims 4 and 5; at most 9 in dim 5, where the
    reference's cascade grows fastest), whose one boundary coefficient on
    every ray keeps them Q-Cartier; and sampler germs.  Some live in the
    lattice Z^n + Z v/k, for a v that keeps every ray primitive."""
    kind = draw(st.sampled_from(("height one", "simplicial", "sampler")))
    n = draw(st.integers(max(min_dim, {"height one": 3, "simplicial": 1, "sampler": 2}[kind]), 5))
    if kind == "sampler":
        try:
            germ = t.sample_random(n, n + 2, 2, draw(st.integers(0, 10**6)))
        except t.ToricError:
            assume(False)
        cone, boundary = germ.cone, germ.boundary
    elif kind == "height one":
        # every vertex spans a ray
        size = draw(st.integers(n + 1, {3: 11, 4: 8, 5: 9}[n]))
        base = st.sampled_from(DODECAGON) if n == 3 else st.tuples(*[st.integers(0, 1)] * (n - 1))
        pts = draw(st.lists(base, min_size=size, max_size=size, unique=True))
        gens = [p + (1,) for p in pts]
        assume(rank(gens) == n)
        cone = t.make_cone(n, gens)
        boundary = [draw(st.sampled_from(COEFFS))] * len(cone.rays)
    else:
        c = {1: 1, 2: 5, 3: 3, 4: 2, 5: 1}[n]
        gens = [
            tuple(draw(st.integers(-c, c)) for _ in range(n - 1)) + (draw(st.integers(1, c)),)
            for _ in range(n)
        ]
        assume(rank(gens) == n)
        cone = t.make_cone(n, gens)
        boundary = [draw(st.sampled_from(COEFFS)) for _ in cone.rays]
    lattice = None
    # a ray r stays primitive in Z^n + Z v/k iff r is not j v mod k for any j
    k = draw(st.sampled_from((1, 2, 3)))
    extensions = [
        v
        for v in itertools.product(range(k), repeat=n)
        if any(v)
        and not any(all((x - j * y) % k == 0 for x, y in zip(r, v)) for r in cone.rays for j in range(k))
    ]
    if extensions:
        v = draw(st.sampled_from(extensions))
        lattice = t.lattice_from_generators(n, [tuple(Fraction(x, k) for x in v)])
    return t.make_germ(cone, boundary, lattice)


def sampled_germs(n: int, max_rays: int, coord_bound: int, count: int, seed0: int,
                  box_cap: int | None = None) -> list[t.ToricGerm]:
    """Deterministic list of sampler germs; seeds advance until `count`
    valid germs are collected.  `box_cap` skips germs whose naive search
    box is too large for the brute-force oracle."""
    out = []
    seed = seed0
    while len(out) < count:
        try:
            germ = t.sample_random(n, max_rays, coord_bound, seed)
        except ToricError:
            seed += 1
            continue
        seed += 1
        if box_cap is not None and _box_volume(germ) > box_cap:
            continue
        out.append(germ)
    return out


def _box_volume(germ: t.ToricGerm) -> int:
    """Size of the naive bounding box the oracle would scan."""
    import math

    # L(ray) = 1 - b, so L(ray sum) is the sum of 1 - b
    rays = germ.cone.rays
    bound = sum(1 - b for b in germ.boundary)
    verts = [tuple(Fraction(0) for _ in range(germ.dim))]
    for r, b in zip(rays, germ.boundary):
        verts.append(tuple(bound * Fraction(x) / (1 - b) for x in r))
    vol = 1
    for j in range(germ.dim):
        lo = math.floor(min(v[j] for v in verts))
        hi = math.ceil(max(v[j] for v in verts))
        vol *= hi - lo + 1
    return vol


def oracle_corpus() -> list[t.ToricGerm]:
    """The 200-germ corpus for oracle equivalence: dims 2-4, at most 8
    rays, boundary coefficients from {0, 1/2, 2/3, 3/4}, Q-Cartier."""
    germs = []
    germs += sampled_germs(2, 4, 6, 100, seed0=0)
    germs += sampled_germs(3, 6, 3, 55, seed0=10_000, box_cap=400_000)
    germs += sampled_germs(4, 6, 2, 25, seed0=20_000, box_cap=800_000)
    germs += [height_cone_germ(3, s) for s in range(12)]
    germs += [height_cone_germ(4, s, spread=1) for s in range(8)]
    assert len(germs) == 200
    return germs


def geometry_corpus() -> list[t.ToricGerm]:
    """50 small germs for equivariance and duality properties."""
    germs = []
    germs += sampled_germs(2, 4, 4, 25, seed0=40_000)
    germs += sampled_germs(3, 5, 2, 15, seed0=50_000, box_cap=200_000)
    germs += [height_cone_germ(3, s) for s in range(6)]
    germs += [t.family("ex1", 5), t.family("ex2", 4), t.family("ex3", 6), t.family("ex4", 3)]
    assert len(germs) == 50
    return germs


def nonsimplicial_corpus() -> list[t.ToricGerm]:
    germs = [g for g in geometry_corpus() if not t.is_simplicial(g.cone)]
    germs.append(t.make_germ(t.make_cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])))
    germs.append(t.make_germ(t.make_cone(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])))
    germs += [height_cone_germ(4, s, spread=1) for s in range(3)]
    return germs


def random_unimodular(n: int, rng: random.Random, steps: int = 4):
    """Product of elementary integer matrices with determinant +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]

    def shear(i, j, k):
        for c in range(n):
            m[i][c] += k * m[j][c]

    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if op == 0:
            shear(i, j, rng.choice([-2, -1, 1, 2]))
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return tuple(tuple(row) for row in m)


def transform_germ(germ: t.ToricGerm, mat) -> t.ToricGerm:
    """Apply the lattice automorphism v -> v . mat to a germ."""
    from toricmld.linalg import mat_vec, transpose

    cols = transpose(mat)

    def apply(v):
        return tuple(sum(x * c for x, c in zip(v, col)) for col in cols)

    new_rays = [apply(r) for r in germ.cone.rays]
    coeff_of = {t.primitive(nr): b for nr, b in zip(new_rays, germ.boundary)}
    cone = t.make_cone(germ.dim, new_rays)
    boundary = [coeff_of[r] for r in cone.rays]
    lattice = None
    if not germ.lattice.is_standard:
        gens = [apply(row) for row in germ.lattice.rows]
        lattice = t.lattice_from_generators(germ.dim, gens)
    return t.make_germ(cone, boundary, lattice)


SQUARE_KINDS = ("any", "large", "singular", "unimodular", "triangular", "bool", "Fraction")


@st.composite
def small_squares(draw):
    """(kind, a) for a square matrix a of size 0-4, the sizes that have
    cofactors.  "any" has entries in [-6, 6] and "large" entries within 6
    of +-10^12; "singular" has its last row a combination of the others;
    "unimodular" and "triangular" are an upper triangle T with diagonal
    +-1, or in 1, 2, 3, 4, 6, mixed by adding multiples of rows to others,
    so hnf(a) has T's diagonal up to sign; "bool" and "Fraction" have one
    entry of that type (an integral Fraction), which takes the slow paths.
    The rows are then permuted, which flips the sign of det about half the
    time.  Size 0 is the empty matrix."""
    n = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(SQUARE_KINDS)) if n else "any"
    small = st.integers(-6, 6)
    if kind == "large":
        a = [[draw(st.sampled_from((-1, 1))) * 10**12 + draw(small) for _ in range(n)] for _ in range(n)]
    elif kind in ("unimodular", "triangular"):
        diag = st.sampled_from((1, -1) if kind == "unimodular" else (1, 2, 3, 4, 6))
        a = [[draw(diag) if i == j else draw(small) if j > i else 0 for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(small)
            if i != j:
                a[i] = [x + k * y for x, y in zip(a[i], a[j])]
    else:
        a = [[draw(small) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        ks = [draw(small) for _ in range(n - 1)]
        a[-1] = [sum(k * row[j] for k, row in zip(ks, a)) for j in range(n)]
    elif kind in ("bool", "Fraction"):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[i][j] = bool(a[i][j] % 2) if kind == "bool" else Fraction(a[i][j])
    return kind, [tuple(a[i]) for i in draw(st.permutations(range(n)))]
