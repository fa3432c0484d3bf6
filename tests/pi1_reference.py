"""An independent reference for the regional fundamental group, invariant
factors included, built with no normal form.

Pick n independent rays B with a ``Fraction`` elimination of this
module's own.  In coordinates of B, the orbifold lattice N' (generated
by N and each ray r over its n_r = floor(1 / (1 - b_r))) modulo the
lattice of B is a finite subgroup G of (Q/Z)^n, listed here by closing
its generators under addition.  H is the subgroup that the other rays
generate, so pi1 = N' / <rays> = G / H.  For a prime p, the p-torsion of
G / H has |(G/H)[p^j]| = #{g in G : p^j g in H} / |H| elements, and the
number of its cyclic factors of order at least p^j is
log_p(|(G/H)[p^j]| / |(G/H)[p^(j-1)]|).  The invariant factors multiply
the p-parts, largest with largest.

The listing costs |G|, which ``group_bound`` bounds before any listing,
from the determinants of B and of N's basis and the n_r.  Nothing
here imports from ``toricmld`` but the germ it reads.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _inverse(rows):
    """Inverse of a square nonsingular matrix of Fractions, Gauss-Jordan."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def _rank(rows) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def _det(rows) -> Fraction:
    a = [[Fraction(x) for x in row] for row in rows]
    d = Fraction(1)
    for c in range(len(a)):
        p = next((i for i in range(c, len(a)) if a[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        d *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def _n_ray(coeff) -> int:
    return math.floor(1 / (1 - Fraction(coeff)))


def independent_rays(germ) -> list[int] | None:
    """Indices of the earliest n independent rays, or None if they do not span."""
    chosen = []
    for i, ray in enumerate(germ.cone.rays):
        if _rank([germ.cone.rays[j] for j in chosen] + [ray]) > len(chosen):
            chosen.append(i)
    return chosen if len(chosen) == germ.dim else None


def group_bound(germ) -> int:
    """An upper bound on |G| = |det B| / covol N': |det B| / covol N times
    every n_r, as adding r / n_r to a lattice multiplies its index by at most n_r."""
    rays = germ.cone.rays
    b = independent_rays(germ)
    bound = abs(_det([rays[i] for i in b]) / _det(germ.lattice.rows)) * math.prod(_n_ray(c) for c in germ.boundary)
    return math.ceil(bound)


def _closure(gens, den: int, n: int) -> set:
    """The subgroup of (Z/den)^n that the integer vectors gens generate."""
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for g in frontier:
            for v in gens:
                s = tuple((x + y) % den for x, y in zip(g, v))
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return seen


def _log(m: int, p: int) -> int:
    """e with p^e = m."""
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{m} is not a power of {p}")
    return e


def _prime_factors(m: int) -> list[int]:
    ps, p = [], 2
    while p * p <= m:
        if m % p == 0:
            ps.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return ps + ([m] if m > 1 else [])


def pi1_factors(germ) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... > 1 of N' / <rays> for a
    full-dimensional germ, from the group listing."""
    n, rays = germ.dim, germ.cone.rays
    b = independent_rays(germ)
    inv = _inverse([rays[i] for i in b])

    def coords(v):  # x with x . B = v
        return [sum(Fraction(v[k]) * inv[k][j] for k in range(n)) for j in range(n)]

    gens = [coords(row) for row in germ.lattice.rows]
    gens += [coords([Fraction(x, _n_ray(c)) for x in r]) for r, c in zip(rays, germ.boundary)]
    others = [coords(r) for i, r in enumerate(rays) if i not in b]
    den = math.lcm(1, *(x.denominator for v in gens + others for x in v))
    as_int = [tuple(int(x * den) % den for x in v) for v in gens + others]
    group = _closure(as_int[: len(gens)], den, n)
    sub = _closure(as_int[len(gens):], den, n)
    if not sub <= group:
        raise ValueError("a ray is not a point of the orbifold lattice")
    order = len(group) // len(sub)
    # for each prime, the exponents of the cyclic factors of its primary part, largest first
    parts = []
    for p in _prime_factors(order):
        killed = [len(sub)]  # |{g in G : p^j g in H}| for j = 0, 1, ... until it stops growing
        q = 1
        while True:
            q *= p
            k = sum(tuple(q * x % den for x in g) in sub for g in group)
            if k == killed[-1]:
                break
            killed.append(k)
        # at_least[j - 1]: the number of cyclic factors of order at least p^j
        at_least = [_log(killed[j] // killed[j - 1], p) for j in range(1, len(killed))]
        parts.append([p ** sum(c > i for c in at_least) for i in range(at_least[0])])
    width = max((len(x) for x in parts), default=0)
    factors = [math.prod(x[k] for x in parts if k < len(x)) for k in range(width)]
    return tuple(sorted(factors))
