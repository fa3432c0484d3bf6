"""Reference: the exhaustive ray-subset walk that the pruned search in
``structure._first_subset`` replaced.

Every nonempty proper subset of the rays is visited in lexicographic
order and tested on its own, so the cost is exponential in the ray
count; the walk refuses more than ``MAX_RAYS`` rays.  The first hit of
full rank, else the first hit of any rank, is the sub-cone the
trichotomy and ``_tau_containing_ray`` choose.
"""

from __future__ import annotations

from toricmld.cones import Membership, make_cone, membership
from toricmld.errors import NotInteriorPoint
from toricmld.germio import format_q
from toricmld.linalg import rank

MAX_RAYS = 16


def proper_subsets(k: int):
    """Nonempty proper subsets of range(k) as index tuples, lazily and in
    lexicographic order: (0,), (0, 1), (0, 1, 2), ..., (0, 2), ..."""

    def walk(prefix, start):
        for i in range(start, k):
            idx = prefix + (i,)
            if len(idx) < k:
                yield idx
            yield from walk(idx, i + 1)

    return walk((), 0)


def subcone_index_sets(c, m):
    """Index sets of proper ray subsets whose cone keeps m in its relative
    interior, lazily and in lexicographic order.  Each subset is tested by
    the facets of its own cone, which shares no code with the search's
    solve."""
    k = len(c.rays)
    if k > MAX_RAYS:
        raise ValueError(f"{k} rays; the walk is capped at {MAX_RAYS}")
    return (
        idx for idx in proper_subsets(k)
        if membership(make_cone(c.n, [c.rays[i] for i in idx]), m) is Membership.RELATIVE_INTERIOR
    )


def first_subset(c, m, full: bool):
    """The walk's first hit, of rank c.dim when full, or None."""
    hits = subcone_index_sets(c, m)
    return next((idx for idx in hits if not full or rank([c.rays[i] for i in idx]) == c.dim), None)


def subcones_containing(c, m) -> list:
    """All cones spanned by proper ray subsets with m in their relative
    interior, each with its canonical ray set: the cone over (i, i^2, 1),
    0 <= i < 16, has 60,158 around its ray sum."""
    if membership(c, m) is not Membership.RELATIVE_INTERIOR:
        raise NotInteriorPoint(f"({', '.join(map(format_q, m))}) is not in the relative interior")
    return [make_cone(c.n, [c.rays[i] for i in idx]) for idx in subcone_index_sets(c, m)]
