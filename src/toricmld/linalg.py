"""Exact integer and rational linear algebra.

Vectors are tuples and matrices are tuples of row tuples.  ``det``,
``dual_basis``, a nonsingular ``rank`` and a nonsingular square
``solve_scaled`` of a square ``int`` matrix of size at most 4 read their
answers off its cofactors, and so do the Smith invariants (``snf``) and
the Hermite diagonal (``cofactor_dual``) of a nonsingular one, as
quotients of determinantal divisors.  Everything else (size 5 and up,
singular ranks and solves, rectangular systems, ``Fraction`` or ``bool``
entries, independent row sets) reads its answers off one fraction-free
(Bareiss) elimination over ``int`` rows; a row of ``fractions.Fraction``
is first scaled by the lcm of its denominators.
The row Hermite normal form, in ``int`` arithmetic and without a
unimodular transform, is the one lattice kernel: the other Smith
invariants and lattice bases are read off it, and coordinates in an
echelon basis (the Hermite form of a lattice) come by substitution.
Fractions appear only in rational answers and inputs.
Nothing here ever touches floating point.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

from .errors import ValidationError, ZeroVector

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


def as_rational(x, what: str) -> Fraction:
    """x as a Fraction, x itself when it is one.  A real that is not
    rational, a binary float above all, raises ValidationError: 1.1 is
    2476979795053773/2251799813685248, not 11/10."""
    if type(x) is Fraction:
        return x
    if isinstance(x, numbers.Real) and not isinstance(x, numbers.Rational):
        raise ValidationError(f"{what} {x!r} is not rational: give a Fraction, an int or a string 'p/q'")
    return Fraction(x)


# ---------------------------------------------------------------------------
# vectors


def dot(u: Sequence, v: Sequence):
    return sum(map(operator.mul, u, v))


def vec_gcd(v: Sequence[int]) -> int:
    return math.gcd(*v)


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its coordinates.

    The result points in the same direction and has coordinate gcd 1.
    """
    g = math.gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        raise ZeroVector("the zero vector has no primitive generator")
    return tuple(x // g for x in v)


# ---------------------------------------------------------------------------
# matrices


def identity(n: int) -> tuple[IntVec, ...]:
    zeros = (0,) * n
    return tuple(zeros[:i] + (1,) + zeros[i + 1:] for i in range(n))


def transpose(a) -> tuple:
    return tuple(zip(*a)) if a else ()


def mat_vec(a, x) -> tuple:
    return tuple(dot(row, x) for row in a)


def _integer_row(row) -> tuple[int, list[int]]:
    """(d, d * row) with d the lcm of the row's denominators, so that
    d * row is a list of ints (d is 1 for a row of ints)."""
    for x in row:  # a plain loop, as in _cofactors
        if type(x) is not int:
            d = math.lcm(*[y.denominator for y in row])
            return d, [(y * d).numerator for y in row]
    return 1, list(row)


def _cofactors(a) -> tuple[int, tuple[IntVec, ...]] | None:
    """(det a, w) for a square matrix of ints of size at most 4, with w_i the
    i-th row of its cofactor matrix, so that w_i . a_j = det a [i = j]: for
    rows a, b, c the cross products b x c, c x a and a x b; for rows a, b,
    c, d, Laplace expansions over the 2 x 2 minors s_jk of rows a, b and
    t_jk of rows c, d.  None for any other matrix, which takes the
    elimination."""
    n = len(a)
    if n > 4:
        return None
    for row in a:  # plain loops: this runs before every small solve, and all() is slower
        if len(row) != n:
            return None
        for x in row:
            if type(x) is not int:
                return None
    if n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = a
        s01, s02, s03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
        s12, s13, s23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
        t01, t02, t03 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0
        t12, t13, t23 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2
        w = ((b1 * t23 - b2 * t13 + b3 * t12, b2 * t03 - b0 * t23 - b3 * t02,
              b0 * t13 - b1 * t03 + b3 * t01, b1 * t02 - b0 * t12 - b2 * t01),
             (a2 * t13 - a1 * t23 - a3 * t12, a0 * t23 - a2 * t03 + a3 * t02,
              a1 * t03 - a0 * t13 - a3 * t01, a0 * t12 - a1 * t02 + a2 * t01),
             (d1 * s23 - d2 * s13 + d3 * s12, d2 * s03 - d0 * s23 - d3 * s02,
              d0 * s13 - d1 * s03 + d3 * s01, d1 * s02 - d0 * s12 - d2 * s01),
             (c2 * s13 - c1 * s23 - c3 * s12, c0 * s23 - c2 * s03 + c3 * s02,
              c1 * s03 - c0 * s13 - c3 * s01, c0 * s12 - c1 * s02 + c2 * s01))
        return s01 * t23 - s02 * t13 + s03 * t12 + s12 * t03 - s13 * t02 + s23 * t01, w
    if n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
        w = ((b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0),
             (c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0),
             (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))
        return a0 * w[0][0] + a1 * w[0][1] + a2 * w[0][2], w
    if n == 2:
        (a0, a1), (b0, b1) = a
        return a0 * b1 - a1 * b0, ((b1, -b0), (-a1, a0))
    if n == 1:
        return a[0][0], ((1,),)
    return 1, ()


def _divisors(a, cof, hermite: bool) -> IntVec:
    """D_k / D_(k-1), k = 1..n, for a nonsingular square matrix a of ints of
    size at most 4 with cofactors cof = (det a, w), where D_0 = 1 and D_n =
    |det a|.  For Smith's invariant factors D_k is the gcd of a's k x k
    minors (Newman, Integral Matrices, 1972, II.9).  For the diagonal of
    hnf(a) it is the gcd of the k x k minors of a's first k columns, which
    is H_11 ... H_kk since a left unimodular factor keeps it
    (Cauchy-Binet).  So D_1 is the gcd of all entries or of column 0,
    D_(n-1) of all cofactors or of those in column n - 1, and for n = 4,
    D_2 of the 36 2 x 2 minors or of the 6 in columns 0 and 1.  D_k
    divides D_(k+1), so D_(n-1) = 1 makes every D_k below it 1."""
    n, (det_a, w) = len(a), cof
    if not n:
        return ()
    ds = [math.gcd(*[wi[-1] for wi in w] if hermite else [x for wi in w for x in wi]), abs(det_a)]
    if n > 2 and ds[0] > 1:
        lower = [math.gcd(*[row[0] for row in a] if hermite else [x for row in a for x in row])]
        if n == 4:
            cols = [(0, 1)] if hermite else list(combinations(range(4), 2))
            lower.append(math.gcd(*[r[j] * s[k] - r[k] * s[j] for r, s in combinations(a, 2) for j, k in cols]))
        ds[:0] = lower
    ds[:0] = [1] * (n + 1 - len(ds))
    return tuple(y // x for x, y in zip(ds, ds[1:]))


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) forward elimination of integer rows, in place.

    Returns the pivot columns and the sign of the row permutation.  Row k
    of the result has its leading entry in the k-th pivot column, and the
    rows past the rank are zero.  Every entry stays an integer minor of
    the input (Sylvester's identity makes each division exact), and the
    k-th pivot is the minor on the first k + 1 pivot rows and columns:
    the last pivot of a square nonsingular matrix is its determinant, up
    to the sign.  Outside ``oracle``, this is the package's one Gaussian
    elimination; square ``int`` matrices of size at most 4 skip it for
    their cofactors, unless a singular one needs its rank or its solve.
    A row whose pivot-column entry is 0 is left as it is when p == prev,
    where the update is the identity.
    """
    m = len(rows)
    pivots = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i in range(r + 1, m):
            f = rows[i][c]
            if f == 0 and p == prev:
                continue
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = p
        pivots.append(c)
    return pivots, sign


def rank(a) -> int:
    """Rank over the rationals."""
    if (cof := _cofactors(a)) and cof[0]:
        return len(a)
    rows = [_integer_row(row)[1] for row in a]
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[0])


def independent_rows(a) -> tuple[int, ...]:
    """Indices of the earliest maximal independent set of rows: row i is
    kept iff it is independent of the rows before it.  They are the pivot
    columns of the transpose."""
    cols = [_integer_row(col)[1] for col in transpose(a)]
    return tuple(_eliminate(cols, len(a))[0])


def det(a) -> Fraction:
    if cof := _cofactors(a):
        return Fraction(cof[0])
    n = len(a)
    scaled = [_integer_row(row) for row in a]
    rows = [row for _, row in scaled]
    pivots, sign = _eliminate(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * rows[n - 1][n - 1] if n else 1, math.prod(d for d, _ in scaled))


# ---------------------------------------------------------------------------
# linear systems


class _Inconsistent:
    __slots__ = ()

    def __repr__(self):
        return "Inconsistent"


class _Underdetermined:
    __slots__ = ()

    def __repr__(self):
        return "Underdetermined"


INCONSISTENT = _Inconsistent()
UNDERDETERMINED = _Underdetermined()


def solve_scaled(a, b):
    """(r, d, y) for the system row_i . x = b_i: r is the rank of a, and
    y = d * x, ints with the signs of x (d > 0), for the unique solution x;
    else y is the INCONSISTENT sentinel, which wins even when a is rank
    deficient, or UNDERDETERMINED.  A nonsingular square system of ints of
    size at most 4 reads d = |det a| and y = sign(det a) * sum of b_j w_j
    off a's cofactor rows w_j; any other system comes from one elimination
    of [a | b], whose d for such a system is the same.  Ragged rows, or a b
    of the wrong length, raise ValidationError."""
    m = len(a)
    n = len(a[0]) if m else 0
    if len(b) != m or any(len(row) != n for row in a):
        raise ValidationError(f"{len(b)} right-hand sides for {m} equations, or ragged rows")
    if (cof := _cofactors(a)) and cof[0] and all(type(x) is int for x in b):
        d, w = cof
        y = [sum(map(operator.mul, b, col)) for col in zip(*w)]
    else:
        rows = [_integer_row((*row, rhs))[1] for row, rhs in zip(a, b)]
        pivots, _ = _eliminate(rows, n + 1)
        if pivots and pivots[-1] == n:  # a pivot in the right-hand side column
            return len(pivots) - 1, 1, INCONSISTENT
        if len(pivots) < n:
            return len(pivots), 1, UNDERDETERMINED
        d = rows[n - 1][n - 1] if n else 1
        y = _back_substitute(rows, n, n)
    return n, abs(d), tuple(y if d > 0 else [-x for x in y])


def solve_rational(a, b):
    """The solution of ``solve_scaled`` as a tuple of Fractions, or its sentinel."""
    _, d, y = solve_scaled(a, b)
    return y if y is INCONSISTENT or y is UNDERDETERMINED else tuple(Fraction(x, d) for x in y)


def _back_substitute(rows: list[list[int]], n: int, col: int) -> list[int]:
    """d * x for U . x = column ``col`` of eliminated rows with U = rows[:n][:n]
    nonsingular: its last pivot d is the determinant of the equations U came
    from, so by Cramer's rule d * x is integral and every division is exact."""
    d = rows[n - 1][n - 1] if n else 1
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        y[i] = (d * row[col] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
    return y


def dual_basis(a) -> tuple[int, tuple[IntVec, ...]] | None:
    """(D, w) for a square integer matrix a: D = |det a| and int rows w_i
    with w_i . a_j = D [i = j], the columns of D a^-1; None if a is
    singular.  Up to size 4 they are a's cofactor rows times the sign of
    its determinant; from size 5, one elimination of [a | I] and one back
    substitution per column of I."""
    if cof := _cofactors(a):
        return _signed_dual(*cof) if cof[0] else None
    n = len(a)
    rows = [[*row, *e] for row, e in zip(a, identity(n))]
    if len(_eliminate(rows, n)[0]) < n:
        return None
    return _signed_dual(rows[n - 1][n - 1], [_back_substitute(rows, n, n + i) for i in range(n)])


def _signed_dual(d: int, w) -> tuple[int, tuple[IntVec, ...]]:
    return abs(d), tuple(map(tuple, w)) if d > 0 else tuple(tuple(-x for x in wi) for wi in w)


def cofactor_dual(a) -> tuple[int, tuple[IntVec, ...], IntVec] | None:
    """(D, w, h) for a nonsingular square matrix of ints of size at most 4:
    (D, w) = dual_basis(a) and h the diagonal of hnf(a), all read off one
    set of cofactors; None for any other matrix."""
    cof = _cofactors(a)
    return (*_signed_dual(*cof), _divisors(a, cof, hermite=True)) if cof and cof[0] else None


def echelon_coords(rows, v) -> IntVec | None:
    """Integer coordinates c with c . rows = v, or None if there are none.

    ``rows`` is an integer basis in echelon form, each row's leading entry
    strictly right of the one above (a Hermite normal form is one).  The
    coordinates come one pivot column at a time, by substitution with a
    remainder test; the other columns are then checked.
    """
    c = []
    pivots = []
    for row in rows:
        p = next(j for j, x in enumerate(row) if x)
        q, rem = divmod(v[p] - sum(ck * rows[k][p] for k, ck in enumerate(c)), row[p])
        if rem:
            return None
        c.append(q)
        pivots.append(p)
    for j, x in enumerate(v):
        if j not in pivots and sum(ck * row[j] for ck, row in zip(c, rows)) != x:
            return None
    return tuple(c)


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum of floor((a*i + b) / m) over 0 <= i < n, for m >= 1 and any a, b, in O(log m)
    steps: whole multiples of m come out of a and b, and the rest counts the lattice points
    under the line, which are the sum with the roles of a and m swapped (Euclid)."""
    total = 0
    while n > 0:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        n, b = divmod(a * n + b, m)
        m, a = a, m
    return total


def hnf(a) -> tuple[IntVec, ...]:
    """Row Hermite normal form H of an integer matrix, of a's shape: row
    style, pivots positive, entries above a pivot reduced into [0, pivot),
    the rows past the rank zero.  H is unique for the lattice a's rows
    span.  Where the pivot divides an entry below it, a multiple of the
    pivot row is subtracted and the pivot row is left as it is; ``snf``
    relies on that.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    h = [list(map(int, row)) for row in a]
    r = 0
    for j in range(n):
        piv = next((i for i in range(r, m) if h[i][j] != 0), None)
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        for i in range(r + 1, m):
            if h[i][j] == 0:
                continue
            if h[i][j] % h[r][j] == 0:
                q = h[i][j] // h[r][j]
                h[i] = [ri - q * rr for rr, ri in zip(h[r], h[i])]
                continue
            g, x, y = xgcd(h[r][j], h[i][j])
            p, q = h[r][j] // g, h[i][j] // g
            h[r], h[i] = (
                [x * rr + y * ri for rr, ri in zip(h[r], h[i])],
                [-q * rr + p * ri for rr, ri in zip(h[r], h[i])],
            )
        if h[r][j] < 0:
            h[r] = [-x for x in h[r]]
        for i in range(r):
            q = h[i][j] // h[r][j]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        r += 1
    return tuple(map(tuple, h))


def _nonzero_hnf(a) -> list[IntVec]:
    return [row for row in hnf(a) if any(row)]


def snf(a) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of an integer matrix, the nonzero
    diagonal of its Smith form; their count is the rank.  A nonsingular
    square matrix of ints of size at most 4 reads them off its
    determinantal divisors; any other matrix takes ``_hermite_smith``."""
    cof = _cofactors(a)
    return _divisors(a, cof, hermite=False) if cof and cof[0] else _hermite_smith(a)


def _hermite_smith(a) -> tuple[int, ...]:
    """``snf`` by Hermite passes.

    Row and column Hermite forms alternate until the matrix is diagonal
    (Kannan and Bachem, SIAM J. Comput. 8, 1979).  The loop ends: from
    the second pass on, the matrix is square, upper triangular and
    positive on the diagonal.  Each pass replaces the leading entry of
    the first block not yet clear by the gcd of the column it reduces, a
    divisor of that entry and strictly smaller unless the entry divides
    the column.  Then the pass only subtracts multiples of the pivot row,
    which it leaves as it is, so the block's row and column stay clear.
    """
    h = _nonzero_hnf(a)
    while any(x for i, row in enumerate(h) for j, x in enumerate(row) if i != j):
        h = _nonzero_hnf(transpose(h))
    d = [h[i][i] for i in range(len(h))]
    # diag(a, b) and diag(gcd, lcm) have the same Smith form
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d)


# ---------------------------------------------------------------------------
# lattices


class _LatticeFields(NamedTuple):
    dim: int
    num: tuple[IntVec, ...]
    den: int


class LatticeBasis(_LatticeFields):  # no __slots__: the cached properties need a __dict__
    """Full-rank lattice in Q^dim, stored over one common denominator.

    ``num`` holds den * basis rows in Hermite normal form, so equal
    lattices always get identical representations.  It is square and of
    full rank, hence upper triangular with its positive pivots on the
    diagonal; ``express_in_basis`` relies on that.
    """

    @classmethod
    def standard(cls, dim: int) -> "LatticeBasis":
        return cls(dim, identity(dim), 1)

    @cached_property
    def rows(self) -> tuple[RatVec, ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.num)

    @cached_property
    def is_standard(self) -> bool:
        return self.den == 1 and self.num == identity(self.dim)

    def to_ambient(self, c: Sequence[int]) -> tuple:
        """The point with integer coordinates c in this basis, in Q^dim,
        with ints where the coordinates are integral."""
        if self.is_standard:
            return tuple(c)
        den = self.den
        xs = (dot(c, col) for col in zip(*self.num))
        return tuple(x // den if x % den == 0 else Fraction(x, den) for x in xs)

    def covolume(self) -> Fraction:
        """|det| of the basis; 1/covolume is the index over Z^dim when finite."""
        return abs(det(self.rows))


def lattice_from_generators(dim: int, gens: Sequence[Sequence]) -> LatticeBasis:
    """Lattice generated by Z^dim together with the given rational vectors."""
    ratios = [[as_rational(x, "a generator entry").as_integer_ratio() for x in g] for g in gens]
    for g in ratios:
        if len(g) != dim:
            raise ValidationError(f"a generator of length {len(g)} in dimension {dim}")
    d = math.lcm(*[q for g in ratios for _, q in g])
    rows = [tuple(p * (d // q) for p, q in g) for g in ratios]
    rows += [tuple(d * x for x in e) for e in identity(dim)]
    basis = _nonzero_hnf(rows)  # dim rows: the standard basis is among the generators
    g = math.gcd(d, *(x for row in basis for x in row))
    num = tuple(tuple(x // g for x in row) for row in basis)
    return LatticeBasis(dim, num, d // g)


def express_in_basis(basis: LatticeBasis, v: Sequence):
    """Integer coordinates of v in the lattice basis, or None if v is not
    a lattice point; in the standard basis they are v's entries, as ints.
    A v of the wrong length raises ValidationError."""
    if len(v) != basis.dim:
        raise ValidationError(f"a point of length {len(v)} in dimension {basis.dim}")
    if basis.is_standard:
        return None if any(x.denominator != 1 for x in v) else tuple(x.numerator for x in v)
    scaled = [basis.den * x for x in v]
    if any(x.denominator != 1 for x in scaled):
        return None
    return echelon_coords(basis.num, [x.numerator for x in scaled])
