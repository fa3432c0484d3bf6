"""Answer checks for the benchmark, on references independent of the package.

Everything here is exact (``int``/``Fraction``) and shares no code with
``toricmld``: the linear algebra is re-derived below, mld and window
references come from ``toricmld.oracle`` at generation time, the example
families have closed forms, and group orders come from gcds of maximal
minors.  ``check_op`` returns ``None`` for a correct answer and a short
reason otherwise.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# exact linear algebra


def echelon(rows):
    """Row echelon form over Q; returns (reduced rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return m, []
    cols = len(m[0])
    r = 0
    pivots = []
    for c in range(cols):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows) -> int:
    return len(echelon(rows)[1])


def solve(rows, rhs):
    """Unique solution of rows . x = rhs, 'inconsistent' or 'underdetermined'."""
    n = len(rows[0])
    m, pivots = echelon([list(row) + [b] for row, b in zip(rows, rhs)])
    if n in pivots:
        return "inconsistent"
    if len(pivots) < n:
        return "underdetermined"
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = m[i][n]
    return x


def primitive(v) -> list:
    g = math.gcd(*v)
    return [x // g for x in v]


def lattice_det(rows, n: int) -> int:
    """Determinant of the lattice an integer matrix's rows generate: the
    product of the pivots after unimodular (Euclidean) row reduction,
    which equals the gcd of the maximal minors.  0 if rank < n."""
    rows = [list(r) for r in rows if any(r)]
    det = 1
    for c in range(n):
        live = [r for r in rows if r[c] != 0]
        rest = [r for r in rows if r[c] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[c]))
            p = live[0]
            reduced = [p]
            for r in live[1:]:
                f = r[c] // p[c]
                r = [x - f * y for x, y in zip(r, p)]
                if r[c] != 0:
                    reduced.append(r)
                elif any(r):
                    rest.append(r)
            live = reduced
        if not live:
            return 0
        det *= abs(live[0][c])
        rows = rest
    return det


def covolume(gens, n: int) -> Fraction:
    """Covolume of the full-rank lattice generated by rational vectors."""
    den = math.lcm(*[Fraction(x).denominator for g in gens for x in g])
    g = lattice_det([[int(Fraction(x) * den) for x in v] for v in gens], n)
    if g == 0:
        raise ValueError("generators do not span")
    return Fraction(g, den**n)


# ---------------------------------------------------------------------------
# germ documents


def point(p) -> tuple:
    return tuple(Fraction(x) for x in p)


def extras(doc) -> list:
    return [[Fraction(x) for x in row] for row in doc.get("lattice_extra", [])]


def boundary(doc) -> list:
    return [Fraction(b) for b in doc.get("boundary", [0] * len(doc["rays"]))]


def multiplicity(b: Fraction) -> int:
    return math.floor(1 / (1 - b))


def pi1_order(doc) -> int:
    """|N' / <rays>| with N' = N + sum Z ray/m: covolume(rays)/covolume(N')."""
    n = doc["dim"]
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    orbifold = unit + extras(doc) + [
        [Fraction(x, multiplicity(b)) for x in ray]
        for ray, b in zip(doc["rays"], boundary(doc))
    ]
    ratio = covolume(doc["rays"], n) / covolume(orbifold, n)
    if ratio.denominator != 1:
        raise ValueError("rays do not lie in the orbifold lattice")
    return int(ratio)


def q_cartier(doc) -> bool:
    rhs = [1 - b for b in boundary(doc)]
    return isinstance(solve(doc["rays"], rhs), list)


def same_germ(a, b) -> bool:
    """Equal as germs: same ray/coefficient pairs and the same lattice."""
    if a["dim"] != b["dim"]:
        return False
    pairs = lambda d: sorted(zip(map(tuple, d["rays"]), boundary(d)))
    if pairs(a) != pairs(b):
        return False
    n = a["dim"]
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    ca, cb = covolume(unit + extras(a), n), covolume(unit + extras(b), n)
    return ca == cb == covolume(unit + extras(a) + extras(b), n)


# ---------------------------------------------------------------------------
# closed forms of the example families (boundary-free)


def family_doc(name: str, p: int) -> dict:
    if name == "ex1":
        return {"dim": 2, "rays": [[0, 1], [p, 1]]}
    if name == "ex2":
        return {"dim": 2, "rays": [[-1, p], [1, p]]}
    if name == "ex3":
        return {"dim": 3, "rays": [[0, 1, 0], [1, 0, 0], [1, 1, p]]}
    unit = [[int(i == j) for j in range(p)] for i in range(p)]
    return {"dim": p, "rays": unit, "lattice_extra": [[f"1/{p}"] * p]}


def family_mld(name: str, p: int) -> Fraction:
    """ex1, ex4: 1; ex2: 1/n at (0, 1); ex3: 1 + 1/r at (1, 1, r - 1)."""
    return {"ex1": Fraction(1), "ex2": Fraction(1, p),
            "ex3": 1 + Fraction(1, p), "ex4": Fraction(1)}[name]


def family_window(name: str, p: int, delta: Fraction) -> int:
    """Number of interior points with value in [mld, mld + delta), 0 < delta < 1.

    ex1 (L = y): the n - 1 points (x, 1).  ex2 (L = y/n, interior
    n|x| < y): 2 ceil(y/n) - 1 points at each height y < 1 + n delta.
    ex3 (L = x + y - z/r): below 2 + 1/r only (1, 1, s) with value
    2 - s/r.  ex4: only the point (1/n, ..., 1/n) has value below 2.
    """
    if name == "ex1":
        return p - 1
    if name == "ex2":
        return sum(2 * -(-y // p) - 1 for y in range(1, math.ceil(1 + p * delta)))
    if name == "ex3":
        top = 1 + Fraction(1, p) + delta
        return sum(1 for s in range(1, p) if 2 - Fraction(s, p) < top)
    return 1


def family_pi1(name: str, p: int) -> int:
    return 2 * p if name == "ex2" else p


# ---------------------------------------------------------------------------
# per-command checks


def _json(stdout):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def _points(rows) -> list:
    return sorted(point(p) for p in rows)


def _check_mld(exp, out):
    if Fraction(out["mld"]) != Fraction(exp["mld"]):
        return f"mld {out['mld']} != {exp['mld']}"
    if _points(out["minimizers"]) != _points(exp["minimizers"]):
        return "minimizers differ from the oracle"
    return None


def _check_window(exp, out):
    got = sorted((point(p), Fraction(v)) for p, v in out["points"])
    want = sorted((point(p), Fraction(v)) for p, v in exp["points"])
    if got != want or out["count"] != len(want):
        return f"window has {out['count']} points, oracle {len(want)}"
    return None


def _check_pi1(exp, out):
    factors = out["invariant_factors"]
    if int(out["order"]) != exp["order"]:
        return f"pi1 order {out['order']} != {exp['order']}"
    if math.prod(factors) != exp["order"] or any(d <= 1 for d in factors):
        return "invariant factors do not multiply to the order"
    if any(b % a for a, b in zip(factors, factors[1:])):
        return "invariant factors do not form a divisor chain"
    return None


def _check_check(exp, out):
    m = Fraction(exp["mld"])
    ok = m > Fraction(exp["epsilon"])
    want = {
        "classification": "Satisfies" if ok else "ViolatesMld",
        "hypothesis_mld_ok": ok,
        "window_count": exp["window_count"],
        "pi1_order": exp["pi1_order"],
    }
    got = {k: out.get(k) for k in want}
    got["pi1_order"] = int(got["pi1_order"]) if got["pi1_order"] is not None else None
    if got != want or Fraction(out["mld"]) != m:
        return f"check result {got} != {want}"
    return None


def _check_decompose(exp, out):
    n = exp["dim"]
    rays = [tuple(r) for r in out["rays"]]
    if sorted(rays) != sorted(tuple(r) for r in exp["rays"]):
        return "decompose reports other rays"
    k0 = out["k0"]
    vectors = [point(v) for v in out["vectors"]]
    coeffs = out["coefficients"]
    if not (isinstance(k0, int) and k0 > 0) or len(vectors) != n or len(coeffs) != n:
        return "decompose shape is wrong"
    for v, row in zip(vectors, coeffs):
        if any(not isinstance(c, int) or c < 0 for c in row):
            return "negative or non-integer coefficient"
        combo = tuple(sum(c * r[j] for c, r in zip(row, rays)) for j in range(n))
        if v != combo:
            return "a vector is not its coefficient combination of rays"
    total = tuple(sum(v[j] for v in vectors) for j in range(n))
    if total != tuple(k0 * x for x in point(exp["point"])):
        return "k0 * m != sum of the vectors"
    if rank(vectors) != n:
        return "decomposition vectors are dependent"
    if out["total_weight"] != k0 + sum(map(sum, coeffs)):
        return "total_weight is not k0 plus the coefficients"
    return None


def _check_trichotomy(exp, out):
    n = exp["dim"]
    rays = {tuple(r) for r in exp["rays"]}
    variant = out["variant"]
    if (variant == "Simplicial") != (len(rays) == n):
        return f"{variant} on a cone with {len(rays)} rays in dimension {n}"

    def proper(taus):
        return all({tuple(r) for r in t} < rays for t in taus)

    if variant == "FullDimSubcone":
        if not proper([out["tau"]]) or rank(out["tau"]) != n:
            return "tau is not a full-dimensional proper sub-cone"
    elif variant == "SpanningPair":
        t1, t2 = out["tau1"], out["tau2"]
        if not proper([t1, t2]) or rank(t1) == n or rank(t2) == n or rank(t1 + t2) != n:
            return "tau1, tau2 are not a spanning pair of proper sub-cones"
    elif variant != "Simplicial":
        return f"unknown variant {variant}"
    return None


def _check_blowup(exp, out):
    if point(out["m"]) != point(exp["m"]):
        return "blowup is not at the first mld minimizer"
    if int(out["pi1_order"]) != exp["pi1_order"]:
        return f"pi1 order {out['pi1_order']} != {exp['pi1_order']}"
    if int(out["coarse_order"]) < int(out["pi1_order"]):
        return "coarse order below the pi1 order"
    if len(out["sigma0"]) != exp["dim"] or len(out["k_values"]) != exp["dim"]:
        return "sigma0 is not simplicial of full dimension"
    return None


def _check_scan(exp, out):
    if out["degenerate"] != exp["degenerate"] or out["violates_mld"] != exp["violates_mld"]:
        return "degenerate / violates_mld counts differ"
    want = {(c["n"], c["N"], Fraction(c["epsilon"]), Fraction(c["delta"])): c for c in exp["cells"]}
    got = {(c["n"], c["N"], Fraction(c["epsilon"]), Fraction(c["delta"])): c for c in out["cells"]}
    if set(got) != set(want):
        return f"cells {sorted(got)} != {sorted(want)}"
    for key, cell in got.items():
        ref = want[key]
        if cell["instances"] != ref["instances"] or cell["max_pi1"] != ref["max_pi1"]:
            return f"cell {key}: instances/max_pi1 differ"
        if not any(same_germ(cell["witness"], w) for w in ref["witnesses"]):
            return f"cell {key}: witness does not attain max_pi1"
    return None


_CHECKS = {
    "mld": _check_mld,
    "window": _check_window,
    "pi1": _check_pi1,
    "check": _check_check,
    "decompose": _check_decompose,
    "trichotomy": _check_trichotomy,
    "blowup": _check_blowup,
    "scan": _check_scan,
}


def check_op(exp: dict, rc, stdout: str, stderr: str):
    """None if the answer matches the reference, else a reason."""
    want_error = exp.get("error")
    if want_error:
        if rc != 1 or f"error: {want_error}:" not in stderr:
            return f"expected exit 1 with {want_error}, got exit {rc}"
        return None
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[:200]}"
    out = _json(stdout)
    if not isinstance(out, dict):
        return "stdout is not one JSON object"
    try:
        return _CHECKS[exp["kind"]](exp, out)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"
