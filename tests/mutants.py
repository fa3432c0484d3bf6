"""Standing mutation check: ``python3 tests/mutants.py``.

Each row of ``MUTANTS`` names a module of ``src/toricmld``, an exact text
in it, the text that replaces it, and the test ids that must fail once it
is replaced.  The script copies ``src/`` to a temporary directory, checks
that the named tests pass on the clean copy, and then, for each row,
applies that one replacement to a fresh copy and runs the row's tests in a
subprocess with ``PYTHONPATH`` pointing at it.  It exits 1 when a row's old
text is missing or found more than once (the table must follow a refactor
in the same change), or when a mutant survives: some named test does not
fail, or runs past ``TIMEOUT_S``.  pytest is not told about this file (it
is not ``test_*.py``), because it starts one interpreter per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    module: str  # file name under src/toricmld
    old: str
    new: str
    tests: tuple[str, ...]  # node ids, relative to the repository root
    why: str


PI1 = "tests/test_pi1.py::"
REBASE = "tests/test_rebase.py::test_mapped_rebasing_matches_the_solve_on_drawn_germs"
COUNTING = "tests/test_counting_2d.py::test_counting_agrees_with_the_box_points_on_drawn_germs"
CLOSED_FORMS = "tests/test_counting_2d.py::test_closed_forms_of_ex1_and_ex2"
SUBTREE = "tests/test_structure.py::test_subtree_test_agrees_with_its_definition"
RANK_LOOP = "tests/test_structure.py::test_decompose_matches_the_rank_loop_reference"
INT_SQUARE = "tests/test_elim.py::test_integer_square_systems_match_the_reference"
COFACTORS = "tests/test_elim.py::test_cofactors_match_the_minors_and_the_elimination"
DIVISORS = "tests/test_nf.py::test_determinantal_divisors_match_hermite_and_smith"
GRAMMAR = "tests/test_cli_grammar.py::test_the_grammar_accepts_what_argparse_accepts_with_the_same_namespace"
TIMEOUT_S = 300  # per test run; a mutant that hangs a test counts as surviving it

MUTANTS = (
    # the decomposition's rows (coefficients over the germ's own rays)
    Mutant("structure.py", "cols = transpose(germ.cone.rays)", "cols = transpose(rb.cone.rays)",
           ("tests/test_structure.py::test_decompose_agrees_with_the_vectors_and_grids_reference",),
           "final vectors from the rebased rays"),
    # the pruned subset search
    Mutant("structure.py", "if len(u) < k and not _subtree_hits(c, m, full, p, u):", "if False:",
           ("tests/test_structure.py::test_cross_polytope_search_is_quadratic",),
           "subset search without pruning"),
    Mutant("structure.py", " and all(x > 0 for x in y[:k])", "",
           ("tests/test_structure.py::test_lazy_subset_search_agrees_with_eager_reference",),
           "any-rank subtree test without the P condition"),
    Mutant("structure.py", "return all(dot(f, r) == 0 for f in facets if dot(f, m) == 0 for r in rays[:k])",
           "return True",
           ("tests/test_structure.py::test_first_subset_agrees_with_the_walk",),
           "any-rank subtree test without the face condition"),
    # the full-rank subtree test is the any-rank one with P := U, plus a rank check
    Mutant("structure.py", "k = len(u) if full else len(p)", "k = len(p)",
           (SUBTREE,), "full-rank subtree test positive on P only"),
    Mutant("structure.py", "if y is linalg.INCONSISTENT or full and dim_u != c.dim:", "if y is linalg.INCONSISTENT:",
           (SUBTREE,), "full-rank subtree test without the rank check"),
    Mutant("structure.py", "[tau1.dim]", "[tau1.dim - 1]",
           ("tests/test_simplicial.py::test_the_spanning_pair_walk_reads_the_ranks_it_has",),
           "rho that need not raise tau1's rank"),
    # the merge of a spanning pair's rows
    Mutant("structure.py", "rows += rows_b", "rows = rows_b + rows",
           (RANK_LOOP,), "tau2's rows before tau1's in the merge"),
    Mutant("structure.py", "rows[0] = [a + b for a, b in zip(rows[0], w)]", "rows[-1] = [a + b for a, b in zip(rows[-1], w)]",
           (RANK_LOOP,), "the unused vectors added to a kept vector of tau2"),
    Mutant("structure.py", "g = math.gcd(d, *y)", "g = math.gcd(*y)",
           ("tests/test_simplicial.py::test_simplicial_base_case_in_integers_matches_the_solve",),
           "simplicial base case k0 not reduced by d"),
    # lower-dimensional cones
    Mutant("cones.py", "at = {j: k for k, j in enumerate(pivots)}", "at = {j: k for k, j in enumerate(range(len(pivots)))}",
           ("tests/test_cones.py::test_lower_dimensional_cones_match_the_hermite_reference",),
           "facet normals on the first coordinates, not the pivots"),
    # simplicial fast paths
    Mutant("cones.py", "return c.dim == c.n == len(c.rays)", "return c.n == len(c.rays)",
           ("tests/test_simplicial.py::test_a_rank_three_cone_with_four_rays_in_q4_is_not_full_dimensional",),
           "has_opposite_facets without the dimension check"),
    Mutant("linalg.py", "return self.den == 1 and self.num ==", "return self.num ==",
           ("tests/test_elim.py::test_express_in_basis_matches_the_reference",),
           "is_standard without the denominator check"),
    Mutant("invariants.py", "closed = next(x for x in (dot(wi, y), *wi) if x) < 0",
           "closed = next(x for x in (dot(wi, y), *wi) if x) > 0",
           ("tests/test_box_points.py::test_box_points_match_the_fm_reference_and_the_oracle",),
           "half-open cells close the wrong facets"),
    # the cofactor kernel of square int matrices of size <= 4, and the elimination
    Mutant("linalg.py", "c2 * a0 - c0 * a2", "c0 * a2 - c2 * a0",
           (INT_SQUARE,), "one 3x3 cofactor with the wrong sign"),
    Mutant("linalg.py", "b2 * t03 - b0 * t23 - b3 * t02", "b0 * t23 - b2 * t03 + b3 * t02",
           (INT_SQUARE, COFACTORS), "one 4x4 cofactor with the wrong sign"),
    Mutant("linalg.py", "return n, abs(d), tuple(", "return n, d, tuple(",
           (INT_SQUARE,), "solve_scaled's d without its sign normalised"),
    Mutant("linalg.py", "        if len(row) != n:\n            return None\n", "",
           ("tests/test_elim.py::test_solve_outcomes_and_edge_cases",),
           "cofactors of ragged or empty rows"),
    Mutant("linalg.py", "if type(x) is not int:\n                return None", "if False:\n                return None",
           ("tests/test_elim.py::test_fraction_and_bool_systems_take_the_elimination",),
           "cofactors of Fraction matrices"),
    Mutant("linalg.py", "if f == 0 and p == prev:", "if f == 0:",
           (INT_SQUARE,), "zero-row skip without p == prev"),
    # the group order and invariant factors
    Mutant("linalg.py", "cols = [(0, 1)] if hermite else list(combinations(range(4), 2))",
           "cols = list(combinations(range(4), 2))",
           (DIVISORS,), "Hermite D_2 over all columns, not the leading two"),
    Mutant("linalg.py", "[x for wi in w for x in wi]", "list(w[0])",
           (DIVISORS,), "Smith D_(n-1) from one cofactor row only"),
    Mutant("linalg.py", "            g = math.gcd(d[i], d[j])\n            d[i], d[j] = g, d[i] * d[j] // g\n",
           "            pass\n",
           (PI1 + "test_pi1_matches_the_group_listing",),
           "snf without the gcd/lcm chain"),
    Mutant("invariants.py", "* o.den**n //", "//",
           (PI1 + "test_pi1_order_of_the_extended_orthant",),
           "pi1_order without covol's O.den ** n"),
    Mutant("invariants.py", "if all(m == 1 for m in ms):", "if True:",
           (PI1 + "test_pi1_order_and_the_orbifold_short_cut_match_the_slow_paths",),
           "the orbifold short cut always taken"),
    # the one lifter and the one window lister
    Mutant("invariants.py", "if ell > room:", "if ell >= room:",
           ("tests/test_box_points.py::test_count_window_matches_the_tuple_reference",),
           "a ray that lifts the least point by exactly top - min skipped"),
    Mutant("invariants.py", "        if ell > room:\n            continue\n", "",
           ("tests/test_box_points.py::test_lift_skips_the_rays_that_lift_no_point",),
           "no skip of the rays that lift no point"),
    Mutant("invariants.py", "value, value + 1)", "value, value + 2)",
           ("tests/test_box_points.py::test_box_points_match_the_fm_reference_and_the_oracle",),
           "mld's minimizers from the window [min, min + 2)"),
    # rebasing maps the parsed cone
    Mutant("invariants.py", "facets if cones.has_opposite_facets(cone) else sorted(facets)", "facets",
           (REBASE,), "rebased facets left unsorted"),
    Mutant("invariants.py", "linalg.mat_vec(self.lattice.num, f)", "linalg.mat_vec(linalg.transpose(self.lattice.num), f)",
           (REBASE,), "facets mapped by the transpose of N's basis"),
    # the dimension-2 counting path
    Mutant("invariants.py", "r = abs(q * x2 - p * y2)", "r = q * x2 - p * y2",
           (COUNTING,), "normal form without the reflection"),
    Mutant("invariants.py", "n = max(0, (k * r - l1) // l2)", "n = max(0, (k * r - l1) // l2 + 1)",
           (COUNTING,), "one column past the last x"),
    Mutant("invariants.py", "a = -(u * x2 + v * y2) % r", "a = (u * x2 + v * y2) % r",
           (COUNTING, CLOSED_FORMS), "a = Y mod r, not -Y mod r"),
    # integers inside, Fractions at the API boundary
    Mutant("invariants.py", "q * dot(f, r)) for (p, q), f, r in", "q) for (p, q), f, r in",
           ("tests/test_invariants.py::test_the_mld_is_at_most_the_dimension_with_equality_iff_smooth_and_no_boundary",),
           "L of a simplicial cone without the division by f_i . r_i"),
    Mutant("invariants.py", "m - (-p * rb.den // q) - 1", "m + (p * rb.den // q) - 1",
           (COUNTING,), "the tops of mld_window_counts from a floor, not a ceiling"),
    Mutant("lab.py", "ok = num * q > p * den", "ok = num * q >= p * den",
           ("tests/test_lab.py::test_check_instance_examples",), "an mld equal to epsilon satisfies"),
    Mutant("germio.py", "g = math.gcd(num, den)", "g = 1",
           ("tests/test_rationals.py::test_format_ratio_prints_what_format_q_prints",),
           "format_ratio without its gcd"),
    Mutant("cli.py", "a // den if a % den == 0 else format_ratio(a, den)", "format_ratio(a, den)",
           ("tests/test_rationals.py::test_cli_window_and_mld_print_the_public_results",),
           "integral coordinates over an extended lattice printed as 'p/q'"),
    # the exact command-line grammar, which argparse must agree with
    Mutant("cli.py", " or any(opt.required and opt.dest not in values for opt in options.values())", "",
           (GRAMMAR,), "exact grammar without the required options"),
    Mutant("cli.py", "if opt is None or opt.dest in values or", "if opt is None or",
           (GRAMMAR,), "exact grammar with a repeated option"),
    Mutant("cli.py", 'if i == n or argv[i] != "-" and argv[i].startswith("-"):', "if i == n:",
           (GRAMMAR,), "exact grammar with a value token that starts with '-'"),
)


def _copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _pytest(src: Path, tests) -> subprocess.CompletedProcess | None:
    """The pytest run, or None when it outlasts TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="toricmld-mutants-") as tmp:
        clean = _copy_src(Path(tmp) / "clean")
        probe = subprocess.run([sys.executable, "-c", "import toricmld; print(toricmld.__file__)"],
                               env=dict(os.environ, PYTHONPATH=str(clean)), capture_output=True, text=True)
        if not probe.stdout.startswith(str(clean)):
            print(f"the copy is not the package imported: {probe.stdout.strip() or probe.stderr}")
            return 1
        every = sorted({t for m in MUTANTS for t in m.tests})
        base = _pytest(clean, every)
        if base is None or base.returncode != 0:
            print("the named tests do not pass on the unchanged sources:\n"
                  + (base.stdout[-3000:] if base else f"they ran past {TIMEOUT_S} s"))
            return 1
        for i, m in enumerate(MUTANTS):
            start = time.monotonic()
            src = _copy_src(Path(tmp) / f"m{i}")
            path = src / "toricmld" / m.module
            text = path.read_text()
            if text.count(m.old) != 1:
                problems.append(f"{m.module}: the old text of '{m.why}' occurs {text.count(m.old)} times")
                continue
            path.write_text(text.replace(m.old, m.new))
            # pytest exits 1 when tests fail, and otherwise for a pass or a broken run
            survived = [t for t in m.tests if getattr(_pytest(src, [t]), "returncode", None) != 1]
            status = "SURVIVED" if survived else "killed"
            print(f"{status:8} {m.module:14} {m.why} ({time.monotonic() - start:.1f} s)")
            if survived:
                problems.append(f"{m.module}: '{m.why}' passes, breaks or hangs {', '.join(survived)}")
    for p in problems:
        print("error:", p)
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
