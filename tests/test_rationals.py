"""Rationals at the API boundary.

Inside, the package keeps integer numerators over known denominators; it
builds a ``Fraction`` only for the fields of its public results and when
parsing, and the command line prints straight from the integers.  These
tests hold the integer paths to the ``Fraction`` paths they replace: the
formatter, the parser and the ``window``/``mld`` output, and pin that a
``window`` command builds no ``Fraction`` per point.  The public entry
points refuse a binary float, whose value is rarely the decimal written.
"""

import contextlib
import io
import json
import re
import sys
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricmld as t
from conftest import germs
from toricmld.cli import main
from toricmld.errors import BoundBelowMinimum, ParseError, ValidationError
from toricmld.germio import coord_out, format_q, format_ratio, germ_doc, parse_rational


@pytest.mark.parametrize(
    "call",
    [
        lambda: t.count_window(t.family("ex1", 5), 1, 1.1),
        lambda: t.count_window(t.family("ex1", 5), 0.5, 2),
        lambda: t.mld(t.family("ex1", 5), bound=1.1),
        lambda: t.make_germ(t.make_cone(2, [(0, 1), (5, 1)]), [0.5, 0]),
        lambda: t.multiplicity(0.5),
        lambda: t.ConjectureInstance(t.family("ex1", 5), 0.5, F(1, 2)),
        lambda: t.ConjectureInstance(t.family("ex1", 5), F(1, 2), 0.5),
        lambda: t.lattice_from_generators(2, [(0.5, 0.5)]),
    ],
    ids=["count_window high", "count_window low", "mld bound", "make_germ boundary", "multiplicity",
         "instance epsilon", "instance delta", "lattice generator"],
)
def test_binary_floats_are_refused_at_every_entry_point(call):
    """1.1 would be 2476979795053773/2251799813685248, not 11/10."""
    with pytest.raises(ValidationError, match="is not rational"):
        call()


def test_other_rationals_stay_accepted():
    g = t.family("ex1", 5)
    assert t.count_window(g, 1, "3/2") == t.count_window(g, F(1), F(3, 2))
    assert t.mld(g, bound="3/2").search_bound == F(3, 2)
    assert t.multiplicity("2/3") == 3
    inst = t.ConjectureInstance(g, 1, F(1, 2))
    assert inst.epsilon == 1 and type(inst.epsilon) is F


def test_format_ratio_prints_what_format_q_prints():
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(st.integers(-50, 50), st.integers(-10**40, 10**40), st.sampled_from((0, -1, 1))),
        st.one_of(st.integers(1, 50), st.integers(1, 10**40), st.just(1)),
    )
    def check(num, den):
        assert format_ratio(num, den) == format_q(F(num, den))

    check()
    assert [format_ratio(n, 6) for n in (0, -3, 12, 4, -10**30)] == ["0", "-1/2", "2", "2/3", f"{-10**30 // 2}/3"]


# the grammar check and the parse before ``parse_rational`` read p and q off its match
_OLD_RATIONAL = re.compile(r"\s*[-+]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)\s*")


def _old_parse_rational(text: str) -> F:
    if _OLD_RATIONAL.fullmatch(text):
        try:
            return F(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"{text!r} is not a rational 'p/q'")


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


WHITESPACE = st.sampled_from(("", " ", "\t\n", "\u2003"))
DIGITS = st.sampled_from(("0", "00", "1", "007", "12", "9" * 30, "", "٣", "５", "1_0"))
# signs, whitespace, leading zeros, "1/0", "1 / 2", "1_0", "1e3", decimals and non-ASCII digits
TEXTS = st.one_of(
    st.tuples(WHITESPACE, st.sampled_from(("", "-", "+")), DIGITS,
              st.one_of(st.just(""), st.tuples(st.sampled_from(("/", " / ", ".", "e", "E-")), DIGITS).map("".join)),
              WHITESPACE).map("".join),
    st.lists(st.sampled_from(("0", "1", "-", "+", "/", ".", " ", "_", "e", "٣", "x")), max_size=6).map("".join),
)


def test_parse_rational_matches_the_fraction_parse_on_drawn_strings():
    seen = Counter()

    @settings(max_examples=2000, deadline=None, derandomize=True, database=None)
    @given(TEXTS)
    def check(text):
        new, old = _outcome(parse_rational, text), _outcome(_old_parse_rational, text)
        assert new == old and type(new) is type(old)
        seen["value" if type(new) is F else "error"] += 1
        seen["p/q"] += type(new) is F and "/" in text
        seen["decimal"] += type(new) is F and "." in text

    check()
    assert min(seen.values()) >= 20, seen
    long_digits = "1" * (sys.get_int_max_str_digits() + 1)
    for text in ("1/0", "1 / 2", "1_0", "1e3", "٣", " -007/014 ", "+.5", "5.", long_digits, f"1/{long_digits}"):
        assert _outcome(parse_rational, text) == _outcome(_old_parse_rational, text)


def _run(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def _points_out(points):
    return [[coord_out(x) for x in p] for p in points]


def test_cli_window_and_mld_print_the_public_results():
    """The JSON of ``window`` and ``mld`` equals the old formatting of the
    public ``count_window`` and ``mld`` results, errors included."""
    seen = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(germs(), st.integers(1, 9), st.integers(3, 4), st.integers(0, 4), st.integers(-3, 3))
    def check(germ, a, b, c, shift):
        doc = json.dumps(germ_doc(germ))
        low, high = F(a, b), F(a, b) + F(c, 4)
        wc = t.count_window(germ, low, high)
        expected = {"low": format_q(wc.low), "high": format_q(wc.high), "count": wc.count,
                    "points": [[[coord_out(x) for x in p], format_q(v)] for p, v in wc.points]}
        got = _run(["window", "-", "--low", str(low), "--high", str(high)], doc)
        assert got == (0, json.dumps(expected, separators=(",", ":")) + "\n", "")

        r = t.mld(germ)
        bound = r.value + F(shift, 4)
        try:
            rb = t.mld(germ, bound)
            want = (0, json.dumps({"mld": format_q(rb.value), "minimizers": _points_out(rb.minimizers)},
                                  separators=(",", ":")) + "\n", "")
        except BoundBelowMinimum as exc:
            want = (1, "", f"error: BoundBelowMinimum: {exc}\n")
        assert _run(["mld", "-", f"--bound={bound}"], doc) == want
        assert _run(["mld", "-"], doc)[1] == json.dumps(
            {"mld": format_q(r.value), "minimizers": _points_out(r.minimizers)}, separators=(",", ":")) + "\n"

        seen["extended lattice"] += not germ.lattice.is_standard
        seen["Fraction coordinates"] += any(type(x) is F for p, _ in wc.points for x in p)
        seen["boundary"] += any(germ.boundary)
        seen["below minimum"] += want[0] == 1
        seen["empty"] += wc.count == 0
        seen["10 or more points"] += wc.count >= 10

    check()
    assert len(seen) == 6 and all(seen.values()), seen


def test_window_builds_no_fraction_per_point(monkeypatch):
    """``window`` builds as many Fractions on a germ with 199 points as on
    one with 5: those of parsing and of the default boundary only."""
    built = []
    real_new = F.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    docs = [json.dumps(germ_doc(t.family("ex1", n))) for n in (200, 6)]
    monkeypatch.setattr(F, "__new__", counting_new)
    counts = []
    for doc in docs:
        built.clear()
        code, out, _ = _run(["window", "-", "--low", "1", "--high", "2"], doc)
        assert code == 0
        counts.append((json.loads(out)["count"], len(built)))
    monkeypatch.undo()
    (many, built_many), (few, built_few) = counts
    assert (many, few) == (199, 5)
    assert built_many == built_few <= 3
