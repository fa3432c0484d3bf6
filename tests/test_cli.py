import io
import contextlib
import functools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import toricmld as t
from toricmld import cli, invariants
from toricmld.cli import main
from toricmld.errors import ParseError, ValidationError
from toricmld.germio import coord_out, format_q, germ_doc, parse_germ, parse_rational


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def germ_file(tmp_path):
    def write(doc, name="germ.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def test_parse_germ_examples():
    g = parse_germ('{"dim":2,"rays":[[0,1],[5,1]]}')
    assert g == t.family("ex1", 5)
    with pytest.raises(t.ToricError):  # NotStronglyConvex
        parse_germ('{"dim":2,"rays":[[1,0],[-1,0]]}')
    g = parse_germ(
        '{"dim":3,"rays":[[1,0,0],[0,1,0],[0,0,1]],'
        '"lattice_extra":[["1/3","1/3","1/3"]]}'
    )
    assert g == t.family("ex4", 3)


def test_parse_germ_positioned_errors():
    with pytest.raises(ParseError, match="line"):
        parse_germ('{"dim":2,\n"rays":[[0,1],[5,1]')
    with pytest.raises(ParseError, match=r"rays\[1\]"):
        parse_germ('{"dim":2,"rays":[[0,1],[5]]}')
    with pytest.raises(ParseError, match=r"boundary\[0\]"):
        parse_germ('{"dim":2,"rays":[[0,1],[5,1]],"boundary":["x",0]}')
    with pytest.raises(ParseError, match="dim"):
        parse_germ('{"dim":true,"rays":[[1]]}')


def test_germ_doc_roundtrip():
    from fractions import Fraction as F

    germs = [
        t.family("ex1", 5),
        t.family("ex4", 3),
        t.make_germ(t.make_cone(2, [(1, 0), (1, 2)]), [F(1, 2), F(2, 3)]),
    ]
    for germ in germs:
        doc = germ_doc(germ)
        again = parse_germ(json.dumps(doc))
        assert again == germ


def test_output_edge_keeps_ints_and_builds_lattice_rows_once():
    from fractions import Fraction as F

    # ints pass through as they are; everything else as Fraction(x) prints it
    for x in (0, 7, -3, 10**30, True, F(6, 3), F(-1, 2), "4/6"):
        assert format_q(x) == str(F(x))
        f = F(x)
        expected = int(f) if f.denominator == 1 else str(f)
        assert coord_out(x) == expected and type(coord_out(x)) is type(expected)
    lattice = t.family("ex4", 3).lattice
    assert lattice.rows is lattice.rows
    assert lattice.rows == tuple(tuple(F(x, lattice.den) for x in row) for row in lattice.num)


def test_cli_mld_matches_fixture(germ_file):
    path = germ_file({"dim": 2, "rays": [[0, 1], [5, 1]]})
    code, out, err = run("mld", path)
    assert code == 0 and err == ""
    assert out == '{"mld":"1","minimizers":[[1,1],[2,1],[3,1],[4,1]]}\n'


def test_cli_pi1_matches_fixture(germ_file):
    path = germ_file({"dim": 2, "rays": [[0, 1], [5, 1]]})
    code, out, _ = run("pi1", path)
    assert code == 0
    assert out == '{"invariant_factors":[5],"order":"5"}\n'


def test_cli_window(germ_file):
    path = germ_file({"dim": 2, "rays": [[0, 1], [5, 1]]})
    code, out, _ = run("window", path, "--low", "1", "--high", "3/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert doc["points"][0] == [[1, 1], "1"]


def test_cli_check(germ_file):
    path = germ_file({"dim": 2, "rays": [[0, 1], [5, 1]]})
    code, out, _ = run("check", path, "--epsilon", "1/2", "--delta", "1/2")
    doc = json.loads(out)
    assert doc["classification"] == "Satisfies"
    assert doc["mld"] == "1" and doc["window_count"] == 4 and doc["pi1_order"] == "5"


def test_cli_oracle_agrees(germ_file):
    path = germ_file({"dim": 2, "rays": [[0, 1], [7, 1]]})
    assert run("mld", path) == run("oracle-mld", path)
    for low, high in (("1", "2"), ("2/4", "1"), ("2", "1"), ("0", "1")):
        window = ("--low", low, "--high", high)
        assert run("window", path, *window) == run("oracle-mld", path, *window)
    assert json.loads(run("oracle-mld", path, "--low", "2/4", "--high", "1")[1])["low"] == "1/2"
    assert run("oracle-mld", path, "--low", "0", "--high", "1") == (
        1, "", "error: ParseError: window must satisfy 0 < low <= high\n"
    )


def test_cli_validation_exit_codes(germ_file):
    path = germ_file({"dim": 2, "rays": [[1, 0], [-1, 0]]})
    code, out, err = run("mld", path)
    assert code == 1 and out == "" and "NotStronglyConvex" in err
    code, _, err = run("mld", str(path) + ".missing")
    assert code == 1
    code, _, _ = run("window", path)  # missing required flags
    assert code == 2
    code, _, _ = run("nosuchcommand")
    assert code == 2


def test_cli_family_pipes_into_mld(tmp_path):
    code, out, _ = run("family", "--name", "ex3", "--param", "4")
    assert code == 0
    path = tmp_path / "fam.json"
    path.write_text(out)
    code, out2, _ = run("mld", str(path))
    assert json.loads(out2)["mld"] == "5/4"


def test_cli_family_bad_param():
    code, _, err = run("family", "--name", "ex1", "--param", "1")
    assert code == 1 and "BadParam" in err


def test_cli_trichotomy_decompose_blowup(germ_file):
    path = germ_file({"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]})
    code, out, _ = run("trichotomy", path, "--point", "1,1,0")
    assert code == 0 and json.loads(out)["variant"] == "SpanningPair"
    code, out, _ = run("decompose", path, "--point", "1,1,0")
    doc = json.loads(out)
    assert doc["k0"] == 2 and doc["total_weight"] == 6
    code, out, _ = run("blowup", path)
    doc = json.loads(out)
    assert int(doc["coarse_order"]) >= int(doc["pi1_order"])


def test_cli_point_with_negative_first_coordinate(germ_file):
    # the cone of test_cli_trichotomy_decompose_blowup with x negated
    path = germ_file({"dim": 3, "rays": [[-1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 1, -1]]})
    code, out, err = run("trichotomy", path, "--point", "-1,1,0")
    assert code == 0, err
    assert json.loads(out)["variant"] == "SpanningPair"
    code, out, err = run("decompose", path, "--point", "-1,1,0")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["k0"] == 2 and doc["total_weight"] == 6
    code, _, _ = run("decompose", path, "--point")  # missing value
    assert code == 2


def test_cli_point_of_the_wrong_length(germ_file):
    path = germ_file({"dim": 3, "rays": [[0, 1, 1], [1, 0, 1], [1, 2, 1], [2, 2, 1]]})
    for cmd in ("trichotomy", "decompose"):
        for point in ("4,5,4,9", "4,5"):
            code, out, err = run(cmd, path, f"--point={point}")
            assert code == 1 and out == "", (cmd, point, err)
            assert err.startswith("error: ValidationError: "), (cmd, point, err)
        code, _, err = run(cmd, path, "--point=4,5,4")
        assert code == 0, err


def test_cli_bound_below_minimum(germ_file):
    ex1 = germ_file({"dim": 2, "rays": [[0, 1], [5, 1]]}, "ex1.json")
    ex3 = germ_file({"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [1, 1, 4]]}, "ex3.json")
    for path, bound in ((ex1, "1/2"), (ex3, "-1"), (ex3, "0")):
        code, out, err = run("mld", path, f"--bound={bound}")
        assert code == 1 and out == ""
        assert err.startswith("error: BoundBelowMinimum: ")


def test_cli_mld_cost_does_not_grow_with_the_bound(germ_file):
    path = germ_file({"dim": 2, "rays": [[0, 1], [3, 1]]})
    start = time.perf_counter()
    code, out, _ = run("mld", path, "--bound", "1000000")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (0, '{"mld":"1","minimizers":[[1,1],[2,1]]}\n')


def test_cli_out_and_pretty(germ_file, tmp_path):
    path = germ_file({"dim": 2, "rays": [[0, 1], [5, 1]]})
    out_file = tmp_path / "result.json"
    code, out, _ = run("mld", path, "--pretty", "--out", str(out_file))
    assert code == 0
    assert "mld" in out and "{" not in out.splitlines()[0]
    saved = json.loads(out_file.read_text())
    assert saved["mld"] == "1"


def test_cli_out_to_a_missing_directory(germ_file, tmp_path):
    path = germ_file({"dim": 2, "rays": [[0, 1], [5, 1]]})
    code, out, err = run("mld", path, "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "No such file or directory" in err


GRID = [{"epsilon": "1/2", "delta": "1/2"}]
SAMPLER = {"n": 2, "max_rays": 3, "coord_bound": 4, "count": 2, "seed": 11}


@pytest.mark.parametrize(
    "spec, message",
    [
        ([], "scan spec must be a JSON object, got list"),
        ({"grid": [{"epsilon": 0.1, "delta": "1/2"}]}, r"grid\[0\]\.epsilon: expected a rational string, got float"),
        ({"grid": [{"epsilon": "1/2", "delta": True}]}, r"grid\[0\]\.delta: expected a rational, got a boolean"),
        ({"families": [{"name": "ex1", "param_range": [2.0, 3]}], "grid": GRID},
         r"families\[0\]\.param_range: expected an integer, got float"),
        ({"families": [{"name": "ex1", "param_range": [2, True]}], "grid": GRID},
         r"families\[0\]\.param_range: expected an integer, got bool"),
        ({"families": [{"name": "ex1", "param_range": [2, 3, 4]}], "grid": GRID},
         r"families\[0\]\.param_range: expected \[lo, hi\]"),
        # the whole spec is parsed before any germ is built, so each of
        # these wins over the BadParam of ex1 at param 1
        ({"families": [{"name": "ex1", "param_range": [1, 1]}], "grid": [{"epsilon": 0.1, "delta": "1/2"}]},
         r"grid\[0\]\.epsilon: expected a rational string, got float"),
        ({"families": [{"name": "ex1", "param_range": [1, 1]}], "sampler": dict(SAMPLER, n=3.0), "grid": GRID},
         r"sampler\.n: expected an integer, got float"),
        ({"families": [{"name": "ex1", "param_range": [1, 1]}, {"param_range": [2, 2]}], "grid": GRID},
         r"scan spec is malformed: 'name'"),
    ]
    + [
        ({"sampler": dict(SAMPLER, **{key: bad}), "grid": GRID},
         rf"sampler\.{key}: expected an integer, got {type(bad).__name__}")
        for key in ("n", "max_rays", "coord_bound", "count", "seed")
        for bad in (3.0, True)
    ],
    ids=["list", "float-epsilon", "bool-delta", "float-param", "bool-param", "three-params",
         "grid-before-family", "sampler-before-family", "name-before-family"]
    + [f"{key}-{kind}" for key in ("n", "max_rays", "coord_bound", "count", "seed")
       for kind in ("float", "bool")],
)
def test_cli_scan_spec_validation(tmp_path, spec, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, err = run("scan", "--spec", str(spec_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ParseError: ")
    assert re.search(message, err)


MALFORMED_JSON = {
    "too-many-digits": '{"dim": 2, "rays": [[1, %s], [0, 1]]}' % ("9" * 5000),
    "too-deep": "[" * 200_000 + "]" * 200_000,
}


@pytest.mark.parametrize("name", sorted(MALFORMED_JSON))
@pytest.mark.parametrize("command", ["mld", "scan"])
def test_cli_malformed_json_is_a_parse_error(tmp_path, command, name):
    """An integer literal past the interpreter's digit limit and nesting
    past its recursion limit end in a ParseError, for a germ document and
    for a scan spec alike, with neither limit raised."""
    path = tmp_path / "doc.json"
    path.write_text(MALFORMED_JSON[name])
    argv = ["mld", str(path)] if command == "mld" else ["scan", "--spec", str(path)]
    code, out, err = run(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ParseError: ") and err.count("\n") == 1, err[:200]
    assert "sys." not in err, err[:200]


@pytest.mark.parametrize(
    "text, at",
    [('{"dim":', "line 1, column 8"), ('{"dim": 2,\n  "rays": [[1, 0],, [0, 1]]}\n', "line 2, column 19")],
    ids=["truncated", "stray-comma"],
)
@pytest.mark.parametrize("command", ["mld", "scan"])
def test_cli_malformed_json_reports_line_and_column(tmp_path, command, text, at):
    """A germ document and a scan spec report a JSON syntax error at the
    same line and column, the spec's with a "scan spec: " prefix."""
    path = tmp_path / "doc.json"
    path.write_text(text)
    argv = ["mld", str(path)] if command == "mld" else ["scan", "--spec", str(path)]
    prefix = "scan spec: " if command == "scan" else ""
    code, out, err = run(*argv)
    assert (code, out) == (1, "")
    assert re.fullmatch(rf"error: ParseError: {prefix}{at}: [A-Z][^\n]*\n", err), err


def test_cli_scan_grid_out_of_range_without_germs(tmp_path):
    """The grid is checked with the spec, even when there is no germ."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"grid": [{"epsilon": "-1", "delta": "2"}]}))
    assert run("scan", "--spec", str(spec_path)) == (1, "", "error: ValidationError: epsilon must be positive\n")


def test_cli_scan_spec_takes_integer_and_string_rationals(tmp_path):
    spec = {"families": [{"name": "ex1", "param_range": [2, 3]}],
            "grid": [{"epsilon": 1, "delta": "0.1"}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, _ = run("scan", "--spec", str(spec_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["violates_mld"] == 2 and doc["cells"] == []
    spec["grid"][0]["epsilon"] = "1/2"
    spec_path.write_text(json.dumps(spec))
    cells = json.loads(run("scan", "--spec", str(spec_path))[1])["cells"]
    assert {(c["epsilon"], c["delta"]) for c in cells} == {("1/2", "1/10")}


def _count_builds(monkeypatch, name):
    """Record the germ of every build of the cached ``ToricGerm`` property."""
    builds = []
    build = getattr(invariants.ToricGerm, name).func

    def counting(germ):
        builds.append(germ)
        return build(germ)

    prop = functools.cached_property(counting)
    prop.__set_name__(invariants.ToricGerm, name)
    monkeypatch.setattr(invariants.ToricGerm, name, prop)
    return builds


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]],
         "lattice_extra": [["1/2", "1/2", "0"]]},
        {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [1, 1, 4]], "boundary": ["1/2", "0", "2/3"]},
    ],
    ids=["extended-lattice", "boundary"],
)
def test_cli_blowup_solves_once(germ_file, monkeypatch, doc):
    """One blowup command: one solve of L (built by the cached
    ``ToricGerm.rebased``), one orbifold lattice (``ToricGerm.orbifold``)."""
    solves = _count_builds(monkeypatch, "rebased")
    builds = _count_builds(monkeypatch, "orbifold")
    code, out, _ = run("blowup", germ_file(doc))
    assert code == 0 and int(json.loads(out)["pi1_order"]) > 1
    assert len(solves) == 1 and len(builds) == 1


def test_cli_sampler_scan_solves_once_per_germ(tmp_path, monkeypatch):
    solves = _count_builds(monkeypatch, "rebased")
    spec = {"sampler": {"n": 3, "max_rays": 5, "coord_bound": 2, "count": 12, "seed": 7},
            "grid": [{"epsilon": "1/2", "delta": "1/2"}, {"epsilon": "1/4", "delta": "3/4"}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out, _ = run("scan", "--spec", str(spec_path))
    assert code == 0
    # the builds' germs are kept alive, so ids are not reused
    assert len({id(g) for g in solves}) == len(solves) >= 12


def test_cli_scan_deterministic(tmp_path):
    spec = {
        "families": [{"name": "ex1", "param_range": [2, 6]}],
        "sampler": {"n": 2, "max_rays": 3, "coord_bound": 4, "count": 5, "seed": 11},
        "grid": [{"epsilon": "1/2", "delta": "1/2"}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    runs = [run("scan", "--spec", str(spec_path))[1] for _ in range(2)]
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    assert doc["note"]
    assert all("witness" in cell for cell in doc["cells"])
    code, out, err = run("scan", "--spec", str(spec_path), "--jobs", "2")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --jobs 2" in err


def test_cli_stdin(germ_file, monkeypatch):
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO('{"dim":2,"rays":[[0,1],[3,1]]}'))
    code, out, _ = run("pi1", "-")
    assert code == 0 and json.loads(out)["order"] == "3"


def test_cli_reuses_one_parser_with_unchanged_outputs(germ_file, tmp_path):
    """Every subcommand twice in one process, with a usage error and a
    domain error in between, reads as on a freshly built parser."""
    path = germ_file({"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]})
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"families": [{"name": "ex1", "param_range": [2, 4]}], "grid": GRID}))
    commands = [
        ("mld", path, "--bound", "3"),
        ("oracle-mld", path, "--low", "1", "--high", "3"),
        ("pi1", path),
        ("window", path, "--low", "1", "--high", "3"),
        ("mld", path, "--jobs", "2"),  # usage error
        ("check", path, "--epsilon", "1/2", "--delta", "1/2"),
        ("trichotomy", path, "--point", "1,1,0"),
        ("decompose", path, "--point", "1,1,0", "--pretty"),
        ("mld", path, "--bound", "1/2"),  # domain error
        ("blowup", path),
        ("family", "--name", "ex3", "--param", "4"),
        ("scan", "--spec", str(spec)),
    ]
    fresh = []
    for argv in commands:
        cli._build_parser.cache_clear()
        fresh.append(run(*argv))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0]
    cli._build_parser.cache_clear()
    assert [run(*argv) for argv in commands + commands] == fresh + fresh
    assert cli._build_parser.cache_info().misses == 1


def test_cli_as_a_process(monkeypatch):
    """``python -m toricmld.cli`` reads argv and stdin and exits with the
    code and output of an in-process ``main`` call."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def process(*argv, stdin=""):
        done = subprocess.run(
            [sys.executable, "-m", "toricmld.cli", *argv],
            input=stdin, capture_output=True, text=True, env=env, timeout=60,
        )
        return done.returncode, done.stdout, done.stderr

    family = process("family", "--name", "ex3", "--param", "4")
    assert family == run("family", "--name", "ex3", "--param", "4")
    germ = family[1]
    codes = []
    for argv in (("mld", "-"), ("window", "-", "--low", "1", "--high", "2"),
                 ("mld", "-", "--nosuch"), ("mld", "-", "--bound", "1/2")):
        monkeypatch.setattr(sys, "stdin", io.StringIO(germ))
        expected = run(*argv)
        assert process(*argv, stdin=germ) == expected
        codes.append(expected[0])
    assert codes == [0, 0, 2, 1]


def test_startup_imports_neither_dataclasses_nor_inspect():
    """``tests/startup_guard.py`` in a fresh ``python -I -S``: after
    ``mld -``, neither ``dataclasses`` nor ``inspect`` is imported and
    every exported name resolves."""
    guard = Path(__file__).with_name("startup_guard.py")
    done = subprocess.run([sys.executable, "-I", "-S", str(guard)], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


_PLANE = {"dim": 2, "rays": [[1, 0], [0, 1]]}


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (("mld", "-"), dict(_PLANE, boundary=["1e-3000000", "0"])),
        (("mld", "-"), dict(_PLANE, lattice_extra=[["1/2", "1E+300000"]])),
        (("scan", "--spec", "-"), {"grid": [{"epsilon": "1e-300000", "delta": "1/2"}]}),
        (("scan", "--spec", "-"), {"grid": [{"epsilon": "1/2", "delta": "5e-1"}]}),
        (("window", "-", "--low", "1e-300000", "--high", "1"), _PLANE),
        (("window", "-", "--low", "1", "--high", "1e300000"), _PLANE),
        (("mld", "-", "--bound", "1e-3000000"), _PLANE),
        (("oracle-mld", "-", "--bound", "2E1"), _PLANE),
        (("check", "-", "--epsilon", "1e-300000", "--delta", "1/2"), _PLANE),
        (("check", "-", "--epsilon", "1/2", "--delta", "0.5e0"), _PLANE),
        (("trichotomy", "-", "--point", "1,1e300000"), _PLANE),
        (("decompose", "-", "--point", "1e-3000000,1"), _PLANE),
        (("mld", "-", "--bound="), _PLANE),
        (("oracle-mld", "-", "--bound="), _PLANE),
        # digit separators, non-ASCII digits and spaces around the slash,
        # which Fraction accepts on some interpreters only
        (("mld", "-"), dict(_PLANE, boundary=["1/2_0", "0"])),
        (("mld", "-"), dict(_PLANE, boundary=["\u0661/\u0663", "0"])),
        (("mld", "-"), dict(_PLANE, lattice_extra=[["\uff11/\uff12", "0"]])),
        (("scan", "--spec", "-"), {"grid": [{"epsilon": "1_0/20", "delta": "1/2"}]}),
        (("scan", "--spec", "-"), {"grid": [{"epsilon": "1/2", "delta": "\u0663/4"}]}),
        (("window", "-", "--low", "1", "--high", "1_000"), _PLANE),
        (("mld", "-", "--bound", "\u0663"), _PLANE),
        (("check", "-", "--epsilon", "\uff11/\uff12", "--delta", "1/2"), _PLANE),
        (("check", "-", "--epsilon", "1/2", "--delta", "1 / 2"), _PLANE),
        (("decompose", "-", "--point", "1_0,1"), _PLANE),
    ],
)
def test_rationals_in_exponent_notation_are_parse_errors(monkeypatch, argv, stdin):
    """Fraction expands an exponent, so a short string would become a huge
    number past the limit on parsed integers; each entry point of a
    rational, the germ document, the scan grid and every rational flag,
    rejects it at once.  An empty --bound is no rational either, and is
    not read as the default bound.  One ASCII grammar holds on every
    interpreter: Fraction's "_" separators, non-ASCII digits and spaces
    around "/" are refused too."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
    start = time.monotonic()
    code, out, err = run(*argv)
    assert time.monotonic() - start < 2
    assert (code, out) == (1, "") and err.startswith("error: ParseError: ")


@pytest.mark.parametrize("text", ["0.1", " 1/2 ", "+3", ".5", "-7/3", "1.", "\t2\n", "0"])
def test_plain_rationals_stay_accepted(text):
    assert parse_rational(text) == Fraction(text.strip())
