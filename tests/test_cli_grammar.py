"""The command line's exact grammar against argparse.

``cli.main`` parses an argv that keeps to the exact grammar of
``cli._parse_exact`` from the command table, and hands every other argv
to the argparse parser built from the same table.  The differential test
draws argv lists from the table's tokens with a fixed seed and checks
that the grammar only ever accepts what argparse accepts, with the same
namespace, that it accepts every spelling it states and declines every
one it does not, and that ``main`` prints the same as an argparse-only
run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import pytest

from toricmld import cli

GERM = json.dumps({"dim": 2, "rays": [[0, 1], [3, 1]]})
SPEC = json.dumps({"families": [{"name": "ex1", "param_range": [2, 3]}], "grid": [{"epsilon": "1/2", "delta": "1/2"}]})

# values of a valid command, by option flag; "-" is a value in its own token, too
VALID = {
    "--out": ("out.json", "", "-"),
    "--bound": ("3", "1/2", "-"),
    "--low": ("1", "1/2"),
    "--high": ("2", "3"),
    "--epsilon": ("1/2", "1"),
    "--delta": ("1/2", "-"),
    "--point": ("1,1", "2,1", "1,0"),
    "--name": ("ex1", "ex3"),
    "--param": ("3", "4", "+2"),
    "--spec": ("spec.json", "-"),
}
GERMS = ("germ.json", "-", "nosuch.json", "", "x y", "a=b")
DASHED = ("-1", "-1,0", "-x", "--", "--low", "-h", "-1 0", "--pretty")
JUNK = ("--", "-h", "--help", "--nosuch", "--jobs", "-", "-1", "ml", "--point=-1,0")
BAD = {"--param": ("x", "1.5", "", "1e3"), "--name": ("ex9", "", "EX1")}
EDITS = ("repeat", "abbrev", "drop", "extra", "dashdash", "help", "dash value",
         "bad value", "unknown", "flag value", "no value", "command")


def _options(name):
    return cli._COMMON + cli._COMMANDS[name].options


def _render(parts) -> list[str]:
    out = []
    for kind, flag, value in parts:
        if kind == "sep":
            out += [flag, value]
        elif kind == "eq":
            out.append(f"{flag}={value}")
        elif kind == "bare":
            out.append(flag)
        else:  # a positional
            out.append(value)
    return out


def _valid_parts(rng, name) -> list:
    cmd = cli._COMMANDS[name]
    parts = [("pos", None, rng.choice(GERMS[:2]))] if cmd.germ else []
    for opt in _options(name):
        if opt.required or rng.random() < 0.4:
            if opt.store_true:
                parts.append(("bare", opt.flag, None))
            else:
                parts.append((rng.choice(("sep", "eq")), opt.flag, rng.choice(VALID[opt.flag])))
    rng.shuffle(parts)
    return parts


def _edit(rng, name, parts, kind) -> str | None:
    """Applies the edit ``kind``, which leaves the exact grammar, to
    ``parts`` (in place) and returns its name, or None when it does not
    fit the command."""
    cmd = cli._COMMANDS[name]
    opts = [i for i, p in enumerate(parts) if p[0] != "pos"]
    valued = [i for i in opts if parts[i][0] != "bare"]
    required = [i for i in opts if any(o.required for o in cmd.options if o.flag == parts[i][1])]
    at = rng.randint(0, len(parts))
    if kind == "repeat" and opts:
        kind_, flag, _ = parts[rng.choice(opts)]
        value = None if kind_ == "bare" else rng.choice(VALID[flag])
        parts.insert(at, (kind_, flag, value))
    elif kind == "abbrev" and opts:
        i = rng.choice(opts)
        kind_, flag, value = parts[i]
        parts[i] = (kind_, flag[: rng.randint(3, len(flag) - 1)], value)
    elif kind == "drop" and (required or cmd.germ):
        del parts[rng.choice(required + [i for i, p in enumerate(parts) if p[0] == "pos"])]
    elif kind == "extra":
        parts.insert(at, ("pos", None, rng.choice(GERMS)))
    elif kind in ("dashdash", "help", "unknown"):
        token = {"dashdash": "--", "help": rng.choice(("-h", "--help")), "unknown": rng.choice(("--nosuch", "--jobs"))}[kind]
        parts.insert(at, ("bare", token, None))
    elif kind == "dash value" and valued:
        i = rng.choice(valued)
        parts[i] = ("sep", parts[i][1], rng.choice(DASHED))
    elif kind == "bad value" and name == "family":
        flag = rng.choice(tuple(BAD))
        i = next(i for i, p in enumerate(parts) if p[1] == flag)
        parts[i] = (rng.choice(("sep", "eq")), flag, rng.choice(BAD[flag]))
    elif kind == "flag value":
        parts.insert(at, ("eq", "--pretty", rng.choice(("", "1", "x"))))
        parts[:] = [p for p in parts if p[1] != "--pretty" or p[0] == "eq"]
    elif kind == "no value":
        flag = rng.choice([o.flag for o in _options(name) if not o.store_true])
        parts[:] = [p for p in parts if p[1] != flag] + [("bare", flag, None)]
    elif kind == "command":
        parts.insert(0, ("pos", None, rng.choice(("ml", "MLD", "-h", "--help", "--", ""))))
    else:
        return None
    return kind


def _draws(seed=7, structured=3000, loose=1500):
    """(argv, edit) pairs: valid commands (edit "none"), valid commands
    with one edit that leaves the grammar (its name), then argv lists of
    tokens in any order (edit "loose": no claim on the grammar)."""
    rng = random.Random(seed)
    names = list(cli._COMMANDS)
    out = []
    for _ in range(structured):
        name = rng.choice(names)
        parts = _valid_parts(rng, name)
        edit = (_edit(rng, name, parts, rng.choice(EDITS)) if rng.random() < 0.5 else None) or "none"
        out.append((_render(parts) if edit == "command" else [name, *_render(parts)], edit))
    for _ in range(100):  # only family types or limits a value
        parts = _valid_parts(rng, "family")
        edit = _edit(rng, "family", parts, "bad value")
        out.append((["family", *_render(parts)], edit))
    flags = sorted({o.flag for c in cli._COMMANDS.values() for o in cli._COMMON + c.options})
    pool = [*flags, *(f"{f}={v}" for f in flags for v in ("1", "-1", "")), *GERMS, *DASHED, *JUNK,
            *(v for vs in VALID.values() for v in vs)]
    for _ in range(loose):
        head = [rng.choice(names)] if rng.random() < 0.9 else []
        out.append((head + [rng.choice(pool) for _ in range(rng.randint(0, 7))], "loose"))
    return out


DRAWS = _draws()


def _argparse(argv):
    """vars() of argparse's namespace, or None for a usage error."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


def test_the_grammar_accepts_what_argparse_accepts_with_the_same_namespace():
    accepted = declined = 0
    for argv, edit in DRAWS:
        for form in (argv, cli._attach_point_values(argv)):
            fast = cli._parse_exact(form)
            if fast is not None:
                assert _argparse(form) == vars(fast), form
        fast = cli._parse_exact(argv)
        if edit != "loose":
            assert (fast is not None) == (edit == "none"), (edit, argv)
        accepted += fast is not None
        declined += fast is None
    # both sides of the grammar are drawn often, and every edit is
    assert accepted > 1000 and declined > 2000
    assert {edit for _, edit in DRAWS} == {"none", "loose", *EDITS}


def _run(argv, monkeypatch, exact=True):
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.StringIO(GERM))
    with monkeypatch.context() as m:
        if not exact:
            m.setattr(cli, "_parse_exact", lambda argv: None)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_main_prints_what_an_argparse_only_run_prints(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "germ.json").write_text(GERM)
    (tmp_path / "spec.json").write_text(SPEC)
    codes = set()
    for argv, _ in DRAWS:
        expected = _run(argv, monkeypatch, exact=False)
        assert _run(argv, monkeypatch) == expected, argv
        codes.add(expected[0])
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("argv", [
    ["trichotomy", "-", "--point", "-1,0"],
    ["trichotomy", "-", "--point=-1,0"],
    ["window", "-", "--low", "1", "--high=2", "--out", "out.json", "--pretty"],
    ["family", "--param=3", "--name", "ex1"],
])
def test_the_listed_spellings_take_the_exact_grammar(argv):
    assert cli._parse_exact(cli._attach_point_values(argv)) is not None


def test_a_valid_command_does_not_build_the_parser(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cli._build_parser.cache_clear()
    commands = [["mld", "-"], ["window", "-", "--low=1", "--high", "2"], ["pi1", "-", "--pretty"],
                ["family", "--name", "ex3", "--param", "4"], ["mld", "-", "--bound", "1/2"]]
    assert [_run(argv, monkeypatch)[0] for argv in commands] == [0, 0, 0, 0, 1]
    assert cli._build_parser.cache_info().misses == 0
    assert _run(["mld", "-", "--jobs", "2"], monkeypatch)[0] == 2
    assert cli._build_parser.cache_info().misses == 1
