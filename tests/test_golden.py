"""Golden CLI output: exit code, stdout and stderr of fixed commands,
compared byte for byte with ``golden_cli.json``.

The cases cover ``mld``, ``window``, ``pi1``, ``check``, ``decompose``,
``trichotomy`` and ``blowup`` on the example families ex1-ex4, two fixed
non-simplicial cones, a germ with ``lattice_extra`` and a germ with a
boundary, and one ``scan`` over sampler germs.  Regenerate the file only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from toricmld.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

GERMS = {
    "ex1": {"dim": 2, "rays": [[0, 1], [5, 1]]},
    "ex2": {"dim": 2, "rays": [[-1, 3], [1, 3]]},
    "ex3": {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [1, 1, 4]]},
    "ex4": {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "lattice_extra": [["1/3", "1/3", "1/3"]]},
    "fourray": {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]},
    "parabola17": {"dim": 3, "rays": [[i, i * i, 1] for i in range(17)]},
    "fourray-extended": {
        "dim": 3,
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]],
        "lattice_extra": [["1/2", "1/2", "0"]],
    },
    "boundary": {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [1, 2, 5]], "boundary": ["1/2", "1/3", "1/4"]},
}

# sampler germs, with and without a boundary, and a family ladder
SCAN_SPEC = {
    "families": [{"name": "ex3", "param_range": [2, 4]}],
    "sampler": {"n": 3, "max_rays": 5, "coord_bound": 3, "count": 12, "seed": 5},
    "grid": [{"epsilon": "1/2", "delta": "1/2"}, {"epsilon": "1/3", "delta": "3/4"}],
}


def _point(doc) -> str:
    return ",".join(str(sum(col)) for col in zip(*doc["rays"]))


def cases() -> list[tuple[str, list[str], str]]:
    """(name, argv, stdin) for every golden command."""
    out = []
    for name, doc in GERMS.items():
        text = json.dumps(doc)
        point = _point(doc)
        for argv in (
            ["mld", "-"],
            ["window", "-", "--low", "1", "--high", "2"],
            ["pi1", "-"],
            ["check", "-", "--epsilon", "1/2", "--delta", "1/2"],
            ["decompose", "-", "--point", point],
            ["trichotomy", "-", "--point", point],
            ["blowup", "-"],
        ):
            out.append((f"{name}:{argv[0]}", argv, text))
    fourray = json.dumps(GERMS["fourray"])
    out += [
        ("fourray:mld-pretty", ["mld", "-", "--pretty"], fourray),
        ("fourray:decompose-boundary-point", ["decompose", "-", "--point", "1,0,0"], fourray),
        ("fourray:trichotomy-short-point", ["trichotomy", "-", "--point", "1,1"], fourray),
        ("fourray:window-wide", ["window", "-", "--low", "1/2", "--high", "4"], fourray),
        ("sampler:scan", ["scan", "--spec", "-"], json.dumps(SCAN_SPEC)),
    ]
    return out


def run(argv: list[str], stdin: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name, argv, stdin", cases(), ids=[c[0] for c in cases()])
def test_cli_output_matches_the_golden_file(name, argv, stdin):
    expected = json.loads(GOLDEN.read_text())[name]
    assert run(argv, stdin) == expected


def test_golden_file_has_exactly_the_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(c[0] for c in cases())


if __name__ == "__main__":
    golden = {name: run(argv, stdin) for name, argv, stdin in cases()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
