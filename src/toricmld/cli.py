"""Command-line interface.

Machine output is one compact JSON document on stdout; --pretty renders
an aligned table instead; --out writes the JSON document to a file as
well.  Exit codes: 0 success, 1 domain or validation error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import lab, oracle, structure
from .errors import ParseError, ToricError, ValidationError
from .germio import coord_out, format_q, format_ratio, germ_doc, load_json, parse_germ, parse_rational
from .invariants import mld, pi1_reg, window_keys


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_germ(path: str):
    return parse_germ(_read_text(path))


def _parse_window(args) -> tuple[Fraction, Fraction]:
    low, high = parse_rational(args.low), parse_rational(args.high)
    if not (0 < low <= high):
        raise ParseError("window must satisfy 0 < low <= high")
    return low, high


def _parse_point(text: str, dim: int):
    """The point of comma-separated rationals, ints where integral."""
    point = tuple(parse_rational(part.strip()) for part in text.split(","))
    if len(point) != dim:
        raise ValidationError(f"--point has {len(point)} coordinates; the germ has dimension {dim}")
    return tuple(x.numerator if x.denominator == 1 else x for x in point)


def _point_out(p):
    return [coord_out(x) for x in p]


def _keys_out(keys, den: int) -> list:
    """The coordinate lists of the points of window keys (den times the
    ambient coordinates, then the L numerator), for den = den_N: ints where
    integral, else 'p/q', each distinct text made once per command."""
    if den == 1:
        return [list(key[:-1]) for key in keys]
    text = {a: a // den if a % den == 0 else format_ratio(a, den) for a in {a for key in keys for a in key[:-1]}}
    return [[text[a] for a in key[:-1]] for key in keys]


def _pretty(doc, indent=0, key_width=None) -> list[str]:
    lines = []
    if isinstance(doc, dict):
        width = max((len(k) for k in doc), default=0)
        for k, v in doc.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(" " * indent + f"{k}:")
                lines.extend(_pretty(v, indent + 2))
            else:
                rendered = json.dumps(v, separators=(",", ":")) if isinstance(v, (dict, list)) else str(v)
                lines.append(" " * indent + f"{k.ljust(width)}  {rendered}")
    elif isinstance(doc, list):
        for item in doc:
            if isinstance(item, (dict, list)) and item and not _is_flat(item):
                lines.extend(_pretty(item, indent + 2))
                lines.append(" " * indent + "-")
            else:
                rendered = json.dumps(item, separators=(",", ":")) if isinstance(item, (dict, list)) else str(item)
                lines.append(" " * indent + rendered)
    else:
        lines.append(" " * indent + str(doc))
    return lines


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, dict) for x in v)
    return False


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, separators=(",", ":"))
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if getattr(args, "pretty", False):
        print("\n".join(_pretty(doc)))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_mld(args) -> dict:
    germ = _load_germ(args.germ)
    bound = parse_rational(args.bound) if args.bound is not None else None
    r = mld(germ, bound=bound)
    return {"mld": format_q(r.value), "minimizers": [_point_out(p) for p in r.minimizers]}


def _cmd_oracle_mld(args) -> dict:
    germ = _load_germ(args.germ)
    if args.low is not None or args.high is not None:
        if args.low is None or args.high is None:
            raise ParseError("oracle window mode needs both --low and --high")
        low, high = _parse_window(args)
        pts = oracle.oracle_window(germ, low, high)
        return {
            "low": format_q(low),
            "high": format_q(high),
            "count": len(pts),
            "points": [[_point_out(p), format_q(v)] for p, v in pts],
        }
    bound = parse_rational(args.bound) if args.bound is not None else None
    value, mins = oracle.oracle_mld(germ, bound=bound)
    return {"mld": format_q(value), "minimizers": [_point_out(p) for p in mins]}


def _cmd_pi1(args) -> dict:
    germ = _load_germ(args.germ)
    g = pi1_reg(germ)
    doc = {"invariant_factors": list(g.invariant_factors), "order": str(g.order)}
    if g.free_rank:
        doc["free_rank"] = g.free_rank
    return doc


def _cmd_window(args) -> dict:
    germ = _load_germ(args.germ)
    low, high = _parse_window(args)
    keys, den = window_keys(germ, low, high), germ.rebased.den
    text = {x: format_ratio(x, den) for x in {key[-1] for key in keys}}
    return {
        "low": format_q(low),
        "high": format_q(high),
        "count": len(keys),
        "points": [[p, text[key[-1]]] for p, key in zip(_keys_out(keys, germ.lattice.den), keys)],
    }


def _cmd_check(args) -> dict:
    germ = _load_germ(args.germ)
    inst = lab.ConjectureInstance(
        germ, parse_rational(args.epsilon), parse_rational(args.delta)
    )
    r = lab.check_instance(inst)
    doc = {"classification": r.classification.value}
    if r.classification is lab.Classification.DEGENERATE:
        doc["diagnostic"] = r.diagnostic
        return doc
    doc.update(
        {
            "mld": format_q(r.mld_value),
            "hypothesis_mld_ok": r.hypothesis_mld_ok,
            "window_count": r.window_count,
            "pi1_order": str(r.pi1_order),
            "epsilon": format_q(inst.epsilon),
            "delta": format_q(inst.delta),
        }
    )
    return doc


def _cmd_trichotomy(args) -> dict:
    germ = _load_germ(args.germ)
    m = _parse_point(args.point, germ.dim)
    if any(type(x) is not int for x in m):
        raise ParseError("trichotomy points must have integer coordinates")
    res = structure.trichotomy(germ.cone, m)
    if isinstance(res, structure.Simplicial):
        return {"variant": "Simplicial"}
    if isinstance(res, structure.FullDimSubcone):
        return {"variant": "FullDimSubcone", "tau": [list(r) for r in res.tau.rays]}
    return {
        "variant": "SpanningPair",
        "tau1": [list(r) for r in res.tau1.rays],
        "tau2": [list(r) for r in res.tau2.rays],
    }


def _cmd_decompose(args) -> dict:
    germ = _load_germ(args.germ)
    m = _parse_point(args.point, germ.dim)
    d = structure.decompose(germ, m)
    return {
        "k0": d.k0,
        "vectors": [_point_out(v) for v in d.vectors],
        "rays": [list(r) for r in germ.cone.rays],
        "coefficients": [list(row) for row in d.coefficients],
        "total_weight": d.total_weight,
    }


def _cmd_blowup(args) -> dict:
    germ = _load_germ(args.germ)
    r = mld(germ)
    m = r.minimizers[0]
    d = structure.decompose(germ, m)
    rep = structure.blowup_report(germ, d)
    return {
        "m": _point_out(m),
        "k0": d.k0,
        "sigma0": [list(r) for r in rep.sigma0.rays],
        "k_values": [format_q(k) for k in rep.k_values],
        "group_order": str(rep.group_order),
        "coarse_order": str(rep.coarse_order),
        "pi1_order": str(rep.pi1_order),
    }


def _cmd_family(args) -> dict:
    germ = lab.family(args.name, args.param)
    return germ_doc(germ)


def _cmd_scan(args) -> dict:
    spec = load_json(_read_text(args.spec), "scan spec: ")
    try:
        instances = lab.instances_from_spec(spec)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"scan spec is malformed: {exc}") from exc
    report = lab.scan(instances)
    return report.to_doc()


# ---------------------------------------------------------------------------


class _Option(NamedTuple):
    flag: str
    help: str | None = None
    required: bool = False
    store_true: bool = False
    metavar: str | None = None
    type: Callable[[str], object] | None = None
    choices: tuple[str, ...] | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace], dict]
    help: str
    germ: bool
    options: tuple[_Option, ...]


# the one spec of the command line: _build_parser and _parse_exact both read it
_COMMON = (
    _Option("--pretty", "human-readable table", store_true=True),
    _Option("--out", "also write the JSON document here", metavar="FILE"),
)
_POINT = _Option("--point", "comma-separated coordinates", required=True)
_COMMANDS = {
    "mld": _Command(_cmd_mld, "minimal log discrepancy and all minimizers", True, (
        _Option("--bound", "a bound the mld must not exceed (rational)"),
    )),
    "oracle-mld": _Command(_cmd_oracle_mld, "brute-force oracle (mld, or window with --low/--high)", True, (
        _Option("--bound", "override the enumeration bound (rational)"),
        _Option("--low", "window lower end (rational)"),
        _Option("--high", "window upper end (rational)"),
    )),
    "pi1": _Command(_cmd_pi1, "regional fundamental group invariant factors", True, ()),
    "window": _Command(_cmd_window, "lattice points with log discrepancy in [low, high)", True, (
        _Option("--low", required=True),
        _Option("--high", required=True),
    )),
    "check": _Command(_cmd_check, "classify a (germ, epsilon, delta) instance", True, (
        _Option("--epsilon", required=True),
        _Option("--delta", required=True),
    )),
    "trichotomy": _Command(_cmd_trichotomy, "structural trichotomy at an interior point", True, (_POINT,)),
    "decompose": _Command(_cmd_decompose, "bounded decomposition of an interior point", True, (_POINT,)),
    "blowup": _Command(_cmd_blowup, "blow-up report at a minimizer of the mld", True, ()),
    "family": _Command(_cmd_family, "emit a germ document of a named family", False, (
        _Option("--name", required=True, choices=tuple(lab.FAMILIES)),
        _Option("--param", required=True, type=int),
    )),
    "scan": _Command(_cmd_scan, "aggregate a scan specification", False, (
        _Option("--spec", "scan spec JSON file", required=True),
    )),
}


# built only for an argv outside the exact grammar, and kept: a build leaves hundreds of objects of cyclic garbage
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricmld",
        description="Exact invariants of toric klt singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if cmd.germ:
            p.add_argument("germ", help="germ JSON document ('-' for stdin)")
        for opt in _COMMON + cmd.options:
            if opt.store_true:
                p.add_argument(opt.flag, action="store_true", help=opt.help)
            else:
                p.add_argument(opt.flag, help=opt.help, required=opt.required, metavar=opt.metavar,
                               type=opt.type, choices=opt.choices)
        p.set_defaults(func=cmd.handler)
    return parser


def _parse_exact(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives ``argv`` when it keeps to the exact
    grammar, and None otherwise, for argparse to parse: a command name,
    then each option spelled in full at most once (``--low 1`` or
    ``--low=1``; a store-true flag without ``=``) and the germ, if the
    command takes one, in any order; a value in its own token is ``-`` or
    does not start with ``-``; every required option is given, and its
    type and choices hold."""
    cmd = _COMMANDS.get(argv[0]) if argv else None
    if cmd is None:
        return None
    options = {opt.flag: opt for opt in _COMMON + cmd.options}
    values, germ = {}, []
    i, n = 1, len(argv)
    while i < n:
        token = argv[i]
        i += 1
        if token == "-" or not token.startswith("-"):
            germ.append(token)
            continue
        flag, eq, value = token.partition("=")
        opt = options.get(flag)
        if opt is None or opt.dest in values or opt.store_true and eq:
            return None
        if opt.store_true:
            value = True
        elif not eq:
            if i == n or argv[i] != "-" and argv[i].startswith("-"):
                return None
            value = argv[i]
            i += 1
        if opt.type is not None:
            try:
                value = opt.type(value)
            except ValueError:
                return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value
    if len(germ) != int(cmd.germ) or any(opt.required and opt.dest not in values for opt in options.values()):
        return None
    if cmd.germ:
        values["germ"] = germ[0]
    defaults = {opt.dest: False if opt.store_true else None for opt in options.values()}
    return argparse.Namespace(command=argv[0], func=cmd.handler, **(defaults | values))


def _attach_point_values(argv: list[str]) -> list[str]:
    """Rewrite ``--point -1,0`` as ``--point=-1,0``.

    argparse takes a value that starts with '-' and is not a plain
    negative number for an option, so a point with a negative first
    coordinate would be a usage error.
    """
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--point" and i + 1 < len(argv) and re.match(r"-[0-9.]", argv[i + 1]):
            out.append(f"--point={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    argv = _attach_point_values(list(sys.argv[1:] if argv is None else argv))
    try:
        args = _parse_exact(argv) or _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _emit(args.func(args), args)
    except ToricError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
