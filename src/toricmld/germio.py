"""Germ documents: the JSON exchange format for toric germs.

All rationals travel as strings "p/q" (or "p" for integers); nothing in
a document is ever a binary float.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

from .cones import make_cone
from .errors import ParseError
from .invariants import ToricGerm, make_germ
from .linalg import lattice_from_generators, primitive


def format_q(x) -> str:
    return str(x) if type(x) in (int, Fraction) else str(Fraction(x))


def format_ratio(num: int, den: int) -> str:
    """format_q(Fraction(num, den)) for ints num and den > 0, from the integers."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def coord_out(x):
    """Coordinate for JSON output: int when integral, else 'p/q'."""
    if type(x) is int:
        return x
    f = x if type(x) is Fraction else Fraction(x)
    return f.numerator if f.denominator == 1 else str(f)


def parse_q(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value, f"{where}: ")
    raise ParseError(f"{where}: expected a rational string, got {type(value).__name__}")


# one grammar on every interpreter, though Fraction's differs: ASCII digits,
# no "_" and no exponent, as Fraction("1e-3000000") would have millions of digits;
# "p" or "p/q" captures p and q, and a decimal captures nothing
_RATIONAL = re.compile(r"\s*([-+]?[0-9]+)(?:/([0-9]+))?\s*|\s*[-+]?(?:[0-9]+\.[0-9]*|\.[0-9]+)\s*")


def parse_rational(text: str, where: str = "") -> Fraction:
    """The rational a string "p/q", integer or decimal names; any other string raises ParseError."""
    if match := _RATIONAL.fullmatch(text):
        p, q = match.groups()
        try:  # int() refuses more digits than the interpreter's limit
            if p is None:
                return Fraction(text)
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"{where}{text!r} is not a rational 'p/q'")


def parse_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {type(value).__name__}")
    return value


def germ_doc(germ: ToricGerm) -> dict:
    """Serialisable document; fields with default values are omitted."""
    doc = {"dim": germ.dim, "rays": [list(r) for r in germ.cone.rays]}
    if any(p for p, _ in germ.boundary_ratios):
        doc["boundary"] = [format_ratio(p, q) for p, q in germ.boundary_ratios]
    lat = germ.lattice
    if not lat.is_standard:
        doc["lattice_extra"] = [[format_ratio(x, lat.den) for x in row] for row in lat.num]
    return doc


def parse_germ_doc(doc) -> ToricGerm:
    if not isinstance(doc, dict):
        raise ParseError("germ document must be a JSON object")
    if "dim" not in doc or "rays" not in doc:
        raise ParseError("germ document needs 'dim' and 'rays' fields")
    dim = parse_int(doc["dim"], "dim")
    if dim < 1:
        raise ParseError("'dim' must be a positive integer")
    rays_field = doc["rays"]
    if not isinstance(rays_field, list) or not rays_field:
        raise ParseError("'rays' must be a nonempty list of integer rows")
    rays = []
    for i, row in enumerate(rays_field):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"rays[{i}] must be a list of {dim} integers")
        if not all(type(x) is int for x in row):
            j = next(j for j, x in enumerate(row) if type(x) is not int)
            raise ParseError(f"rays[{i}][{j}] must be an integer")
        rays.append(tuple(row))
    boundary = None
    if "boundary" in doc:
        field = doc["boundary"]
        if not isinstance(field, list):
            raise ParseError("'boundary' must be a list of rational strings")
        boundary = [parse_q(x, f"boundary[{i}]") for i, x in enumerate(field)]
    lattice = None
    if "lattice_extra" in doc:
        field = doc["lattice_extra"]
        if not isinstance(field, list):
            raise ParseError("'lattice_extra' must be a list of rational rows")
        gens = []
        for i, row in enumerate(field):
            if not isinstance(row, list) or len(row) != dim:
                raise ParseError(f"lattice_extra[{i}] must be a list of {dim} rationals")
            gens.append([parse_q(x, f"lattice_extra[{i}][{j}]") for j, x in enumerate(row)])
        lattice = lattice_from_generators(dim, gens)
    cone = make_cone(dim, rays)
    if boundary is not None and len(boundary) != len(rays_field):
        # coefficients are given per input ray; after normalisation the ray
        # set may shrink, which would silently misalign them
        raise ParseError(
            f"{len(boundary)} boundary coefficients for {len(rays_field)} input rays"
        )
    if boundary is not None and len(cone.rays) != len(rays_field):
        raise ParseError(
            "boundary coefficients cannot be matched: input rays are not "
            "the extremal ray set of the cone"
        )
    if boundary is not None:
        # reorder per the canonical ray order
        order = {primitive(r): b for r, b in zip(rays, boundary)}
        boundary = [order[r] for r in cone.rays]
    return make_germ(cone, boundary, lattice)


def load_json(text: str, where: str = ""):
    """The value of a JSON text; ParseError, prefixed by ``where``, for malformed JSON (at its
    line and column), an integer past the digit limit or nesting past the recursion limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal with too many digits
        raise ParseError(f"{where}an integer has more than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise ParseError(f"{where}JSON nested too deeply") from exc


def parse_germ(text: str) -> ToricGerm:
    """Parse a UTF-8 JSON germ document."""
    return parse_germ_doc(load_json(text))
