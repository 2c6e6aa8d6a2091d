"""JSON interchange for every value type the command line exposes.

Rational numbers travel as exact "p/q" strings (or "p" for integers),
and so do the integer coefficients of a decomposition's scheme.  Reading
is strict: counts, degrees and exponents must be JSON integers, a
coefficient a JSON integer (never a boolean) or a string "p" or "p/q"
in ASCII digits with an optional leading minus and nothing else,
and a polynomial may list each exponent once.  Command-line integers
follow the same grammar without "/q" (`ascii_int`).  A curve must be
one the generators could have built (`curve_from_json`).  Anything else
raises ValueError instead of being coerced.  Serialization is deterministic:
terms are emitted in graded-lex order, and `report_text` writes every
report with sorted keys, a two-space indent and ASCII escapes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import inf

from .apolarity import GradedIdealPiece
from .core import Polynomial
from .curvegen import BihomSection, CurveSpec, _common_base_factor, tetragonal_surfaces
from .scroll import DivisorClass, Scroll, section_templates
from .waring import Decomposition

__all__ = [
    "polynomial_to_json", "polynomial_from_json",
    "piece_to_json", "piece_from_json",
    "scroll_to_json", "scroll_from_json",
    "divisor_to_json", "divisor_from_json",
    "curve_to_json", "curve_from_json",
    "decomposition_to_json", "report_text",
]


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_INTEGER = re.compile(r"-?[0-9]+")


def ascii_int(raw: str) -> int:
    """An integer written as ASCII digits with an optional leading minus
    and nothing else, the one grammar of integer flags and variables:
    `int` would also read "1_1", " 7", "+2" and non-ASCII digits."""
    if not _INTEGER.fullmatch(raw):
        raise ValueError(f"expected an integer in ASCII digits, got {raw!r}")
    return int(raw)


def _coef_to_str(c: Fraction) -> str:
    return str(c)


def _coef_from_str(raw) -> Fraction:
    """A coefficient built from the integers of its matched ASCII digits:
    `Fraction` would parse the string again in its own, looser grammar."""
    match = isinstance(raw, str) and _RATIONAL.fullmatch(raw)
    if not (match or isinstance(raw, int) and not isinstance(raw, bool)):
        raise ValueError(f"coefficients must be integers or strings p or p/q, got {raw!r}")
    numerator, denominator = match.groups() if match else (raw, None)
    if denominator is None:
        return Fraction(int(numerator))
    try:
        return Fraction(int(numerator), int(denominator))
    except ZeroDivisionError:
        raise ValueError(f"{raw!r} has a zero denominator") from None


def _int(raw) -> int:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise ValueError(f"expected an integer, got {raw!r}")


def polynomial_to_json(poly: Polynomial) -> dict:
    return {
        "nvars": poly.nvars,
        "degree": poly.degree,
        "terms": [{"exp": list(exp), "coef": _coef_to_str(c)}
                  for exp, c in poly.sorted_terms()],
    }


def polynomial_from_json(data: dict) -> Polynomial:
    terms = {}
    for t in data["terms"]:
        exp = tuple(t["exp"])
        if not all(type(e) is int for e in exp):
            # _int accepts the other ints and names the first value it refuses
            exp = tuple(map(_int, exp))
        if exp in terms:
            raise ValueError(f"exponent {list(exp)} is listed twice")
        terms[exp] = _coef_from_str(t["coef"])
    return Polynomial(_int(data["nvars"]), _int(data["degree"]), terms)


def piece_to_json(piece: GradedIdealPiece) -> dict:
    return {
        "degree": piece.degree,
        "nvars": piece.nvars,
        "dim": piece.dim,
        "basis": [polynomial_to_json(p) for p in piece.basis],
    }


def piece_from_json(data: dict) -> GradedIdealPiece:
    basis = tuple(polynomial_from_json(p) for p in data["basis"])
    if _int(data["dim"]) != len(basis):
        raise ValueError(f"dim {data['dim']} is not the length {len(basis)} of the basis")
    return GradedIdealPiece(_int(data["degree"]), _int(data["nvars"]), basis)


def scroll_to_json(scroll: Scroll) -> dict:
    return {"type": list(scroll.type)}


def scroll_from_json(data: dict) -> Scroll:
    return Scroll(tuple(_int(a) for a in data["type"]))


def divisor_to_json(cls: DivisorClass) -> dict:
    return {"h": cls.h, "f": cls.f}


def divisor_from_json(data: dict, scroll: Scroll) -> DivisorClass:
    return DivisorClass(_int(data["h"]), _int(data["f"]), scroll)


def _section_to_json(section: BihomSection) -> dict:
    return {
        "class": divisor_to_json(section.cls),
        "terms": [{"fiber_exp": list(exp), "base": polynomial_to_json(form)}
                  for exp, form in sorted(section.coeffs.items(), reverse=True)],
    }


def _section_from_json(data: dict, scroll: Scroll) -> BihomSection:
    """A section whose every term is a template of its class (the fiber
    monomial of a `section_templates` pair), listed once, with a binary
    base form of the template's degree."""
    cls = divisor_from_json(data["class"], scroll)
    templates = dict(section_templates(scroll, cls))
    coeffs = {}
    for t in data["terms"]:
        exp = tuple(_int(e) for e in t["fiber_exp"])
        if exp not in templates:
            raise ValueError(f"fiber exponent {list(exp)} is not a template of class {cls}")
        if exp in coeffs:
            raise ValueError(f"fiber exponent {list(exp)} is listed twice")
        base = polynomial_from_json(t["base"])
        if (base.nvars, base.degree) != (2, templates[exp]):
            raise ValueError(f"the base form of fiber exponent {list(exp)} must be a "
                             f"binary form of degree {templates[exp]}")
        coeffs[exp] = base
    return BihomSection(scroll, cls, coeffs)


def curve_to_json(curve: CurveSpec) -> dict:
    return {
        "genus": curve.genus,
        "gonality": curve.gonality,
        "scroll": scroll_to_json(curve.scroll),
        "classes": [divisor_to_json(c) for c in curve.classes],
        "equations": [_section_to_json(s) for s in curve.equations],
        "seed": curve.seed,
        "rational_fiber_hints": [str(t) for t in curve.rational_fiber_hints],
    }


def curve_from_json(data: dict) -> CurveSpec:
    """A trigonal or tetragonal curve the generators' rules allow:
    gonality 3 or 4, gonality - 2 classes and equations, a scroll of
    dimension gonality - 1 and degree g - gonality + 1, the class
    3H + (4 - g)F with base forms that share no factor, or the classes of
    a split that `tetragonal_surfaces` accepts, each equation of its
    class (`_section_from_json`), and distinct rational hints."""
    genus, gonality = _int(data["genus"]), _int(data["gonality"])
    if gonality not in (3, 4):
        raise ValueError(f"the gonality must be 3 or 4, not {gonality}")
    scroll = scroll_from_json(data["scroll"])
    if (scroll.k, scroll.degree) != (gonality - 1, genus - gonality + 1):
        raise ValueError(f"scroll {list(scroll.type)} does not carry a gonality-{gonality} "
                         f"curve of genus {genus}")
    classes = tuple(divisor_from_json(c, scroll) for c in data["classes"])
    equations = tuple(_section_from_json(s, scroll) for s in data["equations"])
    if len(classes) != gonality - 2 or len(equations) != gonality - 2:
        raise ValueError(f"a gonality-{gonality} curve has {gonality - 2} classes "
                         f"and equations")
    wrong = (f"classes {', '.join(map(str, classes))} are not those of a "
             f"gonality-{gonality} curve of genus {genus}")
    try:
        expected = ((scroll.cls(3, 4 - genus),) if gonality == 3
                    else tetragonal_surfaces(scroll, *(-c.f for c in classes)))
    except ValueError as err:
        raise ValueError(f"{wrong}: {err}") from None
    if classes != expected:
        raise ValueError(wrong)
    if tuple(eq.cls for eq in equations) != classes:
        raise ValueError("every equation must have its curve class")
    if gonality == 3 and _common_base_factor(list(equations[0].coeffs.values())):
        raise ValueError("the base forms of the equation share a factor, so the curve "
                         "contains a fiber")
    hints = tuple(_coef_from_str(t) for t in data.get("rational_fiber_hints", []))
    if len(set(hints)) != len(hints):
        raise ValueError("every sampling hint must be a distinct rational")
    return CurveSpec(genus, gonality, scroll, classes, equations, _int(data["seed"]), hints)


def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "rank": dec.rank,
        "nvars": dec.nvars,
        "certificate": "exact",
        "residual": "0",
        "scheme_equation": [str(c) for c in dec.scheme_equation],
        "points": [[str(c) for c in f] for f in dec.points],
    }


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == inf:
        return "Infinity"
    if value == -inf:
        return "-Infinity"
    return float.__repr__(value)


_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
                bool: {False: "false", True: "true"}.__getitem__, type(None): lambda _: "null"}


def report_text(value, _newline: str = "\n") -> str:
    """The text `json.dumps(value, indent=2, sort_keys=True)` gives, the
    one writer of every report.  With an indent `json` runs its
    pure-Python encoder; this one looks up each value's exact type first,
    so a scalar costs one dict lookup and one C call.  Strings go through
    `json.encoder.encode_basestring_ascii`, as in `json`; ints, their
    subclasses included, through `int.__repr__`; floats as `json` writes
    them (`NaN`, `Infinity` and `-Infinity` included).  Lists and tuples
    alike are arrays, and dict items are sorted by key.  Any other value,
    or a key that is not a `str`, raises TypeError: `json` would write an
    int, float, bool or None key as a string, but no report has one.
    `_newline` is the line break and indent of the enclosing level."""
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = _newline + "  "
    get = _SCALAR_TEXT.get
    if isinstance(value, dict):
        if not value:
            return "{}"
        # encode_basestring_ascii raises the TypeError for a key that is no str
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": "
            + (scalar(item) if (scalar := get(type(item))) is not None
               else report_text(item, inner))
            for key, item in sorted(value.items())]) + _newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([
            scalar(item) if (scalar := get(type(item))) is not None
            else report_text(item, inner)
            for item in value]) + _newline + "]"
    for base in (str, int, float):
        if isinstance(value, base):
            return _SCALAR_TEXT[base](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
