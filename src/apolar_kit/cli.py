"""Command-line front end: JSON in, JSON out, reproducible by seed.

Exit codes: 0 on success, 1 when an internal certificate or verification
assertion fails, 2 on malformed input.  Every command with randomness
requires an explicit --seed; identical invocations produce byte-identical
reports.  APOLAR_KIT_THREADS is the number of worker processes for the
verifier trials (0, empty or unset = serial); the pool never has more
processes than there are trials, and a value that is not ASCII digits
exits with code 2.  Reports do not depend on it.  Every integer flag is
ASCII digits with an optional leading minus (`jsonio.ascii_int`), and
anything else exits with code 2.  Every report, on stdout or in the
`--out` file, is `jsonio.report_text` and a newline: the bytes
`json.dumps(report, indent=2, sort_keys=True)` gives.  One parser,
built at import, parses every `main` call, and `main` looks the
command's handler up by name when it runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .apolarity import (SocleDimensionError, apolar_ideal_piece,
                        hilbert_function, macaulay_inverse)
from .curvegen import (CurveGenerationError, IdealDimensionError,
                       PointCertificateError, SamplingError, balanced_type,
                       ideal_pieces, tetragonal_curve, trigonal_curve)
from .pipeline import (AlphaCertificateError, VerificationError, alpha_for_curve,
                       verify_tetragonal_bound, verify_trigonal_fermat)
from .planemodel import (higher_gonality_degree, nakai_certificate,
                         tetragonal_numerology)
from .scroll import (Scroll, canonical_class, chow_product, divisor_degree,
                     project_type, section_count, section_templates)
from .waring import CertificateError, fermat_detect_detail

FAILURE_ERRORS = (VerificationError, CertificateError, AlphaCertificateError,
                  SocleDimensionError, SamplingError, CurveGenerationError,
                  IdealDimensionError, PointCertificateError)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(report: dict, out_path) -> None:
    text = jsonio.report_text(report) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_int_list(raw: str, flag: str, count: int | None = None) -> tuple[int, ...]:
    """A flag's comma-separated integers, `count` of them when given; an
    empty value or part, or another count, is an input error."""
    try:
        values = tuple(map(jsonio.ascii_int, raw.split(",")))
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, not {raw!r}") from None
    if count is not None and len(values) != count:
        raise ValueError(f"{flag} takes {count} comma-separated integers, not {raw!r}")
    return values


def _cmd_apolar(args) -> dict:
    poly = jsonio.polynomial_from_json(_read_json(args.in_path))
    profile = hilbert_function(poly)
    report = {
        "claim": "graded structure of the annihilator of the form",
        "hilbert": list(profile.hilbert),
        "socle_dim": profile.socle_dim,
    }
    if args.k is not None:
        piece = apolar_ideal_piece(poly, args.k)
        report["piece"] = jsonio.piece_to_json(piece)
    return report


def _cmd_inverse(args) -> dict:
    data = _read_json(args.in_path)
    pieces = [jsonio.piece_from_json(p) for p in data["pieces"]]
    form = macaulay_inverse(pieces, jsonio._int(data["d"]))
    return {
        "claim": "unique form annihilated by the given graded pieces",
        "form": jsonio.polynomial_to_json(form),
    }


def _cmd_fermat(args) -> dict:
    poly = jsonio.polynomial_from_json(_read_json(args.in_path))
    decomposition, reason = fermat_detect_detail(poly, seed=args.seed)
    report = {
        "claim": "the form is a sum of cubes of independent linear forms",
        "fermat": decomposition is not None,
        "reason": reason,
    }
    if decomposition is not None:
        report["decomposition"] = jsonio.decomposition_to_json(decomposition)
    return report


def _cmd_scroll(args) -> dict:
    scroll = Scroll(_parse_int_list(args.type, "--type"))
    report = {
        "claim": "divisor arithmetic on a rational normal scroll",
        "scroll": jsonio.scroll_to_json(scroll),
        "N": scroll.N,
        "scroll_degree": scroll.degree,
        "op": args.op,
    }
    if args.op in ("degree", "sections") and args.cls is None:
        raise ValueError(f"--class is required for op {args.op!r}")
    if args.op == "chow" and args.classes is None:
        raise ValueError("--classes is required for op 'chow'")
    if args.op == "degree":
        cls = scroll.cls(*_parse_int_list(args.cls, "--class", 2))
        report["class"] = jsonio.divisor_to_json(cls)
        report["result"] = divisor_degree(scroll, cls)
    elif args.op == "canonical":
        report["result"] = jsonio.divisor_to_json(canonical_class(scroll))
    elif args.op == "chow":
        classes = [scroll.cls(*_parse_int_list(part, "--classes", 2))
                   for part in args.classes.split(";")]
        report["classes"] = [jsonio.divisor_to_json(c) for c in classes]
        report["result"] = chow_product(classes)
    elif args.op == "sections":
        cls = scroll.cls(*_parse_int_list(args.cls, "--class", 2))
        report["class"] = jsonio.divisor_to_json(cls)
        report["templates"] = [{"fiber_exp": list(exp), "base_degree": d}
                               for exp, d in section_templates(scroll, cls)]
        report["result"] = section_count(scroll, cls)
    elif args.op == "project":
        report["result"] = jsonio.scroll_to_json(project_type(scroll, args.index))
    else:
        raise ValueError(f"unknown scroll op {args.op!r}")
    return report


def _make_curve(args):
    if args.g is None or args.gonality is None:
        raise ValueError("--g and --gonality are required when no curve file is given")
    if args.gonality == 3:
        if args.split is not None:
            raise ValueError("--split applies to gonality 4 only")
        return trigonal_curve(args.g, args.seed)
    if args.split is not None:
        b1, b2 = _parse_int_list(args.split, "--split", 2)
    else:
        b1, b2 = balanced_type(args.g - 5, 2)
    return tetragonal_curve(args.g, b1, b2, args.seed)


def _cmd_curve_gen(args) -> dict:
    curve = _make_curve(args)
    recon = ideal_pieces(curve, args.seed, args.points)
    return {
        "claim": "canonical curve on a scroll with exact ideal reconstruction",
        "curve": jsonio.curve_to_json(curve),
        "points": [list(p) for p in recon.points],
        "ideal": {
            "degree2_dim": len(recon.degree2),
            "degree3_dim": len(recon.degree3),
            "point_count": len(recon.points),
            # reading degree3 raises on any other dimensions
            "rank_saturated": len(recon.points) > 0,
            "dims_expected": True,
        },
    }


def _cmd_alpha(args) -> dict:
    if args.in_path:
        given = [flag for flag, value in (("--g", args.g), ("--gonality", args.gonality),
                                          ("--split", args.split)) if value is not None]
        if given:
            raise ValueError(f"{', '.join(given)} cannot be combined with --in: "
                             "the curve file fixes the curve")
        curve = jsonio.curve_from_json(_read_json(args.in_path))
    else:
        curve = _make_curve(args)
    alpha = alpha_for_curve(curve, args.seed)
    return {
        "claim": "quotient by two general hyperplanes is Artinian Gorenstein "
                 "with Hilbert vector (1, g-2, g-2, 1)",
        "g": curve.genus,
        "hilbert": list(alpha.hilbert),
        "eta1": jsonio.polynomial_to_json(alpha.eta1),
        "eta2": jsonio.polynomial_to_json(alpha.eta2),
        "kept_indices": list(alpha.kept_indices),
        "cubic": jsonio.polynomial_to_json(alpha.cubic),
    }


def _cmd_verify_a(args) -> dict:
    return verify_trigonal_fermat(args.g, args.trials, args.seed)


def _cmd_verify_b(args) -> dict:
    split = _parse_int_list(args.split, "--split", 2) if args.split is not None else None
    return verify_tetragonal_bound(args.g, split, args.trials, args.seed)


def _cmd_numerology(args) -> dict:
    report = tetragonal_numerology(args.g)
    return {
        "claim": "forced plane-model multiplicities and surface degree for a "
                 "tetragonal canonical curve",
        "g": report.genus,
        "k": report.k,
        "plane_degree": report.plane_degree,
        "pencil_constraint": report.pencil_constraint,
        "multiplicities": list(report.multiplicities),
        "degS": report.deg_surface,
        "bound": report.bound,
        "branches": [b._asdict() | {"multiplicities": list(b.multiplicities)}
                     for b in report.branches],
    }


def _cmd_nakai(args) -> dict:
    report = nakai_certificate(args.k, a_max=args.a_max)
    return {
        "claim": "positivity certificates for the adjoint and curve classes "
                 "on the four-point blow-up",
        "k": args.k,
        "ample_self_intersection": report.ample.self_intersection,
        "curve_self_intersection": report.curve.self_intersection,
        "a_max": args.a_max,
        "ample_violations": [list(v) for v in report.ample.violations],
        "curve_violations": [list(v) for v in report.curve.violations],
        "tail_bound": report.tail_linear_bound,
        "holds": report.holds,
    }


def _cmd_gonality_n(args) -> dict:
    report = higher_gonality_degree(args.n, args.k, args.excess)
    return {
        "claim": "surface degree produced by the plane-model method for an "
                 "n-gonal curve",
        **report._asdict(),
    }


def _add_common(parser, seed=False):
    parser.add_argument("--out", dest="out_path", default=None,
                        help="write the JSON report here instead of stdout")
    if seed:
        parser.add_argument("--seed", type=jsonio.ascii_int, required=True,
                            help="seed for all randomness (mandatory)")


_IN = ("--in", {"dest": "in_path", "required": True})

# name: (help, handler, takes --seed, its own options as (flag, keywords))
_COMMANDS = {
    "apolar": ("Hilbert vector and graded annihilator pieces", _cmd_apolar, False,
               (_IN, ("--k", {"type": jsonio.ascii_int, "default": None}))),
    "inverse": ("recover a form from graded ideal pieces", _cmd_inverse, False, (_IN,)),
    "fermat": ("detect and decompose a sum-of-cubes form", _cmd_fermat, True, (_IN,)),
    "scroll": ("scroll divisor arithmetic", _cmd_scroll, False, (
        ("--type", {"required": True, "help": "comma-separated type, e.g. 1,1,2"}),
        ("--class", {"dest": "cls", "default": None, "help": "h,f"}),
        ("--classes", {"default": None, "help": "semicolon-separated h,f list"}),
        ("--index", {"type": jsonio.ascii_int, "default": 0}),
        ("--op", {"required": True,
                  "choices": ["degree", "canonical", "chow", "sections", "project"]}))),
    "curve-gen": ("generate a curve and reconstruct its ideal", _cmd_curve_gen, True, (
        ("--g", {"type": jsonio.ascii_int, "required": True}),
        ("--gonality", {"type": jsonio.ascii_int, "choices": [3, 4], "required": True}),
        ("--split", {"default": None, "help": "b1,b2 for gonality 4"}),
        ("--points", {"type": jsonio.ascii_int, "default": None}))),
    "alpha": ("quotient construction down to the cubic", _cmd_alpha, True, (
        ("--in", {"dest": "in_path", "default": None,
                  "help": "curve JSON from curve-gen (otherwise generate)"}),
        ("--g", {"type": jsonio.ascii_int, "default": None}),
        ("--gonality", {"type": jsonio.ascii_int, "choices": [3, 4], "default": None}),
        ("--split", {"default": None}))),
    "verify-a": ("trigonal power-sum verification", _cmd_verify_a, True, (
        ("--g", {"type": jsonio.ascii_int, "required": True}),
        ("--trials", {"type": jsonio.ascii_int, "default": 5}))),
    "verify-b": ("tetragonal bound verification", _cmd_verify_b, True, (
        ("--g", {"type": jsonio.ascii_int, "required": True}),
        ("--split", {"default": None, "help": "b1,b2 with b1+b2 = g-5"}),
        ("--trials", {"type": jsonio.ascii_int, "default": 3}))),
    "numerology": ("tetragonal plane-model numerology", _cmd_numerology, False, (
        ("--g", {"type": jsonio.ascii_int, "required": True}),)),
    "nakai": ("blow-up positivity certificates", _cmd_nakai, False, (
        ("--k", {"type": jsonio.ascii_int, "required": True}),
        ("--a-max", {"type": jsonio.ascii_int, "default": 50}))),
    "gonality-n": ("higher-gonality surface degrees", _cmd_gonality_n, False, (
        ("--n", {"type": jsonio.ascii_int, "required": True}),
        ("--k", {"type": jsonio.ascii_int, "required": True}),
        ("--excess", {"type": jsonio.ascii_int, "default": 0}))),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command.  Each command's `handler` default is
    its handler's name, which `main` looks up in the module when it runs,
    so that a handler replaced on the module runs."""
    parser = argparse.ArgumentParser(
        prog="apolar-kit",
        description="exact apolarity, inverse systems and power-sum "
                    "decompositions for canonical-curve cubics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, seed, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        _add_common(p, seed)
        p.set_defaults(handler=handler.__name__)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        try:
            report, code = globals()[args.handler](args), 0
        except FAILURE_ERRORS as err:
            report, code = dict(getattr(err, "report", None) or {}), 1
            report.setdefault("error", str(err))
            report["passed"] = False
        # an unwritable --out is an input error, like an unreadable --in
        _emit(report, args.out_path)
    except (json.JSONDecodeError, OSError, KeyError, TypeError, ValueError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
