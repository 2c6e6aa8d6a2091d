"""End-to-end quotient construction and power-sum verification.

Quotienting the coordinate ring of a canonical curve by two general
hyperplanes leaves a graded Artinian Gorenstein algebra with Hilbert
vector (1, g-2, g-2, 1); inverting its top graded pieces produces a
cubic in g - 2 variables.  The surfaces spanned between the curve and
its ambient scroll cut that quotient in a finite scheme whose points
give an explicit power-sum presentation of the cubic, and the two
verifiers below run those constructions at desk scale:

* the trigonal verifier certifies exactly that the cubic is always a
  sum of g - 2 cubes: the scheme cut on the scroll, taken over Q in
  Q[t]/(D) without its roots, is g - 2 points whose cubes span it, and
  the cubic is concise;
* the tetragonal verifier certifies, in the same way, that the cubic is
  a sum of at most ceil((3g - 7) / 2) cubes, the points of the scheme cut
  on one of the two surfaces between the curve and its threefold scroll.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, factorial, prod
from typing import Optional, Sequence

from .apolarity import GradedIdealPiece, inverse_system
from .core import (ExactMatrix, Polynomial, _row_to_int, change_coordinates,
                   int_kernel, monomial_basis, substitute)
from .curvegen import (CurveSpec, IdealReconstruction, balanced_type, ideal_pieces,
                       sample_points, tetragonal_curve, trigonal_curve)
from .scroll import coordinate_layout, divisor_degree
from .seeding import derive_seed, make_rng, random_dual_linear
from .univariate import _combine, _mul, _pseudo_remainder, poly_gcd
from .waring import CertificateError, _certify_scheme, rank_lower_bound

__all__ = [
    "AlphaResult",
    "AlphaCertificateError",
    "VerificationError",
    "alpha_map",
    "alpha_for_curve",
    "tetragonal_cube_bound",
    "verify_trigonal_fermat",
    "verify_tetragonal_bound",
]


class AlphaCertificateError(RuntimeError):
    """Quotient by the chosen hyperplanes is not the expected algebra.

    Carries the diagnostic Hilbert vector so callers can tell a bad
    (non-general) choice of hyperplanes from a broken reconstruction.
    """

    def __init__(self, hilbert: tuple[int, ...], message: str):
        self.hilbert = hilbert
        super().__init__(f"{message}; diagnostic Hilbert vector {hilbert}")


class VerificationError(RuntimeError):
    def __init__(self, message: str, report: dict):
        self.report = report
        super().__init__(message)


@dataclass(frozen=True)
class AlphaResult:
    genus: int
    eta1: Polynomial
    eta2: Polynomial
    hilbert: tuple[int, ...]
    cubic: Polynomial
    kept_indices: tuple[int, ...]
    frame: ExactMatrix          # rows: kept coordinate vectors, then the etas
    quotient_piece2: GradedIdealPiece


def tetragonal_cube_bound(g: int) -> int:
    """ceil((3g - 7) / 2), the tetragonal power-sum bound."""
    if g < 4:
        raise ValueError("bound defined for genus >= 4")
    return -(-(3 * g - 7) // 2)


def quotient_frame(eta1: Polynomial, eta2: Polynomial, g: int):
    """Coordinate frame sending the two hyperplanes to the last two slots.

    Returns (kept coordinate indices, R, L) where the rows of R are the
    kept unit vectors followed by the two hyperplane coefficient rows and
    L is the inverse substitution matrix.  Coordinate i is dropped when
    some combination of the hyperplanes has its last nonzero entry at i:
    those are the pivots of the hyperplane rows read from the right.
    """
    if eta1.nvars != g or eta2.nvars != g or eta1.degree != 1 or eta2.degree != 1:
        raise ValueError("hyperplanes must be linear forms in g variables")
    basis1 = monomial_basis(g, 1)
    c1 = eta1.coefficient_vector(basis1)
    c2 = eta2.coefficient_vector(basis1)
    _, pivots = ExactMatrix([c1[::-1], c2[::-1]]).rref()
    if len(pivots) < 2:
        raise AlphaCertificateError((1,), "the two hyperplanes are dependent")
    dropped = {g - 1 - p for p in pivots}
    kept = tuple(i for i in range(g) if i not in dropped)
    frame_rows = [[Fraction(1) if j == i else Fraction(0) for j in range(g)]
                  for i in kept] + [c1, c2]
    frame = ExactMatrix(frame_rows)
    return kept, frame, frame.inverse()


def alpha_map(recon: IdealReconstruction, eta1: Polynomial,
              eta2: Polynomial) -> AlphaResult:
    """Quotient the curve ideal by two hyperplanes and invert the result.

    Restriction is the ring map x -> L y, with L the frame inverse cut
    down to the n = g - 2 kept coordinates; one `substitute` call applies
    it to the degree-2 piece.  The degree-3 inverse system V of the
    restricted quadrics (taken as they come: only their span matters)
    contains the cubic.  The transposed map lifts V back to g variables
    as the adjoint of restriction for the apolarity pairing, so the
    cubics of V that the restricted degree-3 piece annihilates are the
    kernel of pairing the lifts with `recon.degree3`.  That pairing is an
    integer dot product: each element of `recon.degree3` is scaled to
    integers (a row's scale does not move the kernel), each lift too,
    with the factorial weights of `core.pair` folded in, and each kernel
    coordinate is multiplied back by its lift's scale.  The kernel's
    dimension is h3 = C(n + 2, 3) - dim(restricted degree-3 piece), since
    degree-1 multiples of restricted quadrics are restricted cubics.
    Hilbert vector (1, n, n, 1) certifies the hyperplanes as general, and
    the one-dimensional kernel is then the cubic: its coordinates, with
    the lift scales, become integer weights on the integer terms of V's
    basis, and the one sum is normalized.
    """
    g = recon.genus
    kept, frame, substitution = quotient_frame(eta1, eta2, g)
    n = g - 2
    restriction = ExactMatrix([row[:n] for row in substitution.rows()])
    quadrics = [p for p in substitute(recon.degree2.basis, restriction) if not p.is_zero()]
    piece2 = GradedIdealPiece.from_spanning(2, n, quadrics)
    solutions = inverse_system([GradedIdealPiece(2, n, tuple(quadrics))], 3)
    lift_scales, weighted = [], []
    for lift in substitute(solutions, restriction.transpose()):
        scale, terms = lift.integer_terms()
        lift_scales.append(scale)
        weighted.append({exp: c * prod(map(factorial, exp)) for exp, c in terms.items()})
    conditions = []
    for element in recon.degree3.basis:
        terms = element.integer_terms()[1].items()
        conditions.append([sum(c * lift[exp] for exp, c in terms if exp in lift)
                           for lift in weighted])
    combos = int_kernel(conditions, len(weighted))
    h2 = comb(n + 1, 2) - piece2.dim
    hilbert = (1, n, h2, len(combos))
    if h2 != n or len(combos) != 1:
        raise AlphaCertificateError(
            hilbert, "quotient algebra does not have the expected Hilbert vector")
    scaled = [form.integer_terms() for form in solutions]
    weights = _row_to_int([c * lift_scale / scale for c, lift_scale, (scale, _)
                           in zip(combos[0], lift_scales, scaled)])
    terms: dict[tuple[int, ...], int] = {}
    for w, (_, form_terms) in zip(weights, scaled):
        if w:
            for exp, x in form_terms.items():
                terms[exp] = terms.get(exp, 0) + w * x
    cubic = Polynomial(n, 3, terms).normalized()
    return AlphaResult(g, eta1, eta2, hilbert, cubic, kept, frame, piece2)


def reduce_to_quotient(alpha: AlphaResult, poly: Polynomial) -> Polynomial:
    """Push an ambient dual form into the quotient coordinates of `alpha`:
    change to the frame coordinates and drop every term in the last two."""
    n = alpha.genus - 2
    moved = change_coordinates(poly, alpha.frame.inverse())
    return Polynomial(n, poly.degree, {exp[:n]: c for exp, c in moved.terms.items()
                                       if not any(exp[n:])})


# seeded hyperplane pairs tried per curve before giving up
_ETA_RETRIES = 5


def _alpha_attempts(curve: CurveSpec, seed: int):
    """Sample and reconstruct a curve now; return an iterator that yields,
    for each of up to `_ETA_RETRIES` seeded hyperplane pairs, its
    AlphaResult or the AlphaCertificateError it raised.  The pair stream
    is salted by gonality, so `alpha` and the verifiers draw alike."""
    points = sample_points(curve, curve.guaranteed_point_count, seed)
    recon = ideal_pieces(curve, points)
    rng = make_rng(derive_seed(seed, 271 if curve.gonality == 3 else 577))

    def attempts():
        for _ in range(_ETA_RETRIES):
            eta1, eta2 = _random_eta_pair(curve.genus, rng)
            try:
                alpha = alpha_map(recon, eta1, eta2)
            except AlphaCertificateError as err:
                alpha = err
            yield alpha
    return attempts()


def alpha_for_curve(curve: CurveSpec, seed: int) -> AlphaResult:
    """Sample, reconstruct and quotient a curve with seeded hyperplanes.

    Hyperplane pairs failing the Hilbert certificate are redrawn up to
    `_ETA_RETRIES` times; the last certificate error propagates if all of
    them fail.
    """
    alpha = AlphaCertificateError((1,), "no hyperplane pair tried")
    for alpha in _alpha_attempts(curve, seed):
        if isinstance(alpha, AlphaResult):
            return alpha
    raise alpha


def _random_eta_pair(g: int, rng):
    while True:
        eta1 = random_dual_linear(g, rng)
        eta2 = random_dual_linear(g, rng)
        basis1 = monomial_basis(g, 1)
        if ExactMatrix([eta1.coefficient_vector(basis1),
                        eta2.coefficient_vector(basis1)]).rank() == 2:
            return eta1, eta2


def _scheme(curve: CurveSpec, surface_index: Optional[int], eta1: Polynomial,
            eta2: Polynomial, kept: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """The scheme the two hyperplanes cut on a surface, over Q, as (D, phi).

    On a trigonal curve the surface is the scroll (`surface_index` None):
    the hyperplanes restrict to a 2 x 2 system (a0, a1; b0, b1) of base
    forms, D is its determinant a0 b1 - a1 b0, and the fiber is (a1, -a0),
    or (b1, -b0) when that one vanishes at a root of D.  On a tetragonal
    curve the surface Y is equation `surface_index`: the hyperplanes
    restrict to two linear conditions on the fiber plane, the fiber is the
    cross product of the two rows, and D is Y's section at that fiber.
    Everything is an integer polynomial in t on the chart s = 1 + k t of
    the base line, with the smallest k >= 0 that gives D the expected
    degree (deg S, or deg Y on the threefold), so every point of the
    scheme lies in the chart; phi holds the kept coordinates of the
    embedded fiber.  CertificateError names check (a) when D vanishes or
    no chart gives it that degree, and (b) when the fiber vanishes at a
    root of D or a hyperplane does not vanish on the image modulo D.
    """
    scroll = curve.scroll
    layout = coordinate_layout(scroll)
    basis1 = monomial_basis(curve.genus, 1)
    etas = [_row_to_int(eta.coefficient_vector(basis1)) for eta in (eta1, eta2)]
    if curve.gonality == 3:
        if surface_index is not None:
            raise ValueError("the trigonal surface is the scroll itself")
        expected, section = scroll.degree, []
    else:
        if surface_index not in (0, 1):
            raise ValueError("surface_index must pick one of the two surfaces")
        equation = curve.equations[surface_index]
        expected = divisor_degree(scroll, equation.cls)
        # Y's integer image: a positive multiple of Y, so D moves by a
        # positive constant only
        section = [(exp, row) for exp, row in equation.image if row]
    top = max([*scroll.type, *(len(row) - 1 for _, row in section)])
    for k in range(expected + 1):
        powers = [[1]]
        for _ in range(top):
            powers.append(_mul(powers[-1], [1, k]))
        # the base monomial s^(a_i - j) t^j of each ambient coordinate
        monomials = [[0] * j + powers[scroll.type[i] - j] for i, j in layout]
        # each hyperplane restricts to one base form per fiber coordinate
        rows = [[_combine((c, m) for c, m, (i, _) in zip(eta, monomials, layout) if i == b)
                 for b in range(scroll.k)] for eta in etas]
        if curve.gonality == 3:
            (a0, a1), (b0, b1) = rows
            determinant = _combine([(1, _mul(a0, b1)), (-1, _mul(a1, b0))])
            fibers = [(a1, [-c for c in a0]), (b1, [-c for c in b0])]
        else:
            r, q = rows   # the fiber is the cross product r x q
            fiber = [_combine([(1, _mul(r[i - 2], q[i - 1])), (-1, _mul(r[i - 1], q[i - 2]))])
                     for i in range(3)]
            determinant = []
            for exp, row in section:
                # Y's base form of the fiber monomial y^exp, times fiber^exp
                term = _combine((c, [0] * j + powers[len(row) - 1 - j])
                                for j, c in enumerate(row) if c)
                for i, e in enumerate(exp):
                    for _ in range(e):
                        term = _mul(term, fiber[i])
                determinant = _combine([(1, determinant), (1, term)])
            fibers = [fiber]
        if not any(determinant):
            raise CertificateError("(a) the scheme equation vanishes identically")
        if len(determinant) == expected + 1 and determinant[expected]:
            break
    else:
        raise CertificateError(f"(a) the scheme equation does not have degree {expected}")
    for fiber in fibers:
        if len(reduce(poly_gcd, fiber, determinant)) == 1:
            break
    else:
        raise CertificateError("(b) degenerate fiber at a root of the scheme equation")
    image = [_mul(m, fiber[i]) for m, (i, _) in zip(monomials, layout)]
    for eta in etas:
        if any(_pseudo_remainder(_combine(zip(eta, image)), determinant)[1]):
            raise CertificateError("(b) a hyperplane misses the scheme")
    return determinant, [image[i] for i in kept]


def _certify_fermat(curve: CurveSpec, alpha: AlphaResult,
                    failures: list) -> Optional[dict]:
    """Trigonal certificate: the cubic is a sum of the cubes of the
    n = g - 2 points of the scroll scheme, and it is concise, so its rank
    is exactly n."""
    try:
        n = _certify_scheme(*_scheme(curve, None, alpha.eta1, alpha.eta2,
                                     alpha.kept_indices), alpha.cubic)
        if rank_lower_bound(alpha.cubic) != n:
            raise CertificateError("(d) the cubic is not concise")
    except CertificateError as err:
        failures.append(f"certificate: {err}")
        return None
    return {
        "certificate": "exact",
        "detected_rank": n,
        "rank_interval": [n, n],
        "scheme_points": n,
        "agreement": True,
        "passed": True,
    }


def _certify_bound(curve: CurveSpec, alpha: AlphaResult,
                   failures: list) -> Optional[dict]:
    """Tetragonal certificate: the cubic is a sum of the cubes of the
    points of the scheme cut on one of the two surfaces 2H - bF, whose
    length must stay within the bound."""
    g = curve.genus
    bound = tetragonal_cube_bound(g)
    lower_bound = rank_lower_bound(alpha.cubic)
    bs = [-cls.f for cls in curve.classes]
    # prefer the lower-degree surface: larger b first
    for surface_index in sorted((0, 1), key=lambda i: -bs[i]):
        b = bs[surface_index]
        try:
            length = _certify_scheme(*_scheme(curve, surface_index, alpha.eta1,
                                              alpha.eta2, alpha.kept_indices),
                                     alpha.cubic)
        except CertificateError as err:
            failures.append(f"surface b={b}: {err}")
            continue
        return {
            "surface": {"h": 2, "f": -b},
            "surface_degree": 2 * g - 6 - b,
            "certificate": "exact",
            "length": length,
            "bound": bound,
            "within_bound": length <= bound,
            "rank_interval": [lower_bound, length],
            "rank_certified": lower_bound == length,
            "passed": length <= bound,
        }
    return None


def _trial(args: tuple) -> dict:
    """Build a curve (trigonal when `split` is None, else tetragonal) and
    certify the quotient cubic of the first hyperplane pair that allows it.
    Both certificates are exact."""
    g, split, trial_seed = args
    head: dict = {"trial_seed": trial_seed}
    if split is not None:
        head["split"] = list(split)
    try:
        if split is None:
            curve = trigonal_curve(g, trial_seed)
        else:
            curve = tetragonal_curve(g, *split, trial_seed)
        attempts = _alpha_attempts(curve, trial_seed)
    except Exception as err:
        return {**head, "failures": [f"construction: {err}"], "passed": False}
    certify = _certify_fermat if split is None else _certify_bound
    failures: list[str] = []
    for attempt, alpha in enumerate(attempts, 1):
        if isinstance(alpha, AlphaCertificateError):
            failures.append(f"alpha: {alpha}")
            continue
        found = certify(curve, alpha, failures)
        if found is not None:
            return {**head, "scroll": list(curve.scroll.type),
                    "hilbert": list(alpha.hilbert), "eta_attempts": attempt,
                    **found}
    if split is None:
        head["scroll"] = list(curve.scroll.type)
    return {**head, "failures": failures, "passed": False}


def _verify(report: dict, g: int, split: Optional[tuple[int, int]], trials: int,
            seed: int) -> dict:
    """Run the trials, serially or in a pool of at most one process per
    trial, and finish `report`; raise VerificationError if one failed.

    APOLAR_KIT_THREADS is the process count; unset, empty or 0 is serial.
    """
    if trials < 1:
        raise ValueError(f"the number of trials must be at least 1, not {trials}")
    raw = os.environ.get("APOLAR_KIT_THREADS") or "0"
    if not raw.isdecimal():
        raise ValueError(f"APOLAR_KIT_THREADS must be a process count, not {raw!r}")
    processes = min(int(raw), trials)
    arguments = [(g, split, derive_seed(seed, i)) for i in range(trials)]
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_trial, arguments))
    else:
        results = [_trial(args) for args in arguments]
    report = {**report, "g": g, "seed": seed, "trials": results,
              "passed": all(r["passed"] for r in results)}
    if not report["passed"]:
        kind = "trigonal" if split is None else "tetragonal"
        raise VerificationError(f"a {kind} trial failed", report)
    return report


def verify_trigonal_fermat(g: int, trials: int, seed: int) -> dict:
    """Check that trigonal quotient cubics are sums of exactly g - 2 cubes.

    Each trial builds a fresh curve, certifies the quotient algebra, and
    certifies exactly, in Q[t]/(D) and without a root, that the cubic is
    a sum of the cubes of the g - 2 points the two hyperplanes cut on the
    scroll (`_certify_scheme`) and that it is concise.  Any trial failure
    raises VerificationError with the full report attached.
    """
    if not 5 <= g <= 12:
        raise ValueError("desk-scale verification covers genus 5 through 12")
    report = {
        "claim": f"the quotient cubic of a trigonal genus-{g} canonical curve "
                 f"is a sum of exactly {g - 2} cubes",
        "expected_rank": g - 2,
    }
    return _verify(report, g, None, trials, seed)


def verify_tetragonal_bound(g: int, split: Optional[tuple[int, int]], trials: int,
                            seed: int) -> dict:
    """Check the tetragonal power-sum bound ceil((3g - 7) / 2).

    Every trial builds a complete-intersection curve for the requested
    split of g - 5 and runs the quotient construction.  It then certifies
    exactly, in Q[t]/(D) and without a root, that the cubic is a sum of
    the cubes of the points the two hyperplanes cut on one of the two
    surfaces 2H - b F (lower degree first; `_certify_scheme`).  That
    length, the degree of the surface, must stay within the bound.  The
    report also carries the interval between the contraction-rank lower
    bound and the length, since ranks in between are not decided here.
    """
    if not 6 <= g <= 11:
        raise ValueError("desk-scale verification covers genus 6 through 11")
    if split is None:
        split = balanced_type(g - 5, 2)
    if len(split) != 2 or min(split) < 0 or sum(split) != g - 5:
        raise ValueError(f"the split must be two non-negative integers summing to "
                         f"g - 5 = {g - 5}, not {tuple(split)}")
    b1, b2 = split
    bound = tetragonal_cube_bound(g)
    report = {
        "claim": f"the quotient cubic of a tetragonal genus-{g} canonical curve "
                 f"is a sum of at most {bound} cubes",
        "bound": bound,
        "split": [b1, b2],
    }
    return _verify(report, g, (b1, b2), trials, seed)
