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

from .apolarity import _inverse_vectors
from .core import (ExactMatrix, Polynomial, _combination, _int_rank, _int_substitute,
                   _kernel_vectors, _row_to_int, change_coordinates, monomial_basis)
from .curvegen import (CurveSpec, IdealReconstruction, balanced_type, ideal_pieces,
                       sample_points, tetragonal_curve, tetragonal_surfaces,
                       trigonal_curve)
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


def tetragonal_cube_bound(g: int) -> int:
    """ceil((3g - 7) / 2), the tetragonal power-sum bound."""
    if g < 4:
        raise ValueError("bound defined for genus >= 4")
    return -(-(3 * g - 7) // 2)


def _hyperplane_rows(eta1: Polynomial, eta2: Polynomial) -> list[list[int]]:
    """The two hyperplanes as primitive integer coefficient rows."""
    basis1 = monomial_basis(eta1.nvars, 1)
    return [_row_to_int(eta.coefficient_vector(basis1)) for eta in (eta1, eta2)]


def _dropped_pair(c1: Sequence[int], c2: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """(j1, j2, delta) for two hyperplane rows, None when they are dependent:
    j1 is the last column where either row is nonzero, j2 the last column
    before it whose minor with j1, delta = c1[j2] c2[j1] - c1[j1] c2[j2],
    is nonzero."""
    j1 = max((j for j, column in enumerate(zip(c1, c2)) if any(column)), default=0)
    for j2 in reversed(range(j1)):
        delta = c1[j2] * c2[j1] - c1[j1] * c2[j2]
        if delta:
            return j1, j2, delta
    return None


def quotient_frame(eta1: Polynomial, eta2: Polynomial, g: int):
    """The kept coordinates and the restriction to the two hyperplanes.

    Returns (kept, R): the coordinates other than the `_dropped_pair` of
    the hyperplanes' primitive integer rows c1, c2, and the g x n integer
    matrix R = delta L, L sending y to the point of both hyperplanes with
    kept coordinates y.  By Cramer's rule, with m(p, q) = c1[p] c2[q] -
    c1[q] c2[p], the row of the i-th kept coordinate is delta e_i, the
    row of j2 is m(j1, k) and the row of j1 is m(k, j2), over kept k.
    """
    if eta1.nvars != g or eta2.nvars != g or eta1.degree != 1 or eta2.degree != 1:
        raise ValueError("hyperplanes must be linear forms in g variables")
    c1, c2 = _hyperplane_rows(eta1, eta2)
    dropped = _dropped_pair(c1, c2)
    if dropped is None:
        raise AlphaCertificateError((1,), "the two hyperplanes are dependent")
    j1, j2, delta = dropped
    kept = tuple(i for i in range(g) if i not in (j1, j2))
    restriction = [[delta if k == i else 0 for k in kept] for i in range(g)]
    restriction[j2] = [c1[j1] * c2[k] - c1[k] * c2[j1] for k in kept]
    restriction[j1] = [c1[k] * c2[j2] - c1[j2] * c2[k] for k in kept]
    return kept, restriction


def alpha_map(recon: IdealReconstruction, eta1: Polynomial,
              eta2: Polynomial) -> AlphaResult:
    """Quotient the curve ideal by two hyperplanes and invert the result.

    Everything runs on integer term maps and rows.  One `_int_substitute`
    call restricts the quadric rows of `recon` through x -> R y
    (`quotient_frame`), and h2 comes from `_int_rank` of the images (full
    row rank, so read modulo a prime, when the Hilbert vector is right).
    Their degree-3 inverse system V (`_inverse_vectors`; only their span
    matters) contains the cubic.  The transposed map lifts V back to g
    variables as the adjoint of restriction for the apolarity pairing, so
    the cubics of V that the restricted degree-3 piece annihilates are
    the kernel of pairing the lifts with the cubic rows of `recon` (the
    pairing's factorial weights e! folded into the lifts).  No scale
    (of R, a lift or a row) moves a kernel, so none is divided out.  The
    kernel has dimension h3, since degree-1 multiples of restricted
    quadrics are restricted cubics.  Hilbert vector (1, n, n, 1)
    certifies the hyperplanes as general, and the one kernel vector then
    weighs V's basis into the cubic, the one `Polynomial` built.
    """
    g = recon.genus
    n = g - 2
    kept, restriction = quotient_frame(eta1, eta2, g)
    basis2, basis3 = monomial_basis(g, 2), monomial_basis(g, 3)
    quadrics = [q for q in _int_substitute([{basis2[j]: c for j, c in row.items()}
                                            for row in recon.degree2], restriction, n) if q]
    columns2, columns3 = monomial_basis(n, 2), monomial_basis(n, 3)
    rank2 = _int_rank([[q.get(m, 0) for m in columns2] for q in quadrics], len(columns2))
    solutions = [{columns3[j]: x for j, x in v.items()}
                 for v in _inverse_vectors([(2, quadrics)], 3, columns3)[0]]
    index3 = {exp: j for j, exp in enumerate(basis3)}
    weighted = [{index3[exp]: c * prod(map(factorial, exp)) for exp, c in lift.items()}
                for lift in _int_substitute(solutions, list(zip(*restriction)), g)]
    conditions = [[sum(c * lift[j] for j, c in row.items() if j in lift) for lift in weighted]
                  for row in recon.degree3]
    combos = _kernel_vectors(conditions, len(weighted))
    hilbert = (1, n, comb(n + 1, 2) - rank2, len(combos))
    if hilbert[2:] != (n, 1):
        raise AlphaCertificateError(
            hilbert, "quotient algebra does not have the expected Hilbert vector")
    terms = _combination(combos[0], solutions)
    lead = terms[max(terms)]
    cubic = Polynomial(n, 3, {exp: Fraction(c, lead) for exp, c in terms.items()})
    return AlphaResult(g, eta1, eta2, hilbert, cubic, kept)


def reduce_to_quotient(alpha: AlphaResult, poly: Polynomial) -> Polynomial:
    """Push an ambient dual form into the quotient coordinates of `alpha`:
    change to the frame coordinates (the kept unit vectors, then the two
    hyperplanes) and drop every term in the last two."""
    g, n = alpha.genus, alpha.genus - 2
    frame = ExactMatrix([[int(j == i) for j in range(g)] for i in alpha.kept_indices]
                        + _hyperplane_rows(alpha.eta1, alpha.eta2))
    moved = change_coordinates(poly, frame.inverse())
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
    """Seeded hyperplane pairs, redrawn while `_dropped_pair` finds them dependent."""
    while True:
        eta1 = random_dual_linear(g, rng)
        eta2 = random_dual_linear(g, rng)
        if _dropped_pair(*_hyperplane_rows(eta1, eta2)) is not None:
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
    etas = _hyperplane_rows(eta1, eta2)
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
    A split with a class that cuts only reducible surfaces is an input
    error before any trial (`tetragonal_surfaces`).
    """
    if not 6 <= g <= 11:
        raise ValueError("desk-scale verification covers genus 6 through 11")
    if split is None:
        split = balanced_type(g - 5, 2)
    if len(split) != 2 or min(split) < 0 or sum(split) != g - 5:
        raise ValueError(f"the split must be two non-negative integers summing to "
                         f"g - 5 = {g - 5}, not {tuple(split)}")
    b1, b2 = split
    tetragonal_surfaces(g, b1, b2)
    bound = tetragonal_cube_bound(g)
    report = {
        "claim": f"the quotient cubic of a tetragonal genus-{g} canonical curve "
                 f"is a sum of at most {bound} cubes",
        "bound": bound,
        "split": [b1, b2],
    }
    return _verify(report, g, (b1, b2), trials, seed)
