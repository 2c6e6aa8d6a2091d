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
  Q[t]/(D) without its roots, is g - 2 independent points apolar to it;
* the tetragonal verifier checks that the cubic is a sum of at most
  ceil((3g - 7) / 2) cubes, surface by surface, split by split.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from typing import Optional, Sequence

from mpmath import mp

from .apolarity import GradedIdealPiece, inverse_system, piece_annihilates
from .core import (ExactMatrix, Polynomial, _row_to_int, change_coordinates,
                   int_kernel, monomial_basis, primitive_point, substitute)
from .curvegen import (CurveSpec, IdealReconstruction, ideal_pieces,
                       sample_points, tetragonal_curve, trigonal_curve)
from .numerics import (DEFAULT_PRECISION_BITS, DEFAULT_TOLERANCE, format_scalar,
                       projective_distance, to_mp, workprec)
from .scroll import Scroll, coordinate_layout, divisor_degree, embed_point
from .seeding import derive_seed, make_rng, random_dual_linear
from .univariate import (RootFindingError, _pseudo_remainder, binary_form_roots,
                         is_squarefree, poly_gcd)
from .waring import Decomposition, power_sum_fit, rank_lower_bound

__all__ = [
    "AlphaResult",
    "GammaScheme",
    "AlphaCertificateError",
    "GammaExtractionError",
    "CertificateError",
    "VerificationError",
    "alpha_map",
    "alpha_for_curve",
    "gamma_points",
    "waring_certificate",
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


class GammaExtractionError(RuntimeError):
    pass


class CertificateError(RuntimeError):
    pass


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


@dataclass(frozen=True)
class GammaScheme:
    points: tuple[tuple, ...]   # dual points in the quotient coordinates
    expected_length: int
    found_length: int
    exact_count: int
    surface_index: Optional[int]

    @property
    def complete(self) -> bool:
        return self.found_length == self.expected_length


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
    the one-dimensional kernel is then the cubic, normalized.
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
    cubic = sum((form * (c * scale) for c, scale, form
                 in zip(combos[0], lift_scales, solutions)), Polynomial.zero(n, 3))
    return AlphaResult(g, eta1, eta2, hilbert, cubic.normalized(), kept, frame,
                       piece2)


def _linear_form_blocks(scroll: Scroll, eta: Polynomial) -> list[Polynomial]:
    """Restriction of an ambient linear form to the scroll: one binary
    base form per fiber coordinate."""
    basis1 = monomial_basis(scroll.N + 1, 1)
    coeffs = eta.coefficient_vector(basis1)
    blocks = []
    offset = 0
    for i, a in enumerate(scroll.type):
        terms = {}
        for j in range(a + 1):
            c = coeffs[offset + j]
            if c:
                terms[(a - j, j)] = c
        blocks.append(Polynomial(2, a, terms))
        offset += a + 1
    return blocks


def _dual_point(image: Sequence, kept: Sequence[int], eta1v, eta2v, tol,
                exact: bool):
    """Project an ambient point into the quotient coordinates."""
    if exact:
        if eta1v != 0 or eta2v != 0:
            raise GammaExtractionError("exact point misses the hyperplanes")
        return primitive_point([image[i] for i in kept])
    scale = max(abs(x) for x in image)
    if abs(eta1v) > tol * scale or abs(eta2v) > tol * scale:
        raise GammaExtractionError("floating point misses the hyperplanes")
    vec = [image[i] for i in kept]
    biggest = max(abs(c) for c in vec)
    if biggest == 0:
        raise GammaExtractionError("point projects to zero in the quotient")
    lead = next(c for c in vec if abs(c) >= biggest / 2)
    cleaned = []
    for c in vec:
        value = c / lead
        if abs(mp.im(value)) < tol:
            value = mp.re(value)
        cleaned.append(value)
    return tuple(cleaned)


def _points_distinct(points, tol) -> bool:
    with workprec(200):
        vecs = [[to_mp(c) for c in p] for p in points]
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                if projective_distance(vecs[i], vecs[j]) < tol ** 2:
                    return False
    return True


def gamma_points(curve: CurveSpec, surface_index: Optional[int],
                 eta1: Polynomial, eta2: Polynomial,
                 precision_bits: int = DEFAULT_PRECISION_BITS,
                 tolerance: Fraction = DEFAULT_TOLERANCE) -> GammaScheme:
    """Finite scheme cut on a surface by the two hyperplanes, as dual points.

    For a trigonal curve the surface is the scroll itself: the two
    restricted linear forms give a 2 x 2 system over the base line whose
    determinant vanishes at deg(S) = g - 2 base points.  For a tetragonal
    curve the chosen surface Y is a divisor on the threefold scroll: the
    restricted forms are two linear conditions on the fiber plane, solved
    by their cross product, and substituting that section into Y's
    equation leaves one binary form of degree deg(Y) whose roots carry
    the points.  Rational roots are kept exact; the rest are certified
    high-precision floats.  Every point is pushed into the quotient
    coordinates of the hyperplane frame.
    """
    scroll = curve.scroll
    g = curve.genus
    kept, _, _ = quotient_frame(eta1, eta2, g)
    blocks1 = _linear_form_blocks(scroll, eta1)
    blocks2 = _linear_form_blocks(scroll, eta2)
    if curve.gonality == 3:
        if surface_index is not None:
            raise ValueError("the trigonal surface is the scroll itself")
        expected = scroll.degree
        a0, a1 = blocks1
        b0, b1 = blocks2
        determinant = a0 * b1 - a1 * b0
        if determinant.is_zero():
            raise GammaExtractionError("hyperplanes restrict dependently to the scroll")

        def fiber_solution(base, exact):
            # at a root of the determinant the two rows are proportional;
            # either nonzero row yields the kernel direction
            row1 = (a1.evaluate(base), -1 * a0.evaluate(base))
            row2 = (b1.evaluate(base), -1 * b0.evaluate(base))
            if exact:
                return row1 if any(row1) else row2
            n1 = max(abs(c) for c in row1)
            n2 = max(abs(c) for c in row2)
            return row1 if n1 >= n2 else row2
    else:
        if surface_index not in (0, 1):
            raise ValueError("surface_index must pick one of the two surfaces")
        section = curve.equations[surface_index]
        expected = divisor_degree(scroll, section.cls)
        cross = [blocks1[1] * blocks2[2] - blocks1[2] * blocks2[1],
                 blocks1[2] * blocks2[0] - blocks1[0] * blocks2[2],
                 blocks1[0] * blocks2[1] - blocks1[1] * blocks2[0]]
        if all(c.is_zero() for c in cross):
            raise GammaExtractionError("hyperplanes restrict dependently to the scroll")
        determinant = None
        for exp, base_form in section.coeffs.items():
            term = base_form
            for c, e in zip(cross, exp):
                for _ in range(e):
                    term = term * c
            determinant = term if determinant is None else determinant + term
        if determinant is None or determinant.is_zero():
            raise GammaExtractionError("surface restricts to zero along the section")

        def fiber_solution(base, exact):
            return tuple(c.evaluate(base) for c in cross)

    if determinant.degree != expected:
        raise GammaExtractionError(
            f"restriction degree {determinant.degree} differs from deg S = {expected}")
    pairs, extraction = binary_form_roots(determinant, precision_bits, tolerance)
    if extraction.clustered:
        raise GammaExtractionError("the hyperplane scheme is not reduced")
    points = []
    exact_count = 0
    with workprec(precision_bits):
        mp_tol = to_mp(tolerance)
        for s, t in pairs:
            exact = isinstance(s, Fraction) and isinstance(t, Fraction)
            if exact:
                base = primitive_point([s, t])
            else:
                base = (to_mp(s), to_mp(t))
            fiber = fiber_solution(base, exact)
            if (not any(fiber)) if exact else max(abs(c) for c in fiber) == 0:
                raise GammaExtractionError("degenerate fiber solution at a root")
            if exact:
                fiber = primitive_point(fiber)
            image = embed_point(scroll, base, fiber).image
            eta1v = eta1.evaluate(image)
            eta2v = eta2.evaluate(image)
            point = _dual_point(image, kept, eta1v, eta2v, mp_tol, exact)
            points.append(point)
            if exact:
                exact_count += 1
    if not _points_distinct(points, mp.mpf(10) ** -12):
        raise GammaExtractionError("coincident points in the hyperplane scheme")
    return GammaScheme(tuple(points), expected, len(points), exact_count,
                       surface_index)


def waring_certificate(alpha: AlphaResult, gamma: GammaScheme,
                       precision_bits: int = DEFAULT_PRECISION_BITS,
                       tolerance: Fraction = DEFAULT_TOLERANCE) -> Decomposition:
    """Fit the quotient cubic as a power sum over the scheme points."""
    if not gamma.complete:
        raise CertificateError(
            f"scheme has {gamma.found_length} of {gamma.expected_length} points")
    decomposition = power_sum_fit(list(gamma.points), alpha.cubic,
                                  precision_bits, tolerance)
    if decomposition is None:
        raise CertificateError("power-sum fit failed at the requested tolerance")
    return decomposition


def reduce_to_quotient(alpha: AlphaResult, poly: Polynomial) -> Polynomial:
    """Push an ambient dual form into the quotient coordinates of `alpha`:
    change to the frame coordinates and drop every term in the last two."""
    n = alpha.genus - 2
    moved = change_coordinates(poly, alpha.frame.inverse())
    return Polynomial(n, poly.degree, {exp[:n]: c for exp, c in moved.terms.items()
                                       if not any(exp[n:])})


def _alpha_attempts(curve: CurveSpec, seed: int, eta_retries: int):
    """Sample and reconstruct a curve now; return an iterator that yields,
    for each of up to `eta_retries` seeded hyperplane pairs, its
    AlphaResult or the AlphaCertificateError it raised.  The pair stream
    is salted by gonality, so `alpha` and the verifiers draw alike."""
    points = sample_points(curve, curve.guaranteed_point_count, seed)
    recon = ideal_pieces(curve, points)
    rng = make_rng(derive_seed(seed, 271 if curve.gonality == 3 else 577))

    def attempts():
        for _ in range(eta_retries):
            eta1, eta2 = _random_eta_pair(curve.genus, rng)
            try:
                alpha = alpha_map(recon, eta1, eta2)
            except AlphaCertificateError as err:
                alpha = err
            yield alpha
    return attempts()


def alpha_for_curve(curve: CurveSpec, seed: int,
                    eta_retries: int = 5) -> AlphaResult:
    """Sample, reconstruct and quotient a curve with seeded hyperplanes.

    Hyperplane pairs failing the Hilbert certificate are redrawn up to
    `eta_retries` times; the last certificate error propagates if all of
    them fail.
    """
    alpha = AlphaCertificateError((1,), "no hyperplane pair tried")
    for alpha in _alpha_attempts(curve, seed, eta_retries):
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


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of integer polynomials, coefficients lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _combine(terms) -> list[int]:
    """sum c * f over the (c, f) pairs, integer polynomials."""
    terms = list(terms)
    out = [0] * max((len(f) for _, f in terms), default=0)
    for c, f in terms:
        for i, x in enumerate(f):
            out[i] += c * x
    return out


def _scroll_scheme(curve: CurveSpec, eta1: Polynomial, eta2: Polynomial,
                   kept: Sequence[int]) -> tuple[list[int], list[list[int]]]:
    """The trigonal hyperplane scheme over Q, as (D, phi).

    On the chart s = 1 + k t of the base line, with the smallest k >= 0
    that keeps every root of the restricted determinant a0 b1 - a1 b0 in
    the chart, D is that determinant and phi the kept coordinates of the
    embedded fiber solution, all integer polynomials in t.  The fiber
    solution is (a1, -a0) when it vanishes at no root of D, else
    (b1, -b0); check (b) of the certificate raises CertificateError when
    both vanish at some root, or when a hyperplane does not vanish on the
    image modulo D.
    """
    scroll = curve.scroll
    n = scroll.degree
    layout = coordinate_layout(scroll)
    basis1 = monomial_basis(curve.genus, 1)
    etas = [_row_to_int(eta.coefficient_vector(basis1)) for eta in (eta1, eta2)]
    for k in range(n + 1):
        powers = [[1]]
        for _ in range(max(scroll.type)):
            powers.append(_mul(powers[-1], [1, k]))
        # the base monomial s^(a_i - j) t^j of each ambient coordinate
        monomials = [[0] * j + powers[scroll.type[i] - j] for i, j in layout]
        # each hyperplane restricts to one base form per fiber coordinate
        blocks = [[_combine((c, m) for c, m, (i, _) in zip(eta, monomials, layout) if i == b)
                   for b in (0, 1)] for eta in etas]
        (a0, a1), (b0, b1) = blocks
        determinant = _combine([(1, _mul(a0, b1)), (-1, _mul(a1, b0))])
        if len(determinant) == n + 1 and determinant[n]:
            break
        if not any(determinant):
            raise CertificateError("hyperplanes restrict dependently to the scroll")
    for y0, y1 in ((a1, a0), (b1, b0)):
        if len(poly_gcd(poly_gcd(determinant, y0), y1)) == 1:
            fiber = (y0, [-c for c in y1])
            break
    else:
        raise CertificateError("(b) degenerate fiber at a root of the determinant")
    image = [_mul(m, fiber[i]) for m, (i, _) in zip(monomials, layout)]
    for eta in etas:
        if any(_pseudo_remainder(_combine(zip(eta, image)), determinant)):
            raise CertificateError("(b) a hyperplane misses the scheme")
    return determinant, [image[i] for i in kept]


def _certify_scheme(determinant: list[int], phi: Sequence[list[int]],
                    piece2: GradedIdealPiece, cubic: Polynomial) -> None:
    """Exact Fermat certificate in A = Q[t]/(D); CertificateError if not.

    The n polynomials phi are the coordinates of a scheme Gamma cut on
    the scroll, and D its equation.  The checks, lettered as in the
    failure messages: (a) D is squarefree of degree n and (c) the phi
    are independent modulo D, so Gamma is n independent points over the
    algebraic closure and (I_Gamma)_2 has codimension n; (d) `piece2`, a
    basis of codimension n too, vanishes on Gamma, so it is (I_Gamma)_2;
    (e) it annihilates the cubic F, which puts I_Gamma, generated by
    quadrics, inside Ann(F): by the apolarity lemma F is a sum of n
    cubes; (f) F is concise (contraction rank n), so n is its Waring
    rank.  Check (b) belongs to the construction of phi.
    """
    n = len(phi)
    if piece2.dim != comb(n + 1, 2) - n:
        raise CertificateError(f"(d) the quotient quadrics do not have codimension {n}")
    if len(determinant) != n + 1 or not is_squarefree(determinant):
        raise CertificateError(f"(a) the scheme equation is not squarefree of degree {n}")
    residues = [_pseudo_remainder(f, determinant) for f in phi]
    if ExactMatrix([r + [0] * (n - len(r)) for r in residues]).rank() < n:
        raise CertificateError("(c) the scheme points are dependent")
    products = {}
    for i in range(n):
        for j in range(i, n):
            exp = tuple((i == m) + (j == m) for m in range(n))
            products[exp] = _mul(phi[i], phi[j])
    for quadric in piece2.basis:
        value = _combine((c, products[exp])
                         for exp, c in quadric.integer_terms()[1].items())
        if any(_pseudo_remainder(value, determinant)):
            raise CertificateError("(d) a quotient quadric misses the scheme")
    if not piece_annihilates(piece2, cubic):
        raise CertificateError("(e) a quotient quadric does not annihilate the cubic")
    if rank_lower_bound(cubic) != n:
        raise CertificateError("(f) the cubic is not concise")


def _certify_fermat(curve: CurveSpec, alpha: AlphaResult,
                    failures: list) -> Optional[dict]:
    """Trigonal certificate: the scroll scheme, exact over Q, is n = g - 2
    independent points apolar to the cubic, so its rank is exactly n."""
    n = curve.genus - 2
    try:
        determinant, phi = _scroll_scheme(curve, alpha.eta1, alpha.eta2,
                                          alpha.kept_indices)
        _certify_scheme(determinant, phi, alpha.quotient_piece2, alpha.cubic)
    except CertificateError as err:
        failures.append(f"certificate: {err}")
        return None
    return {
        "certificate": "exact",
        "detected_rank": n,
        "rank_interval": [n, n],
        "scheme_points": len(determinant) - 1,
        "agreement": True,
        "passed": True,
    }


def _certify_bound(curve: CurveSpec, alpha: AlphaResult, failures: list,
                   precision_bits: int, tolerance: Fraction) -> Optional[dict]:
    """Tetragonal certificate: a power sum over the scheme cut on one of
    the two surfaces 2H - bF, whose length must stay within the bound."""
    g = curve.genus
    bound = tetragonal_cube_bound(g)
    lower_bound = rank_lower_bound(alpha.cubic)
    bs = [-cls.f for cls in curve.classes]
    # prefer the lower-degree surface: larger b first
    for surface_index in sorted((0, 1), key=lambda i: -bs[i]):
        b = bs[surface_index]
        try:
            gamma = gamma_points(curve, surface_index, alpha.eta1, alpha.eta2,
                                 precision_bits, tolerance)
            certificate = waring_certificate(alpha, gamma,
                                             precision_bits, tolerance)
        except (GammaExtractionError, CertificateError, RootFindingError) as err:
            failures.append(f"surface b={b}: {err}")
            continue
        length = certificate.rank
        return {
            "surface": {"h": 2, "f": -b},
            "surface_degree": 2 * g - 6 - b,
            "length": length,
            "bound": bound,
            "within_bound": length <= bound,
            "rank_interval": [lower_bound, length],
            "rank_certified": lower_bound == length,
            "residual": format_scalar(certificate.residual),
            "scheme_exact_points": gamma.exact_count,
            "passed": length <= bound,
        }
    return None


def _trial(args: tuple) -> dict:
    """Build a curve (trigonal when `split` is None, else tetragonal) and
    certify the quotient cubic of the first hyperplane pair that allows it.
    `precision` holds the tetragonal certificate's (precision_bits,
    tolerance); the trigonal certificate is exact and takes none."""
    g, split, trial_seed, eta_retries, precision = args
    head: dict = {"trial_seed": trial_seed}
    if split is not None:
        head["split"] = list(split)
    try:
        if split is None:
            curve = trigonal_curve(g, trial_seed)
        else:
            curve = tetragonal_curve(g, *split, trial_seed)
        attempts = _alpha_attempts(curve, trial_seed, eta_retries)
    except Exception as err:
        return {**head, "failures": [f"construction: {err}"], "passed": False}
    certify = _certify_fermat if split is None else _certify_bound
    failures: list[str] = []
    for attempt, alpha in enumerate(attempts, 1):
        if isinstance(alpha, AlphaCertificateError):
            failures.append(f"alpha: {alpha}")
            continue
        found = certify(curve, alpha, failures, *precision)
        if found is not None:
            return {**head, "scroll": list(curve.scroll.type),
                    "hilbert": list(alpha.hilbert), "eta_attempts": attempt,
                    **found}
    if split is None:
        head["scroll"] = list(curve.scroll.type)
    return {**head, "failures": failures, "passed": False}


def _verify(report: dict, g: int, split: Optional[tuple[int, int]], trials: int,
            seed: int, eta_retries: int, precision: tuple = ()) -> dict:
    """Run the trials, serially or in a pool of at most one process per
    trial, and finish `report`; raise VerificationError if one failed.

    APOLAR_KIT_THREADS is the process count; unset, empty or 0 is serial.
    """
    raw = os.environ.get("APOLAR_KIT_THREADS") or "0"
    if not raw.isdecimal():
        raise ValueError(f"APOLAR_KIT_THREADS must be a process count, not {raw!r}")
    processes = min(int(raw), trials)
    arguments = [(g, split, derive_seed(seed, i), eta_retries, precision)
                 for i in range(trials)]
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


def verify_trigonal_fermat(g: int, trials: int, seed: int,
                           eta_retries: int = 5) -> dict:
    """Check that trigonal quotient cubics are sums of exactly g - 2 cubes.

    Each trial builds a fresh curve, certifies the quotient algebra, and
    certifies exactly, in Q[t]/(D) and without a root, that the scheme
    the two hyperplanes cut on the scroll is g - 2 independent points
    apolar to the cubic (`_certify_scheme`).  Any trial failure raises
    VerificationError with the full report attached.
    """
    if not 5 <= g <= 12:
        raise ValueError("desk-scale verification covers genus 5 through 12")
    report = {
        "claim": f"the quotient cubic of a trigonal genus-{g} canonical curve "
                 f"is a sum of exactly {g - 2} cubes",
        "expected_rank": g - 2,
    }
    return _verify(report, g, None, trials, seed, eta_retries)


def verify_tetragonal_bound(g: int, split: Optional[tuple[int, int]], trials: int,
                            seed: int,
                            precision_bits: int = DEFAULT_PRECISION_BITS,
                            tolerance: Fraction = DEFAULT_TOLERANCE,
                            eta_retries: int = 5) -> dict:
    """Check the tetragonal power-sum bound ceil((3g - 7) / 2).

    Every trial builds a complete-intersection curve for the requested
    split of g - 5, runs the quotient construction, and extracts a
    power-sum decomposition from one of the two surfaces (lower degree
    first).  The decomposition length must stay within the bound; the
    report also carries the interval between the contraction-rank lower
    bound and the constructed length, since exact-rank claims in between
    are not certified here.
    """
    if not 6 <= g <= 8:
        raise ValueError("desk-scale verification covers genus 6 through 8")
    if split is None:
        split = ((g - 5) // 2, g - 5 - (g - 5) // 2)
    b1, b2 = split
    bound = tetragonal_cube_bound(g)
    report = {
        "claim": f"the quotient cubic of a tetragonal genus-{g} canonical curve "
                 f"is a sum of at most {bound} cubes",
        "bound": bound,
        "split": [b1, b2],
    }
    return _verify(report, g, (b1, b2), trials, seed, eta_retries,
                   (precision_bits, tolerance))
