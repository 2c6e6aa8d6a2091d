"""End-to-end quotient construction and power-sum verification.

Quotienting the coordinate ring of a canonical curve by two general
hyperplanes leaves a graded Artinian Gorenstein algebra with Hilbert
vector (1, g-2, g-2, 1); inverting its top graded pieces produces a
cubic in g - 2 variables.  The surfaces spanned between the curve and
its ambient scroll cut that quotient in a finite scheme whose points
give an explicit power-sum presentation of the cubic, and the two
verifiers below run those constructions at desk scale:

* the trigonal verifier certifies exactly that the cubic is always a
  sum of g - 2 cubes, the points the two hyperplanes cut on the surface
  scroll, and that it is concise;
* the tetragonal verifier certifies that the cubic is a sum of at most
  ceil((3g - 7) / 2) cubes, the points of the scheme cut on one of the
  two surfaces between the curve and its threefold scroll.

The quotient is read off what the hyperplanes cut on the scroll: the
section phi, n binary forms of degree m on the base line or on the
rational normal curve C0 the hyperplanes cut on the threefold, and two
binary forms A, B on it (`AlphaResult.forms`), D_1 and D_2 on a
threefold, D and E(phi) on a surface, with deg A + deg B = 3m + 2
(`alpha_map`).  When A and B are coprime, S/(A, B) is a complete
intersection with socle degree 3m, so the cubic's functional lambda is
the one line that kills (A, B) in degree 3m, h3 = 1 and Ann(lambda) =
(A, B) (Macaulay duality); one gcd modulo a prime certifies that, and a
trial reads no lambda, no sampled point and no row of the ideal.  Either
scheme is then a squarefree binary form among A, B, which kills lambda
by construction (Sylvester's theorem, `waring._certify_roots`), so no
root is computed, and check (i) of the section makes the cubic concise.
The exact Sylvester kernel, lambda, is built only where it is read
(`AlphaResult.functional`), and the cubic from it; a pair whose gcd
certificate fails takes the exact path instead (check (ii) on the
curve's quadrics, h3 from the rank of the Sylvester system, and the
rank of `AlphaResult.mu`).
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, reduce
from math import factorial, prod

from .core import (_RANK_PRIME, ExactMatrix, Polynomial, Record, _first_step, _int_echelon,
                   _int_rank, _int_reduce, _kernel_vectors, _rank_mod_prime, _row_to_int,
                   change_coordinates, monomial_basis)
from .curvegen import (BihomSection, CurveSpec, IdealReconstruction, _restriction_classes,
                       balanced_type, ideal_pieces, tetragonal_curve, tetragonal_surfaces,
                       trigonal_curve)
from .jsonio import ascii_int
from .scroll import Scroll, coordinate_layout
from .seeding import derive_seed, make_rng, random_dual_linear
from .univariate import _combine, _coprime_mod, _mul, _multiples
from .waring import CertificateError, _certify_roots

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


class AlphaResult(Record):
    """The quotient of a curve by two hyperplanes, as its certificates
    read it.  `phi` is the section's n binary forms of degree m, and
    `forms` the Sylvester system's two binary forms A, B on it: (D_1, D_2)
    on a threefold (m = n - 1), (D, E(phi)) on a surface (m = n).
    `coprime` says that `alpha_map` certified A and B coprime, so that
    h3 = 1, Ann(lambda) = (A, B) and the contraction rank is n by theorem;
    otherwise the quotient took the exact path and the rank is that of
    `mu`.

    `functional`, `mu`, `cubic` and `contraction_rank` are derived when
    first read; a trial reads none of the first three.  `functional` is
    the cubic's functional lambda on the binary forms of degree 3m,
    lambda_k = lambda(s^(3m - k) t^k), up to scale the one kernel vector
    of the Sylvester system: 3n - 2 integers on a tetragonal curve,
    3n + 1 on a trigonal one."""

    genus: int
    eta1: Polynomial
    eta2: Polynomial
    hilbert: tuple[int, ...]
    kept_indices: tuple[int, ...]
    phi: tuple[tuple[int, ...], ...]
    forms: tuple[tuple[int, ...], ...]
    coprime: bool

    @cached_property
    def functional(self) -> tuple[int, ...]:
        """The one kernel vector of the Sylvester system (`_sylvester_rows`)."""
        width = 3 * len(self.phi[0]) - 2
        [kernel] = _kernel_vectors(_sylvester_rows(self.phi, self.forms), width)
        return tuple(kernel.get(k, 0) for k in range(width))

    @cached_property
    def mu(self) -> list[list[int]]:
        """H_m(lambda) phi: row k = 0..2m holds mu_i[k] = sum_l phi_i[l]
        lambda[k + l].  The cubic's contraction matrix is P mu, P the
        products phi_a phi_b, spanning S_(2m), or S_(2n) modulo the D S_n
        that every mu_i kills, so mu has the contraction rank."""
        return [[sum(x * y for x, y in zip(form, self.functional[k:])) for form in self.phi]
                for k in range(2 * len(self.phi[0]) - 1)]

    @cached_property
    def contraction_rank(self) -> int:
        """The rank of the cubic's contraction, a lower bound of its Waring
        rank.  With `coprime` it is n, from check (i): the kernel of
        H_m(lambda) on S_m is (A, B)_m, which is 0 on a threefold (deg D_i
        >= g - 1 > m) and the line of D on a surface, where (i) makes phi
        and D independent.  Otherwise it is the rank of `mu`."""
        if self.coprime:
            return len(self.phi)
        return _int_rank(self.mu, len(self.phi))

    @cached_property
    def cubic(self) -> Polynomial:
        """F_lambda, (F_lambda)_e = (6 / e!) lambda(phi^e), over its lead."""
        terms = _cubic_of(self.mu, _products(self.phi))
        lead = terms[max(terms)]
        return Polynomial(len(self.phi), 3, {exp: Fraction(c, lead) for exp, c in terms.items()})


def tetragonal_cube_bound(g: int) -> int:
    """ceil((3g - 7) / 2), the tetragonal power-sum bound."""
    if g < 4:
        raise ValueError("bound defined for genus >= 4")
    return -(-(3 * g - 7) // 2)


def _hyperplane_rows(eta1: Polynomial, eta2: Polynomial) -> list[list[int]]:
    """The two hyperplanes as primitive integer coefficient rows."""
    basis1 = monomial_basis(eta1.nvars, 1)
    return [_row_to_int(eta.coefficient_vector(basis1)) for eta in (eta1, eta2)]


def _dropped_pair(c1: Sequence[int], c2: Sequence[int]) -> tuple[int, int] | None:
    """(j1, j2) for two hyperplane rows, None when they are dependent: j1
    is the last column where either row is nonzero, j2 the last column
    before it whose minor with j1, c1[j2] c2[j1] - c1[j1] c2[j2], is
    nonzero."""
    j1 = max((j for j, column in enumerate(zip(c1, c2)) if any(column)), default=0)
    for j2 in reversed(range(j1)):
        if c1[j2] * c2[j1] - c1[j1] * c2[j2]:
            return j1, j2
    return None


def quotient_frame(eta1: Polynomial, eta2: Polynomial, g: int) -> tuple[int, ...]:
    """The kept coordinates: all but the `_dropped_pair` of the
    hyperplanes' primitive integer rows, so the kept coordinates are
    coordinates on Pi = {eta1 = eta2 = 0}.  Fails with (1,) when the
    hyperplanes are dependent."""
    if eta1.nvars != g or eta2.nvars != g or eta1.degree != 1 or eta2.degree != 1:
        raise ValueError("hyperplanes must be linear forms in g variables")
    dropped = _dropped_pair(*_hyperplane_rows(eta1, eta2))
    if dropped is None:
        raise AlphaCertificateError((1,), "the two hyperplanes are dependent")
    return tuple(i for i in range(g) if i not in dropped)


def _embed(scroll: Scroll, fiber: Sequence[Sequence[int]]) -> list[list[int]]:
    """A section of the fiber coordinates, as binary forms, embedded: the
    form s^(e_i - j) t^j fiber_i at each ambient coordinate (i, j)."""
    return [[0] * j + fiber[i] + [0] * (scroll.type[i] - j)
            for i, j in coordinate_layout(scroll)]


def _section(scroll: Scroll, etas: Sequence[Sequence[int]]
             ) -> tuple[list[list[list[int]]], list[int] | None]:
    """What the two hyperplanes cut on the scroll, as (fibers, D).  Each
    hyperplane row restricts to fiber coordinate b as its block of
    `coordinate_layout`, a binary form (coefficient j on s^(e_b - j) t^j):
    r for one hyperplane, q for the other.  On a threefold the one fiber
    is the cross product r x q, the point of each fiber plane on both,
    and D is None.  On a surface, with r = (a0, a1) and q = (b0, b1), the
    fibers are each hyperplane's point on the fiber line, (a1, -a0) and
    (b1, -b0), and both hyperplanes meet it where D = a0 b1 - a1 b0 = 0."""
    layout = coordinate_layout(scroll)
    r, q = ([[c for c, (i, _) in zip(eta, layout) if i == b] for b in range(scroll.k)]
            for eta in etas)
    if scroll.k == 3:
        return [[_combine([(1, _mul(r[i - 2], q[i - 1])), (-1, _mul(r[i - 1], q[i - 2]))])
                 for i in range(3)]], None
    (a0, a1), (b0, b1) = r, q
    return ([[a1, [-c for c in a0]], [b1, [-c for c in b0]]],
            _combine([(1, _mul(a0, b1)), (-1, _mul(a1, b0))]))


def _surface_form(section: BihomSection, fiber: Sequence[Sequence[int]]) -> list[int]:
    """The binary form a section restricts to on an embedded fiber (D_i of
    the surface 2H - b_i F on C0, E(phi) of a trigonal curve): its base
    form of each fiber monomial y^exp, from the rows of its image, times
    fiber^exp.  The image is a positive multiple of the section, so the
    form moves by a constant > 0."""
    return _combine(
        (1, reduce(_mul, [fiber[i] for i, e in enumerate(exp) for _ in range(e)], row))
        for exp, row in section.image if row)


def _coprime(forms: Sequence[Sequence[int]]) -> bool:
    """Whether two binary forms A, B are certified coprime over Q: A's
    t-lead is nonzero modulo p = `_RANK_PRIME` and A, B at s = 1 are
    coprime modulo p (`univariate._coprime_mod`).  A common factor h would
    not be s, since A(0, 1) != 0, so h(1, t) would keep a positive degree
    modulo p and divide both there: Res(A, B) is nonzero modulo p.  False
    for any other number of forms."""
    if len(forms) != 2 or forms[0][-1] % _RANK_PRIME == 0:
        return False
    return _coprime_mod(*forms, _RANK_PRIME)


def _section_forms(recon: IdealReconstruction, etas: Sequence[Sequence[int]],
                   kept: Sequence[int]) -> tuple[list[list[int]], list[list[int]], bool]:
    """The embedded fiber phi and the two binary forms A, B whose
    multiples of degree 3m the cubic's functional lambda kills, read off
    what the two hyperplanes cut on the scroll S: the quotient's one cut
    of S.  Returns (phi, [A, B], coprime) for the first fiber that passes
    check (i) and either the gcd certificate (`_coprime`) or check (ii),
    or fails with (1, n).

    phi is an embedded fiber of `_section` at the kept coordinates: n
    binary forms of degree m, the curve C0 (m = n - 1) on a threefold;
    on a surface (m = n) the scheme Gamma is D = 0 on phi.  F_lambda
    pairs with an operator P as 6 lambda(P(phi)), and the ideal restricts
    to phi as its `equations` do (`_surface_form`), since I_S vanishes
    there.  (i) phi's coefficients (and D's) are independent: C0 is a
    rational normal curve, or Gamma spans P^(n-1), and no fiber plane or
    line lies in Pi = {eta1 = eta2 = 0}, so Pi meets S properly.  Then
    h2 = n, with no rank of J2: S is arithmetically Cohen-Macaulay
    (Eagon-Northcott), so I_S restricts onto the ideal of Pi meet S, and
    J2 is I(C0)_2, of dimension C(n - 1, 2), plus the n - 1 restricted
    lifts, or I(Gamma)_2: dimension C(n, 2) either way.

    The lifts of J2 are q_i times the base monomials of degree b_i
    (`_piece`), which read s^(b_i - j) t^j D_i on the embedded fiber, and
    a surface's J2 has none; so when A and B are coprime they span
    D_1 S_(b_1) + D_2 S_(b_2), n - 1 independent forms (u_1 D_1 + u_2 D_2
    = 0 with deg u_1 = b_1 < deg D_2 forces u_1 = 0), and the check
    below holds by theorem.  Only a fiber whose gcd certificate fails
    runs it: (ii) every row of J2 (`recon.degree2`), read in its g
    coordinates on the embedded fiber, the point of Pi at phi (exactly on
    a threefold, modulo D on a surface), reduces to zero against the
    relations (D_1, D_2 on a threefold, D on a surface) times every
    monomial of degree 2m; on a threefold the nonzero images, the n - 1
    lifts (the scroll's quadrics read zero), also have rank n - 1 modulo
    a prime, a lower bound, so they span D_1 S_(b_1) + D_2 S_(b_2).
    """
    n = len(kept)
    fibers, determinant = _section(recon.scroll, etas)
    threefold = determinant is None
    m = n - 1 if threefold else n
    failed = []
    for fiber in fibers:
        image = _embed(recon.scroll, fiber)
        phi = [image[i] for i in kept]
        if _int_rank(phi if threefold else phi + [determinant], m + 1) <= m:
            failed.append("(i) the section's coordinates are dependent")
            continue
        forms = [_surface_form(equation, fiber) for equation in recon.equations]
        relations = forms if threefold else [determinant]
        pair = relations if threefold else relations + forms
        if _coprime(pair):
            return phi, pair, True
        images = [q for q in _fiber_quadrics(recon, image) if any(q)]
        if images:
            ech, pivots = _int_echelon(_multiples(relations, 2 * m), 2 * m + 1)
        if (any(any(_int_reduce(ech, pivots, q)) for q in images)
                or threefold and _rank_mod_prime(images, 2 * m + 1) < n - 1):
            failed.append("(ii) J2 and the section's quadrics differ")
            continue
        return phi, pair, False
    raise AlphaCertificateError((1, n), "degenerate section: " + "; ".join(failed))


def _fiber_quadrics(recon: IdealReconstruction, image: Sequence[Sequence[int]]):
    """Every row of `recon.degree2` read on the embedded fiber `image`.
    The monomials of one restriction class (`_restriction_classes`, the
    classes of `_piece`) read one product there, so a row reads its
    coefficients summed per class, each nonzero sum times its class's
    product, built once: a binomial e_j - e_rep of `_piece` reads none."""
    classes = _restriction_classes(recon.scroll, 2)
    basis2 = monomial_basis(recon.genus, 2)
    products = {}
    for row in recon.degree2:
        sums = {}
        for j, c in row.items():
            sums[classes[j]] = sums.get(classes[j], 0) + c
        for j in row:
            if sums[classes[j]] and classes[j] not in products:
                products[classes[j]] = _mul(*(image[i] for i, e in enumerate(basis2[j])
                                              for _ in range(e)))
        yield _combine((c, products[key]) for key, c in sums.items() if c)


def _products(phi: Sequence[Sequence[int]]) -> dict:
    """phi_i phi_j at each degree-2 exponent, one `_mul` each."""
    return {exp: _mul(*(phi[i] for i, e in enumerate(exp) for _ in range(e)))
            for exp in monomial_basis(len(phi), 2)}


def _cubic_of(mu: Sequence[Sequence[int]], products: dict) -> dict:
    """The nonzero terms of F_lambda, (6 / e!) lambda(phi^e), as integers,
    with no product of degree 3m: with x_i the first variable of e,
    lambda(phi^e) = <phi^(e - u_i), mu_i>, one dot product each."""
    terms = {}
    for exp in monomial_basis(len(mu[0]), 3):
        i, lower = _first_step(exp)
        terms[exp] = (6 // prod(map(factorial, exp))
                      * sum(x * row[i] for x, row in zip(products[lower], mu)))
    return {exp: c for exp, c in terms.items() if c}


def _sylvester_rows(phi: Sequence[Sequence[int]],
                    forms: Sequence[Sequence[int]]) -> list[list[int]]:
    """The Sylvester system: each form times every monomial carrying it
    to degree 3m (phi of degree m), as rows over the 3m + 1 coefficients,
    3n - 3 rows on a threefold and 3n on a surface.  The functionals that
    kill them are its kernel, of dimension h3."""
    return _multiples(forms, 3 * len(phi[0]) - 3)


def alpha_map(recon: IdealReconstruction, eta1: Polynomial,
              eta2: Polynomial) -> AlphaResult:
    """Quotient the curve ideal by two hyperplanes down to the cubic's functional.

    The hyperplanes cut the scroll once (`_section_forms`), with no
    substitution and no rank of the ideal: the scroll is arithmetically
    Cohen-Macaulay, so check (i) gives h2 = n (diagnostic (1, n) when the
    section fails).  lambda, on forms of degree 3m, kills the section's
    two binary forms A, B (`AlphaResult.forms`) times every monomial.
    When the gcd certificate holds, A and B are coprime and deg A + deg B
    = 3m + 2, so S/(A, B) is a complete intersection with socle degree 3m
    and h3 = 1 with no kernel computed: a syzygy u A = v B of the
    Sylvester system would need B to divide u, of lower degree.  lambda
    is built only when read.  Otherwise the section passed check (ii),
    and h3 is 3m + 1 minus the exact rank of the Sylvester system.  No
    degree-2 or degree-3 row is read on the certified path: the ideal is
    I_S plus the equations times their multiplier slots (Schreyer 1986),
    and `ideal_pieces` certified both counts in closed form.  No
    `Polynomial` is built.
    """
    g = recon.genus
    n = g - 2
    kept = quotient_frame(eta1, eta2, g)
    phi, forms, coprime = _section_forms(recon, _hyperplane_rows(eta1, eta2), kept)
    hilbert = (1, n, n, 1)
    if not coprime:
        width = 3 * len(phi[0]) - 2
        hilbert = (1, n, n, width - _int_rank(_sylvester_rows(phi, forms), width))
        if hilbert[3] != 1:
            raise AlphaCertificateError(
                hilbert, "quotient algebra does not have the expected Hilbert vector")
    return AlphaResult(g, eta1, eta2, hilbert, kept, tuple(map(tuple, phi)),
                       tuple(map(tuple, forms)), coprime)


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
    """Certify the curve's ideal now (`ideal_pieces`, which samples and
    builds nothing when its closed counts hold); return an iterator that
    yields, for each of up to `_ETA_RETRIES` seeded hyperplane pairs, its
    AlphaResult or the AlphaCertificateError it raised.  The pair stream
    is salted by gonality, so `alpha` and the verifiers draw alike."""
    recon = ideal_pieces(curve, seed)
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


def _certify_fermat(curve: CurveSpec, alpha: AlphaResult,
                    failures: list) -> dict | None:
    """Trigonal certificate: the cubic is a sum of the cubes of the
    n = g - 2 points the hyperplanes cut on the scroll, D = 0 on the
    embedded fiber (`alpha.forms[0]`, as the quotient read it), and (d)
    concise, of contraction rank n (`alpha.contraction_rank`), so its rank
    is exactly n.  `_certify_roots` checks that D is squarefree; D kills
    lambda, as one of the two forms of the Sylvester system, so by
    Sylvester's theorem lambda is a weighted sum of evaluations at the n
    roots of D."""
    try:
        n = _certify_roots(alpha.forms[0])
        if alpha.contraction_rank != n:
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
                   failures: list) -> dict | None:
    """Tetragonal certificate: the cubic is a sum of the cubes of the
    points of the scheme cut on one of the two surfaces 2H - bF, whose
    length must stay within the bound.

    Each surface restricts to a binary form D of degree L = 2g - 6 - b on
    the rational normal curve C0 the hyperplanes cut on the threefold
    (`alpha.forms`, as the quotient read it), where lambda lives.  D kills
    lambda, as one of the two forms of the Sylvester system; if it is
    squarefree (`_certify_roots`), by Sylvester's theorem the cubic is
    the sum of the cubes of C0's points at the L roots of D.  The
    contraction rank (`alpha.contraction_rank`, n when A and B are
    certified coprime) bounds the rank from below.
    """
    g = curve.genus
    bound = tetragonal_cube_bound(g)
    lower_bound = alpha.contraction_rank
    bs = [-cls.f for cls in curve.classes]
    # prefer the lower-degree surface: larger b first
    for surface_index in sorted((0, 1), key=lambda i: -bs[i]):
        b = bs[surface_index]
        try:
            length = _certify_roots(alpha.forms[surface_index])
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


def _verify(report: dict, g: int, split: tuple[int, int] | None, trials: int,
            seed: int) -> dict:
    """Run the trials, serially or in a pool of at most one process per
    trial, and finish `report`; raise VerificationError if one failed.

    APOLAR_KIT_THREADS is the process count, in ASCII digits; unset,
    empty or 0 is serial.
    """
    if trials < 1:
        raise ValueError(f"the number of trials must be at least 1, not {trials}")
    raw = os.environ.get("APOLAR_KIT_THREADS") or "0"
    try:
        # "-" + raw reads exactly when raw is unsigned ASCII digits
        processes = min(-ascii_int("-" + raw), trials)
    except ValueError:
        raise ValueError(f"APOLAR_KIT_THREADS must be a process count, not {raw!r}") from None
    arguments = [(g, split, derive_seed(seed, i)) for i in range(trials)]
    if processes > 1:
        # imported here, so a serial run never loads the pool's modules
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=processes) as pool:
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
    certifies exactly, by Sylvester's theorem on binary forms and without
    a root, that the cubic is a sum of the cubes of the g - 2 points the
    two hyperplanes cut on the scroll and that it is concise
    (`_certify_fermat`).  Any trial failure raises VerificationError with
    the full report attached.  The genus runs from 5 through 30.
    """
    if not 5 <= g <= 30:
        raise ValueError("desk-scale verification covers genus 5 through 30")
    report = {
        "claim": f"the quotient cubic of a trigonal genus-{g} canonical curve "
                 f"is a sum of exactly {g - 2} cubes",
        "expected_rank": g - 2,
    }
    return _verify(report, g, None, trials, seed)


def verify_tetragonal_bound(g: int, split: tuple[int, int] | None, trials: int,
                            seed: int) -> dict:
    """Check the tetragonal power-sum bound ceil((3g - 7) / 2).

    Every trial builds a complete-intersection curve for the requested
    split of g - 5 and runs the quotient construction.  It then certifies
    exactly, by Sylvester's theorem on binary forms and without a root,
    that the cubic is a sum of the cubes of the points the two
    hyperplanes cut on one of the two surfaces 2H - b F (lower degree
    first; `_certify_bound`).  That length, the degree of the surface,
    must stay within the bound.  The report also carries the interval
    between the contraction-rank lower bound and the length, since ranks
    in between are not decided here.
    The genus runs from 6 through 30; a split that `tetragonal_surfaces`
    rejects is an input error before any trial.
    """
    if not 6 <= g <= 30:
        raise ValueError("desk-scale verification covers genus 6 through 30")
    if split is None:
        split = balanced_type(g - 5, 2)
    if len(split) != 2:
        raise ValueError(f"the split must be two integers, not {tuple(split)}")
    b1, b2 = split
    tetragonal_surfaces(Scroll(balanced_type(g - 3, 3)), b1, b2)
    bound = tetragonal_cube_bound(g)
    report = {
        "claim": f"the quotient cubic of a tetragonal genus-{g} canonical curve "
                 f"is a sum of at most {bound} cubes",
        "bound": bound,
        "split": [b1, b2],
    }
    return _verify(report, g, (b1, b2), trials, seed)
