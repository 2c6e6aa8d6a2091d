"""Reference computations for the tests, one per quantity.

The forms layer's primitives are the rational helpers the package once
exported, checked against its integer code: `contract` and `pair` (the
contraction action, by the falling factorials of `_falling`, and the
apolarity pairing on `Polynomial`s), `coefficient_matrix`, `int_kernel`
(the normalised kernel basis of `core._kernel_vectors`),
`catalecticant` (the contraction matrix, the package's Hankel rows
between factorial diagonals) as an `ExactMatrix`, `is_apolar_scheme`
(the power-sum membership test with exact weights, built from
`power_coefficient_vector`), `piece_contains` and `piece_from_vectors`
on `GradedIdealPiece`s, `random_invertible_matrix` (determinant +-1)
and `scroll_quadrics` (the 2 x 2 minors that cut out a scroll).

The scroll's embedding, as the package computed it before its integer
helpers: `embed_point` (a `ScrollPoint` record, the image primitive
when integral), `primitive_point` (coprime integers, positive lead, from
rational coordinates) and `ambient_restriction` (the fiber and base
exponent of one ambient monomial's pullback, coordinate by coordinate),
the references of `scroll.embedded_point` and
`curvegen._restriction_classes`.

Fermat detection and the apolar profile: `pencil` is the Fermat pencil
on `Polynomial` quadrics, with B^-1 A read off one rref of
[B | A | C ...] and scaled by `integer_multiple`,
`fermat_detect_detail` drives it with the three quadrics of `contract`
and decides by `echelon_certificate`, `hilbert_vector` takes the exact
rank of every catalecticant, and `annihilator_piece` reads a piece off
`ExactMatrix.kernel`.

The curve's fibers: the rational `Polynomial` computations the integer
fiber work replaced.  `fiber_form` restricts a section to a fiber,
`conic_pencil` forms the Bezout combinations of two fiber conics,
`binary_roots` lists the rational roots of a binary form, and
`quadratic_fiber_points` is the quadratic-formula solver for the common
points of two conics.  `small_rationals` is the stream of
`seeding.small_rationals` rebuilt on every call.

The kept coordinates: `quotient_frame`, a frame found by one rref of the
hyperplane rows and inverted whole.  `restriction_matrix` reads the
integer restriction R off it: delta times the first n columns of the
frame's inverse, delta the minor of the hyperplane rows at the dropped
pair.

The quotient keeps two references.  `alpha_map` is the generic
definition in `Fraction` polynomials: the ideal pieces of `recon_piece`
restricted element by element through the public `substitute`, the
degree-3 inverse system of the quadrics from `inverse_system`, and one
kernel of the pairing with every cubic row (`from_spanning` gives each
span one reduced echelon basis).  It is the only check that the package
does not reject a pair the definition accepts.
`class_pairing_alpha_map` returns lambda, and rejects a degenerate
section by the package's own checks (i) and (ii), so it cannot catch
that; but it is cheap enough to sweep every drawn pair up to g = 12.
On trigonal g = 10-12 and tetragonal g = 10 and 11, seeds 1 and 2, five
drawn pairs each, in-process on a 2-core Xeon, a pair took 52-218 ms
(median 107) by `alpha_map` and 8-33 ms (median 15) by the class
pairing.  The class pairing reads V, the inverse system of the
restricted quadrics (`restricted_quadrics`, x -> R y; `general_quadrics`
refuses h2 != n with the diagnostic vector (1, n, h2), `h2` being the
rank the package no longer takes), off the section
(`section_inverse_system`), and pairs every cubic row with V's basis
functionals class by class on the embedded fiber.
`restricted_section_forms` is the section check (ii) as it ran on the
restricted quadrics.  `alpha_map` returns a `Quotient`, with the span of
the restricted quadrics, and the class pairing a `SectionQuotient`.

The cubic F_lambda: `product_cubic_of`, every product phi^e of degree 3
(`powers`, each product one lower product times phi at its first
variable) paired with lambda term by term.

The certificate: `echelon_certificate` is the span check for any
squarefree D and points phi.  The cubic lies in the span of the cubes
of the points exactly when its target e! F_e reduces to zero against
one echelon of the L x C(n + 2, 3) matrix of residues x^e(phi) mod D,
each column's scale a `Fraction`.  It is the reference of Fermat
detection and of both verifiers' Sylvester certificates, and returns to
the package with the plane-model verifier (`verify-c`).

The scheme (D, phi): `trigonal_scheme` and `surface_scheme` build it
over Q once on binary forms from `pipeline._section`, moved to the chart
s = 1 + k t of the first k >= 0 where D(k, 1) != 0 (`chart`), and
`scheme_certify_fermat` and `scheme_certify_bound` run
`echelon_certificate` on it.  `oracle_points` evaluates a scheme at
sympy's numerical roots of D, and `oracle_fit` fits a cubic by least
squares to the cubes of those points in mpmath, apart from the
package's arithmetic.

`replaced` copies a package record with some fields changed, through
its constructor, as `dataclasses.replace` did before the records
stopped being dataclasses, and `cached` copies one with some of its
cached properties given (an ideal's rows or points, a quotient's
lambda or contraction rank).

What a trial no longer computes, since two coprime forms A, B make the
quotient a complete intersection: `certify_functional` is check (c'),
lambda killing the multiples of D, on top of the package's check (a)
(`waring._certify_roots`); `functional_certificate` runs either
package certificate as it ran when it read lambda, (c') on every D it
tries and conciseness ranked on `AlphaResult.mu`; `nonvanishing` is
the point check of the ideal's rows, term by term, the reference of
`curvegen._checked_piece`.

JSON reading: `coef_from_str` and `polynomial_from_json` parse a
coefficient by `Fraction` and a polynomial term by term.

`admissible_splits` lists the tetragonal splits the sweeps run over.

`Polynomial` is a term record with no arithmetic.  Tests build forms
from plain term maps, or in sympy through the converter pair `to_sympy`
and `from_sympy`.  `evaluate` (a form at an exact point), `scaled`,
`plus_term` and `normalized` (leading graded-lex coefficient 1) stay
plain term-map functions, since the curve oracles call them thousands
of times.
"""

import re
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from math import comb, factorial, gcd, isqrt, lcm, prod
from typing import Optional

import sympy
from mpmath import mp

from apolar_kit import core, jsonio, pipeline
from apolar_kit.apolarity import (ApolarAlgebraProfile, GradedIdealPiece, _catalecticant_rows,
                                  inverse_system)
from apolar_kit.core import (ExactMatrix, Polynomial, Record, _int_echelon, _int_rank,
                             _int_reduce, _int_substitute, _kernel_vectors, _monomial_value,
                             _rank_mod_prime, _row_to_int, _scaled, monomial_basis,
                             substitute)
from apolar_kit.curvegen import _restriction_classes, balanced_type, tetragonal_surfaces
from apolar_kit.pipeline import (AlphaCertificateError, _certify_bound, _certify_fermat, _embed,
                                 _hyperplane_rows, _section, _surface_form,
                                 tetragonal_cube_bound)
from apolar_kit.scroll import Scroll, coordinate_layout
from apolar_kit.seeding import make_rng, random_dual_linear
from apolar_kit.univariate import (_combine, _mul, _multiples, _pseudo_remainder, affine_chart,
                                   is_squarefree, poly_gcd, rational_roots)
from apolar_kit.waring import (CertificateError, Decomposition, PencilError, _certify_roots,
                               rank_lower_bound)

_T = sympy.Symbol("t")


def _symbols(nvars):
    return sympy.symbols(f"x0:{nvars}")


def to_sympy(poly):
    """A `Polynomial` as a sympy expression in x0, ..., x_(n-1)."""
    xs = _symbols(poly.nvars)
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(x ** e for x, e in zip(xs, exp)))
                       for exp, c in poly.terms.items()))


def from_sympy(expr, nvars, degree):
    """The `Polynomial` of a homogeneous degree-`degree` sympy expression
    in x0, ..., x_(n-1)."""
    terms = sympy.Poly(expr, *_symbols(nvars)).terms()
    return Polynomial(nvars, degree, {exp: Fraction(int(c.p), int(c.q))
                                      for exp, c in terms if c})


def evaluate(poly, point):
    """A form at a point with integer or Fraction coordinates."""
    if len(point) != poly.nvars:
        raise ValueError("point has wrong length")
    return sum((c * _monomial_value(point, exp) for exp, c in poly.terms.items()), Fraction(0))


def scaled(poly, c):
    """A form times a rational constant."""
    return Polynomial(poly.nvars, poly.degree, {exp: x * c for exp, x in poly.terms.items()})


def plus_term(poly, exp, c=1):
    """A form plus c x^exp."""
    return Polynomial(poly.nvars, poly.degree, {**poly.terms, exp: poly.coefficient(exp) + c})


def normalized(poly):
    """A form scaled so its first coefficient in graded-lex order is 1."""
    if poly.is_zero():
        return poly
    return scaled(poly, 1 / poly.terms[max(poly.terms)])


def replaced(record, **changes):
    """A copy of a package record with some fields changed, built by its
    constructor, so `__post_init__` runs on the new fields and an unknown
    field is a TypeError."""
    return type(record)(**(record._asdict() | changes))


def cached(record, **values):
    """A copy of a package record, built by its constructor, with some
    of its cached properties given: each value goes in the instance
    dict, where `functools.cached_property` looks first."""
    copy = type(record)(*record._values())
    vars(copy).update(values)
    return copy


def certify_functional(determinant, functional):
    """Check (a) of `waring._certify_roots`, then (c'): lambda kills the
    multiples D s^(d - L - j) t^j, j = 0..d - L, a dot product each.
    Returns L; CertificateError names the failed check."""
    length = _certify_roots(determinant)
    if any(sum(c * x for c, x in zip(row, functional))
           for row in _multiples([determinant], len(functional) - 1)):
        raise CertificateError("(c) the cubic is not in the span of the scheme's cubes")
    return length


def functional_certificate(curve, alpha, failures):
    """`pipeline._certify_fermat` (trigonal) or `pipeline._certify_bound`
    as they ran when they read `alpha.functional`: every scheme equation
    they try passes (c') too (`certify_functional`), and the contraction
    rank is that of `alpha.mu`, so a record with a lambda or a section of
    its own is certified on them."""
    ranked = cached(alpha, contraction_rank=_int_rank(alpha.mu, len(alpha.phi)))
    original = pipeline._certify_roots
    pipeline._certify_roots = lambda determinant: certify_functional(determinant,
                                                                     alpha.functional)
    try:
        certify = _certify_fermat if curve.gonality == 3 else _certify_bound
        return certify(curve, ranked, failures)
    finally:
        pipeline._certify_roots = original


def nonvanishing(rows, points, nvars, degree):
    """The rows (index into `monomial_basis(nvars, degree)` -> coefficient)
    that do not vanish on every point, each value summed term by term."""
    basis = monomial_basis(nvars, degree)
    return [row for row in rows
            if any(sum(c * _monomial_value(p, basis[j]) for j, c in row.items())
                   for p in points)]


def refuse_rational_layer(monkeypatch):
    """Make `core.ExactMatrix`, `core.change_coordinates` and
    `core.substitute` raise AssertionError, in every package module that
    holds them.  The package keeps them only for the bench tracer, so
    nothing it runs may reach them."""
    def refuse(*args, **kwargs):
        raise AssertionError("the rational layer was called")

    monkeypatch.setattr(ExactMatrix, "__init__", refuse)
    for name in ("change_coordinates", "substitute"):
        original = getattr(core, name)
        for module_name, module in list(sys.modules.items()):
            if (module_name.split(".")[0] == "apolar_kit"
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, refuse)


def _falling(b, a):
    """prod_i b_i (b_i - 1) ... (b_i - a_i + 1); zero if any a_i > b_i."""
    out = 1
    for bi, ai in zip(b, a):
        if ai > bi:
            return 0
        for j in range(ai):
            out *= bi - j
    return out


def contract(op, form):
    """Apply a dual operator of degree a to a form of degree b.

    On monomials the action is a! * C(b, a) * x^(b-a) when b >= a and 0
    otherwise (the multi-index factorial and binomial), extended
    bilinearly; this is literal repeated partial differentiation.  The
    result is homogeneous of degree b - a, the zero form when every term
    dies, and the zero form of degree 0 when a > b.
    """
    if op.nvars != form.nvars:
        raise ValueError(
            f"variable count mismatch: operator has {op.nvars}, form has {form.nvars}")
    if op.degree > form.degree:
        return Polynomial(form.nvars, 0, {})
    terms = {}
    for a, ca in op.terms.items():
        for b, cb in form.terms.items():
            factor = _falling(b, a)
            if factor:
                exp = tuple(bi - ai for bi, ai in zip(b, a))
                terms[exp] = terms.get(exp, Fraction(0)) + ca * cb * factor
    return Polynomial(form.nvars, form.degree - op.degree, terms)


def pair(form, op):
    """The perfect pairing between degree-d forms and degree-d operators:
    the dot product of coefficient vectors weighted by the multi-index
    factorials, the diagonal Gram matrix on monomial bases."""
    if form.nvars != op.nvars or form.degree != op.degree:
        raise ValueError(f"shape mismatch in pairing: ({form.nvars},{form.degree}) "
                         f"vs ({op.nvars},{op.degree})")
    return sum((c * op.terms[exp] * prod(map(factorial, exp))
                for exp, c in form.terms.items() if exp in op.terms), Fraction(0))


def coefficient_matrix(polys, basis=None):
    """The coefficient vectors of polynomials of one (nvars, degree), stacked."""
    polys = list(polys)
    if not polys:
        return ExactMatrix([])
    nvars, degree = polys[0].nvars, polys[0].degree
    if basis is None:
        basis = monomial_basis(nvars, degree)
    if any(p.nvars != nvars or p.degree != degree for p in polys):
        raise ValueError("mixed shapes in coefficient matrix")
    return ExactMatrix([p.coefficient_vector(basis) for p in polys])


def int_kernel(rows, ncols):
    """The kernel basis of integer rows with a unit entry at each free
    column: the vectors of `core._kernel_vectors`, each scaled so its
    first nonzero entry is 1."""
    return [_scaled(v, v[min(v)], ncols) for v in _kernel_vectors(rows, ncols)]


def catalecticant(form, k):
    """The catalecticant C_k of a form as an `ExactMatrix`: the Hankel rows
    of `apolarity._catalecticant_rows` of its rational terms, row t
    divided by t!."""
    d = form.degree
    if k < 0 or k > d:
        raise ValueError(f"contraction order k={k} outside 0..{d}")
    rows = _catalecticant_rows(form.terms, form.nvars, d, k)
    return ExactMatrix([[Fraction(x, prod(map(factorial, t))) for x in row]
                        for t, row in zip(monomial_basis(form.nvars, d - k), rows)])


def piece_from_vectors(degree, nvars, vectors):
    """The `GradedIdealPiece` whose basis has these coefficient vectors."""
    basis = monomial_basis(nvars, degree)
    return GradedIdealPiece(degree, nvars, tuple(
        Polynomial(nvars, degree, {exp: c for exp, c in zip(basis, v) if c}) for v in vectors))


def piece_contains(piece, poly):
    """Exact membership of a dual form in the span of a graded piece: its
    integer row reduces to zero against the echelon form of the basis rows."""
    if poly.degree != piece.degree or poly.nvars != piece.nvars:
        raise ValueError("degree or arity mismatch in membership test")
    basis = monomial_basis(piece.nvars, piece.degree)
    *rows, row = ([t.get(m, 0) for m in basis]
                  for t in (p.integer_terms()[1] for p in piece.basis + (poly,)))
    ech, pivots = _int_echelon(rows, len(basis))
    return not any(_int_reduce(ech, pivots, row))


def power_coefficient_vector(point, d, basis):
    """Coefficient vector of (sum_i p_i x_i)^d over the degree-d basis."""
    return [factorial(d) // prod(map(factorial, exp)) * _monomial_value(point, exp)
            for exp in basis]


@dataclass(frozen=True)
class ApolarityCertificate:
    """Outcome of an apolar-scheme membership test, with the exact weights."""

    apolar: bool
    weights: Optional[tuple]


def is_apolar_scheme(points, form):
    """Whether reduced rational dual points realize f as a power sum: f in
    the span of the d-th powers of the linear forms sum_i c_i x_i, with
    the weights solved for exactly.  Coincident, zero and non-rational
    points are rejected."""
    if not points:
        raise ValueError("empty point list")
    n = form.nvars
    for p in points:
        if len(p) != n:
            raise ValueError("point arity does not match the form")
        if not all(isinstance(c, (int, Fraction)) for c in p):
            raise ValueError("dual points must have rational coordinates")
        if not any(p):
            raise ValueError("zero vector is not a projective point")
    pts = [tuple(Fraction(c) for c in p) for p in points]
    for (i, u), (j, v) in combinations(enumerate(pts), 2):
        # proportional exactly when every 2 x 2 minor of (u, v) vanishes
        if all(u[a] * v[b] == u[b] * v[a] for a, b in combinations(range(n), 2)):
            raise ValueError(f"coincident dual points at indices {i} and {j}")
    basis = monomial_basis(n, form.degree)
    columns = [power_coefficient_vector(p, form.degree, basis) for p in pts]
    weights = ExactMatrix(columns).transpose().solve(form.coefficient_vector(basis))
    return ApolarityCertificate(weights is not None,
                                None if weights is None else tuple(weights))


def random_invertible_matrix(n, rng, bound=3):
    """Unit lower * unit upper * permutation; always has determinant +-1."""
    lower = [[1 if i == j else (rng.randint(-bound, bound) if i > j else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-bound, bound) if i < j else 0)
              for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    pmat = [[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    return ExactMatrix(lower) @ ExactMatrix(upper) @ ExactMatrix(pmat)


def scroll_quadrics(scroll):
    """The 2 x 2 minors of the 2-row matrix whose columns are the
    consecutive coordinate pairs inside each block of the scroll; they
    span the degree-2 part of its ideal."""
    position = {slot: idx for idx, slot in enumerate(coordinate_layout(scroll))}
    columns = [(position[i, j], position[i, j + 1])
               for i, a in enumerate(scroll.type) for j in range(a)]
    nvars = scroll.N + 1
    minors = []
    for (top1, bot1), (top2, bot2) in combinations(columns, 2):
        exp_a, exp_b = [0] * nvars, [0] * nvars
        exp_a[top1] += 1
        exp_a[bot2] += 1
        exp_b[bot1] += 1
        exp_b[top2] += 1
        minors.append(Polynomial(nvars, 2, {tuple(exp_a): 1, tuple(exp_b): -1}))
    return minors


class ScrollPoint(Record):
    scroll: Scroll
    base: tuple
    fiber: tuple
    image: tuple


def embed_point(scroll: Scroll, base, fiber) -> ScrollPoint:
    """Image of a (base, fiber) pair under the tautological embedding.

    Coordinates are the monomials s^(a_i - j) t^j y_i in the fixed layout,
    scaled to a primitive integer vector when they are all integers.
    """
    if len(base) != 2:
        raise ValueError("base point must have two coordinates")
    if len(fiber) != scroll.k:
        raise ValueError("fiber point arity must match the scroll dimension")
    if not any(base):
        raise ValueError("zero base vector")
    if not any(fiber):
        raise ValueError("zero fiber vector")
    image = [y * _monomial_value(base, (a - j, j))
             for y, a in zip(fiber, scroll.type) for j in range(a + 1)]
    if all(isinstance(v, int) for v in image):
        image = _row_to_int(image)
    return ScrollPoint(scroll, tuple(base), tuple(fiber), tuple(image))


def primitive_point(coords) -> tuple:
    """Scale rational projective coordinates to coprime integers with a
    positive leading entry."""
    ints = _row_to_int(coords)
    if next((v for v in ints if v), 1) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def ambient_restriction(scroll: Scroll, exp: tuple):
    """Image of an ambient monomial on the scroll: fiber exponent and
    base exponent of its pullback through the embedding, summed
    coordinate by coordinate over `coordinate_layout`."""
    layout = coordinate_layout(scroll)
    fiber = [0] * scroll.k
    s_deg = 0
    t_deg = 0
    for coord, e in enumerate(exp):
        if not e:
            continue
        i, j = layout[coord]
        fiber[i] += e
        s_deg += (scroll.type[i] - j) * e
        t_deg += j * e
    return tuple(fiber), (s_deg, t_deg)

Fit = namedtuple("Fit", "rank residual")


def oracle_points(determinant, phi):
    """The points phi(t) at the roots of D(t), as mp vectors."""
    roots = sympy.Poly(list(determinant)[::-1], _T).nroots(n=80, maxsteps=200)
    with mp.workprec(300):
        points = []
        for root in roots:
            re, im = root.as_real_imag()
            z = mp.mpc(mp.mpf(str(re)), mp.mpf(str(im)))
            points.append(tuple(mp.polyval(list(f)[::-1], z) for f in phi))
    return points


def oracle_fit(determinant, phi, cubic):
    """Least-squares weights of the cubes of the oracle's points against
    the cubic, by the normal equations.  Returns the number of points and
    the largest coefficient error relative to the cubic's largest
    coefficient (at least 1), or None when that exceeds 1e-10."""
    points = oracle_points(determinant, phi)
    basis = monomial_basis(cubic.nvars, 3)
    with mp.workprec(300):
        cubes = mp.matrix([[factorial(3) // prod(map(factorial, exp))
                            * mp.fprod(c ** e for c, e in zip(p, exp)) for exp in basis]
                           for p in points]).T
        target = mp.matrix([mp.mpf(c.numerator) / c.denominator
                            for c in cubic.coefficient_vector(basis)])
        weights = mp.lu_solve(cubes.H * cubes, cubes.H * target)
        fitted = cubes * weights
        scale = max(mp.mpf(1), max(abs(x) for x in target))
        residual = max(abs(fitted[i] - target[i]) for i in range(len(basis))) / scale
    return Fit(len(points), residual) if residual < mp.mpf(10) ** -10 else None


def small_rationals(rng):
    """Endless stream of distinct small-height rationals, shuffled per band:
    band h holds the new p/q with q <= 6 and |p/q| <= h, rebuilt here on
    every call against the set of values already seen."""
    seen = set()
    height = 1
    while True:
        band = []
        for q in range(1, 7):
            for p in range(-height * q, height * q + 1):
                f = Fraction(p, q)
                if f not in seen:
                    seen.add(f)
                    band.append(f)
        rng.shuffle(band)
        yield from band
        height += 1


def fiber_form(section, base):
    """Restriction of a `BihomSection` to the fiber over an exact base
    point (s0, t0), as a rational `Polynomial` in the fiber variables."""
    return Polynomial(section.scroll.k, section.cls.h,
                      {exp: evaluate(form, base) for exp, form in section.coeffs.items()})


def conic_components(conic):
    """Split a fiber conic as a*y2^2 + b(y0,y1)*y2 + c(y0,y1)."""
    a = conic.coefficient((0, 0, 2))
    b = Polynomial(2, 1, {(1, 0): conic.coefficient((1, 0, 1)),
                          (0, 1): conic.coefficient((0, 1, 1))})
    c = Polynomial(2, 2, {(2, 0): conic.coefficient((2, 0, 0)),
                          (1, 1): conic.coefficient((1, 1, 0)),
                          (0, 2): conic.coefficient((0, 2, 0))})
    return a, b, c


def conic_pencil(q1, q2):
    """(s1, s2, resultant) of two fiber conics, as binary `Polynomial`s:
    s1 = a1 c2 - a2 c1, s2 = a1 b2 - a2 b1 and s1^2 - s2 s3 with
    s3 = b1 c2 - b2 c1."""
    (a1, b1, c1), (a2, b2, c2) = ((sympy.Rational(a.numerator, a.denominator),
                                   to_sympy(b), to_sympy(c))
                                  for a, b, c in map(conic_components, (q1, q2)))
    s1 = a1 * c2 - a2 * c1
    s2 = a1 * b2 - a2 * b1
    s3 = b1 * c2 - b2 * c1
    return from_sympy(s1, 2, 2), from_sympy(s2, 2, 1), from_sympy(s1 * s1 - s2 * s3, 2, 4)


def binary_roots(form):
    """Rational roots (s : t) of a binary `Polynomial`, each listed once."""
    affine, roots = affine_chart(form.coefficient_vector())
    roots = [(Fraction(u), Fraction(v)) for u, v in roots]
    if len(affine) > 1:
        roots.extend((Fraction(1), root) for root in rational_roots(affine))
    return roots


def _fraction_sqrt(value):
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def quadratic_fiber_points(q1, q2):
    """Rational common points of two fiber conics in (y0 : y1 : y2), by the
    quadratic formula: over each rational root (u : v) of their resultant,
    every rational root y2 of either conic on the line y0 : y1 = u : v
    (an exact square root, or the one root of a conic linear there) is a
    candidate, kept when both conics vanish at (u : v : y2)."""
    res = conic_pencil(q1, q2)[2]
    if res.is_zero():
        return []
    points = []
    for u, v in binary_roots(res):
        ui, vi = _row_to_int((u, v))
        candidates = set()
        for conic in (q1, q2):
            alpha, b, c = conic_components(conic)
            beta, gamma = evaluate(b, (ui, vi)), evaluate(c, (ui, vi))
            if alpha != 0:
                root = _fraction_sqrt(beta * beta - 4 * alpha * gamma)
                if root is not None:
                    candidates.update({(-beta + root) / (2 * alpha),
                                       (-beta - root) / (2 * alpha)})
            elif beta != 0:
                candidates.add(-gamma / beta)
        for y2 in candidates:
            fiber = (Fraction(ui), Fraction(vi), y2)
            if evaluate(q1, fiber) == 0 and evaluate(q2, fiber) == 0:
                points.append(fiber)
    return points


def recon_piece(recon, degree):
    """The degree-2 or degree-3 piece of an `IdealReconstruction` as a
    `GradedIdealPiece` of `Polynomial`s."""
    basis = monomial_basis(recon.genus, degree)
    rows = recon.degree2 if degree == 2 else recon.degree3
    return GradedIdealPiece(degree, recon.genus, tuple(
        Polynomial(recon.genus, degree, {basis[j]: c for j, c in row.items()})
        for row in rows))


def from_spanning(degree, nvars, polys):
    """The piece spanned by possibly dependent polynomials, in reduced
    echelon form: one canonical basis per span."""
    if not polys:
        return GradedIdealPiece(degree, nvars, ())
    reduced, pivots = coefficient_matrix(polys, monomial_basis(nvars, degree)).rref()
    return piece_from_vectors(degree, nvars,
                                         [reduced.row(i) for i in range(len(pivots))])


Quotient = namedtuple("Quotient", "hilbert kept_indices cubic frame quotient_piece2")


def quotient_frame(eta1, eta2, g):
    """(kept, frame, frame inverse): the frame rows are the kept unit
    vectors, then the two hyperplane rows; a coordinate is dropped when
    it is a pivot of the hyperplane rows read from the right."""
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
    frame = ExactMatrix([[Fraction(int(j == i)) for j in range(g)] for i in kept]
                        + [c1, c2])
    return kept, frame, frame.inverse()


def alpha_map(recon, eta1, eta2):
    """The quotient in `Fraction` polynomials: restrict the quadrics by
    the frame inverse cut to the kept coordinates, invert them in degree
    3, lift the solutions back by the transpose, pair the lifts with the
    scaled degree-3 piece, and sum the kernel combination with its lift
    scales.  Raises `AlphaCertificateError` like `pipeline.alpha_map`."""
    g = recon.genus
    kept, frame, substitution = quotient_frame(eta1, eta2, g)
    n = g - 2
    restriction = ExactMatrix([row[:n] for row in substitution.rows()])
    quadrics = [p for p in substitute(recon_piece(recon, 2).basis, restriction)
                if not p.is_zero()]
    piece2 = from_spanning(2, n, quadrics)
    solutions = inverse_system([GradedIdealPiece(2, n, tuple(quadrics))], 3)
    lift_scales, weighted = [], []
    for lift in substitute(solutions, restriction.transpose()):
        scale, terms = lift.integer_terms()
        lift_scales.append(scale)
        weighted.append({exp: c * prod(map(factorial, exp)) for exp, c in terms.items()})
    conditions = []
    for element in recon_piece(recon, 3).basis:
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
    terms = {}
    for w, (_, form_terms) in zip(weights, scaled):
        if w:
            for exp, x in form_terms.items():
                terms[exp] = terms.get(exp, 0) + w * x
    cubic = normalized(Polynomial(n, 3, terms))
    return Quotient(hilbert, kept, cubic, frame, piece2)


def integer_multiple(rows):
    """The rational matrix times the lcm of its entries' denominators."""
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def pencil(quadrics, r):
    """`waring.simultaneous_diagonalize` on `Polynomial` quadrics: the
    first invertible member B of the pencil is found by one rref of
    [B | A | C ...] per candidate, M is B^-1 A scaled by
    `integer_multiple`, and phi = B adj(t - M) r."""
    if len(quadrics) < 2 or {(q.nvars, q.degree) for q in quadrics} != {(quadrics[0].nvars, 2)}:
        raise ValueError("need at least two quadrics in one variable set")
    n = quadrics[0].nvars
    a, b, *others = (catalecticant(q, 1).rows() for q in quadrics)
    members = ([[x + j * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
               for j in range(1, 6))
    for base, other in chain([(b, a), (a, b)], ((m, a) for m in members)):
        reduced, pivots = ExactMatrix([list(chain(*rows)) for rows
                                       in zip(base, other, *others)]).rref()
        if pivots[:n] == tuple(range(n)):
            break
    else:
        raise PencilError("singular", "no invertible member of the pencil found")
    blocks = [integer_multiple([row[k * n:(k + 1) * n] for row in reduced.rows()])
              for k in range(1, 2 + len(others))]
    m = blocks[0]
    for block in blocks[1:]:
        if _matmul(m, block) != _matmul(block, m):
            raise PencilError("non-commuting", "the pencil matrices do not commute")
    chi = [0] * n + [1]
    adjugate = []
    product = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = [[x + chi[n - k + 1] * (i == j) for j, x in enumerate(row)]
              for i, row in enumerate(product)]
        adjugate.append(mk)
        product = _matmul(m, mk)
        chi[n - k] = -sum(product[i][i] for i in range(n)) // k
    if not is_squarefree(chi):
        raise PencilError("non-simple", "the characteristic polynomial has a repeated root")
    columns = [[sum(x * y for x, y in zip(row, r)) for row in mk]
               for mk in reversed(adjugate)]
    phi = _matmul(integer_multiple(base), list(zip(*columns)))
    if len(reduce(poly_gcd, phi, chi)) != 1:
        raise PencilError("non-simple", "the point vanishes at a root")
    content = gcd(*chain(*phi))
    return chi, [[x // content for x in f] for f in phi]


def fermat_detect_detail(form, seed=0):
    """`waring.fermat_detect_detail` through `pencil`, with the quadrics
    of `contract` and the exact rank of the degree-1 catalecticant."""
    n = form.nvars
    if len(catalecticant(form, 1).rref()[1]) < n:
        return None, "rank-deficient"
    rng = make_rng(seed)
    kind = "singular"
    for _ in range(5):
        quadrics = [contract(random_dual_linear(n, rng), form) for _ in range(3)]
        r = [rng.randint(-9, 9) for _ in range(n)]
        try:
            chi, phi = pencil(quadrics, r)
        except PencilError as err:
            if err.kind == "non-commuting":
                return None, "fit-failed"
            kind = err.kind
            continue
        try:
            echelon_certificate(chi, phi, form)
        except CertificateError:
            return None, "fit-failed"
        return Decomposition(n, tuple(chi), tuple(tuple(f) for f in phi)), "ok"
    return None, f"{kind}-pencil"


def hilbert_vector(form):
    """The apolar profile from the exact rank (one rref) of every catalecticant."""
    d = form.degree
    return ApolarAlgebraProfile(d, tuple(len(catalecticant(form, k).rref()[1])
                                         for k in range(d + 1)))


def annihilator_piece(form, k):
    """The degree-k annihilator piece off `ExactMatrix.kernel`, the monomial
    basis in degree d + 1."""
    n, d = form.nvars, form.degree
    if k == d + 1:
        return piece_from_vectors(
            k, n, ExactMatrix.identity(comb(n + k - 1, k)).rows())
    return piece_from_vectors(k, n, catalecticant(form, k).kernel().rows())


def echelon_certificate(determinant, phi, cubic):
    """Exact power-sum certificate in A = Q[t]/(D); returns L = deg D.

    (a) D is squarefree, so the scheme of phi is L distinct points (some
    possibly equal or zero, which only shortens the sum).  (c) The cubic
    F lies in the span of their cubes, by the apolarity lemma for reduced
    schemes (Iarrobino-Kanev 1999, Lemma 1.15): one echelon of the
    L x C(n + 2, 3) matrix whose column x^e holds sigma_e (x^e(phi) mod D),
    against which the target (sigma_e e! F_e) is reduced.
    CertificateError names the failed check."""
    length = len(determinant) - 1
    if length < 1 or not is_squarefree(determinant):
        raise CertificateError(
            f"(a) the scheme equation is not squarefree of degree {length}")
    n = len(phi)

    def residue(f, sigma):
        m, r = _pseudo_remainder(f, determinant)
        r += [0] * (length - len(r))
        content = gcd(*r) or 1
        return [x // content for x in r], sigma * Fraction(m, content)

    linear = [residue(f, Fraction(1)) for f in phi]
    quadratic = {}
    for i in range(n):
        for j in range(i, n):
            (ri, si), (rj, sj) = linear[i], linear[j]
            quadratic[i, j] = residue(_mul(ri, rj), si * sj)
    terms = cubic.integer_terms()[1]
    columns, target = [], []
    for exp in monomial_basis(n, 3):
        i, j, k = (v for v, e in enumerate(exp) for _ in range(e))
        (ri, si), (rq, sq) = linear[i], quadratic[j, k]
        column, sigma = residue(_mul(ri, rq), si * sq)
        columns.append(column)
        target.append(sigma * terms.get(exp, 0) * prod(map(factorial, exp)))
    ech, pivots = _int_echelon([list(row) for row in zip(*columns)], len(columns))
    if any(_int_reduce(ech, pivots, _row_to_int(target))):
        raise CertificateError("(c) the cubic is not in the span of the scheme's cubes")
    return length


def chart(form, k):
    """The binary form sum_j c_j s^(d - j) t^j on the chart s = 1 + k t:
    its d + 1 integer coefficients in t, lowest first (Horner's rule)."""
    out = []
    for c in form:
        out = _mul(out, [1, k])
        out[-1] += c
    return out


def _charted_scheme(scroll, etas, fibers, determinant, kept):
    """(D, phi) on the chart s = 1 + k t of the first k >= 0 where
    D(k, 1) != 0, so every point of the scheme is affine: D, and the kept
    coordinates of the first fiber that vanishes at no root of D,
    embedded.  CertificateError names check (a) when D vanishes, and (b)
    when every fiber vanishes at a root of D or a hyperplane does not
    vanish on the image modulo D."""
    if not any(determinant):
        raise CertificateError("(a) the scheme equation vanishes identically")
    k = next(k for k in range(len(determinant))
             if reduce(lambda value, c: value * k + c, determinant, 0))
    determinant = chart(determinant, k)
    for fiber in fibers:
        if len(reduce(poly_gcd, (chart(f, k) for f in fiber), determinant)) == 1:
            break
    else:
        raise CertificateError("(b) degenerate fiber at a root of the scheme equation")
    image = [chart(form, k) for form in _embed(scroll, fiber)]
    for eta in etas:
        if any(_pseudo_remainder(_combine(zip(eta, image)), determinant)[1]):
            raise CertificateError("(b) a hyperplane misses the scheme")
    return determinant, [image[i] for i in kept]


def trigonal_scheme(curve, eta1, eta2, kept):
    """The scheme the two hyperplanes cut on a trigonal curve's scroll,
    over Q, as (D, phi): `pipeline._section` gives D and the fiber
    (a1, -a0), or (b1, -b0) when that one vanishes at a root of D, moved
    to a chart by `_charted_scheme`."""
    etas = _hyperplane_rows(eta1, eta2)
    fibers, determinant = _section(curve.scroll, etas)
    return _charted_scheme(curve.scroll, etas, fibers, determinant, kept)


def scheme_certify_fermat(curve, alpha, failures):
    """`pipeline._certify_fermat` by the span check in Q[t]/(D) on
    `trigonal_scheme`, then conciseness.  Reads the cubic, not the
    functional."""
    try:
        n = echelon_certificate(*trigonal_scheme(curve, alpha.eta1, alpha.eta2,
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


def surface_scheme(curve, surface_index, eta1, eta2, kept):
    """The scheme the two hyperplanes cut on surface Y of a tetragonal
    curve, equation `surface_index`, over Q, as (D, phi): D is Y's binary
    form on the fiber of `pipeline._section`, moved with the fiber and
    its embedding to the chart s = 1 + k t of the first k >= 0 where
    D(k, 1) != 0; phi is the kept coordinates.  CertificateError names
    check (a) when D vanishes, and (b) when the fiber vanishes at a root
    of D or a hyperplane does not vanish on the image modulo D."""
    if surface_index not in (0, 1):
        raise ValueError("surface_index must pick one of the two surfaces")
    etas = _hyperplane_rows(eta1, eta2)
    [fiber], _ = _section(curve.scroll, etas)
    return _charted_scheme(curve.scroll, etas, [fiber],
                           _surface_form(curve.equations[surface_index], fiber), kept)


def scheme_certify_bound(curve, alpha, failures):
    """`pipeline._certify_bound` by the span check in Q[t]/(D): the cubic
    is a sum of the cubes of the points of `surface_scheme` on one of the
    two surfaces, larger b first.  Reads the cubic, not the functional."""
    g = curve.genus
    bound = tetragonal_cube_bound(g)
    lower_bound = rank_lower_bound(alpha.cubic)
    bs = [-cls.f for cls in curve.classes]
    for surface_index in sorted((0, 1), key=lambda i: -bs[i]):
        b = bs[surface_index]
        try:
            length = echelon_certificate(*surface_scheme(curve, surface_index, alpha.eta1,
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


def restriction_matrix(eta1, eta2, g):
    """(kept, delta, R): the kept coordinates of `quotient_frame`, delta
    the minor of the primitive hyperplane rows at the dropped pair, and
    the g x n integer restriction R, delta times the first n columns of
    the frame's inverse, which sends y to delta times the point of both
    hyperplanes with kept coordinates y."""
    kept, _, inverse = quotient_frame(eta1, eta2, g)
    a, b = sorted(set(range(g)) - set(kept))
    c1, c2 = _hyperplane_rows(eta1, eta2)
    delta = c1[a] * c2[b] - c1[b] * c2[a]
    rows = [[delta * x for x in row[:g - 2]] for row in inverse.rows()]
    assert all(x.denominator == 1 for row in rows for x in row)
    return kept, delta, [[int(x) for x in row] for row in rows]


def restricted_quadrics(recon, eta1, eta2):
    """(kept, restriction, quadrics) as `pipeline.alpha_map` computed them
    before it read the quadrics on the embedded fiber: the kept
    coordinates, R of `restriction_matrix`, and the quadric rows of `recon`
    restricted to n variables, x -> R y, the zero ones dropped."""
    g = recon.genus
    kept, _, restriction = restriction_matrix(eta1, eta2, g)
    basis2 = monomial_basis(g, 2)
    quadrics = [q for q in _int_substitute([{basis2[j]: c for j, c in row.items()}
                                            for row in recon.degree2], restriction, g - 2) if q]
    return kept, restriction, quadrics


def h2(recon, eta1, eta2):
    """The quotient's h2: C(n + 1, 2) minus the rank of the restricted
    quadrics, the rank `pipeline.alpha_map` took before it read h2 off
    the section's checks."""
    columns2 = monomial_basis(recon.genus - 2, 2)
    quadrics = restricted_quadrics(recon, eta1, eta2)[2]
    return len(columns2) - _int_rank([[q.get(m, 0) for m in columns2] for q in quadrics],
                                     len(columns2))


def general_quadrics(recon, eta1, eta2):
    """`restricted_quadrics` of a pair with h2 = n; `AlphaCertificateError`
    with the diagnostic vector (1, n, h2) otherwise."""
    n = recon.genus - 2
    found = h2(recon, eta1, eta2)
    if found != n:
        raise AlphaCertificateError(
            (1, n, found), "quotient algebra does not have the expected Hilbert vector")
    return restricted_quadrics(recon, eta1, eta2)


def restricted_section_forms(recon, eta1, eta2):
    """`pipeline._section_forms` as it ran on `restricted_quadrics`, before
    it read J2 on the embedded fiber: each restricted quadric read on phi
    by `powers`, reduced against the relations times every monomial of
    degree 2m, and on a threefold every image, zero or not, ranked modulo
    a prime.  Returns (phi, forms), or raises `AlphaCertificateError`."""
    kept, _, quadrics = restricted_quadrics(recon, eta1, eta2)
    n = len(kept)
    fibers, determinant = _section(recon.scroll, _hyperplane_rows(eta1, eta2))
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
        products = powers(phi, 2)
        images = [_combine((c, products[exp]) for exp, c in q.items()) for q in quadrics]
        ech, pivots = _int_echelon(_multiples(relations, 2 * m), 2 * m + 1)
        if (any(any(_int_reduce(ech, pivots, q)) for q in images)
                or threefold and _rank_mod_prime(images, 2 * m + 1) < n - 1):
            failed.append("(ii) J2 and the section's quadrics differ")
            continue
        return phi, relations if threefold else relations + forms
    raise AlphaCertificateError((1, n), "degenerate section: " + "; ".join(failed))


def powers(phi, top):
    """phi^e for every exponent e of degree at most `top`, each product
    one lower product times phi at its first variable."""
    n = len(phi)
    products = {(0,) * n: [1]}
    for degree in range(1, top + 1):
        for exp in monomial_basis(n, degree):
            i = next(i for i, e in enumerate(exp) if e)
            products[exp] = _mul(products[exp[:i] + (exp[i] - 1,) + exp[i + 1:]], phi[i])
    return products


def product_cubic_of(functional, phi):
    """The nonzero terms of F_lambda, (6 / e!) lambda(phi^e), as integers,
    with every product phi^e of degree 3 built: `pipeline._cubic_of` as it
    ran before the Hankel contraction."""
    products = powers(phi, 3)
    terms = {exp: 6 // prod(map(factorial, exp))
             * sum(x * y for x, y in zip(functional, products[exp]))
             for exp in monomial_basis(len(phi), 3)}
    return {exp: c for exp, c in terms.items() if c}


def section_inverse_system(scroll, etas, kept, quadrics):
    """The degree-3 inverse system V of the restricted quadrics J2, given
    h2 = n, read off what the two hyperplanes cut on the scroll, as
    `pipeline.alpha_map` read it before the Sylvester system: (i) as in
    `pipeline._section_forms`; (ii) on a threefold the relations, the
    echelon rows of the images q(phi), are n - 1, and on a surface every
    image is a multiple of D, the one relation.  V is then the F_lambda
    whose lambda kills every relation times every monomial carrying it
    to degree 3m, one kernel over 3m + 1 columns with n(n - 1) rows on a
    threefold.  Returns the fiber and V's basis functionals, each as its
    3m + 1 values lambda(s^(3m - k) t^k)."""
    n = len(kept)
    fibers, determinant = _section(scroll, etas)
    threefold = determinant is None
    m = n - 1 if threefold else n
    failed = []
    for fiber in fibers:
        image = _embed(scroll, fiber)
        phi = [image[i] for i in kept]
        if _int_rank(phi if threefold else phi + [determinant], m + 1) <= m:
            failed.append("(i) the section's coordinates are dependent")
            continue
        products = powers(phi, 2)
        images = [_combine((c, products[exp]) for exp, c in q.items()) for q in quadrics]
        if threefold:
            relations = _int_echelon(images, 2 * m + 1)[0]
            passed = len(relations) == n - 1
        else:
            relations = [determinant]
            low = next(j for j, c in enumerate(determinant) if c)
            multiples = [[0] * a + determinant + [0] * (n - a) for a in range(n + 1)]
            pivots = range(low, low + n + 1)
            passed = not any(any(_int_reduce(multiples, pivots, q)) for q in images)
        if not passed:
            failed.append("(ii) J2 and the section's quadrics differ")
            continue
        width = 3 * m + 1
        conditions = [[0] * a + h + [0] * (width - len(h) - a)
                      for h in relations for a in range(width - len(h) + 1)]
        return fiber, [[lam.get(j, 0) for j in range(width)]
                       for lam in _kernel_vectors(conditions, width)]
    raise AlphaCertificateError((1, n), "degenerate section: " + "; ".join(failed))


SectionQuotient = namedtuple("SectionQuotient",
                             "genus eta1 eta2 hilbert kept_indices functional cubic")


def class_pairing_alpha_map(recon, eta1, eta2):
    """`pipeline.alpha_map` as it ran before the Sylvester system: V's
    basis from `section_inverse_system`, then every cubic row of `recon`
    paired with V's functionals class by class on the embedded fiber
    (the embedded fiber is R phi / delta, exactly on a threefold and
    modulo D on a surface, so a row pairs as 6 delta^3 lambda_k(P(fiber))).
    A row is summed per `curvegen._restriction_classes` class (F, (S, T))
    first, each class read as lambda_k(s^S t^T fiber^F), and only rows
    with a nonzero class sum are paired; the kernel of those rows has
    dimension h3, and its one vector weighs the basis functionals into
    lambda.  Returns a `SectionQuotient`, whose cubic is built by
    `product_cubic_of`; raises `AlphaCertificateError` like
    `pipeline.alpha_map`."""
    g = recon.genus
    n = g - 2
    kept, _, quadrics = general_quadrics(recon, eta1, eta2)
    fiber, functionals = section_inverse_system(
        recon.scroll, _hyperplane_rows(eta1, eta2), kept, quadrics)
    products = {exp: reduce(_mul, [fiber[i] for i, e in enumerate(exp) for _ in range(e)])
                for exp in monomial_basis(recon.scroll.k, 3)}
    classes = _restriction_classes(recon.scroll, 3)
    values = {(exp, (s, t)): [sum(x * y for x, y in zip(products[exp], lam[t:]))
                              for lam in functionals]
              for exp, (s, t) in set(classes)}
    conditions = []
    for row in recon.degree3:
        sums = {}
        for j, c in row.items():
            sums[classes[j]] = sums.get(classes[j], 0) + c
        if any(sums.values()):
            conditions.append(_combine((c, values[key]) for key, c in sums.items() if c))
    combos = _kernel_vectors(conditions, len(functionals))
    hilbert = (1, n, n, len(combos))
    if len(combos) != 1:
        raise AlphaCertificateError(
            hilbert, "quotient algebra does not have the expected Hilbert vector")
    functional = _combine((c, functionals[i]) for i, c in combos[0].items())
    image = _embed(recon.scroll, fiber)
    cubic = normalized(Polynomial(n, 3, product_cubic_of(functional, [image[i] for i in kept])))
    return SectionQuotient(g, eta1, eta2, hilbert, kept, tuple(functional), cubic)


def admissible_splits(g):
    """The splits b1 <= b2 of g - 5 whose surfaces `tetragonal_surfaces` accepts."""
    scroll = Scroll(balanced_type(g - 3, 3))
    for b1 in range((g - 5) // 2 + 1):
        try:
            tetragonal_surfaces(scroll, b1, g - 5 - b1)
        except ValueError:
            continue
        yield b1, g - 5 - b1


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def coef_from_str(raw):
    """A JSON coefficient, a JSON integer or an ASCII string "p" or "p/q",
    parsed by `Fraction`."""
    if not (isinstance(raw, str) and _RATIONAL.fullmatch(raw)
            or isinstance(raw, int) and not isinstance(raw, bool)):
        raise ValueError(f"coefficients must be integers or strings p or p/q, got {raw!r}")
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise ValueError(f"{raw!r} has a zero denominator") from None


def polynomial_from_json(data):
    """A polynomial JSON read term by term, each exponent through `_int`."""
    terms = {}
    for t in data["terms"]:
        exp = tuple(jsonio._int(e) for e in t["exp"])
        if exp in terms:
            raise ValueError(f"exponent {list(exp)} is listed twice")
        terms[exp] = coef_from_str(t["coef"])
    return Polynomial(jsonio._int(data["nvars"]), jsonio._int(data["degree"]), terms)
