"""Reference computations for the tests.

`oracle_points` evaluates a scheme (D, phi), given as integer
coefficient lists lowest degree first, at sympy's numerical roots of D;
`oracle_fit` fits a cubic by least squares to the cubes of those points
in mpmath.  Both are independent of the package's arithmetic.

The curve layer runs its fiber work on integer images of the equations;
the references here are the rational `Polynomial` computations it
replaced.  `fiber_form` restricts a section to a fiber, `conic_pencil`
forms the Bezout combinations of two fiber conics, `binary_roots` lists
the rational roots of a binary form, and `quadratic_fiber_points` is the
quadratic-formula solver for the common points of two conics that the
closed form of `curvegen._tetragonal_fiber_points` replaced.
`small_rationals` is the stream of `seeding.small_rationals` as it was
written before its bands were built once.
"""

from collections import namedtuple
from fractions import Fraction
from math import factorial, isqrt, prod

import sympy
from mpmath import mp

from apolar_kit.core import Polynomial, _row_to_int, monomial_basis
from apolar_kit.univariate import affine_chart, rational_roots

_T = sympy.Symbol("t")

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
                      {exp: form.evaluate(base) for exp, form in section.coeffs.items()})


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
    a1, b1, c1 = conic_components(q1)
    a2, b2, c2 = conic_components(q2)
    s1 = c2 * a1 - c1 * a2
    s2 = b2 * a1 - b1 * a2
    s3 = b1 * c2 - b2 * c1
    return s1, s2, s1 * s1 - s2 * s3


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
            beta, gamma = b.evaluate((ui, vi)), c.evaluate((ui, vi))
            if alpha != 0:
                root = _fraction_sqrt(beta * beta - 4 * alpha * gamma)
                if root is not None:
                    candidates.update({(-beta + root) / (2 * alpha),
                                       (-beta - root) / (2 * alpha)})
            elif beta != 0:
                candidates.add(-gamma / beta)
        for y2 in candidates:
            fiber = (Fraction(ui), Fraction(vi), y2)
            if q1.evaluate(fiber) == 0 and q2.evaluate(fiber) == 0:
                points.append(fiber)
    return points
