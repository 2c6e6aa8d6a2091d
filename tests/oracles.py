"""Reference computations for the tests.

`oracle_points` evaluates a scheme (D, phi), given as integer
coefficient lists lowest degree first, at sympy's numerical roots of D;
`oracle_fit` fits a cubic by least squares to the cubes of those points
in mpmath.  Both are independent of the package's arithmetic.
`quadratic_fiber_points` is the quadratic-formula solver for the common
points of two fiber conics that the closed form of
`curvegen._tetragonal_fiber_points` replaced.
"""

from collections import namedtuple
from fractions import Fraction
from math import factorial, isqrt, prod

import sympy
from mpmath import mp

from apolar_kit.core import _row_to_int, monomial_basis
from apolar_kit.curvegen import (_conic_components, _conic_pair_resultant,
                                 _rational_binary_roots)

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
    res = _conic_pair_resultant(q1, q2)
    if res.is_zero():
        return []
    points = []
    for u, v in _rational_binary_roots(res.coefficient_vector()):
        ui, vi = _row_to_int((u, v))
        candidates = set()
        for conic in (q1, q2):
            alpha, b, c = _conic_components(conic)
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
