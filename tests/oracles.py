"""Float oracles for the tests, independent of the package's arithmetic.

`oracle_points` evaluates a scheme (D, phi), given as integer
coefficient lists lowest degree first, at sympy's numerical roots of D;
`oracle_fit` fits a cubic by least squares to the cubes of those points
in mpmath.
"""

from collections import namedtuple
from math import factorial, prod

import sympy
from mpmath import mp

from apolar_kit.core import monomial_basis

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
