"""Bridge between exact rationals and high-precision floating point.

mpmath enters the package only through this module, the eigenvalue and
least-squares steps of `waring` and the floating power-sum checks of
`apolarity`; every answer they give is certified by a residual.  Neither
verifier uses them: both verdicts are exact.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp

__all__ = ["to_mp", "workprec", "format_scalar", "least_squares",
           "projective_distance", "DEFAULT_PRECISION_BITS", "DEFAULT_TOLERANCE"]

DEFAULT_PRECISION_BITS = 128
DEFAULT_TOLERANCE = Fraction(1, 10**10)


def to_mp(value):
    """Convert Fraction / int / mp scalar to an mp scalar at current precision."""
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / mp.mpf(value.denominator)
    if isinstance(value, int):
        return mp.mpf(value)
    return mp.mpmathify(value)


def workprec(bits: int):
    """Context manager pinning the mpmath working precision in bits."""
    return mp.workprec(bits)


def least_squares(matrix, rhs):
    """Least-squares solution of an overdetermined mp system.

    Uses the normal equations with the conjugate transpose (mpmath's
    Householder path divides by zero on exact-zero subcolumns, which our
    highly structured matrices hit routinely).  Raises ValueError when
    the columns are numerically dependent.
    """
    ah = matrix.H
    gram = ah * matrix
    try:
        return mp.lu_solve(gram, ah * rhs)
    except ZeroDivisionError as exc:
        raise ValueError("degenerate least-squares system") from exc


def projective_distance(u, v):
    """1 - |<u, v>|^2 / (|u|^2 |v|^2) for mp vectors, at the working precision.

    Zero exactly when u and v span the same complex line; callers compare
    it against their own threshold.
    """
    dot = mp.fsum(a * mp.conj(b) for a, b in zip(u, v))
    nu = mp.fsum(abs(a) ** 2 for a in u)
    nv = mp.fsum(abs(b) ** 2 for b in v)
    return 1 - abs(dot) ** 2 / (nu * nv)


def format_scalar(value, digits: int = 30) -> str:
    """Deterministic string form for JSON reports."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if hasattr(value, "imag") and value.imag:
        re = mp.nstr(value.real, digits)
        im = mp.nstr(value.imag, digits)
        sign = "+" if not im.startswith("-") else ""
        return f"{re}{sign}{im}i"
    if hasattr(value, "imag"):
        return mp.nstr(value.real, digits)
    return mp.nstr(mp.mpmathify(value), digits)
