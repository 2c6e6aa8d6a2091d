"""Univariate and binary-form root extraction.

Rational roots are found exactly (factorization over Q) and divided out;
whatever remains goes to the arbitrary-precision solver.  Every floating
root is certified by a relative backward-error residual, and clusters of
nearby roots are flagged because downstream consumers require reduced
(multiplicity-free) point sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import sympy
from mpmath import mp

from .core import Polynomial
from .numerics import DEFAULT_PRECISION_BITS, to_mp, workprec

__all__ = ["RootExtraction", "rational_roots", "certified_roots",
           "affine_chart", "binary_form_roots", "RootFindingError"]


class RootFindingError(RuntimeError):
    pass


_T = sympy.Symbol("_t")


def rational_roots(coeffs: Sequence[Fraction]) -> dict[Fraction, int]:
    """Exact rational roots (with multiplicity) of sum_i coeffs[i] t^i."""
    cleaned = [Fraction(c) for c in coeffs]
    while cleaned and cleaned[-1] == 0:
        cleaned.pop()
    if not cleaned:
        raise ValueError("the zero polynomial has no meaningful root set")
    if len(cleaned) == 1:
        return {}
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(cleaned)], _T, domain="QQ")
    out = {}
    for root, mult in poly.ground_roots().items():
        r = sympy.Rational(root)
        out[Fraction(int(r.p), int(r.q))] = int(mult)
    return out


def _deflate(coeffs: list[Fraction], root: Fraction) -> list[Fraction]:
    """Exact synthetic division by (t - root); remainder must vanish."""
    n = len(coeffs) - 1
    quotient = [Fraction(0)] * n
    carry = coeffs[n]
    for k in range(n - 1, -1, -1):
        quotient[k] = carry
        carry = coeffs[k] + root * carry
    if carry != 0:
        raise ArithmeticError("deflation by a non-root")
    return quotient


@dataclass
class RootExtraction:
    """All roots of a univariate polynomial with certification data."""

    roots: list = field(default_factory=list)   # Fraction | mpf | mpc
    rational_count: int = 0
    degree: int = 0
    max_residual: object = Fraction(0)
    clustered: bool = False

    @property
    def count(self) -> int:
        return len(self.roots)


def certified_roots(coeffs: Sequence[Fraction],
                    precision_bits: int = DEFAULT_PRECISION_BITS,
                    tolerance: Fraction = Fraction(1, 10**10)) -> RootExtraction:
    """Roots of sum_i coeffs[i] t^i, rational ones exact, the rest mp floats.

    The residual reported for a floating root r is |p(r)| / sum_i |c_i r^i|
    (relative backward error); RootFindingError is raised if any root
    fails its residual check.
    """
    cleaned = [Fraction(c) for c in coeffs]
    while cleaned and cleaned[-1] == 0:
        cleaned.pop()
    if len(cleaned) <= 1:
        raise ValueError("constant or zero polynomial")
    result = RootExtraction(degree=len(cleaned) - 1)
    for root, mult in sorted(rational_roots(cleaned).items()):
        result.roots.extend([root] * mult)
        result.rational_count += mult
        if mult > 1:
            result.clustered = True
        for _ in range(mult):
            cleaned = _deflate(cleaned, root)
    remaining_degree = len(cleaned) - 1
    if remaining_degree == 0:
        return result
    with workprec(precision_bits):
        mp_coeffs = [to_mp(c) for c in reversed(cleaned)]
        try:
            found = mp.polyroots(mp_coeffs, maxsteps=200, extraprec=precision_bits)
        except mp.NoConvergence as exc:
            raise RootFindingError("root finder did not converge") from exc
        cluster_eps = mp.mpf(2) ** (-(precision_bits // 3))
        max_res = mp.mpf(0)
        converted = [to_mp(c) for c in cleaned]
        for r in found:
            value = mp.mpf(0)
            scale = mp.mpf(0)
            power = mp.mpf(1)
            for c in converted:
                value += c * power
                scale += abs(c) * abs(power)
                power *= r
            res = abs(value) / scale if scale else abs(value)
            max_res = max(max_res, res)
            if res > to_mp(tolerance):
                raise RootFindingError(
                    f"residual {mp.nstr(res, 5)} above tolerance for root {r}")
        for i in range(len(found)):
            for j in range(i + 1, len(found)):
                if abs(found[i] - found[j]) < cluster_eps * max(1, abs(found[i])):
                    result.clustered = True
            for q in result.roots[:result.rational_count]:
                if abs(found[i] - to_mp(q)) < cluster_eps * max(1, abs(found[i])):
                    result.clustered = True
        result.roots.extend(sorted(found, key=lambda z: (mp.re(z), mp.im(z))))
        result.max_residual = max_res
    return result


def affine_chart(coeffs: Sequence) -> tuple[list, list[tuple]]:
    """Split sum_j c_j s^(d-j) t^j at the point at infinity.

    Strips the trailing zero coefficients, each a factor s of the form,
    and returns (the affine coefficients, [(0, 1)] when any were stripped,
    else []).
    """
    affine = list(coeffs)
    while affine and affine[-1] == 0:
        affine.pop()
    at_infinity = [(Fraction(0), Fraction(1))] if len(affine) < len(coeffs) else []
    return affine, at_infinity


def binary_form_roots(form: Polynomial,
                      precision_bits: int = DEFAULT_PRECISION_BITS,
                      tolerance: Fraction = Fraction(1, 10**10)) -> tuple[list, RootExtraction]:
    """Projective roots (s : t) of a nonzero binary form.

    Returns pairs (s, t): exact roots as Fraction pairs (1, t0) or (0, 1),
    floating roots as (1, mp scalar).  The extraction metadata covers the
    affine part; a vanishing leading coefficient contributes the point at
    infinity with the corresponding multiplicity.
    """
    if form.nvars != 2:
        raise ValueError("binary forms only")
    if form.is_zero():
        raise ValueError("zero form")
    d = form.degree
    # form = sum_j c_j s^(d-j) t^j; affine chart s = 1
    coeffs = [form.coefficient((d - j, j)) for j in range(d + 1)]
    affine, pairs = affine_chart(coeffs)
    if len(affine) > 1:
        extraction = certified_roots(affine, precision_bits, tolerance)
    else:
        extraction = RootExtraction(degree=0)
    if len(coeffs) - len(affine) > 1:
        extraction.clustered = True
    for r in extraction.roots:
        if isinstance(r, Fraction):
            pairs.append((Fraction(1), r))
        else:
            pairs.append((1, r))
    return pairs, extraction
