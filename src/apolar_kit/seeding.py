"""Deterministic pseudo-random sources.

Every randomized routine in the package takes an explicit seed or an
explicit ``random.Random`` instance; nothing reads global entropy, so a
run is reproducible bit for bit from its configuration.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Iterator

from .core import ExactMatrix, Polynomial, monomial_basis

__all__ = [
    "make_rng",
    "derive_seed",
    "small_rationals",
    "random_form",
    "random_dual_linear",
    "random_invertible_matrix",
]


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def derive_seed(seed: int, index: int) -> int:
    # fixed affine mix so per-trial streams never collide for small inputs
    return seed * 1000003 + index * 7919 + 1


_MAX_DENOMINATOR = 6


@cache
def _band(height: int) -> tuple[Fraction, ...]:
    """Band h = `height` (from 1), built once on first use: the p/q in
    lowest terms with q <= `_MAX_DENOMINATOR` and h - 1 < |p/q| <= h (0
    included in band 1), by ascending q, then p."""
    return tuple(Fraction(p, q) for q in range(1, _MAX_DENOMINATOR + 1)
                 for p in range(-height * q, height * q + 1)
                 if gcd(p, q) == 1 and (height == 1 or abs(p) > (height - 1) * q))


def small_rationals(rng: random.Random) -> Iterator[Fraction]:
    """Endless stream of distinct small-height rationals, shuffled per band.

    Band h holds the new p/q with q <= `_MAX_DENOMINATOR` and |p/q| <= h.
    Height bands grow without bound, so the stream never dries up; within
    a band the order is determined by the rng, which shuffles a fresh copy
    of the band for each stream.
    """
    height = 1
    while True:
        band = list(_band(height))
        rng.shuffle(band)
        yield from band
        height += 1


def random_form(nvars: int, degree: int, rng: random.Random, bound: int = 9) -> Polynomial:
    """Dense random form with nonzero integer coefficients in [-bound, bound]."""
    while True:
        terms = {exp: rng.randint(-bound, bound) for exp in monomial_basis(nvars, degree)}
        poly = Polynomial(nvars, degree, terms)
        if not poly.is_zero():
            return poly


def random_dual_linear(nvars: int, rng: random.Random, bound: int = 9) -> Polynomial:
    return random_form(nvars, 1, rng, bound)


def random_invertible_matrix(n: int, rng: random.Random, bound: int = 3) -> ExactMatrix:
    """Unit lower * unit upper * permutation; always has determinant +-1."""
    lower = [[1 if i == j else (rng.randint(-bound, bound) if i > j else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-bound, bound) if i < j else 0)
              for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    pmat = [[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    return ExactMatrix(lower) @ ExactMatrix(upper) @ ExactMatrix(pmat)
