"""Rational normal scrolls and their divisor arithmetic.

A scroll of type (a_1, ..., a_k) is the image in P^N, N = sum a_i + k - 1,
of the projectivized sum of line bundles of those degrees over the line.
Divisor classes are integer combinations aH + bF of the hyperplane class
and the ruling; products of k classes reduce through

    H^k = N - k + 1,    H^(k-1) F = 1,    F^2 = 0,

and the canonical class is -kH + (N - k - 1)F.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .core import Record, monomial_basis

__all__ = [
    "Scroll",
    "DivisorClass",
    "chow_product",
    "canonical_class",
    "divisor_degree",
    "section_templates",
    "section_count",
    "embedded_point",
    "project_type",
    "coordinate_layout",
]


class Scroll(Record):
    type: tuple[int, ...]

    def __post_init__(self):
        if not self.type:
            raise ValueError("scroll type must be nonempty")
        if any(a < 0 for a in self.type):
            raise ValueError("scroll type entries must be >= 0")
        if all(a == 0 for a in self.type):
            raise ValueError("scroll type must not be identically zero")

    @property
    def k(self) -> int:
        return len(self.type)

    @property
    def N(self) -> int:
        return sum(self.type) + self.k - 1

    @property
    def degree(self) -> int:
        return sum(self.type)

    def cls(self, h: int, f: int) -> "DivisorClass":
        return DivisorClass(h, f, self)

    @property
    def H(self) -> "DivisorClass":
        return self.cls(1, 0)


class DivisorClass(Record):
    h: int
    f: int
    scroll: Scroll

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if other.scroll != self.scroll:
            raise ValueError("divisor classes live on different scrolls")
        return DivisorClass(self.h + other.h, self.f + other.f, self.scroll)

    def __str__(self) -> str:
        return f"{self.h}H{self.f:+d}F"


def chow_product(classes: Sequence[DivisorClass]) -> int:
    """Product of exactly k divisor classes, reduced to an integer.

    Expanding prod_i (a_i H + b_i F), every term with two or more F factors
    dies; what survives is (prod a_i) H^k plus the single-F terms.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("empty product")
    scroll = classes[0].scroll
    for c in classes:
        if c.scroll != scroll:
            raise ValueError("divisor classes live on different scrolls")
    if len(classes) != scroll.k:
        raise ValueError(
            f"need exactly {scroll.k} factors on a {scroll.k}-fold, got {len(classes)}")
    top = scroll.N - scroll.k + 1
    prod_a = 1
    for c in classes:
        prod_a *= c.h
    mixed = 0
    for i, c in enumerate(classes):
        term = c.f
        for j, other in enumerate(classes):
            if j != i:
                term *= other.h
        mixed += term
    return prod_a * top + mixed


def canonical_class(scroll: Scroll) -> DivisorClass:
    return scroll.cls(-scroll.k, scroll.N - scroll.k - 1)


def divisor_degree(scroll: Scroll, cls: DivisorClass) -> int:
    """Degree of a divisor class: its product with k - 1 hyperplanes."""
    return chow_product([cls] + [scroll.H] * (scroll.k - 1))


def section_templates(scroll: Scroll, cls: DivisorClass) -> list[tuple[tuple[int, ...], int]]:
    """Shape of the space of sections of O(cH + mF).

    For each fiber monomial y^e of degree c the base coefficient is a
    binary form of degree e . a + m; entries with negative base degree
    carry no sections and are omitted.  The total section count is the
    sum of (base degree + 1) over the returned pairs.
    """
    if cls.scroll != scroll:
        raise ValueError("class lives on a different scroll")
    if cls.h < 0:
        raise ValueError("need a nonnegative H-coefficient")
    out = []
    for exp in monomial_basis(scroll.k, cls.h):
        base_degree = sum(e * a for e, a in zip(exp, scroll.type)) + cls.f
        if base_degree >= 0:
            out.append((exp, base_degree))
    return out


def section_count(scroll: Scroll, cls: DivisorClass) -> int:
    return sum(d + 1 for _, d in section_templates(scroll, cls))


def coordinate_layout(scroll: Scroll) -> list[tuple[int, int]]:
    """Order of the ambient coordinates: blocks by fiber index, then
    descending power of the first base variable."""
    return [(i, j) for i, a in enumerate(scroll.type) for j in range(a + 1)]


def embedded_point(scroll: Scroll, base: tuple[int, int], fiber: Sequence[int]) -> tuple[int, ...]:
    """Image of an integer (base, fiber) pair under the tautological
    embedding, as a primitive integer point with a positive leading entry.

    Coordinates are the monomials s^(a_i - j) t^j y_i in the fixed layout
    (`coordinate_layout`), divided by their gcd and by the sign of the
    first nonzero one.  A fiber of the wrong arity, or a zero base or
    fiber, is a ValueError.
    """
    if len(fiber) != len(scroll.type):
        raise ValueError("fiber point arity must match the scroll dimension")
    s, t = base
    image = [y * s ** (a - j) * t ** j for y, a in zip(fiber, scroll.type) for j in range(a + 1)]
    common = gcd(*image)
    if not common:
        raise ValueError("zero base or fiber vector")
    for v in image:
        if v:
            if v < 0:
                common = -common
            break
    return tuple(image) if common == 1 else tuple([v // common for v in image])


def project_type(scroll: Scroll, index: int) -> Scroll:
    """Type after projecting from a point on the index-th directrix curve.

    The entry drops by one; an entry reaching -1 is removed.
    """
    if not 0 <= index < scroll.k:
        raise ValueError("invalid directrix index")
    entries = list(scroll.type)
    entries[index] -= 1
    if entries[index] < 0:
        entries.pop(index)
    return Scroll(tuple(entries))
