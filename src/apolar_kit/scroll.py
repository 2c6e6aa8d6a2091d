"""Rational normal scrolls and their divisor arithmetic.

A scroll of type (a_1, ..., a_k) is the image in P^N, N = sum a_i + k - 1,
of the projectivized sum of line bundles of those degrees over the line.
Divisor classes are integer combinations aH + bF of the hyperplane class
and the ruling; products of k classes reduce through

    H^k = N - k + 1,    H^(k-1) F = 1,    F^2 = 0,

and the canonical class is -kH + (N - k - 1)F.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import _monomial_value, _row_to_int, monomial_basis

__all__ = [
    "Scroll",
    "DivisorClass",
    "ScrollPoint",
    "chow_product",
    "canonical_class",
    "divisor_degree",
    "section_templates",
    "section_count",
    "embed_point",
    "project_type",
    "coordinate_layout",
]


@dataclass(frozen=True)
class Scroll:
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

    @property
    def smooth(self) -> bool:
        return all(a > 0 for a in self.type)

    def cls(self, h: int, f: int) -> "DivisorClass":
        return DivisorClass(h, f, self)

    @property
    def H(self) -> "DivisorClass":
        return self.cls(1, 0)

    @property
    def F(self) -> "DivisorClass":
        return self.cls(0, 1)


@dataclass(frozen=True)
class DivisorClass:
    h: int
    f: int
    scroll: Scroll

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(self.h + other.h, self.f + other.f, self.scroll)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(self.h - other.h, self.f - other.f, self.scroll)

    def __rmul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(scalar * self.h, scalar * self.f, self.scroll)

    def _check(self, other: "DivisorClass") -> None:
        if other.scroll != self.scroll:
            raise ValueError("divisor classes live on different scrolls")

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


@dataclass(frozen=True)
class ScrollPoint:
    scroll: Scroll
    base: tuple
    fiber: tuple
    image: tuple


def embed_point(scroll: Scroll, base: Sequence, fiber: Sequence) -> ScrollPoint:
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
