"""Trigonal and tetragonal canonical curves on rational normal scrolls.

A trigonal curve of genus g is a section of the class 3H + (4-g)F on a
balanced surface scroll of degree g - 2: adjunction makes the hyperplane
series canonical and the ruling cuts the degree-3 pencil.  A tetragonal
curve is the complete intersection of sections of 2H - b1 F and
2H - b2 F, b1 + b2 = g - 5, on a balanced threefold scroll of degree
g - 3.

Exact rational points on a random curve of genus >= 2 are scarce (only
finitely many exist at all), so the generators interpolate: a few fibers
are forced to split rationally by prescribing points on them, and those
base values are recorded on the curve as sampling hints.  Every section,
forced or free, is one small-integer draw from the kernel of its point
conditions (the unit vectors when there are none).  Each section keeps
one integer image, the section times a positive scale, so fiber work
runs in Python integers: every fiber lies over an integer base point,
and sampling restricts each image to it once.  A trigonal fiber is the
rational roots of one binary cubic, and a tetragonal fiber is the base
locus of a pencil of two conics, whose common point over a rational root
of their resultant is the root of Bezout's combination a2 q1 - a1 q2,
linear in the last coordinate; the point is an integer triple, no square
root is taken, and a root where that combination vanishes identically
is a repeated root and is skipped.

The graded pieces of the ideal are built in closed form from the scroll
(Schreyer 1986; `_piece`) and handed on as sparse integer rows at the
height of the equations, certified by the sampled points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from math import comb, gcd, lcm
from typing import Optional, Sequence

from .core import (Polynomial, _combination, _int_echelon, _kernel_vectors,
                   _monomial_value, _rank_mod_prime, _row_to_int, monomial_basis,
                   primitive_point)
from .scroll import (DivisorClass, Scroll, canonical_class, chow_product,
                     coordinate_layout, embed_point, section_count,
                     section_templates)
from .seeding import derive_seed, make_rng, small_rationals
from .univariate import _combine, _mul, affine_chart, is_squarefree, poly_gcd, rational_roots

__all__ = [
    "BihomSection",
    "CurveSpec",
    "IdealReconstruction",
    "CurveGenerationError",
    "SamplingError",
    "IdealDimensionError",
    "PointCertificateError",
    "balanced_type",
    "random_section",
    "trigonal_curve",
    "tetragonal_surfaces",
    "tetragonal_curve",
    "sample_points",
    "ideal_pieces",
    "genus_adjunction",
    "expected_quadric_dim",
    "expected_cubic_dim",
]


# a random section combines its kernel basis with integer weights in
# [-9, 9], and a constructor draws at most 10 candidate curves
_SECTION_BOUND = 9
_CURVE_ATTEMPTS = 10


class CurveGenerationError(RuntimeError):
    pass


class SamplingError(RuntimeError):
    def __init__(self, found: int, requested: int, attempts: int):
        self.found = found
        self.requested = requested
        self.attempts = attempts
        super().__init__(
            f"found only {found} of {requested} rational points after "
            f"{attempts} fiber attempts")


class PointCertificateError(RuntimeError):
    """A reconstructed ideal element failed to vanish on a sampled point."""


class IdealDimensionError(RuntimeError):
    def __init__(self, got: tuple[int, int], expected: tuple[int, int]):
        self.got = got
        self.expected = expected
        super().__init__(
            f"ideal piece dimensions {got} differ from the expected {expected}; "
            "the curve or the sampling is degenerate")


def balanced_type(total: int, parts: int) -> tuple[int, ...]:
    """Most even partition of `total` into `parts` entries, ascending."""
    base, extra = divmod(total, parts)
    return tuple(base if i < parts - extra else base + 1 for i in range(parts))


def expected_quadric_dim(g: int) -> int:
    return (g - 2) * (g - 3) // 2


def expected_cubic_dim(g: int) -> int:
    return comb(g + 2, 3) - (5 * g - 5)


@dataclass(frozen=True)
class BihomSection:
    """Section of O(cH + mF): one base binary form per fiber monomial.

    `image` is the section times a positive scale, as one primitive
    integer vector, built once: a pair (fiber exponent, (c_0, ..., c_d))
    for every fiber monomial of degree c in `monomial_basis` order, c_j
    the coefficient of s^(d - j) t^j in its base form (empty when the
    monomial has none).  A positive scale moves no root, so every fiber
    computation runs on the image, in integers.
    """

    scroll: Scroll
    cls: DivisorClass
    coeffs: dict  # fiber exponent tuple -> Polynomial in (s, t)
    image: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        monomials = monomial_basis(self.scroll.k, self.cls.h)
        forms = [self.coeffs.get(exp) for exp in monomials]
        flat = iter(_row_to_int([c for form in forms if form is not None
                                 for c in form.coefficient_vector()]))
        object.__setattr__(self, "image", tuple(
            (exp, tuple(islice(flat, form.degree + 1)) if form is not None else ())
            for exp, form in zip(monomials, forms)))

    def restrict(self, base: tuple[int, int]) -> list[int]:
        """The image restricted to the fiber over an integer base point
        (s0, t0): the integer coefficients of a form of degree c on the
        fiber, in `monomial_basis` order."""
        s0, t0 = base
        top = max(len(row) for _, row in self.image)
        s_powers, t_powers = [1], [1]
        for _ in range(1, top):
            s_powers.append(s_powers[-1] * s0)
            t_powers.append(t_powers[-1] * t0)
        return [sum(c * s_powers[len(row) - 1 - j] * t_powers[j] for j, c in enumerate(row) if c)
                for _, row in self.image]


def _section_slots(scroll: Scroll, cls: DivisorClass) -> list[tuple[tuple[int, ...], tuple[int, int]]]:
    """Flat list of coefficient slots (fiber exponent, base exponent)."""
    return [(exp, (degree - j, j)) for exp, degree in section_templates(scroll, cls)
            for j in range(degree + 1)]


def _section_from_vector(scroll: Scroll, cls: DivisorClass, slots, vector) -> BihomSection:
    coeffs: dict[tuple[int, ...], dict] = {}
    for (exp, bexp), value in zip(slots, vector):
        coeffs.setdefault(exp, {})[bexp] = value
    return BihomSection(scroll, cls, {exp: Polynomial(2, degree, coeffs.get(exp, {}))
                                      for exp, degree in section_templates(scroll, cls)})


def random_section(scroll: Scroll, cls: DivisorClass, rng,
                   through: Sequence[tuple] = ()) -> BihomSection:
    """Random section vanishing at the given integer (base, fiber) pairs.

    The section is a random small-integer combination of the kernel basis
    of the point conditions, one primitive integer row per point, so
    coefficients stay rational and reproducible.  The basis is the
    canonical one (first nonzero entry 1): the integer vectors of one
    back-substitution, each divided by its lead, combined here over the
    lcm of the leads.  With no points the basis is the unit vectors, and
    the combination is the coefficient vector itself.
    """
    slots = _section_slots(scroll, cls)
    if not slots:
        raise CurveGenerationError(f"class {cls} has no sections on {scroll}")
    conditions = [_row_to_int([_monomial_value(base, bexp) * _monomial_value(fiber, exp)
                               for exp, bexp in slots]) for base, fiber in through]
    kernel = _kernel_vectors(conditions, len(slots))
    if not kernel:
        raise CurveGenerationError("point constraints admit no section")
    leads = [v[min(v)] for v in kernel]
    den = lcm(*leads)
    kernel = [{j: x * (den // lead) for j, x in v.items()} for v, lead in zip(kernel, leads)]
    for _ in range(10):
        combo = {i: rng.randint(-_SECTION_BOUND, _SECTION_BOUND) for i in range(len(kernel))}
        vector = _combination(combo, kernel)
        if vector:
            return _section_from_vector(scroll, cls, slots, [Fraction(vector.get(j, 0), den)
                                                             for j in range(len(slots))])
    raise CurveGenerationError("random section degenerated to zero")


@dataclass(frozen=True)
class CurveSpec:
    genus: int
    gonality: int
    scroll: Scroll
    classes: tuple[DivisorClass, ...]
    equations: tuple[BihomSection, ...]
    seed: int
    rational_fiber_hints: tuple[Fraction, ...] = ()

    @property
    def guaranteed_point_count(self) -> int:
        """Rational points certain to exist: every hinted fiber splits
        completely for trigonal curves and carries at least one rational
        point for tetragonal ones."""
        factor = 3 if self.gonality == 3 else 1
        return factor * len(self.rational_fiber_hints)


@dataclass(frozen=True)
class IdealReconstruction:
    """The degree-2 and degree-3 pieces of a curve ideal, each a basis of
    sparse primitive integer rows (`_piece`): index into
    `monomial_basis(genus, degree)` -> coefficient."""

    genus: int
    degree2: tuple[dict[int, int], ...]
    degree3: tuple[dict[int, int], ...]
    point_count: int


def genus_adjunction(scroll: Scroll, cls: DivisorClass) -> int:
    """Genus of a curve class on a surface scroll, by adjunction."""
    if scroll.k != 2:
        raise ValueError("adjunction here needs a surface scroll; blow-up "
                         "contexts go through planemodel.blowup_genus")
    twice = chow_product([cls, cls + canonical_class(scroll)])
    if twice % 2:
        raise ValueError(f"class {cls} has odd adjunction pairing {twice}")
    return twice // 2 + 1


def _common_base_factor(forms: Sequence[Polynomial]) -> bool:
    """True when the base coefficient forms share a nonconstant factor.

    The forms share the factor s exactly when every t^d coefficient
    vanishes; any other common factor divides the gcd of the forms
    dehomogenized at s = 1.  Forms that are all zero count as sharing one.
    """
    nonzero = [f for f in forms if not f.is_zero()]
    if all(f.coefficient((0, f.degree)) == 0 for f in nonzero):
        return True
    common: list = []
    for f in nonzero:
        common = poly_gcd(common, f.coefficient_vector())
        if len(common) == 1:
            return False
    return True


def _distinct_small_rationals(rng, count: int, avoid=()) -> list[Fraction]:
    """The first `count` values of a fresh `small_rationals` stream that
    are not in `avoid` (the stream itself never repeats)."""
    return list(islice((t for t in small_rationals(rng) if t not in avoid), count))


def trigonal_curve(g: int, seed: int) -> CurveSpec:
    """Random trigonal canonical curve of genus g with split sample fibers.

    A handful of fibers are forced to split over Q by prescribing two
    rational points on each (the third root is then rational as well);
    their base values are stored as sampling hints.  Candidates are
    rejected when the base forms share a factor (the curve would contain
    a fiber) or when any forced or test fiber does not cut three distinct
    points.
    """
    if g < 5:
        raise ValueError("trigonal construction needs genus >= 5")
    scroll = Scroll(balanced_type(g - 2, 2))
    cls = scroll.cls(3, 4 - g)
    if genus_adjunction(scroll, cls) != g:
        raise CurveGenerationError("adjunction sanity check failed")
    forced_fibers = min((section_count(scroll, cls) - 8) // 2, 7)
    for attempt in range(_CURVE_ATTEMPTS):
        rng = make_rng(derive_seed(seed, attempt))
        hints = _distinct_small_rationals(rng, forced_fibers)
        # two points (1 : y) on each forced fiber, as integer pairs
        through = [((t.denominator, t.numerator), (y.denominator, y.numerator))
                   for t in hints for y in _distinct_small_rationals(rng, 2)]
        section = random_section(scroll, cls, rng, through=through)
        if _common_base_factor(list(section.coeffs.values())):
            continue
        test_values = hints + _distinct_small_rationals(rng, 5, avoid=hints)
        if all(_distinct_roots(section.restrict((t.denominator, t.numerator)))
               for t in test_values):
            return CurveSpec(g, 3, scroll, (cls,), (section,), seed, tuple(hints))
    raise CurveGenerationError(
        f"no acceptable trigonal section after {_CURVE_ATTEMPTS} attempts")


def _conic_pencil(q1: Sequence[int], q2: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """Bezout forms of two integer fiber conics q_i = a_i y2^2 + b_i y2 + c_i.

    A conic is its coefficient list in `monomial_basis(3, 2)` order: y0^2,
    y0 y1, y0 y2, y1^2, y1 y2, y2^2.  Returns (s1, s2, resultant) as
    integer binary forms in (y0, y1), coefficient j on y0^(d - j) y1^j:
    with s1 = a1 c2 - a2 c1 (quadratic), s2 = a1 b2 - a2 b1 (linear) and
    s3 = b1 c2 - b2 c1 (cubic), the combination a2 q1 - a1 q2 is
    -(s2 y2 + s1) and the resultant with respect to y2 is the binary
    quartic s1^2 - s2 s3.  When both conics are independent of y2
    (a1 = a2 = 0, so the projection from (0:0:1) degenerates), s1, s2 and
    the resultant are zero.
    """
    (c10, c11, b10, c12, b11, a1), (c20, c21, b20, c22, b21, a2) = q1, q2
    b1, c1, b2, c2 = [b10, b11], [c10, c11, c12], [b20, b21], [c20, c21, c22]
    s1 = _combine([(a1, c2), (-a2, c1)])
    s2 = _combine([(a1, b2), (-a2, b1)])
    s3 = _combine([(1, _mul(b1, c2)), (-1, _mul(b2, c1))])
    return s1, s2, _combine([(1, _mul(s1, s1)), (-1, _mul(s2, s3))])


def _distinct_roots(form: Sequence[int]) -> bool:
    """True when the binary form sum_j c_j s^(d-j) t^j of degree d
    vanishes at d distinct points: its affine part has degree >= d - 1
    (at most a simple root at s = 0) and is squarefree."""
    affine, _ = affine_chart(form)
    return len(affine) >= len(form) - 1 and is_squarefree(affine)


def _rational_binary_roots(form: Sequence[int]) -> list[tuple[int, int]]:
    """Rational roots (u : v) of sum_j c_j s^(d-j) t^j, each listed once as
    a coprime integer pair with u >= 0: (0 : 1) first when it is a root,
    then the affine roots (1 : v/u) in ascending order of v/u."""
    affine, roots = affine_chart(form)
    if len(affine) > 1:
        roots.extend((r.denominator, r.numerator) for r in sorted(rational_roots(affine)))
    return roots


def _tetragonal_fiber_points(q1: Sequence[int], q2: Sequence[int]) -> list[tuple[int, ...]]:
    """Exact rational intersection points of two integer fiber conics, in
    closed form, as primitive integer triples in ascending order of their
    root (u, v).

    Every common point (u : v : y2) lies over a root (u : v) of the
    resultant and solves a2 q1 - a1 q2 = -(s2 y2 + s1) (`_conic_pencil`).
    Where s2(u, v) != 0 that fixes y2 = -s1(u, v) / s2(u, v), and the
    point (u s2(u, v) : v s2(u, v) : -s1(u, v)) is the only common one on
    the line through (0:0:1) and (u : v : 0).  A root with s2(u, v) = 0
    has s1(u, v)^2 = 0 as well; as a1 and a2 are not both zero, the conics
    are then proportional on that line, so s3(u, v) = 0 too and (u : v)
    is at least a double root of s1^2 - s2 s3.  Such roots are skipped:
    the constructors require four distinct roots on every hinted fiber, so
    they never occur there.
    """
    s1, s2, res = _conic_pencil(q1, q2)
    if not any(res):
        return []
    points = []
    for u, v in sorted(_rational_binary_roots(res)):
        denominator = s2[0] * u + s2[1] * v
        if denominator:
            point = (u * denominator, v * denominator,
                     -(s1[0] * u * u + s1[1] * u * v + s1[2] * v * v))
            common = gcd(*point)
            points.append(tuple(x // common for x in point))
    return points


def tetragonal_surfaces(g: int, b1: int, b2: int) -> tuple[Scroll, DivisorClass, DivisorClass]:
    """The balanced threefold scroll S(e1, e2, e3) of degree g - 3 and the
    classes 2H - b1 F, 2H - b2 F of a split, checked to cut irreducible
    surfaces.

    The fiber conic of a section of 2H - bF has the monomial y_i y_j
    only when e_i + e_j >= b.  With b > 2 e2 every monomial left has y3,
    and with b > e1 + e3 none has y1, a cone; either way every section is
    reducible, while the construction (Schreyer 1986) needs fiber conics
    of rank 3.  A class with no sections, or only such sections, is an
    input error (ValueError).
    """
    scroll = Scroll(balanced_type(g - 3, 3))
    classes = scroll.cls(2, -b1), scroll.cls(2, -b2)
    if min(section_count(scroll, c) for c in classes) == 0:
        raise ValueError(f"class with no sections among {classes[0]}, {classes[1]}")
    e1, e2, e3 = scroll.type
    for cls in classes:
        if -cls.f > min(e1 + e3, 2 * e2):
            raise ValueError(
                f"class {cls} cuts only reducible surfaces on the scroll {scroll.type}: "
                f"its fiber conics never reach rank 3, since {-cls.f} > "
                f"min(e1 + e3, 2 e2) = {min(e1 + e3, 2 * e2)}")
    return (scroll, *classes)


def tetragonal_curve(g: int, b1: int, b2: int, seed: int) -> CurveSpec:
    """Random tetragonal canonical curve as a complete intersection.

    The split (b1, b2) of g - 5 fixes the two surface classes 2H - b_i F
    (`tetragonal_surfaces`, which rejects a split whose surfaces are all
    reducible or absent).  A few fibers are forced to contain a rational
    intersection point and recorded as sampling hints; candidates are
    rejected when a forced or test fiber fails to cut four distinct
    points.
    """
    if g < 6:
        raise ValueError("tetragonal construction needs genus >= 6")
    if b1 + b2 != g - 5:
        raise ValueError(f"split ({b1}, {b2}) does not sum to g - 5 = {g - 5}")
    if b1 < 0 or b2 < 0:
        raise ValueError("negative split entries are not supported")
    scroll, cls1, cls2 = tetragonal_surfaces(g, b1, b2)
    if chow_product([cls1, cls2, scroll.H]) != 2 * g - 2:
        raise CurveGenerationError("intersection-degree sanity check failed")
    counts = [section_count(scroll, c) for c in (cls1, cls2)]
    forced_fibers = max(0, min(min(counts) - 6, 6))
    for attempt in range(_CURVE_ATTEMPTS):
        rng = make_rng(derive_seed(seed, attempt + 101))
        hints = _distinct_small_rationals(rng, forced_fibers)
        through = []
        for t in hints:
            base = (t.denominator, t.numerator)
            pair = (0, 0)
            while not any(pair):
                # (0:0:1) is the center of the resultant projection and
                # would be invisible to the fiber solver
                pair = (rng.randint(-5, 5), rng.randint(-5, 5))
            through.append((base, (*pair, 1)))
        sec1 = random_section(scroll, cls1, rng, through=through)
        sec2 = random_section(scroll, cls2, rng, through=through)
        test_values = hints + _distinct_small_rationals(rng, 5, avoid=hints)
        bases = [(t.denominator, t.numerator) for t in test_values]
        if all(_distinct_roots(_conic_pencil(sec1.restrict(b), sec2.restrict(b))[2])
               for b in bases):
            return CurveSpec(g, 4, scroll, (cls1, cls2), (sec1, sec2), seed,
                             tuple(hints))
    raise CurveGenerationError(
        f"no acceptable tetragonal sections after {_CURVE_ATTEMPTS} attempts")


def _fiber_rational_points(forms: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Exact rational points of one fiber, as integer tuples, from the
    equations restricted to it: the roots of a trigonal cubic, or the
    common points of two conics.  The order is that of the rational
    points before they were integers, which `sample_points` keeps: a
    trigonal fiber's (0 : 1) first, then ascending affine root; a
    tetragonal fiber's ascending integer root pair."""
    if len(forms) == 2:
        return _tetragonal_fiber_points(*forms)
    (cubic,) = forms
    if not any(cubic):
        return []
    return _rational_binary_roots(cubic)


def _form_value(form: Sequence[int], image: tuple, point: Sequence[int]) -> int:
    """A restricted form (`BihomSection.restrict`) at an integer fiber point."""
    return sum(c * _monomial_value(point, exp) for c, (exp, _) in zip(form, image) if c)


def sample_points(curve: CurveSpec, count: int, seed: int,
                  max_attempts: Optional[int] = None) -> list[tuple[int, ...]]:
    """Exact rational points of the curve, sampled fiber by fiber.

    The curve's hinted base values (fibers forced to split rationally at
    generation time) are tried first, then a seeded stream of fresh small
    rationals; fibers without rational solutions are skipped.  Each
    equation's integer image is restricted to a fiber once, and every
    point found there is checked exactly against those restrictions and
    embedded, all in integers.  Points of genus >= 2 curves over Q are
    finite, so large requests are expected to exhaust the budget and
    raise SamplingError, which reports how many points were found.  A
    negative count is a ValueError.
    """
    if count < 0:
        raise ValueError(f"point count must be >= 0, got {count}")
    if max_attempts is None:
        max_attempts = max(200, 20 * count)
    points: dict[tuple[int, ...], None] = {}    # ordered set
    tried: set[Fraction] = set()
    for t in chain(curve.rational_fiber_hints, small_rationals(make_rng(derive_seed(seed, 7)))):
        if len(points) == count or len(tried) == max_attempts:
            break
        if t in tried:
            continue
        tried.add(t)
        base = (t.denominator, t.numerator)
        forms = [eq.restrict(base) for eq in curve.equations]
        for fiber in _fiber_rational_points(forms):
            if any(_form_value(form, eq.image, fiber) for form, eq in zip(forms, curve.equations)):
                raise CurveGenerationError("sampled fiber point fails the curve equations")
            points[primitive_point(embed_point(curve.scroll, base, fiber).image)] = None
            if len(points) == count:
                break
    if len(points) < count:
        raise SamplingError(len(points), count, len(tried))
    return list(points)


def _evaluation_matrix(points: Sequence[Sequence[int]], lower: Sequence[Sequence[int]],
                       lower_basis: Sequence[tuple[int, ...]],
                       basis: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """Values of the monomials of `basis` at integer points, from `lower`,
    the values of `lower_basis` (one degree less) at the same points.

    Each value is one product x^e = x^(e - u_i) x_i, with x_i the first
    variable of x^e: the same integers as `_monomial_value`, one
    multiplication each.
    """
    index = {exp: j for j, exp in enumerate(lower_basis)}
    steps = []
    for exp in basis:
        i = next(i for i, e in enumerate(exp) if e)
        steps.append((index[exp[:i] + (exp[i] - 1,) + exp[i + 1:]], i))
    return [[values[j] * p[i] for j, i in steps] for p, values in zip(points, lower)]


def _ambient_restriction(scroll: Scroll, exp: tuple[int, ...]):
    """Image of an ambient monomial on the scroll: fiber exponent and
    base exponent of its pullback through the embedding."""
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


def _piece(curve: CurveSpec, k: int) -> list[dict[int, int]]:
    """Basis of the degree-k graded piece of the curve ideal, as sparse
    primitive integer rows (ambient monomial index -> coefficient).

    Restriction to the scroll maps the ambient monomials onto the section
    monomials of kH; group them into classes by their image and lift each
    section monomial to the last member of its class, rep.  A degree-k
    form vanishes on the curve exactly when its restriction is
    sum_i q_i u_i with u_i a section of kH minus the i-th equation class,
    so the piece is spanned by the binomials e_j - e_rep, one for every
    non-last member j of a class, and the block of lifts of q_i times
    every multiplier monomial (none when the H-degree of the multiplier
    would be negative), each lift the equation's integer image, moved.
    A non-rep column appears only in its own binomial and the lifts live
    on rep columns, so the basis is independent exactly when the block
    is.  A full rank of the block modulo `_RANK_PRIME` proves that; any
    other rank falls back to the block's fraction-free echelon rows.  No
    reduced echelon form is built, so the entries keep the height of the
    equations.
    """
    scroll = curve.scroll
    classes: dict[tuple, list[int]] = {}
    for j, exp in enumerate(monomial_basis(scroll.N + 1, k)):
        classes.setdefault(_ambient_restriction(scroll, exp), []).append(j)
    block = []
    for section in curve.equations:
        mult_h = k - section.cls.h
        if mult_h < 0:
            continue
        # distinct equation terms land in distinct classes, so every lift
        # is the equation's primitive integer image, moved
        terms = [(eexp, len(row) - 1 - j, j, c) for eexp, row in section.image
                 for j, c in enumerate(row) if c]
        for mexp, (p, q) in _section_slots(scroll, scroll.cls(mult_h, -section.cls.f)):
            block.append({classes[tuple(a + b for a, b in zip(mexp, eexp)),
                                  (bp + p, bq + q)][-1]: c
                          for eexp, bp, bq, c in terms})
    columns = sorted({j for row in block for j in row})
    lifts = [[row.get(j, 0) for j in columns] for row in block]
    if _rank_mod_prime(lifts, len(columns)) < len(lifts):
        lifts = _int_echelon(lifts, len(columns))[0]
    rows = [{j: 1, members[-1]: -1} for members in classes.values() for j in members[:-1]]
    rows.extend({columns[f]: x for f, x in enumerate(lift) if x} for lift in lifts)
    return rows


def ideal_pieces(curve: CurveSpec,
                 points: Sequence[Sequence[int]] = ()) -> IdealReconstruction:
    """Degree-2 and degree-3 graded pieces of the curve ideal, as the
    sparse primitive integer rows of `_piece`.

    The supplied sampled points are an independent certificate: every
    row must vanish on every one of them exactly, evaluated in integers.
    Dimensions must equal the canonical-curve counts (g-2)(g-3)/2 and
    C(g+2, 3) - (5g-5); a mismatch raises IdealDimensionError.
    """
    g = curve.genus
    pieces = []
    evaluations, lower = points, monomial_basis(g, 1)
    for degree in (2, 3):
        basis = monomial_basis(g, degree)
        evaluations, lower = _evaluation_matrix(points, evaluations, lower, basis), basis
        rows = tuple(_piece(curve, degree))
        for row in rows:
            if any(sum(values[j] * c for j, c in row.items()) for values in evaluations):
                raise PointCertificateError("an ideal element does not vanish on a sampled point")
        pieces.append(rows)
    dims = tuple(map(len, pieces))
    expected = (expected_quadric_dim(g), expected_cubic_dim(g))
    if dims != expected:
        raise IdealDimensionError(dims, expected)
    return IdealReconstruction(g, *pieces, point_count=len(points))
