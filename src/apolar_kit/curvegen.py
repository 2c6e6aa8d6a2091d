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
base values are recorded on the curve as sampling hints.  A trigonal
section is written down in closed form, its forced fibers through the
fiber coordinate points where the degrees allow and interpolated on the
rest (`trigonal_curve`), so its equation keeps a small height.  It is
built in integers: the interpolated base forms are integer Lagrange
combinations over one common denominator each, which only their final
coefficients divide by.  A
tetragonal section is one small-integer draw on the integer kernel
vectors of its point conditions, none of them rescaled
(`random_section`), so its equations keep a small height too.  Each
section keeps one integer image, the section times a positive scale, so
fiber work runs in Python integers: every fiber lies over an integer
base point, and sampling restricts each image to it once.  A trigonal
fiber is the rational roots of one binary cubic, and a tetragonal fiber
is the base locus of a pencil of two conics, whose common point over a
rational root of their resultant is the root of Bezout's combination
a2 q1 - a1 q2, linear in the last coordinate; the point is an integer
triple, no square root is taken, and a root where that combination
vanishes identically is a repeated root and is skipped.

The graded pieces of the ideal are built in closed form from the scroll
(Schreyer 1986; `_piece`) and handed on as sparse integer rows at the
height of the equations, checked on sampled points.  Both pieces, and
the points, are built only when read: their dimensions are a theorem
(Koszul) once closed-form certificates hold (`ideal_pieces`), so a
quotient reads the scroll and the equations alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import chain, islice
from math import comb, gcd, lcm, prod
from operator import itemgetter, mul

from .core import (Polynomial, Record, _combination, _first_step, _int_echelon,
                   _kernel_vectors, _monomial_value, _rank_mod_prime, _row_to_int,
                   monomial_basis)
from .scroll import (DivisorClass, Scroll, canonical_class, chow_product,
                     embedded_point, section_count,
                     section_templates)
from .seeding import derive_seed, make_rng, small_rationals
from .univariate import _combine, _distinct_roots, _mul, affine_chart, poly_gcd, rational_roots

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
# [-9, 9], a trigonal section's random forms have coefficients there,
# and a constructor draws at most 10 candidate curves
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


class BihomSection(Record):
    """Section of O(cH + mF): one base binary form per fiber monomial.

    `image` is the section times a positive scale, as one primitive
    integer vector, built once: a pair (fiber exponent, (c_0, ..., c_d))
    for every fiber monomial of degree c in `monomial_basis` order, c_j
    the coefficient of s^(d - j) t^j in its base form (empty when the
    monomial has none).  A positive scale moves no root, so every fiber
    computation runs on the image, in integers.  It is set by
    `__post_init__`, outside the fields: equality and repr ignore it.
    """

    scroll: Scroll
    cls: DivisorClass
    coeffs: dict  # fiber exponent tuple -> Polynomial in (s, t)

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
        weights: dict[int, list[int]] = {}    # row length d + 1 -> s0^(d - j) t0^j
        out = []
        for _, row in self.image:
            if len(row) not in weights:
                d = len(row) - 1
                weights[len(row)] = [s0 ** (d - j) * t0 ** j for j in range(d + 1)]
            out.append(sum(map(mul, row, weights[len(row)])))
        return out


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

    The section is a random small-integer combination, weights in
    [-9, 9], of the integer kernel vectors of the point conditions (one
    primitive integer row per point), as `_kernel_vectors` returns them:
    no vector is rescaled, so the coefficients are integers of small
    height.  With no points the kernel is the unit vectors, and the
    combination is the coefficient vector itself.
    """
    slots = _section_slots(scroll, cls)
    if not slots:
        raise CurveGenerationError(f"class {cls} has no sections on {scroll}")
    conditions = [_row_to_int([_monomial_value(base, bexp) * _monomial_value(fiber, exp)
                               for exp, bexp in slots]) for base, fiber in through]
    kernel = _kernel_vectors(conditions, len(slots))
    if not kernel:
        raise CurveGenerationError("point constraints admit no section")
    for _ in range(10):
        combo = {i: rng.randint(-_SECTION_BOUND, _SECTION_BOUND) for i in range(len(kernel))}
        vector = _combination(combo, kernel)
        if vector:
            return _section_from_vector(scroll, cls, slots,
                                        [vector.get(j, 0) for j in range(len(slots))])
    raise CurveGenerationError("random section degenerated to zero")


class CurveSpec(Record):
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


class IdealReconstruction(Record):
    """The graded pieces of a curve ideal, each built when first read.

    `curve` holds the scroll and the equations, from which `_piece`
    builds each piece as I_S plus each equation times its multiplier
    slots; `points` are `count` exact points of the curve, sampled with
    `seed` (`sample_points`), which every row of a piece is checked to
    vanish on.  `degree2` and `degree3` are the pieces, bases of sparse
    primitive integer rows (index into `monomial_basis(genus, k)` ->
    coefficient), read by `curve-gen`, by a quotient on its exact path
    and by the tests.

    Their counts are a theorem when `ideal_pieces` certifies them: the
    Cox ring of the scroll is a polynomial ring, so equations with no
    common factor of positive H-degree have only the Koszul syzygy, of
    H-degree 2, and their lifts in degrees 2 and 3 are independent; the
    closed counts and the coprimality certificate need no row and no
    point.  The cached values stay out of equality and repr."""

    curve: CurveSpec
    seed: int
    count: int

    @property
    def genus(self) -> int:
        return self.curve.genus

    @property
    def scroll(self) -> Scroll:
        return self.curve.scroll

    @property
    def equations(self) -> tuple[BihomSection, ...]:
        return self.curve.equations

    @cached_property
    def points(self) -> tuple[tuple[int, ...], ...]:
        """`count` points of the curve, `sample_points` at `seed`."""
        return tuple(sample_points(self.curve, self.count, self.seed))

    @cached_property
    def degree2(self) -> tuple[dict[int, int], ...]:
        """`_piece` at degree 2, checked on `points` (PointCertificateError)."""
        return _checked_piece(self, self.points, 2)

    @cached_property
    def degree3(self) -> tuple[dict[int, int], ...]:
        """`_piece` at degree 3, checked on `points` (PointCertificateError)
        after `degree2`, and both counted against (g-2)(g-3)/2 and
        C(g+2, 3) - (5g-5) (IdealDimensionError)."""
        degree2 = self.degree2
        rows = _checked_piece(self, self.points, 3)
        dims = (len(degree2), len(rows))
        expected = (expected_quadric_dim(self.genus), expected_cubic_dim(self.genus))
        if dims != expected:
            raise IdealDimensionError(dims, expected)
        return rows


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


def _binary_value(form: Sequence[int], base: tuple[int, int]) -> int:
    """The integer binary form sum_j c_j s^(d - j) t^j at the base point (s, t)."""
    d = len(form) - 1
    s, t = base
    return sum(c * s ** (d - j) * t ** j for j, c in enumerate(form) if c)


def _random_multiple(rng, degree: int, factor: Sequence[int]) -> list[int]:
    """`factor` times a nonzero random integer binary form, of total
    degree `degree`.  The random form is drawn as `seeding.random_form`
    draws one: a `randint` in [-_SECTION_BOUND, _SECTION_BOUND] per
    coefficient, in `monomial_basis` order, again while all are zero."""
    while True:
        form = [rng.randint(-_SECTION_BOUND, _SECTION_BOUND)
                for _ in range(degree + 2 - len(factor))]
        if any(form):
            return _mul(form, factor)


def _vanishing(bases: Sequence[tuple[int, int]]) -> list[int]:
    """The product of the linear forms p s - q t, one per base point
    (q, p), each vanishing at its point (q : p)."""
    return reduce(_mul, ([p, -q] for q, p in bases), [1])


def trigonal_curve(g: int, seed: int) -> CurveSpec:
    """Random trigonal canonical curve of genus g with split sample fibers,
    its section written down in closed form, in integers.

    A handful of fibers are forced to split over Q by prescribing two
    rational points on each (the third root is then rational as well);
    their base values are stored as sampling hints.  The section is
    f30 y1^3 + f21 y1^2 y2 + f12 y1 y2^2 + f03 y2^3.  On the first
    min(K, deg f30, deg f03) forced fibers the two points are (1 : 0) and
    (0 : 1): f30 and f03 are small random integer forms times the product
    of those fibers' base linear forms.  On each later forced fiber
    (q : p) the two points are (1 : y1) and (1 : y2), the y_i nonzero
    small rationals; with y1 y2 = P / W and y1 + y2 = S / W in integers,
    and a, b the values of f30, f03 there, the cubic vanishes at both
    points exactly when f21 = (b P^2 - a S W) / (P W) and
    f12 = (a W^2 - b S P) / (P W) there.  f21 and f12 interpolate these
    values in Lagrange form, plus a small random form times the product
    of those fibers' base linear forms.  The Lagrange form of fiber i is
    prod_(j != i) (p_j s - q_j t) times the power of s that pads it to
    the degree of f21 or f12, and its weight is the value there over the
    form's value at (q_i, p_i).  So each of f21 and f12 is an integer
    form over one common denominator, the lcm of the weights'
    denominators, and only its coefficients become rationals.  No kernel
    is solved, and the equation keeps a small height.  Candidates are
    rejected when the base forms share a factor (the curve would contain
    a fiber) or when any forced or test fiber does not cut three
    distinct points.
    """
    if g < 5:
        raise ValueError("trigonal construction needs genus >= 5")
    scroll = Scroll(balanced_type(g - 2, 2))
    cls = scroll.cls(3, 4 - g)
    if genus_adjunction(scroll, cls) != g:
        raise CurveGenerationError("adjunction sanity check failed")
    forced_fibers = min((section_count(scroll, cls) - 8) // 2, 7)
    # base degrees of f30, f21, f12, f03, in `monomial_basis(2, 3)` order
    degrees = [degree for _, degree in section_templates(scroll, cls)]
    split = min(forced_fibers, degrees[0], degrees[3])
    for attempt in range(_CURVE_ATTEMPTS):
        rng = make_rng(derive_seed(seed, attempt))
        hints = _distinct_small_rationals(rng, forced_fibers)
        bases = [(t.denominator, t.numerator) for t in hints]
        first, rest = bases[:split], bases[split:]
        through = _vanishing(first)
        f30, f03 = (_random_multiple(rng, degrees[k], through) for k in (0, 3))
        # per later fiber (q : p): the numerators of f21 and f12 there over
        # P W, that times the value at (q, p) of the Lagrange form
        # prod_(j != i) (p_j s - q_j t), q, and the Lagrange form
        fibers = []
        for i, (q, p) in enumerate(rest):
            a, b = _binary_value(f30, (q, p)), _binary_value(f03, (q, p))
            (u1, w1), (u2, w2) = ((y.numerator, y.denominator)
                                  for y in _distinct_small_rationals(rng, 2, avoid=(0,)))
            P, W, S = u1 * u2, w1 * w2, u1 * w2 + u2 * w1
            others = rest[:i] + rest[i + 1:]
            fibers.append(((b * P * P - a * S * W, a * W * W - b * S * P),
                           P * W * prod(pj * q - qj * p for qj, pj in others), q,
                           _vanishing(others)))
        through = _vanishing(rest)
        middle = []
        for i, degree in enumerate(degrees[1:3]):
            # s^k pads a Lagrange form to the degree: k trailing zero
            # coefficients, and its value times q^k
            k = degree + 1 - len(rest)
            dens = [scale * q ** k for _, scale, q, _ in fibers]
            den = lcm(*dens)
            numerator = _combine([(den, _random_multiple(rng, degree, through))]
                                 + [(nums[i] * (den // d), form)
                                    for (nums, _, _, form), d in zip(fibers, dens)])
            middle.append([Fraction(c, den) for c in numerator])
        section = BihomSection(scroll, cls, {
            exp: Polynomial(2, len(form) - 1, {(len(form) - 1 - j, j): c
                                               for j, c in enumerate(form) if c})
            for exp, form in zip(monomial_basis(2, 3), (f30, *middle, f03))})
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


def tetragonal_surfaces(scroll: Scroll, b1: int, b2: int) -> tuple[DivisorClass, DivisorClass]:
    """The classes 2H - b_i F of a split, b_i >= 0 and b1 + b2 = deg S - 2
    (= g - 5), on a threefold scroll S(e1, e2, e3), e1 <= e2 <= e3,
    checked to cut irreducible surfaces.

    The fiber conic of a section of 2H - bF has the monomial y_i y_j only
    when e_i + e_j >= b.  With b > 2 e3 there is no section.  With b > 2 e2
    every monomial left has y3, and with b > e1 + e3 none has y1, a cone;
    either way every section is reducible, while the construction
    (Schreyer 1986) needs fiber conics of rank 3.  Any other split is an
    input error (ValueError).
    """
    if b1 < 0 or b2 < 0:
        raise ValueError(f"the split ({b1}, {b2}) has a negative entry")
    if b1 + b2 != scroll.degree - 2:
        raise ValueError(f"the split ({b1}, {b2}) does not sum to deg S - 2 = g - 5 = "
                         f"{scroll.degree - 2}")
    classes = scroll.cls(2, -b1), scroll.cls(2, -b2)
    if min(section_count(scroll, c) for c in classes) == 0:
        raise ValueError(f"class with no sections among {classes[0]}, {classes[1]}")
    e1, e2, e3 = sorted(scroll.type)
    for cls in classes:
        if -cls.f > min(e1 + e3, 2 * e2):
            raise ValueError(
                f"class {cls} cuts only reducible surfaces on the scroll {scroll.type}: "
                f"its fiber conics never reach rank 3, since {-cls.f} > "
                f"min(e1 + e3, 2 e2) = {min(e1 + e3, 2 * e2)}")
    return classes


def tetragonal_curve(g: int, b1: int, b2: int, seed: int) -> CurveSpec:
    """Random tetragonal canonical curve as a complete intersection.

    The split (b1, b2) of g - 5 fixes the two surface classes 2H - b_i F
    on the balanced scroll (`tetragonal_surfaces`, which rejects any
    other split).  A few fibers are forced to contain a rational
    intersection point and recorded as sampling hints; candidates are
    rejected when a forced or test fiber fails to cut four distinct
    points.
    """
    if g < 6:
        raise ValueError("tetragonal construction needs genus >= 6")
    scroll = Scroll(balanced_type(g - 3, 3))
    cls1, cls2 = tetragonal_surfaces(scroll, b1, b2)
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
                  max_attempts: int | None = None) -> list[tuple[int, ...]]:
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
            points[embedded_point(curve.scroll, base, fiber)] = None
            if len(points) == count:
                break
    if len(points) < count:
        raise SamplingError(len(points), count, len(tried))
    return list(points)


def _getter(indices: Sequence[int]):
    """The entries of a row at `indices`, as one tuple: `itemgetter`,
    which returns a bare entry for one index and refuses none, is
    wrapped for those two counts."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda row: tuple([row[i] for i in indices])


@cache
def _degree_steps(nvars: int, degree: int) -> tuple:
    """For the monomials of `monomial_basis(nvars, degree)`: the getter of
    the values one degree lower (`_first_step`'s monomial) and the getter
    of the coordinates (its first variable), built once per (nvars,
    degree)."""
    index = {exp: j for j, exp in enumerate(monomial_basis(nvars, degree - 1))}
    below, first = [], []
    for exp in monomial_basis(nvars, degree):
        i, lower_exp = _first_step(exp)
        below.append(index[lower_exp])
        first.append(i)
    return _getter(below), _getter(first)


def _evaluation_matrix(points: Sequence[Sequence[int]], lower: Sequence[Sequence[int]],
                       nvars: int, degree: int) -> list[list[int]]:
    """Values of the monomials of `monomial_basis(nvars, degree)` at
    integer points, from `lower`, the values of the monomials one degree
    less at the same points.

    Each value is one product x^e = x^(e - u_i) x_i, with x_i the first
    variable of x^e: the same integers as `_monomial_value`, one
    multiplication each.
    """
    below, first = _degree_steps(nvars, degree)
    return [list(map(mul, below(values), first(p))) for p, values in zip(points, lower)]


@cache
def _restriction_classes(scroll: Scroll, k: int) -> tuple:
    """The image on the scroll of every ambient monomial of degree k, in
    `monomial_basis` order, built once per scroll and degree: the fiber
    exponent and the base exponent of its pullback through the
    embedding.  Each class is one coordinate step (`_first_step`) from
    the class of a monomial one degree lower; coordinate (i, j) of the
    layout (`coordinate_layout`) adds y_i and s^(a_i - j) t^j."""
    if k == 0:
        return (((0,) * scroll.k, (0, 0)),)
    lower = dict(zip(monomial_basis(scroll.N + 1, k - 1), _restriction_classes(scroll, k - 1)))
    steps = [(i, a - j, j) for i, a in enumerate(scroll.type) for j in range(a + 1)]
    classes = []
    for exp in monomial_basis(scroll.N + 1, k):
        coordinate, below = _first_step(exp)
        fiber, (s_deg, t_deg) = lower[below]
        i, ds, dt = steps[coordinate]
        classes.append((fiber[:i] + (fiber[i] + 1,) + fiber[i + 1:], (s_deg + ds, t_deg + dt)))
    return tuple(classes)


def _piece(curve: CurveSpec | IdealReconstruction, k: int) -> list[dict[int, int]]:
    """Basis of the degree-k graded piece of the curve ideal, as sparse
    primitive integer rows (ambient monomial index -> coefficient), from
    the curve's scroll and equations alone.

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
    for j, key in enumerate(_restriction_classes(scroll, k)):
        classes.setdefault(key, []).append(j)
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


def _checked_piece(curve: CurveSpec | IdealReconstruction, points: Sequence[Sequence[int]],
                   k: int) -> tuple[dict[int, int], ...]:
    """`_piece(curve, k)` (`curve` a CurveSpec or an IdealReconstruction:
    its scroll and equations), every row checked to vanish on every
    point exactly (a binomial e_j - e_rep where the two monomials are
    equal), evaluated in integers; PointCertificateError otherwise.  At
    each point all binomials are read as one comparison of two tuples,
    the values at the j and at the rep, and each lift as one sum of
    products."""
    rows = tuple(_piece(curve, k))
    values = points
    for degree in range(2, k + 1):
        values = _evaluation_matrix(points, values, curve.genus, degree)
    binomials = [tuple(row) for row in rows if tuple(row.values()) == (1, -1)]
    members = _getter([j for j, _ in binomials])
    reps = _getter([rep for _, rep in binomials])
    lifts = [(_getter(list(row)), tuple(row.values())) for row in rows
             if tuple(row.values()) != (1, -1)]
    for point_values in values:
        if (members(point_values) != reps(point_values)
                or any(sum(map(mul, columns(point_values), coefficients))
                       for columns, coefficients in lifts)):
            raise PointCertificateError("an ideal element does not vanish on a sampled point")
    return rows


def _piece_count(scroll: Scroll, classes: Sequence[DivisorClass], k: int) -> int:
    """C(N + k, k) - h0(kH) + sum_i h0(kH - cls_i), N + 1 the ambient
    coordinates (g for a canonical curve): the rows of `_piece` at degree
    k for equations of these classes whose lifts are independent."""
    return comb(scroll.N + k, k) - section_count(scroll, scroll.cls(k, 0)) + sum(
        section_count(scroll, scroll.cls(k - cls.h, -cls.f)) for cls in classes if cls.h <= k)


# base points (s, t) tried after a tetragonal curve's first hint when
# `_cubic_count_certified` looks for a fiber whose conics share no factor
_PENCIL_BASES = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1))


def _cubic_count_certified(curve: CurveSpec) -> bool:
    """True when a theorem fixes the degree-3 piece of `_piece` at the
    canonical-curve count C(g+2, 3) - (5g-5), so it need not be built.

    The scroll's Cox ring k[s, t, y] is a polynomial ring, and the curve
    a complete intersection on the scroll (Schreyer, Math. Ann. 275,
    1986).  Two equations whose common factor G has H-degree 0 have, by
    Koszul, only the syzygies w (q2 / G, -q1 / G), whose multiplier of q1
    has H-degree at least 2 > 1; a single equation f != 0 has none in a
    domain.  So the degree-3 lifts are independent, and the piece
    has C(g+2, 3) - h0(3H) binomials (the scroll is projectively normal,
    so its restriction classes are the h0(3H) section monomials) plus
    sum_i h0(3H - cls_i) lifts.  Two certificates, no row built:
    (a) that count (`_piece_count` at k = 3) equals `expected_cubic_dim(g)`;
    (b) one equation with a nonzero image, or two of H-degree 2 on a
    threefold whose fiber conics (`_conic_pencil`) have a resultant not
    identically zero over the first hint or one of `_PENCIL_BASES`: a
    common factor G of positive H-degree would divide both conics on
    every fiber, or make one zero, and so kill the resultant there.
    Any other curve is False, and `ideal_pieces` builds both pieces."""
    scroll, equations = curve.scroll, curve.equations
    if _piece_count(scroll, [eq.cls for eq in equations], 3) != expected_cubic_dim(curve.genus):
        return False
    if len(equations) == 1:
        return any(any(row) for _, row in equations[0].image)
    if len(equations) != 2 or scroll.k != 3 or any(eq.cls.h != 2 for eq in equations):
        return False
    q1, q2 = equations
    hints = [(t.denominator, t.numerator) for t in curve.rational_fiber_hints[:1]]
    return any(any(_conic_pencil(q1.restrict(base), q2.restrict(base))[2])
               for base in chain(hints, _PENCIL_BASES))


def ideal_pieces(curve: CurveSpec, seed: int, count: int | None = None) -> IdealReconstruction:
    """The graded pieces of the curve ideal, as the sparse primitive
    integer rows of `_piece`, each built when first read
    (`IdealReconstruction.degree2`, `.degree3`) and checked on `count`
    sampled points (`guaranteed_point_count` when None), drawn with
    `seed` when first read (`IdealReconstruction.points`).

    Nothing is built here when a theorem fixes both counts: the closed
    degree-2 count C(g+1, 2) - h0(2H) + sum_i h0(2H - cls_i)
    (`_piece_count`) must be the canonical (g-2)(g-3)/2, and
    `_cubic_count_certified` must hold, whose certificate (b) (no common
    factor of positive H-degree) makes the degree-2 lifts independent
    too: a relation u1 q1 + u2 q2 = 0 with u_i of H-degree 0 would need
    q2 / G of H-degree 0, and a trigonal equation has no degree-2 lift.
    Otherwise both pieces are built, point-checked and counted here, and
    a mismatch raises IdealDimensionError with both dimensions.
    """
    recon = IdealReconstruction(curve, seed,
                                curve.guaranteed_point_count if count is None else count)
    if (_piece_count(curve.scroll, [eq.cls for eq in curve.equations], 2)
            != expected_quadric_dim(curve.genus) or not _cubic_count_certified(curve)):
        recon.degree3    # both pieces built, checked and counted now
    return recon
