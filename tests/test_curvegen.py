from dataclasses import replace
from fractions import Fraction
from math import comb, gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar_kit import curvegen
from apolar_kit.core import (ExactMatrix, Polynomial, _monomial_value, _rank_mod_prime,
                             _row_to_int, monomial_basis, primitive_point)
from apolar_kit.curvegen import (BihomSection, CurveSpec, IdealDimensionError,
                                 PointCertificateError, SamplingError,
                                 balanced_type, expected_cubic_dim,
                                 expected_quadric_dim, genus_adjunction,
                                 ideal_pieces, random_section, sample_points,
                                 tetragonal_curve, tetragonal_surfaces, trigonal_curve,
                                 _ambient_restriction, _common_base_factor,
                                 _conic_pencil, _distinct_roots, _evaluation_matrix,
                                 _fiber_rational_points, _form_value, _section_from_vector,
                                 _section_slots, _tetragonal_fiber_points)
from apolar_kit.scroll import (Scroll, canonical_class, chow_product, divisor_degree,
                               section_count)
from apolar_kit.seeding import make_rng, small_rationals
from oracles import (binary_roots, coefficient_matrix, conic_pencil, fiber_form, int_kernel,
                     piece_contains, quadratic_fiber_points, recon_piece, scroll_quadrics)


def division_piece(curve, k):
    """Reference degree-k piece by the division criterion.

    A degree-k form vanishes on the curve exactly when its restriction to
    the scroll equals sum_i q_i u_i with u_i a section of kH minus the
    i-th equation class.  Unknowns are the form coefficients together
    with all multiplier coefficients; the piece is the projection of the
    kernel onto the form coordinates, in reduced echelon form.
    """
    scroll = curve.scroll
    ambient = monomial_basis(scroll.N + 1, k)
    row_index = {}

    def row_of(key):
        return row_index.setdefault(key, len(row_index))

    columns = [{row_of(_ambient_restriction(scroll, exp)): Fraction(1)}
               for exp in ambient]
    for section in curve.equations:
        mult_h = k - section.cls.h
        if mult_h < 0:
            continue
        for mexp, (p, q) in _section_slots(scroll, scroll.cls(mult_h, -section.cls.f)):
            column = {}
            for eexp, base_form in section.coeffs.items():
                fiber_exp = tuple(a + b for a, b in zip(mexp, eexp))
                for (bp, bq), c in base_form.terms.items():
                    idx = row_of((fiber_exp, (bp + p, bq + q)))
                    column[idx] = column.get(idx, Fraction(0)) - c
            columns.append(column)
    matrix = [[Fraction(0)] * len(columns) for _ in range(len(row_index))]
    for j, column in enumerate(columns):
        for i, value in column.items():
            matrix[i][j] = value
    kernel = ExactMatrix(matrix).kernel()
    if kernel.nrows == 0:
        return []
    projected = [kernel.row(i)[:len(ambient)] for i in range(kernel.nrows)]
    reduced, pivots = ExactMatrix(projected).rref()
    return [reduced.row(i) for i in range(len(pivots))]


def chow_oracle(scroll, cls):
    # independent adjunction arithmetic: (aH+bF).(cH+dF) = ac deg + ad + bc
    k = canonical_class(scroll)
    c2, d2 = cls.h + k.h, cls.f + k.f
    pairing = cls.h * c2 * scroll.degree + cls.h * d2 + cls.f * c2
    return pairing // 2 + 1


_S, _T = sympy.symbols("s t")


def sympy_form(form):
    return sum((sympy.Rational(c.numerator, c.denominator) * _S ** e0 * _T ** e1
                for (e0, e1), c in form.terms.items()), sympy.Integer(0))


def sympy_common_base_factor(forms):
    """Oracle: the gcd of the nonzero forms over Q, by sympy."""
    exprs = [sympy_form(f) for f in forms if not f.is_zero()]
    if not exprs:
        return True
    common = exprs[0]
    for e in exprs[1:]:
        common = sympy.gcd(common, e)
    return sympy.total_degree(common) > 0


def sympy_four_distinct_roots(quartic):
    """Oracle: the affine part has degree >= 3 and is squarefree."""
    affine = [quartic.coefficient((4 - j, j)) for j in range(5)]
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(affine)], _T)
    return poly.degree() >= 3 and poly.is_sqf


_C = sympy.symbols("c0:4")
# the discriminant of c0 s^3 + c1 s^2 t + c2 s t^2 + c3 t^3, as a polynomial
# in its coefficients: it vanishes exactly on cubics with a repeated root
# in P^1, the zero cubic included
_CUBIC_DISCRIMINANT = sympy.discriminant(sum(c * _S ** (3 - j) for j, c in enumerate(_C)), _S)


def sympy_cubic_has_distinct_roots(cubic):
    """Oracle: the binary discriminant of the cubic is nonzero."""
    values = {c: sympy.Rational(x.numerator, x.denominator)
              for c, x in zip(_C, cubic.coefficient_vector())}
    return _CUBIC_DISCRIMINANT.subs(values) != 0


def coefficients(form):
    """The coefficient list of a binary form with integer coefficients."""
    assert all(c.denominator == 1 for c in form.terms.values())
    return [int(c) for c in form.coefficient_vector()]


def conic(coeffs):
    """The fiber conic of an integer list in `monomial_basis(3, 2)` order."""
    return Polynomial(3, 2, dict(zip(monomial_basis(3, 2), coeffs)))


def image_scale(section):
    """The positive scale with image = scale * coefficients, checked on
    every entry, for an image that must be primitive."""
    assert set(section.coeffs) <= {exp for exp, _ in section.image}
    pairs = []
    for exp, row in section.image:
        form = section.coeffs.get(exp)
        reference = form.coefficient_vector() if form is not None else []
        assert len(row) == len(reference)
        pairs.extend(zip(reference, row))
    c0, x0 = next((c, x) for c, x in pairs if c)
    scale = x0 / c0
    assert scale > 0 and all(x == scale * c for c, x in pairs)
    assert gcd(*(x for _, x in pairs)) == 1
    return scale


def binary_product(*factors):
    out = Polynomial(2, 0, {(0, 0): 1})
    for f in factors:
        out = out * f
    return out


S = Polynomial(2, 1, {(1, 0): 1})
T = Polynomial(2, 1, {(0, 1): 1})
binary_forms = st.integers(0, 3).flatmap(lambda d: st.builds(
    lambda cs: Polynomial(2, d, {(d - j, j): Fraction(c, 3) for j, c in enumerate(cs)}),
    st.lists(st.integers(-4, 4), min_size=d + 1, max_size=d + 1)))


class TestBaseFormChecks:
    def test_common_base_factor_cases(self):
        u = Polynomial(2, 1, {(1, 0): 2, (0, 1): -3})       # 2s - 3t
        q = Polynomial(2, 2, {(2, 0): 1, (0, 2): 1})        # s^2 + t^2
        cases = {
            "share s": ([S * q, S * S * u], True),
            "share t": ([T * q, T * u * u], True),
            "mixed degrees": ([u, u * q, u * S * T], True),
            "mixed degrees, coprime": ([q, u * S, T * T * T], False),
            "single form": ([q], True),
            "single constant": ([Polynomial(2, 0, {(0, 0): 5})], False),
            "only zero forms": ([Polynomial.zero(2, 3), Polynomial.zero(2, 1)], True),
            "no forms": ([], True),
            "zero and one form": ([Polynomial.zero(2, 2), u], True),
        }
        for name, (forms, expected) in cases.items():
            assert _common_base_factor(forms) == expected, name
            assert sympy_common_base_factor(forms) == expected, name

    @settings(max_examples=150, deadline=None)
    @given(st.lists(binary_forms, max_size=4), st.sampled_from([None, "s", "t", "u"]))
    def test_common_base_factor_against_sympy(self, forms, shared):
        factor = {None: None, "s": S, "t": T,
                  "u": Polynomial(2, 1, {(1, 0): 5, (0, 1): 2})}[shared]
        if factor is not None:
            forms = [f * factor for f in forms]
        assert _common_base_factor(forms) == sympy_common_base_factor(forms)

    def test_distinct_roots_cases(self):
        u = Polynomial(2, 1, {(1, 0): 2, (0, 1): -3})
        v = Polynomial(2, 1, {(1, 0): 1, (0, 1): 7})
        q = Polynomial(2, 2, {(2, 0): 2, (0, 2): -1})
        quartics = [(binary_product(u, v, q), True), (binary_product(S, u, q), True),
                    (binary_product(S, S, q), False), (binary_product(u, u, q), False),
                    (binary_product(q, q), False), (binary_product(T, u, v, S), True),
                    (binary_product(S, S, S, u), False), (Polynomial.zero(2, 4), False)]
        for quartic, expected in quartics:
            assert _distinct_roots(coefficients(quartic)) == expected
            assert sympy_four_distinct_roots(quartic) == expected
        cubics = {
            "simple roots": (binary_product(u, q), True),
            "root at s = 0": (binary_product(S, u, v), True),
            "double root": (binary_product(u, u, v), False),
            "double root at s = 0": (binary_product(S, S, u), False),
            "root at t = 0": (binary_product(T, u, v), True),
            "double root at t = 0": (binary_product(T, T, u), False),
            "triple root": (binary_product(v, v, v), False),
            "zero cubic": (Polynomial.zero(2, 3), False),
        }
        for name, (cubic, expected) in cubics.items():
            assert _distinct_roots(coefficients(cubic)) == expected, name
            assert sympy_cubic_has_distinct_roots(cubic) == expected, name

    def test_four_distinct_roots_on_fibers_against_sympy(self):
        curve = tetragonal_curve(7, 1, 1, seed=4)
        stream = small_rationals(make_rng(8))
        for _ in range(20):
            t = next(stream)
            base = (t.denominator, t.numerator)
            res = conic_pencil(*(fiber_form(eq, base) for eq in curve.equations))[2]
            integer = _conic_pencil(*(eq.restrict(base) for eq in curve.equations))[2]
            assert _distinct_roots(integer) == sympy_four_distinct_roots(res)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_distinct_roots_on_trigonal_fibers_against_discriminant(self, seed):
        curve = trigonal_curve(8, seed)
        stream = small_rationals(make_rng(9))
        for _ in range(20):
            t = next(stream)
            base = (t.denominator, t.numerator)
            cubic = fiber_form(curve.equations[0], base)
            assert (_distinct_roots(curve.equations[0].restrict(base))
                    == sympy_cubic_has_distinct_roots(cubic))


class TestBalancedType:
    def test_even_split(self):
        assert balanced_type(4, 2) == (2, 2)

    def test_uneven_split(self):
        assert balanced_type(5, 2) == (2, 3)
        assert balanced_type(4, 3) == (1, 1, 2)
        assert balanced_type(3, 3) == (1, 1, 1)


class TestTrigonalCurve:
    def test_genus_five_layout(self):
        curve = trigonal_curve(5, seed=1)
        assert curve.scroll.type == (1, 2)
        assert (curve.classes[0].h, curve.classes[0].f) == (3, -1)
        assert genus_adjunction(curve.scroll, curve.classes[0]) == 5

    def test_genus_six_layout(self):
        curve = trigonal_curve(6, seed=1)
        assert curve.scroll.type == (2, 2)
        assert genus_adjunction(curve.scroll, curve.classes[0]) == 6
        assert genus_adjunction(curve.scroll, curve.classes[0]) == \
            chow_oracle(curve.scroll, curve.classes[0])

    def test_fiber_class_intersection_is_three(self):
        for g in (5, 6, 7):
            curve = trigonal_curve(g, seed=2)
            assert chow_product([curve.classes[0], curve.scroll.F]) == 3

    def test_fiber_restriction_is_cubic(self):
        curve = trigonal_curve(6, seed=3)
        rng = make_rng(99)
        stream = small_rationals(rng)
        for _ in range(10):
            t = next(stream)
            cubic = curve.equations[0].restrict((t.denominator, t.numerator))
            assert len(cubic) == 4 and any(cubic)

    def test_small_genus_rejected(self):
        with pytest.raises(ValueError):
            trigonal_curve(4, seed=1)


class TestTetragonalCurve:
    def test_genus_seven_generic_split(self):
        curve = tetragonal_curve(7, 1, 1, seed=1)
        assert curve.scroll.type == (1, 1, 2)
        degrees = [divisor_degree(curve.scroll, c) for c in curve.classes]
        assert degrees == [7, 7]

    def test_genus_seven_special_split(self):
        curve = tetragonal_curve(7, 0, 2, seed=1)
        degrees = [divisor_degree(curve.scroll, c) for c in curve.classes]
        assert degrees == [8, 6]

    def test_genus_six_split(self):
        curve = tetragonal_curve(6, 0, 1, seed=1)
        assert curve.scroll.type == (1, 1, 1)
        degrees = [divisor_degree(curve.scroll, c) for c in curve.classes]
        assert degrees == [6, 5]

    def test_curve_degree_identity(self):
        for g, b1, b2 in [(6, 0, 1), (7, 1, 1), (8, 1, 2)]:
            curve = tetragonal_curve(g, b1, b2, seed=2)
            assert chow_product(list(curve.classes) + [curve.scroll.H]) == 2 * g - 2

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            tetragonal_curve(7, 1, 3, seed=1)

    def test_split_without_sections_rejected(self):
        # on the g = 12 scroll (3, 3, 3) no fiber quadric reaches base degree 7
        with pytest.raises(ValueError, match="no sections"):
            tetragonal_curve(12, 0, 7, seed=1)

    @pytest.mark.parametrize("g, split, scroll_type", [
        (10, (0, 5), (2, 2, 3)), (11, (0, 6), (2, 3, 3)), (13, (0, 8), (3, 3, 4))])
    def test_split_with_only_reducible_surfaces_rejected(self, g, split, scroll_type):
        # 2H - bF with b > min(e1 + e3, 2 e2): every fiber conic has a
        # common factor or misses y1, so the surface is reducible
        assert balanced_type(g - 3, 3) == scroll_type
        scroll = Scroll(scroll_type)
        assert section_count(scroll, scroll.cls(2, -split[1])) > 0
        with pytest.raises(ValueError, match="only reducible surfaces"):
            tetragonal_surfaces(g, *split)
        with pytest.raises(ValueError, match="only reducible surfaces"):
            tetragonal_curve(g, *split, seed=1)

    @pytest.mark.parametrize("g, b", [(10, 5), (11, 6), (13, 8)])
    def test_rejected_classes_have_only_reducible_sections(self, g, b):
        # b > 2 e2 puts y2 (0-based) in every term, b > e1 + e3 leaves y0 out
        scroll = Scroll(balanced_type(g - 3, 3))
        e1, e2, e3 = scroll.type
        conic = fiber_form(random_section(scroll, scroll.cls(2, -b), make_rng(g)), (1, 2))
        assert not conic.is_zero()
        if b > 2 * e2:
            assert all(exp[2] for exp in conic.terms)
        if b > e1 + e3:
            assert not any(exp[0] for exp in conic.terms)

    def test_other_splits_inside_the_guard_accepted(self):
        for g in range(6, 12):
            for b1 in range(g - 4):
                split = (b1, g - 5 - b1)
                if (g, max(split)) in ((10, 5), (11, 6)):
                    continue
                _, *classes = tetragonal_surfaces(g, *split)
                assert [-c.f for c in classes] == list(split)

    def test_fiber_length_four(self):
        curve = tetragonal_curve(7, 1, 1, seed=4)
        rng = make_rng(7)
        stream = small_rationals(rng)
        for _ in range(10):
            t = next(stream)
            base = (t.denominator, t.numerator)
            res = _conic_pencil(*(eq.restrict(base) for eq in curve.equations))[2]
            assert len(res) == 5 and any(res)


class TestIntegerImage:
    @pytest.mark.parametrize("g, split", [
        (5, None), (6, None), (7, None), (8, None),
        (6, (0, 1)), (7, (0, 2)), (7, (1, 1)), (8, (0, 3)), (8, (1, 2)),
        (9, (0, 4)), (9, (1, 3)), (9, (2, 2))])
    def test_restriction_is_the_scaled_fiber_form(self, g, split):
        # every hinted fiber and 60 stream fibers per curve
        if split is None:
            curve = trigonal_curve(g, seed=g)
        else:
            curve = tetragonal_curve(g, *split, seed=g)
        scales = [image_scale(eq) for eq in curve.equations]
        stream = small_rationals(make_rng(g + 200))
        for t in list(curve.rational_fiber_hints) + [next(stream) for _ in range(60)]:
            base = (t.denominator, t.numerator)
            for eq, scale in zip(curve.equations, scales):
                reference = fiber_form(eq, base).coefficient_vector(
                    monomial_basis(curve.scroll.k, eq.cls.h))
                assert eq.restrict(base) == [scale * c for c in reference]

    @pytest.mark.parametrize("g", [5, 6, 7, 8])
    def test_trigonal_fiber_points_keep_the_rational_order(self, g):
        # (0 : 1) first, then ascending affine root, as the sorted rational
        # points were; sorting the integer pairs would put 3 before 1/2
        curve = trigonal_curve(g, seed=g)
        (equation,) = curve.equations
        stream = small_rationals(make_rng(g + 300))
        for t in list(curve.rational_fiber_hints) + [next(stream) for _ in range(60)]:
            base = (t.denominator, t.numerator)
            points = _fiber_rational_points([equation.restrict(base)])
            reference = sorted(binary_roots(fiber_form(equation, base)))
            assert [primitive_point(p) for p in points] == [
                primitive_point(p) for p in reference]
        cubic = [3, -7, 2, 0]       # s (2t - s) (t - 3s): roots (0 : 1), 1/2 and 3
        assert _fiber_rational_points([cubic]) == [(0, 1), (2, 1), (1, 3)]

    def test_zero_section_has_a_zero_image(self):
        scroll = Scroll((1, 2))
        cls = scroll.cls(3, -1)
        section = _section_from_vector(scroll, cls, _section_slots(scroll, cls),
                                       [0] * len(_section_slots(scroll, cls)))
        assert not any(any(row) for _, row in section.image)
        assert section.restrict((2, 3)) == [0, 0, 0, 0]


class TestConicPencil:
    @pytest.mark.parametrize("g, split", [
        (6, (0, 1)), (7, (1, 1)), (7, (0, 2)), (8, (1, 2)), (9, (2, 2)), (9, (1, 3))])
    def test_closed_form_matches_quadratic_formula(self, g, split):
        # every hinted fiber (at least one point each) and ten stream
        # fibers per curve, 60 over the six curves; the integer pencil
        # equals the rational reference on the same conics
        curve = tetragonal_curve(g, *split, seed=g)
        stream = small_rationals(make_rng(g + 100))
        hinted = list(curve.rational_fiber_hints)
        for t in hinted + [next(stream) for _ in range(10)]:
            base = (t.denominator, t.numerator)
            q1, q2 = (eq.restrict(base) for eq in curve.equations)
            reference = conic_pencil(conic(q1), conic(q2))
            assert list(_conic_pencil(q1, q2)) == [f.coefficient_vector() for f in reference]
            # the same points in the same order as the sorted rational ones
            points = _tetragonal_fiber_points(q1, q2)
            reference = quadratic_fiber_points(*(fiber_form(eq, base) for eq in curve.equations))
            assert [primitive_point(p) for p in points] == [
                primitive_point(p) for p in sorted(reference)]
            assert points or t not in hinted

    def test_repeated_root_with_two_points_on_one_line_is_skipped(self):
        # q1 = y2^2 - y0^2 and q2 = q1 + y1 y2 agree on the line y1 = 0
        # through (0:0:1), where they meet twice, at (1:0:1) and (1:0:-1);
        # s1 = 0, s2 = y1 and the resultant is -y0^2 y1^2, so (1:0) is a
        # double root with s2 = 0 and only (0:1:0) is found
        q1 = [-1, 0, 0, 0, 0, 1]
        q2 = [-1, 0, 0, 0, 1, 1]
        assert _conic_pencil(q1, q2) == ([0, 0, 0], [0, 1], [0, 0, -1, 0, 0])
        assert _tetragonal_fiber_points(q1, q2) == [(0, 1, 0)]
        assert sorted(quadratic_fiber_points(conic(q1), conic(q2))) == [
            (0, 1, 0), (1, 0, -1), (1, 0, 1)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2, 2), min_size=12, max_size=12))
    def test_closed_form_on_random_conic_pairs(self, coeffs):
        # the integer pencil equals the rational one; the closed form finds
        # every point of the quadratic formula except those over a root
        # where s2 vanishes, in the order of the sorted rational points,
        # and each point it finds is common to both conics
        q1, q2 = coeffs[:6], coeffs[6:]
        reference_pencil = conic_pencil(conic(q1), conic(q2))
        s1, s2, res = _conic_pencil(q1, q2)
        assert [s1, s2, res] == [f.coefficient_vector() for f in reference_pencil]
        found = [primitive_point(p) for p in _tetragonal_fiber_points(q1, q2)]
        closed = set(found)
        ordered = [primitive_point(p) for p in sorted(quadratic_fiber_points(conic(q1), conic(q2)))]
        reference = set(ordered)
        assert found == [p for p in ordered if p in closed]
        assert closed <= reference
        assert all(s2[0] * p[0] + s2[1] * p[1] == 0 for p in reference - closed)
        assert all(conic(q1).evaluate(p) == 0 == conic(q2).evaluate(p) for p in closed)

    def test_conics_free_of_y2_give_a_zero_resultant_and_no_points(self):
        q1 = [1, 0, 0, -1, 0, 0]     # y0^2 - y1^2
        q2 = [0, 1, 2, 0, 0, 0]      # y0 y1 + 2 y0 y2
        assert not any(_conic_pencil(q1, q2)[2])
        assert conic_pencil(conic(q1), conic(q2))[2].is_zero()
        assert _tetragonal_fiber_points(q1, q2) == []


class TestRandomSection:
    @pytest.mark.parametrize("scroll_type, h, f", [
        ((2, 2), 3, -2), ((1, 2), 3, -1), ((1, 1, 2), 2, -1), ((2, 2, 2), 2, 0)])
    def test_free_section_is_the_per_slot_draw(self, scroll_type, h, f):
        # no points: the kernel is the unit vectors, so the draws are the
        # coefficients themselves, in slot order
        scroll = Scroll(scroll_type)
        cls = scroll.cls(h, f)
        rng, reference = make_rng(3), make_rng(3)
        section = random_section(scroll, cls, rng)
        slots = _section_slots(scroll, cls)
        vector = [reference.randint(-9, 9) for _ in slots]
        assert section == _section_from_vector(scroll, cls, slots, vector)
        assert rng.random() == reference.random()

    def test_section_vanishes_at_its_points(self):
        scroll = Scroll((1, 1, 2))
        through = [((1, 2), (1, -1, 1)), ((3, -1), (2, 0, 1))]
        section = random_section(scroll, scroll.cls(2, -1), make_rng(4), through=through)
        assert any(any(row) for _, row in section.image)
        for base, fiber in through:
            assert fiber_form(section, base).evaluate(fiber) == 0
            assert _form_value(section.restrict(base), section.image, fiber) == 0

    @pytest.mark.parametrize("scroll_type, h, f, through", [
        ((1, 2), 3, -1, [((1, 2), (1, -1)), ((1, 2), (3, 1)), ((2, -1), (1, 4))]),
        ((1, 1, 2), 2, -1, [((1, 2), (1, -1, 1)), ((3, -1), (2, 0, 1)), ((1, 0), (0, 1, 1))])])
    def test_constrained_section_is_the_canonical_kernel_combination(
            self, scroll_type, h, f, through):
        # the same draws combine the normalised rational kernel basis of
        # the point conditions into exactly the same coefficients
        scroll = Scroll(scroll_type)
        cls = scroll.cls(h, f)
        slots = _section_slots(scroll, cls)
        rng, reference = make_rng(5), make_rng(5)
        section = random_section(scroll, cls, rng, through=through)
        rows = [_row_to_int([_monomial_value(base, bexp) * _monomial_value(fiber, exp)
                             for exp, bexp in slots]) for base, fiber in through]
        kernel = int_kernel(rows, len(slots))
        combo = [reference.randint(-9, 9) for _ in kernel]
        vector = [sum(c * v[j] for c, v in zip(combo, kernel)) for j in range(len(slots))]
        assert section == _section_from_vector(scroll, cls, slots, vector)


class TestSamplePoints:
    def test_zero_count(self):
        curve = trigonal_curve(5, seed=5)
        assert sample_points(curve, 0, seed=1) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_points(trigonal_curve(5, seed=5), -3, seed=1)

    @pytest.mark.parametrize("make_curve", [lambda: trigonal_curve(6, seed=2),
                                            lambda: tetragonal_curve(7, 1, 1, seed=2)],
                             ids=["trigonal", "tetragonal"])
    def test_each_equation_is_restricted_once_per_fiber(self, make_curve, monkeypatch):
        curve = make_curve()
        calls = []
        original = BihomSection.restrict

        def counting(self, base):
            calls.append((id(self), tuple(base)))
            return original(self, base)
        monkeypatch.setattr(BihomSection, "restrict", counting)
        with pytest.raises(SamplingError) as err:
            sample_points(curve, 200, seed=1, max_attempts=30)
        assert err.value.attempts == 30
        assert len(calls) == len(set(calls)) == 30 * len(curve.equations)

    @pytest.mark.parametrize("make_curve", [lambda: trigonal_curve(7, seed=2),
                                            lambda: tetragonal_curve(8, 1, 2, seed=2)],
                             ids=["trigonal", "tetragonal"])
    def test_constructs_no_polynomial(self, make_curve, monkeypatch):
        # restriction, fiber points, the point check and the embedding all
        # run on integers, on hinted fibers and on 60 stream fibers
        curve = make_curve()
        expected = sample_points(curve, curve.guaranteed_point_count, seed=3)

        def forbidden(self, *args):
            raise AssertionError("sample_points built a Polynomial")
        monkeypatch.setattr(Polynomial, "__init__", forbidden)
        assert sample_points(curve, curve.guaranteed_point_count, seed=3) == expected
        with pytest.raises(SamplingError) as err:
            sample_points(curve, 500, seed=3, max_attempts=60)
        assert err.value.attempts == 60 and err.value.found >= len(expected)

    def test_points_satisfy_scroll_and_curve(self):
        curve = trigonal_curve(5, seed=6)
        pts = sample_points(curve, curve.guaranteed_point_count, seed=2)
        assert len(pts) == 15
        quadrics = scroll_quadrics(curve.scroll)
        for p in pts:
            for q in quadrics:
                assert q.evaluate(p) == 0

    def test_tetragonal_points(self):
        curve = tetragonal_curve(7, 1, 1, seed=7)
        pts = sample_points(curve, curve.guaranteed_point_count, seed=3)
        assert len(pts) == curve.guaranteed_point_count >= 4

    def test_budget_error_reports_found(self):
        curve = trigonal_curve(5, seed=8)
        with pytest.raises(SamplingError) as err:
            sample_points(curve, 500, seed=4, max_attempts=60)
        assert err.value.found >= curve.guaranteed_point_count
        assert err.value.requested == 500


class TestIdealPieces:
    def test_expected_dimension_formulas(self):
        # Riemann-Roch style count: C(g+1,2) - (3g-3) quadrics,
        # C(g+2,3) - (5g-5) cubics
        for g in range(5, 9):
            assert expected_quadric_dim(g) == comb(g + 1, 2) - (3 * g - 3)
            assert expected_cubic_dim(g) == comb(g + 2, 3) - (5 * g - 5)

    def test_trigonal_dims(self):
        curve = trigonal_curve(5, seed=9)
        pts = sample_points(curve, curve.guaranteed_point_count, seed=5)
        recon = ideal_pieces(curve, pts)
        assert len(recon.degree2) == 3
        assert len(recon.degree3) == 15
        assert recon.point_count == len(pts) > 0

    def test_tetragonal_dims(self):
        curve = tetragonal_curve(7, 1, 1, seed=10)
        recon = ideal_pieces(curve)
        assert len(recon.degree2) == 10
        assert len(recon.degree3) == 54

    def test_scroll_quadrics_inside_degree_two_piece(self):
        curve = trigonal_curve(6, seed=11)
        recon = ideal_pieces(curve)
        for q in scroll_quadrics(curve.scroll):
            assert piece_contains(recon_piece(recon, 2), q)

    def test_degree_two_piece_matches_point_kernel(self):
        # dual route: with enough exact points the evaluation kernel in
        # degree 2 equals the closed-form piece
        curve = trigonal_curve(5, seed=12)
        pts = sample_points(curve, 15, seed=6)
        recon = ideal_pieces(curve, pts)
        basis = monomial_basis(5, 2)
        kernel = ExactMatrix(_evaluation_matrix(pts, pts, monomial_basis(5, 1), basis)).kernel()
        assert kernel.nrows == len(recon.degree2)
        reduced_a, _ = kernel.rref()
        reduced_b, _ = coefficient_matrix(recon_piece(recon, 2).basis).rref()
        assert reduced_a == reduced_b

    def test_evaluation_matrix_is_the_monomial_values(self):
        # one multiplication per value, from the degree below
        curve = tetragonal_curve(7, 1, 1, seed=3)
        pts = sample_points(curve, curve.guaranteed_point_count, seed=3)
        values, lower = pts, monomial_basis(7, 1)
        for degree in (2, 3, 4):
            basis = monomial_basis(7, degree)
            values, lower = _evaluation_matrix(pts, values, lower, basis), basis
            assert values == [[_monomial_value(p, exp) for exp in basis] for p in pts]

    def test_ideal_elements_vanish_on_points(self):
        curve = tetragonal_curve(6, 0, 1, seed=13)
        pts = sample_points(curve, curve.guaranteed_point_count, seed=7)
        recon = ideal_pieces(curve, pts)
        for p in pts:
            for q in recon_piece(recon, 2).basis + recon_piece(recon, 3).basis:
                assert q.evaluate(p) == 0

    @pytest.mark.parametrize("g, split, scroll_type", [
        (5, None, None), (6, None, None), (7, None, None), (8, None, None),
        (6, (0, 1), None), (7, (1, 1), None), (7, (0, 2), None), (8, (1, 2), None),
        (8, (1, 2), (1, 1, 3)), (7, (0, 2), (0, 2, 2)),
        (9, None, None), (9, (2, 2), None), (9, (1, 3), None)])
    def test_pieces_match_division_criterion(self, g, split, scroll_type):
        if split is None:
            curve = trigonal_curve(g, seed=1)
        elif scroll_type is None:
            curve = tetragonal_curve(g, *split, seed=1)
        else:
            # `_piece` on an unbalanced scroll: two free sections, no hints
            scroll = Scroll(scroll_type)
            classes = tuple(scroll.cls(2, -b) for b in split)
            rng = make_rng(1)
            curve = CurveSpec(g, 4, scroll, classes,
                              tuple(random_section(scroll, c, rng) for c in classes), 1)
        recon = ideal_pieces(curve)
        for piece in (recon_piece(recon, 2), recon_piece(recon, 3)):
            reference = division_piece(curve, piece.degree)
            reduced, pivots = coefficient_matrix(piece.basis).rref()
            assert [reduced.row(i) for i in range(len(pivots))] == reference
            assert len(piece.basis) == len(reference)

    @pytest.mark.parametrize("g, split", [
        (6, None), (8, None), (7, (1, 1)), (7, (0, 2)), (8, (1, 2))])
    def test_only_the_equation_block_is_eliminated(self, g, split, monkeypatch):
        # the pieces are written down as binomials and lifted equations;
        # only the equation block is ranked, modulo a prime, and no
        # reduced echelon form or kernel is taken over Q
        if split is None:
            curve = trigonal_curve(g, seed=1)
        else:
            curve = tetragonal_curve(g, *split, seed=1)
        points = sample_points(curve, curve.guaranteed_point_count, seed=1)
        calls = []
        for name in ("rref", "kernel"):
            original = getattr(ExactMatrix, name)

            def recording(self, name=name, original=original):
                calls.append(name)
                return original(self)
            monkeypatch.setattr(ExactMatrix, name, recording)
        ideal_pieces(curve, points)
        assert calls == []

    @pytest.mark.parametrize("g, split", [(8, None), (8, (1, 2))])
    def test_constructs_no_polynomial(self, g, split, monkeypatch):
        # the pieces stay the sparse integer rows `_piece` writes down
        if split is None:
            curve = trigonal_curve(g, seed=1)
        else:
            curve = tetragonal_curve(g, *split, seed=1)
        points = sample_points(curve, curve.guaranteed_point_count, seed=1)
        expected = ideal_pieces(curve, points)

        def forbidden(self, *args):
            raise AssertionError("ideal_pieces built a Polynomial")
        monkeypatch.setattr(Polynomial, "__init__", forbidden)
        recon = ideal_pieces(curve, points)
        assert recon == expected
        assert recon.degree3 == tuple(curvegen._piece(curve, 3))

    @pytest.mark.parametrize("g, split", [(8, None), (8, (1, 2))])
    def test_pieces_keep_equation_height(self, g, split):
        # every entry is an integer no taller than the equations scaled
        # to primitive integer rows
        if split is None:
            curve = trigonal_curve(g, seed=1)
        else:
            curve = tetragonal_curve(g, *split, seed=1)
        tallest = max(abs(c) for eq in curve.equations for c in _row_to_int(
            [c for form in eq.coeffs.values() for c in form.terms.values()]))
        recon = ideal_pieces(curve)
        for rows in (recon.degree2, recon.degree3):
            for row in rows:
                for c in row.values():
                    assert type(c) is int and abs(c) <= tallest

    @pytest.mark.parametrize("g, split", [(6, None), (8, None), (7, (0, 2)), (8, (1, 2))])
    def test_modular_rank_shortfall_falls_back_exactly(self, g, split, monkeypatch):
        # an under-reported rank mod p sends the lifts through the exact
        # echelon: same span, same dimensions
        if split is None:
            curve = trigonal_curve(g, seed=1)
        else:
            curve = tetragonal_curve(g, *split, seed=1)
        points = sample_points(curve, curve.guaranteed_point_count, seed=1)
        expected = ideal_pieces(curve, points)
        monkeypatch.setattr(curvegen, "_rank_mod_prime",
                            lambda rows, ncols: _rank_mod_prime(rows, ncols) - 1)
        fallback = ideal_pieces(curve, points)
        for k in (2, 3):
            a, b = recon_piece(expected, k), recon_piece(fallback, k)
            assert a.dim == b.dim
            assert coefficient_matrix(a.basis).rref() == coefficient_matrix(b.basis).rref()

    def test_dropped_lift_row_fails_the_dimension_check(self, monkeypatch):
        # a lost lift still vanishes on the points; only the count sees it
        curve = tetragonal_curve(7, 1, 1, seed=1)
        points = sample_points(curve, curve.guaranteed_point_count, seed=1)
        original = curvegen._piece
        monkeypatch.setattr(curvegen, "_piece", lambda c, k: original(c, k)[:-1])
        with pytest.raises(IdealDimensionError) as err:
            ideal_pieces(curve, points)
        assert err.value.got == (9, 53)
        assert err.value.expected == (10, 54)

    @pytest.mark.parametrize("g, split, dims", [
        (12, None, (45, 309)), (11, (3, 3), (36, 236))])
    def test_large_genus_pieces_pass_the_point_certificate(self, g, split, dims):
        # beyond the verify guards: closed-form dimensions, sampled points
        if split is None:
            curve = trigonal_curve(g, seed=1)
        else:
            curve = tetragonal_curve(g, *split, seed=1)
        points = sample_points(curve, curve.guaranteed_point_count, seed=1)
        recon = ideal_pieces(curve, points)
        assert (len(recon.degree2), len(recon.degree3)) == dims
        assert recon.point_count == len(points) > 0

    def test_points_of_another_curve_fail_the_certificate(self):
        points = sample_points(trigonal_curve(5, 2), 3, 1)
        with pytest.raises(PointCertificateError):
            ideal_pieces(trigonal_curve(5, 1), points)

    def test_zero_equation_fails_the_dimension_check(self):
        # only the scroll's own ideal is left: 13 cubics instead of 15
        curve = trigonal_curve(5, 1)
        (equation,) = curve.equations
        zero = BihomSection(equation.scroll, equation.cls,
                            {exp: Polynomial.zero(2, form.degree)
                             for exp, form in equation.coeffs.items()})
        with pytest.raises(IdealDimensionError) as err:
            ideal_pieces(replace(curve, equations=(zero,)))
        assert err.value.got == (3, 13)
        assert err.value.expected == (3, 15)

    def test_genus_adjunction_rejects_threefolds(self):
        s = Scroll((1, 1, 2))
        with pytest.raises(ValueError):
            genus_adjunction(s, s.H)

    def test_genus_adjunction_quadric_surface(self):
        s = Scroll((1, 1))
        assert genus_adjunction(s, s.cls(2, 0)) == 1
