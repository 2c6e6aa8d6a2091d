import json
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from operator import add

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar_kit import curvegen, jsonio
from apolar_kit.cli import main
from apolar_kit.core import (ExactMatrix, Polynomial, _kernel_vectors, _monomial_value,
                             _rank_mod_prime, _row_to_int, monomial_basis)
from apolar_kit.curvegen import (BihomSection, CurveSpec, IdealDimensionError,
                                 PointCertificateError, SamplingError,
                                 balanced_type, expected_cubic_dim,
                                 expected_quadric_dim, genus_adjunction,
                                 ideal_pieces, random_section, sample_points,
                                 tetragonal_curve, tetragonal_surfaces, trigonal_curve,
                                 _common_base_factor, _conic_pencil, _cubic_count_certified,
                                 _evaluation_matrix, _piece_count,
                                 _fiber_rational_points, _form_value, _restriction_classes,
                                 _section_from_vector, _section_slots,
                                 _tetragonal_fiber_points)
from apolar_kit.scroll import (Scroll, canonical_class, chow_product, divisor_degree,
                               embedded_point, section_count, section_templates)
from apolar_kit.seeding import derive_seed, make_rng, small_rationals
from apolar_kit.univariate import _distinct_roots
from oracles import (admissible_splits, ambient_restriction, binary_roots, cached,
                     coefficient_matrix, conic_pencil, evaluate, fiber_form, from_sympy,
                     nonvanishing, piece_contains,
                     primitive_point, quadratic_fiber_points, recon_piece, replaced,
                     scroll_quadrics, to_sympy)


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

    columns = [{row_of(ambient_restriction(scroll, exp)): Fraction(1)}
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


# s and t are the variables x0 and x1 of `to_sympy`
S, T = sympy.symbols("x0:2")


def binary(expr):
    """The binary `Polynomial` of a nonzero sympy form in s and t."""
    return from_sympy(expr, 2, int(sympy.total_degree(expr)))


def sympy_common_base_factor(forms):
    """Oracle: the gcd of the nonzero forms over Q, by sympy."""
    exprs = [to_sympy(f) for f in forms if not f.is_zero()]
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
                       for c in reversed(affine)], T)
    return poly.degree() >= 3 and poly.is_sqf


_C = sympy.symbols("c0:4")
# the discriminant of c0 s^3 + c1 s^2 t + c2 s t^2 + c3 t^3, as a polynomial
# in its coefficients: it vanishes exactly on cubics with a repeated root
# in P^1, the zero cubic included
_CUBIC_DISCRIMINANT = sympy.discriminant(sum(c * S ** (3 - j) for j, c in enumerate(_C)), S)


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
    return binary(sympy.Mul(*factors))


binary_forms = st.integers(0, 3).flatmap(lambda d: st.builds(
    lambda cs: Polynomial(2, d, {(d - j, j): Fraction(c, 3) for j, c in enumerate(cs)}),
    st.lists(st.integers(-4, 4), min_size=d + 1, max_size=d + 1)))


class TestBaseFormChecks:
    def test_common_base_factor_cases(self):
        u = 2 * S - 3 * T
        q = S ** 2 + T ** 2
        cases = {
            "share s": ([S * q, S * S * u], True),
            "share t": ([T * q, T * u * u], True),
            "mixed degrees": ([u, u * q, u * S * T], True),
            "mixed degrees, coprime": ([q, u * S, T * T * T], False),
            "single form": ([q], True),
            "single constant": ([sympy.Integer(5)], False),
            "no forms": ([], True),
        }
        cases = {name: ([binary(f) for f in forms], expected)
                 for name, (forms, expected) in cases.items()}
        cases["only zero forms"] = ([Polynomial(2, 3, {}), Polynomial(2, 1, {})], True)
        cases["zero and one form"] = ([Polynomial(2, 2, {}), binary(u)], True)
        for name, (forms, expected) in cases.items():
            assert _common_base_factor(forms) == expected, name
            assert sympy_common_base_factor(forms) == expected, name

    @settings(max_examples=150, deadline=None)
    @given(st.lists(binary_forms, max_size=4), st.sampled_from([None, "s", "t", "u"]))
    def test_common_base_factor_against_sympy(self, forms, shared):
        factor = {None: None, "s": S, "t": T, "u": 5 * S + 2 * T}[shared]
        if factor is not None:
            forms = [from_sympy(to_sympy(f) * factor, 2, f.degree + 1) for f in forms]
        assert _common_base_factor(forms) == sympy_common_base_factor(forms)

    def test_distinct_roots_cases(self):
        u, v, q = 2 * S - 3 * T, S + 7 * T, 2 * S ** 2 - T ** 2
        quartics = [(binary_product(u, v, q), True), (binary_product(S, u, q), True),
                    (binary_product(S, S, q), False), (binary_product(u, u, q), False),
                    (binary_product(q, q), False), (binary_product(T, u, v, S), True),
                    (binary_product(S, S, S, u), False), (Polynomial(2, 4, {}), False)]
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
            "zero cubic": (Polynomial(2, 3, {}), False),
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
            assert chow_product([curve.classes[0], curve.scroll.cls(0, 1)]) == 3

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


TRIAL_SEEDS = [derive_seed(seed, 0) for seed in (1, 2, 3)]
CLOSED_FORM = [pytest.param(g, seed, id=f"g{g}-{seed}")
               for g in range(5, 17) for seed in TRIAL_SEEDS]


@lru_cache(maxsize=None)
def closed_form_curve(g, seed):
    return trigonal_curve(g, seed)


def cli_report(tmp_path, *argv):
    out = tmp_path / "report.json"
    assert main(list(argv) + ["--out", str(out)]) == 0
    return out.read_text()


class TestClosedFormTrigonal:
    """The trigonal section written down in closed form, at g = 5..16 and
    the trial seeds of `verify-a --seed 1..3`."""

    @pytest.mark.parametrize("g, seed", CLOSED_FORM)
    def test_equation_height_is_small(self, g, seed):
        [equation] = closed_form_curve(g, seed).equations
        assert max(abs(c).bit_length() for _, row in equation.image for c in row) <= 64

    @pytest.mark.parametrize("g, seed", CLOSED_FORM)
    def test_forced_fiber_count(self, g, seed):
        curve = closed_form_curve(g, seed)
        forced = min((section_count(curve.scroll, curve.classes[0]) - 8) // 2, 7)
        assert len(curve.rational_fiber_hints) == forced
        assert curve.guaranteed_point_count == 3 * forced

    @pytest.mark.parametrize("g, seed", CLOSED_FORM)
    def test_every_hinted_fiber_splits(self, g, seed):
        # the hints alone, three distinct points each
        curve = closed_form_curve(g, seed)
        hints = curve.rational_fiber_hints
        points = sample_points(curve, curve.guaranteed_point_count, seed,
                               max_attempts=len(hints))
        assert len(set(points)) == 3 * len(hints)

    @pytest.mark.parametrize("g, seed", CLOSED_FORM)
    def test_first_fibers_pass_through_the_coordinate_points(self, g, seed):
        # f30 and f03 vanish on the first min(K, deg f30, deg f03) forced
        # fibers, and on no later one
        curve = closed_form_curve(g, seed)
        [equation] = curve.equations
        degrees = [len(row) - 1 for _, row in equation.image]
        split = min(len(curve.rational_fiber_hints), degrees[0], degrees[3])
        for k, t in enumerate(curve.rational_fiber_hints):
            cubic = equation.restrict((t.denominator, t.numerator))
            assert (cubic[0] == cubic[3] == 0) == (k < split)

    def test_no_kernel_is_solved(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a kernel of point conditions was solved")

        monkeypatch.setattr(curvegen, "_kernel_vectors", refuse)
        for g in range(5, 17):
            assert trigonal_curve(g, seed=g).genus == g

    @pytest.mark.parametrize("g, seed", CLOSED_FORM)
    def test_curve_gen_is_stable_and_read_back(self, g, seed, tmp_path):
        argv = ["--g", str(g), "--gonality", "3", "--seed", str(seed)]
        report = cli_report(tmp_path, "curve-gen", *argv)
        assert cli_report(tmp_path, "curve-gen", *argv) == report
        data = json.loads(report)["curve"]
        assert jsonio.curve_to_json(jsonio.curve_from_json(data)) == data
        curve_file = tmp_path / "curve.json"
        curve_file.write_text(json.dumps(data))
        assert (cli_report(tmp_path, "alpha", "--in", str(curve_file), "--seed", str(seed))
                == cli_report(tmp_path, "alpha", *argv))


KERNEL_DRAWN = [pytest.param(g, split, seed, id=f"g{g}-{split[0]}{split[1]}-{seed}")
                for g in range(6, 18) for split in admissible_splits(g) for seed in TRIAL_SEEDS]


@lru_cache(maxsize=None)
def kernel_drawn_curve(g, split, seed):
    """A tetragonal curve and the (through, section) of the two
    `random_section` calls of its accepted attempt."""
    calls = []
    original = curvegen.random_section

    def recording(scroll, cls, rng, through=()):
        section = original(scroll, cls, rng, through=through)
        calls.append((through, section))
        return section

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(curvegen, "random_section", recording)
        curve = tetragonal_curve(g, *split, seed)
    return curve, tuple(calls[-2:])


class TestKernelDrawnTetragonal:
    """Tetragonal sections drawn from the unscaled integer kernel of their
    point conditions, at g = 6..17, every admissible split and the trial
    seeds of `verify-b --seed 1..3`."""

    @pytest.mark.parametrize("g, split, seed", KERNEL_DRAWN)
    def test_equation_height_is_small(self, g, split, seed):
        curve, _ = kernel_drawn_curve(g, split, seed)
        assert max(abs(c).bit_length() for equation in curve.equations
                   for _, row in equation.image for c in row) <= 64

    @pytest.mark.parametrize("g, split, seed", KERNEL_DRAWN)
    def test_forced_fiber_count(self, g, split, seed):
        curve, _ = kernel_drawn_curve(g, split, seed)
        forced = max(0, min(min(section_count(curve.scroll, c) for c in curve.classes) - 6, 6))
        assert len(curve.rational_fiber_hints) == curve.guaranteed_point_count == forced

    @pytest.mark.parametrize("g, split, seed", KERNEL_DRAWN)
    def test_sections_vanish_at_every_forced_point(self, g, split, seed):
        curve, drawn = kernel_drawn_curve(g, split, seed)
        assert tuple(section for _, section in drawn) == curve.equations
        for through, section in drawn:
            assert [base for base, _ in through] == [(t.denominator, t.numerator)
                                                    for t in curve.rational_fiber_hints]
            for base, fiber in through:
                assert _form_value(section.restrict(base), section.image, fiber) == 0

    @pytest.mark.parametrize("g, split, seed", KERNEL_DRAWN)
    def test_curve_is_read_back(self, g, split, seed):
        curve, _ = kernel_drawn_curve(g, split, seed)
        assert jsonio.curve_from_json(jsonio.curve_to_json(curve)) == curve

    @pytest.mark.parametrize("g, split, seed", KERNEL_DRAWN)
    def test_alpha_reads_the_written_curve(self, g, split, seed, tmp_path):
        curve, _ = kernel_drawn_curve(g, split, seed)
        curve_file = tmp_path / "curve.json"
        curve_file.write_text(json.dumps(jsonio.curve_to_json(curve)))
        argv = ["--g", str(g), "--gonality", "4", "--split", f"{split[0]},{split[1]}",
                "--seed", str(seed)]
        assert (cli_report(tmp_path, "alpha", "--in", str(curve_file), "--seed", str(seed))
                == cli_report(tmp_path, "alpha", *argv))


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

    @pytest.mark.parametrize("scroll_type, split, match", [
        ((1, 1, 2), (-1, 3), "negative"), ((1, 1, 2), (1, 2), "does not sum"),
        ((3, 3, 3), (0, 7), "no sections"), ((3, 2, 2), (0, 5), "only reducible"),
        ((2, 3, 2), (5, 0), "only reducible")])
    def test_split_rules_on_any_scroll(self, scroll_type, split, match):
        # the rules read the sorted type, so a file's unsorted scroll
        # meets the same ones as the balanced scroll of the generators
        with pytest.raises(ValueError, match=match):
            tetragonal_surfaces(Scroll(scroll_type), *split)

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
            tetragonal_surfaces(scroll, *split)
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
                classes = tetragonal_surfaces(Scroll(balanced_type(g - 3, 3)), *split)
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
        assert all(evaluate(conic(q1), p) == 0 == evaluate(conic(q2), p) for p in closed)

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
            assert evaluate(fiber_form(section, base), fiber) == 0
            assert _form_value(section.restrict(base), section.image, fiber) == 0

    @pytest.mark.parametrize("scroll_type, h, f, through", [
        ((1, 2), 3, -1, [((1, 2), (1, -1)), ((1, 2), (3, 1)), ((2, -1), (1, 4))]),
        ((1, 1, 2), 2, -1, [((1, 2), (1, -1, 1)), ((3, -1), (2, 0, 1)), ((1, 0), (0, 1, 1))])])
    def test_constrained_section_is_the_canonical_kernel_combination(
            self, scroll_type, h, f, through):
        # the same draws combine the integer kernel vectors of the point
        # conditions, none of them rescaled, into exactly the same
        # coefficients, and the stream moves on by the draws alone
        scroll = Scroll(scroll_type)
        cls = scroll.cls(h, f)
        slots = _section_slots(scroll, cls)
        rng, reference = make_rng(5), make_rng(5)
        section = random_section(scroll, cls, rng, through=through)
        rows = [_row_to_int([_monomial_value(base, bexp) * _monomial_value(fiber, exp)
                             for exp, bexp in slots]) for base, fiber in through]
        kernel = _kernel_vectors(rows, len(slots))
        combo = [reference.randint(-9, 9) for _ in kernel]
        vector = [sum(c * v.get(j, 0) for c, v in zip(combo, kernel)) for j in range(len(slots))]
        assert section == _section_from_vector(scroll, cls, slots, vector)
        assert rng.random() == reference.random()


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
                assert evaluate(q, p) == 0

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
        recon = ideal_pieces(curve, 5)
        assert len(recon.degree2) == 3
        assert len(recon.degree3) == 15
        assert recon.points == tuple(pts) and pts

    def test_tetragonal_dims(self):
        curve = tetragonal_curve(7, 1, 1, seed=10)
        recon = ideal_pieces(curve, 10)
        assert len(recon.degree2) == 10
        assert len(recon.degree3) == 54

    def test_scroll_quadrics_inside_degree_two_piece(self):
        curve = trigonal_curve(6, seed=11)
        recon = ideal_pieces(curve, 11)
        for q in scroll_quadrics(curve.scroll):
            assert piece_contains(recon_piece(recon, 2), q)

    def test_degree_two_piece_matches_point_kernel(self):
        # dual route: with enough exact points the evaluation kernel in
        # degree 2 equals the closed-form piece
        curve = trigonal_curve(5, seed=12)
        pts = sample_points(curve, 15, seed=6)
        recon = ideal_pieces(curve, 6, 15)
        assert recon.points == tuple(pts)
        basis = monomial_basis(5, 2)
        kernel = ExactMatrix(_evaluation_matrix(pts, pts, 5, 2)).kernel()
        assert kernel.nrows == len(recon.degree2)
        reduced_a, _ = kernel.rref()
        reduced_b, _ = coefficient_matrix(recon_piece(recon, 2).basis).rref()
        assert reduced_a == reduced_b

    def test_evaluation_matrix_is_the_monomial_values(self):
        # one multiplication per value, from the degree below
        curve = tetragonal_curve(7, 1, 1, seed=3)
        pts = sample_points(curve, curve.guaranteed_point_count, seed=3)
        values = pts
        for degree in (2, 3, 4):
            values = _evaluation_matrix(pts, values, 7, degree)
            assert values == [[_monomial_value(p, exp) for exp in monomial_basis(7, degree)]
                              for p in pts]

    def test_ideal_elements_vanish_on_points(self):
        curve = tetragonal_curve(6, 0, 1, seed=13)
        pts = sample_points(curve, curve.guaranteed_point_count, seed=7)
        recon = ideal_pieces(curve, 7)
        assert recon.points == tuple(pts)
        for p in pts:
            for q in recon_piece(recon, 2).basis + recon_piece(recon, 3).basis:
                assert evaluate(q, p) == 0

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
        recon = ideal_pieces(curve, 1)
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
        calls = []
        for name in ("rref", "kernel"):
            original = getattr(ExactMatrix, name)

            def recording(self, name=name, original=original):
                calls.append(name)
                return original(self)
            monkeypatch.setattr(ExactMatrix, name, recording)
        recon = ideal_pieces(curve, 1)
        recon.degree3
        assert calls == [] and recon.points

    @pytest.mark.parametrize("g, split", [(8, None), (8, (1, 2))])
    def test_constructs_no_polynomial(self, g, split, monkeypatch):
        # the pieces stay the sparse integer rows `_piece` writes down
        if split is None:
            curve = trigonal_curve(g, seed=1)
        else:
            curve = tetragonal_curve(g, *split, seed=1)
        expected = ideal_pieces(curve, 1)
        expected.degree3

        def forbidden(self, *args):
            raise AssertionError("ideal_pieces built a Polynomial")
        monkeypatch.setattr(Polynomial, "__init__", forbidden)
        recon = ideal_pieces(curve, 1)
        assert recon == expected
        assert recon.degree3 == tuple(curvegen._piece(curve, 3)) == expected.degree3
        assert (recon.points, recon.degree2) == (expected.points, expected.degree2)

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
        recon = ideal_pieces(curve, 1)
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
        expected = ideal_pieces(curve, 1)
        expected.degree3    # built before the patch, at full rank
        monkeypatch.setattr(curvegen, "_rank_mod_prime",
                            lambda rows, ncols: _rank_mod_prime(rows, ncols) - 1)
        fallback = ideal_pieces(curve, 1)
        for k in (2, 3):
            a, b = recon_piece(expected, k), recon_piece(fallback, k)
            assert a.dim == b.dim
            assert coefficient_matrix(a.basis).rref() == coefficient_matrix(b.basis).rref()

    def test_dropped_lift_row_fails_the_dimension_check(self, monkeypatch):
        # a lost lift still vanishes on the points; only the count of the
        # built pieces sees it, the closed counts being the curve's
        curve = tetragonal_curve(7, 1, 1, seed=1)
        original = curvegen._piece
        monkeypatch.setattr(curvegen, "_piece", lambda c, k: original(c, k)[:-1])
        recon = ideal_pieces(curve, 1)
        assert recon.points and not nonvanishing(recon.degree2, recon.points, 7, 2)
        with pytest.raises(IdealDimensionError) as err:
            recon.degree3
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
        recon = ideal_pieces(curve, 1)
        assert (len(recon.degree2), len(recon.degree3)) == dims
        assert recon.points == tuple(points) and points

    def test_points_of_another_curve_fail_the_certificate(self):
        # a trigonal degree-2 piece is the scroll's binomials, which every
        # point of the scroll passes: the equation's degree-3 lifts fail
        # when that piece is first read
        points = sample_points(trigonal_curve(5, 2), 3, 1)
        recon = cached(ideal_pieces(trigonal_curve(5, 1), 1), points=tuple(points))
        assert recon.degree2
        with pytest.raises(PointCertificateError):
            recon.degree3
        # a tetragonal degree-2 piece holds both equations' lifts
        points = sample_points(tetragonal_curve(7, 1, 1, 2), 2, 1)
        with pytest.raises(PointCertificateError):
            cached(ideal_pieces(tetragonal_curve(7, 1, 1, 1), 1), points=tuple(points)).degree2

    @pytest.mark.parametrize("g, split", [(5, None), (8, None), (7, (1, 1)), (8, (1, 2))])
    def test_one_changed_coordinate_fails_the_certificate(self, g, split, monkeypatch):
        # a point moved off the scroll fails a binomial e_j - e_rep, which
        # points of another curve on the same scroll never do: it fails
        # the certificate even when the pieces keep only their binomials
        if split is None:
            curve = trigonal_curve(g, seed=1)
        else:
            curve = tetragonal_curve(g, *split, seed=1)
        points = ideal_pieces(curve, 1).points
        ideal_pieces(curve, 1).degree3
        moved = []
        for i in range(g):
            point = list(points[0])
            point[i] += 1
            moved.append((tuple(point),) + points[1:])
            with pytest.raises(PointCertificateError):
                cached(ideal_pieces(curve, 1), points=moved[-1]).degree2
        original = curvegen._piece
        monkeypatch.setattr(curvegen, "_piece", lambda c, k: [
            row for row in original(c, k) if tuple(row.values()) == (1, -1)])
        with pytest.raises(IdealDimensionError):
            ideal_pieces(curve, 1).degree3
        for sample in moved:
            with pytest.raises(PointCertificateError):
                cached(ideal_pieces(curve, 1), points=sample).degree2

    def test_zero_equation_fails_the_dimension_check(self):
        # only the scroll's own ideal is left: 13 cubics instead of 15
        curve = trigonal_curve(5, 1)
        (equation,) = curve.equations
        zero = BihomSection(equation.scroll, equation.cls,
                            {exp: Polynomial(2, form.degree, {})
                             for exp, form in equation.coeffs.items()})
        # no point: a zero equation leaves no fiber to sample
        with pytest.raises(IdealDimensionError) as err:
            ideal_pieces(replaced(curve, equations=(zero,)), 1, 0)
        assert err.value.got == (3, 13)
        assert err.value.expected == (3, 15)

    @pytest.mark.parametrize("scroll_type", [
        (1, 2), (2, 2), (3, 4), (0, 3), (1, 1, 1), (0, 1, 1), (1, 2, 2), (0, 0, 2)])
    def test_restriction_classes_match_the_reference(self, scroll_type):
        # each class one coordinate step from a class one degree lower,
        # against the pullback summed coordinate by coordinate
        scroll = Scroll(scroll_type)
        for k in range(4):
            assert _restriction_classes(scroll, k) == tuple(
                ambient_restriction(scroll, exp) for exp in monomial_basis(scroll.N + 1, k))

    def test_genus_adjunction_rejects_threefolds(self):
        s = Scroll((1, 1, 2))
        with pytest.raises(ValueError):
            genus_adjunction(s, s.H)

    def test_genus_adjunction_quadric_surface(self):
        s = Scroll((1, 1))
        assert genus_adjunction(s, s.cls(2, 0)) == 1


def product_section(scroll, cls, *factors):
    """The section of `cls` that is the product of `factors`, each a map
    (fiber exponent, base exponent) -> integer coefficient."""
    terms = {((0,) * scroll.k, (0, 0)): 1}
    for factor in factors:
        product = {}
        for (e1, b1), c1 in terms.items():
            for (e2, b2), c2 in factor.items():
                key = tuple(map(add, e1, e2)), tuple(map(add, b1, b2))
                product[key] = product.get(key, 0) + c1 * c2
        terms = product
    return BihomSection(scroll, cls, {
        exp: Polynomial(2, degree, {b: c for (e, b), c in terms.items() if e == exp and c})
        for exp, degree in section_templates(scroll, cls)})


def curve_of(g, split):
    """The curve of seed 1: trigonal when `split` is None."""
    if split is None:
        return trigonal_curve(g, seed=1)
    return tetragonal_curve(g, *split, seed=1)


class TestCubicCountCertificate:
    """`ideal_pieces` builds no piece and samples no point when the closed
    counts `_piece_count` are the canonical ones, (a) at degree 3 and the
    degree-2 count, and (b) the equations share no factor of positive
    H-degree (`_cubic_count_certified`); otherwise it builds, checks and
    counts both pieces at once, as it always did."""

    @pytest.mark.parametrize("g", range(5, 10))
    def test_count_is_the_piece_built(self, g):
        for split in [None] + list(admissible_splits(g) if g >= 6 else ()):
            curve = curve_of(g, split)
            assert (_piece_count(curve.scroll, curve.classes, 3)
                    == len(curvegen._piece(curve, 3)) == expected_cubic_dim(g))
            assert (_piece_count(curve.scroll, curve.classes, 2)
                    == len(curvegen._piece(curve, 2)) == expected_quadric_dim(g))
            assert _cubic_count_certified(curve)
            # with no hint, a fixed base point serves for (b)
            assert _cubic_count_certified(replaced(curve, rational_fiber_hints=()))

    def test_count_is_the_canonical_count_up_to_the_guards(self):
        for g in range(5, 31):
            scroll = Scroll(balanced_type(g - 2, 2))
            classes = [scroll.cls(3, 4 - g)]
            assert _piece_count(scroll, classes, 3) == expected_cubic_dim(g)
            assert _piece_count(scroll, classes, 2) == expected_quadric_dim(g)
        for g in range(6, 31):
            scroll = Scroll(balanced_type(g - 3, 3))
            for split in admissible_splits(g):
                classes = tetragonal_surfaces(scroll, *split)
                assert _piece_count(scroll, classes, 3) == expected_cubic_dim(g)
                assert _piece_count(scroll, classes, 2) == expected_quadric_dim(g)

    @pytest.mark.parametrize("g, split", [(8, None), (8, (1, 2))])
    def test_degree3_is_built_on_first_read(self, g, split, monkeypatch):
        curve = curve_of(g, split)
        points = sample_points(curve, curve.guaranteed_point_count, seed=1)
        degrees = []
        original = curvegen._piece
        monkeypatch.setattr(curvegen, "_piece",
                            lambda c, k: degrees.append(k) or original(c, k))
        sampled = []
        sample = curvegen.sample_points
        monkeypatch.setattr(curvegen, "sample_points",
                            lambda *args: sampled.append(args) or sample(*args))
        recon = ideal_pieces(curve, 1)
        assert degrees == [] and sampled == []
        assert not {"points", "degree2", "degree3"} & set(vars(recon))
        rows = recon.degree3
        assert degrees == [2, 3] and vars(recon)["degree3"] is rows is recon.degree3
        assert sampled == [(curve, curve.guaranteed_point_count, 1)]
        assert rows == tuple(original(curve, 3))
        assert recon.degree2 == tuple(original(curve, 2)) and recon.points == tuple(points)
        # the pieces and the points stay out of equality
        assert recon == ideal_pieces(curve, 1)

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_failed_count_builds_the_piece_at_once(self, k, monkeypatch):
        curve = curve_of(7, (1, 1))
        expected = ideal_pieces(curve, 1)
        count = curvegen._piece_count
        monkeypatch.setattr(curvegen, "_piece_count", lambda scroll, classes, degree: (
            -1 if degree == k else count(scroll, classes, degree)))
        recon = ideal_pieces(curve, 1)
        assert vars(recon)["degree3"] == expected.degree3 and recon == expected
        assert vars(recon)["degree2"] == expected.degree2 and recon.points == expected.points

    def test_a_common_factor_takes_the_fallback(self, tmp_path):
        # q_i = L M_i on S(1, 1, 2), L = s y1 of class H, M1 = y2 + t y3 and
        # M2 = y1 + s y3 of class H - F: the count (a) holds, but every
        # fiber's conics share L, so (b) fails.  The degree-2 lifts are
        # independent; the degree-3 ones meet the syzygy (M2, -M1) times
        # each of the 3 sections of 2F
        scroll = Scroll((1, 1, 2))
        classes = (scroll.cls(2, -1),) * 2
        common = {((1, 0, 0), (1, 0)): 1}
        factors = ({((0, 1, 0), (0, 0)): 1, ((0, 0, 1), (0, 1)): 1},
                   {((1, 0, 0), (0, 0)): 1, ((0, 0, 1), (1, 0)): 1})
        curve = CurveSpec(7, 4, scroll, classes, tuple(
            product_section(scroll, cls, common, factor) for cls, factor in zip(classes, factors)),
            seed=1)
        assert _piece_count(scroll, classes, 3) == expected_cubic_dim(7)
        assert _piece_count(scroll, classes, 2) == expected_quadric_dim(7)
        assert not _cubic_count_certified(curve)
        # recorded before the certificate existed, when every curve built
        # its degree-3 piece
        message = ("ideal piece dimensions (10, 51) differ from the expected (10, 54); "
                   "the curve or the sampling is degenerate")
        with pytest.raises(IdealDimensionError) as err:
            ideal_pieces(curve, 1)
        assert str(err.value) == message
        path, out = tmp_path / "curve.json", tmp_path / "report.json"
        path.write_text(json.dumps(jsonio.curve_to_json(curve)))
        assert main(["alpha", "--in", str(path), "--seed", "1", "--out", str(out)]) == 1
        assert out.read_text() == '{\n  "error": "%s",\n  "passed": false\n}\n' % message


class TestTupleWiseCertificate:
    """The pieces read the binomials of a point with one tuple comparison
    and each lift with one product sum; a piece with exactly one binomial
    and a lift with exactly one term reads one index each, where a bare
    `itemgetter` would return a scalar."""

    def patched(self, monkeypatch, k, binomial=None):
        """Trigonal g = 5 on the scroll (1, 2), coordinates x0 .. x4 =
        s y1, t y1, s^2 y2, s t y2, t^2 y2.  The degree-k piece becomes one
        binomial and the one-term lift 3 x0 x4^(k - 1), the other piece
        none; both rows vanish at scroll points with fiber (1 : 0) or
        (0 : 1), the honest points.  The default binomial is the real
        one on x2 x4^(k - 1) = x3^2 x4^(k - 2), nonzero at fiber (0 : 1)."""
        curve = trigonal_curve(5, seed=1)
        basis = monomial_basis(5, k)
        if binomial is None:
            binomial = {basis.index((0, 0, 1, 0, k - 1)): 1,
                        basis.index((0, 0, 0, 2, k - 2)): -1}
            assert binomial in curvegen._piece(curve, k)
        rows = [binomial, {basis.index((1, 0, 0, 0, k - 1)): 3}]
        monkeypatch.setattr(curvegen, "_piece", lambda c, degree: rows if degree == k else [])
        points = [embedded_point(curve.scroll, base, fiber)
                  for base in ((1, 2), (3, -1), (2, 5)) for fiber in ((1, 0), (0, 1))]
        return curve, points, rows

    @staticmethod
    def fails(rows, k, points):
        return bool(nonvanishing(rows, points, 5, k))

    @staticmethod
    def pieces(curve, points):
        """Both pieces of the curve, checked on `points` in place of its
        sampled ones: degree 2 first, then degree 3 and the counts."""
        return cached(ideal_pieces(curve, 1), points=tuple(points)).degree3

    @pytest.mark.parametrize("k", [2, 3])
    def test_honest_points_pass(self, k, monkeypatch):
        curve, points, rows = self.patched(monkeypatch, k)
        assert not self.fails(rows, k, points)
        # the certificate passes; only the dimension count sees the piece
        with pytest.raises(IdealDimensionError):
            self.pieces(curve, points)

    @pytest.mark.parametrize("k", [2, 3])
    def test_one_perturbed_coordinate_fails(self, k, monkeypatch):
        curve, points, rows = self.patched(monkeypatch, k)
        caught = set()
        for n, point in enumerate(points):
            for i in range(5):
                moved = list(points)
                moved[n] = point[:i] + (point[i] + 1,) + point[i + 1:]
                failing = [row for row in rows if self.fails([row], k, moved)]
                if failing:
                    caught.update(len(row) for row in failing)
                    with pytest.raises(PointCertificateError):
                        self.pieces(curve, moved)
                else:
                    with pytest.raises(IdealDimensionError):
                        self.pieces(curve, moved)
        # some moves break the binomial and some the one-term lift
        assert caught == {1, 2}

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_rep_moved_to_another_class_fails(self, k, monkeypatch):
        basis = monomial_basis(5, k)
        # x2 x4^(k - 1) against x4^k, of another class: s^2 t^(2k - 2)
        # against t^(2k), apart at every (0 : 1) point with s != 0
        binomial = {basis.index((0, 0, 1, 0, k - 1)): 1, basis.index((0, 0, 0, 0, k)): -1}
        curve, points, rows = self.patched(monkeypatch, k, binomial)
        assert self.fails(rows, k, points)
        with pytest.raises(PointCertificateError):
            self.pieces(curve, points)
