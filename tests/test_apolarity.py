from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
import sympy

from apolar_kit import apolarity
from apolar_kit.apolarity import (GradedIdealPiece, SocleDimensionError,
                                  apolar_ideal_piece, hilbert_function, inverse_system,
                                  macaulay_inverse)
from apolar_kit.core import (ExactMatrix, Polynomial, _row_to_int, change_coordinates,
                             monomial_basis)
from apolar_kit.seeding import make_rng, random_form
from oracles import (annihilator_piece, catalecticant, contract, from_spanning,
                     hilbert_vector, is_apolar_scheme, piece_contains,
                     random_invertible_matrix)


def fermat(n):
    return Polynomial(n, 3, {tuple(3 if i == j else 0 for j in range(n)): 1
                             for i in range(n)})


def sympy_catalecticant_ranks(f, n):
    """Independent oracle: ranks of the contraction maps via sympy calculus."""
    xs = sympy.symbols(f"x0:{n}")
    expr = sum(sympy.Rational(c) * sympy.prod(x ** e for x, e in zip(xs, exp))
               for exp, c in f.terms.items())
    d = f.degree
    ranks = []
    for k in range(d + 1):
        rows = []
        for exp in monomial_basis(n, k):
            g = expr
            for x, e in zip(xs, exp):
                g = sympy.diff(g, x, e)
            g = sympy.Poly(sympy.expand(g), *xs)
            rows.append([g.coeff_monomial(sympy.prod(x ** e for x, e in zip(xs, m)))
                         for m in monomial_basis(n, d - k)])
        ranks.append(sympy.Matrix(rows).rank())
    return ranks


def contract_catalecticant(form, k):
    """Reference construction: one `contract` per dual monomial column."""
    n, d = form.nvars, form.degree
    cols = monomial_basis(n, k)
    row_index = {exp: i for i, exp in enumerate(monomial_basis(n, d - k))}
    matrix = [[Fraction(0)] * len(cols) for _ in row_index]
    for j, a in enumerate(cols):
        for exp, c in contract(Polynomial.monomial(a), form).terms.items():
            matrix[row_index[exp]][j] = c
    return ExactMatrix(matrix)


def contract_condition_rows(ops, degree, d, columns):
    """Reference conditions `D . F = 0`: one `contract` per operator (an
    integer term map) and column, each row scaled to integers."""
    nvars = len(columns[0])
    targets = monomial_basis(nvars, d - degree)
    rows = []
    for op in (Polynomial(nvars, degree, terms) for terms in ops):
        by_target = {t: [Fraction(0)] * len(columns) for t in targets}
        for j, m in enumerate(columns):
            for exp, c in contract(op, Polynomial.monomial(m)).terms.items():
                by_target[exp][j] = c
        rows.extend(_row_to_int(by_target[t]) for t in targets)
    return rows


def rational_form(n, d, rng):
    terms = {exp: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
             for exp in monomial_basis(n, d)}
    return Polynomial(n, d, terms)


class TestContractionRows:
    def test_catalecticant_matches_contract(self):
        rng = make_rng(41)
        for n in range(2, 6):
            for d in (2, 3, 4):
                for f in (random_form(n, d, rng), rational_form(n, d, rng),
                          Polynomial(n, d, {(d,) + (0,) * (n - 1): Fraction(2, 3)})):
                    for k in range(d + 1):
                        assert catalecticant(f, k) == contract_catalecticant(f, k)

    def test_inverse_system_matches_contract_conditions(self, monkeypatch):
        rng = make_rng(42)
        cases = []
        for _ in range(12):
            n = rng.randint(2, 4)
            # a form missing the last variable has a nonzero degree-1 piece
            f = rational_form(n, 3, rng)
            f = Polynomial(n, 3, {e: c for e, c in f.terms.items() if not e[-1]})
            linear = list(apolar_ideal_piece(f, 1).basis)
            quadrics = list(apolar_ideal_piece(f, 2).basis)
            kept = rng.sample(quadrics, rng.randint(1, len(quadrics)))
            extra = [p * Fraction(rng.randint(1, 9), rng.randint(1, 9)) for p in kept]
            if len(kept) > 1:
                extra.append(kept[0] * Fraction(1, 3) - kept[1] * 7)
            spanning2 = kept + extra + [Polynomial.zero(n, 2)]
            rng.shuffle(spanning2)
            spanning1 = linear + [linear[0] * Fraction(-5, 4)]
            cases.append([GradedIdealPiece(1, n, tuple(spanning1)),
                          GradedIdealPiece(2, n, tuple(spanning2))])
            random2 = [rational_form(n, 2, rng) for _ in range(rng.randint(1, 2))]
            cases.append([GradedIdealPiece(2, n, tuple(random2 + [random2[0] * 3]))])
        found = [inverse_system(pieces, 3) for pieces in cases]
        canonical = [inverse_system([from_spanning(p.degree, p.nvars, p.basis)
                                     for p in pieces], 3) for pieces in cases]
        monkeypatch.setattr(apolarity, "_condition_rows", contract_condition_rows)
        reference = [inverse_system(pieces, 3) for pieces in cases]
        assert found == reference == canonical
        assert any(len(solutions) > 1 for solutions in found)


class TestCatalecticant:
    def test_fermat_quadric_kernel(self):
        cat = catalecticant(fermat(3), 2)
        assert (cat.nrows, cat.ncols) == (3, 6)
        assert cat.rank() == 3
        assert cat.kernel().nrows == 3

    def test_single_cube_rank_one(self):
        f = Polynomial(2, 3, {(3, 0): 1})
        assert catalecticant(f, 1).rank() == 1

    def test_generic_quintuple_rank(self):
        rng = make_rng(21)
        for _ in range(20):
            f = random_form(5, 3, rng)
            assert catalecticant(f, 1).rank() == 5

    def test_rank_symmetry(self):
        rng = make_rng(22)
        for _ in range(20):
            n = rng.randint(2, 4)
            d = rng.randint(2, 4)
            f = random_form(n, d, rng)
            ranks = [catalecticant(f, k).rank() for k in range(d + 1)]
            assert ranks == ranks[::-1]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            catalecticant(fermat(3), 4)


class TestApolarIdealPiece:
    def test_fermat_degree_two_basis(self):
        piece = apolar_ideal_piece(fermat(3), 2)
        expected = {Polynomial.monomial(tuple(1 if k in (i, j) else 0 for k in range(3)))
                    for i, j in combinations(range(3), 2)}
        assert set(piece.basis) == expected

    def test_fermat_degree_three_contains_cube_differences(self):
        # the kernel in top degree has codimension 1, so its dimension is
        # the ambient count minus one; it must contain every d_i^3 - d_j^3
        piece = apolar_ideal_piece(fermat(3), 3)
        assert piece.dim == comb(5, 3) - 1
        for i, j in combinations(range(3), 2):
            diff = Polynomial(3, 3, {tuple(3 if k == i else 0 for k in range(3)): 1,
                                     tuple(3 if k == j else 0 for k in range(3)): -1})
            assert piece_contains(piece, diff)

    def test_degree_zero_piece_trivial(self):
        rng = make_rng(23)
        f = random_form(3, 3, rng)
        assert apolar_ideal_piece(f, 0).dim == 0

    def test_degree_d_plus_one_is_everything(self):
        f = fermat(3)
        piece = apolar_ideal_piece(f, 4)
        assert piece.dim == piece.ambient_dim == comb(6, 4)

    def test_ideal_property_under_multiplication(self):
        # eta * D stays in the annihilator one degree up
        rng = make_rng(24)
        for _ in range(20):
            n = rng.randint(2, 4)
            f = random_form(n, 3, rng)
            piece2 = apolar_ideal_piece(f, 2)
            piece3 = apolar_ideal_piece(f, 3)
            if piece2.dim == 0:
                continue
            eta = random_form(n, 1, rng)
            d = piece2.basis[rng.randrange(piece2.dim)]
            assert piece_contains(piece3, eta * d)


class TestPieceContains:
    def test_shape_is_checked_before_emptiness(self):
        empty = GradedIdealPiece(2, 3, ())
        nonempty = apolar_ideal_piece(fermat(3), 2)
        for poly in (Polynomial.zero(3, 3), Polynomial.zero(2, 2)):
            for piece in (empty, nonempty):
                with pytest.raises(ValueError, match="mismatch"):
                    piece_contains(piece, poly)
        assert piece_contains(empty, Polynomial.zero(3, 2))
        assert not piece_contains(empty, Polynomial.monomial((1, 1, 0)))

    def test_membership_is_the_span(self):
        # a dependent, rational spanning set: sums of its elements are in,
        # and a perturbation outside the span is out
        rng = make_rng(29)
        for _ in range(10):
            n = rng.randint(2, 4)
            piece = apolar_ideal_piece(random_form(n, 3, rng), 2)
            if piece.dim == 0:
                continue
            spanning = GradedIdealPiece(2, n, piece.basis + (piece.basis[0] * Fraction(3, 7),))
            combination = Polynomial.zero(n, 2)
            for q in piece.basis:
                combination = combination + q * Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            assert piece_contains(spanning, combination)
            outside = monomial_basis(n, 2)[0]
            reference = from_spanning(2, n, list(piece.basis) + [Polynomial.monomial(outside)])
            assert piece_contains(spanning, Polynomial.monomial(outside)) == (
                reference.dim == piece.dim)


def oracle_forms():
    """Forms of degree 1..6 in 1..4 variables: dense random ones with
    integer and with rational coefficients, and ones that are not concise
    (a form in fewer variables moved by a change of coordinates)."""
    rng = make_rng(28)
    forms = []
    for d in range(1, 7):
        for n in range(1, 5 if d < 5 else 4):
            f = random_form(n, d, rng)
            forms.append(f)
            forms.append(Polynomial(n, d, {e: Fraction(c, rng.randint(1, 6))
                                           for e, c in f.terms.items()}))
            if n > 1:
                inner = random_form(n - 1, d, rng)
                forms.append(change_coordinates(
                    Polynomial(n, d, {e + (0,): c for e, c in inner.terms.items()}),
                    random_invertible_matrix(n, rng)))
    return forms


class TestAgainstRationalOracle:
    """The integer catalecticant path gives what the rational matrices gave."""

    @pytest.mark.parametrize("form", oracle_forms())
    def test_hilbert_function_and_every_piece(self, form):
        assert hilbert_function(form) == hilbert_vector(form)
        for k in range(form.degree + 2):
            assert apolar_ideal_piece(form, k) == annihilator_piece(form, k)

    def test_zero_form_pieces(self):
        zero = Polynomial.zero(3, 3)
        for k in range(5):
            assert apolar_ideal_piece(zero, k) == annihilator_piece(zero, k)


class TestHilbertFunction:
    def test_generic_cubic_five_variables(self):
        rng = make_rng(25)
        for _ in range(5):
            f = random_form(5, 3, rng)
            assert hilbert_function(f).hilbert == (1, 5, 5, 1)

    def test_single_cube(self):
        f = Polynomial(3, 3, {(3, 0, 0): 1})
        assert hilbert_function(f).hilbert == (1, 1, 1, 1)

    def test_binary_x0sq_x1_against_sympy_oracle(self):
        f = Polynomial(2, 3, {(2, 1): 1})
        profile = hilbert_function(f)
        assert profile.hilbert == (1, 2, 2, 1)
        assert list(profile.hilbert) == sympy_catalecticant_ranks(f, 2)

    def test_random_against_sympy_oracle(self):
        rng = make_rng(26)
        for _ in range(5):
            n = rng.randint(2, 3)
            d = rng.randint(2, 3)
            f = random_form(n, d, rng)
            assert list(hilbert_function(f).hilbert) == sympy_catalecticant_ranks(f, n)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hilbert_function(Polynomial.zero(2, 3))

    def test_symmetry_and_socle(self):
        rng = make_rng(27)
        for _ in range(20):
            f = random_form(rng.randint(2, 4), rng.randint(2, 4), rng)
            profile = hilbert_function(f)
            assert profile.is_symmetric()
            assert profile.socle_dim == 1


class TestInverseSystem:
    def test_fermat_quadrics_leave_the_cubes(self):
        # the degree-2 annihilator of a Fermat cubic kills exactly the
        # span of the cubes x_i^3 in degree 3
        n = 4
        piece2 = apolar_ideal_piece(fermat(n), 2)
        solutions = inverse_system([piece2], 3)
        assert len(solutions) == n
        span = from_spanning(3, n, solutions)
        cubes = from_spanning(
            3, n, [Polynomial.monomial(tuple(3 if k == i else 0 for k in range(n)))
                   for i in range(n)])
        assert span == cubes

    def test_no_nonempty_piece_gives_the_monomials(self):
        empty = GradedIdealPiece(2, 2, ())
        assert inverse_system([empty], 3) == [Polynomial.monomial(e)
                                              for e in monomial_basis(2, 3)]

    def test_mixed_rings_rejected(self):
        with pytest.raises(ValueError):
            inverse_system([apolar_ideal_piece(fermat(2), 2),
                            apolar_ideal_piece(fermat(3), 2)], 3)

    def test_matches_macaulay_inverse_when_one_dimensional(self):
        rng = make_rng(27)
        for _ in range(5):
            n = rng.randint(2, 4)
            f = random_form(n, 3, rng)
            pieces = [apolar_ideal_piece(f, k) for k in (2, 3)]
            [solution] = inverse_system(pieces, 3)
            assert solution.normalized() == macaulay_inverse(pieces, 3) == f.normalized()


class TestMacaulayInverse:
    def test_single_annihilated_variable(self):
        # ideal generated by d1 in two dual variables forces F = x0^3
        pieces = []
        for k in range(1, 4):
            polys = [Polynomial.monomial(exp)
                     for exp in monomial_basis(2, k) if exp[1] > 0]
            pieces.append(GradedIdealPiece(k, 2, tuple(polys)))
        assert macaulay_inverse(pieces, 3) == Polynomial(2, 3, {(3, 0): 1})

    def test_fermat_from_generators(self):
        # span the ideal (d_i d_j, d_i^3 - d_j^3) by hand and invert it
        n = 3
        quad = [Polynomial.monomial(tuple(1 if k in (i, j) else 0 for k in range(n)))
                for i, j in combinations(range(n), 2)]
        piece2 = from_spanning(2, n, quad)
        cubics = [Polynomial.variable(i, n) * q for q in quad for i in range(n)]
        for i, j in combinations(range(n), 2):
            cubics.append(Polynomial(n, 3, {tuple(3 if k == i else 0 for k in range(n)): 1,
                                            tuple(3 if k == j else 0 for k in range(n)): -1}))
        piece3 = from_spanning(3, n, cubics)
        result = macaulay_inverse([piece2, piece3], 3)
        assert result == fermat(n).normalized()

    def test_round_trip_random_cubics(self):
        rng = make_rng(28)
        for _ in range(10):
            n = rng.randint(2, 5)
            f = random_form(n, 3, rng)
            pieces = [apolar_ideal_piece(f, k) for k in range(1, 4)]
            assert macaulay_inverse(pieces, 3) == f.normalized()

    def test_round_trip_degree_four(self):
        rng = make_rng(29)
        for _ in range(5):
            n = rng.randint(2, 4)
            f = random_form(n, 4, rng)
            pieces = [apolar_ideal_piece(f, k) for k in range(1, 5)]
            assert macaulay_inverse(pieces, 4) == f.normalized()

    def test_socle_failure_reports_dimension(self):
        piece = GradedIdealPiece(2, 3, (Polynomial.monomial((1, 1, 0)),))
        with pytest.raises(SocleDimensionError) as err:
            macaulay_inverse([piece], 3)
        assert err.value.dimension == 7
        assert err.value.hilbert[0] == 1

    def test_inconsistent_pieces_report_zero(self):
        # annihilating every quadric operator leaves no cubic at all
        basis = [Polynomial.monomial(e) for e in monomial_basis(2, 2)]
        piece = GradedIdealPiece(2, 2, tuple(basis))
        with pytest.raises(SocleDimensionError) as err:
            macaulay_inverse([piece], 3)
        assert err.value.dimension == 0


class TestIsApolarScheme:
    def test_coordinate_points_fermat(self):
        points = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        cert = is_apolar_scheme(points, fermat(3))
        assert cert.apolar
        assert cert.weights == (Fraction(1), Fraction(1), Fraction(1))

    def test_coordinate_points_exact(self):
        # a zero weight: the third point is not needed
        f = Polynomial(3, 3, {(3, 0, 0): 1, (0, 3, 0): 2})
        cert = is_apolar_scheme([(1, 0, 0), (0, 1, 0), (0, 0, 1)], f)
        assert cert.apolar
        assert cert.weights == (Fraction(1), Fraction(2), Fraction(0))

    def test_insufficient_points(self):
        cert = is_apolar_scheme([(1, 0, 0), (0, 1, 0)], fermat(3))
        assert not cert.apolar and cert.weights is None

    def test_exact_nontrivial_points(self):
        # f = (x0 + x1)^3 + (x0 - x1)^3 from the matching dual points
        ell1 = Polynomial(2, 1, {(1, 0): 1, (0, 1): 1})
        ell2 = Polynomial(2, 1, {(1, 0): 1, (0, 1): -1})
        f = ell1 ** 3 + ell2 ** 3
        cert = is_apolar_scheme([(1, 1), (1, -1)], f)
        assert cert.apolar and cert.weights == (Fraction(1), Fraction(1))
        rebuilt = sum((w * ell ** 3 for w, ell in zip(cert.weights, (ell1, ell2))),
                      Polynomial.zero(2, 3))
        assert rebuilt == f

    def test_single_point_fails(self):
        f = Polynomial(2, 3, {(3, 0): 1, (0, 3): 1})
        cert = is_apolar_scheme([(1, 0)], f)
        assert not cert.apolar and cert.weights is None

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            is_apolar_scheme([(1, 2, 0), (2, 4, 0)], fermat(3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_apolar_scheme([], fermat(3))

    def test_floating_path(self):
        # the check is exact: floating coordinates are refused, not fitted
        from mpmath import mpf
        points = [(mpf(1), mpf(0), mpf(0)), (mpf(0), mpf(1), mpf(0)),
                  (mpf(0), mpf(0), mpf(1))]
        with pytest.raises(ValueError, match="rational"):
            is_apolar_scheme(points, fermat(3))
        with pytest.raises(ValueError, match="rational"):
            is_apolar_scheme([(1.0, 0), (0, 1)], Polynomial(2, 3, {(3, 0): 1}))

    def test_general_degree(self):
        # x0^4 + x1^4 from two coordinate points
        f = Polynomial(2, 4, {(4, 0): 1, (0, 4): 3})
        cert = is_apolar_scheme([(1, 0), (0, 1)], f)
        assert cert.apolar and cert.weights == (Fraction(1), Fraction(3))


class TestEquivariance:
    def test_catalecticant_ranks_are_gl_invariant(self):
        rng = make_rng(30)
        for _ in range(20):
            n = rng.randint(2, 4)
            f = random_form(n, 3, rng)
            m = random_invertible_matrix(n, rng)
            g = change_coordinates(f, m)
            for k in range(4):
                assert catalecticant(f, k).rank() == catalecticant(g, k).rank()
