from fractions import Fraction
from math import comb, factorial, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from sympy.polys.matrices import DomainMatrix

from apolar_kit import core
from apolar_kit.core import (_RANK_PRIME, ExactMatrix, Polynomial, _pivots_mod_prime,
                             change_coordinates, monomial_basis, substitute)
from apolar_kit.seeding import make_rng, random_form
from oracles import (catalecticant, coefficient_matrix, contract, evaluate, from_sympy,
                     int_kernel, normalized, pair, random_invertible_matrix, scaled, to_sympy)


def mono(*exp):
    return Polynomial.monomial(exp)


def plus(p, q):
    """The sum of two forms of one shape, in sympy."""
    return from_sympy(to_sympy(p) + to_sympy(q), p.nvars, p.degree)


class TestContraction:
    def test_single_derivative(self):
        # d0 . x0^2 = 1! * C(2,1) * x0 = 2 x0
        assert contract(mono(1), mono(2)) == Polynomial(1, 1, {(1,): 2})

    def test_mixed_second_derivative_kills_fermat(self):
        fermat = Polynomial(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        assert contract(mono(1, 1, 0), fermat).is_zero()

    def test_full_contraction_gives_factorial(self):
        out = contract(mono(3), mono(3))
        assert out == Polynomial(1, 0, {(0,): 6})

    def test_operator_degree_above_form_degree(self):
        out = contract(mono(2, 2), Polynomial(2, 3, {(2, 1): 5}))
        assert out.is_zero() and out.degree == 0

    def test_zero_form_with_degree_tag(self):
        z = Polynomial(2, 5, {})
        out = contract(mono(1, 1), z)
        assert out.is_zero() and out.degree == 3

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            contract(mono(1, 0), mono(2))

    def test_bilinearity(self):
        rng = make_rng(11)
        for _ in range(20):
            n = rng.randint(2, 4)
            a = rng.randint(1, 2)
            b = rng.randint(a, 3)
            d1 = random_form(n, a, rng)
            d2 = random_form(n, a, rng)
            f = random_form(n, b, rng)
            g = random_form(n, b, rng)
            assert contract(plus(d1, d2), f) == plus(contract(d1, f), contract(d2, f))
            assert contract(d1, plus(f, g)) == plus(contract(d1, f), contract(d1, g))

    def test_composition(self):
        # acting twice equals acting by the product operator
        rng = make_rng(12)
        for _ in range(20):
            n = rng.randint(2, 4)
            d1 = random_form(n, 1, rng)
            d2 = random_form(n, rng.randint(1, 2), rng)
            f = random_form(n, 4, rng)
            product = from_sympy(to_sympy(d1) * to_sympy(d2), n, 1 + d2.degree)
            assert contract(d1, contract(d2, f)) == contract(product, f)


class TestPairing:
    def test_cube_pairs_to_six(self):
        assert pair(mono(3), mono(3)) == 6

    def test_distinct_monomials_pair_to_zero(self):
        assert pair(Polynomial.monomial((2, 1)), Polynomial.monomial((3, 0))) == 0

    def test_mixed_monomial_factorial(self):
        assert pair(Polynomial.monomial((2, 1)), Polynomial.monomial((2, 1))) == 2

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            pair(mono(2), mono(3))

    def test_equals_full_contraction(self):
        # the weighted dot product is the degree-0 part of contraction
        rng = make_rng(14)
        for _ in range(20):
            n = rng.randint(1, 4)
            d = rng.randint(1, 4)
            f = scaled(random_form(n, d, rng), Fraction(1, rng.randint(1, 7)))
            op = random_form(n, d, rng)
            assert pair(f, op) == contract(op, f).coefficient((0,) * n)

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            pair(mono(2, 0), mono(2))

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_gram_matrix_full_rank(self, nvars, degree):
        basis = monomial_basis(nvars, degree)
        gram = ExactMatrix([[pair(Polynomial.monomial(b), Polynomial.monomial(a))
                             for a in basis] for b in basis])
        assert gram.rank() == len(basis)
        # diagonal entries are the multi-index factorials
        for i, exp in enumerate(basis):
            expected = 1
            for e in exp:
                expected *= factorial(e)
            assert gram.entry(i, i) == expected


class TestChangeCoordinates:
    def test_identity(self):
        f = mono(3, 0)
        assert change_coordinates(f, ExactMatrix.identity(2)) == f

    def test_swap_fixes_symmetric_form(self):
        f = Polynomial(2, 3, {(3, 0): 1, (0, 3): 1})
        swap = ExactMatrix([[0, 1], [1, 0]])
        assert change_coordinates(f, swap) == f

    def test_binomial_expansion_oracle(self):
        # x0 -> x0 + x1 expands x0^3 with binomial coefficients
        m = ExactMatrix([[1, 1], [0, 1]])
        out = change_coordinates(mono(3, 0), m)
        expected = Polynomial(2, 3, {(3 - j, j): comb(3, j) for j in range(4)})
        assert out == expected

    def test_composition_law(self):
        rng = make_rng(13)
        for _ in range(10):
            n = rng.randint(2, 4)
            f = random_form(n, 3, rng)
            m1 = random_invertible_matrix(n, rng)
            m2 = random_invertible_matrix(n, rng)
            lhs = change_coordinates(change_coordinates(f, m1), m2)
            rhs = change_coordinates(f, m1 @ m2)
            assert lhs == rhs

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            change_coordinates(mono(2, 0), ExactMatrix([[1, 1], [1, 1]]))


class TestSubstitute:
    def test_rectangular_is_truncated_change_of_coordinates(self):
        # substituting with the first k columns of M equals the full change
        # of coordinates with the remaining variables set to zero
        rng = make_rng(15)
        for _ in range(10):
            n = rng.randint(2, 5)
            k = rng.randint(1, n)
            m = random_invertible_matrix(n, rng) @ ExactMatrix(
                [[Fraction(1, j + 1) if i == j else 0 for j in range(n)] for i in range(n)])
            forms = [scaled(random_form(n, d, rng), Fraction(1, rng.randint(1, 5)))
                     for d in (1, 2, 3, 3)]
            columns = ExactMatrix([row[:k] for row in m.rows()])
            for form, image in zip(forms, substitute(forms, columns)):
                moved = change_coordinates(form, m)
                expected = Polynomial(k, form.degree, {
                    exp[:k]: c for exp, c in moved.terms.items() if not any(exp[k:])})
                assert image == expected

    def test_transpose_is_adjoint_for_the_pairing(self):
        # <f(M y), F(y)> = <f(x), F(M^T x)> for an n x k matrix M
        rng = make_rng(16)
        for _ in range(10):
            n, k, d = rng.randint(2, 5), rng.randint(1, 4), rng.randint(1, 3)
            m = ExactMatrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(k)] for _ in range(n)])
            f = random_form(n, d, rng)
            big = random_form(k, d, rng)
            [restricted] = substitute([f], m)
            [lifted] = substitute([big], m.transpose())
            assert pair(restricted, big) == pair(f, lifted)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            substitute([mono(2, 0)], ExactMatrix.identity(3))

    def test_degree_zero(self):
        [image] = substitute([Polynomial(2, 0, {(0, 0): Fraction(3, 4)})],
                             ExactMatrix([[1, 2, 3], [4, 5, 6]]))
        assert image == Polynomial(3, 0, {(0, 0, 0): Fraction(3, 4)})


class TestMonomialBasis:
    def test_binary_cubics(self):
        assert monomial_basis(2, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]

    def test_counts(self):
        assert len(monomial_basis(3, 2)) == 6
        assert len(monomial_basis(5, 3)) == comb(5 + 3 - 1, 3) == 35

    def test_order_is_graded_lex(self):
        basis = monomial_basis(4, 3)
        assert basis == sorted(basis, reverse=True)
        assert all(sum(e) == 3 for e in basis)

    def test_each_call_returns_a_new_list(self):
        # the tuples are built once; a caller's changes to its list stay its own
        basis = monomial_basis(3, 2)
        basis.append((9, 9, 9))
        basis.pop(0)
        assert monomial_basis(3, 2) == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0),
                                        (0, 1, 1), (0, 0, 2)]
        assert monomial_basis(3, 2) is not monomial_basis(3, 2)

    def test_invalid_arguments(self):
        for nvars, degree in ((0, 2), (2, -1)):
            with pytest.raises(ValueError):
                monomial_basis(nvars, degree)


class TestExactMatrix:
    def test_kernel_of_difference_row(self):
        assert ExactMatrix([[1, -1]]).kernel().rows() == [[1, 1]]

    def test_rank_identity(self):
        assert ExactMatrix.identity(3).rank() == 3

    def test_generic_cubic_catalecticant_rank(self):
        # degree-1 catalecticant of a dense random cubic in 4 variables:
        # rows are the partial derivatives, full rank generically
        rng = make_rng(14)
        for _ in range(20):
            f = random_form(4, 3, rng)
            assert catalecticant(f, 1).rank() == 4

    def test_kernel_annihilated_exactly(self):
        rng = make_rng(15)
        for _ in range(20):
            rows = rng.randint(2, 6)
            cols = rng.randint(2, 8)
            m = ExactMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                              for _ in range(cols)] for _ in range(rows)])
            k = m.kernel()
            assert k.nrows == cols - m.rank()
            if k.nrows:
                prod = m @ k.transpose()
                assert prod.is_zero()
            for i in range(k.nrows):
                row = k.row(i)
                lead = next(x for x in row if x)
                assert lead == 1

    def test_solve_consistent_and_inconsistent(self):
        m = ExactMatrix([[1, 2], [2, 4]])
        assert m.solve([3, 6]) == [Fraction(3), Fraction(0)]
        assert m.solve([3, 7]) is None

    def test_solve_matches_apply(self):
        rng = make_rng(16)
        for _ in range(20):
            n = rng.randint(2, 5)
            m = random_invertible_matrix(n, rng)
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            b = m.apply(x)
            assert m.solve(b) == x

    def test_inverse(self):
        rng = make_rng(17)
        for _ in range(10):
            n = rng.randint(2, 5)
            m = random_invertible_matrix(n, rng)
            assert m @ m.inverse() == ExactMatrix.identity(n)

    def test_rref_canonical(self):
        m = ExactMatrix([[2, 4, 6], [1, 2, 4]])
        reduced, pivots = m.rref()
        assert pivots == (0, 2)
        assert reduced.rows() == [[1, 2, 0], [0, 0, 1]]

    def test_singular_inverse_rejected(self):
        with pytest.raises(ValueError):
            ExactMatrix([[1, 2], [2, 4]]).inverse()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rref_matches_naive_gauss_jordan(self, data):
        shape = data.draw(st.sampled_from(["tall", "wide"]))
        short, long = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8))
        nrows, ncols = (long, short) if shape == "tall" else (short, long)
        entry = st.one_of(st.just(Fraction(0)),
                          st.fractions(min_value=-30, max_value=30, max_denominator=12))
        rows = [data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
                for _ in range(nrows)]
        for _ in range(data.draw(st.integers(0, 3))):
            if data.draw(st.booleans()):
                new = [Fraction(0)] * ncols
            else:
                i = data.draw(st.integers(0, len(rows) - 1))
                j = data.draw(st.integers(0, len(rows) - 1))
                c = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=7))
                new = [a + c * b for a, b in zip(rows[i], rows[j])]
            rows.insert(data.draw(st.integers(0, len(rows))), new)
        expected, expected_pivots = naive_rref(rows)
        matrix = ExactMatrix(rows)
        reduced, pivots = matrix.rref()
        assert pivots == expected_pivots
        assert reduced == ExactMatrix(expected)
        assert all(isinstance(x, Fraction) for row in reduced.rows() for x in row)

        # the kernel: a unit at each free column, first nonzero entry 1
        basis = naive_kernel(expected, expected_pivots, ncols)
        assert matrix.kernel().rows() == basis
        scaled = [[int(x * lcm(*(y.denominator for y in row))) for x in row]
                  for row in rows]
        assert int_kernel(scaled, ncols) == basis

        # solve: free variables are 0, None exactly when inconsistent
        rhs = data.draw(st.lists(entry, min_size=len(rows),
                                 max_size=len(rows)))
        if data.draw(st.booleans()):  # a consistent right-hand side
            x = data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
            rhs = matrix.apply(x)
        aug, aug_pivots = naive_rref([row + [b] for row, b in zip(rows, rhs)])
        if ncols in aug_pivots:
            assert matrix.solve(rhs) is None
        else:
            solution = [Fraction(0)] * ncols
            for row, col in zip(aug, aug_pivots):
                solution[col] = row[ncols]
            assert matrix.solve(rhs) == solution

        # inverse of the leading square block, through [A | I]
        k = min(len(rows), ncols)
        square = [row[:k] for row in rows[:k]]
        aug, aug_pivots = naive_rref([row + [Fraction(int(i == j)) for j in range(k)]
                                      for i, row in enumerate(square)])
        if aug_pivots[:k] == tuple(range(k)):
            assert ExactMatrix(square).inverse() == ExactMatrix(
                [row[k:] for row in aug])
        else:
            with pytest.raises(ValueError):
                ExactMatrix(square).inverse()


class TestPivotsModPrime:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_pivots_match_sympy_over_the_prime_field(self, data):
        # entries past the prime, multiples of it, and rows dependent only
        # modulo it; the pivots are those of the reduced echelon form over
        # GF(p), where only the columns right of a pivot are updated
        p = _RANK_PRIME
        nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 7))
        entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-4 * p, 4 * p),
                          st.integers(-3, 3).map(lambda k: k * p))
        rows = [data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
                for _ in range(nrows)]
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, len(rows) - 1))
            c = data.draw(st.integers(-5, 5))
            lift = data.draw(st.integers(-2, 2)) * p
            rows.append([c * x + lift for x in rows[i]])
        field = sympy.GF(p)
        matrix = DomainMatrix([[field(x) for x in row] for row in rows],
                              (len(rows), ncols), field)
        assert _pivots_mod_prime(rows, ncols) == list(matrix.rref()[1])


def naive_kernel(reduced, pivots, ncols):
    """Kernel basis of a reduced echelon form, first nonzero entry 1."""
    basis = []
    for j in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for row, col in zip(reduced, pivots):
            v[col] = -row[j]
        lead = next(x for x in v if x)
        basis.append([x / lead for x in v])
    return basis


def naive_rref(rows):
    """Textbook Gauss-Jordan elimination in Fraction arithmetic."""
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(m)) if m[i][col]), None)
        if found is None:
            continue
        m[r], m[found] = m[found], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m[:len(pivots)], tuple(pivots)


class TestPolynomial:
    def test_rational_string_round_trip(self):
        values = [Fraction(3, 7), Fraction(-22, 9), Fraction(10**40, 3**30)]
        for v in values:
            assert Fraction(str(v)) == v

    def test_homogeneity_enforced(self):
        with pytest.raises(ValueError):
            Polynomial(2, 2, {(1, 0): 1})

    def test_zero_coefficients_dropped(self):
        p = Polynomial(2, 2, {(2, 0): 1, (1, 1): 0})
        assert list(p.terms) == [(2, 0)]

    def test_duplicate_exponents_accumulate(self):
        class TermList(list):
            """Term pairs whose exponents repeat, once as a list, once as a tuple."""

            def items(self):
                return iter(self)

        p = Polynomial(2, 2, TermList([([2, 0], 3), ((2, 0), -3), ([1, 1], Fraction(1, 2)),
                                       ((0, 2), 0), ((1, 1), 1), ([0, 2], 4),
                                       ((2, 0), Fraction(2, 3))]))
        assert p.terms == {(1, 1): Fraction(3, 2), (0, 2): Fraction(4),
                           (2, 0): Fraction(2, 3)}
        assert list(p.terms) == [(1, 1), (0, 2), (2, 0)]
        assert all(type(c) is Fraction for c in p.terms.values())
        cancelled = Polynomial(1, 1, TermList([((1,), 5), ([1], -5)]))
        assert cancelled.is_zero()

    def test_normalized_leading_coefficient(self):
        p = Polynomial(2, 2, {(2, 0): Fraction(-3), (0, 2): 6})
        q = normalized(p)
        assert q.coefficient((2, 0)) == 1
        assert q.coefficient((0, 2)) == -2

    def test_coefficient_matrix_round_trip(self):
        rng = make_rng(18)
        polys = [random_form(3, 2, rng) for _ in range(4)]
        m = coefficient_matrix(polys)
        basis = monomial_basis(3, 2)
        for p, row in zip(polys, m.rows()):
            assert Polynomial(3, 2, {exp: c for exp, c in zip(basis, row) if c}) == p

    def test_evaluate(self):
        f = Polynomial(2, 2, {(2, 0): 1, (1, 1): Fraction(1, 2)})
        assert evaluate(f, [2, 4]) == 4 + 4

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_evaluate_matches_sympy(self, data):
        nvars = data.draw(st.integers(1, 4))
        degree = data.draw(st.integers(0, 4))
        fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
        exps = data.draw(st.lists(st.sampled_from(monomial_basis(nvars, degree)),
                                  max_size=6, unique=True))
        form = Polynomial(nvars, degree, {e: data.draw(fractions) for e in exps})
        point = data.draw(st.lists(fractions, min_size=nvars, max_size=nvars))
        xs = sympy.symbols(f"x0:{nvars}")
        value = to_sympy(form).subs(
            {x: sympy.Rational(v.numerator, v.denominator) for x, v in zip(xs, point)})
        assert evaluate(form, point) == Fraction(int(value.p), int(value.q))

    @pytest.mark.parametrize("exp", [(1.5, 1.5), (True, 2), (3.0, 0)])
    def test_non_integer_exponent_rejected(self, exp):
        with pytest.raises(ValueError, match="exponents"):
            Polynomial(2, 3, {exp: 1})

    @pytest.mark.parametrize("nvars, degree", [(2, sympy.Integer(0)), (sympy.Integer(2), 1),
                                               (2, False), (True, 1), (2, 1.0)])
    def test_non_integer_shape_rejected(self, nvars, degree):
        # `_monomials` caches by value: a refused value equal to a valid one
        # must not be stored under that key, so a later form still builds
        core._monomials.cache_clear()
        with pytest.raises(ValueError, match="nvars|degree"):
            Polynomial(nvars, degree, {})
        with pytest.raises(ValueError, match="nvars|degree"):
            monomial_basis(nvars, degree)
        for form in (random_form(2, 0, make_rng(1)), random_form(2, 1, make_rng(1))):
            assert all(type(e) is int for exp in form.terms for e in exp)

    def test_boolean_coefficient_rejected(self):
        with pytest.raises(TypeError, match="coefficient"):
            Polynomial(2, 3, {(1, 2): True})
        with pytest.raises(TypeError, match="coefficient"):
            ExactMatrix([[1, False]])
