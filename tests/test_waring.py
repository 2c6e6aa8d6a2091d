from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from apolar_kit.apolarity import catalecticant
from apolar_kit.core import Polynomial, change_coordinates, contract
from apolar_kit.seeding import make_rng, random_form, random_invertible_matrix
from apolar_kit.waring import (PencilError, fermat_detect,
                               fermat_detect_detail, power_sum_fit,
                               rank_lower_bound, simultaneous_diagonalize)


def fermat(n):
    return Polynomial(n, 3, {tuple(3 if i == j else 0 for j in range(n)): 1
                             for i in range(n)})


def as_mp_vector(vec):
    out = []
    for c in vec:
        if isinstance(c, Fraction):
            out.append(mp.mpf(c.numerator) / mp.mpf(c.denominator))
        elif isinstance(c, int):
            out.append(mp.mpf(c))
        else:
            out.append(c)
    return out


def projective_distance(u, v):
    """Fubini-Study style separation of two (possibly complex) vectors."""
    dot = mp.fsum(a * mp.conj(b) for a, b in zip(u, v))
    nu = mp.fsum(abs(a) ** 2 for a in u)
    nv = mp.fsum(abs(b) ** 2 for b in v)
    val = 1 - abs(dot) ** 2 / (nu * nv)
    return mp.sqrt(abs(val))


def match_up_to_permutation_and_scale(forms_a, forms_b, tol=1e-8):
    with mp.workprec(160):
        if len(forms_a) != len(forms_b):
            return False
        remaining = [as_mp_vector(v) for v in forms_b]
        for u in forms_a:
            um = as_mp_vector(u)
            best = None
            for idx, vm in enumerate(remaining):
                d = projective_distance(um, vm)
                if best is None or d < best[0]:
                    best = (d, idx)
            if best is None or best[0] > tol:
                return False
            remaining.pop(best[1])
        return True


class TestRankLowerBound:
    def test_fermat_three(self):
        assert rank_lower_bound(fermat(3)) == 3

    def test_single_cube(self):
        assert rank_lower_bound(Polynomial(1, 3, {(3,): 1})) == 1

    def test_generic_five_variables(self):
        rng = make_rng(41)
        for _ in range(20):
            assert rank_lower_bound(random_form(5, 3, rng)) == 5

    def test_non_cubic_rejected(self):
        with pytest.raises(ValueError):
            rank_lower_bound(Polynomial(2, 2, {(2, 0): 1}))

    @given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 2 ** 32),
           st.sampled_from([1, 7, 2 ** 200]), st.booleans(), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_exact_rank(self, n, drop, seed, bound, wrap, denominator):
        # a cubic in n - drop variables, moved to n variables by a random
        # change of coordinates, so not concise when drop > 0; with `wrap`
        # a concise multiple of the prime 2^61 - 1 is added, so the rank
        # modulo that prime is too small and the exact rank must decide
        rng = make_rng(seed)
        m = max(1, n - drop)
        inner = random_form(m, 3, rng, bound=bound)
        form = change_coordinates(
            Polynomial(n, 3, {exp + (0,) * (n - m): Fraction(c, denominator)
                              for exp, c in inner.terms.items()}),
            random_invertible_matrix(n, rng))
        if wrap:
            form = form + (2 ** 61 - 1) * fermat(n)
        assert rank_lower_bound(form) == catalecticant(form, 1).rank()


class TestPowerSumFit:
    def test_coordinate_points_exact(self):
        f = Polynomial(3, 3, {(3, 0, 0): 1, (0, 3, 0): 2})
        dec = power_sum_fit([(1, 0, 0), (0, 1, 0), (0, 0, 1)], f)
        assert dec is not None and dec.exact
        assert dec.weights == (Fraction(1), Fraction(2), Fraction(0))
        assert dec.residual == 0
        assert dec.reconstruct() == f

    def test_insufficient_points(self):
        assert power_sum_fit([(1, 0, 0), (0, 1, 0)], fermat(3)) is None

    def test_exact_nontrivial_points(self):
        # f = (x0 + x1)^3 + (x0 - x1)^3 from the matching dual points
        ell1 = Polynomial(2, 1, {(1, 0): 1, (0, 1): 1})
        ell2 = Polynomial(2, 1, {(1, 0): 1, (0, 1): -1})
        f = ell1 ** 3 + ell2 ** 3
        dec = power_sum_fit([(1, 1), (1, -1)], f)
        assert dec is not None and dec.weights == (Fraction(1), Fraction(1))
        assert dec.reconstruct() == f

    def test_floating_points(self):
        pts = [(mp.mpf(1), mp.mpf(0)), (mp.mpf(0), mp.mpf(1))]
        f = Polynomial(2, 3, {(3, 0): 2, (0, 3): -5})
        dec = power_sum_fit(pts, f)
        assert dec is not None and not dec.exact
        assert dec.residual < mp.mpf(10) ** -25
        assert abs(dec.weights[0] - 2) < mp.mpf(10) ** -25


class TestSimultaneousDiagonalize:
    def test_orthogonal_pencil(self):
        q1 = Polynomial(2, 2, {(2, 0): 1, (0, 2): 1})
        q2 = Polynomial(2, 2, {(2, 0): 1, (0, 2): -1})
        points = simultaneous_diagonalize(q1, q2)
        expected = [(mp.mpf(1), mp.mpf(0)), (mp.mpf(0), mp.mpf(1))]
        assert match_up_to_permutation_and_scale(points, expected, tol=1e-30)

    def test_jordan_pencil_fails(self):
        # q1 = x0^2, q2 = x0 x1 has a non-diagonalizable pencil: the
        # reduced eigenproblem is a single 2x2 Jordan block
        q1 = Polynomial(2, 2, {(2, 0): 1})
        q2 = Polynomial(2, 2, {(1, 1): 1})
        with pytest.raises(PencilError) as err:
            simultaneous_diagonalize(q1, q2)
        assert err.value.kind == "non-simple"

    def test_fermat_pencil_recovers_coordinates(self):
        rng = make_rng(42)
        f = fermat(4)
        for _ in range(5):
            eta1 = random_form(4, 1, rng)
            eta2 = random_form(4, 1, rng)
            points = simultaneous_diagonalize(contract(eta1, f), contract(eta2, f))
            expected = [tuple(mp.mpf(1 if i == j else 0) for j in range(4))
                        for i in range(4)]
            assert match_up_to_permutation_and_scale(points, expected, tol=1e-25)

    def test_singular_pair_uses_a_generic_member(self):
        # x0^2 and x1^2 are both singular; their sum is the first
        # invertible member of the pencil
        q1 = Polynomial(2, 2, {(2, 0): 1})
        q2 = Polynomial(2, 2, {(0, 2): 1})
        points = simultaneous_diagonalize(q1, q2)
        expected = [(mp.mpf(1), mp.mpf(0)), (mp.mpf(0), mp.mpf(1))]
        assert match_up_to_permutation_and_scale(points, expected, tol=1e-30)

    def test_singular_pencil_reported(self):
        q1 = Polynomial(2, 2, {(2, 0): 1})
        q2 = Polynomial(2, 2, {(2, 0): 3})
        with pytest.raises(PencilError) as err:
            simultaneous_diagonalize(q1, q2)
        assert err.value.kind == "singular"


class TestFermatDetect:
    def test_plain_fermat(self):
        dec = fermat_detect(fermat(3), seed=1)
        assert dec is not None and dec.rank == 3
        expected = [tuple(mp.mpf(1 if i == j else 0) for j in range(3)) for i in range(3)]
        assert match_up_to_permutation_and_scale(dec.forms, expected, tol=1e-25)
        assert dec.residual < mp.mpf(10) ** -25

    def test_gl_orbit_oracle(self):
        # the expected dual points of f = Fermat o M are the rows of M
        rng = make_rng(43)
        for trial in range(20):
            n = rng.randint(2, 6)
            m = random_invertible_matrix(n, rng)
            f = change_coordinates(fermat(n), m)
            dec = fermat_detect(f, seed=trial)
            assert dec is not None, f"trial {trial} in {n} variables"
            assert dec.rank == n
            assert dec.residual < mp.mpf(10) ** -10
            expected = [tuple(mp.mpf(int(m.entry(i, j))) for j in range(n))
                        for i in range(n)]
            assert match_up_to_permutation_and_scale(dec.forms, expected)

    def test_binary_non_fermat(self):
        # x0^2 x1 is not a sum of two independent cubes: the distinct-roots
        # oracle is the vanishing discriminant of the binary cubic
        f = Polynomial(2, 3, {(2, 1): 1})
        c3, c2, c1, c0 = 0, 1, 0, 0   # coefficients of x0^j x1^(3-j)
        disc = (18 * c3 * c2 * c1 * c0 - 4 * c2 ** 3 * c0 + c2 ** 2 * c1 ** 2
                - 4 * c3 * c1 ** 3 - 27 * c3 ** 2 * c0 ** 2)
        assert disc == 0
        dec, reason = fermat_detect_detail(f, seed=2)
        assert dec is None
        assert reason == "non-simple-pencil"

    def test_rank_deficient_cubic(self):
        # a cubic in 3 variables that only involves two of them
        f = Polynomial(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1})
        dec, reason = fermat_detect_detail(f, seed=3)
        assert dec is None and reason == "rank-deficient"

    def test_generic_cubic_not_fermat(self):
        # random cubics in >= 3 variables have rank above n, so the fit fails
        rng = make_rng(44)
        failures = 0
        for trial in range(20):
            f = random_form(4, 3, rng)
            dec, reason = fermat_detect_detail(f, seed=trial)
            if dec is None:
                failures += 1
        assert failures == 20

    def test_detection_is_gl_invariant(self):
        rng = make_rng(45)
        for trial in range(20):
            n = rng.randint(2, 4)
            m = random_invertible_matrix(n, rng)
            if trial % 2:
                f = change_coordinates(fermat(n), m)
                expect = True
            else:
                f = random_form(n + 1, 3, rng)
                f_det = fermat_detect(f, seed=trial) is not None
                g_det = fermat_detect(
                    change_coordinates(f, random_invertible_matrix(n + 1, rng)),
                    seed=trial) is not None
                assert f_det == g_det
                continue
            assert (fermat_detect(f, seed=trial) is not None) == expect

    def test_complex_fermat_over_reals(self):
        # x0^3 - 3 x0 x1^2 = ((x0 + i x1)^3 + (x0 - i x1)^3) / 2 needs
        # complex points; detection succeeds with conjugate forms
        f = Polynomial(2, 3, {(3, 0): 1, (1, 2): -3})
        dec = fermat_detect(f, seed=4)
        assert dec is not None and dec.rank == 2
        assert dec.residual < mp.mpf(10) ** -20
        assert any(abs(mp.im(c)) > 0.1 for vec in dec.forms for c in vec)

    def test_weighted_fermat(self):
        f = Polynomial(3, 3, {(3, 0, 0): 5, (0, 3, 0): -7, (0, 0, 3): Fraction(1, 3)})
        dec = fermat_detect(f, seed=5)
        assert dec is not None and dec.rank == 3
        assert dec.residual < mp.mpf(10) ** -20

    def test_uniqueness_of_point_set(self):
        # two different seeds must return the same projective point set
        f = change_coordinates(fermat(4), random_invertible_matrix(4, make_rng(46)))
        d1 = fermat_detect(f, seed=7)
        d2 = fermat_detect(f, seed=8)
        assert d1 is not None and d2 is not None
        assert match_up_to_permutation_and_scale(d1.forms, d2.forms, tol=1e-20)
