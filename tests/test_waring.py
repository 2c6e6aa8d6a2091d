from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

import oracles
from apolar_kit.apolarity import hilbert_function
from apolar_kit import waring
from apolar_kit.core import ExactMatrix, Polynomial, change_coordinates, monomial_basis
from apolar_kit.seeding import make_rng, random_form
from apolar_kit.waring import (CertificateError, PencilError, _certify_scheme,
                               fermat_detect_detail, rank_lower_bound,
                               simultaneous_diagonalize)
from oracles import (catalecticant, contract, is_apolar_scheme, oracle_fit, oracle_points,
                     random_invertible_matrix)


def fermat(n):
    return Polynomial(n, 3, {tuple(3 if i == j else 0 for j in range(n)): 1
                             for i in range(n)})


def hessians(*quadrics):
    """The quadrics' Hessians (their degree-1 catalecticants), scaled to
    integers by one common positive factor."""
    scale = lcm(*(q.integer_terms()[0] for q in quadrics))
    return [[[int(x * scale) for x in row] for row in catalecticant(q, 1).rows()]
            for q in quadrics]


def diagonalize(quadrics, r):
    """`simultaneous_diagonalize` on the quadrics' Hessians, checked to
    give the rational oracle's scheme or to raise its PencilError kind."""
    try:
        expected = oracles.pencil(quadrics, r)
    except PencilError as err:
        with pytest.raises(PencilError) as got:
            simultaneous_diagonalize(hessians(*quadrics), r)
        assert got.value.kind == err.kind
        raise
    assert simultaneous_diagonalize(hessians(*quadrics), r) == expected
    return expected


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


def decomposition_points(dec):
    return oracle_points(dec.scheme_equation, dec.points)


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
        expected = oracles.hilbert_vector(form)
        assert rank_lower_bound(form) == expected.hilbert[1]
        assert hilbert_function(form) == expected
        assert fermat_detect_detail(form, seed) == oracles.fermat_detect_detail(form, seed)


class TestSimultaneousDiagonalize:
    def test_orthogonal_pencil(self):
        q1 = Polynomial(2, 2, {(2, 0): 1, (0, 2): 1})
        q2 = Polynomial(2, 2, {(2, 0): 1, (0, 2): -1})
        chi, phi = diagonalize([q1, q2], (1, 1))
        assert len(chi) == 3 and chi[-1] == 1
        expected = [(mp.mpf(1), mp.mpf(0)), (mp.mpf(0), mp.mpf(1))]
        assert match_up_to_permutation_and_scale(oracle_points(chi, phi), expected,
                                                 tol=1e-30)

    def test_jordan_pencil_fails(self):
        # q1 = x0^2, q2 = x0 x1 has a non-diagonalizable pencil: the
        # reduced eigenproblem is a single 2x2 Jordan block
        q1 = Polynomial(2, 2, {(2, 0): 1})
        q2 = Polynomial(2, 2, {(1, 1): 1})
        with pytest.raises(PencilError) as err:
            diagonalize([q1, q2], (1, 1))
        assert err.value.kind == "non-simple"

    def test_fermat_pencil_recovers_coordinates(self):
        rng = make_rng(42)
        f = fermat(4)
        for _ in range(5):
            quadrics = [contract(random_form(4, 1, rng), f) for _ in range(3)]
            chi, phi = diagonalize(quadrics, (1, 2, 3, 4))
            expected = [tuple(mp.mpf(1 if i == j else 0) for j in range(4))
                        for i in range(4)]
            assert match_up_to_permutation_and_scale(oracle_points(chi, phi), expected,
                                                     tol=1e-25)

    def test_singular_pair_uses_a_generic_member(self):
        # x0^2 and x1^2 are both singular; their sum is the first
        # invertible member of the pencil
        q1 = Polynomial(2, 2, {(2, 0): 1})
        q2 = Polynomial(2, 2, {(0, 2): 1})
        chi, phi = diagonalize([q1, q2], (1, 1))
        expected = [(mp.mpf(1), mp.mpf(0)), (mp.mpf(0), mp.mpf(1))]
        assert match_up_to_permutation_and_scale(oracle_points(chi, phi), expected,
                                                 tol=1e-30)

    def test_singular_pencil_reported(self):
        q1 = Polynomial(2, 2, {(2, 0): 1})
        q2 = Polynomial(2, 2, {(2, 0): 3})
        with pytest.raises(PencilError) as err:
            diagonalize([q1, q2], (1, 1))
        assert err.value.kind == "singular"

    def test_non_commuting_family_reported(self):
        # the contraction quadrics of a generic ternary cubic (rank 5)
        # give pencil matrices that do not commute
        rng = make_rng(47)
        f = random_form(3, 3, rng)
        quadrics = [contract(random_form(3, 1, rng), f) for _ in range(3)]
        with pytest.raises(PencilError) as err:
            diagonalize(quadrics, (1, 2, 3))
        assert err.value.kind == "non-commuting"

    def test_point_vanishing_at_a_root_is_non_simple(self):
        # M = diag(1, -1) and adj(t - M) r = (t + 1, 0) for r = (1, 0):
        # the point at the root t = -1 is zero, so gcd(phi, chi) != 1
        q1 = Polynomial(2, 2, {(2, 0): 1, (0, 2): 1})
        q2 = Polynomial(2, 2, {(2, 0): 1, (0, 2): -1})
        with pytest.raises(PencilError) as err:
            diagonalize([q1, q2], (1, 0))
        assert err.value.kind == "non-simple"


    def test_shapes_are_checked(self):
        square = [[1, 0], [0, 1]]
        for args in (([square], (1, 1)), ([square, [[1, 0]]], (1, 1)),
                     ([square, [[1], [0]]], (1, 1)), ([square, square], (1, 1, 1))):
            with pytest.raises(ValueError):
                simultaneous_diagonalize(*args)


def seeded_cubics(n):
    """A random cubic with 10-bit integer coefficients, one with rational
    coefficients, a Fermat cubic moved by an integer matrix, and a
    weighted one with rational weights, all in n variables."""
    rng = make_rng(600 + n)
    dense = random_form(n, 3, rng, bound=2 ** 10)
    units = [tuple(3 if i == j else 0 for j in range(n)) for i in range(n)]
    weighted = Polynomial(n, 3, {u: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                 for u in units})
    return [dense,
            Polynomial(n, 3, {e: Fraction(c, rng.randint(1, 6)) for e, c in dense.terms.items()}),
            change_coordinates(fermat(n), random_invertible_matrix(n, rng)),
            change_coordinates(weighted, random_invertible_matrix(n, rng))]


class TestAgainstRationalOracle:
    """Detection from the integer tensor gives what the rational pencil gave."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_seeded_random_and_fermat_cubics(self, n):
        for i, form in enumerate(seeded_cubics(n)):
            assert rank_lower_bound(form) == oracles.hilbert_vector(form).hilbert[1]
            for seed in (1, 2):
                found = fermat_detect_detail(form, seed)
                assert found == oracles.fermat_detect_detail(form, seed)
                # a binary cubic with distinct roots is a sum of two cubes
                assert (found[1] == "ok") == (i >= 2 or n <= 2)


def bench_style_fermat(n, rng):
    """x_1^3 + ... + x_n^3 under a random invertible matrix with entries
    in -3..3, as the benchmark draws its Fermat forms."""
    while True:
        m = ExactMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if m.rank() == n:
            return change_coordinates(fermat(n), m)


class TestWitnessCertificate:
    """The certificate of detected schemes decides as the echelon did."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_agrees_with_the_echelon_certificate(self, n, monkeypatch):
        form = bench_style_fermat(n, make_rng(900 + n))
        schemes = []
        for seed in (1, 2, 3):
            dec = fermat_detect_detail(form, seed)[0]
            assert dec is not None and dec.rank == n
            schemes.append((list(dec.scheme_equation), [list(f) for f in dec.points]))
        bumped = form + Polynomial.monomial((1, 1, 1) + (0,) * (n - 3))
        for scheme in schemes:
            assert oracles.echelon_certificate(*scheme, form) == n
            with pytest.raises(CertificateError, match=r"\(c\)"):
                oracles.echelon_certificate(*scheme, bumped)

        def refuse(*args):
            raise AssertionError("the echelon fallback ran")

        monkeypatch.setattr(waring, "_int_echelon", refuse)
        for scheme in schemes:
            assert _certify_scheme(*scheme, form) == n
            with pytest.raises(CertificateError, match=r"\(c\)"):
                _certify_scheme(*scheme, bumped)


# (name, terms, reason): cubics at the edge of the pencil and the certificate
EDGE_CUBICS = [
    # Re((x0 + i x1)^3): two complex conjugate points
    ("real_part_of_complex_cube", {(3, 0): 1, (1, 2): -3}, "ok"),
    # a double root: no simple pencil
    ("x0_squared_x1", {(2, 1): 1}, "non-simple-pencil"),
    # 3 (x^3 + y^3 + z^3) + 18 xyz = sum_k (x + w^k y + w^2k z)^3, w^3 = 1
    ("hesse_t6", {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 6}, "ok"),
    # a smooth cubic that is not Fermat
    ("hesse_t1", {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 1}, "fit-failed"),
    # one variable
    ("two_x0_cubed", {(3,): 2}, "ok"),
]


class TestFermatDetect:
    def test_plain_fermat(self):
        dec = fermat_detect_detail(fermat(3), seed=1)[0]
        assert dec is not None and dec.rank == 3
        expected = [tuple(mp.mpf(1 if i == j else 0) for j in range(3)) for i in range(3)]
        assert match_up_to_permutation_and_scale(decomposition_points(dec), expected,
                                                 tol=1e-25)
        assert _certify_scheme(list(dec.scheme_equation), dec.points, fermat(3)) == 3

    def test_gl_orbit_oracle(self):
        # the expected dual points of f = Fermat o M are the rows of M
        rng = make_rng(43)
        for trial in range(20):
            n = rng.randint(2, 6)
            m = random_invertible_matrix(n, rng)
            f = change_coordinates(fermat(n), m)
            dec = fermat_detect_detail(f, seed=trial)[0]
            assert dec is not None, f"trial {trial} in {n} variables"
            assert dec.rank == n
            expected = [tuple(mp.mpf(int(m.entry(i, j))) for j in range(n))
                        for i in range(n)]
            assert match_up_to_permutation_and_scale(decomposition_points(dec), expected)

    @given(st.integers(1, 6), st.integers(0, 2 ** 32),
           st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=5)
                    .filter(lambda c: c != 0), min_size=6, max_size=6),
           st.integers(0, 10 ** 6),
           st.fractions(min_value=-20, max_value=20, max_denominator=5)
           .filter(lambda c: c != 0))
    # x0^3 added to this sum of three cubes lands on another Fermat cubic
    @example(n=3, seed=183, weights=[Fraction(1)] * 6, index=0, c=Fraction(1))
    @settings(max_examples=40, deadline=None)
    def test_weighted_orbit_detected_and_perturbation_rejected(
            self, n, seed, weights, index, c):
        m = random_invertible_matrix(n, make_rng(seed))
        rows = [m.row(i) for i in range(n)]
        f = change_coordinates(
            Polynomial(n, 3, {tuple(3 if i == j else 0 for j in range(n)): w
                              for i, w in enumerate(weights[:n])}), m)
        dec = fermat_detect_detail(f, seed=seed)[0]
        assert dec is not None and dec.rank == n
        # the scheme's points are the rows of m
        expected = [tuple(mp.mpf(int(x)) for x in row) for row in rows]
        assert match_up_to_permutation_and_scale(decomposition_points(dec), expected)
        basis = monomial_basis(n, 3)
        perturbed = f + Polynomial.monomial(basis[index % len(basis)], c)
        # the certificate of f's scheme rejects the perturbation unless it
        # stays in the span of the same cubes
        if not is_apolar_scheme(rows, perturbed).apolar:
            with pytest.raises(CertificateError, match=r"\(c\)"):
                _certify_scheme(list(dec.scheme_equation), dec.points, perturbed)
        # detection may still find other cubes (the example above); the
        # float oracle must then confirm them
        found = fermat_detect_detail(perturbed, seed=seed)[0]
        if found is not None:
            fit = oracle_fit(found.scheme_equation, found.points, perturbed)
            assert fit is not None and fit.rank == n

    @pytest.mark.parametrize("name, terms, reason", EDGE_CUBICS,
                             ids=[case[0] for case in EDGE_CUBICS])
    def test_edge_cubics(self, name, terms, reason):
        n = len(next(iter(terms)))
        f = Polynomial(n, 3, terms)
        for seed in (1, 2, 3):
            dec, got = fermat_detect_detail(f, seed=seed)
            assert (dec, got) == oracles.fermat_detect_detail(f, seed)
            assert got == reason
            assert (dec is not None) == (reason == "ok")
            if dec is not None:
                assert dec.rank == n

    def test_hesse_points_are_the_cube_roots_of_unity(self):
        f = Polynomial(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 6})
        dec = fermat_detect_detail(f, seed=1)[0]
        with mp.workprec(160):
            w = mp.expjpi(mp.mpf(2) / 3)
            expected = [(mp.mpf(1), w ** k, w ** (2 * k)) for k in range(3)]
        assert match_up_to_permutation_and_scale(decomposition_points(dec), expected,
                                                 tol=1e-20)

    def test_certificate_decides_the_verdict(self, monkeypatch):
        # a pencil step that hands back the wrong scheme (e0, e1 and e0 + e1
        # at t = 0, 1, 2) must not pass: x2^3 is outside their cubes' span
        from apolar_kit import waring
        scheme = ([0, 2, -3, 1], [[2, -4, 2], [0, 3, -1], [0]])
        monkeypatch.setattr(waring, "simultaneous_diagonalize", lambda *args: scheme)
        assert fermat_detect_detail(fermat(3), seed=1) == (None, "fit-failed")

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
        # random cubics in >= 3 variables have rank above n, so no fit
        rng = make_rng(44)
        for trial in range(20):
            f = random_form(4, 3, rng)
            assert fermat_detect_detail(f, seed=trial) == (None, "fit-failed")

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
                f_det = fermat_detect_detail(f, seed=trial)[0] is not None
                g_det = fermat_detect_detail(
                    change_coordinates(f, random_invertible_matrix(n + 1, rng)),
                    seed=trial)[0] is not None
                assert f_det == g_det
                continue
            assert (fermat_detect_detail(f, seed=trial)[0] is not None) == expect

    def test_complex_fermat_over_reals(self):
        # x0^3 - 3 x0 x1^2 = ((x0 + i x1)^3 + (x0 - i x1)^3) / 2 needs
        # complex points; the scheme equation has no real root
        f = Polynomial(2, 3, {(3, 0): 1, (1, 2): -3})
        dec = fermat_detect_detail(f, seed=4)[0]
        assert dec is not None and dec.rank == 2
        expected = [(mp.mpf(1), mp.mpc(0, 1)), (mp.mpf(1), mp.mpc(0, -1))]
        assert match_up_to_permutation_and_scale(decomposition_points(dec), expected,
                                                 tol=1e-20)

    def test_weighted_fermat(self):
        f = Polynomial(3, 3, {(3, 0, 0): 5, (0, 3, 0): -7, (0, 0, 3): Fraction(1, 3)})
        dec = fermat_detect_detail(f, seed=5)[0]
        assert dec is not None and dec.rank == 3
        expected = [tuple(mp.mpf(1 if i == j else 0) for j in range(3)) for i in range(3)]
        assert match_up_to_permutation_and_scale(decomposition_points(dec), expected,
                                                 tol=1e-25)

    def test_uniqueness_of_point_set(self):
        # two different seeds must return the same projective point set
        f = change_coordinates(fermat(4), random_invertible_matrix(4, make_rng(46)))
        d1 = fermat_detect_detail(f, seed=7)[0]
        d2 = fermat_detect_detail(f, seed=8)[0]
        assert d1 is not None and d2 is not None
        assert d1.scheme_equation != d2.scheme_equation
        assert match_up_to_permutation_and_scale(decomposition_points(d1),
                                                 decomposition_points(d2), tol=1e-20)
