import dataclasses
import json
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from apolar_kit import core, waring
from apolar_kit import pipeline as pipeline_module
from apolar_kit.apolarity import (SocleDimensionError, apolar_ideal_piece,
                                  macaulay_inverse)
from apolar_kit.cli import main
from apolar_kit.core import (ExactMatrix, Polynomial, _int_echelon, _row_to_int,
                             change_coordinates, monomial_basis)
from apolar_kit.curvegen import (ideal_pieces, sample_points, tetragonal_curve,
                                 trigonal_curve)
from apolar_kit.pipeline import (AlphaCertificateError, CertificateError,
                                 _certify_fermat, _certify_scheme, _random_eta_pair,
                                 _scheme, alpha_for_curve, alpha_map, quotient_frame,
                                 reduce_to_quotient, tetragonal_cube_bound,
                                 verify_tetragonal_bound, verify_trigonal_fermat)
from apolar_kit.seeding import derive_seed, make_rng, random_dual_linear, random_form
from apolar_kit.waring import fermat_detect_detail
import oracles
from oracles import (coefficient_matrix, echelon_certificate, from_spanning, oracle_fit,
                     oracle_points, random_invertible_matrix, recon_piece, scroll_quadrics)

_T = sympy.Symbol("t")


def build_recon(curve, seed=3):
    points = sample_points(curve, curve.guaranteed_point_count, seed)
    return ideal_pieces(curve, points)


class TestCubeBound:
    def test_values(self):
        # ceil((3g - 7)/2) computed independently
        import math
        for g, expected in [(7, 7), (6, 6), (10, 12), (8, 9)]:
            assert tetragonal_cube_bound(g) == expected == math.ceil((3 * g - 7) / 2)

    def test_small_genus_rejected(self):
        with pytest.raises(ValueError):
            tetragonal_cube_bound(3)


class TestAlphaMap:
    def test_trigonal_genus_five_profile(self):
        curve = trigonal_curve(5, seed=21)
        recon = build_recon(curve)
        rng = make_rng(5)
        alpha = alpha_map(recon, random_dual_linear(5, rng),
                          random_dual_linear(5, rng))
        assert alpha.hilbert == (1, 3, 3, 1)
        assert alpha.cubic.nvars == 3 and alpha.cubic.degree == 3
        assert not alpha.cubic.is_zero()
        assert alpha.cubic == alpha.cubic.normalized()

    def test_tetragonal_genus_seven_profile(self):
        curve = tetragonal_curve(7, 1, 1, seed=22)
        recon = build_recon(curve)
        alpha = alpha_for_curve(curve, seed=22)
        assert alpha.hilbert == (1, 5, 5, 1)
        assert alpha.cubic.nvars == 5

    def test_degenerate_hyperplanes_rejected(self):
        curve = trigonal_curve(5, seed=23)
        recon = build_recon(curve)
        eta = random_dual_linear(5, make_rng(1))
        with pytest.raises(AlphaCertificateError):
            alpha_map(recon, eta, 2 * eta)

    def test_quotient_frame_matches_greedy_choice(self):
        # small coefficients give zeros, so every dropped pair occurs
        rng = make_rng(38)
        for _ in range(200):
            g = rng.randint(5, 8)
            eta1 = random_dual_linear(g, rng, bound=1)
            eta2 = random_dual_linear(g, rng, bound=1)
            kept = greedy_kept(eta1, eta2, g)
            if kept is None:
                with pytest.raises(AlphaCertificateError):
                    quotient_frame(eta1, eta2, g)
            else:
                assert quotient_frame(eta1, eta2, g)[0] == kept

    @pytest.mark.parametrize("g", [5, 6, 7, 8])
    def test_quotient_frame_on_coordinate_pairs(self, g):
        for i, j in combinations(range(g), 2):
            eta1, eta2 = Polynomial.variable(i, g), Polynomial.variable(j, g)
            kept = greedy_kept(eta1, eta2, g)
            assert quotient_frame(eta1, eta2, g)[0] == kept
            assert quotient_frame(eta2, eta1, g)[0] == kept

    def test_quotient_frame_matches_the_inverted_frame(self):
        # entries in [-1, 1] give zeros, so every dropped pair occurs, and
        # so do dependent pairs; the restriction is delta L[:, :n], with L
        # the inverse of the rref frame and delta the minor of the
        # primitive hyperplane rows at the dropped pair
        rng = make_rng(39)
        dependent = 0
        for _ in range(2400):
            g = rng.randint(5, 12)
            eta1 = random_dual_linear(g, rng, bound=1)
            eta2 = random_dual_linear(g, rng, bound=1)
            try:
                kept, _, inverse = oracles.quotient_frame(eta1, eta2, g)
            except AlphaCertificateError as expected:
                with pytest.raises(AlphaCertificateError) as err:
                    quotient_frame(eta1, eta2, g)
                assert str(err.value) == str(expected)
                dependent += 1
                continue
            found, restriction = quotient_frame(eta1, eta2, g)
            assert found == kept
            a, b = sorted(set(range(g)) - set(kept))
            c1, c2 = (_row_to_int(eta.coefficient_vector(monomial_basis(g, 1)))
                      for eta in (eta1, eta2))
            delta = c1[a] * c2[b] - c1[b] * c2[a]
            assert all(type(x) is int for row in restriction for x in row)
            assert restriction == [[delta * x for x in row[:g - 2]] for row in inverse.rows()]
        assert dependent > 0

    def test_quotient_frame_inverts(self):
        # frame rows: the kept unit vectors, then the two hyperplanes; the
        # restriction is delta times the first n columns of the inverse
        rng = make_rng(31)
        for g in range(5, 13):
            eta1, eta2 = random_dual_linear(g, rng), random_dual_linear(g, rng)
            kept, restriction = quotient_frame(eta1, eta2, g)
            assert len(kept) == g - 2
            frame = ([[int(j == i) for j in range(g)] for i in kept]
                     + [eta.coefficient_vector(monomial_basis(g, 1)) for eta in (eta1, eta2)])
            product = [[sum(a * r[k] for a, r in zip(row, restriction)) for k in range(g - 2)]
                       for row in frame]
            delta = product[0][0]
            assert delta != 0
            assert product == [[delta * (i == k) for k in range(g - 2)] for i in range(g)]

    def test_random_pairs_skip_dependent_ones(self, monkeypatch):
        # the second draw is a multiple of the first; the next pair is kept
        etas = iter([Polynomial.variable(0, 5), Polynomial.variable(0, 5) * 3,
                     Polynomial.variable(1, 5), Polynomial.variable(4, 5)])
        monkeypatch.setattr(pipeline_module, "random_dual_linear", lambda g, rng: next(etas))
        assert _random_eta_pair(5, None) == (Polynomial.variable(1, 5),
                                             Polynomial.variable(4, 5))

    def test_quotient_pieces_equal_cubic_annihilator(self):
        # round trip at pipeline level: the reduced ideal pieces must be
        # exactly the graded annihilator of the produced cubic (equal
        # dimensions force equality once containment holds); the degree-3
        # piece is restricted here element by element, apart from alpha_map
        from apolar_kit.apolarity import apolar_ideal_piece
        for curve in (trigonal_curve(5, seed=61), tetragonal_curve(6, 0, 1, seed=62)):
            recon = build_recon(curve)
            alpha = alpha_for_curve(curve, seed=63)
            reduced3 = [reduce_to_quotient(alpha, p) for p in recon_piece(recon, 3).basis]
            piece3 = from_spanning(3, curve.genus - 2, [p for p in reduced3 if not p.is_zero()])
            piece2 = oracles.alpha_map(recon, alpha.eta1, alpha.eta2).quotient_piece2
            for k, piece in ((2, piece2), (3, piece3)):
                annihilator = apolar_ideal_piece(alpha.cubic, k)
                assert annihilator.dim == piece.dim
                ra, _ = coefficient_matrix(annihilator.basis).rref()
                rb, _ = coefficient_matrix(piece.basis).rref()
                assert ra == rb

    def test_independent_eta_pairs_both_work(self):
        curve = trigonal_curve(5, seed=24)
        recon = build_recon(curve)
        rng = make_rng(77)
        cubics = []
        for _ in range(2):
            eta1 = random_dual_linear(5, rng)
            eta2 = random_dual_linear(5, rng)
            alpha = alpha_map(recon, eta1, eta2)
            assert fermat_detect_detail(alpha.cubic, seed=1)[0] is not None
            cubics.append(alpha.cubic)
        # general quotients differ even though both are sums of 3 cubes
        assert cubics[0] != cubics[1]

    def test_alpha_map_neither_pairs_nor_contracts(self):
        # the quotient pairs and contracts in integer rows written down
        # directly; `pair` and `contract` live on only as test oracles
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "apolar_kit":
                assert not {"pair", "contract"} & set(vars(module)), module_name
        curves = (trigonal_curve(6, seed=25), tetragonal_curve(7, 1, 1, seed=26))
        recons = [build_recon(curve) for curve in curves]
        rng = make_rng(78)
        for curve, recon in zip(curves, recons):
            g = curve.genus
            alpha = alpha_map(recon, random_dual_linear(g, rng), random_dual_linear(g, rng))
            assert alpha.hilbert == (1, g - 2, g - 2, 1)


def greedy_kept(eta1, eta2, g):
    """Kept coordinates chosen one rank check at a time; None when the
    hyperplanes are dependent."""
    basis1 = monomial_basis(g, 1)
    rows = [eta1.coefficient_vector(basis1), eta2.coefficient_vector(basis1)]
    if ExactMatrix(rows).rank() < 2:
        return None
    kept = []
    for i in range(g):
        unit = [1 if j == i else 0 for j in range(g)]
        if ExactMatrix(rows + [unit]).rank() > len(rows):
            rows.append(unit)
            kept.append(i)
        if len(rows) == g:
            break
    return tuple(kept)


def elementwise_alpha(recon, eta1, eta2):
    """The quotient computed element by element: every basis element of
    the degree-2 and degree-3 ideal pieces through its own change of
    coordinates, truncated, then both pieces inverted together.  Returns
    (hilbert, kept, piece2, cubic) or the certificate error's message."""
    g = recon.genus
    n = g - 2
    kept = greedy_kept(eta1, eta2, g)
    basis1 = monomial_basis(g, 1)
    frame = ExactMatrix([[1 if j == i else 0 for j in range(g)] for i in kept]
                        + [eta1.coefficient_vector(basis1),
                           eta2.coefficient_vector(basis1)])
    inverse = frame.inverse()

    def restrict(poly):
        moved = change_coordinates(poly, inverse)
        return Polynomial(n, poly.degree, {exp[:n]: c for exp, c in moved.terms.items()
                                           if not any(exp[n:])})

    pieces = [from_spanning(piece.degree, n,
                            [q for q in map(restrict, piece.basis) if not q.is_zero()])
              for piece in (recon_piece(recon, 2), recon_piece(recon, 3))]
    hilbert = (1, n, comb(n + 1, 2) - pieces[0].dim, comb(n + 2, 3) - pieces[1].dim)
    if hilbert[2:] != (n, 1):
        return str(AlphaCertificateError(
            hilbert, "quotient algebra does not have the expected Hilbert vector"))
    try:
        cubic = macaulay_inverse(pieces, 3)
    except SocleDimensionError as err:
        return str(AlphaCertificateError(hilbert, str(err)))
    return hilbert, kept, pieces[0], cubic


def alpha_outcome(recon, eta1, eta2, quotient=alpha_map):
    """(hilbert, kept, Ann(cubic)_2 in reduced echelon form, cubic), or the
    certificate error's message."""
    try:
        alpha = quotient(recon, eta1, eta2)
    except AlphaCertificateError as err:
        return str(err)
    piece2 = apolar_ideal_piece(alpha.cubic, 2)
    return (alpha.hilbert, alpha.kept_indices,
            from_spanning(2, piece2.nvars, piece2.basis), alpha.cubic)


class TestElementwiseOracle:
    """alpha_map against the quotient computed element by element."""

    @pytest.mark.parametrize("make_curve", [
        lambda: trigonal_curve(5, seed=71),
        lambda: trigonal_curve(6, seed=72),
        lambda: trigonal_curve(7, seed=73),
        lambda: tetragonal_curve(6, 0, 1, seed=74),
        lambda: tetragonal_curve(7, 1, 1, seed=75),
        lambda: tetragonal_curve(7, 0, 2, seed=76),
    ], ids=["tri5", "tri6", "tri7", "tet6", "tet7-11", "tet7-02"])
    def test_random_hyperplanes(self, make_curve):
        curve = make_curve()
        recon = build_recon(curve)
        rng = make_rng(curve.genus)
        eta1 = random_dual_linear(curve.genus, rng)
        eta2 = random_dual_linear(curve.genus, rng)
        expected = elementwise_alpha(recon, eta1, eta2)
        assert not isinstance(expected, str)
        assert alpha_outcome(recon, eta1, eta2) == expected

    @pytest.mark.parametrize("make_curve", [
        lambda: trigonal_curve(6, seed=77),
        lambda: tetragonal_curve(6, 0, 1, seed=78),
    ], ids=["tri6", "tet6"])
    def test_coordinate_hyperplanes(self, make_curve):
        # coordinate pairs are far from general: many fail the certificate
        curve = make_curve()
        recon = build_recon(curve)
        g = curve.genus
        failed = []
        for i, j in combinations(range(g), 2):
            eta1, eta2 = Polynomial.variable(i, g), Polynomial.variable(j, g)
            expected = elementwise_alpha(recon, eta1, eta2)
            assert (alpha_outcome(recon, eta1, eta2) == expected
                    == alpha_outcome(recon, eta1, eta2, oracles.alpha_map))
            failed.append(isinstance(expected, str))
        assert any(failed)


def quotient_curves():
    """Trigonal g = 5..10 and tetragonal g = 6..9 at every split, seeds 1-3."""
    for seed in (1, 2, 3):
        for g in range(5, 11):
            yield pytest.param(g, None, seed, id=f"tri{g}-s{seed}")
        for g in range(6, 10):
            for b1 in range(0, (g - 5) // 2 + 1):
                split = (b1, g - 5 - b1)
                yield pytest.param(g, split, seed, id=f"tet{g}-{b1}{split[1]}-s{seed}")


class TestFractionOracle:
    """alpha_map against the Fraction quotient it replaced."""

    @pytest.mark.parametrize("g, split, seed", quotient_curves())
    def test_same_result_or_error(self, g, split, seed):
        # one general pair, and one with entries in [-1, 1], which drops
        # other coordinates and now and then fails the certificate
        curve = trigonal_curve(g, seed) if split is None else tetragonal_curve(g, *split, seed)
        recon = build_recon(curve, seed)
        rng = make_rng(derive_seed(seed, g))
        pairs = [_random_eta_pair(g, rng),
                 (random_dual_linear(g, rng, bound=1), random_dual_linear(g, rng, bound=1))]
        for eta1, eta2 in pairs:
            try:
                expected = oracles.alpha_map(recon, eta1, eta2)[:3]
            except AlphaCertificateError as err:
                expected = str(err)
            try:
                alpha = alpha_map(recon, eta1, eta2)
                found = (alpha.hilbert, alpha.kept_indices, alpha.cubic)
            except AlphaCertificateError as err:
                found = str(err)
            assert found == expected


class TestIntegerQuotient:
    """The quotient runs without the generic solver and builds one Polynomial."""

    @pytest.fixture(scope="class")
    def recons(self):
        return [build_recon(curve) for curve in (trigonal_curve(7, seed=91),
                                                 tetragonal_curve(8, 1, 2, seed=92))]

    def test_no_exact_matrix(self, recons, monkeypatch):
        oracles.refuse_rational_layer(monkeypatch)
        rng = make_rng(93)
        for recon in recons:
            g = recon.genus
            eta1, eta2 = _random_eta_pair(g, rng)
            assert quotient_frame(eta1, eta2, g)[0] == alpha_map(recon, eta1, eta2).kept_indices
            with pytest.raises(AlphaCertificateError, match="dependent"):
                quotient_frame(eta1, eta1 * 2, g)

    def test_builds_only_the_cubic(self, recons, monkeypatch):
        built = []
        original = Polynomial.__init__

        def recording(self, nvars, degree, terms):
            built.append((nvars, degree))
            original(self, nvars, degree, terms)
        rng = make_rng(94)
        for recon in recons:
            eta1, eta2 = _random_eta_pair(recon.genus, rng)
            monkeypatch.setattr(Polynomial, "__init__", recording)
            alpha_map(recon, eta1, eta2)
            monkeypatch.undo()
            assert built == [(recon.genus - 2, 3)]
            built.clear()


class TestIntegerFormsLayer:
    """The forms layer runs on integer rows from the form's integer terms."""

    def test_no_exact_matrix_and_no_contract(self, monkeypatch):
        # `contract` is an oracle only; the rational remainder of `core`
        # refuses to run while the integer forms layer is compared to it
        from apolar_kit.apolarity import hilbert_function
        from apolar_kit.waring import rank_lower_bound

        rng = make_rng(95)
        hesse = Polynomial(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 6})
        cubics = [change_coordinates(fermat(4), random_invertible_matrix(4, rng)), hesse,
                  random_form(3, 3, rng), Polynomial(2, 3, {(2, 1): 1}),
                  # not concise, and concise only past the 2^61 - 1 wrap
                  Polynomial(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1}),
                  hesse * (2 ** 61 - 1) + Polynomial(3, 3, {(2, 1, 0): 1})]
        forms = cubics + [random_form(3, 4, rng), random_form(2, 5, rng)]
        # the rational oracles build matrices and contract, so they run first
        expected = [(oracles.fermat_detect_detail(f, 1) if f.degree == 3 else None,
                     oracles.hilbert_vector(f),
                     [oracles.annihilator_piece(f, k) for k in range(f.degree + 2)])
                    for f in forms]
        recon = build_recon(trigonal_curve(6, seed=96))
        eta1, eta2 = _random_eta_pair(6, rng)
        assert not hasattr(core, "contract")
        oracles.refuse_rational_layer(monkeypatch)
        for f, (detected, profile, pieces) in zip(forms, expected):
            if f.degree == 3:
                assert fermat_detect_detail(f, seed=1) == detected
                assert rank_lower_bound(f) == profile.hilbert[1]
            assert hilbert_function(f) == profile
            assert [apolar_ideal_piece(f, k) for k in range(f.degree + 2)] == pieces
        assert [detected[1] for detected, _, _ in expected[:6]] == [
            "ok", "ok", "fit-failed", "non-simple-pencil", "rank-deficient", "ok"]
        assert alpha_map(recon, eta1, eta2).hilbert == (1, 4, 4, 1)


def scheme_of(curve, surface_index, eta1, eta2):
    kept = quotient_frame(eta1, eta2, curve.genus)[0]
    return _scheme(curve, surface_index, eta1, eta2, kept)


def vanishes_on_scheme(poly, determinant, phi):
    """poly(phi) = 0 modulo D, in sympy's exact arithmetic."""
    coords = [sympy.Poly(f[::-1], _T, domain="QQ") for f in phi]
    value = sympy.Poly(0, _T, domain="QQ")
    for exp, c in poly.terms.items():
        term = sympy.Poly(sympy.Rational(c.numerator, c.denominator), _T, domain="QQ")
        for f, e in zip(coords, exp):
            term = term * f ** e
        value = value + term
    return value.rem(sympy.Poly(determinant[::-1], _T, domain="QQ")).is_zero


def distinct(points):
    with mp.workprec(220):
        for u, v in combinations(points, 2):
            dot = mp.fsum(a * mp.conj(b) for a, b in zip(u, v))
            nu = mp.fsum(abs(a) ** 2 for a in u)
            nv = mp.fsum(abs(b) ** 2 for b in v)
            if 1 - abs(dot) ** 2 / (nu * nv) < mp.mpf(10) ** -30:
                return False
    return True


class TestGammaPoints:
    """The scheme builder against sympy: roots, lengths and vanishing."""

    def test_trigonal_point_count(self):
        for g, seed in [(5, 25), (6, 26)]:
            curve = trigonal_curve(g, seed=seed)
            rng = make_rng(seed)
            eta1 = random_dual_linear(g, rng)
            eta2 = random_dual_linear(g, rng)
            determinant, phi = scheme_of(curve, None, eta1, eta2)
            assert len(determinant) - 1 == g - 2 and len(phi) == g - 2
            points = oracle_points(determinant, phi)
            assert len(points) == g - 2 and distinct(points)

    def test_tetragonal_surface_lengths(self):
        curve = tetragonal_curve(7, 0, 2, seed=27)
        rng = make_rng(28)
        eta1 = random_dual_linear(7, rng)
        eta2 = random_dual_linear(7, rng)
        for surface_index, length in ((0, 8), (1, 6)):   # b = 0, b = 2
            determinant, phi = scheme_of(curve, surface_index, eta1, eta2)
            assert len(determinant) - 1 == length
            points = oracle_points(determinant, phi)
            assert len(points) == length and distinct(points)

    def test_trigonal_rejects_surface_index(self):
        curve = trigonal_curve(5, seed=29)
        rng = make_rng(30)
        with pytest.raises(ValueError):
            scheme_of(curve, 0, random_dual_linear(5, rng), random_dual_linear(5, rng))

    def test_apolarity_containment_degree_two(self):
        # the scheme sits on the scroll, and in degree 2 the trigonal
        # quotient ideal comes entirely from the scroll, so every degree-2
        # element vanishes on the scheme, exactly modulo D
        curve = trigonal_curve(6, seed=31)
        recon = build_recon(curve)
        rng = make_rng(32)
        eta1 = random_dual_linear(6, rng)
        eta2 = random_dual_linear(6, rng)
        alpha = alpha_map(recon, eta1, eta2)
        determinant, phi = scheme_of(curve, None, eta1, eta2)
        for op in apolar_ideal_piece(alpha.cubic, 2).basis:
            assert vanishes_on_scheme(op, determinant, phi)

    def test_scroll_quadric_images_vanish_on_tetragonal_scheme(self):
        curve = tetragonal_curve(7, 1, 1, seed=36)
        recon = build_recon(curve)
        rng = make_rng(37)
        eta1 = random_dual_linear(7, rng)
        eta2 = random_dual_linear(7, rng)
        alpha = alpha_map(recon, eta1, eta2)
        determinant, phi = scheme_of(curve, 0, eta1, eta2)
        for quadric in scroll_quadrics(curve.scroll):
            assert vanishes_on_scheme(reduce_to_quotient(alpha, quadric),
                                      determinant, phi)


def fermat(n):
    return Polynomial(n, 3, {tuple(3 if i == j else 0 for j in range(n)): 1
                             for i in range(n)})


class TestWaringCertificate:
    def test_incomplete_scheme_rejected(self):
        # two of the three points of x0^3 + x1^3 + x2^3: e0 and e1 at t = 0, 1
        with pytest.raises(CertificateError, match=r"\(c\)"):
            _certify_scheme([0, -1, 1], [[1, -1], [0, 1], [0]], fermat(3))

    def test_trigonal_certificate(self):
        curve = trigonal_curve(6, seed=34)
        recon = build_recon(curve)
        rng = make_rng(35)
        eta1 = random_dual_linear(6, rng)
        eta2 = random_dual_linear(6, rng)
        alpha = alpha_map(recon, eta1, eta2)
        determinant, phi = scheme_of(curve, None, eta1, eta2)
        assert _certify_scheme(determinant, phi, alpha.cubic) == 4
        dec = oracle_fit(determinant, phi, alpha.cubic)
        assert dec.rank == 4
        assert dec.residual < mp.mpf(10) ** -20


def certificate_failures(curve, alpha):
    failures = []
    found = _certify_fermat(curve, alpha, failures)
    return found, failures


def refuse_float_stages(monkeypatch):
    """Make the standalone Fermat detection raise wherever the package
    imported it, and mpmath's eigenvalue and root solvers everywhere."""
    from apolar_kit import waring

    def refuse(*args, **kwargs):
        raise AssertionError("a float stage ran on a verdict path")

    original = waring.fermat_detect_detail
    for module_name, module in list(sys.modules.items()):
        if (module_name.split(".")[0] == "apolar_kit"
                and getattr(module, "fermat_detect_detail", None) is original):
            monkeypatch.setattr(module, "fermat_detect_detail", refuse)
    monkeypatch.setattr(mp, "eig", refuse)
    monkeypatch.setattr(mp, "polyroots", refuse)


class TestExactCertificate:
    """Both verdicts: exact checks in Q[t]/(D), no root and no float."""

    @pytest.mark.parametrize("g", [5, 6, 7, 8])
    @pytest.mark.parametrize("seed", [81, 82])
    def test_agrees_with_float_detection_and_scheme_fit(self, g, seed):
        curve = trigonal_curve(g, seed=seed)
        alpha = alpha_for_curve(curve, seed=seed)
        found, failures = certificate_failures(curve, alpha)
        assert failures == []
        assert found["certificate"] == "exact"
        assert found["detected_rank"] == g - 2 and found["rank_interval"] == [g - 2, g - 2]
        assert fermat_detect_detail(alpha.cubic)[0].rank == g - 2
        determinant, phi = scheme_of(curve, None, alpha.eta1, alpha.eta2)
        assert oracle_fit(determinant, phi, alpha.cubic).rank == g - 2

    @pytest.mark.parametrize("surface_index, length", [(0, 8), (1, 6)])
    def test_tetragonal_agrees_with_scheme_fit(self, surface_index, length):
        # both surfaces of a g = 7 curve of split (0, 2): b = 0 and b = 2
        curve = tetragonal_curve(7, 0, 2, seed=87)
        alpha = alpha_for_curve(curve, seed=87)
        determinant, phi = scheme_of(curve, surface_index, alpha.eta1, alpha.eta2)
        assert _certify_scheme(determinant, phi, alpha.cubic) == length
        dec = oracle_fit(determinant, phi, alpha.cubic)
        assert dec.rank == length and dec.residual < mp.mpf(10) ** -20

    def test_rejects_a_perturbed_cubic(self):
        curve = trigonal_curve(7, seed=83)
        alpha = alpha_for_curve(curve, seed=83)
        n = curve.genus - 2
        bump = Polynomial.monomial((1, 1, 1) + (0,) * (n - 3))
        perturbed = dataclasses.replace(alpha, cubic=alpha.cubic + bump)
        found, failures = certificate_failures(curve, perturbed)
        assert found is None
        assert failures == ["certificate: (c) the cubic is not in the span of "
                            "the scheme's cubes"]

    def test_rejects_a_quadric_off_the_scheme(self):
        # the cubic of another hyperplane pair is a concise Fermat cubic
        # too, but the quadrics of its annihilator miss this scheme
        curve = trigonal_curve(7, seed=84)
        alpha = alpha_for_curve(curve, seed=84)
        rng = make_rng(85)
        other = alpha_map(build_recon(curve), random_dual_linear(7, rng),
                          random_dual_linear(7, rng))
        found, failures = certificate_failures(
            curve, dataclasses.replace(alpha, cubic=other.cubic))
        assert found is None
        assert failures == ["certificate: (c) the cubic is not in the span of "
                            "the scheme's cubes"]

    def test_rejects_a_repeated_point(self):
        # the double point at (1 : 0) has ideal (y1^2), apolar to the
        # concise cubic x0^2 x1, whose Waring rank is 3, not 2
        cubic = Polynomial.monomial((2, 1))
        with pytest.raises(CertificateError, match=r"\(a\)"):
            _certify_scheme([0, 0, 1], [[1], [0, 1]], cubic)

    def test_rejects_dependent_points(self):
        # the roots 0, 1, 2 of D go to e0, e1, e0: two distinct points only,
        # yet every quadric of Ann(x0^3 + x1^3 + x2^3) vanishes on them
        with pytest.raises(CertificateError, match=r"\(c\)"):
            _certify_scheme([0, 2, -3, 1], [[1, -2, 1], [0, 2, -1], [0]], fermat(3))

    def test_dependent_points_with_a_cubic_in_their_span(self, monkeypatch):
        # the points e0, e1, e0 of test_rejects_dependent_points span only
        # two cubes, fewer than L = 3, so the echelon decides, and passes
        # x0^3 + x1^3
        calls = []
        monkeypatch.setattr(waring, "_int_echelon",
                            lambda *args: calls.append(args) or _int_echelon(*args))
        cubic = Polynomial(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1})
        assert _certify_scheme([0, 2, -3, 1], [[1, -2, 1], [0, 2, -1], [0]], cubic) == 3
        assert len(calls) == 1

    def test_rejects_a_cubic_that_is_not_concise(self, monkeypatch):
        # x0^3 + x1^3 is a sum of the cubes of the scheme's points e0, e1
        # and e0 + e1 (at t = 0, 1, 2), but needs only two variables
        from apolar_kit import pipeline
        scheme = ([0, 2, -3, 1], [[2, -4, 2], [0, 3, -1], [0]])
        monkeypatch.setattr(pipeline, "_scheme", lambda *args: scheme)
        curve = trigonal_curve(5, seed=88)
        alpha = alpha_for_curve(curve, seed=88)
        cubic = Polynomial(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1})
        assert _certify_scheme(*scheme, cubic) == 3
        found, failures = certificate_failures(
            curve, dataclasses.replace(alpha, cubic=cubic))
        assert found is None
        assert failures == ["certificate: (d) the cubic is not concise"]

    def test_sheared_chart(self):
        # the first hyperplane pair puts a point of the scheme at (0 : 1),
        # outside the chart s = 1, so the certificate shears the chart
        seed = 765804037
        report = verify_trigonal_fermat(5, trials=1, seed=seed)
        trial = report["trials"][0]
        assert trial["passed"] and trial["eta_attempts"] == 1
        curve = trigonal_curve(5, derive_seed(seed, 0))
        alpha = alpha_for_curve(curve, derive_seed(seed, 0))
        (a0, a1), (b0, b1) = (linear_form_blocks(curve.scroll, eta)
                              for eta in (alpha.eta1, alpha.eta2))
        assert (a0 * b1 - a1 * b0).coefficient((0, 3)) == 0

    def test_verify_a_never_goes_through_floats(self, tmp_path, monkeypatch):
        refuse_float_stages(monkeypatch)
        for g in (5, 6, 7, 8):
            out = tmp_path / f"g{g}.json"
            assert main(["verify-a", "--g", str(g), "--trials", "1", "--seed", "86",
                         "--out", str(out)]) == 0
            for trial in json.loads(out.read_text())["trials"]:
                assert trial["certificate"] == "exact"
                assert trial["detected_rank"] == g - 2 and trial["agreement"] is True

    def test_verify_b_never_goes_through_floats(self, tmp_path, monkeypatch):
        refuse_float_stages(monkeypatch)
        for g, split in ((6, "0,1"), (7, "1,1"), (7, "0,2"), (8, "1,2")):
            out = tmp_path / f"g{g}.json"
            assert main(["verify-b", "--g", str(g), "--split", split, "--trials", "1",
                         "--seed", "86", "--out", str(out)]) == 0
            for trial in json.loads(out.read_text())["trials"]:
                assert trial["certificate"] == "exact"
                assert trial["length"] <= trial["bound"]


def linear_form_blocks(scroll, eta):
    """Restriction of an ambient linear form to the scroll: one binary
    base form per fiber coordinate."""
    coeffs = eta.coefficient_vector(monomial_basis(scroll.N + 1, 1))
    blocks, offset = [], 0
    for a in scroll.type:
        blocks.append(Polynomial(2, a, {(a - j, j): coeffs[offset + j]
                                        for j in range(a + 1) if coeffs[offset + j]}))
        offset += a + 1
    return blocks


@pytest.fixture(scope="module")
def certified_schemes():
    """(D, phi, cubic) of a trigonal g = 7 and a tetragonal g = 7 (1, 1) trial."""
    out = []
    for curve in (trigonal_curve(7, seed=89), tetragonal_curve(7, 1, 1, seed=89)):
        alpha = alpha_for_curve(curve, seed=89)
        index = None if curve.gonality == 3 else 0
        determinant, phi = scheme_of(curve, index, alpha.eta1, alpha.eta2)
        assert _certify_scheme(determinant, phi, alpha.cubic) == len(determinant) - 1
        out.append((determinant, phi, alpha.cubic))
    return out


SPLITS = {6: [(0, 1)], 7: [(0, 2), (1, 1)], 8: [(0, 3), (1, 2)], 9: [(0, 4), (1, 3), (2, 2)]}


@pytest.fixture(scope="module")
def seeded_schemes():
    """(D, phi, cubic) of trigonal g = 5..8 and, on both surfaces,
    tetragonal g = 6..9 curves at every split, at seeds 1-3: the first
    hyperplane pair `alpha_for_curve` accepts."""
    curves = [trigonal_curve(g, seed) for g in range(5, 9) for seed in (1, 2, 3)]
    curves += [tetragonal_curve(g, *split, seed) for g, splits in SPLITS.items()
               for split in splits for seed in (1, 2, 3)]
    out = []
    for curve in curves:
        alpha = alpha_for_curve(curve, curve.seed)
        for index in ((None,) if curve.gonality == 3 else (0, 1)):
            scheme = _scheme(curve, index, alpha.eta1, alpha.eta2, alpha.kept_indices)
            out.append((*scheme, alpha.cubic))
    return out


def verdict(certify, determinant, phi, cubic):
    """A certificate's length, or the text of its CertificateError."""
    try:
        return certify(determinant, phi, cubic)
    except CertificateError as err:
        return str(err)


def mutations(determinant, phi, cubic):
    """Inputs the certificate of a certified (D, phi, cubic) must refuse:
    the integer target e! F_e off by one at the first and the last cubic
    monomial, and the constant coefficient of the last coordinate of phi
    moved by one, which moves the columns of its monomials."""
    scale = cubic.integer_terms()[0]
    basis = monomial_basis(cubic.nvars, 3)
    for exp in (basis[0], basis[-1]):
        off = Fraction(1, scale * prod(map(factorial, exp)))
        yield determinant, phi, cubic + Polynomial.monomial(exp, off)
    last = (phi[-1] or [0])[:]
    last[0] += 1
    yield determinant, [*phi[:-1], last], cubic


class TestWitnessCertificate:
    """The functional on L independent columns decides as the echelon did."""

    def test_agrees_with_the_echelon_certificate(self, seeded_schemes):
        for scheme in seeded_schemes:
            assert _certify_scheme(*scheme) == echelon_certificate(*scheme) == len(scheme[0]) - 1

    def test_refuses_mutations_without_an_echelon(self, seeded_schemes, monkeypatch):
        def refuse(*args):
            raise AssertionError("the echelon fallback ran")

        monkeypatch.setattr(waring, "_int_echelon", refuse)
        for scheme in seeded_schemes:
            assert _certify_scheme(*scheme) == len(scheme[0]) - 1
            for mutated in mutations(*scheme):
                with pytest.raises(CertificateError, match=r"\(c\)"):
                    _certify_scheme(*mutated)

    def test_modular_shortfall_falls_back_to_the_echelon(self, seeded_schemes, monkeypatch):
        # modulo 2 some L columns independent over Q are dependent
        calls = []
        monkeypatch.setattr(core, "_RANK_PRIME", 2)
        monkeypatch.setattr(waring, "_int_echelon",
                            lambda *args: calls.append(args) or _int_echelon(*args))
        for scheme in seeded_schemes[::3]:
            for inputs in (scheme, next(mutations(*scheme))):
                assert verdict(_certify_scheme, *inputs) == verdict(echelon_certificate,
                                                                    *inputs)
        assert calls


class TestCertificateRejections:
    @given(st.integers(0, 1), st.integers(0, 34),
           st.fractions(min_value=-50, max_value=50, max_denominator=50)
           .filter(lambda c: c != 0))
    @settings(max_examples=40, deadline=None)
    def test_perturbed_cubics_are_rejected(self, certified_schemes, which, index, c):
        determinant, phi, cubic = certified_schemes[which]
        exp = monomial_basis(cubic.nvars, 3)[index]
        with pytest.raises(CertificateError, match=r"\(c\)"):
            _certify_scheme(determinant, phi, cubic + Polynomial.monomial(exp, c))

    @given(st.integers(0, 1), st.integers(-20, 20), st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_repeated_roots_are_rejected(self, certified_schemes, which, a, b):
        # D times (b t - a)^2 has a root of multiplicity 2
        determinant, phi, cubic = certified_schemes[which]
        square = [a * a, -2 * a * b, b * b]
        repeated = [0] * (len(determinant) + 2)
        for i, x in enumerate(determinant):
            for j, y in enumerate(square):
                repeated[i + j] += x * y
        with pytest.raises(CertificateError, match=r"\(a\)"):
            _certify_scheme(repeated, phi, cubic)


class TestVerifiers:
    def test_trigonal_verifier_passes(self):
        report = verify_trigonal_fermat(5, trials=2, seed=41)
        assert report["passed"]
        for trial in report["trials"]:
            assert trial["hilbert"] == [1, 3, 3, 1]
            assert trial["detected_rank"] == 3
            assert trial["agreement"]

    def test_tetragonal_special_split_length_six(self):
        report = verify_tetragonal_bound(7, (0, 2), trials=1, seed=42)
        assert report["passed"] and report["bound"] == 7
        assert report["trials"][0]["length"] == 6

    def test_tetragonal_generic_split_length_seven(self):
        report = verify_tetragonal_bound(7, (1, 1), trials=1, seed=43)
        assert report["trials"][0]["length"] == 7
        interval = report["trials"][0]["rank_interval"]
        assert interval[0] == 5 and interval[1] == 7

    def test_genus_out_of_range(self):
        with pytest.raises(ValueError):
            verify_trigonal_fermat(13, trials=1, seed=1)
        with pytest.raises(ValueError):
            verify_tetragonal_bound(12, None, trials=1, seed=1)
