"""Acceptance suite: the release gate for the whole package.

Each test implements one acceptance criterion at its stated tolerance
and prints a [PASS]/[FAIL] line (visible with pytest -s or on failure).
Budgets are generous at desk scale; everything here runs in well under
the limits on commodity hardware.
"""

import functools
from itertools import combinations
from math import comb

from apolar_kit.apolarity import apolar_ideal_piece, macaulay_inverse
from apolar_kit.core import ExactMatrix, Polynomial, change_coordinates, monomial_basis
from apolar_kit.curvegen import sample_points, tetragonal_curve, trigonal_curve
from apolar_kit.pipeline import (tetragonal_cube_bound, verify_tetragonal_bound,
                                 verify_trigonal_fermat)
from apolar_kit.planemodel import (higher_gonality_degree, nakai_certificate,
                                   tetragonal_numerology)
from apolar_kit.scroll import Scroll, chow_product, divisor_degree
from apolar_kit.seeding import make_rng, random_form
from apolar_kit.waring import fermat_detect_detail
from oracles import (catalecticant, contract, evaluate, from_sympy, normalized, pair,
                     piece_contains, random_invertible_matrix, recon_piece, to_sympy)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")
        return wrapper
    return decorate


def fermat(n):
    return Polynomial(n, 3, {tuple(3 if i == j else 0 for j in range(n)): 1
                             for i in range(n)})


@criterion(1, "sum-of-cubes annihilator structure, exact, n = 3, 4, 5")
def test_fermat_apolar_structure():
    for n in (3, 4, 5):
        f = fermat(n)
        piece2 = apolar_ideal_piece(f, 2)
        assert piece2.dim == comb(n, 2)
        expected = {Polynomial.monomial(tuple(1 if k in (i, j) else 0 for k in range(n)))
                    for i, j in combinations(range(n), 2)}
        assert set(piece2.basis) == expected
        piece3 = apolar_ideal_piece(f, 3)
        for i, j in combinations(range(n), 2):
            difference = Polynomial(
                n, 3, {tuple(3 if k == i else 0 for k in range(n)): 1,
                       tuple(3 if k == j else 0 for k in range(n)): -1})
            assert piece_contains(piece3, difference)


@criterion(2, "inverse-system round trip on 50 random cubics, exact")
def test_macaulay_round_trip():
    rng = make_rng(2024)
    for _ in range(50):
        n = rng.randint(2, 6)
        f = random_form(n, 3, rng)
        pieces = [apolar_ideal_piece(f, k) for k in range(1, 4)]
        recovered = macaulay_inverse(pieces, 3)
        assert recovered == normalized(f)


@criterion(3, "trigonal curves: quotient cubic is a sum of exactly g-2 cubes, "
              "g = 5, 6, 7, five trials each")
def test_trigonal_verification():
    for g in (5, 6, 7):
        report = verify_trigonal_fermat(g, trials=5, seed=100 + g)
        assert report["passed"]
        for trial in report["trials"]:
            assert trial["hilbert"] == [1, g - 2, g - 2, 1]
            assert trial["detected_rank"] == g - 2
            assert trial["scheme_points"] == g - 2
            assert trial["agreement"]


@criterion(4, "tetragonal curves: decomposition lengths within ceil((3g-7)/2), "
              "with the genus-7 split golden lengths")
def test_tetragonal_verification():
    expectations = {6: 6, 7: 7, 8: 9}
    for g, bound in expectations.items():
        assert tetragonal_cube_bound(g) == bound
    for g, split, trials in [(6, (0, 1), 2), (8, (1, 2), 2)]:
        report = verify_tetragonal_bound(g, split, trials=trials, seed=200 + g)
        assert report["passed"]
        for trial in report["trials"]:
            assert trial["length"] <= expectations[g]
            assert trial["rank_interval"][0] <= trial["rank_interval"][1]
    generic = verify_tetragonal_bound(7, (1, 1), trials=2, seed=207)
    assert all(t["length"] == 7 for t in generic["trials"])
    special = verify_tetragonal_bound(7, (0, 2), trials=2, seed=208)
    assert all(t["length"] == 6 for t in special["trials"])
    for report in (generic, special):
        for trial in report["trials"]:
            lo, hi = trial["rank_interval"]
            assert lo == 5 and hi == trial["length"]


@criterion(5, "intersection-ring identities on scrolls, exact")
def test_chow_identities():
    rng = make_rng(55)
    for _ in range(20):
        k = rng.randint(1, 4)
        entries = tuple(rng.randint(0, 4) for _ in range(k))
        if not any(entries):
            entries = entries[:-1] + (1,)
        s = Scroll(entries)
        assert s.degree == s.N - s.k + 1
        assert chow_product([s.H] * s.k) == s.degree
    for g in range(6, 13):
        parts = [(g - 3) // 3] * 3
        parts[1] += ((g - 3) - sum(parts)) // 2
        parts[2] = (g - 3) - parts[0] - parts[1]
        s = Scroll(tuple(sorted(parts)))
        for b1 in range(0, g - 4):
            b2 = g - 5 - b1
            assert chow_product([s.cls(2, -b1), s.cls(2, -b2), s.H]) == 2 * g - 2
        for b in range(0, g - 4):
            assert divisor_degree(s, s.cls(2, -b)) == 2 * g - 6 - b


@criterion(6, "plane-model numerology golden values, exact")
def test_numerology_goldens():
    g7 = tetragonal_numerology(7)
    assert g7.multiplicities == (3, 3, 2, 2)
    assert g7.branches[0].sum_m_m1 == 16
    assert g7.branches[0].sum_m_minus_1 == 6
    assert g7.deg_surface == 6
    for k in range(2, 9):
        report = tetragonal_numerology(3 * k)
        assert report.multiplicities == (k,) * 4
        assert report.deg_surface == 4 * k - 3
    for k in range(3, 9):   # genus 3k - 1 >= 6 needs k >= 3
        report = tetragonal_numerology(3 * k - 1)
        assert report.bound == 4 * k - 3
        five, four = report.branches
        assert five.multiplicities == (k, k, k, k, 2)
        assert four.multiplicities == tuple(sorted((k + 1, k, k, k - 1), reverse=True))
        assert four.deg_surface == 4 * k - 5
        assert all(b.deg_surface <= report.bound for b in report.branches)
    for k in range(2, 9):
        report = tetragonal_numerology(3 * k + 1)
        assert report.multiplicities == (k + 1, k + 1, k, k)
        assert report.deg_surface == 4 * k - 2 == report.bound
    for k in range(2, 21):
        assert higher_gonality_degree(4, k).deg_surface == \
            tetragonal_numerology(3 * k).deg_surface == 4 * k - 3


@criterion(7, "blow-up positivity certificates, exact")
def test_nakai_certificates():
    for k in range(2, 21):
        report = nakai_certificate(k, a_max=50 if k <= 8 else 10)
        assert report.ample.self_intersection == 4 * k - 3
        assert report.curve.self_intersection == 8 * k + 4
        assert report.tail_holds
        if k <= 8:
            assert report.ample.violations == ()
            assert report.curve.violations == ()
            assert report.holds


@criterion(8, "property suites: bilinearity, composition, perfect pairing, "
              "rank symmetry, detection invariance, exact point residuals")
def test_property_suites():
    rng = make_rng(88)
    # contraction bilinearity and composition, 20 instances each
    for _ in range(20):
        n = rng.randint(2, 4)
        d1 = random_form(n, 1, rng)
        d2 = random_form(n, rng.randint(1, 2), rng)
        f = random_form(n, 3, rng)
        g = random_form(n, 3, rng)
        f_plus_g = from_sympy(to_sympy(f) + to_sympy(g), n, 3)
        assert contract(d1, f_plus_g) == from_sympy(
            to_sympy(contract(d1, f)) + to_sympy(contract(d1, g)), n, 2)
        product = from_sympy(to_sympy(d1) * to_sympy(d2), n, 1 + d2.degree)
        assert contract(d1, contract(d2, f)) == contract(product, f)
    # perfect pairing on 20 (nvars, degree) slots
    slots = [(n, d) for n in range(1, 6) for d in range(1, 5)]
    for n, d in slots:
        basis = monomial_basis(n, d)
        gram = ExactMatrix([[pair(Polynomial.monomial(b), Polynomial.monomial(a))
                             for a in basis] for b in basis])
        assert gram.rank() == len(basis)
    # catalecticant rank symmetry, 20 instances
    for _ in range(20):
        n = rng.randint(2, 4)
        d = rng.randint(2, 4)
        f = random_form(n, d, rng)
        ranks = [catalecticant(f, k).rank() for k in range(d + 1)]
        assert ranks == ranks[::-1]
    # detection is invariant under coordinate changes, 20 instances
    for trial in range(20):
        n = rng.randint(2, 5)
        m = random_invertible_matrix(n, rng)
        f = change_coordinates(fermat(n), m)
        dec = fermat_detect_detail(f, seed=trial)[0]
        assert dec is not None and dec.rank == n
        assert len(dec.points) == n and dec.scheme_equation[-1] == 1
    # sampled points satisfy every equation and ideal element exactly
    from apolar_kit.curvegen import ideal_pieces
    checked = 0
    for g, curve in [(5, trigonal_curve(5, seed=500)),
                     (6, tetragonal_curve(6, 0, 1, seed=600))]:
        points = sample_points(curve, curve.guaranteed_point_count, seed=g)
        recon = ideal_pieces(curve, g)
        assert recon.points == tuple(points)
        for p in points:
            for op in recon_piece(recon, 2).basis + recon_piece(recon, 3).basis:
                assert evaluate(op, p) == 0
            checked += 1
    assert checked >= 20
