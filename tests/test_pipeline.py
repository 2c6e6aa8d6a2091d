import functools
import json
import re
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from apolar_kit import core, curvegen, waring
from apolar_kit import pipeline as pipeline_module
from apolar_kit.apolarity import _inverse_vectors, apolar_ideal_piece
from apolar_kit.cli import main
from apolar_kit.core import ExactMatrix, Polynomial, change_coordinates, monomial_basis
from apolar_kit.curvegen import (_restriction_classes, balanced_type, ideal_pieces,
                                 tetragonal_curve, trigonal_curve)
from apolar_kit.pipeline import (AlphaCertificateError, AlphaResult, CertificateError,
                                 _certify_bound, _certify_fermat, _random_eta_pair,
                                 alpha_for_curve, alpha_map, quotient_frame, reduce_to_quotient,
                                 tetragonal_cube_bound, verify_tetragonal_bound,
                                 verify_trigonal_fermat)
from apolar_kit.seeding import derive_seed, make_rng, random_dual_linear, random_form
from apolar_kit.univariate import _combine, _mul, _multiples
from apolar_kit.waring import fermat_detect_detail
import oracles
from oracles import (admissible_splits, cached, coefficient_matrix, echelon_certificate,
                     from_spanning, from_sympy, normalized, oracle_fit, oracle_points, plus_term,
                     random_invertible_matrix, recon_piece, replaced, scaled, scroll_quadrics,
                     to_sympy)

_T = sympy.Symbol("t")


def variable(i, n):
    """The linear form x_i in n variables."""
    return Polynomial.monomial(tuple(int(j == i) for j in range(n)))


def build_recon(curve, seed=3):
    return ideal_pieces(curve, seed)


def without_equations(recon):
    """The reconstruction with the curve's equations dropped and its
    degree-2 rows kept."""
    return cached(replaced(recon, curve=replaced(recon.curve, equations=())),
                  degree2=recon.degree2)


def exact_path(monkeypatch):
    """Make every gcd certificate of the quotient fail, so each pair takes
    the exact path: check (ii), the Sylvester kernel and the rank of mu."""
    monkeypatch.setattr(pipeline_module, "_coprime_mod", lambda *args: False)


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
    """The quotient's profile and its kept coordinates, these against the
    frame of one rref of the hyperplane rows (`oracles.quotient_frame`)."""

    def test_trigonal_genus_five_profile(self):
        curve = trigonal_curve(5, seed=21)
        recon = build_recon(curve)
        rng = make_rng(5)
        alpha = alpha_map(recon, random_dual_linear(5, rng),
                          random_dual_linear(5, rng))
        assert alpha.hilbert == (1, 3, 3, 1)
        assert alpha.cubic.nvars == 3 and alpha.cubic.degree == 3
        assert not alpha.cubic.is_zero()
        assert alpha.cubic == normalized(alpha.cubic)

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
            alpha_map(recon, eta, scaled(eta, 2))

    @pytest.mark.parametrize("g", [5, 6, 7, 8])
    def test_quotient_frame_on_coordinate_pairs(self, g):
        # the kept coordinates do not depend on the order of the pair
        for i, j in combinations(range(g), 2):
            eta1, eta2 = variable(i, g), variable(j, g)
            kept = oracles.quotient_frame(eta1, eta2, g)[0]
            assert quotient_frame(eta1, eta2, g) == kept
            assert quotient_frame(eta2, eta1, g) == kept

    def test_quotient_frame_matches_the_inverted_frame(self):
        # entries in [-1, 1] give zeros, so every dropped pair occurs, and
        # so do dependent pairs; the oracles' restriction, delta L[:, :n]
        # with L the inverse of the rref frame and delta the minor of the
        # primitive hyperplane rows at the dropped pair, is an integer
        # matrix that keeps the kept coordinates up to delta
        dependent = 0
        for seed, draws, top in ((38, 200, 8), (39, 2400, 12)):
            rng = make_rng(seed)
            for _ in range(draws):
                g = rng.randint(5, top)
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
                assert quotient_frame(eta1, eta2, g) == kept
                _, delta, restriction = oracles.restriction_matrix(eta1, eta2, g)
                assert delta and all(type(x) is int for row in restriction for x in row)
                assert [restriction[i] for i in kept] == [
                    [delta * (i == k) for k in range(g - 2)] for i in range(g - 2)]
        assert dependent > 0

    def test_random_pairs_skip_dependent_ones(self, monkeypatch):
        # the second draw is a multiple of the first; the next pair is kept
        etas = iter([variable(0, 5), scaled(variable(0, 5), 3),
                     variable(1, 5), variable(4, 5)])
        monkeypatch.setattr(pipeline_module, "random_dual_linear", lambda g, rng: next(etas))
        assert _random_eta_pair(5, None) == (variable(1, 5), variable(4, 5))

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


def against_the_oracle(curve, recon, eta1, eta2):
    """alpha_map against `oracles.alpha_map` on one pair; returns whether
    alpha_map accepted it.  Where both accept, the Hilbert vector, kept
    coordinates and cubic agree; where both reject, alpha_map's diagnostic
    is the oracle's cut to its length, and so is the text unless the
    section failed.  Where the oracle finds h2 != n, a section check,
    (i) or (ii), fails.  A pair only alpha_map rejects has a degenerate
    section (h2 = n), and the oracle's cubic fails the scheme certificate
    on it."""
    n = curve.genus - 2
    try:
        expected = oracles.alpha_map(recon, eta1, eta2)
    except AlphaCertificateError as err:
        expected = err
    try:
        alpha = alpha_map(recon, eta1, eta2)
    except AlphaCertificateError as err:
        if isinstance(expected, AlphaCertificateError):
            assert err.hilbert == expected.hilbert[:len(err.hilbert)]
            if len(err.hilbert) != 2:
                assert str(err) == str(expected)
            elif expected.hilbert[2] != n:
                assert re.search(r"\((i|ii)\) ", str(err))
        else:
            assert err.hilbert == (1, n) and "degenerate section" in str(err)
            # the oracle's generic kernel gives no functional, so the
            # cubic is checked by the span certificate
            certify = (oracles.scheme_certify_fermat if curve.gonality == 3
                       else oracles.scheme_certify_bound)
            hilbert, kept, cubic = expected[:3]
            assert certify(curve, oracles.SectionQuotient(curve.genus, eta1, eta2, hilbert,
                                                          kept, (), cubic), []) is None
        return False
    assert not isinstance(expected, AlphaCertificateError), expected
    assert (alpha.hilbert, alpha.kept_indices, alpha.cubic) == tuple(expected[:3])
    return True


class TestElementwiseOracle:
    """alpha_map against `oracles.alpha_map`, which restricts the ideal
    pieces element by element through the public `substitute`."""

    @pytest.mark.parametrize("make_curve", [
        lambda: trigonal_curve(5, seed=71),
        lambda: trigonal_curve(6, seed=72),
        lambda: trigonal_curve(7, seed=73),
        lambda: tetragonal_curve(6, 0, 1, seed=74),
        lambda: tetragonal_curve(7, 1, 1, seed=75),
        lambda: tetragonal_curve(7, 0, 2, seed=76),
    ], ids=["tri5", "tri6", "tri7", "tet6", "tet7-11", "tet7-02"])
    def test_random_hyperplanes(self, make_curve):
        # the oracle's restricted quadrics span Ann(cubic)_2
        curve = make_curve()
        recon = build_recon(curve)
        rng = make_rng(curve.genus)
        eta1 = random_dual_linear(curve.genus, rng)
        eta2 = random_dual_linear(curve.genus, rng)
        expected = oracles.alpha_map(recon, eta1, eta2)
        alpha = alpha_map(recon, eta1, eta2)
        assert (alpha.hilbert, alpha.kept_indices, alpha.cubic) == tuple(expected[:3])
        piece2 = apolar_ideal_piece(alpha.cubic, 2)
        assert from_spanning(2, piece2.nvars, piece2.basis) == expected.quotient_piece2

    @pytest.mark.parametrize("make_curve", [
        lambda: trigonal_curve(6, seed=77),
        lambda: tetragonal_curve(6, 0, 1, seed=78),
    ], ids=["tri6", "tet6"])
    def test_coordinate_hyperplanes(self, make_curve):
        # coordinate pairs are far from general: many fail the certificate
        curve = make_curve()
        recon = build_recon(curve)
        g = curve.genus
        assert not all([against_the_oracle(curve, recon, variable(i, g), variable(j, g))
                        for i, j in combinations(range(g), 2)])


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
        assert against_the_oracle(curve, recon, *pairs[0])
        against_the_oracle(curve, recon, *pairs[1])


class TestIntegerQuotient:
    """The quotient runs without the generic solver and builds no Polynomial;
    its cubic is built once, where it is read."""

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
            assert quotient_frame(eta1, eta2, g) == alpha_map(recon, eta1, eta2).kept_indices
            with pytest.raises(AlphaCertificateError, match="dependent"):
                quotient_frame(eta1, scaled(eta1, 2), g)

    def test_builds_the_cubic_only_when_read(self, recons, monkeypatch):
        built = []
        original = Polynomial.__init__

        def recording(self, nvars, degree, terms):
            built.append((nvars, degree))
            original(self, nvars, degree, terms)
        rng = make_rng(94)
        for recon in recons:
            eta1, eta2 = _random_eta_pair(recon.genus, rng)
            monkeypatch.setattr(Polynomial, "__init__", recording)
            alpha = alpha_map(recon, eta1, eta2)
            assert built == []
            assert alpha.cubic is alpha.cubic
            monkeypatch.undo()
            assert built == [(recon.genus - 2, 3)]
            built.clear()
            with pytest.raises(AttributeError):
                alpha.cubic = None


def section_curves():
    """Trigonal g = 5..10 and tetragonal g = 6..11 at every admissible
    split, seeds 1-3."""
    for seed in (1, 2, 3):
        for g in range(5, 11):
            yield pytest.param(g, None, seed, id=f"tri{g}-s{seed}")
        for g in range(6, 12):
            for split in admissible_splits(g):
                yield pytest.param(g, split, seed, id=f"tet{g}-{split[0]}{split[1]}-s{seed}")


def section_curve(g, split, seed):
    return trigonal_curve(g, seed) if split is None else tetragonal_curve(g, *split, seed)


def drawn_quotients(curve, seed, every=True):
    """The (recon, eta1, eta2, accepted) of each pair `_alpha_attempts`
    draws for a curve: all of them, or up to the first accepted one."""
    drawn = []
    original = pipeline_module.alpha_map
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_module, "alpha_map",
                      lambda *args: drawn.append(args) or original(*args))
        for alpha in pipeline_module._alpha_attempts(curve, seed):
            drawn[-1] += (isinstance(alpha, AlphaResult),)
            if drawn[-1][-1] and not every:
                break
    return tuple(drawn)


@functools.lru_cache(maxsize=None)
def section_pairs(g, split, seed):
    """`drawn_quotients` of a `section_curve`: every pair up to g = 9, and
    up to the first accepted one beyond, where the oracle's generic
    kernel costs about half a second a pair."""
    return drawn_quotients(section_curve(g, split, seed), seed, every=g <= 9)


class TestSectionInverseSystem:
    """The quotient read off what the hyperplanes cut on the scroll, and
    the reference basis of V read off it (`oracles.section_inverse_system`),
    against the oracle's generic kernel over all cubics."""

    @pytest.mark.parametrize("g, split, seed", section_curves())
    def test_same_quotient_as_the_oracle(self, g, split, seed):
        curve = section_curve(g, split, seed)
        pairs = section_pairs(g, split, seed)
        for recon, eta1, eta2, accepted in pairs:
            assert against_the_oracle(curve, recon, eta1, eta2) == accepted
        assert pairs[-1][3] or len(pairs) == pipeline_module._ETA_RETRIES

    @pytest.mark.parametrize("g, split", [(5, None), (8, None), (7, (1, 1)), (8, (1, 2))],
                             ids=["tri5", "tri8", "tet7", "tet8"])
    def test_same_span_as_the_generic_kernel(self, g, split):
        recon, eta1, eta2, _ = next(pair for pair in section_pairs(g, split, 1) if pair[3])
        kept, _, quadrics = oracles.restricted_quadrics(recon, eta1, eta2)
        fiber, functionals = oracles.section_inverse_system(
            recon.scroll, pipeline_module._hyperplane_rows(eta1, eta2), kept, quadrics)
        image = pipeline_module._embed(recon.scroll, fiber)
        solutions = [oracles.product_cubic_of(lam, [image[i] for i in kept])
                     for lam in functionals]
        n = g - 2
        columns3 = monomial_basis(n, 3)
        generic = _inverse_vectors([(2, quadrics)], 3, columns3)
        assert len(solutions) == len(generic)
        span = [from_spanning(3, n, [Polynomial(n, 3, v) for v in vectors]).basis
                for vectors in (solutions,
                                [{columns3[j]: x for j, x in v.items()} for v in generic])]
        assert span[0] == span[1]
        # the Sylvester system's cubic lies in that span
        cubic = alpha_map(recon, eta1, eta2).cubic
        assert from_spanning(3, n, [*span[0], cubic]).basis == span[0]

    @pytest.mark.parametrize("g, split, seed", section_curves())
    def test_eliminations_stay_within_the_section_functionals(self, g, split, seed,
                                                             monkeypatch):
        # a work count, not a time: every exact elimination of the accepted
        # pair has at most 3m + 1 columns, the functionals on forms of
        # degree 3m (m = n - 1 on a threefold, n on a surface); the
        # generic kernel has C(n + 2, 3)
        widths = []
        echelon = core._int_echelon

        def recording(rows, ncols):
            widths.append(ncols)
            return echelon(rows, ncols)

        monkeypatch.setattr(core, "_int_echelon", recording)
        monkeypatch.setattr(pipeline_module, "_int_echelon", recording)
        recon, eta1, eta2, _ = next(pair for pair in section_pairs(g, split, seed) if pair[3])
        alpha_map(recon, eta1, eta2).functional
        n = g - 2
        m = n if split is None else n - 1
        assert widths and max(widths) <= 3 * m + 1 <= comb(n + 2, 3)

    def test_degenerate_section_is_redrawn(self):
        # the first pair of this seed makes the two hyperplanes
        # proportional on the fiber over (1 : -1): phi has rank 4, not 5;
        # the generic kernel accepts it, but its cubic has no certificate
        seed = 1262656446957978
        curve = tetragonal_curve(7, 0, 2, seed)
        (recon, eta1, eta2, accepted), (*_, redrawn) = drawn_quotients(curve, seed,
                                                                       every=False)
        assert not accepted and redrawn
        etas = pipeline_module._hyperplane_rows(eta1, eta2)
        [fiber], _ = pipeline_module._section(curve.scroll, etas)
        assert not any(sum(c * (-1) ** j for j, c in enumerate(f)) for f in fiber)
        image = pipeline_module._embed(curve.scroll, fiber)
        kept = quotient_frame(eta1, eta2, 7)
        assert ExactMatrix([image[i] for i in kept]).rank() == 4
        with pytest.raises(AlphaCertificateError, match=r"\(i\) the section's coordinates"):
            alpha_map(recon, eta1, eta2)
        assert not against_the_oracle(curve, recon, eta1, eta2)

    def test_h2_off_n_fails_the_section(self, monkeypatch):
        # coordinate pairs on a trigonal sextic: where h2 != n no rank of
        # the restricted quadrics is taken, a check of the section fails,
        # and the diagnostic stops at (1, n)
        recon = build_recon(trigonal_curve(6, seed=77))
        widths = []
        original = pipeline_module._int_rank
        monkeypatch.setattr(pipeline_module, "_int_rank",
                            lambda rows, ncols: widths.append(ncols) or original(rows, ncols))
        off = 0
        for i, j in combinations(range(6), 2):
            if oracles.h2(recon, variable(i, 6), variable(j, 6)) != 4:
                with pytest.raises(AlphaCertificateError, match=r"\((i|ii)\) ") as err:
                    alpha_map(recon, variable(i, 6), variable(j, 6))
                assert err.value.hilbert == (1, 4)
                off += 1
        assert off and widths and max(widths) <= 5   # (i): m + 1 columns


def pairing_curves():
    """Trigonal g = 5..12 and tetragonal g = 6..11 at every admissible
    split, seeds 1-3."""
    yield from section_curves()
    for seed in (1, 2, 3):
        for g in (11, 12):
            yield pytest.param(g, None, seed, id=f"tri{g}-s{seed}")


def tetragonal_section_curves():
    """Tetragonal g = 6..11 at every admissible split, seeds 1-3."""
    return [param for param in section_curves() if param.values[1] is not None]


BENCH_CURVES = [(g, None) for g in (5, 6, 7, 8)] + [(6, (0, 1)), (7, (1, 1)), (7, (0, 2)),
                                                    (8, (1, 2))]


def sweep_pairs(g, split, seed):
    """The recon of a `section_curve` and every pair `_alpha_attempts` draws
    for it, at every genus, two pairs with entries in [-1, 1] and three
    coordinate pairs.  Beyond g = 9 `section_pairs` stops at the first
    accepted pair, so the draws are repeated here from the salted stream,
    without the quotient, and checked against its prefix."""
    prefix = section_pairs(g, split, seed)
    drawn = make_rng(derive_seed(seed, 271 if split is None else 577))
    pairs = [_random_eta_pair(g, drawn) for _ in range(pipeline_module._ETA_RETRIES)]
    assert pairs[:len(prefix)] == [(eta1, eta2) for _, eta1, eta2, _ in prefix]
    rng = make_rng(derive_seed(seed, g))
    pairs += [(random_dual_linear(g, rng, bound=1), random_dual_linear(g, rng, bound=1))
              for _ in range(2)]
    pairs += [(variable(i, g), variable(j, g))
              for i, j in (sorted(rng.sample(range(g), 2)) for _ in range(3))]
    return prefix[0][0], pairs


def proportional(u, v):
    """Whether two integer vectors are nonzero multiples of each other."""
    k = next((k for k, x in enumerate(v) if x), None)
    return (len(u) == len(v) and k is not None and u[k] != 0
            and all(a * v[k] == b * u[k] for a, b in zip(u, v)))


def accepted_pair(g, split):
    """(recon, eta1, eta2) of the first pair `alpha_map` accepts at seed 1."""
    return next(pair[:3] for pair in section_pairs(g, split, 1) if pair[3])


def assert_what_a_trial_skips(recon, alpha):
    """On an accepted pair, what a trial no longer computes: the exact
    Sylvester kernel is one line, rank mu = n, check (ii) accepts (the
    section checks on the restricted quadrics,
    `oracles.restricted_section_forms`, give the quotient's phi and
    forms), every row of J2 vanishes on the sampled points (none on a
    curve without hints), and the closed degree-2 count is the piece
    `_piece` builds."""
    n = recon.genus - 2
    assert len(core._kernel_vectors(pipeline_module._sylvester_rows(alpha.phi, alpha.forms),
                                    len(alpha.functional))) == 1
    assert core._int_rank(alpha.mu, n) == n == alpha.contraction_rank
    phi, forms = oracles.restricted_section_forms(recon, alpha.eta1, alpha.eta2)
    assert (tuple(map(tuple, phi)), tuple(map(tuple, forms))) == (alpha.phi, alpha.forms)
    assert not oracles.nonvanishing(recon.degree2, recon.points, recon.genus, 2)
    assert (curvegen._piece_count(recon.scroll, recon.curve.classes, 2)
            == len(curvegen._piece(recon.curve, 2)) == len(recon.degree2))


class TestSylvesterSystem:
    """lambda as the one kernel of the curve's two binary forms on the
    section times every monomial, against the two-kernel reference that
    pairs the degree-3 rows (`oracles.class_pairing_alpha_map`), on every
    pair `sweep_pairs` gives up to g = 12.  The generic `oracles.alpha_map`
    costs several times as much a pair, so it sweeps only up to the first
    accepted pair beyond g = 9 (`TestSectionInverseSystem`)."""

    @pytest.mark.parametrize("g, split, seed", pairing_curves())
    def test_same_quotient_as_the_class_pairing(self, g, split, seed):
        # hilbert, cubic and error text equal, lambda up to a nonzero factor;
        # the reference ranks h2, and a pair with h2 != n fails (i) or (ii)
        # here with only (1, n) certified; the contraction rank of the
        # cubic is the rank of mu = H_m(lambda) phi
        recon, pairs = sweep_pairs(g, split, seed)
        n = g - 2
        for eta1, eta2 in pairs:
            try:
                expected = oracles.class_pairing_alpha_map(recon, eta1, eta2)
            except AlphaCertificateError as err:
                expected = err
            try:
                alpha = alpha_map(recon, eta1, eta2)
            except AlphaCertificateError as err:
                assert isinstance(expected, AlphaCertificateError), expected
                if len(err.hilbert) > 1 and oracles.h2(recon, eta1, eta2) != n:
                    assert err.hilbert == (1, n) and re.search(r"\((i|ii)\) ", str(err))
                    continue
                assert (err.hilbert, str(err)) == (expected.hilbert, str(expected))
                continue
            assert oracles.h2(recon, eta1, eta2) == n
            assert not isinstance(expected, AlphaCertificateError), expected
            assert (alpha.hilbert, alpha.kept_indices, alpha.cubic) == (
                expected.hilbert, expected.kept_indices, expected.cubic)
            assert proportional(alpha.functional, expected.functional)
            assert core._int_rank(alpha.mu, n) == waring.rank_lower_bound(alpha.cubic)

    @pytest.mark.parametrize("g, split, seed", pairing_curves())
    def test_same_section_checks_as_the_restricted_quadrics(self, g, split, seed):
        # each quadric row read on the embedded fiber, times delta^2, is the
        # restricted quadric read on phi: exactly on a threefold, modulo D
        # on a surface, where the fiber lies on one hyperplane and the
        # other restricts to +-D; so checks (i) and (ii) pass and fail,
        # with the same text, as they did on the restricted quadrics
        recon, pairs = sweep_pairs(g, split, seed)
        n = g - 2
        m = n if split is None else n - 1
        basis2 = monomial_basis(g, 2)
        rows = [{basis2[j]: c for j, c in row.items()} for row in recon.degree2]
        for eta1, eta2 in pairs:
            etas = pipeline_module._hyperplane_rows(eta1, eta2)
            try:
                expected = oracles.restricted_section_forms(recon, eta1, eta2)
            except AlphaCertificateError as err:
                expected = err.hilbert, str(err)
            try:
                found = pipeline_module._section_forms(recon, etas,
                                                       quotient_frame(eta1, eta2, g))[:2]
            except AlphaCertificateError as err:
                found = err.hilbert, str(err)
            assert found == expected
            if found[0] == (1,):
                continue   # dependent hyperplanes
            kept, delta, restriction = oracles.restriction_matrix(eta1, eta2, g)
            restricted = core._int_substitute(rows, restriction, n)
            fibers, determinant = pipeline_module._section(recon.scroll, etas)
            relations = _multiples([determinant] if determinant else [], 2 * m)
            for fiber in fibers:
                image = pipeline_module._embed(recon.scroll, fiber)
                on_fiber = oracles.powers(image, 2)
                on_phi = oracles.powers([image[i] for i in kept], 2)
                for row, q in zip(rows, restricted):
                    difference = _combine([
                        (delta ** 2, _combine((c, on_fiber[exp]) for exp, c in row.items())),
                        (-1, _combine((c, on_phi[exp]) for exp, c in q.items()))])
                    assert (core._int_rank(relations + [difference], 2 * m + 1)
                            == core._int_rank(relations, 2 * m + 1))

    @pytest.mark.parametrize("g, split", [(7, None), (8, None), (7, (1, 1)), (8, (1, 2))],
                             ids=["tri7", "tri8", "tet7", "tet8"])
    def test_a_quadric_off_the_relations_fails_ii(self, g, split, monkeypatch):
        # the first quadric row replaced by x_a^2 at the first kept a, which
        # reads phi_0^2 on the embedded fiber, no combination of the
        # relations' multiples: the certified path reads no row, the exact
        # path's check (ii) refuses it
        recon, eta1, eta2 = accepted_pair(g, split)
        n = g - 2
        a = quotient_frame(eta1, eta2, g)[0]
        square = monomial_basis(g, 2).index(tuple(2 * (i == a) for i in range(g)))
        recon = cached(recon, degree2=({square: 1},) + recon.degree2[1:])
        assert alpha_map(recon, eta1, eta2).hilbert == (1, n, n, 1)
        exact_path(monkeypatch)
        with pytest.raises(AlphaCertificateError) as err:
            alpha_map(recon, eta1, eta2)
        assert err.value.hilbert == (1, n)
        # a surface tries both of its fibers
        assert str(err.value).count("(ii) J2 and the section's quadrics differ") == (
            2 if split is None else 1)
        assert "(i)" not in str(err.value)

    @pytest.mark.parametrize("g, split", [(7, None), (8, None), (7, (1, 1)), (8, (1, 2))],
                             ids=["tri7", "tri8", "tet7", "tet8"])
    def test_a_binomial_across_classes_fails_ii(self, g, split, monkeypatch):
        # the first quadric row replaced by x_a^2 - x_b, x_b the first
        # monomial outside the restriction class of x_a^2: a binomial, but
        # not one `_piece` builds, so the exact path's check (ii) reduces it
        recon, eta1, eta2 = accepted_pair(g, split)
        classes = _restriction_classes(recon.scroll, 2)
        a = quotient_frame(eta1, eta2, g)[0]
        square = monomial_basis(g, 2).index(tuple(2 * (i == a) for i in range(g)))
        other = next(j for j, key in enumerate(classes) if key != classes[square])
        recon = cached(recon, degree2=({square: 1, other: -1},) + recon.degree2[1:])
        exact_path(monkeypatch)
        with pytest.raises(AlphaCertificateError, match=r"\(ii\) J2 and the section's"):
            alpha_map(recon, eta1, eta2)

    @pytest.mark.parametrize("g, split", [(7, (1, 1)), (8, (1, 2)), (9, (2, 2))])
    def test_images_spanning_fewer_forms_fail_ii(self, g, split, monkeypatch):
        # the quadric rows whose images vanish on the embedded fiber, and
        # one that does not: the images reduce to zero against
        # D1 S_b1 + D2 S_b2 but have rank 1, which the exact path refuses
        recon, eta1, eta2 = accepted_pair(g, split)
        kept = quotient_frame(eta1, eta2, g)
        etas = pipeline_module._hyperplane_rows(eta1, eta2)
        [fiber], _ = pipeline_module._section(recon.scroll, etas)
        image = pipeline_module._embed(recon.scroll, fiber)
        basis2 = monomial_basis(g, 2)
        powers = oracles.powers(image, 2)
        vanish = [not any(_combine((c, powers[basis2[j]]) for j, c in row.items()))
                  for row in recon.degree2]
        fewer = [row for row, zero in zip(recon.degree2, vanish) if zero]
        fewer.append(recon.degree2[vanish.index(False)])
        assert pipeline_module._section_forms(recon, etas, kept)[0] == [image[i] for i in kept]
        exact_path(monkeypatch)
        assert pipeline_module._section_forms(recon, etas, kept)[0] == [image[i] for i in kept]
        with pytest.raises(AlphaCertificateError, match=r"^degenerate section: \(ii\) J2 and "
                                                        r"the section's quadrics differ;"):
            pipeline_module._section_forms(cached(recon, degree2=tuple(fewer)), etas, kept)

    @pytest.mark.parametrize("g", [5, 6, 7, 8])
    def test_a_surface_without_its_cubic_has_h3_n(self, g):
        # lambda then only kills D S_(2n): V itself, of dimension n
        recon, eta1, eta2 = accepted_pair(g, None)
        n = g - 2
        with pytest.raises(AlphaCertificateError) as err:
            alpha_map(without_equations(recon), eta1, eta2)
        assert err.value.hilbert == (1, n, n, n)
        assert "quotient algebra does not have the expected Hilbert vector" in str(err.value)

    def test_a_threefold_without_its_surfaces_fails_ii(self):
        recon, eta1, eta2 = accepted_pair(8, (1, 2))
        with pytest.raises(AlphaCertificateError, match=r"\(ii\)") as err:
            alpha_map(without_equations(recon), eta1, eta2)
        assert err.value.hilbert == (1, 6)

    @pytest.mark.parametrize("g, split", BENCH_CURVES + [(11, None), (11, (3, 3))])
    def test_a_trial_builds_no_degree3_piece(self, g, split, monkeypatch):
        # the quotient reads the quadric rows and the equations alone, and
        # `ideal_pieces` certifies the degree-3 count in closed form
        args = (g, split, derive_seed(1, 0))
        expected = pipeline_module._trial(args)
        assert expected["passed"]
        original = curvegen._piece

        def spy(curve, k):
            if k == 3:
                raise AssertionError("a trial built the degree-3 piece")
            return original(curve, k)
        monkeypatch.setattr(curvegen, "_piece", spy)
        assert pipeline_module._trial(args) == expected

    @pytest.mark.parametrize("g, split", BENCH_CURVES + [(11, None), (11, (3, 3))])
    def test_one_kernel_of_the_sylvester_size(self, g, split, monkeypatch):
        # 3n - 3 rows over 3n - 2 columns on a threefold, 3n over 3n + 1 on
        # a surface
        recon, eta1, eta2 = accepted_pair(g, split)
        n = g - 2
        shapes = []
        original = pipeline_module._kernel_vectors
        monkeypatch.setattr(pipeline_module, "_kernel_vectors",
                            lambda rows, ncols: shapes.append((len(rows), ncols))
                            or original(rows, ncols))
        alpha = alpha_map(recon, eta1, eta2)
        assert shapes == []
        assert len(alpha.functional) == shapes[0][1]
        assert shapes == [(3 * n, 3 * n + 1) if split is None else (3 * n - 3, 3 * n - 2)]


def hankel_curves():
    """`pairing_curves` and balanced tetragonal g = 13, 15, 17, seeds 1-3."""
    yield from pairing_curves()
    for seed in (1, 2, 3):
        for g in (13, 15, 17):
            split = balanced_type(g - 5, 2)
            yield pytest.param(g, split, seed, id=f"tet{g}-{split[0]}{split[1]}-s{seed}")


class TestHankelCubic:
    """F_lambda by one Hankel contraction of lambda with the section's
    degree-2 products, against the reference that builds every product
    of degree 3 (`oracles.product_cubic_of`)."""

    @pytest.mark.parametrize("g, split, seed", hankel_curves())
    def test_equals_the_product_reference(self, g, split, seed):
        # the (lambda, phi) of every accepted pair `section_pairs` draws
        accepted = [alpha_map(*pair[:3]) for pair in section_pairs(g, split, seed) if pair[3]]
        assert accepted
        for alpha in accepted:
            products = pipeline_module._products(alpha.phi)
            assert products == {exp: p for exp, p in oracles.powers(alpha.phi, 2).items()
                                if sum(exp) == 2}
            # mu = H_m(lambda) phi, phi of degree m
            assert alpha.mu == [[sum(h * x for h, x in zip(row, form)) for form in alpha.phi]
                                for row in hankel(alpha.functional, len(alpha.phi[0]) - 1)]
            expected = oracles.product_cubic_of(alpha.functional, alpha.phi)
            assert pipeline_module._cubic_of(alpha.mu, products) == expected
            assert alpha.cubic == normalized(Polynomial(g - 2, 3, expected))

    @pytest.mark.parametrize("g, split", [(8, None), (8, (1, 2))], ids=["tri8", "tet8"])
    def test_builds_no_product_of_degree_three(self, g, split, monkeypatch):
        # a work count: the certified path builds no product of the
        # embedded fiber and no echelon; the exact path's check (ii) reads
        # a binomial e_j - e_rep of `_piece` as zero by its restriction
        # class, so a fiber that reaches it builds one product of length
        # 2m + 1 per class the n - 1 lifts of a threefold reach (none on a
        # surface) and one echelon when a lift is left; neither builds a
        # product of length 3m + 1, and here no other product of
        # `pipeline` has either length
        n = g - 2
        m = n if split is None else n - 1
        lengths = []
        echelons = []
        pairs = section_pairs(g, split, 1)
        mul, echelon = pipeline_module._mul, pipeline_module._int_echelon
        monkeypatch.setattr(pipeline_module, "_mul",
                            lambda a, b: lengths.append(len(a) + len(b) - 1) or mul(a, b))
        monkeypatch.setattr(pipeline_module, "_int_echelon",
                            lambda *args: echelons.append(args) or echelon(*args))
        for exact in (False, True):
            if exact:
                exact_path(monkeypatch)
            for recon, eta1, eta2, accepted in pairs:
                lengths.clear()
                echelons.clear()
                try:
                    alpha_map(recon, eta1, eta2)
                except AlphaCertificateError:
                    assert not accepted
                classes = _restriction_classes(recon.scroll, 2)
                lifts = [row for row in recon.degree2 if len({classes[j] for j in row}) > 1]
                assert len(lifts) == (0 if split is None else n - 1)
                assert (exact and accepted and split is not None) <= bool(echelons) <= (
                    exact and bool(lifts))
                assert lengths.count(3 * m + 1) == 0
                assert lengths.count(2 * m + 1) == len(echelons) * len(
                    {classes[j] for row in lifts for j in row})


def accepted_alphas(g, split, seed):
    """(curve, AlphaResult) of every pair of `section_pairs` that
    `alpha_map` accepts."""
    curve = section_curve(g, split, seed)
    return [(curve, alpha_map(recon, eta1, eta2))
            for recon, eta1, eta2, accepted in section_pairs(g, split, seed) if accepted]


def cubic_of_functional(curve, alpha, functional):
    """F_lambda divided by its lead, in sympy: (F_lambda)_e = (6 / e!)
    lambda(phi^e), phi the kept coordinates of the first fiber of
    `_section`, embedded and dehomogenized at s = 1."""
    etas = pipeline_module._hyperplane_rows(alpha.eta1, alpha.eta2)
    fiber = pipeline_module._section(curve.scroll, etas)[0][0]
    image = pipeline_module._embed(curve.scroll, fiber)
    phi = [sympy.Poly(image[i][::-1], _T, domain="ZZ") for i in alpha.kept_indices]
    n = len(phi)
    terms = {}
    for exp in monomial_basis(n, 3):
        power = functools.reduce(lambda a, b: a * b,
                                 [f ** e for f, e in zip(phi, exp)], sympy.Poly(1, _T))
        coeffs = power.all_coeffs()[::-1]
        value = sum(x * int(c) for x, c in zip(functional, coeffs))
        if value:
            terms[exp] = 6 // prod(map(factorial, exp)) * value
    lead = terms[max(terms)]
    return Polynomial(n, 3, {exp: Fraction(c, lead) for exp, c in terms.items()})


def certified_surface(curve, alpha):
    """(D, L) of the surface `_certify_bound` certifies."""
    found = _certify_bound(curve, alpha, [])
    index = next(i for i, cls in enumerate(curve.classes) if cls.f == found["surface"]["f"])
    etas = pipeline_module._hyperplane_rows(alpha.eta1, alpha.eta2)
    [fiber], _ = pipeline_module._section(curve.scroll, etas)
    return pipeline_module._surface_form(curve.equations[index], fiber), found["length"]


def hankel(functional, k):
    """H_k(lambda): rows b = 0..d - k, columns i = 0..k, entry lambda_(i + b)."""
    d = len(functional) - 1
    return [list(functional[b:b + k + 1]) for b in range(d - k + 1)]


class TestSylvesterCertificate:
    """The tetragonal bound certified on C0: the surface's binary form D is
    squarefree, and kills the cubic's functional lambda by construction."""

    @pytest.mark.parametrize("g, split, seed", tetragonal_section_curves())
    def test_agrees_with_the_span_certificate(self, g, split, seed):
        # every accepted pair of `section_pairs`, and the same pair with one
        # entry of lambda moved, the span check then given F_lambda: the
        # certificate as it ran when it read lambda, (c') included, and
        # on the quotient's own lambda the package's, which reads none
        for curve, alpha in accepted_alphas(g, split, seed):
            moved = list(alpha.functional)
            moved[len(moved) // 2] += 1
            for functional in (alpha.functional, tuple(moved)):
                mutated = cached(alpha, functional=functional)
                assert mutated.cubic == cubic_of_functional(curve, alpha, functional)
                failures, expected_failures = [], []
                found = oracles.functional_certificate(curve, mutated, failures)
                assert found == oracles.scheme_certify_bound(curve, mutated, expected_failures)
                assert failures == expected_failures
                assert (found is None) == (functional != alpha.functional)
            failures = []
            assert _certify_bound(curve, alpha, failures) == oracles.functional_certificate(
                curve, alpha, [])
            assert failures == []

    @pytest.mark.parametrize("g, split, seed", tetragonal_section_curves())
    def test_what_a_trial_skips_holds(self, g, split, seed):
        # every accepted pair of `section_pairs`
        accepted = [alpha_map(*pair[:3]) for pair in section_pairs(g, split, seed) if pair[3]]
        assert accepted
        recon = section_pairs(g, split, seed)[0][0]
        for alpha in accepted:
            assert_what_a_trial_skips(recon, alpha)

    @pytest.mark.parametrize("g, split", BENCH_CURVES)
    def test_the_cubic_is_the_functional_over_its_lead(self, g, split):
        n = g - 2
        for seed in (1, 2, 3):
            for curve, alpha in accepted_alphas(g, split, seed):
                assert len(alpha.functional) == (3 * n + 1 if split is None else 3 * n - 2)
                assert all(type(x) is int for x in alpha.functional)
                assert alpha.cubic == cubic_of_functional(curve, alpha, alpha.functional)

    @pytest.mark.parametrize("g, split", BENCH_CURVES[4:])
    def test_moving_lambda_or_d_fails_the_functional_check(self, g, split):
        curve, alpha = accepted_alphas(g, split, 1)[0]
        determinant, length = certified_surface(curve, alpha)
        functional = list(alpha.functional)
        assert oracles.certify_functional(determinant, functional) == length
        for k in range(len(functional)):
            moved = functional[:k] + [functional[k] + 1] + functional[k + 1:]
            with pytest.raises(CertificateError, match=r"^\(c\)"):
                oracles.certify_functional(determinant, moved)
        for i in range(length + 1):
            moved = determinant[:i] + [determinant[i] - 1] + determinant[i + 1:]
            with pytest.raises(CertificateError, match=r"^\(c\)"):
                oracles.certify_functional(moved, functional)
        failures = []
        assert oracles.functional_certificate(curve, cached(alpha, functional=tuple(
            x + (k == 0) for k, x in enumerate(functional))), failures) is None
        assert [f.partition(": ")[2] for f in failures] == [
            "(c) the cubic is not in the span of the scheme's cubes"] * 2

    @pytest.mark.parametrize("g, split", BENCH_CURVES[4:])
    def test_repeated_roots_fail_the_squarefree_check(self, g, split):
        curve, alpha = accepted_alphas(g, split, 1)[0]
        determinant, length = certified_surface(curve, alpha)
        functional = alpha.functional
        assert determinant[-1]   # no root at (0 : 1) on these curves
        for a, b in ((0, 1), (1, 0), (3, -2)):
            # D (b t - a s)^2, coefficient j on s^(L + 2 - j) t^j
            square = [a * a, -2 * a * b, b * b]
            repeated = [sum(determinant[j - i] * c for i, c in enumerate(square)
                            if 0 <= j - i <= length) for j in range(length + 3)]
            with pytest.raises(CertificateError, match=r"^\(a\) .* degree %d" % (length + 2)):
                waring._certify_roots(repeated)
        # one root at (0 : 1) is a simple root: D s still kills lambda
        assert waring._certify_roots(determinant + [0]) == length + 1
        assert oracles.certify_functional(determinant + [0], functional) == length + 1
        with pytest.raises(CertificateError, match=r"^\(a\)"):
            waring._certify_roots(determinant + [0, 0])
        with pytest.raises(CertificateError, match=r"^\(a\) .* vanishes"):
            waring._certify_roots([0] * (length + 1))

    def test_evaluations_at_the_roots(self):
        # lambda = ev(1 : 1) + 2 ev(1 : 2) - ev(0 : 1) on forms of degree 6
        # is killed by s (t - s)(t - 2s), with a root at (0 : 1), and not by
        # s (t - s)(t - 3s), t (t - s)(t - 2s) or (t - s)(t - 2s)
        functional = [1 + 2 * 2 ** k - (k == 6) for k in range(7)]
        assert oracles.certify_functional([2, -3, 1, 0], functional) == 3
        for wrong in ([3, -4, 1, 0], [0, 2, -3, 1], [2, -3, 1]):
            with pytest.raises(CertificateError, match=r"^\(c\)"):
                oracles.certify_functional(wrong, functional)

    @pytest.mark.parametrize("g, split, seed", tetragonal_section_curves())
    def test_hankel_rank_first_drops_at_the_shorter_surface(self, g, split, seed):
        # Ann(lambda) = (D1, D2) with L1 + L2 = 3g - 7: H_k(lambda) has full
        # column rank below min L, and at min L a kernel spanned by the D
        # of the larger b, or the pencil of both when b1 = b2
        b1, b2 = split
        short = 2 * g - 6 - b2
        assert short + 2 * g - 6 - b1 == 3 * g - 7
        curve, alpha = accepted_alphas(g, split, seed)[0]
        for k in range(short):
            assert ExactMatrix(hankel(alpha.functional, k)).rank() == k + 1
        assert (ExactMatrix(hankel(alpha.functional, short)).rank()
                == short + 1 - (2 if b1 == b2 else 1))
        determinant, length = certified_surface(curve, alpha)
        assert length == short <= (3 * g - 7) // 2

    @pytest.mark.parametrize("g, split", BENCH_CURVES[4:] + [(11, (3, 3))])
    def test_no_elimination_wider_than_the_surface(self, g, split, monkeypatch):
        # a work count: the certificate of coprime forms ranks nothing; on
        # the exact path every elimination, the contraction rank
        # included, has at most L + 1 columns
        curve, alpha = accepted_alphas(g, split, 1)[0]
        assert alpha.coprime
        ranked = cached(replaced(alpha, coprime=False), functional=alpha.functional)
        widths = []
        for name in ("_int_echelon", "_pivots_mod_prime"):
            original = getattr(core, name)

            def recording(rows, ncols, original=original):
                widths.append(ncols)
                return original(rows, ncols)
            for module_name, module in list(sys.modules.items()):
                if (module_name.split(".")[0] == "apolar_kit"
                        and getattr(module, name, None) is original):
                    monkeypatch.setattr(module, name, recording)
        found = _certify_bound(curve, alpha, [])
        assert widths == [] and found["rank_interval"][0] == g - 2
        assert _certify_bound(curve, ranked, []) == found
        assert widths and max(widths) <= found["length"] + 1


def trigonal_sweep():
    """Trigonal g = 5..12 at seeds 1-20 and g = 13..16 at seeds 1-3, one
    case a curve."""
    for g in range(5, 17):
        for seed in range(1, 21 if g <= 12 else 4):
            yield pytest.param(g, seed, id=f"tri{g}-s{seed}")


class TestTrigonalSylvesterCertificate:
    """The trigonal verdict certified on the scroll's base line: D is
    squarefree and kills the cubic's functional lambda."""

    @pytest.mark.parametrize("g, seed", trigonal_sweep())
    def test_same_verdict_as_the_span_certificate(self, g, seed):
        # every pair a verify-a trial draws, up to the first it certifies,
        # against the span check in Q[t]/(D) on the chart plus conciseness;
        # the trial certifies one, and every accepted pair has what the
        # trial no longer computes
        trial_seed = derive_seed(seed, 0)
        curve = trigonal_curve(g, trial_seed)
        recon = ideal_pieces(curve, trial_seed)
        for alpha in pipeline_module._alpha_attempts(curve, trial_seed):
            if isinstance(alpha, AlphaCertificateError):
                continue
            assert_what_a_trial_skips(recon, alpha)
            failures, expected_failures = [], []
            found = _certify_fermat(curve, alpha, failures)
            assert found == oracles.scheme_certify_fermat(curve, alpha, expected_failures)
            assert failures == expected_failures
            if found is not None:
                assert found["detected_rank"] == g - 2
                break
        else:
            pytest.fail("no drawn pair was certified")

    @pytest.mark.parametrize("g", [5, 6, 7, 8])
    def test_moving_one_entry_of_lambda_fails_c(self, g):
        curve, alpha = accepted_alphas(g, None, 1)[0]
        _, determinant = pipeline_module._section(
            curve.scroll, pipeline_module._hyperplane_rows(alpha.eta1, alpha.eta2))
        # no root at (1 : 0) or (0 : 1), whose evaluations are lambda_0 and
        # lambda_d alone
        assert determinant[0] and determinant[-1]
        assert _certify_fermat(curve, alpha, [])["detected_rank"] == g - 2
        for k in range(len(alpha.functional)):
            moved = tuple(x + (j == k) for j, x in enumerate(alpha.functional))
            failures = []
            assert oracles.functional_certificate(curve, cached(alpha, functional=moved),
                                                  failures) is None
            assert failures == ["certificate: (c) the cubic is not in the span of "
                                "the scheme's cubes"]

    @pytest.mark.parametrize("g", [5, 6, 7, 8])
    def test_a_repeated_factor_of_d_fails_a(self, g):
        # D (b t - a s)^2 still kills lambda, so only (a) refuses it
        curve, alpha = accepted_alphas(g, None, 1)[0]
        determinant, cubic = alpha.forms
        for a, b in ((0, 1), (1, 0), (3, -2)):
            square = [a * a, -2 * a * b, b * b]
            repeated = replaced(alpha, forms=(tuple(_mul(determinant, square)), cubic))
            failures = []
            assert _certify_fermat(curve, repeated, failures) is None
            assert failures == ["certificate: (a) the scheme equation is not squarefree "
                                f"of degree {g}"]

    @pytest.mark.parametrize("g", [5, 6, 7, 8])
    def test_a_cubic_that_is_not_concise_fails_d(self, g):
        # the last coordinate of the section set to zero, lambda left valid:
        # the cubic with its last variable set to zero; a section that
        # fails (i) was never certified coprime, so the rank of mu is taken
        curve, alpha = accepted_alphas(g, None, 1)[0]
        flat = replaced(alpha, phi=alpha.phi[:-1] + ((0,) * len(alpha.phi[0]),),
                        coprime=False)
        assert flat.cubic.terms == {exp: c for exp, c in alpha.cubic.terms.items()
                                    if not exp[-1]}
        failures = []
        assert _certify_fermat(curve, flat, failures) is None
        assert failures == ["certificate: (d) the cubic is not concise"]


class TestTetragonalCubicsAreNotFermat:
    @pytest.mark.parametrize("g, split", [(6, (0, 1)), (7, (1, 1)), (7, (0, 2)), (8, (1, 2)),
                                          (9, (2, 2)), (10, (2, 3))])
    def test_fermat_detection_fails_the_fit(self, g, split):
        # a tetragonal quotient cubic is never a sum of n = g - 2 cubes
        for seed in (1, 2, 3):
            _, alpha = accepted_alphas(g, split, seed)[0]
            for detection_seed in (0, 1, 2):
                assert fermat_detect_detail(alpha.cubic, detection_seed) == (None, "fit-failed")


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
                  Polynomial(3, 3, {**{e: c * (2 ** 61 - 1) for e, c in hesse.terms.items()},
                                    (2, 1, 0): 1})]
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
    """(D, phi) on the trigonal scroll (`surface_index` None) or on a
    tetragonal surface, by the oracles the Sylvester certificate replaced."""
    kept = quotient_frame(eta1, eta2, curve.genus)
    if surface_index is None:
        return oracles.trigonal_scheme(curve, eta1, eta2, kept)
    return oracles.surface_scheme(curve, surface_index, eta1, eta2, kept)


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
            echelon_certificate([0, -1, 1], [[1, -1], [0, 1], [0]], fermat(3))

    def test_trigonal_certificate(self):
        curve = trigonal_curve(6, seed=34)
        recon = build_recon(curve)
        rng = make_rng(35)
        eta1 = random_dual_linear(6, rng)
        eta2 = random_dual_linear(6, rng)
        alpha = alpha_map(recon, eta1, eta2)
        determinant, phi = scheme_of(curve, None, eta1, eta2)
        assert echelon_certificate(determinant, phi, alpha.cubic) == 4
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
    """Both verdicts: exact checks on binary forms, no root and no float."""

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
        assert echelon_certificate(determinant, phi, alpha.cubic) == length
        dec = oracle_fit(determinant, phi, alpha.cubic)
        assert dec.rank == length and dec.residual < mp.mpf(10) ** -20

    def test_rejects_a_perturbed_cubic(self):
        # the cubic of the functional with one entry moved
        curve = trigonal_curve(7, seed=83)
        alpha = alpha_for_curve(curve, seed=83)
        functional = list(alpha.functional)
        functional[len(functional) // 2] += 1
        perturbed = cached(alpha, functional=tuple(functional))
        assert perturbed.cubic == cubic_of_functional(curve, alpha, functional)
        failures = []
        found = oracles.functional_certificate(curve, perturbed, failures)
        assert found is None
        assert failures == ["certificate: (c) the cubic is not in the span of "
                            "the scheme's cubes"]

    def test_rejects_a_quadric_off_the_scheme(self):
        # the cubic of another hyperplane pair is a concise Fermat cubic
        # too, but its functional is not killed by this scheme's D
        curve = trigonal_curve(7, seed=84)
        alpha = alpha_for_curve(curve, seed=84)
        rng = make_rng(85)
        other = alpha_map(build_recon(curve), random_dual_linear(7, rng),
                          random_dual_linear(7, rng))
        failures = []
        found = oracles.functional_certificate(
            curve, cached(replaced(alpha, phi=other.phi), functional=other.functional), failures)
        assert found is None
        assert failures == ["certificate: (c) the cubic is not in the span of "
                            "the scheme's cubes"]

    def test_rejects_a_repeated_point(self):
        # the double point at (1 : 0) has ideal (y1^2), apolar to the
        # concise cubic x0^2 x1, whose Waring rank is 3, not 2
        cubic = Polynomial.monomial((2, 1))
        with pytest.raises(CertificateError, match=r"\(a\)"):
            echelon_certificate([0, 0, 1], [[1], [0, 1]], cubic)

    def test_rejects_dependent_points(self):
        # the roots 0, 1, 2 of D go to e0, e1, e0: two distinct points only,
        # yet every quadric of Ann(x0^3 + x1^3 + x2^3) vanishes on them
        with pytest.raises(CertificateError, match=r"\(c\)"):
            echelon_certificate([0, 2, -3, 1], [[1, -2, 1], [0, 2, -1], [0]], fermat(3))

    def test_dependent_points_with_a_cubic_in_their_span(self):
        # the points e0, e1, e0 of test_rejects_dependent_points span only
        # two cubes, fewer than L = 3, and x0^3 + x1^3 is in their span
        cubic = Polynomial(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1})
        assert echelon_certificate([0, 2, -3, 1], [[1, -2, 1], [0, 2, -1], [0]], cubic) == 3

    def test_rejects_a_cubic_that_is_not_concise(self):
        # x0^3 + x1^3 is a sum of the cubes of the scheme's points e0, e1
        # and e0 + e1 (at t = 0, 1, 2), but needs only two variables; so
        # does F_lambda on the section (s^3 - s^2 t, s^2 t, 0) in place of
        # phi, while the curve's functional still passes (c)
        scheme = ([0, 2, -3, 1], [[2, -4, 2], [0, 3, -1], [0]])
        assert echelon_certificate(*scheme, Polynomial(3, 3, {(3, 0, 0): 1, (0, 3, 0): 1})) == 3
        curve = trigonal_curve(5, seed=88)
        alpha = alpha_for_curve(curve, seed=88)
        flat = replaced(alpha, phi=((1, -1, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)), coprime=False)
        assert flat.cubic.terms and all(exp[2] == 0 for exp in flat.cubic.terms)
        found, failures = certificate_failures(curve, flat)
        assert found is None
        assert failures == ["certificate: (d) the cubic is not concise"]

    def test_sheared_chart(self):
        # the first hyperplane pair puts a point of the scheme at (0 : 1),
        # a simple root that D's dehomogenization at s = 1 drops; the
        # scheme oracle's chart, k > 0, keeps D of full degree 3
        seed = 765804037
        report = verify_trigonal_fermat(5, trials=1, seed=seed)
        trial = report["trials"][0]
        assert trial["passed"] and trial["eta_attempts"] == 1
        curve = trigonal_curve(5, derive_seed(seed, 0))
        alpha = alpha_for_curve(curve, derive_seed(seed, 0))
        (a0, a1), (b0, b1) = (linear_form_blocks(curve.scroll, eta)
                              for eta in (alpha.eta1, alpha.eta2))
        a0, a1, b0, b1 = map(to_sympy, (a0, a1, b0, b1))
        assert from_sympy(a0 * b1 - a1 * b0, 2, 3).coefficient((0, 3)) == 0
        determinant, phi = scheme_of(curve, None, alpha.eta1, alpha.eta2)
        assert len(determinant) == 4 and determinant[-1]
        assert echelon_certificate(determinant, phi, alpha.cubic) == 3

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
        assert echelon_certificate(determinant, phi, alpha.cubic) == len(determinant) - 1
        out.append((determinant, phi, alpha.cubic))
    return out


class TestCertificateRejections:
    @given(st.integers(0, 1), st.integers(0, 34),
           st.fractions(min_value=-50, max_value=50, max_denominator=50)
           .filter(lambda c: c != 0))
    @settings(max_examples=40, deadline=None)
    def test_perturbed_cubics_are_rejected(self, certified_schemes, which, index, c):
        determinant, phi, cubic = certified_schemes[which]
        exp = monomial_basis(cubic.nvars, 3)[index]
        with pytest.raises(CertificateError, match=r"\(c\)"):
            echelon_certificate(determinant, phi, plus_term(cubic, exp, c))

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
            echelon_certificate(repeated, phi, cubic)


class TestClosedFormChart:
    """The chart s = 1 + k t on which the scheme oracles build (D, phi),
    against sympy's substitution."""

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=7), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_chart_substitutes_the_base_line(self, form, k):
        s, t = sympy.symbols("s t")
        d = len(form) - 1
        expected = sympy.Poly(sum(c * s ** (d - j) * t ** j for j, c in enumerate(form))
                              .subs(s, 1 + k * t), t)
        chart = oracles.chart(form, k)
        assert len(chart) == d + 1
        assert chart == [int(expected.coeff_monomial(t ** i)) for i in range(d + 1)]
        assert chart[-1] == sum(c * k ** (d - j) for j, c in enumerate(form))


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
            verify_trigonal_fermat(31, trials=1, seed=1)
        with pytest.raises(ValueError):
            verify_tetragonal_bound(31, None, trials=1, seed=1)


def trial_argv(g, split, out):
    """A two-trial verify-a (split None) or verify-b run at seed 1."""
    argv = (["verify-a", "--g", str(g)] if split is None
            else ["verify-b", "--g", str(g), "--split", "%d,%d" % split])
    return argv + ["--trials", "2", "--seed", "1", "--out", str(out)]


class TestTrialReadsLambdaAlone:
    """A trial certifies on the curve's equations and one section alone:
    it ranks no restricted quadric (h2 comes from check (i)), takes no
    exact kernel and no echelon (A and B certified coprime give h3 = 1
    and conciseness), calls no `rank_lower_bound`, builds no cubic and no
    row of the ideal, and samples no point."""

    @pytest.mark.parametrize("g, split", BENCH_CURVES)
    def test_reports_unchanged_without_them(self, g, split, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        argv = trial_argv(g, split, out)
        monkeypatch.delenv("APOLAR_KIT_THREADS", raising=False)
        assert main(argv) == 0
        expected = out.read_bytes()

        def refuse(*args):
            raise AssertionError("a trial built or ranked the cubic")
        monkeypatch.setattr(pipeline_module, "_cubic_of", refuse)
        original = waring.rank_lower_bound
        for module_name, module in list(sys.modules.items()):
            if (module_name.split(".")[0] == "apolar_kit"
                    and getattr(module, "rank_lower_bound", None) is original):
                monkeypatch.setattr(module, "rank_lower_bound", refuse)
        widths = []
        rank = pipeline_module._int_rank
        monkeypatch.setattr(pipeline_module, "_int_rank",
                            lambda rows, ncols: widths.append(ncols) or rank(rows, ncols))
        out.unlink()
        assert main(argv) == 0
        assert out.read_bytes() == expected
        # (i) ranks m + 1 <= n + 1 columns; h2 took C(n + 1, 2)
        n = g - 2
        assert widths and max(widths) <= n + 1 < comb(n + 1, 2)

    @pytest.mark.parametrize("g, split", BENCH_CURVES + [(11, None), (11, (3, 3))])
    def test_reports_unchanged_without_kernel_echelon_or_points(self, g, split, tmp_path,
                                                                 monkeypatch):
        out = tmp_path / "report.json"
        argv = trial_argv(g, split, out)
        monkeypatch.delenv("APOLAR_KIT_THREADS", raising=False)
        assert main(argv) == 0
        expected = out.read_bytes()

        def refuse(*args):
            raise AssertionError("a trial took the exact path or read the ideal's rows")
        # the tetragonal constructor draws its sections from a kernel, so
        # the quotient's own names are refused
        for module, name in ((pipeline_module, "_kernel_vectors"),
                             (pipeline_module, "_int_echelon"),
                             (pipeline_module, "_fiber_quadrics"),
                             (curvegen, "sample_points"), (curvegen, "_checked_piece")):
            monkeypatch.setattr(module, name, refuse)
        out.unlink()
        assert main(argv) == 0
        assert out.read_bytes() == expected

    @pytest.mark.parametrize("g, split", BENCH_CURVES + [(11, None), (11, (3, 3))])
    def test_the_exact_path_gives_the_same_report(self, g, split, tmp_path, monkeypatch):
        # every gcd certificate failing, each pair runs check (ii) on rows
        # checked on points, the rank of the Sylvester system and, for
        # the rank of mu, its kernel
        out = tmp_path / "report.json"
        argv = trial_argv(g, split, out)
        monkeypatch.delenv("APOLAR_KIT_THREADS", raising=False)
        assert main(argv) == 0
        expected = out.read_bytes()
        kernels = []
        original = pipeline_module._kernel_vectors
        monkeypatch.setattr(pipeline_module, "_kernel_vectors",
                            lambda *args: kernels.append(args) or original(*args))
        sampled = []
        sample = curvegen.sample_points
        monkeypatch.setattr(curvegen, "sample_points",
                            lambda *args: sampled.append(args) or sample(*args))
        exact_path(monkeypatch)
        out.unlink()
        assert main(argv) == 0
        assert out.read_bytes() == expected
        assert kernels and sampled

    @pytest.mark.parametrize("g, split", [(7, None), (8, None), (7, (1, 1)), (8, (1, 2))],
                             ids=["tri7", "tri8", "tet7", "tet8"])
    def test_forms_with_one_common_root_take_the_exact_path(self, g, split, monkeypatch):
        # two hyperplanes through a point P of the curve: Pi meets C at P,
        # so A and B vanish at P's base and share that linear factor; the
        # gcd certificate fails, and the exact path decides the pair as
        # the generic quotient does
        curve = section_curve(g, split, 1)
        recon = build_recon(curve, 1)
        point = recon.points[0]
        j = next(i for i, x in enumerate(point) if x)
        rng = make_rng(derive_seed(g, 5))
        etas = []
        for _ in range(2):
            c = [rng.randint(-9, 9) for _ in range(g)]
            dot = sum(x * y for x, y in zip(c, point))
            c = [dot * (i == j) - point[j] * x for i, x in enumerate(c)]
            etas.append(Polynomial(g, 1, {tuple(int(i == k) for i in range(g)): x
                                          for k, x in enumerate(c) if x}))
        kept = quotient_frame(*etas, g)
        phi, forms, coprime = pipeline_module._section_forms(
            recon, pipeline_module._hyperplane_rows(*etas), kept)
        assert not coprime
        common = sympy.gcd(*(sympy.Poly(f[::-1], _T) for f in forms[:2]))
        assert common.degree() == 1
        systems = []
        original = pipeline_module._sylvester_rows
        monkeypatch.setattr(pipeline_module, "_sylvester_rows",
                            lambda *args: systems.append(args) or original(*args))
        accepted = against_the_oracle(curve, recon, *etas)
        assert systems
        if accepted:
            assert alpha_map(recon, *etas).coprime is False
