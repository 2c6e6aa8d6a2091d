from itertools import combinations_with_replacement

import pytest

from apolar_kit.planemodel import (BlowupClass, GenusError, NakaiChain,
                                   PlaneModel, adjunction_check, blowup_genus,
                                   blowup_intersect, canonical_blowup_class,
                                   clebsch_genus, higher_gonality_degree,
                                   nakai_certificate, tetragonal_numerology)


class TestClebsch:
    def test_genus_seven_septic(self):
        assert clebsch_genus(PlaneModel(7, (3, 3, 2, 2))) == 15 - 8 == 7

    def test_genus_seven_sextic(self):
        assert clebsch_genus(PlaneModel(6, (2, 2, 2))) == 10 - 3 == 7

    def test_smooth_cubic(self):
        assert clebsch_genus(PlaneModel(3, ())) == 1

    def test_negative_flagged(self):
        with pytest.raises(GenusError):
            clebsch_genus(PlaneModel(3, (3, 3)))


class TestBlowupIntersection:
    def test_adjoint_self_intersection_g7(self):
        m = (3, 3, 2, 2)
        adjoint = BlowupClass(4, tuple(1 - mi for mi in m))
        assert blowup_intersect(adjoint, adjoint) == 16 - (4 + 4 + 1 + 1) == 6

    def test_h_dot_e(self):
        h = BlowupClass(1, (0, 0, 0, 0))
        e = BlowupClass(0, (1, 0, 0, 0))
        assert blowup_intersect(h, e) == 0
        assert blowup_intersect(e, e) == -1

    def test_ample_class_square(self):
        for k in range(2, 21):
            cls = BlowupClass(2 * k - 1, (-(k - 1),) * 4)
            assert blowup_intersect(cls, cls) == 4 * k - 3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            blowup_intersect(BlowupClass(1, (0,)), BlowupClass(1, (0, 0)))

    def test_genus_by_adjunction(self):
        # septic with two triple points and two nodes has genus 7
        cls = BlowupClass(7, (-3, -3, -2, -2))
        assert blowup_genus(cls) == 7
        assert canonical_blowup_class(4) == BlowupClass(-3, (1, 1, 1, 1))


class TestAdjunctionCheck:
    def test_genus_seven_constraint(self):
        report = adjunction_check(PlaneModel(7, (3, 3, 2, 2)))
        assert report.multiplicity_sum == 16
        assert report.forced_sum == 16
        assert report.pairing == report.expected == 12
        assert report.consistent

    def test_three_k_family(self):
        for k in range(2, 21):
            model = PlaneModel(2 * k + 2, (k,) * 4)
            report = adjunction_check(model)
            assert report.forced_sum == 4 * k * (k - 1)
            assert report.multiplicity_sum == 4 * k * (k - 1)
            assert report.consistent

    def test_three_k_plus_one_family(self):
        for k in range(2, 21):
            model = PlaneModel(2 * k + 3, (k + 1, k + 1, k, k))
            report = adjunction_check(model)
            assert report.forced_sum == 4 * k * k
            assert report.consistent


class TestTetragonalNumerology:
    def test_genus_nine(self):
        report = tetragonal_numerology(9)
        assert report.multiplicities == (3, 3, 3, 3)
        branch = report.branches[0]
        assert branch.sum_m_m1 == 24 == 4 * 3 * 2
        assert report.deg_surface == 9 == 4 * 3 - 3
        assert report.bound == 9
        assert report.pencil_constraint == 12

    def test_genus_seven(self):
        report = tetragonal_numerology(7)
        assert report.multiplicities == (3, 3, 2, 2)
        branch = report.branches[0]
        assert branch.sum_m_m1 == 16
        assert branch.sum_m_minus_1 == 6
        assert report.deg_surface == 6
        assert report.plane_degree == 7

    def test_genus_eight_branches(self):
        report = tetragonal_numerology(8)   # g = 3k - 1 with k = 3
        assert report.plane_degree == 8
        assert report.bound == 9
        five, four = report.branches
        assert five.multiplicities == (3, 3, 3, 3, 2)
        assert five.sum_m_m1 == 26 == 4 * 9 - 4 * 3 + 2
        assert five.deg_surface == 8 == 4 * 3 - 4
        assert four.multiplicities == (4, 3, 3, 2)
        assert four.sum_m_m1 == 26
        assert four.deg_surface == 7 == 4 * 3 - 5
        for branch in report.branches:
            assert branch.deg_surface <= report.bound

    def test_three_k_chain_forced(self):
        # the balanced solution is forced: sum n_i = 4k with sum n_i^2 >= 4k^2
        # and sum n_i(n_i-1) <= 4k(k-1) leaves only n_i = k
        for k in range(2, 9):
            solutions = []
            for tup in combinations_with_replacement(range(1, 4 * k + 1), 4):
                if sum(tup) != 4 * k:
                    continue
                if sum(x * x for x in tup) < 4 * k * k:
                    continue
                if sum(x * (x - 1) for x in tup) > 4 * k * (k - 1):
                    continue
                solutions.append(tup)
            assert solutions == [(k, k, k, k)]
        for k in range(2, 21):
            report = tetragonal_numerology(3 * k)
            assert report.deg_surface == 4 * k - 3
            assert report.multiplicities == (k,) * 4

    def test_genus_consistency_all_cases(self):
        for g in range(6, 40):
            report = tetragonal_numerology(g)
            for branch in report.branches:
                model = PlaneModel(report.plane_degree, branch.multiplicities)
                assert clebsch_genus(model) == g

    def test_small_genus_rejected(self):
        with pytest.raises(ValueError):
            tetragonal_numerology(5)


class TestHigherGonality:
    def test_reduces_to_tetragonal(self):
        for k in range(2, 21):
            assert higher_gonality_degree(4, k).deg_surface == \
                tetragonal_numerology(3 * k).deg_surface == 4 * k - 3

    def test_pentagonal_example(self):
        report = higher_gonality_degree(5, 2)
        assert report.intermediate_degree == 9
        assert report.base_point_sum == 19
        assert report.deg_surface == 9
        assert report.genus == 8
        assert report.reference_bound == 13
        assert not report.exceeds_reference

    def test_high_gonality_exceeds_reference(self):
        report = higher_gonality_degree(10, 2)
        assert report.genus == 18
        assert report.reference_bound == 33
        assert report.deg_surface == 59
        assert report.exceeds_reference

    def test_plane_degree_formula(self):
        report = higher_gonality_degree(4, 3)
        assert report.plane_degree == 8
        assert report.intermediate_degree == 8

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            higher_gonality_degree(3, 2)
        with pytest.raises(ValueError):
            higher_gonality_degree(5, 1)
        with pytest.raises(ValueError):
            higher_gonality_degree(5, 2, excess=-1)


class TestNakaiCertificate:
    def test_self_intersections(self):
        for k in range(2, 21):
            report = nakai_certificate(k, a_max=10)
            assert report.ample.self_intersection == 4 * k - 3
            assert report.curve.self_intersection == 8 * k + 4

    @pytest.mark.parametrize("a_max", [0, -5])
    def test_empty_enumeration_rejected(self, a_max):
        with pytest.raises(ValueError):
            nakai_certificate(3, a_max=a_max)

    def test_no_violations_small_k(self):
        for k in range(2, 9):
            report = nakai_certificate(k, a_max=50)
            assert report.holds
            assert report.ample.violations == ()
            assert report.curve.violations == ()

    def test_enumeration_matches_brute_force(self):
        # brute-force all 4-tuples for small a against the convex shortcut
        for k in (2, 3):
            p, q = 2 * k - 1, k - 1
            for a in range(1, 11):
                found = False
                bound = 3 * a + 4
                for b in combinations_with_replacement(range(bound), 4):
                    if p * a - q * sum(b) > 0:
                        continue
                    if (a - 1) * (a - 2) - sum(x * (x + 1) for x in b) >= 0:
                        found = True
                        break
                report = nakai_certificate(k, a_max=a)
                assert found == any(v[0] <= a for v in report.ample.violations)
                assert not found

    def test_tail_needs_p_above_twice_q(self):
        for k in range(2, 9):
            report = nakai_certificate(k)
            assert report.ample.tail_applies and report.curve.tail_applies
            assert report.tail_holds
        # p = 2q gives sum b_i >= 2a only, which the tail chain cannot use
        assert not NakaiChain(4, 2, 0, 50, ()).tail_applies
        assert not NakaiChain(3, 2, -7, 50, ()).tail_applies

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            nakai_certificate(1)
