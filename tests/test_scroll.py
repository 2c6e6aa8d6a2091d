import pytest

from apolar_kit.scroll import (Scroll, canonical_class, chow_product, coordinate_layout,
                               divisor_degree, embed_point, project_type, section_count,
                               section_templates)
from apolar_kit.seeding import make_rng
from oracles import scroll_quadrics


class TestScrollBasics:
    def test_quartic_threefold(self):
        s = Scroll((1, 1, 2))
        assert (s.N, s.degree, s.k) == (6, 4, 3)

    def test_cubic_surface(self):
        s = Scroll((1, 2))
        assert (s.N, s.degree) == (4, 3)

    def test_balanced_sextic(self):
        s = Scroll((2, 2, 2))
        assert (s.N, s.degree) == (8, 6)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            Scroll((0, 0))

    def test_smoothness_flag(self):
        assert Scroll((1, 2)).smooth
        assert not Scroll((0, 2)).smooth

    def test_degree_identity_random_types(self):
        rng = make_rng(31)
        for _ in range(20):
            k = rng.randint(1, 4)
            entries = tuple(rng.randint(0, 4) for _ in range(k))
            if not any(entries):
                entries = entries[:-1] + (1,)
            s = Scroll(entries)
            assert s.degree == s.N - s.k + 1
            assert chow_product([s.H] * s.k) == s.degree


class TestChowProduct:
    def test_hyperplane_cube(self):
        s = Scroll((1, 1, 2))
        assert chow_product([s.H, s.H, s.H]) == 4

    def test_special_surface_degree(self):
        s = Scroll((1, 1, 2))
        assert chow_product([s.cls(2, -2), s.H, s.H]) == 6

    def test_curve_degree_identity(self):
        # (2H - b1 F)(2H - b2 F) H = 4(g-3) - 2(b1+b2) = 2g - 2 when b1+b2 = g-5
        for g in range(6, 13):
            total = g - 3
            base = total // 3
            entries = sorted([base, (total - base) // 2, total - base - (total - base) // 2])
            s = Scroll(tuple(entries))
            for b1 in range(0, g - 4):
                b2 = g - 5 - b1
                prod = chow_product([s.cls(2, -b1), s.cls(2, -b2), s.H])
                assert prod == 4 * (g - 3) - 2 * (b1 + b2) == 2 * g - 2

    def test_arity_enforced(self):
        s = Scroll((1, 2))
        with pytest.raises(ValueError):
            chow_product([s.H])

    def test_context_enforced(self):
        s1, s2 = Scroll((1, 2)), Scroll((2, 2))
        with pytest.raises(ValueError):
            chow_product([s1.H, s2.H])


class TestCanonicalClass:
    def test_cubic_surface(self):
        k = canonical_class(Scroll((1, 2)))
        assert (k.h, k.f) == (-2, 1)

    def test_quartic_threefold(self):
        k = canonical_class(Scroll((1, 1, 2)))
        assert (k.h, k.f) == (-3, 2)

    def test_quadric_surface(self):
        k = canonical_class(Scroll((1, 1)))
        assert (k.h, k.f) == (-2, 0)


class TestDivisorDegree:
    def test_generic_tetragonal_surface(self):
        s = Scroll((1, 1, 2))   # degree 4, the g = 7 threefold
        assert divisor_degree(s, s.cls(2, -1)) == 7

    def test_special_tetragonal_surface(self):
        s = Scroll((1, 1, 2))
        assert divisor_degree(s, s.cls(2, -2)) == 6

    def test_scroll_itself(self):
        s = Scroll((1, 2))
        assert divisor_degree(s, s.H) == 3

    def test_degree_matches_formula(self):
        # deg(2H - bF) = 2 deg(X) - b on a threefold of degree g - 3
        for g in range(6, 13):
            s = Scroll((1, 1, g - 5))
            for b in range(0, g - 4):
                assert divisor_degree(s, s.cls(2, -b)) == 2 * (g - 3) - b == 2 * g - 6 - b


class TestSectionTemplates:
    def test_trigonal_genus_five_class(self):
        s = Scroll((1, 2))
        pairs = section_templates(s, s.cls(3, -1))
        degrees = {exp: d for exp, d in pairs}
        assert degrees == {(3, 0): 2, (2, 1): 3, (1, 2): 4, (0, 3): 5}
        assert section_count(s, s.cls(3, -1)) == 18

    def test_hyperplanes(self):
        s = Scroll((1, 1, 2))
        assert section_count(s, s.H) == s.N + 1 == 7

    def test_special_surface_class(self):
        s = Scroll((1, 1, 2))
        pairs = section_templates(s, s.cls(2, -2))
        degrees = sorted(d for _, d in pairs)
        assert degrees == [0, 0, 0, 1, 1, 2]
        assert section_count(s, s.cls(2, -2)) == 10

    def test_negative_degrees_omitted(self):
        s = Scroll((1, 2))
        pairs = section_templates(s, s.cls(2, -4))
        assert all(d >= 0 for _, d in pairs)
        assert ((2, 0), 0) not in pairs  # 2*1 - 4 < 0 drops the y0^2 slot


class TestEmbedPoint:
    def test_block_origin(self):
        p = embed_point(Scroll((1, 2)), (1, 0), (1, 0))
        assert p.image == (1, 0, 0, 0, 0)

    def test_second_block(self):
        p = embed_point(Scroll((1, 2)), (1, 1), (0, 1))
        assert p.image == (0, 0, 1, 1, 1)

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError):
            embed_point(Scroll((1, 2)), (0, 0), (1, 0))
        with pytest.raises(ValueError):
            embed_point(Scroll((1, 2)), (1, 0), (0, 0))

    def test_images_satisfy_scroll_quadrics(self):
        rng = make_rng(32)
        for _ in range(100):
            k = rng.randint(2, 3)
            entries = tuple(rng.randint(1, 3) for _ in range(k))
            s = Scroll(entries)
            base = (rng.randint(-9, 9), rng.randint(-9, 9))
            if not any(base):
                base = (1, rng.randint(-9, 9))
            fiber = tuple(rng.randint(-9, 9) for _ in range(k))
            if not any(fiber):
                fiber = (1,) + fiber[1:]
            image = embed_point(s, base, fiber).image
            for q in scroll_quadrics(s):
                assert q.evaluate(image) == 0


class TestProjectType:
    def test_projection_balances_type(self):
        assert project_type(Scroll((1, 1, 2)), 2).type == (1, 1, 1)

    def test_drop_convention(self):
        assert project_type(Scroll((0, 2)), 0).type == (2,)

    def test_iterated(self):
        s = Scroll((2, 2, 2))
        s = project_type(s, 2)
        s = project_type(s, 2)
        assert s.type == (2, 2, 0)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            project_type(Scroll((1, 2)), 5)


class TestLayout:
    def test_layout_blocks(self):
        assert coordinate_layout(Scroll((1, 2))) == [(0, 0), (0, 1),
                                                       (1, 0), (1, 1), (1, 2)]

    def test_quadric_count(self):
        # one column per block step; all 2x2 minors
        s = Scroll((1, 2))
        assert len(scroll_quadrics(s)) == 3

    def test_divisor_arithmetic(self):
        s = Scroll((1, 2))
        c = 2 * s.H - 3 * s.F + s.cls(0, 1)
        assert (c.h, c.f) == (2, -2)
