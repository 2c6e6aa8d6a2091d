from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar_kit import core, univariate
from apolar_kit.univariate import is_squarefree, poly_gcd, rational_roots

_T = sympy.Symbol("t")


def _sympy_poly(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], _T, domain="QQ")


def sympy_rational_roots(coeffs):
    """Oracle: sympy's ground roots over Q (a full factorization)."""
    return {Fraction(int(r.p), int(r.q)): int(m)
            for r, m in _sympy_poly(coeffs).ground_roots().items()}


def times(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


linear_factors = st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 60),
                                    st.integers(1, 3)), max_size=4)
integer_factors = st.lists(
    st.tuples(st.integers(2, 4), st.integers(1, 800)).flatmap(
        lambda db: st.lists(st.integers(-2 ** db[1], 2 ** db[1]),
                            min_size=db[0] + 1, max_size=db[0] + 1)
        .filter(lambda cs: cs[-1] != 0)),
    max_size=2)


class TestRationalRoots:
    def test_simple_factorable(self):
        # (2t - 1)(3t - 1) = 6t^2 - 5t + 1
        roots = rational_roots([Fraction(1), Fraction(-5), Fraction(6)])
        assert roots == {Fraction(1, 2): 1, Fraction(1, 3): 1}

    def test_multiplicity(self):
        # (t - 2)^2
        roots = rational_roots([Fraction(4), Fraction(-4), Fraction(1)])
        assert roots == {Fraction(2): 2}

    def test_irrational_ignored(self):
        assert rational_roots([Fraction(-2), Fraction(0), Fraction(1)]) == {}

    def test_rational_coefficients(self):
        # (t - 1/3)(t + 5)
        coeffs = [Fraction(-5, 3), Fraction(14, 3), Fraction(1)]
        assert rational_roots(coeffs) == {Fraction(1, 3): 1, Fraction(-5): 1}

    @settings(max_examples=150, deadline=None)
    @given(linear_factors, integer_factors, st.integers(0, 2), st.integers(0, 2),
           st.integers(-99, 99).filter(bool), st.integers(1, 99))
    def test_against_sympy(self, linear, factors, zero_roots, trailing, num, den):
        f = [Fraction(num, den)]
        for a, b, mult in linear:
            for _ in range(mult):
                f = times(f, [Fraction(-a), Fraction(b)])
        for cs in factors:
            f = times(f, [Fraction(c) for c in cs])
        coeffs = [Fraction(0)] * zero_roots + f + [Fraction(0)] * trailing
        if len(f) == 1:
            expected = {Fraction(0): zero_roots} if zero_roots else {}
        else:
            expected = sympy_rational_roots(coeffs)
        assert rational_roots(coeffs) == expected

    def test_prime_walk_and_squarefree_fallback(self, monkeypatch):
        # leading coefficient 2*3*5*7*11*13, so the walk starts at 17; the
        # double root 4 makes every prime bad, and after the switch to the
        # squarefree part the roots 4 and 903 = 4 + 29*31 still collide
        # modulo 29 and 31
        roots = [(4, 1), (4, 1), (903, 1), (1, 2), (1, 3), (2, 5), (-3, 7),
                 (4, 11), (-6, 13)]
        f = [Fraction(1)]
        for a, b in roots:
            f = times(f, [Fraction(-a), Fraction(b)])
        assert f[-1] == 30030
        tried = []
        simple_roots_mod = univariate._simple_roots_mod

        def spy(poly, p):
            found = simple_roots_mod(poly, p)
            tried.append((p, len(poly) - 1, found is not None))
            return found

        monkeypatch.setattr(univariate, "_simple_roots_mod", spy)
        result = rational_roots(f)
        assert tried == [(17, 9, False), (19, 9, False), (23, 9, False),
                         (29, 8, False), (31, 8, False), (37, 8, True)]
        assert result == {Fraction(a, b): roots.count((a, b)) for a, b in roots}
        assert result == sympy_rational_roots(f)


class TestPolynomialGcd:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=4),
           st.lists(st.integers(-20, 20), min_size=1, max_size=5),
           st.lists(st.integers(-20, 20), min_size=1, max_size=5),
           st.integers(1, 3))
    def test_against_sympy(self, common, f, g, power):
        common_f = [Fraction(c) for c in common]
        fs = times(times(common_f, common_f) if power > 1 else common_f,
                   [Fraction(c) for c in f])
        gs = times(common_f, [Fraction(c, 7) for c in g])
        result = poly_gcd(fs, gs)
        if not any(fs) and not any(gs):
            assert result == []
            return
        oracle = sympy.gcd(_sympy_poly(fs), _sympy_poly(gs))
        expected = [Fraction(c) for c in reversed(oracle.all_coeffs())]
        assert result and result[-1] > 0
        assert [Fraction(c) / result[-1] for c in result] == \
            [c / expected[-1] for c in expected]
        for poly in (fs, gs):
            while poly and poly[-1] == 0:
                poly = poly[:-1]
            if len(poly) > 1:
                assert is_squarefree(poly) == _sympy_poly(poly).is_sqf


def _int_times(f, g):
    return [int(c) for c in times([Fraction(c) for c in f], [Fraction(c) for c in g])]


class TestModularSquarefree:
    """`is_squarefree` decides by one gcd modulo `core._RANK_PRIME` when
    that gcd is 1 and the prime misses the leading coefficient, and by the
    pseudo-remainder sequence otherwise."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.integers(-30, 30), min_size=2, max_size=4)
                              .filter(lambda f: f[-1] != 0), st.integers(1, 3)),
                    min_size=1, max_size=3),
           st.sampled_from([2 ** 61 - 1, 2, 3, 5, 7]), st.booleans(), st.integers(-9, 9))
    def test_against_the_remainder_sequence(self, factors, prime, lead_factor, scale):
        # repeated factors, and (p t + 1) puts the prime into the leading
        # coefficient of the primitive part; small primes also make
        # squarefree inputs fail modulo p, where the sequence decides
        f = [scale or 1]
        for factor, power in factors:
            for _ in range(power):
                f = _int_times(f, factor)
        if lead_factor:
            f = _int_times(f, [1, prime])
        expected = len(poly_gcd(f, univariate._derivative(f))) == 1
        assert expected == _sympy_poly([Fraction(c) for c in f]).is_sqf
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_RANK_PRIME", prime)
            assert is_squarefree(f) == expected

    def test_the_sequence_runs_only_when_the_prime_cannot_decide(self, monkeypatch):
        calls = []
        monkeypatch.setattr(univariate, "poly_gcd",
                            lambda *args: calls.append(args) or poly_gcd(*args))
        p = core._RANK_PRIME
        cases = [([2, -3, 1], True, 0),              # (t - 1)(t - 2)
                 ([-2, 1 - 2 * p, p], True, 1),      # (t - 2)(p t + 1)
                 ([1, -2, 1], False, 1),             # (t - 1)^2
                 ([-p, 2 * p, -p], False, 1)]        # -p (t - 1)^2, content stripped
        for f, squarefree, runs in cases:
            before = len(calls)
            assert is_squarefree(f) is squarefree
            assert len(calls) - before == runs, f


class TestPseudoRemainder:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=0, max_size=9),
           st.lists(st.integers(-50, 50), min_size=2, max_size=5)
           .filter(lambda b: b[-1] != 0))
    def test_multiplier_against_sympy(self, a, b):
        m, r = univariate._pseudo_remainder(a, b)
        assert m != 0
        assert len(r) == (len(b) - 1 if len(a) >= len(b) else len(a))
        if not a:
            return
        expected = _sympy_poly([Fraction(m * c) for c in a]).rem(_sympy_poly(b))
        got = _sympy_poly([Fraction(c) for c in r] or [Fraction(0)])
        assert (got - expected).is_zero


class TestCertifiedRoots:
    """Roots certified exactly: rational ones by `rational_roots`, repeated
    ones by `is_squarefree`; an irrational root is never approximated."""

    def test_mixed_rational_irrational(self):
        # (t - 1)(t^2 - 2)
        coeffs = [Fraction(2), Fraction(-2), Fraction(-1), Fraction(1)]
        assert rational_roots(coeffs) == {Fraction(1): 1}
        assert is_squarefree(coeffs)

    def test_complex_roots(self):
        coeffs = [Fraction(1), Fraction(0), Fraction(1)]   # t^2 + 1
        assert rational_roots(coeffs) == {}
        assert is_squarefree(coeffs)

    def test_cluster_flagged(self):
        # (t - 1)^2 (t + 2): double rational root
        coeffs = [Fraction(2), Fraction(-3), Fraction(0), Fraction(1)]
        assert rational_roots(coeffs) == {Fraction(1): 2, Fraction(-2): 1}
        assert not is_squarefree(coeffs)

    def test_degree_accounting(self):
        coeffs = [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]
        result = rational_roots(coeffs)   # (t-1)(t-2)(t-3)
        assert result == {Fraction(1): 1, Fraction(2): 1, Fraction(3): 1}
        assert sum(result.values()) == len(coeffs) - 1

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            rational_roots([Fraction(0)])
        assert rational_roots([Fraction(3)]) == {}


class TestBinaryFormRoots:
    """Projective roots of a binary form sum_j c_j s^(d-j) t^j, exactly:
    `affine_chart` splits off the point at infinity (0 : 1), and
    `rational_roots` finds the rational roots (1 : t0) of the rest."""

    def test_cubic_with_root_at_infinity(self):
        # s t (s - t) = s^2 t - s t^2
        affine, at_infinity = univariate.affine_chart([0, 1, -1, 0])
        assert at_infinity == [(Fraction(0), Fraction(1))]      # s = 0
        assert rational_roots(affine) == {Fraction(0): 1, Fraction(1): 1}

    def test_irrational_pair(self):
        # s^2 - 2 t^2: two distinct irrational roots, none at infinity
        affine, at_infinity = univariate.affine_chart([1, 0, -2])
        assert at_infinity == [] and rational_roots(affine) == {}
        assert is_squarefree(affine)

    def test_total_root_count_matches_degree(self):
        # squarefree of full degree 4: four distinct points, as sympy finds
        affine, at_infinity = univariate.affine_chart([3, 0, -7, 0, 2])
        assert at_infinity == [] and is_squarefree(affine)
        roots = _sympy_poly([Fraction(c) for c in affine]).nroots()
        assert len(set(roots)) == 4

    def test_zero_rejected(self):
        affine, _ = univariate.affine_chart([0, 0, 0, 0])
        with pytest.raises(ValueError):
            rational_roots(affine)
