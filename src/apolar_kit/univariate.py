"""Exact arithmetic on univariate integer polynomials and binary forms.

Polynomials are integer coefficient lists, lowest degree first.  The
module multiplies and combines them, writes the multiples of binary
forms, finds rational roots by p-adic lifting and rational
reconstruction, and takes greatest common divisors and squarefree tests
by primitive pseudo-remainder sequences (after one gcd modulo a prime,
which settles most squarefree inputs).  No residue modulo a polynomial
is kept, and no root is ever approximated.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, isqrt, lcm

from . import core

__all__ = ["rational_roots", "affine_chart", "poly_gcd", "is_squarefree"]


# ----------------------------------------------------------------------
# integer polynomials: coefficient lists, lowest degree first
# ----------------------------------------------------------------------

def _primitive(coeffs: Sequence) -> list[int]:
    """The primitive integer multiple of sum_i coeffs[i] t^i with a
    positive leading coefficient, trailing zeros stripped ([] for 0)."""
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return ints
    content = gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return [c // content for c in ints] if content != 1 else ints


def _derivative(f: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _combine(terms) -> list[int]:
    """sum c * f over the (c, f) pairs, integer polynomials."""
    terms = list(terms)
    out = [0] * max((len(f) for _, f in terms), default=0)
    for c, f in terms:
        for i, x in enumerate(f):
            out[i] += c * x
    return out


def _multiples(forms: Sequence[Sequence[int]], degree: int) -> list[list[int]]:
    """Each binary form f of degree L times every monomial
    s^(degree - L - a) t^a, as rows of degree + 1 coefficients (j on
    s^(degree - j) t^j), form by form; a form of higher degree has none."""
    return [[0] * a + list(f) + [0] * (degree + 1 - len(f) - a)
            for f in forms for a in range(degree + 2 - len(f))]


def _pseudo_remainder(a: list[int], b: list[int]) -> tuple[int, list[int]]:
    """(m, r) with r = m (a mod b) for a nonzero integer m; deg b >= 1.

    An a shorter than b comes back unchanged with m = 1; otherwise r has
    deg b entries, trailing zeros kept."""
    n = len(b) - 1
    lead = b[-1]
    r = list(a)
    m = 1
    for k in range(len(r) - 1, n - 1, -1):
        c = r.pop()
        if c:
            common = gcd(c, lead)
            u, v = lead // common, c // common
            if u != 1:
                r = [u * x for x in r]
                m *= u
            shift = k - n
            for i in range(n):
                r[shift + i] -= v * b[i]
    return m, r


def poly_gcd(f: Sequence, g: Sequence) -> list[int]:
    """Greatest common divisor over Q of sum_i f[i] t^i and sum_i g[i] t^i.

    Coefficients may be integers or Fractions.  The result is the
    primitive integer polynomial with positive leading coefficient ([1]
    for coprime inputs, [] when both are zero), by the primitive
    pseudo-remainder sequence.
    """
    a, b = _primitive(f), _primitive(g)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        a, b = b, _primitive(_pseudo_remainder(a, b)[1])
    return [1] if b else a


def _coprime_mod(f: Sequence[int], g: Sequence[int], p: int) -> bool:
    """Whether f and g are coprime modulo the prime p: Euclid's algorithm
    over GF(p) ends on a nonzero constant."""
    a, b = [c % p for c in f], [c % p for c in g]
    while True:
        while b and not b[-1]:
            b.pop()
        if not b:
            return len(a) == 1
        inverse = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a.pop() * inverse % p
            if c:
                shift = len(a) - len(b) + 1
                for i, x in enumerate(b[:-1]):
                    a[shift + i] = (a[shift + i] - c * x) % p
        a, b = b, a


def is_squarefree(coeffs: Sequence) -> bool:
    """True when sum_i coeffs[i] t^i has no repeated factor over Q.

    The primitive f is first tested modulo p = `core._RANK_PRIME`: when p
    does not divide f's leading coefficient and f, f' are coprime mod p,
    f is squarefree, since a square h^2 dividing f in Z[t] (Gauss's
    lemma) keeps its degree mod p and h divides f and f' there too.
    Otherwise the primitive pseudo-remainder sequence decides exactly.
    """
    f = _primitive(coeffs)
    df = _derivative(f)
    p = core._RANK_PRIME
    if f and f[-1] % p and _coprime_mod(f, df, p):
        return True
    return len(poly_gcd(f, df)) == 1


def _distinct_roots(form: Sequence[int]) -> bool:
    """True when the binary form sum_j c_j s^(d-j) t^j of degree d
    vanishes at d distinct points: its affine part has degree >= d - 1
    (at most a simple root at s = 0) and is squarefree."""
    affine, _ = affine_chart(form)
    return len(affine) >= len(form) - 1 and is_squarefree(affine)


def _divide(f: list[int], g: list[int]) -> list[int] | None:
    """The integer quotient f / g when g divides f in Z[t], else None."""
    n = len(g) - 1
    lead = g[-1]
    r = list(f)
    q = [0] * (len(f) - n)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + n], lead)
        if rem:
            return None
        q[k] = c
        if c:
            for i in range(n):
                r[k + i] -= c * g[i]
    return q if not any(r[:n]) else None


def _primes(start: int):
    """The primes from `start` on, without end."""
    p = start
    while True:
        if all(p % d for d in range(2, isqrt(p) + 1)):
            yield p
        p += 1


def _evaluate_mod(f: Sequence[int], x: int, m: int) -> int:
    value = 0
    for c in reversed(f):
        value = (value * x + c) % m
    return value


def _simple_roots_mod(f: Sequence[int], p: int) -> list[int] | None:
    """The roots of f mod p, or None when one of them is not simple."""
    fp = [c % p for c in f]
    dfp = [c % p for c in _derivative(f)]
    roots = []
    for x in range(p):
        if _evaluate_mod(fp, x, p) == 0:
            if _evaluate_mod(dfp, x, p) == 0:
                return None
            roots.append(x)
    return roots


def _lift_and_reconstruct(f: list[int], root: int, p: int) -> tuple[int, int] | None:
    """The rational root a / b of f (b > 0) congruent to `root` mod p, if any.

    `root` is a simple root of f mod p.  Newton's iteration lifts it to
    the p-adic root modulo m > 2 |lead| |const|, carrying the inverse of
    f'(r) along by its own Newton step; half the extended Euclidean
    algorithm then finds the only a / b = r mod m with |a| <= |const|
    and 0 < b <= |lead|, if there is one.
    """
    df = _derivative(f)
    numer_bound, denom_bound = abs(f[0]), abs(f[-1])
    bound = 2 * numer_bound * denom_bound
    m = p
    r = root
    inverse = pow(_evaluate_mod(df, r, p), -1, p)
    while m <= bound:
        m *= m
        r = (r - _evaluate_mod(f, r, m) * inverse) % m
        if m <= bound:
            inverse = inverse * (2 - _evaluate_mod(df, r, m) * inverse) % m
    r0, r1, s0, s1 = m, r, 0, 1
    while r1 > numer_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    a, b = (r1, s1) if s1 > 0 else (-r1, -s1)
    if b == 0 or b > denom_bound or gcd(a, b) != 1:
        return None
    return a, b


# a squarefree f has a good prime after finitely many; one with a
# repeated rational root has none, so the squarefree part takes over
_BAD_PRIMES_BEFORE_SQUAREFREE = 3


def _root_candidates(f: list[int]) -> list[tuple[int, int]]:
    """Pairs (a, b) among which is every rational root a / b of f.

    f is primitive of degree >= 1 with f(0) != 0.  The primes are walked
    until one does not divide the leading coefficient and leaves every
    root of f mod p simple; each such root is lifted and reconstructed.
    """
    poly = f
    bad = 0
    for p in _primes(3):
        if len(poly) == 2:
            return [(-poly[0], poly[1])]
        if poly[-1] % p == 0:
            continue
        roots = _simple_roots_mod(poly, p)
        if roots is None:
            bad += 1
            if bad == _BAD_PRIMES_BEFORE_SQUAREFREE:
                poly = _divide(poly, poly_gcd(poly, _derivative(poly)))
            continue
        found = (_lift_and_reconstruct(poly, x, p) for x in roots)
        return [ab for ab in found if ab is not None]


def rational_roots(coeffs: Sequence[Fraction]) -> dict[Fraction, int]:
    """Exact rational roots (with multiplicity) of sum_i coeffs[i] t^i.

    Zero roots are split off and the rest is made a primitive integer
    polynomial f.  The result is complete (Loos 1983): in lowest terms a
    rational root a / b of f, or of its squarefree part, has b dividing
    the leading and a dividing the constant coefficient.  So modulo a
    prime p not dividing the leading coefficient it is a root of f mod
    p, which is simple when p is good (all roots mod p simple), and
    Newton lifting plus rational reconstruction recover it.  A
    squarefree polynomial has only finitely many bad primes, so the
    walk over primes ends; after a few bad primes it runs on the
    squarefree part f / gcd(f, f').  A candidate is kept only when
    (b t - a) divides f exactly, and its multiplicity is counted by
    exact deflation.
    """
    cleaned = [Fraction(c) for c in coeffs]
    while cleaned and cleaned[-1] == 0:
        cleaned.pop()
    if not cleaned:
        raise ValueError("the zero polynomial has no meaningful root set")
    zeros = next(i for i, c in enumerate(cleaned) if c)
    out = {Fraction(0): zeros} if zeros else {}
    f = _primitive(cleaned[zeros:])
    if len(f) == 1:
        return out
    for a, b in _root_candidates(f):
        mult = 0
        while len(f) > 1:
            quotient = _divide(f, [-a, b])
            if quotient is None:
                break
            f = quotient
            mult += 1
        if mult:
            out[Fraction(a, b)] = mult
    return out


def affine_chart(coeffs: Sequence) -> tuple[list, list[tuple]]:
    """Split sum_j c_j s^(d-j) t^j at the point at infinity.

    Strips the trailing zero coefficients, each a factor s of the form,
    and returns (the affine coefficients, [(0, 1)] when any were stripped,
    else []).
    """
    affine = list(coeffs)
    while affine and affine[-1] == 0:
        affine.pop()
    at_infinity = [(0, 1)] if len(affine) < len(coeffs) else []
    return affine, at_infinity
