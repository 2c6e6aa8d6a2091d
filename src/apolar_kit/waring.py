"""Waring-rank analysis of cubic forms, in exact arithmetic.

A cubic in n variables is a Fermat cubic when it is a sum of cubes of n
independent linear forms l_i.  Contracting F = sum_i w_i l_i^3 with a
dual direction gives a quadric that is diagonal in the basis l_i, so for
an invertible such quadric B and two others A and C, the matrices
M = B^-1 A and N = B^-1 C commute and share eigenvectors v_i, and B v_i
is the coefficient vector of l_i.  Detection reads those points off over
Q without computing a root: the characteristic polynomial chi of M is
the equation of a scheme of n points, and phi = B adj(t - M) r is its
point at every root of chi (`simultaneous_diagonalize`).  The verdict is
the power-sum certificate the verifiers use (`_certify_scheme`): F lies
in the span of the cubes of those points, decided in Q[t]/(chi), which
together with conciseness proves that F is a sum of exactly n cubes.
It runs in integers: one Faddeev-LeVerrier loop gives adj(B) and chi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, permutations
from math import factorial, gcd, lcm, prod
from typing import Optional, Sequence

from .apolarity import _catalecticant_rows
from .core import (Polynomial, _int_echelon, _int_rank, _int_reduce, _kernel_vectors,
                   _pivots_mod_prime, monomial_basis)
from .seeding import make_rng, random_dual_linear
from .univariate import _mul, _pseudo_remainder, is_squarefree, poly_gcd

__all__ = [
    "CertificateError",
    "Decomposition",
    "PencilError",
    "rank_lower_bound",
    "simultaneous_diagonalize",
    "fermat_detect_detail",
]


class CertificateError(RuntimeError):
    """A check of the exact power-sum certificate failed; the message
    names the check by its letter."""


class PencilError(RuntimeError):
    """Failure of the quadric-pencil step; `kind` is one of
    'singular' (every member of the pencil tried is degenerate),
    'non-simple' (the characteristic polynomial has a repeated root, or
    the point vanishes at one of its roots) or 'non-commuting' (two
    matrices of the family do not commute, which no sum of independent
    cubes allows)."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(message)


@dataclass(frozen=True)
class Decomposition:
    """A certified presentation of a cubic as a sum of cubes, over Q.

    The cubic is a sum of the cubes of the linear forms whose coefficient
    vectors are the `points` phi(t) at the roots of the squarefree
    `scheme_equation` chi(t); both are integer polynomials, coefficients
    lowest degree first.
    """

    nvars: int
    scheme_equation: tuple[int, ...]
    points: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.scheme_equation) - 1


def rank_lower_bound(form: Polynomial) -> int:
    """Rank of the degree-1 contraction matrix; Waring rank is at least this.

    The catalecticant rows of the form's integer scaling go to `_int_rank`,
    which ranks them modulo a 61-bit prime (the rank when it is full, n)
    and only otherwise exactly.
    """
    if form.degree != 3:
        raise ValueError("rank bound implemented for cubics only")
    return _int_rank(_catalecticant_rows(form.integer_terms()[1], form.nvars, 3, 1), form.nvars)


def _certify_scheme(determinant: list[int], phi: Sequence[list[int]],
                    cubic: Polynomial) -> int:
    """Exact power-sum certificate in A = Q[t]/(D); returns L = deg D.

    The polynomials phi are the coordinates of a scheme Gamma with
    equation D.  (a) D is squarefree, so Gamma is L distinct points p_i
    (some possibly equal or zero in these coordinates, which only
    shortens the sum).  (c) The cubic F lies in the span of the cubes of
    the p_i, that is (I_Gamma)_3 lies in Ann(F), and by the apolarity
    lemma for reduced schemes (Iarrobino-Kanev 1999, Lemma 1.15) F is a
    sum of at most L cubes.  The operator x^e pairs with F as e! F_e and
    with the cube of p_i as 6 (x^e)(p_i), so (c) asks for a functional
    lambda on A taking x^e(phi) mod D to t_e = e! F_e for every cubic
    monomial: the vector (t_e) must lie in the row space of the
    L x C(n + 2, 3) matrix whose column x^e holds x^e(phi) mod D.

    Each column col_e is a primitive integer pseudo-remainder
    (num_e / den_e) (x^e(phi) mod D), built from the residues of phi and
    of their pairwise products, so (c) reads den_e (lambda . col_e) =
    num_e t_e.  One elimination modulo `core._RANK_PRIME`, in monomial
    order, keeps the first L columns independent mod p, hence over Q; the
    integer kernel vector (lambda, w) of the L x (L + 1) system
    [den_e col_e | -num_e t_e] on them has w != 0, and (c) holds exactly
    when den_e (lambda . col_e) = w num_e t_e for every e, a dot product
    per column: the equalities prove the span, and the L independent
    columns fix lambda, so one failure disproves it.  Only when fewer
    than L columns are independent mod p (equal or zero points) is the
    target reduced against one echelon of the L rows instead.
    CertificateError names the failed check.
    """
    length = len(determinant) - 1
    if length < 1 or not is_squarefree(determinant):
        raise CertificateError(
            f"(a) the scheme equation is not squarefree of degree {length}")
    n = len(phi)

    def residue(f: list[int], num: int, den: int) -> tuple[list[int], int, int]:
        # f is num / den times the residue of a product of the phi; return
        # the primitive remainder and its multiple of that residue
        m, r = _pseudo_remainder(f, determinant)
        r += [0] * (length - len(r))
        content = gcd(*r) or 1
        num, den = num * m, den * content
        common = gcd(num, den)
        return [x // content for x in r], num // common, den // common

    linear = [residue(f, 1, 1) for f in phi]
    quadratic = {}
    for i in range(n):
        for j in range(i, n):
            (ri, ni, di), (rj, nj, dj) = linear[i], linear[j]
            quadratic[i, j] = residue(_mul(ri, rj), ni * nj, di * dj)
    terms = cubic.integer_terms()[1]
    columns = []
    for exp in monomial_basis(n, 3):
        i, j, k = (v for v, e in enumerate(exp) for _ in range(e))
        (ri, ni, di), (rq, nq, dq) = linear[i], quadratic[j, k]
        column, num, den = residue(_mul(ri, rq), ni * nq, di * dq)
        columns.append((column, num * terms.get(exp, 0) * prod(map(factorial, exp)), den))
    rows = [list(row) for row in zip(*(column for column, _, _ in columns))]
    chosen = _pivots_mod_prime(rows, len(columns))
    if len(chosen) == length:
        system = [[den * x for x in column] + [-target]
                  for column, target, den in (columns[e] for e in chosen)]
        (solution,) = _kernel_vectors(system, length + 1)
        weight = solution.pop(length)
        in_span = all(den * sum(x * column[i] for i, x in solution.items()) == weight * target
                      for column, target, den in columns)
    else:
        scale = lcm(*(den for _, _, den in columns))
        ech, pivots = _int_echelon(rows, len(columns))
        in_span = not any(_int_reduce(ech, pivots, [target * (scale // den)
                                                    for _, target, den in columns]))
    if not in_span:
        raise CertificateError("(c) the cubic is not in the span of the scheme's cubes")
    return length


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _faddeev_leverrier(m: Sequence[Sequence[int]]) -> tuple[list[int], list]:
    """(chi, [M_1, ..., M_n]) of an integer n x n matrix M, in integers:
    chi(t) = det(t - M), monic, lowest degree first, and adj(t - M) =
    sum_k M_k t^(n - k), so chi(0) = det(-M) and M_n = adj(-M)."""
    n = len(m)
    chi = [0] * n + [1]
    adjugate = []
    product = [[0] * n for _ in range(n)]   # M M_0, with M_0 = 0
    for k in range(1, n + 1):
        mk = [[x + chi[n - k + 1] * (i == j) for j, x in enumerate(row)]
              for i, row in enumerate(product)]
        adjugate.append(mk)
        product = _matmul(m, mk)
        chi[n - k] = -sum(product[i][i] for i in range(n)) // k
    return chi, adjugate


def simultaneous_diagonalize(hessians: Sequence[Sequence[Sequence[int]]], r: Sequence[int]
                             ) -> tuple[list[int], list[list[int]]]:
    """Common diagonalizing points of a family of quadrics, as a scheme over Q.

    The quadrics come as integer symmetric Hessians (one positive scale of
    them all moves nothing).  The first two span a pencil; its first
    invertible member B among (q2, q1), (q1, q2) and q1 + j q2 (j = 1..5,
    with A = q1) gives M = B^-1 A scaled to the least integer matrix:
    sgn(det B) adj(B) A over its gcd with det B, read off
    `_faddeev_leverrier` on B.  Each further adj(B) C must commute with M.
    Faddeev-LeVerrier on M gives chi(t) = det(t - M) and adj(t - M).  When
    chi is squarefree, adj(t_i - M) has rank one at each root t_i and its
    columns span the eigenvector v_i there, so phi(t) = B adj(t - M) r is
    a multiple of B v_i at t_i, and gcd(phi, chi) = 1 says that multiple
    is never zero.  Returns (chi, phi) with integer coefficients, lowest
    degree first; chi is monic and phi primitive.  Raises PencilError
    ('singular', 'non-commuting' or 'non-simple') otherwise.
    """
    n = len(r)
    if len(hessians) < 2 or any(len(h) != n or any(len(row) != n for row in h) for h in hessians):
        raise ValueError("need at least two n x n matrices, n the length of r")
    a, b, *others = hessians
    members = ([[x + j * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
               for j in range(1, 6))
    for base, other in chain([(b, a), (a, b)], ((m, a) for m in members)):
        (chi0, *_), adjugate = _faddeev_leverrier(base)
        if chi0:
            break
    else:
        raise PencilError("singular", "no invertible member of the pencil found")
    # chi0 = det(-B) and M_n = adj(-B), so -sgn(chi0) M_n A = |det B| B^-1 A
    adj, scaled = adjugate[-1], _matmul(adjugate[-1], other)
    scale = gcd(chi0, *chain(*scaled)) * (-1 if chi0 > 0 else 1)
    m = [[x // scale for x in row] for row in scaled]
    for c in others:
        block = _matmul(adj, c)
        if _matmul(m, block) != _matmul(block, m):
            raise PencilError("non-commuting", "the pencil matrices do not commute")
    chi, adjugate = _faddeev_leverrier(m)
    if not is_squarefree(chi):
        raise PencilError("non-simple", "the characteristic polynomial has a repeated root")
    # coefficient j of adj(t - M) r is M_(n-j) r
    columns = [[sum(x * y for x, y in zip(row, r)) for row in mk]
               for mk in reversed(adjugate)]
    phi = _matmul(base, list(zip(*columns)))
    if len(reduce(poly_gcd, phi, chi)) != 1:
        raise PencilError("non-simple", "the point vanishes at a root")
    content = gcd(*chain(*phi))
    return chi, [[x // content for x in f] for f in phi]


def fermat_detect_detail(form: Polynomial, seed: int = 0
                         ) -> tuple[Optional[Decomposition], str]:
    """Fermat-cubic detection with an explanation of any failure.

    Each of up to five seeded draws takes three contraction directions l,
    whose Hessians sum_i l_i T[i] (T[i][j][k] = e! F_e, e = u_i + u_j + u_k)
    go with a vector r to `simultaneous_diagonalize`; the first draw that
    yields a scheme decides, by `_certify_scheme`.  Returns
    (decomposition, 'ok') on success.  Failure reasons:
    'rank-deficient'    the degree-1 contraction rank is below n, so the
                        form cannot be a sum of n independent cubes;
    'singular-pencil'   every draw gave a degenerate pencil;
    'non-simple-pencil' no draw gave a squarefree characteristic
                        polynomial with a point at each of its roots (the
                        reason of the last draw, if every draw failed
                        there or on the pencil);
    'fit-failed'        the form is not the sum of the points' cubes: the
                        pencil matrices do not commute, or check (c) of
                        the certificate fails.
    """
    if form.degree != 3:
        raise ValueError("Fermat detection needs a cubic")
    n = form.nvars
    if rank_lower_bound(form) < n:
        return None, "rank-deficient"
    tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
    for e, c in form.integer_terms()[1].items():
        for i, j, k in permutations([v for v, x in enumerate(e) for _ in range(x)]):
            tensor[i][j][k] = c * prod(map(factorial, e))
    rng = make_rng(seed)
    kind = "singular"
    for _ in range(5):
        directions = [[int(c) for c in random_dual_linear(n, rng).coefficient_vector()]
                      for _ in range(3)]   # integer coefficients
        hessians = [[[sum(x * t[j][k] for x, t in zip(l, tensor)) for k in range(n)]
                     for j in range(n)] for l in directions]
        r = [rng.randint(-9, 9) for _ in range(n)]
        try:
            chi, phi = simultaneous_diagonalize(hessians, r)
        except PencilError as err:
            if err.kind == "non-commuting":
                return None, "fit-failed"
            kind = err.kind
            continue
        try:
            _certify_scheme(chi, phi, form)
        except CertificateError:
            return None, "fit-failed"
        return Decomposition(n, tuple(chi), tuple(tuple(f) for f in phi)), "ok"
    return None, f"{kind}-pencil"
