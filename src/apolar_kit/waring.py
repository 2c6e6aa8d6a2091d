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
the pencil's own: B^-1 T_i commutes with M for the Hessian T_i of every
coordinate direction, chi is squarefree and phi never vanishes at a root
of chi, which together prove F a sum of the cubes of those points, and
conciseness makes them exactly n.  It runs in integers: one
Faddeev-LeVerrier loop gives adj(B) and chi.  Both verifiers certify a
functional on binary forms instead (`_certify_roots`, Sylvester's
theorem).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce
from itertools import chain, permutations
from math import gcd
from operator import mul

from .apolarity import _catalecticant_rows, _divided_powers
from .core import Polynomial, Record, _int_rank
from .seeding import make_rng, random_dual_linear
from .univariate import _distinct_roots, is_squarefree, poly_gcd

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


class Decomposition(Record):
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

    `_int_rank` ranks the Hankel catalecticant H_1 of the form's integer
    scaling, that matrix between factorial diagonals: modulo a 61-bit
    prime (the rank when it is full, n), and only otherwise exactly.
    """
    if form.degree != 3:
        raise ValueError("rank bound implemented for cubics only")
    return _int_rank(_catalecticant_rows(form.integer_terms()[1], form.nvars, 3, 1), form.nvars)


def _certify_roots(determinant: Sequence[int]) -> int:
    """Check (a) of the exact power-sum certificate on binary forms, by
    Sylvester's theorem; returns L = deg D.

    D is a binary form of degree L, coefficient j on s^(L - j) t^j.  (a)
    D has L distinct roots p_i in P^1, at most one of them (0 : 1)
    (`univariate._distinct_roots`): its dehomogenization has no repeated
    factor and drops at most one degree.  A functional lambda on the
    forms of degree d >= L - 1 that kills the multiples of D of degree d
    then lies in a space of dimension L, in which the L evaluations at
    the p_i are independent, so by the binary apolarity lemma
    (Iarrobino-Kanev 1999, Lemma 1.15) lambda(h) = sum_i w_i h(p_i) for
    every form h of degree d.  The verifiers' lambda kills those
    multiples by construction: D is one of the two forms of the
    Sylvester system that defines lambda (`pipeline.alpha_map`).
    CertificateError names the failed check.
    """
    length = len(determinant) - 1
    if not any(determinant):
        raise CertificateError("(a) the scheme equation vanishes identically")
    if length < 1 or not _distinct_roots(determinant):
        raise CertificateError(
            f"(a) the scheme equation is not squarefree of degree {length}")
    return length


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    columns = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in columns] for row in a]


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

    When the family holds the Hessians T_i of every coordinate direction
    of a cubic F (the slices T[i] of its third-derivative tensor), and
    the first two are Hessians of F too, a return is a complete
    certificate that F is a sum of the cubes of the points.  B is
    invertible and symmetric, M has n distinct eigenvalues (chi is
    squarefree), and every B^-1 T_i commutes with M, so each is diagonal
    in M's eigenbasis V: B^-1 T_i = V D_i V^-1.  G = V^T B V is symmetric,
    and V^T T_i V = G D_i is symmetric as T_i is, so G commutes with every
    D_i, hence with D_A, whose entries are distinct: G is diagonal.  With
    W = V^-T this gives T_i = sum_j g_j d_ij w_j w_j^T.  The symmetry
    T[i][a][b] = T[a][i][b], with the w_j independent, forces
    d_ij = c_j w_ji, so F = sum_j (g_j c_j / 6) (w_j . x)^3.  And
    B v_j = g_j w_j, so w_j is proportional to phi(t_j), the point at the
    j-th root.  Conversely, if F is a sum of n independent cubes, every
    B^-1 T(l) is diagonal in one basis, so they all commute.
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
                         ) -> tuple[Decomposition | None, str]:
    """Fermat-cubic detection with an explanation of any failure.

    Each of up to five seeded draws takes three contraction directions l,
    whose Hessians sum_i l_i T[i] (T[i][j][k] = e! F_e, e = u_i + u_j + u_k)
    go with the n coordinate Hessians T[i] and a vector r to
    `simultaneous_diagonalize`; the first draw that yields a scheme, or
    finds two matrices that do not commute, decides.  The scheme is then
    the certificate: every coordinate Hessian commutes with the pencil,
    chi is squarefree and phi has a point at each of its roots, which
    proves the form the sum of the points' cubes.  Returns
    (decomposition, 'ok') on success.  Failure reasons:
    'rank-deficient'    the degree-1 contraction rank is below n, so the
                        form cannot be a sum of n independent cubes;
    'singular-pencil'   every draw gave a degenerate pencil;
    'non-simple-pencil' no draw gave a squarefree characteristic
                        polynomial with a point at each of its roots (the
                        reason of the last draw, if every draw failed
                        there or on the pencil);
    'fit-failed'        the form is not a sum of n independent cubes:
                        the third Hessian or a coordinate Hessian does
                        not commute with the pencil.
    """
    if form.degree != 3:
        raise ValueError("Fermat detection needs a cubic")
    n = form.nvars
    if rank_lower_bound(form) < n:
        return None, "rank-deficient"
    tensor = [[[0] * n for _ in range(n)] for _ in range(n)]
    for e, w in _divided_powers(form.integer_terms()[1]).items():
        for i, j, k in permutations([v for v, x in enumerate(e) for _ in range(x)]):
            tensor[i][j][k] = w
    rng = make_rng(seed)
    kind = "singular"
    for _ in range(5):
        directions = [[int(c) for c in random_dual_linear(n, rng).coefficient_vector()]
                      for _ in range(3)]   # integer coefficients
        hessians = [[[sum(x * t[j][k] for x, t in zip(l, tensor)) for k in range(n)]
                     for j in range(n)] for l in directions]
        r = [rng.randint(-9, 9) for _ in range(n)]
        try:
            chi, phi = simultaneous_diagonalize(hessians + tensor, r)
        except PencilError as err:
            if err.kind == "non-commuting":
                return None, "fit-failed"
            kind = err.kind
            continue
        return Decomposition(n, tuple(chi), tuple(tuple(f) for f in phi)), "ok"
    return None, f"{kind}-pencil"
