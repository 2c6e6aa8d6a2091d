"""Waring-rank analysis of cubic forms.

A cubic is a Fermat cubic when it is a sum of cubes of n independent
linear forms in its n variables.  Detection contracts the cubic against
two generic dual directions, which turns the question into a generalized
eigenproblem for a pencil of quadrics: for an actual sum of cubes both
quadrics are diagonal in the (unknown) dual basis, so a simple-spectrum
pencil hands back the linear forms.  Eigenvalues are computed in
high-precision floating point and every candidate decomposition is
validated by an explicit power-sum fit with a residual check; nothing is
ever reported on the strength of the eigenproblem alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from mpmath import mp

from .apolarity import _contraction_rows, power_sum_solve
from .core import ExactMatrix, Polynomial, contract, monomial_basis
from .numerics import DEFAULT_PRECISION_BITS, DEFAULT_TOLERANCE, to_mp, workprec
from .seeding import make_rng, random_dual_linear

__all__ = [
    "Decomposition",
    "PencilError",
    "rank_lower_bound",
    "power_sum_fit",
    "simultaneous_diagonalize",
    "fermat_detect",
    "fermat_detect_detail",
]


class PencilError(RuntimeError):
    """Failure of the quadric-pencil step; `kind` is one of
    'singular' (every combination tried is degenerate) or
    'non-simple' (repeated eigenvalues, no unique eigenbasis)."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(message)


@dataclass(frozen=True)
class Decomposition:
    """A certified power-sum presentation f = sum_i w_i l_i^3.

    `forms` holds the coefficient vectors of the linear forms l_i; on
    the exact path everything is Fraction and the residual is exactly
    zero, otherwise entries are mp floats (possibly complex) and the
    residual is the coefficientwise sup distance between f and the sum,
    relative to the largest coefficient of f.
    """

    nvars: int
    forms: tuple[tuple, ...]
    weights: tuple
    residual: object
    exact: bool

    @property
    def rank(self) -> int:
        return len(self.forms)

    def form_polynomials(self) -> list[Polynomial]:
        if not self.exact:
            raise ValueError("only exact decompositions convert to Polynomial")
        return [Polynomial(self.nvars, 1,
                           {tuple(1 if j == i else 0 for j in range(self.nvars)): c
                            for i, c in enumerate(vec)})
                for vec in self.forms]

    def reconstruct(self) -> Polynomial:
        """Exact sum of weighted cubes; only available on the exact path."""
        if not self.exact:
            raise ValueError("only exact decompositions reconstruct exactly")
        total = Polynomial.zero(self.nvars, 3)
        for w, ell in zip(self.weights, self.form_polynomials()):
            total = total + w * (ell ** 3)
        return total


# a rank modulo a prime bounds the rank over Q from below
_RANK_PRIME = 2 ** 61 - 1


def _rank_mod_prime(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank of integer rows modulo `_RANK_PRIME`, by Gaussian elimination."""
    p = _RANK_PRIME
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inverse = pow(mat[rank][col], -1, p)
        head = [x * inverse % p for x in mat[rank]]
        for i in range(rank + 1, len(mat)):
            c = mat[i][col]
            if c:
                mat[i] = [(x - c * y) % p for x, y in zip(mat[i], head)]
        rank += 1
    return rank


def rank_lower_bound(form: Polynomial) -> int:
    """Rank of the degree-1 contraction matrix; Waring rank is at least this.

    The matrix of the form's integer scaling is first ranked modulo a
    61-bit prime, a lower bound on its rank over Q that is the rank when
    it is full (n); only otherwise is the rank computed exactly.
    """
    if form.degree != 3:
        raise ValueError("rank bound implemented for cubics only")
    n = form.nvars
    index = {a: j for j, a in enumerate(monomial_basis(n, 1))}
    rows = _contraction_rows(form.integer_terms()[1], monomial_basis(n, 2), index,
                             operator=False)
    if _rank_mod_prime(rows, n) == n:
        return n
    return ExactMatrix(rows).rank()


def _normalize_point(vec: Sequence, exact: bool):
    if exact:
        lead = next((c for c in vec if c), None)
        if lead is None:
            raise ValueError("zero dual point")
        return tuple(Fraction(c) / lead for c in vec)
    biggest = max(abs(c) for c in vec)
    if biggest == 0:
        raise ValueError("zero dual point")
    lead = next(c for c in vec if abs(c) >= biggest / 2)
    return tuple(c / lead for c in vec)


def _sort_key_float(vec):
    return tuple((mp.re(c), mp.im(c)) for c in vec)


def power_sum_fit(points: Sequence[Sequence], form: Polynomial,
                  precision_bits: int = DEFAULT_PRECISION_BITS,
                  tolerance: Fraction = DEFAULT_TOLERANCE) -> Optional[Decomposition]:
    """Solve f = sum_i w_i l_i^3 for the weights, given the dual points.

    Exact inputs run through exact linear algebra and return a residual
    of literally zero or None; floating inputs are solved by least
    squares at the requested precision and accepted only when the
    relative residual stays below the tolerance.
    """
    if form.degree != 3:
        raise ValueError("power-sum fitting implemented for cubics only")
    if not points:
        raise ValueError("no dual points given")
    n = form.nvars
    for p in points:
        if len(p) != n:
            raise ValueError("point arity does not match the form")
    try:
        pts, weights, residual, exact = power_sum_solve(points, form,
                                                        precision_bits, tolerance)
    except ValueError:
        return None
    if weights is None:
        return None
    return Decomposition(n, tuple(pts), tuple(weights), residual, exact)


def _quadric_matrix(q: Polynomial) -> ExactMatrix:
    """Symmetric matrix A with q(x) = x^T A x."""
    if q.degree != 2:
        raise ValueError("not a quadric")
    n = q.nvars
    rows = [[Fraction(0)] * n for _ in range(n)]
    for exp, c in q.terms.items():
        support = [i for i, e in enumerate(exp) if e]
        if len(support) == 1:
            i = support[0]
            rows[i][i] = c
        else:
            i, j = support
            rows[i][j] = c / 2
            rows[j][i] = c / 2
    return ExactMatrix(rows)


def simultaneous_diagonalize(q1: Polynomial, q2: Polynomial,
                             precision_bits: int = DEFAULT_PRECISION_BITS) -> list[tuple]:
    """Common diagonalizing dual points of a pencil of quadrics.

    Writes the quadrics as symmetric matrices (A, B), requires some
    combination of the pencil to be invertible, and solves the standard
    eigenproblem of B^-1 A, the right block of the reduced echelon form
    of [B | A].  With a simple spectrum the eigenvectors v_i are unique
    up to scale and the images B v_i are the coefficient vectors of the
    linear forms that diagonalize both quadrics at once; those are
    returned, normalized.  Raises PencilError('singular') when
    no invertible member is found and PencilError('non-simple') when
    eigenvalues collide.
    """
    if q1.nvars != q2.nvars:
        raise ValueError("quadrics in different variable sets")
    a = _quadric_matrix(q1)
    b = _quadric_matrix(q2)
    n = q1.nvars
    # generic members of the pencil may be invertible when b and a are not
    members = ((ExactMatrix([[a.entry(r, c) + Fraction(j) * b.entry(r, c)
                              for c in range(n)] for r in range(n)]), a)
               for j in range(1, 6))
    for base, other in chain([(b, a), (a, b)], members):
        # [base | other] reduces to [I | base^-1 other] exactly when base
        # is invertible, that is when the left block holds n pivots
        reduced, pivots = ExactMatrix([rb + ro for rb, ro
                                       in zip(base.rows(), other.rows())]).rref()
        if pivots[:n] == tuple(range(n)):
            break
    else:
        raise PencilError("singular", "no invertible member of the pencil found")
    m = ExactMatrix([row[n:] for row in reduced.rows()])
    with workprec(precision_bits):
        mm = mp.matrix([[to_mp(m.entry(i, j)) for j in range(n)] for i in range(n)])
        eigenvalues, eigenvectors = mp.eig(mm)
        sep_tol = mp.mpf(2) ** (-(precision_bits // 3))
        scale = max(mp.mpf(1), max(abs(e) for e in eigenvalues))
        for i in range(n):
            for j in range(i + 1, n):
                if abs(eigenvalues[i] - eigenvalues[j]) < sep_tol * scale:
                    raise PencilError(
                        "non-simple",
                        f"eigenvalues {i} and {j} coincide at this precision")
        base_mp = mp.matrix([[to_mp(base.entry(i, j)) for j in range(n)] for i in range(n)])
        other_mp = mp.matrix([[to_mp(other.entry(i, j)) for j in range(n)] for i in range(n)])
        points = []
        for i in range(n):
            v = eigenvectors[:, i]
            image = base_mp * v
            norm = mp.sqrt(mp.fsum(abs(x) ** 2 for x in image))
            vnorm = mp.sqrt(mp.fsum(abs(x) ** 2 for x in v))
            if norm < sep_tol * vnorm:
                image = other_mp * v
            point = _normalize_point([image[r] for r in range(n)], exact=False)
            # drop negligible imaginary dust so real pencils give real points
            cleaned = []
            real_scale = max(abs(c) for c in point)
            for c in point:
                if abs(mp.im(c)) < sep_tol * real_scale:
                    cleaned.append(mp.re(c))
                else:
                    cleaned.append(c)
            points.append(tuple(cleaned))
        points.sort(key=_sort_key_float)
        return points


def fermat_detect_detail(form: Polynomial, seed: int = 0,
                         precision_bits: int = DEFAULT_PRECISION_BITS,
                         tolerance: Fraction = DEFAULT_TOLERANCE
                         ) -> tuple[Optional[Decomposition], str]:
    """Fermat-cubic detection with an explanation of any failure.

    Returns (decomposition, 'ok') on success.  Failure reasons:
    'rank-deficient'   the degree-1 contraction rank is below n, so the
                       form cannot be a sum of n independent cubes;
    'singular-pencil'  every seeded choice of contraction directions gave
                       a degenerate pencil;
    'non-simple-pencil' eigenvalues collide, so no unique eigenbasis;
    'fit-failed'       the candidate points do not reproduce the form.
    """
    if form.degree != 3:
        raise ValueError("Fermat detection needs a cubic")
    n = form.nvars
    if rank_lower_bound(form) < n:
        return None, "rank-deficient"
    if n == 1:
        coef = form.coefficient((3,))
        return Decomposition(1, ((Fraction(1),),), (coef,), Fraction(0), True), "ok"
    rng = make_rng(seed)
    last_kind = "singular"
    for _ in range(5):
        eta1 = random_dual_linear(n, rng)
        eta2 = random_dual_linear(n, rng)
        quad1 = contract(eta1, form)
        quad2 = contract(eta2, form)
        try:
            points = simultaneous_diagonalize(quad1, quad2, precision_bits)
        except PencilError as err:
            last_kind = err.kind
            continue
        decomposition = power_sum_fit(points, form, precision_bits, tolerance)
        if decomposition is None:
            return None, "fit-failed"
        order = sorted(range(len(points)), key=lambda i: _sort_key_float(decomposition.forms[i]))
        ordered = Decomposition(
            n,
            tuple(decomposition.forms[i] for i in order),
            tuple(decomposition.weights[i] for i in order),
            decomposition.residual,
            decomposition.exact,
        )
        return ordered, "ok"
    return None, f"{last_kind}-pencil"


def fermat_detect(form: Polynomial, seed: int = 0,
                  precision_bits: int = DEFAULT_PRECISION_BITS,
                  tolerance: Fraction = DEFAULT_TOLERANCE) -> Optional[Decomposition]:
    """Decompose a Fermat cubic into n cubes, or return None."""
    decomposition, _ = fermat_detect_detail(form, seed, precision_bits, tolerance)
    return decomposition
