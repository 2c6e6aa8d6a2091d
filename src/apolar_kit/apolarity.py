"""Apolar ideals, catalecticants, Hilbert functions and the inverse system.

The graded piece of the annihilator of a form F in degree k is the kernel
of the contraction map from degree-k dual operators to forms of degree
d - k; the map in the other direction (recovering F, up to scalar, from
enough graded pieces) is `inverse_system`, and `macaulay_inverse` when
that space is one-dimensional.  All of it is integer linear algebra in
the divided-power coordinates of Iarrobino-Kanev (1999, App. A), where
contraction has no factorials: a form's catalecticant is the Hankel
matrix of its weighted coefficients w_e = e! F_e (`_divided_powers`,
`_catalecticant_rows`), and an operator's conditions on a form are
shifts of its own coefficients (`_condition_rows`).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import comb, factorial, prod

from .core import (Polynomial, Record, _combination, _int_rank, _kernel_vectors,
                   monomial_basis)

__all__ = [
    "GradedIdealPiece",
    "ApolarAlgebraProfile",
    "SocleDimensionError",
    "apolar_ideal_piece",
    "hilbert_function",
    "inverse_system",
    "macaulay_inverse",
]


class SocleDimensionError(ValueError):
    """Raised when graded pieces do not cut out a one-dimensional socle.

    Carries the computed dimension and the Hilbert vector of the input
    pieces so callers can diagnose a bad (non-general) choice of data.
    """

    def __init__(self, dimension: int, hilbert: tuple[int, ...]):
        self.dimension = dimension
        self.hilbert = hilbert
        super().__init__(
            f"socle dimension is {dimension}, expected 1; input Hilbert vector {hilbert}")


class GradedIdealPiece(Record):
    """A basis of one graded component of an ideal in the dual ring."""

    degree: int
    nvars: int
    basis: tuple[Polynomial, ...]

    def __post_init__(self):
        for p in self.basis:
            if p.degree != self.degree or p.nvars != self.nvars:
                raise ValueError("basis element has wrong degree or arity")

    @property
    def dim(self) -> int:
        return len(self.basis)


class ApolarAlgebraProfile(Record):
    """Hilbert function of the quotient by an apolar ideal."""

    socle_degree: int
    hilbert: tuple[int, ...]

    @property
    def socle_dim(self) -> int:
        return self.hilbert[self.socle_degree]


def _divided_powers(terms: dict) -> dict:
    """w_e = e! c_e for the terms c_e x^e of a form: its coordinates on
    the divided powers x^e / e!, on which contraction has no factorials."""
    return {e: c * prod(map(factorial, e)) for e, c in terms.items()}


def _code(exp: tuple[int, ...], base: int) -> int:
    """An exponent tuple read as the digits of an integer in `base`; below
    the base no digit carries, so the code of a + t is the sum of codes."""
    out = 0
    for e in exp:
        out = out * base + e
    return out


def _catalecticant_rows(terms: dict, n: int, d: int, k: int) -> list[list]:
    """The Hankel catalecticant H_k of a degree-d form with these terms:
    w_(a+t) of `_divided_powers` at row t and column a, over the
    degree-(d - k) monomials and the degree-k dual monomials in graded-lex
    order, keyed by their `_code` in base d + 1.  x^a sends the form to
    sum_t w_(a+t) x^t / t!, so the contraction matrix C_k is
    diag(1/t!) H_k: the same rank, and the same kernel, the degree-k piece
    of the annihilator of the form."""
    w = {_code(e, d + 1): x for e, x in _divided_powers(terms).items()}
    columns = [_code(a, d + 1) for a in monomial_basis(n, k)]
    return [[w.get(a + t, 0) for a in columns]
            for t in (_code(t, d + 1) for t in monomial_basis(n, d - k))]


def apolar_ideal_piece(form: Polynomial, k: int) -> GradedIdealPiece:
    """Degree-k graded piece of the annihilator ideal of a form.

    For k up to deg f this is the catalecticant kernel, one basis form per
    integer kernel vector of the catalecticant rows, scaled so that its
    first nonzero coefficient is 1; the piece in degree deg f + 1 is the
    whole dual space.
    """
    d = form.degree
    if k < 0:
        raise ValueError("negative degree")
    if k > d + 1:
        raise ValueError(f"piece degree {k} exceeds socle degree + 1")
    n = form.nvars
    columns = monomial_basis(n, k)
    if k == d + 1:
        return GradedIdealPiece(k, n, tuple(map(Polynomial.monomial, columns)))
    basis = []
    for v in _kernel_vectors(_catalecticant_rows(form.integer_terms()[1], n, d, k),
                             len(columns)):
        lead = v[min(v)]
        basis.append(Polynomial(n, k, {columns[j]: Fraction(x, lead) for j, x in v.items()}))
    return GradedIdealPiece(k, n, tuple(basis))


def hilbert_function(form: Polynomial) -> ApolarAlgebraProfile:
    """Hilbert function of the apolar quotient algebra of a nonzero form.

    h_k is the rank of the Hankel catalecticant H_k, whose entry at (t, a)
    is w_(a+t): H_(d-k) is H_k transposed, so only k <= d/2 is ranked and
    the rest mirrored.
    """
    if form.is_zero():
        raise ValueError("the zero form has no apolar algebra profile")
    d, n = form.degree, form.nvars
    terms = form.integer_terms()[1]
    ranks = [_int_rank(_catalecticant_rows(terms, n, d, k), comb(n + k - 1, k))
             for k in range(d // 2 + 1)]
    return ApolarAlgebraProfile(d, tuple(ranks[min(k, d - k)] for k in range(d + 1)))


def _condition_rows(ops: Sequence[dict], degree: int, d: int,
                    columns: Sequence[tuple[int, ...]]) -> list[dict[int, int]]:
    """Linear conditions `D . F = 0` on a degree-d form F, in its
    divided-power coordinates u_b = b! F_b over `columns`: one sparse
    integer row per operator D (an integer term map of the given degree)
    and target monomial t, holding each term c x^a of D in the column of
    a + t, since D . F = sum_t (sum_a c_a u_(a+t)) x^t / t!.  Monomials
    are keyed by their `_code` in base d + 1."""
    index = {_code(m, d + 1): j for j, m in enumerate(columns)}
    targets = [_code(t, d + 1) for t in monomial_basis(len(columns[0]), d - degree)]
    rows = []
    for op in ops:
        coded = [(_code(a, d + 1), c) for a, c in op.items()]
        rows.extend({index[a + t]: c for a, c in coded} for t in targets)
    return rows


def _inverse_vectors(pieces: Sequence[tuple[int, Sequence[dict]]], d: int,
                     columns: Sequence[tuple[int, ...]]) -> list[dict]:
    """The integer core of `inverse_system`, on (degree, operators as
    integer term maps) pairs, highest degree first, and the degree-d
    monomials `columns`.  The top piece's condition kernel, in the
    coordinates u of `_condition_rows`, is cut down by each further
    piece's conditions, as sparse dot products with its vectors.  Returns
    sparse integer vectors over `columns` in the coordinates of F (u_b
    times the integer d!/b!).
    """
    (degree, ops), *rest = pieces
    width = len(columns)
    multinomial = [factorial(d) // prod(map(factorial, b)) for b in columns]
    vectors = _kernel_vectors([[row.get(j, 0) for j in range(width)]
                               for row in _condition_rows(ops, degree, d, columns)], width)
    for degree, ops in rest:
        if not vectors:
            break
        combos = _kernel_vectors([[sum(c * v.get(j, 0) for j, c in row.items()) for v in vectors]
                                  for row in _condition_rows(ops, degree, d, columns)],
                                 len(vectors))
        vectors = [_combination(w, vectors) for w in combos]
    return [{j: x * multinomial[j] for j, x in v.items()} for v in vectors]


def inverse_system(pieces: Sequence[GradedIdealPiece], d: int) -> list[Polynomial]:
    """Basis of the degree-d forms annihilated by every given graded piece.

    `pieces` hold components of an ideal in degrees between 1 and d, in
    one dual ring.  A piece's `basis` may be any spanning set, dependent
    or zero forms included: the result is the canonical kernel basis of
    the conditions, so it depends only on the spans.  The conditions are
    the sparse shift rows of `_condition_rows`, each operator scaled to
    integers (which moves no kernel), and `_inverse_vectors` solves them
    degree by degree, highest first (the top piece pins the forms down to
    a low-dimensional space, so the remaining conditions are cheap).
    Each basis form is its integer vector divided by the vector's first
    entry in graded-lex order, so every form leads with 1.  Without a
    nonempty piece the result is the monomial basis of degree d.
    """
    if d < 1:
        raise ValueError("socle degree must be >= 1")
    if not pieces:
        raise ValueError("no graded pieces given")
    n = pieces[0].nvars
    for p in pieces:
        if p.nvars != n:
            raise ValueError("pieces live in different dual rings")
        if p.dim and not 1 <= p.degree <= d:
            raise ValueError(f"piece degree {p.degree} outside 1..{d}")
    by_degree = sorted((p for p in pieces if p.dim > 0),
                       key=lambda p: p.degree, reverse=True)
    columns = monomial_basis(n, d)
    if not by_degree:
        return [Polynomial.monomial(m) for m in columns]
    vectors = _inverse_vectors(
        [(p.degree, [op.integer_terms()[1] for op in p.basis]) for p in by_degree], d, columns)
    return [Polynomial(n, d, {columns[j]: Fraction(x, v[min(v)]) for j, x in v.items()})
            for v in vectors]


def macaulay_inverse(pieces: Sequence[GradedIdealPiece], d: int) -> Polynomial:
    """Recover the unique form annihilated by the given graded pieces.

    Raises SocleDimensionError unless the `inverse_system` of the pieces
    is exactly one-dimensional; the result is that one basis form, whose
    leading graded-lex coefficient is 1.
    """
    nonempty = [p for p in pieces if p.dim > 0]
    if not nonempty:
        raise ValueError("no nonempty graded pieces given")
    solutions = inverse_system(nonempty, d)
    if len(solutions) != 1:
        n = nonempty[0].nvars
        dims = {p.degree: p.dim for p in nonempty}
        hilbert = (1,) + tuple(comb(n + k - 1, k) - dims.get(k, 0)
                               for k in range(1, d + 1))
        raise SocleDimensionError(len(solutions), hilbert)
    return solutions[0]
