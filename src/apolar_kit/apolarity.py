"""Apolar ideals, catalecticants, Hilbert functions and the inverse system.

The graded piece of the annihilator of a form F in degree k is the kernel
of the contraction map from degree-k dual operators to forms of degree
d - k; the map in the other direction (recovering F, up to scalar, from
enough graded pieces) is `inverse_system`, and `macaulay_inverse` when
that space is one-dimensional.  All of it is integer linear algebra, on
the catalecticant rows of the form's integer scaling
(`_catalecticant_rows`) wherever a form is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add, sub
from typing import Sequence

from .core import (Polynomial, _combination, _falling, _int_rank, _kernel_vectors,
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


@dataclass(frozen=True)
class GradedIdealPiece:
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

    @property
    def ambient_dim(self) -> int:
        return comb(self.nvars + self.degree - 1, self.degree)


@dataclass(frozen=True)
class ApolarAlgebraProfile:
    """Hilbert function of the quotient by an apolar ideal."""

    socle_degree: int
    hilbert: tuple[int, ...]

    @property
    def socle_dim(self) -> int:
        return self.hilbert[self.socle_degree]

    def is_symmetric(self) -> bool:
        h = self.hilbert
        return all(h[k] == h[self.socle_degree - k] for k in range(len(h)))


def _catalecticant_rows(terms: dict, n: int, d: int, k: int) -> list[list]:
    """The catalecticant of a degree-d form with these terms: the matrix
    of D |-> D . f from degree-k duals to forms of degree d - k, rows by
    the degree-(d - k) monomials and columns by the degree-k dual
    monomials, both in graded-lex order, whose kernel is the degree-k
    piece of the annihilator of f.  x^a sends x^e, e = a + t, to
    falling(e, a) x^t, so c x^e puts c * falling(e, a) in row t and
    column a for each such split of e, found by walking the smaller of
    the two bases."""
    index = {a: j for j, a in enumerate(monomial_basis(n, k))}
    rows = {t: [0] * len(index) for t in monomial_basis(n, d - k)}
    for e, c in terms.items():
        if len(index) < len(rows):
            for a, column in index.items():
                t = tuple(map(sub, e, a))
                if t in rows:
                    rows[t][column] = c * _falling(e, a)
        else:
            for t, row in rows.items():
                a = tuple(map(sub, e, t))
                if a in index:
                    row[index[a]] = c * _falling(e, a)
    return list(rows.values())


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

    h_k is the rank of the catalecticant C_k, whose entry at (t, a) is
    (a + t)! F_(a+t) / t!: C_(d-k) is C_k transposed between invertible
    factorial diagonals, so only k <= d/2 is ranked and the rest mirrored.
    """
    if form.is_zero():
        raise ValueError("the zero form has no apolar algebra profile")
    d, n = form.degree, form.nvars
    terms = form.integer_terms()[1]
    ranks = [_int_rank(_catalecticant_rows(terms, n, d, k), comb(n + k - 1, k))
             for k in range(d // 2 + 1)]
    return ApolarAlgebraProfile(d, tuple(ranks[min(k, d - k)] for k in range(d + 1)))


def _condition_rows(ops: Sequence[dict], degree: int, d: int,
                    columns: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """Linear conditions `D . F = 0` on the coefficients of F in degree d:
    one integer row per operator D (an integer term map of the given
    degree) and target monomial t, where each term c x^a of D puts
    c * falling(a + t, a) in the column of the form monomial a + t."""
    index = {m: j for j, m in enumerate(columns)}
    targets = monomial_basis(len(columns[0]), d - degree)
    rows = []
    for op in ops:
        for t in targets:
            row = [0] * len(columns)
            for a, c in op.items():
                b = tuple(map(add, a, t))
                row[index[b]] = c * _falling(b, a)
            rows.append(row)
    return rows


def _inverse_vectors(pieces: Sequence[tuple[int, Sequence[dict]]], d: int,
                     columns: Sequence[tuple[int, ...]]) -> tuple[list[dict], list[int]]:
    """The integer core of `inverse_system`, on (degree, operators as
    integer term maps) pairs, highest degree first, and the degree-d
    monomials `columns`.  The top piece's condition kernel is cut down by
    each further piece's conditions, written in its coordinates.  Returns
    sparse integer vectors over `columns` and one scale each: vector /
    scale is the `inverse_system` vector, whose kernel bases lead with 1.
    A kernel vector w over solutions u_i / s_i gives sum_i w_i u_i over
    s_i0 w_i0, at the first index i0 of w.
    """
    (degree, ops), *rest = pieces
    vectors = _kernel_vectors(_condition_rows(ops, degree, d, columns), len(columns))
    scales = [v[min(v)] for v in vectors]
    for degree, ops in rest:
        if not vectors:
            break
        combos = _kernel_vectors([[sum(row[j] * x for j, x in v.items()) for v in vectors]
                                  for row in _condition_rows(ops, degree, d, columns)],
                                 len(vectors))
        scales = [scales[min(w)] * w[min(w)] for w in combos]
        vectors = [_combination(w, vectors) for w in combos]
    return vectors, scales


def inverse_system(pieces: Sequence[GradedIdealPiece], d: int) -> list[Polynomial]:
    """Basis of the degree-d forms annihilated by every given graded piece.

    `pieces` hold components of an ideal in degrees between 1 and d, in
    one dual ring.  A piece's `basis` may be any spanning set, dependent
    or zero forms included: the result is the canonical kernel basis of
    the conditions, so it depends only on the spans.  The conditions are
    integer rows written down from the contraction rule, each operator
    scaled to integers (which moves no kernel), and `_inverse_vectors`
    solves them degree by degree, highest first (the top piece pins the
    forms down to a low-dimensional space, so the remaining conditions
    are cheap).  Without a nonempty piece the result is the monomial
    basis of degree d.
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
    vectors, scales = _inverse_vectors(
        [(p.degree, [op.integer_terms()[1] for op in p.basis]) for p in by_degree], d, columns)
    return [Polynomial(n, d, {columns[j]: Fraction(x, s) for j, x in v.items()})
            for v, s in zip(vectors, scales)]


def macaulay_inverse(pieces: Sequence[GradedIdealPiece], d: int) -> Polynomial:
    """Recover the unique form annihilated by the given graded pieces.

    Raises SocleDimensionError unless the `inverse_system` of the pieces
    is exactly one-dimensional; the result is normalized so its leading
    graded-lex coefficient is 1.
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
    return solutions[0].normalized()
