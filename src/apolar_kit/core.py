"""Exact arithmetic core.

Sparse homogeneous polynomials over Q, the falling factorials of the
contraction action of dual operators on monomials, and one fraction-free
integer elimination engine (echelon, rank, kernel vectors), with ranks
read modulo a prime where that is a proof.  No floating point enters this
module; every value is immutable after construction, so everything here
can be shared freely between workers.

`ExactMatrix`, `substitute` and `change_coordinates` are the rational
layer the integer engine replaced; no verifier or command calls them.
They stay only because the bench tracer (`bench/tracer.py`) wraps them
by name, and they leave with that tracer.

Conventions used throughout the package:

* a monomial is an exponent tuple ``(e_0, ..., e_{n-1})``;
* the fixed monomial order is graded lexicographic, realised for a single
  degree as descending lexicographic comparison of exponent tuples
  (``x0^d`` first);
* the same ``Polynomial`` class represents forms in the ``x`` variables
  and operators in the dual variables; which ring a value lives in is a
  matter of how it is used.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

__all__ = [
    "Polynomial",
    "ExactMatrix",
    "monomial_basis",
    "change_coordinates",
    "substitute",
    "primitive_point",
]


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction coefficient, got {value!r}")


def _monomial_value(point: Sequence, exp: Sequence[int]):
    """The monomial x^exp at an exact point: the product of v ** e."""
    value = 1
    for v, e in zip(point, exp):
        if e:  # a power of a Fraction builds a new one, even for e = 0 or 1
            value *= v if e == 1 else v ** e
    return value


def monomial_basis(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, in graded-lex order.

    The list has exactly ``comb(nvars + degree - 1, degree)`` entries and
    starts with ``(degree, 0, ..., 0)``.
    """
    if nvars < 1:
        raise ValueError(f"nvars must be >= 1, got {nvars}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out


class Polynomial:
    """Sparse homogeneous polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples (length ``nvars``, total degree equal
    to ``degree``) to nonzero ``Fraction`` coefficients.  The zero
    polynomial keeps its degree tag and has an empty term map.
    """

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars: int, degree: int, terms: dict):
        if nvars < 1:
            raise ValueError(f"nvars must be >= 1, got {nvars}")
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exp, coef in terms.items():
            exp = tuple(exp)
            coef = _coerce(coef)
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has wrong arity for nvars={nvars}")
            if any(type(e) is not int or e < 0 for e in exp):
                raise ValueError(f"exponents must be non-negative integers, got {exp}")
            if sum(exp) != degree:
                raise ValueError(f"monomial {exp} is not of degree {degree}")
            if exp not in clean:
                if coef:
                    clean[exp] = coef
                continue
            acc = clean[exp] + coef
            if acc:
                clean[exp] = acc
            else:
                del clean[exp]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "Polynomial":
        return cls(nvars, degree, {})

    @classmethod
    def monomial(cls, exponents: Sequence[int], coef=1) -> "Polynomial":
        exp = tuple(exponents)
        return cls(len(exp), sum(exp), {exp: coef})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Polynomial":
        exp = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, 1, {exp: 1})

    @classmethod
    def from_vector(cls, nvars: int, degree: int, vector: Sequence,
                    basis: Optional[Sequence[tuple[int, ...]]] = None) -> "Polynomial":
        if basis is None:
            basis = monomial_basis(nvars, degree)
        if len(vector) != len(basis):
            raise ValueError("coefficient vector does not match basis length")
        return cls(nvars, degree, {exp: c for exp, c in zip(basis, vector) if c})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def coefficient_vector(self, basis: Optional[Sequence[tuple[int, ...]]] = None) -> list[Fraction]:
        if basis is None:
            basis = monomial_basis(self.nvars, self.degree)
        return [self.terms.get(exp, Fraction(0)) for exp in basis]

    def integer_terms(self) -> tuple[int, dict[tuple[int, ...], int]]:
        """The least positive s with s * self integral, and the terms of s * self."""
        scale = lcm(*(c.denominator for c in self.terms.values()))
        return scale, {exp: c.numerator * (scale // c.denominator)
                       for exp, c in self.terms.items()}

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        """Term whose monomial comes first in graded-lex order."""
        exp = max(self.terms)
        return exp, self.terms[exp]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def normalized(self) -> "Polynomial":
        """Scale so the first nonzero coefficient in graded-lex order is 1."""
        if self.is_zero():
            return self
        _, lead = self.leading_term()
        return self * (Fraction(1) / lead)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) + c
        return Polynomial(self.nvars, self.degree, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, self.degree, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch in product")
            terms: dict[tuple[int, ...], Fraction] = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    exp = tuple(a + b for a, b in zip(ea, eb))
                    terms[exp] = terms.get(exp, Fraction(0)) + ca * cb
            return Polynomial(self.nvars, self.degree + other.degree, terms)
        coef = _coerce(other)
        return Polynomial(self.nvars, self.degree,
                          {e: c * coef for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = Polynomial(self.nvars, 0, {(0,) * self.nvars: 1})
        for _ in range(n):
            result = result * self
        return result

    def evaluate(self, values: Sequence):
        """Evaluate at a point with integer or Fraction coordinates."""
        if len(values) != self.nvars:
            raise ValueError("point has wrong length")
        return sum((coef * _monomial_value(values, exp) for exp, coef in self.terms.items()),
                   Fraction(0))

    def _check_compatible(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {other!r}")
        if other.nvars != self.nvars or other.degree != self.degree:
            raise ValueError(
                f"incompatible polynomials: ({self.nvars},{self.degree}) vs "
                f"({other.nvars},{other.degree})")

    # -- comparison / display -------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.degree, tuple(self.sorted_terms())))

    def __repr__(self) -> str:
        return f"Polynomial({self.nvars}, {self.degree}, {self.to_string()!r})"

    def to_string(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for exp, coef in self.sorted_terms():
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(f"{var}{i}")
                elif e > 1:
                    factors.append(f"{var}{i}^{e}")
            mono = "*".join(factors) if factors else "1"
            if coef == 1 and factors:
                parts.append(mono)
            elif coef == -1 and factors:
                parts.append(f"-{mono}")
            elif factors:
                parts.append(f"{coef}*{mono}")
            else:
                parts.append(str(coef))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __str__(self) -> str:
        return self.to_string()


def _falling(b: Sequence[int], a: Sequence[int]) -> int:
    """prod_i b_i (b_i - 1) ... (b_i - a_i + 1); zero if any a_i > b_i."""
    out = 1
    for bi, ai in zip(b, a):
        if ai > bi:
            return 0
        for j in range(ai):
            out *= bi - j
    return out


def _combination(weights: dict, vectors) -> dict:
    """sum_i weights[i] vectors[i] of sparse integer vectors, without zeros."""
    total: dict = {}
    for i, w in weights.items():
        for key, x in vectors[i].items():
            total[key] = total.get(key, 0) + w * x
    return {key: x for key, x in total.items() if x}


def _int_substitute(forms: Sequence[dict], rows: Sequence[Sequence[int]],
                    ncols: int) -> list[dict]:
    """Substitute x_i -> sum_j M[i][j] y_j in integer term maps, M the
    integer matrix with these rows and `ncols` columns.  The forms share
    one cache of monomial images, so a whole graded piece costs one
    product per monomial rather than one per term."""
    sparse = [[(j, a) for j, a in enumerate(row) if a] for row in rows]
    images = {(0,) * len(rows): {(0,) * ncols: 1}}

    def image(exp: tuple[int, ...]) -> dict:
        if exp not in images:
            i = next(i for i, e in enumerate(exp) if e)
            found = images[exp] = {}
            for mono, c in image(exp[:i] + (exp[i] - 1,) + exp[i + 1:]).items():
                for j, a in sparse[i]:
                    key = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                    found[key] = found.get(key, 0) + c * a
        return images[exp]

    return [_combination(terms, {exp: image(exp) for exp in terms}) for terms in forms]


def substitute(forms: Sequence[Polynomial], matrix: "ExactMatrix") -> list[Polynomial]:
    """Substitute x_i -> sum_j M[i][j] y_j in forms of M.nrows variables.

    M may be rectangular; the images are forms of the same degree in
    M.ncols variables, from one `_int_substitute` call on the forms and
    M scaled to integers.
    """
    if any(form.nvars != matrix.nrows for form in forms):
        raise ValueError("matrix shape does not match variable count")
    entries = matrix.rows()
    den = lcm(*(x.denominator for row in entries for x in row))
    scaled = [form.integer_terms() for form in forms]
    images = _int_substitute([terms for _, terms in scaled],
                             [[int(x * den) for x in row] for row in entries], matrix.ncols)
    return [Polynomial(matrix.ncols, form.degree,
                       {mono: Fraction(v, scale * den ** form.degree) for mono, v in image.items()})
            for form, (scale, _), image in zip(forms, scaled, images)]


def change_coordinates(form: Polynomial, matrix: "ExactMatrix") -> Polynomial:
    """Substitute x_i -> sum_j M[i][j] x_j; requires M invertible.

    Satisfies change(change(f, M), M') == change(f, M @ M').
    """
    n = form.nvars
    if matrix.nrows != n or matrix.ncols != n:
        raise ValueError("matrix shape does not match variable count")
    if matrix.rank() != n:
        raise ValueError("coordinate change matrix is singular")
    return substitute([form], matrix)[0]


# ----------------------------------------------------------------------
# exact linear algebra
# ----------------------------------------------------------------------

def _row_to_int(row: Sequence) -> list[int]:
    """Scale a rational row to a primitive integer row (kernel-safe)."""
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _int_echelon(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of integer rows.

    Returns (echelon rows, pivot columns); row i has its pivot in column
    pivots[i].  Rows are gcd-stripped after every elimination to
    keep entries small; the row space is preserved up to scaling, which
    is all the back-substitution needs.
    """
    mat = [r[:] for r in rows]
    pivots: list[int] = []
    prow = 0
    for col in range(ncols):
        best = -1
        best_size = None
        for i in range(prow, len(mat)):
            v = mat[i][col]
            if v:
                size = abs(v)
                if best_size is None or size < best_size:
                    best, best_size = i, size
        if best < 0:
            continue
        mat[prow], mat[best] = mat[best], mat[prow]
        tail = mat[prow][col:]
        piv = tail[0]
        for i in range(prow + 1, len(mat)):
            v = mat[i][col]
            if v:
                # rows below the pivot row are zero left of col
                row = [piv * a - v * b for a, b in zip(mat[i][col:], tail)]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
                mat[i][col:] = row
        pivots.append(col)
        prow += 1
        if prow == len(mat):
            break
    return mat[:prow], pivots


# a rank modulo a prime bounds the rank over Q from below
_RANK_PRIME = 2 ** 61 - 1


def _pivots_mod_prime(rows: Sequence[Sequence[int]], ncols: int) -> list[int]:
    """Pivot columns of integer rows modulo `_RANK_PRIME`, by Gaussian
    elimination: in order, each column independent mod p of the columns
    before it, up to the rank."""
    p = _RANK_PRIME
    mat = [[x % p for x in row] for row in rows]
    pivots: list[int] = []
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
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return pivots


def _rank_mod_prime(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Rank of integer rows modulo `_RANK_PRIME`."""
    return len(_pivots_mod_prime(rows, ncols))


def _int_rank(rows: list[list[int]], ncols: int) -> int:
    """Rank over Q of integer rows of width `ncols`: the rank modulo
    `_RANK_PRIME` when that is full, otherwise that of `_int_echelon`."""
    rank = _rank_mod_prime(rows, ncols)
    return rank if rank == min(len(rows), ncols) else len(_int_echelon(rows, ncols)[1])


def _int_reduce(ech: list[list[int]], pivots: list[int], row: list[int]) -> list[int]:
    """An integer row reduced against echelon rows from `_int_echelon`.

    Each echelon row clears the row's entry at its pivot; the result is a
    nonzero multiple of the row minus a combination of the echelon rows,
    gcd-stripped, and it is zero exactly when the row lies in their span.
    """
    for e, p in zip(ech, pivots):
        c = row[p]
        if c:
            g = gcd(c, e[p])
            u, v = e[p] // g, c // g
            row = [u * x - v * y for x, y in zip(row, e)]
            g = gcd(*row)
            if g > 1:
                row = [x // g for x in row]
    return row


def _int_back_substitute(ech: list[list[int]], pivots: list[int],
                         columns: Iterable[int]) -> list[dict[int, int]]:
    """Primitive integer kernel vectors of an echelon form, as sparse maps.

    For each free column j in `columns` the vector is nonzero at j and
    zero at every other free column; these are the kernel vectors of the
    reduced echelon form up to scale.  The pivot rows are walked from the
    bottom up, scaling the vector by d / gcd(s, d) whenever a row with
    pivot d leaves a residual s, so no division is ever inexact.
    """
    tails = [[(c, row[c]) for c in range(p + 1, len(row)) if row[c]]
             for row, p in zip(ech, pivots)]
    out = []
    for j in columns:
        v = {j: 1}
        for r in range(len(pivots) - 1, -1, -1):
            s = sum(a * v[c] for c, a in tails[r] if c in v)
            if s:
                d = ech[r][pivots[r]]
                g = gcd(s, d)
                if d != g:
                    m = d // g
                    v = {c: x * m for c, x in v.items()}
                v[pivots[r]] = -s // g
        out.append(v)
    return out


def _free_columns(pivots: list[int], ncols: int) -> list[int]:
    pivot_set = set(pivots)
    return [c for c in range(ncols) if c not in pivot_set]


def _scaled(v: dict[int, int], den: int, width: int) -> list[Fraction]:
    """The dense vector v / den, over the columns before `width`."""
    out = [Fraction(0)] * width
    for c, x in v.items():
        if c < width:
            out[c] = Fraction(x, den)
    return out


def _kernel_vectors(rows: Sequence[Sequence[int]], ncols: int) -> list[dict[int, int]]:
    """Integer kernel vectors of integer rows of width `ncols`, as sparse
    maps: those of `_int_back_substitute`, one per free column (no rows
    give the unit vectors)."""
    ech, pivots = _int_echelon(rows, ncols)
    return _int_back_substitute(ech, pivots, _free_columns(pivots, ncols))


class ExactMatrix:
    """Dense matrix over Q with exact rank / rref / kernel / solve / inverse.

    Internally stores ``Fraction`` entries.  Every method scales the rows
    to primitive integer rows and runs the one fraction-free elimination
    engine: `rank` is `_int_rank`; the others take `_int_echelon`, then
    `_int_back_substitute` for one primitive integer kernel vector per
    free column.  Rational numbers enter only when an answer is read off
    those vectors, one quotient per entry: the reduced echelon form, the
    normalised kernel basis, the solution of A x = b (the kernel vector
    of [A | b] at the right-hand-side column) and the inverse (those of
    [A | I] at the identity columns).
    """

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        data = [[_coerce(x) for x in row] for row in rows]
        if data:
            width = len(data[0])
            for row in data:
                if len(row) != width:
                    raise ValueError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "_rows", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    # -- queries ---------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def row(self, i: int) -> list[Fraction]:
        return list(self._rows[i])

    def rows(self) -> list[list[Fraction]]:
        return [list(r) for r in self._rows]

    def column(self, j: int) -> list[Fraction]:
        return [r[j] for r in self._rows]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix([[self._rows[i][j] for i in range(self.nrows)]
                            for j in range(self.ncols)])

    def is_zero(self) -> bool:
        return all(not x for row in self._rows for x in row)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExactMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self._rows == other._rows)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.nrows}x{self.ncols})"

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        cols = other.transpose()._rows
        return ExactMatrix([[sum(a * b for a, b in zip(row, col)) for col in cols]
                            for row in self._rows])

    def apply(self, vector: Sequence) -> list[Fraction]:
        if len(vector) != self.ncols:
            raise ValueError("vector length mismatch")
        return [sum((a * b for a, b in zip(row, vector)), Fraction(0))
                for row in self._rows]

    # -- elimination -------------------------------------------------------

    def _int_rows(self) -> list[list[int]]:
        return [_row_to_int(row) for row in self._rows]

    def rank(self) -> int:
        return _int_rank(self._int_rows(), self.ncols)

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns (canonical).

        Row r has 1 at its pivot p_r and -v_j[p_r] / v_j[j] at each free
        column j, where v_j is the integer kernel vector of that column.
        """
        if self.nrows == 0 or self.ncols == 0:
            return ExactMatrix([]), ()
        ech, pivots = _int_echelon(self._int_rows(), self.ncols)
        reduced = [[Fraction(0)] * self.ncols for _ in pivots]
        for r, col in enumerate(pivots):
            reduced[r][col] = Fraction(1)
        row_of = {col: r for r, col in enumerate(pivots)}
        free = _free_columns(pivots, self.ncols)
        for j, v in zip(free, _int_back_substitute(ech, pivots, free)):
            for col, x in v.items():
                if col != j:
                    reduced[row_of[col]][j] = Fraction(-x, v[j])
        return ExactMatrix(reduced), tuple(pivots)

    def kernel(self) -> "ExactMatrix":
        """Basis of the right kernel, one vector per row: the vectors of
        `_kernel_vectors`, each scaled so its first nonzero entry is 1."""
        return ExactMatrix([_scaled(v, v[min(v)], self.ncols)
                            for v in _kernel_vectors(self._int_rows(), self.ncols)])

    def solve(self, rhs: Sequence) -> Optional[list[Fraction]]:
        """One exact solution of A x = b, or None when inconsistent.

        Free variables are set to zero: x = -v[:n] / v[n] for the kernel
        vector v of [A | b] at the right-hand-side column n, which is
        free exactly when the system is consistent.
        """
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        n = self.ncols
        if not self._rows:
            return [Fraction(0)] * n
        aug = [_row_to_int(row + [_coerce(b)]) for row, b in zip(self._rows, rhs)]
        ech, pivots = _int_echelon(aug, n + 1)
        if pivots and pivots[-1] == n:
            return None
        [v] = _int_back_substitute(ech, pivots, [n])
        return _scaled(v, -v[n], n)

    def inverse(self) -> "ExactMatrix":
        """The inverse, read off the kernel vectors of [A | I] at the identity columns."""
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be inverted")
        n = self.nrows
        aug = [_row_to_int(row + [int(i == j) for j in range(n)])
               for i, row in enumerate(self._rows)]
        ech, pivots = _int_echelon(aug, 2 * n)
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        columns = [_scaled(v, -v[n + k], n) for k, v in
                   enumerate(_int_back_substitute(ech, pivots, range(n, 2 * n)))]
        return ExactMatrix(zip(*columns))


def primitive_point(coords: Sequence) -> tuple[int, ...]:
    """Scale rational projective coordinates to coprime integers with a
    positive leading entry."""
    ints = _row_to_int(coords)
    if next((v for v in ints if v), 1) < 0:
        ints = [-v for v in ints]
    return tuple(ints)
