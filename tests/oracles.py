"""Reference computations for the tests.

`oracle_points` evaluates a scheme (D, phi), given as integer
coefficient lists lowest degree first, at sympy's numerical roots of D;
`oracle_fit` fits a cubic by least squares to the cubes of those points
in mpmath.  Both are independent of the package's arithmetic.

The package runs one integer path; the rational helpers it once
exported are the references here, checked against the integer code by
the tests: `contract` and `pair` (the contraction action and the
apolarity pairing on `Polynomial`s), `coefficient_matrix`, `int_kernel`
(the normalised kernel basis of `core._kernel_vectors`), `catalecticant`
as an `ExactMatrix`, `is_apolar_scheme` (the power-sum membership test
with exact weights, built from `power_coefficient_vector`),
`piece_contains` and `piece_from_vectors` on `GradedIdealPiece`s,
`random_invertible_matrix` (determinant +-1) and `scroll_quadrics` (the
2 x 2 minors that cut out a scroll).

The curve layer runs its fiber work on integer images of the equations;
the references here are the rational `Polynomial` computations it
replaced.  `fiber_form` restricts a section to a fiber, `conic_pencil`
forms the Bezout combinations of two fiber conics, `binary_roots` lists
the rational roots of a binary form, and `quadratic_fiber_points` is the
quadratic-formula solver for the common points of two conics that the
closed form of `curvegen._tetragonal_fiber_points` replaced.
`small_rationals` is the stream of `seeding.small_rationals` as it was
written before its bands were built once.

The quotient runs on integer rows with a closed-form hyperplane frame;
`quotient_frame` and `alpha_map` here are the `Fraction` computations it
replaced: a frame found by one rref of the hyperplane rows and inverted
whole, and a quotient through the public `substitute`, `inverse_system`
and `int_kernel` on `Polynomial` pieces.  `recon_piece` reads an integer
ideal piece of `ideal_pieces` as a `GradedIdealPiece`, and `from_spanning`
puts a spanning set in the one reduced echelon form of its span.

The forms layer runs on integer rows from the form's integer scaling.
The `Fraction` computations it replaced are kept here: `pencil` is the
Fermat pencil on `Polynomial` quadrics, with B^-1 A read off one rref of
[B | A | C ...] and scaled by `integer_multiple`, `fermat_detect_detail`
drives it with the quadrics of `contract`, `hilbert_vector` takes the
exact rank of every catalecticant, and `annihilator_piece` reads a piece
off `ExactMatrix.kernel`.

The power-sum certificate finds one functional on L columns and checks
it against the rest; `echelon_certificate` is the certificate it
replaced, which reduces the target against one echelon of the whole
L x C(n + 2, 3) residue matrix, with each column's scale a `Fraction`.
"""

import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from math import comb, factorial, gcd, isqrt, lcm, prod
from typing import Optional

import sympy
from mpmath import mp

from apolar_kit import core
from apolar_kit.apolarity import (ApolarAlgebraProfile, GradedIdealPiece, _catalecticant_rows,
                                  inverse_system)
from apolar_kit.core import (ExactMatrix, Polynomial, _falling, _int_echelon, _int_reduce,
                             _kernel_vectors, _monomial_value, _row_to_int, _scaled,
                             monomial_basis, substitute)
from apolar_kit.pipeline import AlphaCertificateError
from apolar_kit.scroll import coordinate_layout
from apolar_kit.seeding import make_rng, random_dual_linear
from apolar_kit.univariate import (_mul, _pseudo_remainder, affine_chart, is_squarefree,
                                   poly_gcd, rational_roots)
from apolar_kit.waring import (CertificateError, Decomposition, PencilError,
                               _certify_scheme)

_T = sympy.Symbol("t")


def refuse_rational_layer(monkeypatch):
    """Make `core.ExactMatrix`, `core.change_coordinates` and
    `core.substitute` raise AssertionError, in every package module that
    holds them.  The package keeps them only for the bench tracer, so
    nothing it runs may reach them."""
    def refuse(*args, **kwargs):
        raise AssertionError("the rational layer was called")

    monkeypatch.setattr(ExactMatrix, "__init__", refuse)
    for name in ("change_coordinates", "substitute"):
        original = getattr(core, name)
        for module_name, module in list(sys.modules.items()):
            if (module_name.split(".")[0] == "apolar_kit"
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, refuse)


def contract(op, form):
    """Apply a dual operator of degree a to a form of degree b.

    On monomials the action is a! * C(b, a) * x^(b-a) when b >= a and 0
    otherwise (the multi-index factorial and binomial), extended
    bilinearly; this is literal repeated partial differentiation.  The
    result is homogeneous of degree b - a, the zero form when every term
    dies, and the zero form of degree 0 when a > b.
    """
    if op.nvars != form.nvars:
        raise ValueError(
            f"variable count mismatch: operator has {op.nvars}, form has {form.nvars}")
    if op.degree > form.degree:
        return Polynomial.zero(form.nvars, 0)
    terms = {}
    for a, ca in op.terms.items():
        for b, cb in form.terms.items():
            factor = _falling(b, a)
            if factor:
                exp = tuple(bi - ai for bi, ai in zip(b, a))
                terms[exp] = terms.get(exp, Fraction(0)) + ca * cb * factor
    return Polynomial(form.nvars, form.degree - op.degree, terms)


def pair(form, op):
    """The perfect pairing between degree-d forms and degree-d operators:
    the dot product of coefficient vectors weighted by the multi-index
    factorials, the diagonal Gram matrix on monomial bases."""
    if form.nvars != op.nvars or form.degree != op.degree:
        raise ValueError(f"shape mismatch in pairing: ({form.nvars},{form.degree}) "
                         f"vs ({op.nvars},{op.degree})")
    return sum((c * op.terms[exp] * prod(map(factorial, exp))
                for exp, c in form.terms.items() if exp in op.terms), Fraction(0))


def coefficient_matrix(polys, basis=None):
    """The coefficient vectors of polynomials of one (nvars, degree), stacked."""
    polys = list(polys)
    if not polys:
        return ExactMatrix([])
    nvars, degree = polys[0].nvars, polys[0].degree
    if basis is None:
        basis = monomial_basis(nvars, degree)
    if any(p.nvars != nvars or p.degree != degree for p in polys):
        raise ValueError("mixed shapes in coefficient matrix")
    return ExactMatrix([p.coefficient_vector(basis) for p in polys])


def int_kernel(rows, ncols):
    """The kernel basis of integer rows with a unit entry at each free
    column: the vectors of `core._kernel_vectors`, each scaled so its
    first nonzero entry is 1."""
    return [_scaled(v, v[min(v)], ncols) for v in _kernel_vectors(rows, ncols)]


def catalecticant(form, k):
    """The catalecticant of a form as an `ExactMatrix`, from
    `apolarity._catalecticant_rows` of its rational terms."""
    d = form.degree
    if k < 0 or k > d:
        raise ValueError(f"contraction order k={k} outside 0..{d}")
    return ExactMatrix(_catalecticant_rows(form.terms, form.nvars, d, k))


def piece_from_vectors(degree, nvars, vectors):
    """The `GradedIdealPiece` whose basis has these coefficient vectors."""
    basis = monomial_basis(nvars, degree)
    return GradedIdealPiece(degree, nvars, tuple(
        Polynomial.from_vector(nvars, degree, v, basis) for v in vectors))


def piece_contains(piece, poly):
    """Exact membership of a dual form in the span of a graded piece: its
    integer row reduces to zero against the echelon form of the basis rows."""
    if poly.degree != piece.degree or poly.nvars != piece.nvars:
        raise ValueError("degree or arity mismatch in membership test")
    basis = monomial_basis(piece.nvars, piece.degree)
    *rows, row = ([t.get(m, 0) for m in basis]
                  for t in (p.integer_terms()[1] for p in piece.basis + (poly,)))
    ech, pivots = _int_echelon(rows, len(basis))
    return not any(_int_reduce(ech, pivots, row))


def power_coefficient_vector(point, d, basis):
    """Coefficient vector of (sum_i p_i x_i)^d over the degree-d basis."""
    return [factorial(d) // prod(map(factorial, exp)) * _monomial_value(point, exp)
            for exp in basis]


@dataclass(frozen=True)
class ApolarityCertificate:
    """Outcome of an apolar-scheme membership test, with the exact weights."""

    apolar: bool
    weights: Optional[tuple]


def is_apolar_scheme(points, form):
    """Whether reduced rational dual points realize f as a power sum: f in
    the span of the d-th powers of the linear forms sum_i c_i x_i, with
    the weights solved for exactly.  Coincident, zero and non-rational
    points are rejected."""
    if not points:
        raise ValueError("empty point list")
    n = form.nvars
    for p in points:
        if len(p) != n:
            raise ValueError("point arity does not match the form")
        if not all(isinstance(c, (int, Fraction)) for c in p):
            raise ValueError("dual points must have rational coordinates")
        if not any(p):
            raise ValueError("zero vector is not a projective point")
    pts = [tuple(Fraction(c) for c in p) for p in points]
    for (i, u), (j, v) in combinations(enumerate(pts), 2):
        # proportional exactly when every 2 x 2 minor of (u, v) vanishes
        if all(u[a] * v[b] == u[b] * v[a] for a, b in combinations(range(n), 2)):
            raise ValueError(f"coincident dual points at indices {i} and {j}")
    basis = monomial_basis(n, form.degree)
    columns = [power_coefficient_vector(p, form.degree, basis) for p in pts]
    weights = ExactMatrix(columns).transpose().solve(form.coefficient_vector(basis))
    return ApolarityCertificate(weights is not None,
                                None if weights is None else tuple(weights))


def random_invertible_matrix(n, rng, bound=3):
    """Unit lower * unit upper * permutation; always has determinant +-1."""
    lower = [[1 if i == j else (rng.randint(-bound, bound) if i > j else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-bound, bound) if i < j else 0)
              for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    pmat = [[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    return ExactMatrix(lower) @ ExactMatrix(upper) @ ExactMatrix(pmat)


def scroll_quadrics(scroll):
    """The 2 x 2 minors of the 2-row matrix whose columns are the
    consecutive coordinate pairs inside each block of the scroll; they
    span the degree-2 part of its ideal."""
    position = {slot: idx for idx, slot in enumerate(coordinate_layout(scroll))}
    columns = [(position[i, j], position[i, j + 1])
               for i, a in enumerate(scroll.type) for j in range(a)]
    nvars = scroll.N + 1
    minors = []
    for (top1, bot1), (top2, bot2) in combinations(columns, 2):
        exp_a, exp_b = [0] * nvars, [0] * nvars
        exp_a[top1] += 1
        exp_a[bot2] += 1
        exp_b[bot1] += 1
        exp_b[top2] += 1
        minors.append(Polynomial(nvars, 2, {tuple(exp_a): 1, tuple(exp_b): -1}))
    return minors

Fit = namedtuple("Fit", "rank residual")


def oracle_points(determinant, phi):
    """The points phi(t) at the roots of D(t), as mp vectors."""
    roots = sympy.Poly(list(determinant)[::-1], _T).nroots(n=80, maxsteps=200)
    with mp.workprec(300):
        points = []
        for root in roots:
            re, im = root.as_real_imag()
            z = mp.mpc(mp.mpf(str(re)), mp.mpf(str(im)))
            points.append(tuple(mp.polyval(list(f)[::-1], z) for f in phi))
    return points


def oracle_fit(determinant, phi, cubic):
    """Least-squares weights of the cubes of the oracle's points against
    the cubic, by the normal equations.  Returns the number of points and
    the largest coefficient error relative to the cubic's largest
    coefficient (at least 1), or None when that exceeds 1e-10."""
    points = oracle_points(determinant, phi)
    basis = monomial_basis(cubic.nvars, 3)
    with mp.workprec(300):
        cubes = mp.matrix([[factorial(3) // prod(map(factorial, exp))
                            * mp.fprod(c ** e for c, e in zip(p, exp)) for exp in basis]
                           for p in points]).T
        target = mp.matrix([mp.mpf(c.numerator) / c.denominator
                            for c in cubic.coefficient_vector(basis)])
        weights = mp.lu_solve(cubes.H * cubes, cubes.H * target)
        fitted = cubes * weights
        scale = max(mp.mpf(1), max(abs(x) for x in target))
        residual = max(abs(fitted[i] - target[i]) for i in range(len(basis))) / scale
    return Fit(len(points), residual) if residual < mp.mpf(10) ** -10 else None


def small_rationals(rng):
    """Endless stream of distinct small-height rationals, shuffled per band:
    band h holds the new p/q with q <= 6 and |p/q| <= h, rebuilt here on
    every call against the set of values already seen."""
    seen = set()
    height = 1
    while True:
        band = []
        for q in range(1, 7):
            for p in range(-height * q, height * q + 1):
                f = Fraction(p, q)
                if f not in seen:
                    seen.add(f)
                    band.append(f)
        rng.shuffle(band)
        yield from band
        height += 1


def fiber_form(section, base):
    """Restriction of a `BihomSection` to the fiber over an exact base
    point (s0, t0), as a rational `Polynomial` in the fiber variables."""
    return Polynomial(section.scroll.k, section.cls.h,
                      {exp: form.evaluate(base) for exp, form in section.coeffs.items()})


def conic_components(conic):
    """Split a fiber conic as a*y2^2 + b(y0,y1)*y2 + c(y0,y1)."""
    a = conic.coefficient((0, 0, 2))
    b = Polynomial(2, 1, {(1, 0): conic.coefficient((1, 0, 1)),
                          (0, 1): conic.coefficient((0, 1, 1))})
    c = Polynomial(2, 2, {(2, 0): conic.coefficient((2, 0, 0)),
                          (1, 1): conic.coefficient((1, 1, 0)),
                          (0, 2): conic.coefficient((0, 2, 0))})
    return a, b, c


def conic_pencil(q1, q2):
    """(s1, s2, resultant) of two fiber conics, as binary `Polynomial`s:
    s1 = a1 c2 - a2 c1, s2 = a1 b2 - a2 b1 and s1^2 - s2 s3 with
    s3 = b1 c2 - b2 c1."""
    a1, b1, c1 = conic_components(q1)
    a2, b2, c2 = conic_components(q2)
    s1 = c2 * a1 - c1 * a2
    s2 = b2 * a1 - b1 * a2
    s3 = b1 * c2 - b2 * c1
    return s1, s2, s1 * s1 - s2 * s3


def binary_roots(form):
    """Rational roots (s : t) of a binary `Polynomial`, each listed once."""
    affine, roots = affine_chart(form.coefficient_vector())
    roots = [(Fraction(u), Fraction(v)) for u, v in roots]
    if len(affine) > 1:
        roots.extend((Fraction(1), root) for root in rational_roots(affine))
    return roots


def _fraction_sqrt(value):
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def quadratic_fiber_points(q1, q2):
    """Rational common points of two fiber conics in (y0 : y1 : y2), by the
    quadratic formula: over each rational root (u : v) of their resultant,
    every rational root y2 of either conic on the line y0 : y1 = u : v
    (an exact square root, or the one root of a conic linear there) is a
    candidate, kept when both conics vanish at (u : v : y2)."""
    res = conic_pencil(q1, q2)[2]
    if res.is_zero():
        return []
    points = []
    for u, v in binary_roots(res):
        ui, vi = _row_to_int((u, v))
        candidates = set()
        for conic in (q1, q2):
            alpha, b, c = conic_components(conic)
            beta, gamma = b.evaluate((ui, vi)), c.evaluate((ui, vi))
            if alpha != 0:
                root = _fraction_sqrt(beta * beta - 4 * alpha * gamma)
                if root is not None:
                    candidates.update({(-beta + root) / (2 * alpha),
                                       (-beta - root) / (2 * alpha)})
            elif beta != 0:
                candidates.add(-gamma / beta)
        for y2 in candidates:
            fiber = (Fraction(ui), Fraction(vi), y2)
            if q1.evaluate(fiber) == 0 and q2.evaluate(fiber) == 0:
                points.append(fiber)
    return points


def recon_piece(recon, degree):
    """The degree-2 or degree-3 piece of an `IdealReconstruction` as a
    `GradedIdealPiece` of `Polynomial`s."""
    basis = monomial_basis(recon.genus, degree)
    rows = recon.degree2 if degree == 2 else recon.degree3
    return GradedIdealPiece(degree, recon.genus, tuple(
        Polynomial(recon.genus, degree, {basis[j]: c for j, c in row.items()})
        for row in rows))


def from_spanning(degree, nvars, polys):
    """The piece spanned by possibly dependent polynomials, in reduced
    echelon form: one canonical basis per span."""
    if not polys:
        return GradedIdealPiece(degree, nvars, ())
    reduced, pivots = coefficient_matrix(polys, monomial_basis(nvars, degree)).rref()
    return piece_from_vectors(degree, nvars,
                                         [reduced.row(i) for i in range(len(pivots))])


Quotient = namedtuple("Quotient", "hilbert kept_indices cubic frame quotient_piece2")


def quotient_frame(eta1, eta2, g):
    """(kept, frame, frame inverse): the frame rows are the kept unit
    vectors, then the two hyperplane rows; a coordinate is dropped when
    it is a pivot of the hyperplane rows read from the right."""
    if eta1.nvars != g or eta2.nvars != g or eta1.degree != 1 or eta2.degree != 1:
        raise ValueError("hyperplanes must be linear forms in g variables")
    basis1 = monomial_basis(g, 1)
    c1 = eta1.coefficient_vector(basis1)
    c2 = eta2.coefficient_vector(basis1)
    _, pivots = ExactMatrix([c1[::-1], c2[::-1]]).rref()
    if len(pivots) < 2:
        raise AlphaCertificateError((1,), "the two hyperplanes are dependent")
    dropped = {g - 1 - p for p in pivots}
    kept = tuple(i for i in range(g) if i not in dropped)
    frame = ExactMatrix([[Fraction(int(j == i)) for j in range(g)] for i in kept]
                        + [c1, c2])
    return kept, frame, frame.inverse()


def alpha_map(recon, eta1, eta2):
    """The quotient in `Fraction` polynomials: restrict the quadrics by
    the frame inverse cut to the kept coordinates, invert them in degree
    3, lift the solutions back by the transpose, pair the lifts with the
    scaled degree-3 piece, and sum the kernel combination with its lift
    scales.  Raises `AlphaCertificateError` like `pipeline.alpha_map`."""
    g = recon.genus
    kept, frame, substitution = quotient_frame(eta1, eta2, g)
    n = g - 2
    restriction = ExactMatrix([row[:n] for row in substitution.rows()])
    quadrics = [p for p in substitute(recon_piece(recon, 2).basis, restriction)
                if not p.is_zero()]
    piece2 = from_spanning(2, n, quadrics)
    solutions = inverse_system([GradedIdealPiece(2, n, tuple(quadrics))], 3)
    lift_scales, weighted = [], []
    for lift in substitute(solutions, restriction.transpose()):
        scale, terms = lift.integer_terms()
        lift_scales.append(scale)
        weighted.append({exp: c * prod(map(factorial, exp)) for exp, c in terms.items()})
    conditions = []
    for element in recon_piece(recon, 3).basis:
        terms = element.integer_terms()[1].items()
        conditions.append([sum(c * lift[exp] for exp, c in terms if exp in lift)
                           for lift in weighted])
    combos = int_kernel(conditions, len(weighted))
    h2 = comb(n + 1, 2) - piece2.dim
    hilbert = (1, n, h2, len(combos))
    if h2 != n or len(combos) != 1:
        raise AlphaCertificateError(
            hilbert, "quotient algebra does not have the expected Hilbert vector")
    scaled = [form.integer_terms() for form in solutions]
    weights = _row_to_int([c * lift_scale / scale for c, lift_scale, (scale, _)
                           in zip(combos[0], lift_scales, scaled)])
    terms = {}
    for w, (_, form_terms) in zip(weights, scaled):
        if w:
            for exp, x in form_terms.items():
                terms[exp] = terms.get(exp, 0) + w * x
    cubic = Polynomial(n, 3, terms).normalized()
    return Quotient(hilbert, kept, cubic, frame, piece2)


def integer_multiple(rows):
    """The rational matrix times the lcm of its entries' denominators."""
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def pencil(quadrics, r):
    """`waring.simultaneous_diagonalize` on `Polynomial` quadrics: the
    first invertible member B of the pencil is found by one rref of
    [B | A | C ...] per candidate, M is B^-1 A scaled by
    `integer_multiple`, and phi = B adj(t - M) r."""
    if len(quadrics) < 2 or {(q.nvars, q.degree) for q in quadrics} != {(quadrics[0].nvars, 2)}:
        raise ValueError("need at least two quadrics in one variable set")
    n = quadrics[0].nvars
    a, b, *others = (catalecticant(q, 1).rows() for q in quadrics)
    members = ([[x + j * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
               for j in range(1, 6))
    for base, other in chain([(b, a), (a, b)], ((m, a) for m in members)):
        reduced, pivots = ExactMatrix([list(chain(*rows)) for rows
                                       in zip(base, other, *others)]).rref()
        if pivots[:n] == tuple(range(n)):
            break
    else:
        raise PencilError("singular", "no invertible member of the pencil found")
    blocks = [integer_multiple([row[k * n:(k + 1) * n] for row in reduced.rows()])
              for k in range(1, 2 + len(others))]
    m = blocks[0]
    for block in blocks[1:]:
        if _matmul(m, block) != _matmul(block, m):
            raise PencilError("non-commuting", "the pencil matrices do not commute")
    chi = [0] * n + [1]
    adjugate = []
    product = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = [[x + chi[n - k + 1] * (i == j) for j, x in enumerate(row)]
              for i, row in enumerate(product)]
        adjugate.append(mk)
        product = _matmul(m, mk)
        chi[n - k] = -sum(product[i][i] for i in range(n)) // k
    if not is_squarefree(chi):
        raise PencilError("non-simple", "the characteristic polynomial has a repeated root")
    columns = [[sum(x * y for x, y in zip(row, r)) for row in mk]
               for mk in reversed(adjugate)]
    phi = _matmul(integer_multiple(base), list(zip(*columns)))
    if len(reduce(poly_gcd, phi, chi)) != 1:
        raise PencilError("non-simple", "the point vanishes at a root")
    content = gcd(*chain(*phi))
    return chi, [[x // content for x in f] for f in phi]


def fermat_detect_detail(form, seed=0):
    """`waring.fermat_detect_detail` through `pencil`, with the quadrics
    of `contract` and the exact rank of the degree-1 catalecticant."""
    n = form.nvars
    if len(catalecticant(form, 1).rref()[1]) < n:
        return None, "rank-deficient"
    rng = make_rng(seed)
    kind = "singular"
    for _ in range(5):
        quadrics = [contract(random_dual_linear(n, rng), form) for _ in range(3)]
        r = [rng.randint(-9, 9) for _ in range(n)]
        try:
            chi, phi = pencil(quadrics, r)
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


def hilbert_vector(form):
    """The apolar profile from the exact rank (one rref) of every catalecticant."""
    d = form.degree
    return ApolarAlgebraProfile(d, tuple(len(catalecticant(form, k).rref()[1])
                                         for k in range(d + 1)))


def annihilator_piece(form, k):
    """The degree-k annihilator piece off `ExactMatrix.kernel`, the monomial
    basis in degree d + 1."""
    n, d = form.nvars, form.degree
    if k == d + 1:
        return piece_from_vectors(
            k, n, ExactMatrix.identity(comb(n + k - 1, k)).rows())
    return piece_from_vectors(k, n, catalecticant(form, k).kernel().rows())


def echelon_certificate(determinant, phi, cubic):
    """`waring._certify_scheme` by one echelon of the L x C(n + 2, 3)
    matrix whose column x^e holds sigma_e (x^e(phi) mod D), against which
    the target (sigma_e e! F_e) is reduced; returns L = deg D, or raises
    the same CertificateError."""
    length = len(determinant) - 1
    if length < 1 or not is_squarefree(determinant):
        raise CertificateError(
            f"(a) the scheme equation is not squarefree of degree {length}")
    n = len(phi)

    def residue(f, sigma):
        m, r = _pseudo_remainder(f, determinant)
        r += [0] * (length - len(r))
        content = gcd(*r) or 1
        return [x // content for x in r], sigma * Fraction(m, content)

    linear = [residue(f, Fraction(1)) for f in phi]
    quadratic = {}
    for i in range(n):
        for j in range(i, n):
            (ri, si), (rj, sj) = linear[i], linear[j]
            quadratic[i, j] = residue(_mul(ri, rj), si * sj)
    terms = cubic.integer_terms()[1]
    columns, target = [], []
    for exp in monomial_basis(n, 3):
        i, j, k = (v for v, e in enumerate(exp) for _ in range(e))
        (ri, si), (rq, sq) = linear[i], quadratic[j, k]
        column, sigma = residue(_mul(ri, rq), si * sq)
        columns.append(column)
        target.append(sigma * terms.get(exp, 0) * prod(map(factorial, exp)))
    ech, pivots = _int_echelon([list(row) for row in zip(*columns)], len(columns))
    if any(_int_reduce(ech, pivots, _row_to_int(target))):
        raise CertificateError("(c) the cubic is not in the span of the scheme's cubes")
    return length
