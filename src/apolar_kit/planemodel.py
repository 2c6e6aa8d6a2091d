"""Plane models, blow-ups of the plane, and surface-degree numerology.

Everything in this module is exact integer arithmetic.  A plane model is
a curve of degree d with ordinary singular points of multiplicities m_i;
blowing those points up gives a rational surface whose intersection form
is H^2 = 1, H.E_i = 0, E_i.E_j = -delta_ij with canonical class
K = -3H + sum E_i.  The numerology routines reproduce, for a tetragonal
canonical curve mapped to the plane, the forced multiplicity patterns and
the degree of the rational surface spanned between the curve and its
ambient threefold scroll, case by case in g mod 3.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb

from .core import Record

__all__ = [
    "PlaneModel",
    "BlowupClass",
    "GenusError",
    "clebsch_genus",
    "blowup_intersect",
    "canonical_blowup_class",
    "blowup_genus",
    "adjunction_check",
    "AdjunctionReport",
    "NumerologyBranch",
    "NumerologyReport",
    "tetragonal_numerology",
    "GonalityReport",
    "higher_gonality_degree",
    "NakaiReport",
    "nakai_certificate",
]


class GenusError(ValueError):
    pass


class PlaneModel(Record):
    degree: int
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("plane curve degree must be >= 1")
        if any(m < 2 for m in self.multiplicities):
            raise ValueError("singular point multiplicities must be >= 2")


def clebsch_genus(model: PlaneModel) -> int:
    """Geometric genus of a plane curve with ordinary multiple points."""
    g = comb(model.degree - 1, 2) - sum(m * (m - 1) // 2 for m in model.multiplicities)
    if g < 0:
        raise GenusError(
            f"negative genus {g}: degree {model.degree} cannot carry "
            f"multiplicities {model.multiplicities}")
    return g


class BlowupClass(Record):
    """Class aH + sum_i b_i E_i on a blow-up of the plane."""

    a: int
    b: tuple[int, ...]


def blowup_intersect(c1: BlowupClass, c2: BlowupClass) -> int:
    if len(c1.b) != len(c2.b):
        raise ValueError("classes track different numbers of exceptional curves")
    return c1.a * c2.a - sum(x * y for x, y in zip(c1.b, c2.b))


def canonical_blowup_class(r: int) -> BlowupClass:
    return BlowupClass(-3, (1,) * r)


def blowup_genus(cls: BlowupClass) -> int:
    """Arithmetic genus by adjunction on the blown-up plane."""
    k = canonical_blowup_class(len(cls.b))
    two_g_minus_2 = blowup_intersect(cls, BlowupClass(cls.a + k.a,
                                                      tuple(x + y for x, y in zip(cls.b, k.b))))
    if two_g_minus_2 % 2:
        raise GenusError(f"class {cls} has odd self-plus-canonical pairing")
    return two_g_minus_2 // 2 + 1


class AdjunctionReport(Record):
    pairing: int            # curve class . adjoint class
    expected: int           # 2g - 2 for the model's Clebsch genus
    multiplicity_sum: int   # sum m_i (m_i - 1) carried by the model
    forced_sum: int         # the value adjunction forces for that sum

    @property
    def consistent(self) -> bool:
        return self.pairing == self.expected and self.multiplicity_sum == self.forced_sum


def adjunction_check(model: PlaneModel,
                     curve_class: BlowupClass | None = None,
                     adjoint_class: BlowupClass | None = None) -> AdjunctionReport:
    """Pair the curve class against the adjoint class on the blow-up.

    By default the curve is dH - sum m_i E_i and the adjoint is the class
    restricting to the canonical series, (d-3)H + sum (1 - m_i) E_i; the
    caller may supply either class explicitly.  The report compares the
    computed pairing with 2g - 2 and isolates the multiplicity constraint.
    """
    m = model.multiplicities
    if curve_class is None:
        curve_class = BlowupClass(model.degree, tuple(-mi for mi in m))
    if adjoint_class is None:
        adjoint_class = BlowupClass(model.degree - 3, tuple(1 - mi for mi in m))
    pairing = blowup_intersect(curve_class, adjoint_class)
    genus = clebsch_genus(model)
    expected = 2 * genus - 2
    multiplicity_sum = sum(mi * (mi - 1) for mi in m)
    forced = curve_class.a * adjoint_class.a - expected
    return AdjunctionReport(pairing, expected, multiplicity_sum, forced)


# ----------------------------------------------------------------------
# tetragonal numerology by genus residue
# ----------------------------------------------------------------------

class NumerologyBranch(Record):
    r: int                          # number of singular points
    multiplicities: tuple[int, ...]
    sum_m_m1: int                   # sum m_i (m_i - 1)
    sum_m_minus_1: int              # sum (m_i - 1)
    deg_surface: int                # adjoint-class self-intersection


class NumerologyReport(Record):
    genus: int
    k: int
    residue: int                    # g mod 3
    plane_degree: int
    pencil_constraint: int          # forced sum of base-point orders of the conic pencil
    adjoint_h: int                  # H-coefficient of the adjoint class
    branches: tuple[NumerologyBranch, ...]
    bound: int                      # surface-degree bound for this residue class

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return self.branches[0].multiplicities

    @property
    def deg_surface(self) -> int:
        return self.branches[0].deg_surface


def _branch(adjoint_h: int, mults: Sequence[int]) -> NumerologyBranch:
    mults = tuple(sorted(mults, reverse=True))
    s1 = sum(m * (m - 1) for m in mults)
    s2 = sum(m - 1 for m in mults)
    deg = adjoint_h * adjoint_h - sum((m - 1) ** 2 for m in mults)
    return NumerologyBranch(len(mults), mults, s1, s2, deg)


def tetragonal_numerology(g: int) -> NumerologyReport:
    """Forced plane-model data for a tetragonal canonical curve of genus g.

    The curve maps to a plane curve cut by a pencil of conics through the
    four base points of its degree-four pencil; comparing the adjunction
    constraint sum m_i(m_i - 1) with the pencil degree count pins the
    multiplicities down.  For g = 3k the solution is unique; for
    g = 3k - 1 two integer patterns remain admissible and both are
    reported; for g = 3k + 1 the solution is again unique.
    """
    if g < 6:
        raise ValueError("tetragonal numerology needs genus >= 6")
    residue = g % 3
    if residue == 0:
        k = g // 3
        plane_degree = 2 * k + 2
        adjoint_h = 2 * k - 1
        pencil = 4 * k
        branches = (_branch(adjoint_h, [k, k, k, k]),)
        bound = 4 * k - 3           # = 4g/3 - 3
    elif residue == 2:
        k = (g + 1) // 3
        plane_degree = 2 * k + 2
        adjoint_h = 2 * k - 1
        pencil = 4 * k
        branches = (_branch(adjoint_h, [k, k, k, k, 2]),
                    _branch(adjoint_h, [k + 1, k, k, k - 1]))
        bound = 4 * k - 3           # = (4g - 5)/3
    else:
        k = (g - 1) // 3
        plane_degree = 2 * k + 3
        adjoint_h = 2 * k
        pencil = 4 * k + 2
        branches = (_branch(adjoint_h, [k + 1, k + 1, k, k]),)
        bound = 4 * k - 2           # = (4g - 10)/3
    for br in branches:
        model = PlaneModel(plane_degree, br.multiplicities)
        if clebsch_genus(model) != g:
            raise GenusError(f"internal numerology inconsistency at g={g}")
    return NumerologyReport(g, k, residue, plane_degree, pencil, adjoint_h,
                            branches, bound)


class GonalityReport(Record):
    n: int
    k: int
    excess: int
    genus: int
    plane_degree: int
    intermediate_degree: int       # curve degree after the fiber projections
    base_point_sum: int            # forced sum of pencil base-point orders
    deg_surface: int
    reference_bound: int           # 2g - 3
    exceeds_reference: bool


def higher_gonality_degree(n: int, k: int, excess: int = 0) -> GonalityReport:
    """Surface degree produced by the plane-model method for an n-gonal curve.

    Valid for genus g = (n-1)k; the pencil cutting the degree-n series is
    made of plane curves of degree n - 2 with (n-2)^2 base points, and
    `excess` is the total multiplicity contribution of singular points
    beyond those base points.
    """
    if n < 4:
        raise ValueError("gonality must be >= 4")
    if k < 2:
        raise ValueError("k must be >= 2")
    if excess < 0:
        raise ValueError("excess must be >= 0")
    g = (n - 1) * k
    intermediate = (k + 1) * (n - 2)
    plane_degree = k * (n - 2) + 2
    base_sum = (n - 2) ** 2 * k + n - 4
    deg_surface = (k * n * n - 5 * k * n + 8 * k - n * n + 5 * n - 7) + excess
    reference = 2 * g - 3
    return GonalityReport(n, k, excess, g, plane_degree, intermediate,
                          base_sum, deg_surface, reference,
                          deg_surface > reference)


# ----------------------------------------------------------------------
# ampleness / irreducibility certificates on the 4-point blow-up
# ----------------------------------------------------------------------

def _min_square_sum(total: int, parts: int) -> int:
    """Minimal sum of squares of `parts` nonnegative integers adding to total."""
    q, r = divmod(total, parts)
    return (parts - r) * q * q + r * (q + 1) * (q + 1)


class NakaiChain(Record):
    """Enumerated ampleness check for one class L = pH - q sum E_i."""

    p: int
    q: int
    self_intersection: int
    a_max: int
    violations: tuple[tuple[int, int], ...]   # (a, sum b_i) pairs, expected empty

    @property
    def holds(self) -> bool:
        return self.self_intersection > 0 and not self.violations

    @property
    def tail_applies(self) -> bool:
        """p > 2q, so L . D <= 0 forces sum b_i >= p a / q > 2a: the
        hypothesis of the tail argument beyond the enumeration bound."""
        return self.p > 2 * self.q


class NakaiReport(Record):
    k: int
    ample: NakaiChain              # L = (2k-1)H - (k-1) sum E_i
    curve: NakaiChain              # C = (2k+2)H - k sum E_i
    tail_linear_bound: str         # closed form valid beyond a_max
    tail_holds: bool

    @property
    def holds(self) -> bool:
        return self.ample.holds and self.curve.holds and self.tail_holds


def _enumerate_chain(p: int, q: int, a_max: int) -> NakaiChain:
    """Search for irreducible classes aH - sum b_i E_i with L . D <= 0.

    L . D <= 0 forces sum b_i >= p a / q; among b with a fixed sum the
    genus constraint C(a-1, 2) - sum b_i (b_i + 1) / 2 >= 0 is hardest for
    the balanced distribution, and it only tightens as the sum grows, so
    checking the balanced minimum at the smallest admissible sum decides
    each a.
    """
    violations = []
    for a in range(1, a_max + 1):
        b_sum = -((-p * a) // q)        # ceil(p a / q)
        min_bb1 = _min_square_sum(b_sum, 4) + b_sum
        if (a - 1) * (a - 2) >= min_bb1:
            violations.append((a, b_sum))
    self_int = p * p - 4 * q * q
    return NakaiChain(p, q, self_int, a_max, tuple(violations))


def nakai_certificate(k: int, a_max: int = 50) -> NakaiReport:
    """Positivity certificates for the surfaces of the g = 3k construction.

    Checks the self-intersections (2k-1)^2 - 4(k-1)^2 = 4k - 3 and
    (2k+2)^2 - 4k^2 = 8k + 4, then verifies by bounded enumeration that no
    irreducible class meets the adjoint system nonpositively.  For a
    beyond the enumeration bound the chain
    sum b_i > 2a  =>  sum b_i^2 > a^2  =>  genus constraint < 1 - 5a/2 < 0
    closes the argument; its first step needs p > 2q for both classes.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if a_max < 1:
        raise ValueError(f"a_max must be >= 1, got {a_max}")
    ample = _enumerate_chain(2 * k - 1, k - 1, a_max)
    curve = _enumerate_chain(2 * k + 2, k, a_max)
    # tail: with sum b_i > 2a the genus constraint is below
    # (a^2-3a+2)/2 - (a^2+2a)/2 = 1 - 5a/2 < 0 for every a >= 1
    tail_holds =ample.tail_applies and curve.tail_applies
    return NakaiReport(k, ample, curve, "1 - (5/2) a < 0 for a >= 1", tail_holds)
