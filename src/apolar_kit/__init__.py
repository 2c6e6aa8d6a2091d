"""apolar-kit: exact apolarity and Waring decompositions at desk scale.

The package computes apolar ideals and inverse systems of homogeneous
forms, builds trigonal and tetragonal canonical curves on rational
normal scrolls, pushes them through the quotient-by-two-hyperplanes
construction to a cubic in g - 2 variables, and certifies power-sum
decompositions of that cubic.
"""

from .core import Polynomial, monomial_basis, primitive_point
from .apolarity import (ApolarAlgebraProfile, GradedIdealPiece, SocleDimensionError,
                        apolar_ideal_piece, hilbert_function, macaulay_inverse)
from .waring import (Decomposition, PencilError, fermat_detect_detail,
                     rank_lower_bound, simultaneous_diagonalize)
from .scroll import (DivisorClass, Scroll, ScrollPoint, canonical_class,
                     chow_product, divisor_degree, embed_point, project_type,
                     section_templates)
from .curvegen import (BihomSection, CurveSpec, IdealReconstruction,
                       balanced_type, genus_adjunction, ideal_pieces,
                       sample_points, tetragonal_curve, trigonal_curve)
from .planemodel import (BlowupClass, PlaneModel, adjunction_check,
                         blowup_intersect, clebsch_genus,
                         higher_gonality_degree, nakai_certificate,
                         tetragonal_numerology)
from .pipeline import (AlphaResult, alpha_for_curve, alpha_map,
                       tetragonal_cube_bound, verify_tetragonal_bound,
                       verify_trigonal_fermat)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
