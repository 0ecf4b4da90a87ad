"""Exact computational commutative algebra for order functions on
singularities: adic and asymptotic orders, Newton polyhedra, kernels of
the graded evaluation map, Samuel slopes, and the order of Rees algebras
through differential saturation and cleaning translations.

Everything is exact rational or prime-field arithmetic; nothing floats.
"""

from .arith import INF, ExtendedRational, SlopelabError
from .poly import Polynomial, Ring, VariableSplit
from .groebner import GroebnerBasis, IdealPresentation, buchberger, \
    radical_member
from .newton import NewtonPolyhedron, build_polyhedron, closure_member, \
    nubar_monomial
from .samuel import (LocalRingPresentation, ValuationCertificate,
                     kernel_lambda, nu, nubar, samuel_slope)
from .elimpres import (PointSpec, PPresentation, ReesAlgebra,
                       build_p_presentation, clean, cross_check_theorems,
                       diff_saturate_once, hord_report, slope,
                       tschirnhausen_ord)

__version__ = "0.1.0"

__all__ = [
    "INF", "ExtendedRational", "SlopelabError",
    "Polynomial", "Ring", "VariableSplit",
    "GroebnerBasis", "IdealPresentation", "buchberger", "radical_member",
    "NewtonPolyhedron", "build_polyhedron", "closure_member",
    "nubar_monomial",
    "LocalRingPresentation", "ValuationCertificate", "kernel_lambda", "nu",
    "nubar", "samuel_slope",
    "PointSpec", "PPresentation", "ReesAlgebra", "build_p_presentation",
    "clean", "cross_check_theorems", "diff_saturate_once", "hord_report",
    "slope", "tschirnhausen_ord",
    "__version__",
]
