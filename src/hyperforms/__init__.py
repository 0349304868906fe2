"""Exact constructions from the invariant theory of binary forms:
polarisation tensors, hyperdeterminants of small formats, hyperresultants,
skew tensor decompositions and Gramm forms, with a verification CLI."""

from .classical import apolar_quartic, hankel_matrix, hankel_quartic, sylvester_resultant, wronskian3
from .errors import DomainError, HyperformsError, ParseError, UnsupportedFormatError
from .gramm import (
    GrammValue,
    OrbitTable,
    gramm_form,
    gramm_tensor,
    orbit_ord,
    project_k,
    projector_trace,
    skew_gramm,
)
from .hyperdet import (
    binary_form_disc,
    cayley_hyperdet_222,
    det_square,
    hyperdet,
    hyperdet_degree,
    ternary_quadratic_disc,
)
from .parser import parse_poly
from .poly import MultiPoly
from .polarisation import hyperhessian, hyperresultant, jacobi_form, jacobi_sequence, polarize
from .scalars import Cyclotomic, zeta
from .tensor import Tensor, multi_indices

__all__ = [
    "Cyclotomic",
    "DomainError",
    "GrammValue",
    "HyperformsError",
    "MultiPoly",
    "OrbitTable",
    "ParseError",
    "Tensor",
    "UnsupportedFormatError",
    "apolar_quartic",
    "binary_form_disc",
    "cayley_hyperdet_222",
    "det_square",
    "gramm_form",
    "gramm_tensor",
    "hankel_matrix",
    "hankel_quartic",
    "hyperdet",
    "hyperdet_degree",
    "hyperhessian",
    "hyperresultant",
    "jacobi_form",
    "jacobi_sequence",
    "multi_indices",
    "orbit_ord",
    "parse_poly",
    "polarize",
    "project_k",
    "projector_trace",
    "skew_gramm",
    "sylvester_resultant",
    "ternary_quadratic_disc",
    "wronskian3",
    "zeta",
]

__version__ = "0.1.0"
