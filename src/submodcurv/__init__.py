"""Exact curvature invariants of ideal-generated submodules on polydiscs.

The package computes, in exact rational arithmetic, the objects attached to
a weighted analytic module on the unit polydisc and an ideal-generated
submodule: reproducing kernels, frame decompositions along zero varieties,
Grammian metrics, curvature matrices, determinant-bundle curvature,
localization dimensions, and rigidity decision procedures.
"""

from .algebra import (LogSeries, SeriesMatrix, TruncSeries,
                      iter_multiindices, rat, series_inverse, series_log)
from .curvature import (CONVENTION, CurvatureTensor, PrincipalCurvaturePair,
                        curvature_matrix, curvature_tensor,
                        det_bundle_curvature, principal_curvature_pair)
from .errors import (DegeneracyError, DomainError, InputError, ShapeError,
                     SingularityError, SubmodcurvError, TruncationError,
                     UnsupportedIdealError, WorkLimitError)
from .frames import (FrameSeries, MetricSeries, decompose_coordinate_ideal,
                     frame_on_zero_set, grammian, reconstruction_residual)
from .ideals import (CATALOGUE, IdealSpec, LocalizationResult,
                     localization_dim)
from .invariants import (CubicReport, LambdaMuInvariant, RigidityReport,
                         cubic_positive_roots, lambda_mu_invariants,
                         polydisc_rigidity, polydisc_rigidity_report,
                         principal_rigidity)
from .polynomials import Poly, parse_poly
from .rkhs import (DiagonalFilteredKernel, GramFormKernel,
                   RankOneCorrectedKernel, WeightedPolydiscModule,
                   diag_coeff, submodule_kernel)

__version__ = "0.1.0"

__all__ = [
    "CATALOGUE", "CONVENTION", "CubicReport",
    "CurvatureTensor", "DegeneracyError", "DiagonalFilteredKernel",
    "DomainError", "FrameSeries", "GramFormKernel", "IdealSpec",
    "InputError", "LambdaMuInvariant", "LocalizationResult", "LogSeries",
    "MetricSeries", "Poly", "PrincipalCurvaturePair",
    "RankOneCorrectedKernel", "RigidityReport", "SeriesMatrix",
    "ShapeError", "SingularityError", "SubmodcurvError", "TruncSeries",
    "TruncationError", "UnsupportedIdealError", "WeightedPolydiscModule",
    "WorkLimitError",
    "cubic_positive_roots", "curvature_matrix", "curvature_tensor",
    "decompose_coordinate_ideal", "det_bundle_curvature", "diag_coeff",
    "frame_on_zero_set", "grammian", "iter_multiindices",
    "lambda_mu_invariants", "localization_dim",
    "parse_poly", "polydisc_rigidity", "polydisc_rigidity_report",
    "principal_curvature_pair", "principal_rigidity", "rat",
    "reconstruction_residual", "series_inverse", "series_log",
    "submodule_kernel",
]
