"""Spectral domains of additively and multiplicatively perturbed operators,
with finite-matrix cross-checks."""

from .errors import (BadGamma, BlowUp, BrownscopeError, ContinuationFailed,
                     EvaluationOnSupport, InversionFailed, LifetimeExceeded,
                     MapEvaluationError, NegativeEpsilon, OriginExcluded,
                     OutsideOmega, TMaxExceeded, WrongSupportKind)
from .measures import (SpectralMeasure, cauchy_derivative, cauchy_transform,
                       herglotz, log_potential, neg2_moments, neg2_trace,
                       neg4_trace, reg_cauchy_transform, reg_resolvent,
                       reg_resolvent_deps, symmetrize)
from .region import (Boundary, Chain, Grid, distance_to_boundary, emit,
                     evaluate_grid, extract_levelset, map_boundary, parse_pgm,
                     point_in_region)
from .additive import (MEMBERSHIP_TOL, HamiltonState, Membership, Verdict,
                       T_additive, analytic_extension_trace, extension_margin,
                       flow_additive, laplacian_identity_check,
                       phi_derivative, phi_formula, preimage, spectral_test)
from .multiplicative import (HamiltonStateMult, T_mult_positive,
                             T_mult_unitary, blow_up_time,
                             curvature_check_circle, f_gamma_formula,
                             flow_dSde, hamilton_flow_mult, psi_derivative,
                             psi_formula, sigma_boundary_positive)
from .rdiagonal import (AnnulusSpec, biane_Ht, circ_inner_radius, hl_radii,
                        perturbed_symmetrized_law, stieltjes_invert, vt)
from .rmt import (eigenvalues, empirical_S, empirical_dSde,
                  multiplicities, sample_atomic, sample_b, sample_elliptic,
                  sample_ginibre, sample_haar_unitary,
                  shifted_singular_values, support_report)

__version__ = "0.1.0"

__all__ = [
    "AnnulusSpec", "BadGamma", "BlowUp", "Boundary", "BrownscopeError",
    "Chain", "ContinuationFailed", "EvaluationOnSupport",
    "Grid", "HamiltonState", "HamiltonStateMult", "InversionFailed",
    "LifetimeExceeded", "MEMBERSHIP_TOL", "MapEvaluationError", "Membership",
    "NegativeEpsilon", "OriginExcluded", "OutsideOmega", "SpectralMeasure",
    "TMaxExceeded", "T_additive", "T_mult_positive", "T_mult_unitary",
    "Verdict", "WrongSupportKind", "analytic_extension_trace", "biane_Ht",
    "blow_up_time", "cauchy_derivative", "cauchy_transform",
    "circ_inner_radius", "curvature_check_circle", "distance_to_boundary",
    "eigenvalues", "emit", "empirical_S", "empirical_dSde", "evaluate_grid",
    "extension_margin", "extract_levelset", "f_gamma_formula",
    "flow_additive", "flow_dSde", "hamilton_flow_mult", "herglotz", "hl_radii",
    "laplacian_identity_check", "log_potential",
    "map_boundary", "multiplicities", "neg2_moments", "neg2_trace",
    "neg4_trace", "parse_pgm", "perturbed_symmetrized_law",
    "phi_derivative", "phi_formula",
    "point_in_region", "preimage", "psi_derivative", "psi_formula",
    "reg_cauchy_transform", "reg_resolvent",
    "reg_resolvent_deps", "sample_atomic", "sample_b", "sample_elliptic",
    "sample_ginibre", "sample_haar_unitary", "shifted_singular_values",
    "sigma_boundary_positive", "spectral_test",
    "stieltjes_invert", "support_report", "symmetrize", "vt",
]
