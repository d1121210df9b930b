"""Spectral density calculus, zeta-regularized torsion, and model-space
heat-trace verification tools."""

__version__ = "0.1.0"

from .traced import TracedMap, TracedSpace
from .sdf import SpectralDensityFunction, ns_exponent_fit, sdf_of_map
from .complexes import (FiniteCochainComplex, ShortExactTriple, complex_sdf,
                        connecting_map, laplacian_sdf_decomposition)
from .checks import (check_basic_F, check_block_matrix_F, check_gromov_shubin,
                     check_short_exact, run_suite)
from .spectrum import Spectrum
from .heattrace import (HeatTraceModel, analytic_torsion,
                        cheeger_mueller_correction, d_small,
                        large_time_dominating_bound, large_time_integral,
                        zeta_det)
from .hyperbolic import (CuspEnd, PlancherelTable, cusp_volume, load_plancherel_table,
                         torsion_constant, truncated_volume)
from .kernels1d import (Domain1D, boundary_insensitivity_check, kernel_1d,
                        sup_bound_check)
from .anomaly import (ConformalFamily, anomaly_coefficients,
                      hodge_star_conformal, mean_curvature, product_lift,
                      v_operator)
from .jsj import (JsjManifest, JsjPiece, is_graph_manifold, load_manifest,
                  torsion_3manifold)

__all__ = [
    "TracedMap", "TracedSpace",
    "SpectralDensityFunction", "sdf_of_map", "ns_exponent_fit",
    "FiniteCochainComplex", "ShortExactTriple", "complex_sdf",
    "connecting_map", "laplacian_sdf_decomposition",
    "check_basic_F", "check_block_matrix_F", "check_gromov_shubin",
    "check_short_exact", "run_suite",
    "Spectrum",
    "HeatTraceModel", "analytic_torsion",
    "cheeger_mueller_correction", "d_small", "large_time_dominating_bound",
    "large_time_integral", "zeta_det",
    "CuspEnd", "PlancherelTable", "cusp_volume", "load_plancherel_table",
    "torsion_constant", "truncated_volume",
    "Domain1D", "boundary_insensitivity_check", "kernel_1d", "sup_bound_check",
    "ConformalFamily", "anomaly_coefficients", "hodge_star_conformal",
    "mean_curvature", "product_lift", "v_operator",
    "JsjManifest", "JsjPiece", "is_graph_manifold", "load_manifest",
    "torsion_3manifold",
]
