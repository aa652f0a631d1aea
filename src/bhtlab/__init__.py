"""Numerical laboratory for the bilinear Hilbert transform along curved
translations: curve-class diagnostics, stationary-phase profiles, chirped
filter-bank decompositions with dual-route trilinear forms, square-function
and decomposition toolkit, and empirical operator-norm scans."""

__version__ = "0.1.0"

from .bumps import bump_phi, smooth_step
from .curves import (BUILTIN_TEST_DESCRIPTORS, Curve, ProfileSlice, asymptotic_profile,
                     builtin_curve, growth_dichotomy, inverse_deriv, nonflatness_report,
                     profile_error_sequence, r_profile, variation_count)
from .decomposition import (BandSupport, ChirpKernelResult, FilterBank, OverlapReport,
                            TrilinearMachine, TrilinearRecord, active_scales, apply_Tjm,
                            chirp_kernel, grid_for_bands, lambda_jm_spatial,
                            lambda_jm_spectral, lambda_m_plus, overlap_count,
                            overlap_report, scale_factor, structurally_zero)
from .normscan import (HolderTriple, PVParams, ScanResult, bht_direct, bht_direct_report,
                       envelope_check, fit_decay_at_L2point, hilbert_multiplier, live_scale,
                       matched_triple, resonant_triple, scan_edge, scan_machine, scan_point,
                       triangle_membership, trilinear_direct)
from .phase import (CurveProfiles, adaptive_simpson, chirp_phase_eval,
                    chirp_phase_quadrature, critical_point, kernel_phase_eval,
                    kernel_phase_quadrature, modulation_constant, phase_residual,
                    phase_value, profiles_for, sample_admissible_queries,
                    sample_scaling_queries, scaling_residual)
from .signal import (EnsembleShape, SampledFunction, Spectrum, forward_transform,
                     frequency_grid, from_binary, from_csv, inverse_transform, lp_norm,
                     make_ensemble, multiply_spectrum, symmetric_grid, to_binary, to_csv)
from .squarefuncs import (CheckReport, CZDecomposition, ShiftedSquareData,
                          block_square_ratio, cancellation_bound_check, cz_decompose,
                          dual_pointwise_check, dyadic_max, energy_check_grid,
                          hardy_littlewood_max, interaction_decay_fit, interaction_kernel,
                          norm_growth_in_shift, rademacher_fourth_moment,
                          randomized_operator, shifted_square_function,
                          windowed_energy_check)
