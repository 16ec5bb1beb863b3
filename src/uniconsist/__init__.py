"""Numerical laboratory for nonparametric signal-detection tests.

Four test families (scaled quadratic, kernel-smoothed, chi-square,
omega-square) with exact population functionals, Gaussian power
predictions, alternative-sequence factories, a paired Monte Carlo engine,
and canned experiment suites.
"""

from .alternatives import (AlternativeSequence, Classification,
                           ClassifyThresholds, classify, combine, cvm_family,
                           chi2_family, decompose, fixed_family, g1_report,
                           kernel_family, make_consistent, make_inconsistent,
                           make_spike_tail, quad_family, sequence_from_json,
                           smoothness_of, spike_tail_schedule)
from .chi2 import (Chi2Config, chi2_population, chi2_predicted_beta,
                   chi2_statistic)
from .cvm import (CvmNullTable, build_cvm_null_table, bridge_weights,
                  cvm_consistency_index, cvm_population, cvm_statistic)
from .errors import (AssumptionError, DensityError, ThresholdError,
                     UniconsistError, ValidationError)
from .funclasses import (BesovBody, CompactnessReport, EllipsoidSet,
                         FiniteBand, PointCloudSet, WidthSequence,
                         besov_argmax, besov_seminorm,
                         compactness_diagnostic, finite_band_membership,
                         greedy_widths, set_from_json, tail_bound_check)
from .kernel import (Kernel, KernelObservations, KernelTestConfig,
                     box_kernel, builtin_kernel, epanechnikov_kernel,
                     half_level_radius, inconsistency_bandwidths,
                     kernel_power_prediction, kernel_statistic_fourier,
                     sample_kernel_observations, t1n)
from .mclab import (MCConfig, MCEstimate, estimate_power, estimate_size,
                    paired_excess, wilson_interval)
from .quad import (FixedKappa, KappaProfile, QuadTestConfig, build_profile,
                   fixed_kappa_statistic, gaussian_upper_quantile,
                   noncentrality, predict_beta)
from .rng import substream
from .signals import (Basis, DensitySpec, NoiseModel, SignalSpec,
                      density_minimum, evaluate, invert_cdf, sample_iid,
                      sample_sequence_model, signal_from_json)
from .suites import SuiteResult, default_config, run_suite, write_result

__version__ = "0.1.0"
