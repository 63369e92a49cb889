"""Background correction for bead-array gene-expression intensities.

Additive convolution models P = S + B with parametric signal and noise
components, posterior-mean correction E[S | P = p], per-array parameter
estimation, and an independent quadrature referee.
"""

from .dists import (ExpGamma, ExpLognormal, ExpNormal, ExpParams,
                    GammaLognormal, GammaNormal, GammaParams, GBGB, GBNormal,
                    GBParams, LognormalParams, MODEL_KINDS, ModelSpec,
                    NormalParams, gb_from_gamma, gb_from_lognormal, gb_pdf,
                    gb_support_upper, pdf, sample)
from .series import SeriesValue, convergence_ok
from .oracle import QuadConfig, marginal_pdf_quadrature, posterior_mean_quadrature
from .correct import (correct_array, correct_exp_gamma, correct_exp_lognormal,
                      correct_gamma_lognormal, correct_gamma_normal,
                      correct_gb, correct_gb_normal, correct_mbcb, correct_rma)
from .estimate import (EstimationProblem, FitBudget, FitResult, fit_mle,
                       fit_moments, fit_plugin, init_params, loglik, score_gb,
                       score_gb_normal)
from .simulate import (MseReport, REFERENCE_MODELS, SimDataset, benchmark_mse,
                       naive_correction, simulate_experiment)

__version__ = "0.1.0"
