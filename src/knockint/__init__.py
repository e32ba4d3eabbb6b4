"""Knockoff-based detection of pairwise feature interactions in feedforward
networks, with false-discovery-rate control."""

__version__ = "0.1.0"

from .exceptions import (ConfigurationError, ContractViolation,
                         DegenerateFeatureError, GenerationError,
                         KnockintError, TrainingDivergedError, ValidationError)
from .fdr import (SelectionResult, build_gamma, feature_threshold,
                  interaction_threshold, knockoff_stats)
from .importance import (AttributionConfig, ImportanceScores, calibrate,
                         compute_scores, instance_based_1d, instance_based_2d,
                         model_based_1d, model_based_2d)
from .knockoff import (GaussianKnockoffModel, fit_gaussian, knockoff_diagnostics,
                       sample_knockoffs, solve_s)
from .metrics import EvalReport, aggregate, auroc, evaluate, fdp_power
from .network import (CoupledNetwork, TrainConfig, init_network, load_network,
                      predict, pull_back, save_network, train)
from .simsuite import (GROUND_TRUTH_PAIRS, Dataset, SimulationSpec, generate,
                       mixed_partial, verify_ground_truth)
