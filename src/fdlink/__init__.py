"""Bidirectional full-duplex MIMO-OFDM link design under transceiver
distortion and norm-bounded CSI error: closed-form performance model,
alternating weighted-MSE and weighted sum-rate designers, a worst-case /
cutting-set robustness layer, reference baselines, a distortion-level
simulator, and a deterministic experiment harness."""

from .altqcp import (SolverOptions, init_precoders, run_altqcp,
                     update_precoders, update_receivers)
from .baselines import half_duplex_world, run_baseline
from .channels import ChannelStats, draw_channels, perturb_csi
from .distortion import freq_distortion_variance, simulate_blocks
from .harness import (ExperimentSpec, emit_plot_data, read_results_csv,
                      run_experiment, summarize, write_results_csv)
from .model import (ChannelRealization, PerformanceReport, SystemConfig,
                    TransceiverDesign, aggregate_covariance, evaluate_design,
                    mse_matrix, power_usage, rate)
from .robust import (build_quadratic_form, run_cutting_set,
                     weighted_mse_with_errors, worst_case_error, worst_case_mse)
from .util import ConfigError, DualSearchError, db_to_linear
from .wmmse import run_wmmse, surrogate_objective, update_weights

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
