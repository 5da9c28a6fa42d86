"""Robust value-function estimation under jump-diffusion dynamics.

Simulation of jump diffusions, the mstde/msbve stochastic-gradient estimators,
independent oracles for their limiting objectives, and a mean-variance
portfolio backtest on intraday prices.
"""

from .errors import (ConfigurationError, DegenerateSeriesError, DivergenceError,
                     IngestionError, InsufficientDataError, JumprlError,
                     NonConvexError, SimulationOverflowError, SingularParameterError)
from .estimators import (TrainConfig, TrainResult, grads_by_row, jump_robustness_ratio,
                         losses_by_row, msbve_loss, mstde_loss, train)
from .models import (CustomValue, ExponentialValue, LinearValue, MeanVarianceValue,
                     QuadraticValue, family_by_name)
from .oracles import (MinimizerTable, QuadraticObjective, argmin_quadratic,
                      closed_form_objective, mc_argmin, reference_minimizers)
from .portfolio import (BacktestConfig, BacktestResult, PriceSeries, bipower_sigma2,
                        build_price_series, jump_threshold, read_price_csv,
                        rolling_backtest, sharpe, synthetic_gbm_jump_series,
                        threshold_series, write_price_csv)
from .sde import (JumpDiffusionSpec, NoJumps, PathBatch, SingleUniformJump, TimeGrid,
                  build_grid, doubling_jump_spec, path_to_csv, sample_single_jump_time,
                  simulate_batch)

__version__ = "0.1.0"
