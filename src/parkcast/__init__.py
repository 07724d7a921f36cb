"""parkcast: joint wind speed / wind power forecasting for a wind park.

Sparse seasonal threshold models with conditional heteroscedasticity,
estimated by an iteratively re-weighted, BIC-tuned lasso; multi-step point
and bootstrap probabilistic forecasts; reference forecasters and a
rolling-origin backtest harness.
"""

from .basis import ANNUAL_STEPS, DIURNAL_STEPS, BSplineSpec, BasisSet
from .benchmarks import BENCHMARKS, make_benchmark
from .design import (
    DesignMatrix,
    FamilySpec,
    IndexSets,
    Term,
    ThresholdSet,
    compute_thresholds,
    default_index_sets,
    index_sets_from,
    threshold_regressor,
)
from .evaluation import (
    BacktestReport,
    BacktestSpec,
    dmae,
    error_density,
    mae,
    mae_standard_deviation,
    run_backtest,
    write_report,
)
from .forecast import (
    ForecastResult,
    Forecaster,
    bootstrap_forecast,
    point_forecast,
    simulate_synthetic,
)
from .lasso import (
    LassoFit,
    LassoProblem,
    LassoSettings,
    coordinate_descent,
    fit_path_bic,
    lambda_grid,
    weighted_bic,
)
from .model import (
    FittedJointModel,
    ModelConfig,
    compute_residuals,
    fit_joint_model,
    load_model,
    save_model,
    volatility_proxy,
)
from .panel import (
    CalendarIndex,
    PanelSchema,
    TurbinePanel,
    fill_gaps_linear,
    load_panel,
    seasonal_mean_profile,
    smoothed_periodogram,
)

__version__ = "0.1.0"
