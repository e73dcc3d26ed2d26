"""Deep BSDE solver: trains per-step networks so a simulated backward process
matches the terminal condition of a semilinear parabolic PDE, then reads off
u(0, xi) from the initial head. Ships a hand-derived adjoint of the rollout, a
counter-based RNG with reproducible sub-streams, and independent oracles for
validation.
"""

from .bsde import (
    RolloutResult,
    Tape,
    ValueRollout,
    backward,
    estimate_u0,
    oracle_rollout_loss,
    rollout_loss,
    rollout_values,
)
from .config import RunConfig, parse_config, parse_config_text
from .errors import ConfigError, DeepBsdeError, NumericError, ShapeError
from .net import (
    MLPConfig,
    MLPParams,
    SubnetBank,
    flatten_params,
    init_params,
    mlp_eval,
    param_count,
    unflatten_params,
)
from .optim import AdamState, LrSchedule, adam_step, clip_by_global_norm, lr_at, sgd_step
from .oracle import OracleEstimate, cole_hopf_mc, fd_semilinear_1d, mc_feynman_kac
from .problems import (
    ExactSolution,
    ProblemSpec,
    XiSampler,
    exact_eval,
    get_problem,
    pde_residual,
)
from .sde import (
    BrownianBatch,
    PathBatch,
    RngStream,
    TimeGrid,
    make_uniform_grid,
    simulate_paths,
)
from .train import (
    METRICS_HEADER,
    MetricsRecord,
    load_archive,
    run_train,
    save_params,
    write_metrics,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "BrownianBatch",
    "ConfigError",
    "DeepBsdeError",
    "ExactSolution",
    "LrSchedule",
    "METRICS_HEADER",
    "MLPConfig",
    "MLPParams",
    "MetricsRecord",
    "NumericError",
    "OracleEstimate",
    "PathBatch",
    "ProblemSpec",
    "RngStream",
    "RolloutResult",
    "RunConfig",
    "ShapeError",
    "SubnetBank",
    "Tape",
    "TimeGrid",
    "ValueRollout",
    "XiSampler",
    "adam_step",
    "backward",
    "clip_by_global_norm",
    "cole_hopf_mc",
    "estimate_u0",
    "exact_eval",
    "fd_semilinear_1d",
    "flatten_params",
    "get_problem",
    "init_params",
    "load_archive",
    "lr_at",
    "make_uniform_grid",
    "mc_feynman_kac",
    "mlp_eval",
    "oracle_rollout_loss",
    "param_count",
    "parse_config",
    "parse_config_text",
    "pde_residual",
    "rollout_loss",
    "rollout_values",
    "run_train",
    "save_params",
    "sgd_step",
    "simulate_paths",
    "unflatten_params",
    "write_metrics",
]
