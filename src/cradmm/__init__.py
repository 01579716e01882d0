"""Complex-valued sparse linear inverse problems with row-partitioned consensus ADMM.

Ships a surrogate coded-reflector forward model, the consensus lasso solver
with Woodbury-accelerated block updates, pseudoinverse and FISTA baselines,
quality metrics, bit-exact file formats, and an experiment CLI.
"""

from .admm import (
    AdmmParams,
    AdmmState,
    BlockSolver,
    ConsensusLassoSolver,
    ConvergenceTrace,
    IterationRecord,
    Partition,
    evaluate_objective,
    partition_rows,
    precompute_block_solver,
    soft_threshold,
    solve_consensus_lasso,
    update_s,
    update_u,
    update_v,
)
from .baselines import KktReport, check_lasso_kkt, solve_fista, solve_pseudoinverse
from .config import (
    ExperimentConfig,
    experiment_config_from_dict,
    experiment_config_to_dict,
    load_experiment_config,
)
from .errors import ConfigError, DivergenceError, FileFormatError
from .fileio import (
    TraceCsvWriter,
    read_matrix,
    read_trace_csv,
    read_vector,
    write_matrix,
    write_matrix_blocks,
    write_trace_csv,
    write_vector,
    write_view_pgm,
)
from .linop import SensingOperator
from .metrics import VolumeViews, nmse, project_views, support_metrics
from .scene import (
    Measurement,
    Scene,
    ScenarioConfig,
    SensingMatrix,
    add_noise,
    build_phantom,
    forward_measure,
    sensing_blocks,
    synthesize_sensing_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AdmmParams",
    "AdmmState",
    "BlockSolver",
    "ConfigError",
    "ConsensusLassoSolver",
    "ConvergenceTrace",
    "DivergenceError",
    "ExperimentConfig",
    "FileFormatError",
    "IterationRecord",
    "KktReport",
    "Measurement",
    "Partition",
    "Scene",
    "ScenarioConfig",
    "SensingMatrix",
    "SensingOperator",
    "TraceCsvWriter",
    "VolumeViews",
    "add_noise",
    "build_phantom",
    "check_lasso_kkt",
    "evaluate_objective",
    "experiment_config_from_dict",
    "experiment_config_to_dict",
    "forward_measure",
    "load_experiment_config",
    "nmse",
    "partition_rows",
    "precompute_block_solver",
    "project_views",
    "read_matrix",
    "read_trace_csv",
    "read_vector",
    "sensing_blocks",
    "soft_threshold",
    "solve_consensus_lasso",
    "solve_fista",
    "solve_pseudoinverse",
    "support_metrics",
    "synthesize_sensing_matrix",
    "update_s",
    "update_u",
    "update_v",
    "write_matrix",
    "write_matrix_blocks",
    "write_trace_csv",
    "write_vector",
    "write_view_pgm",
]
