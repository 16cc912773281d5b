"""pillarkit: grid feature extraction for point clouds.

Pillar/voxel binning, per-cell set descriptors (max, mean, and a sorted
weighted form that generalizes both), a minimal reverse-mode gradient engine
with finite-difference checking, toy training tasks, and throughput benches.
"""

from .autograd import (
    GradCheckReport,
    Gradients,
    OptimizerState,
    descriptor_backward,
    finite_difference_check,
    optimizer_step,
    run_gradient_check_suite,
)
from .bench import BenchConfig, bench_descriptor
from .descriptor import (
    AggregationWeights,
    MlpLayer,
    MlpParams,
    SortedFeatureMatrix,
    aggregate_max,
    aggregate_mean,
    aggregate_weighted,
    descriptor_forward,
    load_descriptor,
    mlp_forward,
    save_descriptor,
    sort_project,
)
from .errors import (
    DivergenceError,
    FileFormatError,
    NonFiniteError,
    PillarkitError,
    TieError,
    ValidationError,
)
from .gridding import (
    CellBatch,
    FeatureMap,
    GridSpec,
    assign_cells,
    build_cell_batch,
    cell_batch_from_arrays,
    scatter_to_grid,
)
from .pointcloud import (
    PointCloud,
    load_kitti_bin,
    write_kitti_bin,
)
from .toy import (
    Metrics,
    ToyTaskSpec,
    TrainConfig,
    build_toy_dataset,
    train_descriptor,
)

__version__ = "0.1.0"

__all__ = [
    "AggregationWeights",
    "BenchConfig",
    "CellBatch",
    "DivergenceError",
    "FeatureMap",
    "FileFormatError",
    "GradCheckReport",
    "Gradients",
    "GridSpec",
    "Metrics",
    "MlpLayer",
    "MlpParams",
    "NonFiniteError",
    "OptimizerState",
    "PillarkitError",
    "PointCloud",
    "SortedFeatureMatrix",
    "TieError",
    "ToyTaskSpec",
    "TrainConfig",
    "ValidationError",
    "aggregate_max",
    "aggregate_mean",
    "aggregate_weighted",
    "assign_cells",
    "bench_descriptor",
    "build_cell_batch",
    "build_toy_dataset",
    "cell_batch_from_arrays",
    "descriptor_backward",
    "descriptor_forward",
    "finite_difference_check",
    "load_descriptor",
    "load_kitti_bin",
    "mlp_forward",
    "optimizer_step",
    "run_gradient_check_suite",
    "save_descriptor",
    "scatter_to_grid",
    "sort_project",
    "train_descriptor",
    "write_kitti_bin",
]
