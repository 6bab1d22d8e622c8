"""SOFIA core: the paper's primary contribution.

Exports the high-level :class:`Sofia` facade and :class:`SofiaConfig`,
plus the building blocks (ALS, initialization, dynamic updates, outlier
estimation, smoothness operators, objectives) for tests and ablations.
"""

from repro.core.als import AlsResult, sofia_als
from repro.core.config import SofiaConfig
from repro.core.dynamic import dynamic_step_batch
from repro.core.initialization import (
    InitializationResult,
    initialize,
    stack_subtensors,
)
from repro.core.model import SofiaModelState, SofiaStep
from repro.core.objective import batch_cost, local_cost, streaming_cost
from repro.core.outliers import (
    estimate_outliers,
    robust_step,
    robust_step_batch,
    soft_threshold,
    update_error_scale,
)
from repro.core.rank_selection import RankSelectionResult, select_rank
from repro.core.serialization import load_sofia, save_sofia
from repro.core.smoothness import (
    difference_matrix,
    neighbor_count,
    neighbor_sum,
    smoothness_penalty,
)
from repro.core.sofia import Sofia

__all__ = [
    "AlsResult",
    "InitializationResult",
    "Sofia",
    "SofiaConfig",
    "SofiaModelState",
    "SofiaStep",
    "RankSelectionResult",
    "batch_cost",
    "difference_matrix",
    "dynamic_step_batch",
    "estimate_outliers",
    "initialize",
    "load_sofia",
    "local_cost",
    "save_sofia",
    "select_rank",
    "neighbor_count",
    "neighbor_sum",
    "robust_step",
    "robust_step_batch",
    "smoothness_penalty",
    "sofia_als",
    "soft_threshold",
    "stack_subtensors",
    "streaming_cost",
    "update_error_scale",
]
