"""persize: choose how many items to recommend, per user.

Calibrates any recommender's ranking scores into interaction
probabilities, estimates expected list utility (NDCG, PDCG, F1, TP) at
every candidate size, and emits the size that maximizes it — plus
baselines, an evaluation harness, and a cross-domain budget allocator.
"""

from .calibrate import (
    PlattParams,
    calibration_labels,
    ece_report,
    fit_all_users,
    fit_global,
)
from .dataset import (
    InteractionSet,
    SplitDataset,
    compact,
    kcore_filter,
    load_interactions,
    split,
)
from .multidomain import Allocation, DomainCurves, allocate
from .poibin import distribution, distribution_batch
from .scorer import (
    BPRConfig,
    ScoreModel,
    ScoreTable,
    import_scores,
    export_scores,
    load_scores,
    save_scores,
    train_bpr,
)
from .selection import (
    EvaluationReport,
    Recommendations,
    baseline_rand,
    evaluate,
    recommend_block,
    recommend_users,
    served_users,
    user_blocks,
)
from .utility import Measure, expected_curves_batch, realized_curve

__version__ = "0.1.0"
