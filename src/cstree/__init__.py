"""Cost-sensitive decision trees on numeric data.

Splits are scored by gain ratio weighted with per-attribute test costs
raised to a non-positive exponent, grown trees are post-pruned wherever
a majority leaf is cheaper than the subtree it replaces, and a grid of
exponents competes for the lowest training cost.
"""

from .competition import (
    LambdaGrid,
    LambdaRecord,
    SweepResult,
    run_competition,
    run_competitions,
)
from .costs import (
    CostDistributionSpec,
    MisclassificationMatrix,
    TestCostVector,
    generate_test_costs,
    load_cost_file,
    total_test_cost,
    two_class_matrix,
)
from .data import Dataset, load_csv, split_train_test
from .evaluation import (
    CostBreakdown,
    average_cost,
    average_costs,
    average_reduction_ratio,
    reduction_ratio,
)
from .experiment import (
    DEFAULT_MC,
    ExperimentConfig,
    TrialReportRow,
    report_summary,
    resolve_costs,
    run_experiment,
    trial_streams,
    write_rows_csv,
    write_summary_json,
    write_trace_csv,
)
from .pruning import PruneTraceEntry, post_prune, prune_trees
from .tree import (
    DecisionTree,
    SplitCandidate,
    TreeNode,
    best_split,
    build_tree,
    build_trees,
    check_training_rows,
    classify,
    deserialize,
    entropy,
    serialize,
    structural_equal,
)

__version__ = "0.1.0"

__all__ = [
    "CostBreakdown",
    "CostDistributionSpec",
    "Dataset",
    "DecisionTree",
    "DEFAULT_MC",
    "ExperimentConfig",
    "LambdaGrid",
    "LambdaRecord",
    "MisclassificationMatrix",
    "PruneTraceEntry",
    "SplitCandidate",
    "SweepResult",
    "TestCostVector",
    "TreeNode",
    "TrialReportRow",
    "average_cost",
    "average_costs",
    "average_reduction_ratio",
    "best_split",
    "build_tree",
    "build_trees",
    "check_training_rows",
    "classify",
    "deserialize",
    "entropy",
    "generate_test_costs",
    "load_cost_file",
    "load_csv",
    "post_prune",
    "prune_trees",
    "reduction_ratio",
    "report_summary",
    "resolve_costs",
    "run_competition",
    "run_competitions",
    "run_experiment",
    "serialize",
    "split_train_test",
    "structural_equal",
    "total_test_cost",
    "trial_streams",
    "two_class_matrix",
    "write_rows_csv",
    "write_summary_json",
    "write_trace_csv",
]
