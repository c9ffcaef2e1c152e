"""Differentially private 2D location histograms.

Release mechanisms (a homogeneity-driven tree plus classic baselines),
range-count query answering, and a mean-relative-error evaluation
harness over seeded synthetic datasets.
"""

from .baselines import (
    build_adaptive_grid,
    build_flat_uniform,
    build_kdtree,
    build_quadtree,
    build_singular,
    build_uniform_grid,
    enforce_hierarchical_consistency,
)
from .grid import (
    FrequencyMatrix,
    discretize,
    generate_gaussian,
    load_matrix,
    load_points,
    save_matrix,
    save_points,
)
from .histogram import CoverageError, PrivateHistogram
from .htf import (
    HtfParams,
    estimate_height,
    release,
)
from .privacy import (
    BudgetLedger,
    BudgetOverflowError,
    NoiseSource,
    geometric_level_budget,
)
from .queries import (
    EvalReport,
    Workload,
    WorkloadSpec,
    answer_workload,
    evaluate,
    generate_workload,
    load_workload,
    relative_error,
    save_workload,
)

__version__ = "0.1.0"
