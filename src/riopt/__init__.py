"""Optimistic online optimization and zero-sum game solvers on Riemannian
manifolds, with concrete geometries, numerical oracles, and a benchmark CLI.
"""

from .geometry import (
    CurvatureBounds,
    FrechetMeanError,
    GeometryError,
    Manifold,
    Point,
    TangentVector,
    frechet_mean,
    frechet_mean_rows,
    sigma_constant,
    weighted_frechet_mean,
    zeta_constant,
)
from .manifolds import SPD, Euclidean, Hyperbolic, Product, Sphere
from .online import (
    CorrectedState,
    MetaWeights,
    OptimisticState,
    StepSizePool,
    aoogd_commit,
    aoogd_configure,
    aoogd_update,
    rogd_step,
    roogd_corrected_init,
    roogd_corrected_step,
    roogd_init,
    roogd_init_rows,
    roogd_step,
)
from .games import (
    GameState,
    NEDiagnostics,
    ZeroSumGame,
    geodesic_average,
    make_spd_dataset,
    ne_diagnostics,
    quad_duality_gap,
    quad_logdet_game,
    rceg_step,
    rgda_step,
    robust_pca_game,
    rogda_init,
    rogda_step,
)
from .verify import (
    BlowupTrace,
    ProbeReport,
    correction_blowup_trace,
    fd_gradient_check,
    holonomy_probe,
    holonomy_suite,
    random_small_rectangles,
    triangle_comparison_suite,
)
from .streams import FrechetMeanLoss, child_rng, fixed_probe_points, gen_frechet_stream
from .bench import (
    AlgorithmSpec,
    BenchResult,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    run_experiment,
    run_verification,
    sweep,
)

__version__ = "0.1.0"
