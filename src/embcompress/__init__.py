"""embcompress: compress dense embedding matrices, score the compressed
variants with spectral quality measures, and pick the best one without
training a downstream model."""

__version__ = "0.1.0"

from .compress import (
    CompressedEmbedding,
    QuantizationGrid,
    compress_kmeans,
    compress_pca,
    compress_uniform,
    compressor,
    decompress,
    find_clip_threshold,
    quantize_codes,
)
from .linalg import (
    LinalgError,
    ThinSVD,
    numerical_rank,
    thin_svd,
)
from .measures import (
    PreparedBase,
    QualityReport,
    RankDeficiencyWarning,
    eigenspace_overlap,
    quality_report,
    reconstruction_error,
)
from .rng import CounterRng
from .selection import (
    MeasureSpec,
    PerformanceTable,
    Ranking,
    evaluate_measures,
    max_regret,
    rank_candidates,
    select_best,
    selection_error_rate,
    spearman_rho,
)
from .theory import (
    ExperimentResult,
    GdConfig,
    LabelModel,
    clipping_curve,
    davis_kahan_sample_bound,
    exact_expected_gap,
    expected_gap_upper_bound,
    gen_scaled_matrix,
    gen_uniform_matrix,
    lipschitz_gap_bound,
    overlap_bound_experiment,
    scaling_experiment,
    simulate_lipschitz_gap,
    simulate_regression_gap,
    table4_perturbation,
    uniform_overlap_bound,
)
