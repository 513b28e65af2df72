"""Time series classification with per-class local models that combine
shape evidence (z-normalized distance profiles) and feature evidence
(sliding feature profiles) through histogram-density Naive Bayes.
"""

from .core import (
    COMPLEXITY,
    FLOOR_OWN,
    FLOOR_UNION,
    NB_PAPER_LITERAL,
    NB_STANDARD,
    OTHER_CLASS,
    SHAPE,
    SLIDING_MEAN,
    SLIDING_STD,
    ClassifierConfig,
    ClassModel,
    ConfusionMatrix,
    FeatureSpec,
    Histogram,
    LabelTrack,
    PredictionTrack,
    Region,
    TimeSeries,
)
from .data import (
    DatasetBundle,
    SeriesFile,
    TwoModalityParams,
    build_gun_experiment,
    gen_random_noise,
    gen_random_walk,
    gen_two_modality_dataset,
    load_labels,
    load_model,
    load_series,
    noise_walk_instances,
    save_labels,
    save_model,
    save_series,
)
from .evaluate import (
    COMPLEXITY_DIFF,
    ZNORM_ED,
    InstanceConfusion,
    RocPoint,
    detection_frequency,
    loocv_1nn,
    metrics,
    mil_confusion,
    oracle_confusion,
    roc_sweep,
)
from .model import (
    ClassSpec,
    classify,
    combine_naive_bayes,
    compute_distributions,
    compute_probability,
    histogram_build,
    select_prototype,
    train,
)
from .profiles import (
    SlidingStats,
    complexity_profile,
    distance_profile_mass,
    sliding_stats,
    znormalize,
)

__version__ = "0.1.0"
