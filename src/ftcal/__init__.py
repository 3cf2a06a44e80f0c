"""Diagnose and repair the accuracy collapse caused by fine-tuning a
classifier on a strict subset of its classes: group-restricted accuracy
metrics, softmax decomposition, the exact seen-unseen trade-off curve with
its area, post-hoc logit calibration (ALG, pseudo cross-validation, and the
cheating upper bound), nearest-class-mean feature probes, weight-space
diagnostics, and a small analytically verified trainer with a toy pipeline.
"""

from .analysis import (
    SimilarityReport,
    absent_binary_prob,
    delta_w_similarity,
    gt_vs_top_nongt_absent,
    linear_cka,
    logit_gap_stats,
    nongt_logit_means,
    weight_norms,
)
from .calibration import (
    GammaEstimate,
    apply_gamma,
    estimate_gamma_alg,
    estimate_gamma_pcv,
    estimate_gamma_star,
    predict_cosine,
)
from .data import (
    LabeledFeatures,
    LabeledLogits,
    LabelPartition,
    LinearHead,
    make_greedy_similar_split,
    make_random_split,
    total_intra_group_distance,
)
from .errors import (
    DegenerateInputError,
    EmptyGroupError,
    FtcalError,
    MissingClassError,
    ParseError,
    ShapeError,
    TrainingError,
    ValidationError,
)
from .io import format_curve_csv
from .metrics import (
    AccReport,
    SeenUnseenCurve,
    acc_report,
    accuracy,
    ausuc,
    decompose,
    predict_restricted,
    seen_unseen_curve,
)
from .ncm import ClassMeans, class_means, ncm_logits, ncm_predict
from .pipeline import ToyReport, run_toy_pipeline
from .rng import derive_rng, derive_seed
from .trainer import (
    EpochRecord,
    MlpModel,
    ToySpec,
    TrainConfig,
    absent_feature_shift,
    default_train_config,
    fine_tune,
    forward,
    forward_batch,
    gen_toy_data,
    gradient_check,
    loss_and_grads,
)

__version__ = "0.1.0"
