"""Multi-modal differentiable unsupervised feature selection.

Selects features associated with latent structure that is shared between two
registered data modalities, or specific to one of them, by optimizing
stochastic feature gates against Laplacian-based graph operator scores.
"""

from .bench import SelectionResult, baseline_select, run_experiment
from .datagen import (
    ModalPair,
    gen_cube,
    gen_gaussian_mixture,
    gen_tree,
    ingest,
    load_pair,
    save_pair,
)
from .gates import GateState, expected_l0, f1, select_features
from .graph import gaussian_kernel, median_bandwidth, normalized_laplacian
from .operators import (
    differential_operator_array,
    score_all_features,
    shared_operator_array,
)
from .tape import Tape, eigh_descending, pairwise_sq_dists
from .trainer import RunConfig, TrainResult, train, warmup_tune

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "eigh_descending",
    "pairwise_sq_dists",
    "gaussian_kernel",
    "median_bandwidth",
    "normalized_laplacian",
    "shared_operator_array",
    "differential_operator_array",
    "score_all_features",
    "GateState",
    "expected_l0",
    "select_features",
    "RunConfig",
    "TrainResult",
    "train",
    "warmup_tune",
    "ModalPair",
    "gen_gaussian_mixture",
    "gen_tree",
    "gen_cube",
    "ingest",
    "save_pair",
    "load_pair",
    "SelectionResult",
    "baseline_select",
    "f1",
    "run_experiment",
]
