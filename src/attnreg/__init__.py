"""Attention-consistency training and gradient-based localization for a
mini vision transformer, implemented from scratch on numpy.

The submodules are importable directly for the full toolkit (autodiff
ops, netpbm IO, the CLI); this namespace re-exports the pieces most
sessions start from: build a dataset, configure and train the model,
read localization maps back out, score them.
"""

from .autodiff import Tape, Tensor, grad_check
from .errors import (
    AttnRegError,
    ContractError,
    DimensionError,
    NumericalError,
    StateError,
)
from .gridtransform import (
    FLIP_H,
    FLIP_HV,
    FLIP_V,
    IDENTITY,
    ROT90,
    ROT180,
    ROT270,
    GridShape,
    SpatialTransform,
    TokenPermutation,
    invert_attention,
    invert_attention_fast,
    invert_attention_kronecker,
    resize_attention,
    token_permutation,
)
from .localization import (
    LocalizationMap,
    SeedMask,
    export_map,
    grad_localization,
    seed_from_maps,
    upsample_nearest,
)
from .metrics import ConfusionAccumulator, best_threshold_miou
from .regularizer import (
    LossWeights,
    classification_loss,
    invert_layers,
    region_activation_loss,
    region_affinity_loss,
    total_loss,
)
from .synthdata import (
    DatasetConfig,
    augment,
    generate,
    load_dataset,
    save_dataset,
)
from .trainer import (
    TrainConfig,
    TrainResult,
    evaluate,
    format_train_config,
    parse_train_config,
    run_regularizer_grid,
    train,
)
from .vit import (
    ViTConfig,
    attention_adjoints,
    class_logit,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

__version__ = "0.1.0"

__all__ = [
    "AttnRegError",
    "ConfusionAccumulator",
    "ContractError",
    "DatasetConfig",
    "DimensionError",
    "FLIP_H",
    "FLIP_HV",
    "FLIP_V",
    "GridShape",
    "IDENTITY",
    "LocalizationMap",
    "LossWeights",
    "NumericalError",
    "ROT180",
    "ROT270",
    "ROT90",
    "SeedMask",
    "SpatialTransform",
    "StateError",
    "Tape",
    "Tensor",
    "TokenPermutation",
    "TrainConfig",
    "TrainResult",
    "ViTConfig",
    "attention_adjoints",
    "augment",
    "best_threshold_miou",
    "class_logit",
    "classification_loss",
    "evaluate",
    "export_map",
    "format_train_config",
    "forward",
    "generate",
    "grad_check",
    "grad_localization",
    "init_params",
    "invert_attention",
    "invert_attention_fast",
    "invert_attention_kronecker",
    "invert_layers",
    "load_checkpoint",
    "load_dataset",
    "parse_train_config",
    "region_activation_loss",
    "region_affinity_loss",
    "resize_attention",
    "run_regularizer_grid",
    "save_checkpoint",
    "save_dataset",
    "seed_from_maps",
    "token_permutation",
    "total_loss",
    "train",
    "upsample_nearest",
    "__version__",
]
