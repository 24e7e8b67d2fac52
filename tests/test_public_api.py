"""The package namespace is pinned: adding or removing a public name is a
contract change, made here and recorded in CHANGES.md on purpose."""

import attnreg

PUBLIC_NAMES = [
    "AttnRegError", "ConfusionAccumulator", "ContractError", "DatasetConfig",
    "DimensionError", "FLIP_H", "FLIP_HV", "FLIP_V", "GridShape", "IDENTITY",
    "LocalizationMap", "LossWeights", "NumericalError", "ROT180", "ROT270", "ROT90",
    "SeedMask", "SpatialTransform", "StateError", "Tape", "Tensor", "TokenPermutation",
    "TrainConfig", "TrainResult", "ViTConfig", "__version__", "attention_adjoints",
    "augment", "best_threshold_miou", "class_logit", "classification_loss", "evaluate",
    "export_map", "format_train_config", "forward", "generate", "grad_check",
    "grad_localization", "init_params", "invert_attention", "invert_attention_fast",
    "invert_attention_kronecker", "invert_layers", "load_checkpoint", "load_dataset",
    "parse_train_config", "region_activation_loss", "region_affinity_loss",
    "resize_attention", "run_regularizer_grid", "save_checkpoint", "save_dataset",
    "seed_from_maps", "token_permutation", "total_loss", "train", "upsample_nearest",
]


def test_all_is_the_pinned_list():
    assert len(PUBLIC_NAMES) == 57
    assert sorted(attnreg.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in attnreg.__all__:
        assert getattr(attnreg, name) is not None, name
