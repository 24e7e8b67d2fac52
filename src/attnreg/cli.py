"""Command-line interface.

JSON goes to stdout (indented when --pretty), logs to stderr (verbosity
via the ACR_LOG environment variable: debug, info, warning, error).

Exit codes: 0 success; 1 validation or contract error (bad flags, bad
files, bad shapes) or a request too large for memory; 2 numerical
failure (non-finite values, an inversion-equivalence or finite-difference
check exceeding tolerance).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import gridtransform as gt
from . import localization as lc
from . import netpbm
from . import synthdata as sd
from . import trainer as tr
from . import vit
from .atomicio import write_text_atomic
from .autodiff import Tensor
from .errors import AttnRegError, ContractError, NumericalError

log = logging.getLogger("attnreg")

_LAYERS_HELP = "layers fused into the maps: A:B or A..B, or 'default' (the last two)"
_EXIT_CODE_DOC = ("exit codes: 0 success, 1 validation/contract error or out of memory, "
                  "2 numerical failure (non-finite values or a failed "
                  "equivalence/gradient check)")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract says 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(payload, pretty: bool) -> None:
    print(json.dumps(payload, indent=2 if pretty else None, sort_keys=True))


def _load_train_config(path: str | None, overrides: dict[str, str] | None = None
                       ) -> tr.TrainConfig:
    """The config file at `path` (None: no file, every key at its default)
    with each key in `overrides` set from its text."""
    try:
        text = "" if path is None else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: not a UTF-8 config file: {exc}") from exc
    return tr.parse_train_config(text, overrides)


# attnreg train's flags, each setting the config key it names
_TRAIN_FLAGS = {"alpha": "weights.alpha", "beta": "weights.beta",
                "distance": "weights.distance", "aug": "augmentations",
                "epochs": "epochs", "lr": "learning_rate", "seed": "seed"}


def _train_config(args) -> tr.TrainConfig:
    """The --config file's TrainConfig with train's flags applied, built
    once from the merged values: a flag that raises the file's epochs can
    lift a refusal the file alone would meet."""
    flags = {key: getattr(args, flag) for flag, key in _TRAIN_FLAGS.items()
             if getattr(args, flag) is not None}
    return _load_train_config(args.config, flags)


# -- subcommand bodies ---------------------------------------------------------

def _cmd_gen_data(args) -> int:
    config = sd.DatasetConfig(num_samples=args.samples, num_classes=args.classes,
                              height=args.height, width=args.width,
                              channels=args.channels, seed=args.seed,
                              min_shapes=args.min_shapes, max_shapes=args.max_shapes)
    samples = sd.generate(config)
    sd.save_dataset(args.out, samples, config)
    log.info("wrote %d samples to %s", len(samples), args.out)
    _emit({"out": str(args.out), **config.to_dict()}, args.pretty)
    return 0


def _cmd_train(args) -> int:
    config = _train_config(args)
    samples, _ = sd.load_dataset(args.data)
    log.info("training on %d samples for %d epochs", len(samples), config.epochs)
    result = tr.train(config, samples, out_dir=args.out)
    _emit({"checkpoint": str(result.checkpoint_path), "log": str(result.log_path),
           "epochs": config.epochs, "final": result.log[-1]}, args.pretty)
    return 0


def _cmd_eval(args) -> int:
    layers = tr.parse_layer_range(args.layers, "default")
    params, cfg = vit.load_checkpoint(args.checkpoint)
    samples, _ = sd.load_dataset(args.data)
    summary = tr.evaluate(params, cfg, samples, map_layers=layers, sweep_layers=args.sweep_layers)
    summary.pop("unrefined" if args.refined == "on" else "refined")
    _emit(summary, args.pretty)
    return 0


def _cmd_seeds(args) -> int:
    layers = tr.parse_layer_range(args.layers, "default")
    params, cfg = vit.load_checkpoint(args.checkpoint)
    layer_range = lc.resolve_layers(layers, cfg.num_layers)
    raw = netpbm.read_netpbm(args.image)
    if raw.ndim == 2:
        raw = raw[None, :, :]
    if raw.shape[0] != cfg.in_channels:
        raise ContractError(f"image has {raw.shape[0]} channels, model wants "
                            f"{cfg.in_channels}")
    image = raw.astype(np.float64) / 255.0
    # a one-image stack through evaluation's path, on the image's own grid
    rows, blocks = tr.adjoint_rows(image[None], [[args.class_index]], params, cfg)
    grid = vit.image_grid(image, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.image).stem
    written = []
    for tag, refine in (("unrefined", False), ("refined", True)):
        values = lc.build_maps(rows, blocks, layer_range, refine)
        m = lc.LocalizationMap(class_index=args.class_index,
                               values=values.reshape(grid.h, grid.w),
                               layers_fused=layer_range, refined=refine)
        base = out / f"{stem}_class{args.class_index}_{tag}"
        for path in lc.export_map(base, m):
            written.append(str(path))
    log.info("wrote %d files to %s", len(written), out)
    _emit({"written": written, "class": args.class_index,
           "layers_fused": list(layer_range)}, args.pretty)
    return 0


def _check_tolerance(tolerance: float) -> None:
    if not 0 < tolerance < math.inf:  # NaN fails too
        raise ContractError(f"--tolerance must be finite and positive, got {tolerance}")


def _check_seed(seed: int) -> None:
    if seed < 0:  # np.random.default_rng would raise a ValueError
        raise ContractError(f"--seed must be >= 0, got {seed}")


def _cmd_check_inversion(args) -> int:
    if args.trials < 1:
        raise ContractError(f"--trials must be >= 1, got {args.trials}")
    _check_tolerance(args.tolerance)
    _check_seed(args.seed)
    grid = gt.GridShape.parse(args.grid)
    gt.check_token_cap(grid, "check-inversion")
    transform = gt.SpatialTransform.parse(args.transform)
    rng = np.random.default_rng(args.seed)
    n = grid.n
    worst_roundtrip = 0.0
    worst_oracle = None
    idx = np.concatenate(([0], gt.token_permutation(transform, grid).sigma + 1))
    for _ in range(args.trials):
        a = rng.random(size=(n + 1, n + 1))
        a /= a.sum(axis=1, keepdims=True)
        forwarded = a[np.ix_(idx, idx)]  # attention as the transformed view sees it
        back = gt.invert_attention_fast(Tensor(forwarded), transform, grid)
        worst_roundtrip = max(worst_roundtrip, float(np.max(np.abs(back.data - a))))
        if args.oracle:
            kron = gt.invert_attention_kronecker(forwarded[1:, 1:], transform, grid)
            err = float(np.max(np.abs(kron - back.data[1:, 1:])))
            worst_oracle = err if worst_oracle is None else max(worst_oracle, err)
    payload = {"grid": str(grid), "transform": str(transform), "trials": args.trials,
               "roundtrip_error": worst_roundtrip, "tolerance": args.tolerance}
    if args.oracle:
        payload["fast_vs_kronecker_error"] = worst_oracle
    _emit(payload, args.pretty)
    failed = worst_roundtrip > args.tolerance or \
        (worst_oracle is not None and worst_oracle > args.tolerance)
    return 2 if failed else 0


def _cmd_ablate(args) -> int:
    config = _load_train_config(args.config)
    samples, _ = sd.load_dataset(args.data)
    eval_samples = None
    if args.eval_data is not None:
        eval_samples, _ = sd.load_dataset(args.eval_data)
    out = None
    if args.out is not None:  # fail on a bad --out before any training
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    log.info("ablations on %d samples", len(samples))
    tables = {
        "regularizer_grid": tr.run_regularizer_grid(config, samples, eval_samples),
        "distance_sweep": tr.run_distance_sweep(config, samples, eval_samples),
        "augmentation_sweep": tr.run_augmentation_sweep(config, samples, eval_samples),
    }
    if out is not None:
        for name, rows in tables.items():
            write_text_atomic(out / f"{name}.json",
                              json.dumps(rows, indent=2, sort_keys=True) + "\n")
    _emit(tables, args.pretty)
    return 0


# the resize whose training chunk grad-check audits beside FLIP_H's
_RESIZE_CHECKED = gt.SpatialTransform.parse("resize:6x6")


def _cmd_grad_check(args) -> int:
    _check_tolerance(args.tolerance)
    _check_seed(args.seed)
    config = _load_train_config(args.config)
    cfg = config.vit
    rng = np.random.default_rng(args.seed)
    params = vit.init_params(cfg, rng)
    image = rng.random(size=(cfg.in_channels, cfg.grid.h * cfg.patch_size,
                             cfg.grid.w * cfg.patch_size))
    labels = (rng.random(cfg.num_classes) < 0.5).astype(np.float64)
    sample = sd.SyntheticSample(image=image, labels=labels,
                                mask=np.zeros(image.shape[1:], dtype=np.int64),
                                seed=(args.seed, 0))
    # the consistency terms are checked even where the config weighs them 0
    both_terms = replace(config, weights=replace(config.weights, alpha=1.0, beta=1.0))

    def with_param(name, build):
        def f(probe):
            patched = dict(params)
            patched[name] = probe
            return build(patched)
        err = ad.grad_check(f, Tensor(params[name].data.copy()), step=args.step,
                            max_coords=args.max_coords,
                            rng=np.random.default_rng(args.seed + 1))
        return float(err)

    def logit(patched):
        return vit.class_logit(vit.forward(image, patched, cfg), 0)

    def chunk_term(transform, train_config, term):
        # a one-sample chunk: its mean loss is the sample's loss
        chunk = [tr._two_views(0, sample, transform, cfg)]
        return lambda patched: getattr(tr._chunk_loss(chunk, patched, train_config), term)

    last = f"blocks.{cfg.num_layers - 1}."  # runs on the class row after its attention
    checks = {
        "class_logit/patch_embed.weight": with_param("patch_embed.weight", logit),
        "class_logit/blocks.0.attn.wq": with_param("blocks.0.attn.wq", logit),
    }
    # FLIP_H keeps the grid: one forward of both views, inverted by the
    # consistency node's gather; a resize to 6x6 runs a forward per view,
    # its view resampled back before the node
    for transform, tag in ((gt.FLIP_H, ""), (_RESIZE_CHECKED, f"@{_RESIZE_CHECKED}")):
        checks.update({
            f"activation_loss{tag}/blocks.0.attn.wk":
                with_param("blocks.0.attn.wk", chunk_term(transform, both_terms, "l_act")),
            f"affinity_loss{tag}/blocks.0.attn.wq":
                with_param("blocks.0.attn.wq", chunk_term(transform, both_terms, "l_aff")),
            f"total_loss{tag}/blocks.0.mlp.w1":
                with_param("blocks.0.mlp.w1", chunk_term(transform, config, "total")),
        })
    checks.update({
        f"class_logit/{last}attn.wv": with_param(last + "attn.wv", logit),
        # reaches the query weights only through the class-row block of
        # the last softmax's adjoint
        f"class_logit/{last}attn.wq": with_param(last + "attn.wq", logit),
        f"total_loss/{last}mlp.w2":
            with_param(last + "mlp.w2", chunk_term(gt.FLIP_H, config, "total")),
    })
    worst = max(checks.values())
    _emit({"checks": checks, "max_relative_error": worst,
           "tolerance": args.tolerance, "passed": worst < args.tolerance}, args.pretty)
    if not worst < args.tolerance:
        log.error("gradient check failed: %.3e >= %.3e", worst, args.tolerance)
        return 2
    return 0


# -- wiring ---------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="attnreg",
                     description="Attention-consistency training, localization "
                                 "maps, and the matrix machinery behind them.",
                     epilog=_EXIT_CODE_DOC)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, epilog=_EXIT_CODE_DOC)
        p.set_defaults(func=func)
        p.add_argument("--pretty", action="store_true",
                       help="indent JSON output for humans")
        return p

    p = add("gen-data", _cmd_gen_data, "synthesize a shape dataset with pixel masks")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=32)
    p.add_argument("--width", type=int, default=32)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--min-shapes", type=int, default=1)
    p.add_argument("--max-shapes", type=int, default=3)

    p = add("train", _cmd_train, "run the two-view consistency training loop")
    p.add_argument("--config", help="plain-text key=value config file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    for flag, key in _TRAIN_FLAGS.items():
        p.add_argument(f"--{flag}", help=f"overrides the config key {key}")

    p = add("eval", _cmd_eval, "seed quality metrics for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--refined", choices=["on", "off"], default="on")
    p.add_argument("--layers", default="default", help=_LAYERS_HELP)
    p.add_argument("--sweep-layers", action="store_true")

    p = add("seeds", _cmd_seeds, "localization maps for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="PPM/PGM image path")
    p.add_argument("--class", dest="class_index", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layers", default="default", help=_LAYERS_HELP)

    p = add("check-inversion", _cmd_check_inversion,
            "verify attention inversion (optionally against the Kronecker oracle)")
    p.add_argument("--grid", required=True, help="HxW patch grid")
    p.add_argument("--transform", required=True,
                   help="identity|fliph|flipv|fliphv|rot90|rot180|rot270")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-12)

    p = add("ablate", _cmd_ablate, "regularizer 2x2 grid + distance and "
                                   "augmentation sweeps")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--eval-data")
    p.add_argument("--out")

    p = add("grad-check", _cmd_grad_check, "finite-difference gradient audit")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--max-coords", type=int, default=24,
                   help="random coordinates probed per parameter")
    return parser


def _setup_logging() -> None:
    """Point the package logger at the current stderr; ACR_LOG picks the
    level (debug/info/warning/error; anything else means warning)."""
    level = os.environ.get("ACR_LOG", "warning").upper()
    log.setLevel(getattr(logging, level, logging.WARNING))
    for handler in list(log.handlers):
        log.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.addHandler(handler)
    log.propagate = False


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        print(f"attnreg: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (AttnRegError, OSError) as exc:
        print(f"attnreg: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"attnreg: error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
