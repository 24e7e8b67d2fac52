"""The benchmark's trace hooks still find their targets in the package.

The benchmark wraps package functions by the names listed in
``benchmarks/workloads.py`` (``HOOKS``). A renamed or deleted target does
not crash a traced run; it only reads as absent there, so the check lives
here, among the package's own tests.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from attnreg import synthdata as sd  # noqa: E402
from attnreg import trainer as tr  # noqa: E402
from attnreg import vit  # noqa: E402
from attnreg.gridtransform import GridShape  # noqa: E402


def test_every_hook_resolves():
    assert tracing.Hooks(tracing.Tracer(), workloads.HOOKS).missing == []


def test_evaluation_calls_the_adjoint_and_map_hooks():
    cfg = vit.ViTConfig(patch_size=4, grid=GridShape(4, 4), embed_dim=8, num_layers=2,
                        num_heads=2, num_classes=3)
    params = vit.init_params(cfg, np.random.default_rng(0))
    samples = sd.generate(sd.DatasetConfig(num_samples=4, height=16, width=16, seed=0))
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer, workloads.HOOKS)
    hooks.install()
    try:
        tr.evaluate(params, cfg, samples)
    finally:
        hooks.remove()
    for span in ("vit.attention_adjoints", "localization.build_maps"):
        assert tracer.counts["calls:" + span] > 0, span
