"""Byte identity of the command line's artifacts, as a committed check.

``collect(root)`` runs a fixed set of tiny commands through ``cli.main``
in the empty directory ``root`` -- ``gen-data``; a criterion-07-config
``train``; a default-model ``train --aug fliph,resize:6x6,resize:10x10``;
``eval --sweep-layers`` and ``eval --refined off`` and ``seeds`` on each
of the two checkpoints -- and returns every artifact's bytes: each file
written under ``root`` and each command's stdout, with ``root`` spelled
``<root>``.

``tests/golden/manifest.json`` holds, per artifact, its sha256 and a
decoded summary (``summarize``), and the environment that wrote it
(``environment``): the versions of Python, numpy and scipy, numpy's BLAS
and the SIMD extensions it found. Floating-point results depend on all
of them. In that environment every hash must match; in any other the
decoded summaries must agree within the manifest's relative tolerance
(``agree``).

Rewrite the manifest with ``PYTHONPATH=src python tests/golden_runs.py``,
and only on purpose: the manifest is what the next change is held to.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from attnreg import cli, netpbm, vit

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"
RTOL = 1e-6  # tolerance mode: |a - b| <= RTOL * max(1, |a|, |b|)
PIXEL_TOL = 1  # tolerance mode: netpbm pixels, in levels of 255

# the criterion-07 configuration (tests/test_acceptance.py), for 2 epochs
C07_CONFIG = """\
vit.patch_size = 4
vit.grid = 8x8
vit.embed_dim = 16
vit.num_layers = 2
vit.num_heads = 2
vit.num_classes = 3
vit.use_positional_embedding = false
weights.alpha = 2.0
weights.beta = 0.25
weights.distance = l1
augmentations = fliph,flipv,rot90,rot180,rot270
epochs = 2
batch_size = 8
learning_rate = 0.05
"""


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of each run, in order; paths relative to the root."""
    runs = [("gen-data", ["gen-data", "--out", "data", "--samples", "24", "--seed", "3"]),
            ("train-c07", ["train", "--config", "c07.cfg", "--data", "data", "--out", "c07"]),
            ("train-wide", ["train", "--data", "data", "--out", "wide", "--epochs", "2",
                            "--aug", "fliph,resize:6x6,resize:10x10"])]
    for model in ("c07", "wide"):
        ckpt = f"{model}/checkpoint.ckpt"
        runs += [(f"eval-sweep-{model}", ["eval", "--checkpoint", ckpt, "--data", "data",
                                          "--sweep-layers"]),
                 (f"eval-unrefined-{model}", ["eval", "--checkpoint", ckpt, "--data", "data",
                                              "--refined", "off"]),
                 (f"seeds-{model}", ["seeds", "--checkpoint", ckpt, "--image",
                                     "data/images/00000.ppm", "--class", "1",
                                     "--out", f"seeds-{model}"])]
    return runs


def collect(root: Path) -> dict[str, bytes]:
    """Run every command in `root`; artifact name -> bytes."""
    root = Path(root)
    (root / "c07.cfg").write_text(C07_CONFIG, encoding="utf-8")
    stdouts = {}
    for name, argv in commands():
        argv = [str(root / a) if a.startswith(("data", "c07", "wide", "seeds-")) else a
                for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"{name} exited {rc}")
        stdouts[f"stdout/{name}"] = out.getvalue().replace(str(root), "<root>").encode()
    files = {p.relative_to(root).as_posix(): p.read_bytes()
             for p in sorted(root.rglob("*")) if p.is_file() and p.name != "c07.cfg"}
    return {**files, **stdouts}


def environment() -> dict:
    """What the bits of a float64 result depend on, besides the code."""
    blas, simd = "unknown", []
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
        simd = list(config["SIMD Extensions"]["found"])
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        pass
    return {"python": platform.python_version(), "machine": platform.machine(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas, "simd": simd}


def summarize(name: str, data: bytes):
    """The decoded content of an artifact that tolerance mode compares."""
    suffix = Path(name).suffix
    if name.startswith("stdout/") or suffix == ".json":
        return json.loads(data)
    if suffix == ".jsonl":
        return [json.loads(line) for line in data.decode().splitlines()]
    if suffix in (".ppm", ".pgm"):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"x{suffix}"
            path.write_bytes(data)
            pixels = netpbm.read_netpbm(path).astype(np.int64)
        return {"shape": list(pixels.shape), "sum": int(pixels.sum()),
                "pixels": pixels.ravel().tolist() if pixels.size <= 256 else None}
    if suffix == ".ckpt":
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.ckpt"
            path.write_bytes(data)
            params, cfg = vit.load_checkpoint(path)
        return {"config": repr(cfg),
                "tensors": {k: [list(p.shape), float(p.data.sum()),
                                float(np.abs(p.data).sum())] for k, p in params.items()}}
    return data.decode()


def agree(got, want, where: str = "") -> list[str]:
    """Where two summaries differ beyond the tolerances; [] if nowhere."""
    if isinstance(want, dict) and "pixels" in want and "sum" in want:
        if not isinstance(got, dict) or got["shape"] != want["shape"]:
            return [f"{where}: shape {got} != {want}"]
        if want["pixels"] is not None:
            worst = max(abs(a - b) for a, b in zip(got["pixels"], want["pixels"]))
            return [f"{where}: pixels differ by {worst}"] if worst > PIXEL_TOL else []
        size = int(np.prod(want["shape"]))
        return [f"{where}: pixel sum"] if abs(got["sum"] - want["sum"]) > PIXEL_TOL * size else []
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys differ"]
        return [m for k in want for m in agree(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in agree(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        ok = abs(got - want) <= RTOL * max(1.0, abs(got), abs(want))
        return [] if ok else [f"{where}: {got!r} != {want!r}"]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_manifest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = collect(Path(tmp))
    manifest = {"environment": environment(), "rtol": RTOL, "pixel_tol": PIXEL_TOL,
                "artifacts": {name: {"sha256": sha256(data), "summary": summarize(name, data)}
                              for name, data in sorted(artifacts.items())}}
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(artifacts)} artifacts to {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    write_manifest()
