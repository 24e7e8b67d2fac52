"""Binary netpbm images: P5 (grayscale) and P6 (RGB), maxval 255.

Hand-rolled so the on-disk dataset has zero image-library dependencies
and byte-identical output for identical input.
"""

from __future__ import annotations

import os

import numpy as np

from .atomicio import atomic_open
from .errors import ContractError, DimensionError


def _header(kind: bytes, w: int, h: int) -> bytes:
    return kind + b"\n%d %d\n255\n" % (w, h)


def write_pgm(path: os.PathLike | str, gray: np.ndarray) -> None:
    """(H, W) uint8 array -> binary P5 file, replaced atomically."""
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise DimensionError(f"P5 wants (H, W), got shape {gray.shape}")
    if gray.dtype != np.uint8:
        raise ContractError(f"P5 wants uint8 pixels, got {gray.dtype}")
    h, w = gray.shape
    with atomic_open(path) as fh:
        fh.write(_header(b"P5", w, h))
        fh.write(gray.tobytes())


def write_ppm(path: os.PathLike | str, rgb: np.ndarray) -> None:
    """(3, H, W) uint8 array -> binary P6 file (interleaved on disk),
    replaced atomically."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[0] != 3:
        raise DimensionError(f"P6 wants (3, H, W), got shape {rgb.shape}")
    if rgb.dtype != np.uint8:
        raise ContractError(f"P6 wants uint8 pixels, got {rgb.dtype}")
    _, h, w = rgb.shape
    with atomic_open(path) as fh:
        fh.write(_header(b"P6", w, h))
        fh.write(np.ascontiguousarray(rgb.transpose(1, 2, 0)).tobytes())


def _read_tokens(data: bytes, count: int, path: os.PathLike | str) -> tuple[list[int], int]:
    """First `count` whitespace/comment-delimited integer tokens after the
    magic of the file at `path`, and the offset where the raster starts."""
    tokens: list[int] = []
    i = 2  # past the magic
    while len(tokens) < count:
        if i >= len(data):
            raise ContractError(f"{path}: truncated netpbm header")
        ch = data[i:i + 1]
        if ch == b"#":
            i = data.find(b"\n", i)
            if i < 0:
                raise ContractError(f"{path}: unterminated comment in netpbm header")
            i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            tok = data[i:j]
            if not tok.isdigit():
                raise ContractError(f"{path}: bad netpbm header token {tok!r}")
            tokens.append(int(tok))
            i = j
    return tokens, i + 1  # single whitespace byte separates maxval from raster


def read_netpbm(path: os.PathLike | str) -> np.ndarray:
    """Read P5 -> (H, W) uint8 or P6 -> (3, H, W) uint8. A malformed file
    raises ContractError naming its path."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise ContractError(f"{path}: unsupported netpbm magic {magic!r}")
    (w, h, maxval), start = _read_tokens(data, 3, path)
    if maxval != 255:
        raise ContractError(f"{path}: only maxval 255 is supported, got {maxval}")
    channels = 3 if magic == b"P6" else 1
    need = w * h * channels
    raster = data[start:start + need]
    if len(raster) != need:
        raise ContractError(f"{path}: raster has {len(raster)} bytes, expected {need}")
    flat = np.frombuffer(raster, dtype=np.uint8)
    if magic == b"P5":
        return flat.reshape(h, w).copy()
    return np.ascontiguousarray(flat.reshape(h, w, 3).transpose(2, 0, 1))
