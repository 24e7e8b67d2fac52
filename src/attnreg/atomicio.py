"""Atomic file writes: a reader sees the old file or the new one, never
a half-written one."""

from __future__ import annotations

import contextlib
import os
import secrets
from typing import BinaryIO, Iterator


@contextlib.contextmanager
def atomic_open(path) -> Iterator[BinaryIO]:
    """Open a binary file whose content replaces `path` when the block
    exits normally. The bytes go to a temporary file in the same directory,
    which os.replace moves over `path`; if the block raises, the temporary
    file is removed and `path` is left as it was."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str) -> None:
    """Write `text` as UTF-8 to `path` through atomic_open."""
    with atomic_open(path) as f:
        f.write(text.encode("utf-8"))
