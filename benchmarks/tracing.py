"""Outside-in tracing for the benchmark.

Spans are recorded from the benchmark's own files: around the calls the
benchmark makes itself, and around the package's public functions, which
are wrapped at the name each caller looks up (``attnreg.vit.forward`` for
the trainer's ``vit.forward(...)``, ``attnreg.regularizer.invert_attention``
for the regularizer's bare ``invert_attention(...)``). Nothing inside the
package changes. A hook whose target no longer exists, or that matched no
call, is reported as absent, so refactors inside the package cannot make
the benchmark crash.

Spans are kept in memory as ``[id, name, start, end, parent]`` and written
out once, when the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


class Tracer:
    """Single-threaded span recorder with counters; every span also counts
    one call under ``calls:<name>``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.counts["calls:" + name] += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def totals(self, first_span: int = 0) -> dict[str, dict]:
        """Per span name, over spans[first_span:]: call count, total wall
        time and total self time (duration minus the union of its
        children's intervals), in seconds."""
        children = defaultdict(list)
        for sid, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for sid, name, start, end, _ in self.spans[first_span:]:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                lo, hi = max(c_start, reach), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            entry = out[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - covered
        return dict(out)


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method``) in a span
    named ``span``. ``probe(tracer, args)`` runs first, in its own span,
    so its cost is not charged to the wrapped call or to its caller."""

    module: str
    attr: str
    span: str
    probe: Callable | None = None


def _resolve(hook: Hook):
    """(owner, attribute name, original) or None if the target is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


class Hooks:
    """Installs and removes the wrappers for a set of hooks."""

    def __init__(self, tracer: Tracer, hooks: tuple[Hook, ...]):
        self._targets = []
        self.missing = []
        for hook in hooks:
            resolved = _resolve(hook)
            if resolved is None:
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            owner, name, original = resolved
            self._targets.append((owner, name, original,
                                  _wrapper(tracer, hook, original)))

    def install(self) -> None:
        for owner, name, _, wrapper in self._targets:
            setattr(owner, name, wrapper)

    def remove(self) -> None:
        for owner, name, original, _ in self._targets:
            setattr(owner, name, original)


def _wrapper(tracer: Tracer, hook: Hook, original: Callable) -> Callable:
    span, probe = hook.span, hook.probe

    def wrapped(*args, **kwargs):
        if probe is not None:
            sid = tracer.begin("trace.probe")
            try:
                probe(tracer, args)
            finally:
                tracer.end(sid)
        sid = tracer.begin(span)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.end(sid)

    wrapped.__wrapped__ = original
    return wrapped


def tape_probe(tracer: Tracer, args) -> None:
    """Count the nodes on the tape about to be swept backward: total, per
    op name, and the bytes of their outputs (computed from ``nbytes``)."""
    nodes = getattr(args[0], "nodes", None) if args else None
    if nodes is None:
        return
    counts = tracer.counts
    counts["autodiff.nodes"] += len(nodes)
    for node in nodes:
        counts["autodiff.op." + str(getattr(node, "op", "?"))] += 1
        output = getattr(node, "output", None)
        counts["autodiff.bytes"] += int(getattr(getattr(output, "data", None), "nbytes", 0))
