"""An in-memory span tracer that measures the layers from outside.

The tracer wraps public entry points of the ``repro`` modules in the
run subprocess: each call becomes a span (name, start, end, parent)
kept in a list, plus counts taken from the call's arguments and result.
The program's code is untouched: the wrappers are installed by
replacing attributes at run time and removed again afterwards.

Entry points are resolved by name.  A module-level function is replaced
on its defining module *and* on every ``repro`` module that imported it
by name, so the call site sees the wrapper whichever module it looks
the name up in.  A method is replaced on its class.  When a name no
longer exists, its span is recorded as absent instead of failing, so a
later change that deletes an API does not break the benchmark.

A call into a span of the same name as the innermost open span is
folded into it (``atomic_write_json`` calling ``atomic_write_bytes`` is
one write), so every count is counted once.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

Counter = Callable[..., dict[str, float]]


@dataclass(frozen=True)
class Probe:
    """One layer boundary: a span name and the entry points that open it.

    ``targets`` are ``"module:qualname"`` strings; every one that exists
    is wrapped.  ``name`` is the span name, or a function of the call's
    arguments returning it (one span name per feature measure).
    ``before(args, kwargs)`` runs ahead of the call and its value is
    passed to ``after(state, args, kwargs, result)``, which returns the
    counts to add.
    """

    name: str | Callable[..., str]
    targets: tuple[str, ...]
    after: Counter | None = None
    before: Callable[..., Any] | None = None


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    absent: list[str] = field(default_factory=list)
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             probe: Probe) -> Any:
        stack = self._stack()
        if stack and self.spans[stack[-1]].name == name:
            return fn(*args, **kwargs)
        state = probe.before(args, kwargs) if probe.before else None
        index = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(index)
        if probe.after is not None:
            for key, value in probe.after(state, args, kwargs,
                                          result).items():
                self.counts[key] += value
        return result

    # -- installing wrappers -------------------------------------------

    def install(self, probes: list[Probe]) -> None:
        """Wrap every resolvable target; note probes with none left."""
        for probe in probes:
            found = [self._wrap(probe, target) for target in probe.targets]
            if not any(found):
                label = probe.name if isinstance(probe.name, str) else \
                    probe.targets[0]
                self.absent.append(label)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, probe: Probe, target: str) -> bool:
        module_name, _, qualname = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            return False
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        original = getattr(owner, attr, None)
        if original is None or getattr(original, "__perfbench__", False):
            return original is not None
        wrapper = self._wrapper(probe, original)
        if path:
            self._patch(owner, attr, original, wrapper)
            return True
        # A function: replace it wherever a repro module bound the name.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, alias, original, wrapper)
        return True

    def _patch(self, owner: Any, attr: str, original: Any,
               wrapper: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrapper(self, probe: Probe, original: Callable) -> Callable:
        tracer = self
        name = probe.name

        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            return tracer.call(span, original, args, kwargs, probe)

        traced.__name__ = getattr(original, "__name__", "traced")
        traced.__qualname__ = getattr(original, "__qualname__", "traced")
        traced.__doc__ = original.__doc__
        traced.__wrapped__ = original
        traced.__perfbench__ = True
        return traced

    # -- reading the trace ---------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's.

        Spans nest within one thread, so children's intervals never
        overlap and the self times of a tree sum to its root's duration.
        """
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: (inclusive seconds, self seconds)."""
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for span, self_time in zip(self.spans, self.self_times()):
            inclusive[span.name] += span.end - span.start
            own[span.name] += self_time
        return dict(inclusive), dict(own)

    def descends_from(self, index: int, root: int) -> bool:
        while index is not None:
            if index == root:
                return True
            index = self.spans[index].parent
        return False
