"""Span tracer that wraps mmdufs's public functions from outside the package.

Each traced function is replaced in every mmdufs namespace that binds it:
``trainer`` and ``bench`` import their callees by name, and
``KernelConfig.resolve`` reads ``graph.median_bandwidth`` from its module, so
patching only the defining module would miss most calls. Methods of ``Tape``
and ``GateState.draw_noise`` are patched on their classes.

Spans are kept in memory as ``[name, start, end, parent, tag]``; counters sit
next to them. Nothing here imports numpy, so the runner's set-up timing is not
affected by importing this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("tape", "graph", "operators", "gates", "trainer", "datagen", "bench")
TAPE_METHODS = ("leaf", "constant", "apply", "backward", "grad")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_tape = None

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, hook=None, suffix=None):
        """A function that records a span around every call of ``fn``.

        ``hook(tracer, record, args, kwargs)`` runs before the clock starts and
        may add counts or set the record's tag. ``suffix(args, kwargs)``
        extends the span name, e.g. with a baseline's method name.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name if suffix is None else f"{name}.{suffix(args, kwargs)}",
                   0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            if hook is not None:
                hook(tracer, rec, args, kwargs)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    # -- patching --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for ns, attr, name, hook, suffix in targets():
                original = vars(ns)[attr]
                self._patches.append((ns, attr, original))
                setattr(ns, attr, self.wrap(name, original, hook, suffix))
            yield self
        finally:
            for ns, attr, original in reversed(self._patches):
                setattr(ns, attr, original)
            self._patches.clear()
            self._last_tape = None

    # -- summaries -------------------------------------------------------

    def summary(self, first: int = 0):
        """Per span name: total seconds, self seconds and calls, from span ``first`` on."""
        spans = self.spans
        child = defaultdict(float)
        for name, start, end, parent, _ in spans[first:]:
            if parent >= 0:
                child[parent] += end - start
        total, self_s, calls = defaultdict(float), defaultdict(float), Counter()
        for i in range(first, len(spans)):
            name, start, end, _, _ = spans[i]
            total[name] += end - start
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return total, self_s, calls

    def epoch_durations(self, first: int = 0) -> list[float]:
        """Seconds per epoch of every traced ``train`` call from span ``first`` on.

        An epoch starts at the first ``GateState.draw_noise`` of the epoch:
        each draw by the gate state that drew first in the call.
        """
        starts = defaultdict(list)
        lead = {}
        for name, start, _, parent, tag in self.spans[first:]:
            if name == "gates.draw_noise" and parent >= 0:
                lead.setdefault(parent, tag)
                if tag == lead[parent]:
                    starts[parent].append(start)
        out = []
        for parent, marks in starts.items():
            if self.spans[parent][0] != "trainer.train":
                continue
            marks.append(self.spans[parent][2])
            out.extend(b - a for a, b in zip(marks, marks[1:]))
        return out


def targets():
    """(namespace, attribute, span name, hook, suffix) for every traced callable."""
    mods = {m: importlib.import_module(f"mmdufs.{m}") for m in MODULES}
    namespaces = [mod for key, mod in sys.modules.items()
                  if key == "mmdufs" or key.startswith("mmdufs.")]
    out = []
    for short, mod in mods.items():
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn):
                continue
            # Baseline spans are named per method: bench.baseline_select.MC.
            suffix = _method_suffix if (short, attr) == ("bench", "baseline_select") else None
            for ns in namespaces:
                for bound, value in vars(ns).items():
                    if value is fn:
                        out.append((ns, bound, f"{short}.{attr}", None, suffix))
    tape_hooks = {"matmul": _matmul_hook, "backward": _backward_hook}
    for attr in mods["tape"].PRIMITIVES + TAPE_METHODS:
        out.append((mods["tape"].Tape, attr, f"tape.{attr}", tape_hooks.get(attr), None))
    out.append((mods["gates"].GateState, "draw_noise", "gates.draw_noise", _noise_hook, None))
    return out


def snapshot() -> list[tuple[object, str, object]]:
    """The current binding of every target, for checking restoration later."""
    return [(ns, attr, vars(ns)[attr]) for ns, attr, *_ in targets()]


def unrestored(before) -> list[str]:
    """Targets of a snapshot whose binding has changed since it was taken."""
    return [f"{ns.__name__}.{attr}" for ns, attr, original in before
            if vars(ns)[attr] is not original]


def _method_suffix(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("method")


def _matmul_hook(tracer, rec, args, kwargs):
    a, b = args[1].value, args[2].value
    if a.ndim == 2 and b.ndim == 2:
        tracer.counts["tape.matmul.flop"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _backward_hook(tracer, rec, args, kwargs):
    """Count the nodes and distinct array bytes a tape holds, once per tape."""
    tape = args[0]
    if tracer._last_tape is not None and tracer._last_tape() is tape:
        return
    tracer._last_tape = weakref.ref(tape)
    seen, held = set(), 0
    for node in tape.nodes:
        cache = node.cache if isinstance(node.cache, tuple) else (node.cache,)
        for arr in (node.value, *cache):
            if hasattr(arr, "nbytes") and id(arr) not in seen:
                seen.add(id(arr))
                held += arr.nbytes
    tracer.counts["tape.nodes"] += len(tape.nodes)
    tracer.counts["tape.recorded_bytes"] += held


def _noise_hook(tracer, rec, args, kwargs):
    rec[4] = id(args[0])
