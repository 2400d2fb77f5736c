"""Span tracing of the engine's layers from outside the program.

The program has no spans of its own yet, so the traced run wraps each
layer's public entry points at run time (class attributes and module
functions), records one span per outermost call, and restores the
originals afterwards.  Untraced passes run the program untouched.

A span is ``(name, layer, start, end, parent)``; ``parent`` is the index
of the enclosing span (``-1`` for the root).  A call re-entering the
same object (``Engine.run`` -> ``self.start``, ``process_batch`` ->
``self.process``) stays inside the outer span instead of opening a
child, so an object's time is never split against itself.

Self time of a span is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap and the
self times of all spans of a pass add up to the root span's duration.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Callable, Iterable

#: Operator roles the per-operator metrics are keyed by.  Both chains of
#: the benchmark are select -> project -> aggregate; a sharded chain's
#: partial aggregate takes the aggregate role.
ROLES = ("select", "project", "aggregate")

OPERATOR_METHODS = (
    "process",
    "process_batch",
    "process_columns",
    "flush",
    "snapshot",
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        layer: str | Callable[[object], str],
        name: str,
        on_result: Callable | None = None,
    ) -> Callable:
        """A traced stand-in for ``fn``: one span per outermost call.

        ``layer`` is a string or a function of the receiver (operators
        take their role from their class).  ``on_result(receiver, args,
        result)`` runs after the span has closed.
        """
        spans = self.spans
        stack = self._stack
        clock = perf_counter
        layer_of = layer if callable(layer) else None

        def traced(obj, *args, **kwargs):
            if stack and stack[-1][1] is obj:
                return fn(obj, *args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((index, obj))
            start = clock()
            try:
                result = fn(obj, *args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_layer = layer_of(obj) if layer_of else layer
                spans[index] = (
                    f"{span_layer}.{name}", span_layer, start, end, parent
                )
            if on_result is not None:
                on_result(obj, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, layer: str, fn: Callable, *args):
        """Run ``fn(*args)`` inside an explicit span (the pass root)."""
        return self.wrap(lambda _obj, *a: fn(*a), layer, name)(
            object(), *args
        )

    # -- patching ----------------------------------------------------------

    def patch_method(self, cls: type, attr: str, layer, on_result=None) -> None:
        """Wrap ``cls.attr``; ``cls`` must define it itself.

        A missing entry point raises ``AttributeError``, so a refactor
        that removes or moves one fails the traced run instead of
        quietly zeroing a layer metric.
        """
        original = cls.__dict__.get(attr)
        if original is None:
            raise AttributeError(
                f"traced entry point {cls.__qualname__}.{attr} is missing"
            )
        if isinstance(original, classmethod):
            traced = self.wrap(original.__func__, layer, attr, on_result)
            replacement = classmethod(traced)
        else:
            replacement = self.wrap(original, layer, attr, on_result)
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, original))

    def patch_function(
        self, module, attr: str, layer: str, on_result=None
    ) -> None:
        """Wrap a module function everywhere it is bound by name.

        Modules that imported it with ``from ... import`` hold their own
        reference, so every loaded ``repro`` module is rebound.
        """
        original = getattr(module, attr)
        # The function object stands in as the receiver, so only its own
        # recursion collapses into one span.
        wrapped = self.wrap(
            lambda _fn, *a, **k: original(*a, **k), layer, attr, on_result
        )

        def traced(*args, **kwargs):
            return wrapped(original, *args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
                self._patches.append((mod, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def install(self) -> None:
        """Patch every layer entry point the benchmark attributes time to.

        Only entry points the three workloads reach are patched, and a
        missing one raises (see :meth:`patch_method`).
        """
        for module, owner, attrs, layer in ENTRY_POINTS:
            for attr in attrs:
                if owner is None:
                    self.patch_function(_find(module), attr, layer)
                else:
                    self.patch_method(_find(module, owner), attr, layer)

        roles: dict[type, str] = {}

        def role(op) -> str:
            found = roles.get(type(op))
            if found is None:
                found = roles[type(op)] = f"operators.{_role(type(op))}"
            return found

        # Every operator class that defines one of the methods itself, so
        # an inherited method is wrapped once, where it is defined.
        for cls in _subclasses(_find("repro.operators.base", "Operator")):
            for attr in OPERATOR_METHODS:
                if attr in cls.__dict__:
                    self.patch_method(cls, attr, role)

        def count_rows(_cls, _args, batch) -> None:
            self.column_batches += 1
            self.column_rows += batch.length

        self.patch_method(
            _find("repro.columnar.batch", "ColumnBatch"), "from_rows",
            "columnar", count_rows,
        )

        def count_shards(_obj, _args, buckets) -> None:
            if not self.shard_records:
                self.shard_records = [0] * len(buckets)
            for shard, bucket in enumerate(buckets):
                self.shard_records[shard] += len(bucket)

        partition = "repro.parallel.partition"
        self.patch_method(
            _find(partition, "HashPartition"), "split", "parallel.partition",
            count_shards,
        )

        def count_epochs(_fn, _args, epochs) -> None:
            self.epochs_resident = max(self.epochs_resident, len(epochs))

        self.patch_function(
            _find(partition), "split_epochs", "parallel.partition", count_epochs
        )
        self.watch_retention()

    def watch_retention(self) -> None:
        """Track the most epochs a ``RecordLog`` holds, after every append."""

        def count_retained(log, _args, _result) -> None:
            self.retained_epochs = max(self.retained_epochs, log.n_epochs)

        self.patch_method(
            _find("repro.replay.log", "RecordLog"), "append", "replay.log",
            count_retained,
        )

    def reset(self) -> None:
        """Forget recorded spans and counters (patches stay)."""
        self.spans.clear()
        self._stack.clear()
        #: Side counters filled by result hooks (outside span timing).
        self.shard_records: list[int] = []
        self.epochs_resident = 0
        self.retained_epochs = 0
        self.column_batches = 0
        self.column_rows = 0


#: Entry points traced without a result hook: ``(module, class or None
#: for module functions, attributes, layer)``.  Each is reached by at
#: least one workload.
ENTRY_POINTS = (
    ("repro.core.engine", "Engine",
     ("run", "start", "feed", "feed_batch", "finish", "checkpoint"),
     "core.engine"),
    ("repro.parallel.sharded", "ShardedEngine", ("run",), "parallel.sharded"),
    ("repro.parallel.combine", "BucketMerger",
     ("absorb", "close_upto", "close_all"), "parallel.combine"),
    ("repro.parallel.combine", None, ("merge_metrics",), "parallel.combine"),
    ("repro.observe.observer", "Observer",
     ("start_run", "finish_run", "timed_process", "timed_process_batch",
      "on_chunk"), "observe"),
    ("repro.replay.recorder", "Recorder",
     ("on_start", "on_element", "on_boundary", "on_finish"),
     "replay.recorder"),
    ("repro.replay.log", "RecordLog", ("add_checkpoint",), "replay.log"),
)


def _find(module: str, name: str | None = None):
    """A module, or a name in it; raises when either is missing."""
    found = importlib.import_module(module)
    return found if name is None else getattr(found, name)


def _role(cls: type) -> str:
    """The operator role of ``cls``: select, project, or aggregate."""
    for role in ("select", "project"):
        if issubclass(cls, _find(f"repro.operators.{role}", role.capitalize())):
            return role
    return "aggregate"


def _subclasses(cls: type) -> Iterable[type]:
    seen = {cls}
    todo = [cls]
    while todo:
        current = todo.pop()
        yield current
        for sub in current.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)


# -- span arithmetic ---------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Per-span self time: duration minus direct children's durations."""
    own = [end - start for _n, _l, start, end, _p in spans]
    for _n, _l, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_nesting(spans: list) -> None:
    """Raise ``ValueError`` unless every span lies inside its parent and
    siblings do not overlap."""
    last_child_end: dict[int, float] = {}
    for index, (name, _l, start, end, parent) in enumerate(spans):
        if end < start:
            raise ValueError(f"span {index} ({name}) ends before it starts")
        if parent >= index:
            raise ValueError(f"span {index} ({name}) opens before its parent")
        if parent >= 0:
            _pn, _pl, p_start, p_end, _pp = spans[parent]
            if start < p_start or end > p_end:
                raise ValueError(f"span {index} ({name}) escapes its parent")
            if start < last_child_end.get(parent, p_start):
                raise ValueError(f"span {index} ({name}) overlaps a sibling")
            last_child_end[parent] = end


def layer_totals(spans: list) -> dict[str, float]:
    """Self time summed per layer."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[1]] = totals.get(span[1], 0.0) + own
    return totals


def name_totals(spans: list) -> dict[str, float]:
    """Self time summed per span name."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals
