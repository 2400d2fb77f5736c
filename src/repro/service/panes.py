"""Shared tumbling-window aggregation via partial-aggregate panes.

Queries with compatible tumbling windows — same route, same grouping,
same aggregate list, window widths that share an exact common divisor —
can share the expensive part of aggregation: one :class:`PaneAggregate`
folds every record into per-(pane, group) partial states at the finest
compatible granularity (the gcd of the registered widths, the "pane" of
Arasu & Widom's shared sliding-window evaluation, realized here with
the LFTA/HFTA partial-state machinery of :mod:`repro.gigascope`), and
one cheap :class:`PaneMerge` per distinct query window merges closed
panes into that query's buckets.

The pair is certified element-identical to the direct
:class:`~repro.operators.aggregate.WindowedAggregate`, which requires
mirroring its trigger discipline exactly:

* the direct operator closes buckets *before* accumulating the record
  that advanced the watermark; the pane closes its panes first and
  emits an internal watermark signal, so the merge closes the same
  buckets inside the same element's output;
* whenever the watermark crosses a bucket end, the pane containing the
  previous watermark is still open (a pane only closes once the
  watermark passes its end), so closing panes always fires the signal
  the merge needs — empty trailing panes cannot delay a bucket;
* late records re-open their pane, the pane re-closes it on the next
  element, and the merge re-emits the resurrected bucket — matching
  the direct operator's late-data behavior position for position.

Partial rows carry the *pane start time* (not a pane index) in
``PANE_ATTR``, so a merge computes the target bucket from its own
window alone and the pane granularity can be renegotiated (a new
compatible query shrinks the gcd) before any data has flowed without
touching the merges.

Only order-insensitive aggregates may take this path: merging pane
states replays additions in pane order, not arrival order, so
``first``/``last``/rank-based aggregates are excluded
(:data:`PANE_SAFE_FUNCS`).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.aggregates.spec import AggSpec
from repro.core.tuples import Punctuation, Record
from repro.errors import WindowError
from repro.operators.aggregate import (
    _GroupState,
    _copy_table,
    _normalize_group_by,
)
from repro.operators.base import Element, UnaryOperator
from repro.operators.partial_aggregate import STATES_ATTR
from repro.windows.spec import TumblingWindow

__all__ = [
    "PANE_ATTR",
    "PANE_MARK",
    "PANE_SAFE_FUNCS",
    "PaneAggregate",
    "PaneMerge",
    "pane_safe",
]

#: Reserved attribute carrying the pane's start time in partial rows.
PANE_ATTR = "_pane"
#: Pattern attribute marking internal watermark signals (consumed by
#: :class:`PaneMerge`, never forwarded to query outputs).
PANE_MARK = "_pane_wm"

#: Aggregate registry names whose merge is arrival-order insensitive,
#: making pane decomposition exact.  (``stdev`` is the registry's
#: spelling; ``first``/``last``/``median``/``quantile`` are excluded —
#: their merged result depends on the order contributions arrive.)
PANE_SAFE_FUNCS = frozenset(
    {"count", "sum", "min", "max", "avg", "stdev", "count_distinct"}
)


def pane_safe(aggregates: Sequence[AggSpec]) -> bool:
    """Whether every aggregate's function may be pane-decomposed."""
    for spec in aggregates:
        func = spec._func
        if not isinstance(func, str) or func not in PANE_SAFE_FUNCS:
            return False
    return True


class PaneAggregate(UnaryOperator):
    """Shared fine-grained partial aggregation over tumbling panes."""

    def __init__(
        self,
        pane: TumblingWindow,
        group_by: Sequence,
        aggregates: Sequence[AggSpec],
        name: str = "pane_aggregate",
        ts_attr: str = "ts",
        cost_per_tuple: float = 1.0,
    ) -> None:
        super().__init__(name, cost_per_tuple, selectivity=1.0)
        if not isinstance(pane, TumblingWindow):
            raise WindowError("pane aggregation requires a tumbling pane")
        if not pane_safe(aggregates):
            raise WindowError(
                "pane aggregation requires order-insensitive aggregates; "
                f"allowed functions: {sorted(PANE_SAFE_FUNCS)}"
            )
        self.pane = pane
        self.group_by = _normalize_group_by(group_by)
        self.aggregates = list(aggregates)
        self.ts_attr = ts_attr
        self._panes: dict[int, dict[tuple, _GroupState]] = {}
        self._watermark = float("-inf")

    def _signal(self, bound: float) -> Punctuation:
        return Punctuation.of(
            {self.ts_attr: (None, bound), PANE_MARK: (None, bound)},
            ts=bound,
        )

    def _close_panes(self, upto_ts: float) -> list[Element]:
        out: list[Element] = []
        closeable = sorted(
            p
            for p in self._panes
            if self.pane.bucket_start(p + 1) <= upto_ts
        )
        for pane_idx in closeable:
            groups = self._panes.pop(pane_idx)
            start = self.pane.bucket_start(pane_idx)
            end = self.pane.bucket_start(pane_idx + 1)
            for key in sorted(groups, key=repr):
                state = groups[key]
                values = dict(state.key_values)
                values[PANE_ATTR] = start
                values[STATES_ATTR] = list(state.states)
                out.append(Record(values, ts=end))
        return out

    def on_record(self, record: Record, port: int) -> list[Element]:
        if record.ts > self._watermark:
            self._watermark = record.ts
        out = self._close_panes(self._watermark)
        if out:
            out.append(self._signal(self._watermark))
        pane_idx = self.pane.bucket_of(record.ts)
        groups = self._panes.setdefault(pane_idx, {})
        key = tuple(fn(record) for _name, fn in self.group_by)
        state = groups.get(key)
        if state is None:
            values = {name: fn(record) for name, fn in self.group_by}
            state = _GroupState(values, self.aggregates)
            groups[key] = state
        for spec, fn_state in zip(self.aggregates, state.states):
            fn_state.add(spec.extract(record))
        state.count += 1
        return out

    def process_batch(
        self, elements: Sequence[Element], port: int = 0
    ) -> list[Element]:
        # Hot path mirroring WindowedAggregate.process_batch: only scan
        # the open-pane table when the watermark crosses the earliest
        # open pane end.
        self._validate_port(port)
        pane = self.pane
        panes = self._panes
        group_by = self.group_by
        specs = self.aggregates
        min_end = min(
            (pane.bucket_start(p + 1) for p in panes),
            default=float("inf"),
        )
        out: list[Element] = []
        for el in elements:
            if isinstance(el, Punctuation):
                out.extend(self.on_punctuation(el, port))
                min_end = min(
                    (pane.bucket_start(p + 1) for p in panes),
                    default=float("inf"),
                )
                continue
            ts = el.ts
            if ts > self._watermark:
                self._watermark = ts
            if self._watermark >= min_end:
                closed = self._close_panes(self._watermark)
                if closed:
                    out.extend(closed)
                    out.append(self._signal(self._watermark))
                min_end = min(
                    (pane.bucket_start(p + 1) for p in panes),
                    default=float("inf"),
                )
            pane_idx = pane.bucket_of(ts)
            groups = panes.get(pane_idx)
            if groups is None:
                groups = {}
                panes[pane_idx] = groups
                end = pane.bucket_start(pane_idx + 1)
                if end < min_end:
                    min_end = end
            key = tuple(fn(el) for _name, fn in group_by)
            state = groups.get(key)
            if state is None:
                values = {name: fn(el) for name, fn in group_by}
                state = _GroupState(values, specs)
                groups[key] = state
            for spec, fn_state in zip(specs, state.states):
                fn_state.add(spec.extract(el))
            state.count += 1
        return out

    def on_punctuation(self, punct: Punctuation, port: int) -> list[Element]:
        out: list[Element] = []
        bound = punct.bound_for(self.ts_attr)
        if bound is not None:
            if bound > self._watermark:
                self._watermark = bound
            out.extend(self._close_panes(self._watermark))
        # The real punctuation reaches every merge, which closes its own
        # buckets from the bound — no internal signal needed here.
        out.append(punct)
        return out

    def flush(self) -> list[Element]:
        out = self._close_panes(float("inf"))
        if out:
            out.append(self._signal(float("inf")))
        return out

    def reset(self) -> None:
        self._panes.clear()
        self._watermark = float("-inf")

    def snapshot(self) -> object:
        return {
            "panes": _copy_table(self._panes),
            "watermark": self._watermark,
        }

    def restore(self, state: object) -> None:
        self._panes = _copy_table(state["panes"])
        self._watermark = state["watermark"]

    def memory(self) -> float:
        return float(sum(len(g) for g in self._panes.values()))


class PaneMerge(UnaryOperator):
    """Per-query merge of shared panes into the query's buckets.

    Consumes pane partial rows and watermark signals; emits exactly the
    rows the query's direct :class:`WindowedAggregate` would: buckets
    ascending, groups sorted by key repr, row ``ts`` at bucket end, the
    bucket id in ``bucket_attr``, HAVING applied to the final row.
    """

    def __init__(
        self,
        window: TumblingWindow,
        group_names: Sequence[str],
        aggregates: Sequence[AggSpec],
        having: Callable[[Record], bool] | None = None,
        name: str = "pane_merge",
        bucket_attr: str = "tb",
        ts_attr: str = "ts",
        cost_per_tuple: float = 1.0,
    ) -> None:
        super().__init__(name, cost_per_tuple, selectivity=1.0)
        if not isinstance(window, TumblingWindow):
            raise WindowError("pane merge requires a tumbling window")
        self.window = window
        self.group_names = list(group_names)
        self.aggregates = list(aggregates)
        self.having = having
        self.bucket_attr = bucket_attr
        self.ts_attr = ts_attr
        # bucket -> group key tuple -> (key_values, states)
        self._buckets: dict[int, dict[tuple, tuple[dict, list]]] = {}

    def _close_buckets(self, upto_ts: float) -> list[Element]:
        out: list[Element] = []
        closeable = sorted(
            b
            for b in self._buckets
            if self.window.bucket_start(b + 1) <= upto_ts
        )
        for bucket in closeable:
            groups = self._buckets.pop(bucket)
            end_ts = self.window.bucket_start(bucket + 1)
            for key in sorted(groups, key=repr):
                key_values, states = groups[key]
                values = dict(key_values)
                values[self.bucket_attr] = bucket
                for spec, st in zip(self.aggregates, states):
                    values[spec.name] = st.result()
                row = Record(values, ts=end_ts)
                if self.having is None or self.having(row):
                    out.append(row)
        return out

    def on_record(self, record: Record, port: int) -> list[Element]:
        bucket = self.window.bucket_of(record[PANE_ATTR])
        key = record.key(self.group_names)
        groups = self._buckets.setdefault(bucket, {})
        entry = groups.get(key)
        if entry is None:
            key_values = {a: record[a] for a in self.group_names}
            states = [spec.new_state() for spec in self.aggregates]
            entry = (key_values, states)
            groups[key] = entry
        for mine, theirs in zip(entry[1], record[STATES_ATTR]):
            mine.merge(theirs)
        return []

    def process_batch(
        self, elements: Sequence[Element], port: int = 0
    ) -> list[Element]:
        self._validate_port(port)
        out: list[Element] = []
        for el in elements:
            if isinstance(el, Punctuation):
                out.extend(self.on_punctuation(el, port))
            else:
                self.on_record(el, port)
        return out

    def on_punctuation(self, punct: Punctuation, port: int) -> list[Element]:
        bound = punct.bound_for(self.ts_attr)
        out: list[Element] = []
        if bound is not None:
            out.extend(self._close_buckets(bound))
        if punct.bound_for(PANE_MARK) is not None:
            # Internal watermark signal: never part of the query output.
            return out
        out.append(punct)
        return out

    def flush(self) -> list[Element]:
        return self._close_buckets(float("inf"))

    def reset(self) -> None:
        self._buckets.clear()

    def snapshot(self) -> object:
        return {"buckets": _copy_table(self._buckets)}

    def restore(self, state: object) -> None:
        self._buckets = _copy_table(state["buckets"])

    def memory(self) -> float:
        return float(sum(len(g) for g in self._buckets.values()))
