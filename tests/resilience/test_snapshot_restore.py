"""Property tests for the operator snapshot/restore protocol.

The checkpoint contract is: ``snapshot()`` at any element boundary,
process arbitrary further input, ``restore()`` the snapshot onto a fresh
identically-configured operator — and feeding the same further input
must reproduce *identical* output (including flush).  The supervisor's
recovery correctness reduces exactly to this property, so it is driven
with hypothesis over random streams and split points for every stateful
operator family, plus an engine-level checkpoint round-trip.

A second property guards detachment: restoring must not alias state
into the snapshot, so one checkpoint can seed many restores (a shard
that crashes twice restores the same snapshot twice).

Both properties also run over float-valued streams for the aggregate
family: float sums keep a multi-element exact-sum expansion, which their
snapshots copy by hand rather than through ``copy.deepcopy``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Engine, ListSource, Plan, Punctuation, Record
from repro.core.graph import linear_plan
from repro.errors import PlanError
from repro.operators import (
    AggSpec,
    Aggregate,
    DistinctProject,
    Select,
    SymmetricHashJoin,
    WindowJoin,
    WindowedAggregate,
)
from repro.operators.base import CompiledChain
from repro.operators.partial_aggregate import (
    FinalAggregate,
    GroupPartial,
    PartialAggregate,
)
from repro.operators.punctuate import Heartbeat, PunctuationCounter
from repro.operators.sort import Limit, Sort
from repro.operators.streamify import DStream, IStream, RStream
from repro.operators.union import OrderedMerge
from repro.service.panes import PaneAggregate, PaneMerge
from repro.windows import RowWindow, TimeWindow, TumblingWindow
from tests.operators.test_batch_properties import canon_list

# --------------------------------------------------------------------------
# stream generators
# --------------------------------------------------------------------------


INT_VALUES = st.integers(min_value=-5, max_value=5)
#: Magnitudes far enough apart that float sums grow multi-element
#: exact-sum partials.
FLOAT_VALUES = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def element_streams(
    draw, n_keys=4, max_len=40, with_puncts=True, values=INT_VALUES
):
    length = draw(st.integers(min_value=0, max_value=max_len))
    elements = []
    ts = 0.0
    for seq in range(length):
        ts += draw(st.floats(min_value=0.0, max_value=3.0, width=16))
        if with_puncts and draw(st.booleans()) and draw(st.booleans()):
            elements.append(Punctuation.time_bound("ts", ts, ts=ts))
            continue
        elements.append(
            Record(
                {
                    "ts": ts,
                    "k": draw(st.integers(min_value=0, max_value=n_keys - 1)),
                    "v": draw(values),
                },
                ts=ts,
                seq=seq,
            )
        )
    return elements


#: Every exact registry function besides count and sum.
EXACT_FUNCS = (
    "min", "max", "avg", "stdev", "first", "last", "count_distinct",
    "median",
)


def _sum_specs():
    return [
        AggSpec("n", "count"),
        AggSpec("s", "sum", "v"),
        AggSpec("a", "avg", "v"),
    ]


OPERATOR_FACTORIES = {
    "aggregate": lambda: Aggregate(
        ["k"], [AggSpec("n", "count"), AggSpec("s", "sum", "v")]
    ),
    "tumbling_aggregate": lambda: WindowedAggregate(
        TumblingWindow(4.0), ["k"], [AggSpec("n", "count")]
    ),
    "group_partial": lambda: GroupPartial(
        ["k"], [AggSpec("n", "count"), AggSpec("s", "sum", "v")]
    ),
    "distinct": lambda: DistinctProject(["k"]),
    "windowed_distinct": lambda: DistinctProject(["k"], window=6.0),
    "sort_limit": lambda: Sort([("v", False), ("ts", True)], limit=10),
    "limit": lambda: Limit(7),
    "heartbeat": lambda: Heartbeat(interval=2.0),
    "punct_counter": lambda: PunctuationCounter(),
    "istream": lambda: IStream(),
    "dstream": lambda: DStream(),
    "rstream": lambda: RStream(),
    "chain": lambda: CompiledChain(
        [
            Select(lambda r: r["v"] != 0, name="nz"),
            Aggregate(["k"], [AggSpec("n", "count")], name="agg"),
        ]
    ),
    "partial_final": lambda: CompiledChain(
        [
            PartialAggregate(
                TumblingWindow(4.0), ["k"], _sum_specs(), max_groups=2
            ),
            FinalAggregate(["k"], _sum_specs()),
        ]
    ),
    "pane_merge": lambda: CompiledChain(
        [
            PaneAggregate(TumblingWindow(2.0), ["k"], _sum_specs()),
            PaneMerge(TumblingWindow(4.0), ["k"], _sum_specs()),
        ]
    ),
    "aggregate_all_functions": lambda: Aggregate(
        ["k"],
        [
            AggSpec(func, func, "v")
            for func in EXACT_FUNCS + ("approx_count_distinct",)
        ],
    ),
}

#: The operators whose state aggregates ``v``: the float-valued variants
#: of the two properties run over these.
AGGREGATING_KINDS = (
    "aggregate", "aggregate_all_functions", "group_partial",
    "pane_merge", "partial_final",
)


def _drive(op, elements, port=0):
    out = []
    for el in elements:
        out.extend(op.process(el, port))
    return out


def _check_roundtrip(factory, elements, cut):
    prefix, suffix = elements[:cut], elements[cut:]

    original = factory()
    _drive(original, prefix)
    snap = original.snapshot()

    # Mutate the original past the snapshot point; the snapshot must
    # not notice (detachment).
    reference_tail = canon_list(
        _drive(original, suffix) + original.flush()
    )

    twin = factory()
    twin.restore(snap)
    twin_tail = canon_list(_drive(twin, suffix) + twin.flush())
    assert twin_tail == reference_tail


def _check_double_restore(factory, elements, cut):
    prefix, suffix = elements[:cut], elements[cut:]

    original = factory()
    _drive(original, prefix)
    snap = original.snapshot()

    tails = []
    for _ in range(2):
        twin = factory()
        twin.restore(snap)
        tails.append(canon_list(_drive(twin, suffix) + twin.flush()))
    assert tails[0] == tails[1]


@pytest.mark.parametrize("kind", sorted(OPERATOR_FACTORIES), ids=str)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_snapshot_mutate_restore_roundtrip(kind, data):
    """snapshot -> keep processing -> restore on a twin -> same output."""
    elements = data.draw(element_streams())
    cut = data.draw(st.integers(min_value=0, max_value=len(elements)))
    _check_roundtrip(OPERATOR_FACTORIES[kind], elements, cut)


@pytest.mark.parametrize("kind", AGGREGATING_KINDS, ids=str)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_float_snapshot_mutate_restore_roundtrip(kind, data):
    elements = data.draw(element_streams(values=FLOAT_VALUES))
    cut = data.draw(st.integers(min_value=0, max_value=len(elements)))
    _check_roundtrip(OPERATOR_FACTORIES[kind], elements, cut)


@pytest.mark.parametrize("kind", sorted(OPERATOR_FACTORIES), ids=str)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_snapshot_survives_double_restore(kind, data):
    """One checkpoint must seed multiple restores identically (a shard
    can crash again while recovering)."""
    elements = data.draw(element_streams(max_len=24))
    cut = data.draw(st.integers(min_value=0, max_value=len(elements)))
    _check_double_restore(OPERATOR_FACTORIES[kind], elements, cut)


@pytest.mark.parametrize("kind", AGGREGATING_KINDS, ids=str)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_float_snapshot_survives_double_restore(kind, data):
    elements = data.draw(element_streams(max_len=24, values=FLOAT_VALUES))
    cut = data.draw(st.integers(min_value=0, max_value=len(elements)))
    _check_double_restore(OPERATOR_FACTORIES[kind], elements, cut)


# --------------------------------------------------------------------------
# binary operators (two ports)
# --------------------------------------------------------------------------


BINARY_FACTORIES = {
    "shjoin": lambda: SymmetricHashJoin(["k"], ["k"]),
    "window_join": lambda: WindowJoin(
        TimeWindow(5.0), RowWindow(6), ["k"], ["k"]
    ),
    "ordered_merge": lambda: OrderedMerge(),
}


@pytest.mark.parametrize("kind", sorted(BINARY_FACTORIES), ids=str)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_binary_snapshot_roundtrip(kind, data):
    factory = BINARY_FACTORIES[kind]
    elements = data.draw(element_streams(with_puncts=kind != "shjoin"))
    ports = [
        data.draw(st.integers(min_value=0, max_value=1)) for _ in elements
    ]
    cut = data.draw(st.integers(min_value=0, max_value=len(elements)))

    original = factory()
    for el, port in zip(elements[:cut], ports[:cut]):
        original.process(el, port)
    snap = original.snapshot()
    reference_tail = []
    for el, port in zip(elements[cut:], ports[cut:]):
        reference_tail.extend(original.process(el, port))
    reference_tail.extend(original.flush())

    twin = factory()
    twin.restore(snap)
    twin_tail = []
    for el, port in zip(elements[cut:], ports[cut:]):
        twin_tail.extend(twin.process(el, port))
    twin_tail.extend(twin.flush())
    assert canon_list(twin_tail) == canon_list(reference_tail)


# --------------------------------------------------------------------------
# protocol edges
# --------------------------------------------------------------------------


def test_stateless_operator_snapshot_is_none():
    op = Select(lambda r: True)
    assert op.snapshot() is None
    op.restore(None)  # accepted
    with pytest.raises(PlanError, match="stateless"):
        op.restore({"bogus": 1})


def test_chain_restore_validates_length():
    chain = CompiledChain([Select(lambda r: True), Limit(3)])
    with pytest.raises(PlanError, match="states"):
        chain.restore([None])


# --------------------------------------------------------------------------
# engine-level checkpoints
# --------------------------------------------------------------------------


def _cdr_elements(n=60, every=12):
    out = []
    for i in range(n):
        out.append(
            Record(
                {"ts": float(i), "k": i % 5, "v": i % 3}, ts=float(i), seq=i
            )
        )
        if i % every == every - 1:
            out.append(Punctuation.time_bound("ts", float(i), ts=float(i)))
    return out


def _agg_plan():
    return linear_plan(
        "s",
        [
            Select(lambda r: r["v"] != 1, name="keep"),
            Aggregate(["k"], [AggSpec("n", "count")], name="agg"),
        ],
    )


def test_engine_checkpoint_restore_replays_identically():
    elements = _cdr_elements()
    clean = Engine(_agg_plan(), batch_size=2)
    clean.start()
    for el in elements:
        clean.feed("s", el)
    expected = clean.finish().outputs["out"]

    engine = Engine(_agg_plan(), batch_size=2)
    engine.start()
    cut = 30
    for el in elements[:cut]:
        engine.feed("s", el)
    cp = engine.checkpoint()
    # Wander off past the checkpoint, then rewind.
    for el in elements[cut : cut + 20]:
        engine.feed("s", el)
    engine.restore_checkpoint(cp)
    for el in elements[cut:]:
        engine.feed("s", el)
    assert engine.finish().outputs["out"] == expected


def test_engine_checkpoint_captures_watermarks():
    elements = _cdr_elements(n=30, every=10)
    engine = Engine(_agg_plan())
    engine.start()
    for el in elements:
        engine.feed("s", el)
    cp = engine.checkpoint()
    assert cp.watermarks["out"] == 29.0
    assert cp.output_lengths["out"] == len(
        engine._outputs["out"]
    )
    assert cp.operator_names == ["keep", "agg"]
    engine.finish()


def test_engine_checkpoint_requires_started_engine():
    engine = Engine(_agg_plan())
    with pytest.raises(PlanError, match="start"):
        engine.checkpoint()
    with pytest.raises(PlanError, match="start"):
        engine.restore_checkpoint(None)


def test_engine_checkpoint_rejects_mismatched_plan():
    engine = Engine(_agg_plan())
    engine.start()
    cp = engine.checkpoint()
    other = Engine(
        linear_plan("s", [Select(lambda r: True, name="other")])
    )
    other.start()
    with pytest.raises(PlanError, match="does not match"):
        other.restore_checkpoint(cp)
