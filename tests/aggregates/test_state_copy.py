"""Explicit copies of aggregate state.

Checkpoints copy every group's aggregate states on each snapshot and
restore, through :meth:`AggregateFunction.copy` rather than
``copy.deepcopy``.  A copy must be detached from its source and must
carry the state exactly: fed the same further values, copy and source
give bit-identical results.  The snapshot/restore of every aggregate
operator must go through these copies and never fall back to
``copy.deepcopy``.
"""

from __future__ import annotations

import copy

import pytest

from repro.aggregates import AGGREGATE_REGISTRY, Sum
from repro.core import Punctuation, Record
from repro.operators import AggSpec, Aggregate, WindowedAggregate
from repro.operators.partial_aggregate import (
    FinalAggregate,
    GroupPartial,
    PartialAggregate,
)
from repro.service.panes import PANE_SAFE_FUNCS, PaneAggregate, PaneMerge
from repro.windows import TumblingWindow
from tests.operators.test_batch_properties import canon_list

#: Floats spread over 30 orders of magnitude: their exact sum needs a
#: multi-element partials expansion.
FIRST = [0.1 * i + 10.0 ** (3 * (i % 7)) for i in range(20)]
MORE = [-(10.0 ** (3 * (i % 5))) + 0.3 * i for i in range(15)]


def _fill(fn, values):
    for v in values:
        fn.add(v)
    return fn


def test_float_inputs_grow_multi_element_partials():
    assert len(_fill(Sum(), FIRST)._sum.partials) > 1


@pytest.mark.parametrize("name", sorted(AGGREGATE_REGISTRY))
def test_copy_is_detached(name):
    source = _fill(AGGREGATE_REGISTRY[name](), FIRST)
    clone = source.copy()
    assert type(clone) is type(source)
    before = repr(clone.result())
    _fill(source, MORE)
    assert repr(clone.result()) == before


@pytest.mark.parametrize("name", sorted(AGGREGATE_REGISTRY))
def test_copy_continues_bit_identically(name):
    source = _fill(AGGREGATE_REGISTRY[name](), FIRST)
    clone = source.copy()
    _fill(source, MORE)
    _fill(clone, MORE)
    assert repr(clone.result()) == repr(source.result())


# --------------------------------------------------------------------------
# operator snapshots never deep-copy the group tables
# --------------------------------------------------------------------------

EXACT_FUNCS = sorted(
    name for name in AGGREGATE_REGISTRY if not name.startswith("approx_")
)


def _specs(funcs):
    return [AggSpec(f"a_{f}", f, "v") for f in funcs]


def _exact():
    return _specs(EXACT_FUNCS)


def _pane_safe():
    return _specs(sorted(PANE_SAFE_FUNCS))


#: operator under test -> (pipeline factory, its position in the pipeline)
PIPELINES = {
    "Aggregate": (lambda: [Aggregate(["k"], _exact())], 0),
    "WindowedAggregate": (
        lambda: [WindowedAggregate(TumblingWindow(4.0), ["k"], _exact())],
        0,
    ),
    "GroupPartial": (lambda: [GroupPartial(["k"], _exact())], 0),
    "PartialAggregate": (
        lambda: [
            PartialAggregate(
                TumblingWindow(4.0), ["k"], _exact(), max_groups=2
            ),
            FinalAggregate(["k"], _exact()),
        ],
        0,
    ),
    "FinalAggregate": (lambda: PIPELINES["PartialAggregate"][0](), 1),
    "PaneAggregate": (
        lambda: [
            PaneAggregate(TumblingWindow(2.0), ["k"], _pane_safe()),
            PaneMerge(TumblingWindow(4.0), ["k"], _pane_safe()),
        ],
        0,
    ),
    "PaneMerge": (lambda: PIPELINES["PaneAggregate"][0](), 1),
}


def _elements():
    # Stops inside the first 4.0-wide bucket, after one 2.0-wide pane
    # closed, so every operator in every pipeline holds open state.
    out = []
    for i in range(14):
        ts = i * 0.25
        out.append(
            Record({"ts": ts, "k": i % 4, "v": FIRST[i]}, ts=ts, seq=i)
        )
        if i == 9:
            out.append(Punctuation.time_bound("ts", ts, ts=ts))
    return out


def _drive(ops, elements):
    for op in ops:
        out = []
        for el in elements:
            out.extend(op.process(el, 0))
        elements = out


def _no_deepcopy(*args, **kwargs):
    raise AssertionError("copy.deepcopy called")


@pytest.mark.parametrize("kind", sorted(PIPELINES))
def test_snapshot_and_double_restore_without_deepcopy(kind, monkeypatch):
    factory, index = PIPELINES[kind]
    ops = factory()
    _drive(ops, _elements())
    original = ops[index]
    assert original.memory() > 0

    monkeypatch.setattr(copy, "deepcopy", _no_deepcopy)
    snap = original.snapshot()
    tails = []
    for _ in range(2):
        twin = factory()[index]
        twin.restore(snap)
        tails.append(canon_list(twin.flush()))
    monkeypatch.undo()

    expected = canon_list(original.flush())
    assert expected
    assert tails == [expected, expected]
