"""Differential certification of the columnar execution tier.

Columnar execution — vectorized kernels, sliced ingress, sharded
columnar workers, and live representation migrations — is only allowed
to change how fast a plan runs, never what it emits.
This suite reuses the plan registry of the batch differential
(``tests/core/test_batch_equivalence.py``) and holds every columnar
configuration to element-for-element identity with the tuple-at-a-time
baseline: records *and* punctuations, in order, on every declared
output.

Covered axes:

* every registry plan (examples mirrors + generated grid, punctuated
  and unpunctuated) x batch sizes {1, 7, 256};
* sharded columnar execution on the thread and process backends;
* live ``SetRepresentation`` migrations (tuple -> columnar mid-run,
  selected by the adaptive controller from measured rates).
"""

from __future__ import annotations

import pytest

from repro.adaptive import AdaptiveConfig, AdaptiveEngine
from repro.adaptive.revision import SetRepresentation, chain_of
from repro.core import run_plan
from repro.parallel.partition import RoundRobinPartition
from repro.parallel.sharded import run_sharded

from tests.core.test_batch_equivalence import (
    ALL_PLANS,
    _assert_identical_outputs,
    _grid_chain,
    _assert_identical_outputs as assert_same,
)

BATCH_SIZES = [1, 7, 256]


def _baseline(build):
    plan, sources = build()
    result = run_plan(plan, sources, batch_size=1)
    assert result.outputs, "plan must produce at least one output stream"
    return result


@pytest.mark.parametrize("name", sorted(ALL_PLANS), ids=str)
def test_columnar_outputs_identical(name):
    """Columnar tier == tuple tier, every plan x batch size."""
    build = ALL_PLANS[name]
    baseline = _baseline(build)
    for batch_size in BATCH_SIZES:
        plan, sources = build()
        result = run_plan(
            plan, sources, batch_size=batch_size, representation="columnar"
        )
        _assert_identical_outputs(
            name, baseline, result, f"columnar@{batch_size}"
        )


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize(
    "name",
    [
        "cdr_select_project_aggregate",
        "cdr_select_project_aggregate_punctuated",
        "netflow_select_project_aggregate_punctuated",
    ],
    ids=str,
)
def test_sharded_columnar_identical(name, backend):
    """Sharded columnar workers == the single tuple engine."""
    build = ALL_PLANS[name]
    baseline = _baseline(build)
    plan, sources = build()
    result = run_sharded(
        plan,
        sources,
        RoundRobinPartition(2),
        batch_size=64,
        backend=backend,
        representation="columnar",
    )
    assert_same(name, baseline, result, f"sharded-columnar-{backend}")


# --------------------------------------------------------------------------
# live representation migrations
# --------------------------------------------------------------------------

SELECTOR = AdaptiveConfig(
    select_representation=True,
    decide_every=1,
    min_window_records=1,
    representation_threshold=0.5,
)

# Plans whose chain is >= 50% columnar-capable, so the controller's
# selector actually fires (punctuated variants give it boundaries).
MIGRATING_PLANS = [
    "cdr_select_project_aggregate_punctuated",
    "cdr_select_project_punctuated",
]


@pytest.mark.parametrize("name", MIGRATING_PLANS, ids=str)
def test_live_representation_migration_identical(name, monkeypatch):
    """A mid-run tuple -> columnar switch never perturbs the stream, and
    is a flag flip: the running operator instances are kept."""
    build = ALL_PLANS[name]
    baseline = _baseline(build)
    plan, sources = build()
    adaptive = AdaptiveEngine(plan, config=SELECTOR, batch_size=32)
    operators = list(adaptive.engine.plan.topological_order())
    migrated = []
    monkeypatch.setattr(
        adaptive.engine, "migrate_plan",
        lambda *args, **kwargs: migrated.append(args),
    )
    result = adaptive.run(sources)
    _assert_identical_outputs(name, baseline, result, "live-migration")
    assert migrated == []
    assert adaptive.engine.plan is plan
    assert all(
        a is b
        for a, b in zip(
            operators, adaptive.engine.plan.topological_order(), strict=True
        )
    )
    assert adaptive.controller.structural_migrations == 0
    switches = [
        m.revision
        for m in adaptive.migrations
        if isinstance(m.revision, SetRepresentation)
    ]
    assert switches, "controller never selected columnar; test is vacuous"
    assert switches[0].representation == "columnar"
    # The engine may later revert (measured-rate guard on noisy small
    # windows) — also output-invariant; only the *switch* must happen.
    assert adaptive.engine.representation in ("columnar", "tuple")


def test_representation_revert_blocks_retry():
    """A revert (columnar measured worse) goes back to tuple and stops
    proposing switches for the rest of the run."""
    from repro.adaptive.controller import AdaptiveController
    from repro.observe.feedback import OperatorStats

    controller = AdaptiveController(
        AdaptiveConfig(
            select_representation=True,
            decide_every=1,
            min_window_records=1,
            representation_revert_ratio=1.25,
        )
    )
    plan, _sources = _grid_chain("cdr", False, "select_project")
    chain = chain_of(plan)

    def stats(records, wall, timed):
        # Cumulative counters: timed_invocations must keep growing or
        # the windowed delta treats the wall time as unmeasured.
        per_op = {}
        for op in chain:
            per_op[op.name] = OperatorStats(
                records_in=records,
                records_out=records,
                wall_time=wall,
                timed_invocations=timed,
            )
        return per_op

    first = controller.observe(
        stats(1000, 0.010, 1), chain, batch_size=64, representation="tuple"
    )
    assert [r.representation for r in first] == ["columnar"]
    # columnar window measured 3x worse -> revert ...
    second = controller.observe(
        stats(2000, 0.070, 2), chain, batch_size=64,
        representation="columnar",
    )
    assert [r.representation for r in second] == ["tuple"]
    # ... and the controller never tries again.
    third = controller.observe(
        stats(3000, 0.080, 3), chain, batch_size=64, representation="tuple"
    )
    assert [r for r in third if isinstance(r, SetRepresentation)] == []
