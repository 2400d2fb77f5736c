"""The benchmark's three workloads: seeded input, set-up, and one pass.

Each workload is closed-loop and single-threaded: a pass hands the whole
pre-generated input to the driver and returns when the driver has
produced every output.  The load is generated before any timing starts;
the program only ever sees the generated elements.

Set-up is the program work a user does before the first record flows:
building the source over the generated elements, the plan, and the
driver object.  ``measure.Run`` times each part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.columnar import Col
from repro.core import CallbackSource, Engine, ListSource, Punctuation, Record
from repro.core.graph import linear_plan
from repro.observe import ObserveConfig
from repro.operators import AggSpec, Aggregate, Select, WindowedAggregate
from repro.operators.project import Project
from repro.parallel import HashPartition, ShardedEngine
from repro.replay import RetentionPolicy, record_run
from repro.windows import TumblingWindow
from repro.workloads import CDRConfig, CDRGenerator, NetflowConfig, PacketGenerator

#: Records between time-bound punctuations on the punctuated workloads.
PUNCT_EVERY = 1000

#: Journal settings of ``cdr_journal``: a checkpoint every few epochs,
#: segments that each open on a checkpoint, and a retention target far
#: below the ~100 epochs of a pass, so retention drops about ten
#: segments per pass.
CHECKPOINT_EVERY = 8
SEGMENT_EVERY = 8
RETAIN_EPOCHS = 16


def cdr_ops() -> list:
    """The M8 CDR chain: international calls, projected, per origin."""
    return [
        Select(Col("is_intl"), name="intl"),
        Project(
            {"origin": "origin", "connect_ts": "connect_ts", "duration": "duration"},
            name="proj",
        ),
        Aggregate(
            ["origin"],
            [AggSpec("n", "count"), AggSpec("talk", "sum", "duration")],
            name="per_origin",
        ),
    ]


def netflow_ops() -> list:
    """The M8 netflow chain: large packets, 10 s tumbling per-source volume."""
    return [
        Select(Col("length") > 512, name="big"),
        Project({"ts": "ts", "src_ip": "src_ip", "length": "length"}, name="proj"),
        WindowedAggregate(
            TumblingWindow(10.0),
            ["src_ip"],
            [AggSpec("n", "count"), AggSpec("vol", "sum", "length")],
            name="per_bucket",
        ),
    ]


def _punctuated(rows: list, attr: str, every: int) -> list:
    """``rows`` with a time-bound punctuation after every ``every`` rows."""
    out: list = []
    for i, row in enumerate(rows, 1):
        out.append(row)
        if i % every == 0:
            bound = float(row[attr])
            out.append(Punctuation.time_bound(attr, bound, ts=bound))
    return out


@dataclass
class Workload:
    """One benchmark workload.

    ``make_input(seed, n)`` generates the load; ``source``, ``plan`` and
    ``driver`` are the three set-up steps; ``run(driver, source)``
    returns ``(RunResult, journal or None)``; ``bare(plan, source)`` is
    the bare ``Engine`` the driver's layer is compared against (``None``
    when the driver is the bare engine).
    """

    name: str
    why: str
    records: int
    make_input: Callable
    source: Callable
    plan: Callable
    driver: Callable
    run: Callable
    bare: Callable | None = None
    #: Layer ratio metric the ``bare`` comparison reports.
    vs_engine: str | None = None


def _cdr_rows(seed: int, n: int) -> list[dict]:
    return CDRGenerator(CDRConfig(seed=seed)).generate(n)


def _netflow_elements(seed: int, n: int) -> list:
    rows = PacketGenerator(NetflowConfig(seed=seed)).generate(n)
    stamped = [Record(row, ts=float(row["ts"]), seq=i) for i, row in enumerate(rows)]
    return _punctuated(stamped, "ts", PUNCT_EVERY)


def _engine_run(driver, source):
    return driver.run([source]), None


def _bare_engine(plan, source):
    return Engine(plan, batch_size="auto").run([source])


def _record(driver, source):
    plan, retention = driver
    return record_run(
        plan,
        [source],
        batch_size="auto",
        checkpoint_every=CHECKPOINT_EVERY,
        segment_every=SEGMENT_EVERY,
        retention=retention,
    )


WORKLOADS: dict[str, Workload] = {
    "cdr_columnar": Workload(
        name="cdr_columnar",
        why=(
            "CDR chain on columnar batches over a ListSource: engine dispatch "
            "and column kernels do the work; no partition, checkpoint or observer"
        ),
        records=100_000,
        make_input=_cdr_rows,
        source=lambda rows: ListSource("calls", rows, ts_attr="connect_ts"),
        plan=lambda: linear_plan("calls", cdr_ops()),
        driver=lambda plan: Engine(
            plan, batch_size="auto", representation="columnar"
        ),
        run=_engine_run,
    ),
    "netflow_sharded": Workload(
        name="netflow_sharded",
        why=(
            "netflow chain sharded on dst_ip, grouped on src_ip: forces partial "
            "aggregates, hash split and coordinator merge, with the observer on"
        ),
        records=50_000,
        make_input=_netflow_elements,
        source=lambda elements: CallbackSource("Traffic", lambda: iter(elements)),
        plan=lambda: linear_plan("Traffic", netflow_ops()),
        driver=lambda plan: ShardedEngine(
            plan,
            HashPartition("dst_ip", 2),
            backend="inline",
            observe=ObserveConfig(sampling=64),
        ),
        run=_engine_run,
        bare=_bare_engine,
        vs_engine="parallel.vs_engine",
    ),
    "cdr_journal": Workload(
        name="cdr_journal",
        why=(
            "CDR chain on row batches through record_run: checkpoints and "
            "bounded journal appends beside the operators cdr_columnar reads"
        ),
        records=100_000,
        make_input=lambda seed, n: _punctuated(
            _cdr_rows(seed, n), "connect_ts", PUNCT_EVERY
        ),
        source=lambda elements: ListSource("calls", elements, ts_attr="connect_ts"),
        plan=lambda: linear_plan("calls", cdr_ops()),
        # record_run builds its Recorder and Engine inside every pass, so
        # the driver set-up is the retention policy bound to the plan.
        driver=lambda plan: (plan, RetentionPolicy(RETAIN_EPOCHS)),
        run=_record,
        bare=_bare_engine,
        vs_engine="replay.vs_engine",
    ),
}


def retention_limit() -> int:
    """Most epochs ``cdr_journal``'s journal may hold: the retention
    target plus one segment (whole sealed segments are dropped)."""
    return RETAIN_EPOCHS + SEGMENT_EVERY
