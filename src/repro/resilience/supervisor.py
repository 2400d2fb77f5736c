"""Shard supervision: epoch checkpointing, retry, and degradation.

:class:`Supervisor` wraps a :class:`~repro.parallel.sharded.ShardedEngine`
and turns its one-shot shard execution into an *epoch-lockstep* protocol
with crash recovery:

1. The coordinator splits the input into punctuation-delimited epochs
   (exactly as the sharded engine does) and drives every shard worker
   one epoch at a time.
2. Every ``checkpoint_every`` epochs it collects an
   :class:`~repro.core.engine.EngineCheckpoint` from each worker — the
   epoch-aligned snapshot discipline of the stream fault-tolerance
   literature (checkpoint at watermark boundaries, never mid-window).
3. When a worker crashes (process exit, worker exception) or hangs
   (no result within ``epoch_timeout``), the supervisor rebuilds that
   shard from fresh operator copies, restores the last checkpoint,
   **replays** the epochs since it — discarding the replayed output,
   which is the coordinator-side dedup that keeps results exactly-once —
   and retries the failed epoch after an exponential backoff.
4. A shard that keeps failing past ``max_retries`` triggers graceful
   degradation: the run is restarted on half as many shards (narrowed
   partition), down to a plain single :class:`~repro.core.engine.Engine`
   as the last rung.

Because replayed output is discarded and the failed epoch is re-executed
from a consistent snapshot, the supervised result is bit-identical to a
fault-free single-engine run — the invariant the chaos suite asserts for
every example plan.

Faults from a :class:`~repro.resilience.chaos.FaultInjector` are decided
*here*, in the coordinator, and shipped to workers with the epoch data;
see :mod:`repro.resilience.chaos` for why.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.engine import Engine, EngineCheckpoint, RunResult, resolve_sources
from repro.core.graph import Plan, linear_plan
from repro.core.metrics import MetricsRegistry
from repro.core.stream import Source
from repro.core.tuples import Punctuation, Record
from repro.errors import PlanError, ShardError
from repro.observe.trace import Span, Tracer
from repro.parallel.combine import merge_metrics
from repro.parallel.partition import Epoch, split_epochs
from repro.parallel.sharded import (
    ShardedEngine,
    _ShardRun,
    _Strategy,
    _terminal_progress,
)
from repro.resilience.chaos import Fault, FaultInjector, InjectedFault

__all__ = ["Supervisor", "SupervisorReport"]

Element = Record | Punctuation


@dataclass
class SupervisorReport:
    """What the supervisor had to do during one run."""

    retries: int = 0
    replayed_epochs: int = 0
    checkpoints: int = 0
    #: ``None`` while no degradation happened; otherwise the final rung
    #: (``"shards=k"`` or ``"single"``).
    degraded_to: str | None = None
    #: human-readable recovery log, in order
    events: list[str] = field(default_factory=list)


class _DegradeSignal(Exception):
    """Internal: a shard exhausted its retries; drop to fewer shards."""

    def __init__(self, cause: ShardError) -> None:
        super().__init__(str(cause))
        self.cause = cause


class _WorkerHung(Exception):
    """Internal: no epoch result within the timeout."""


def _fresh_ops(st: _Strategy) -> list:
    """One shard's operator chain, freshly copied (no shared state)."""
    if st.split is not None:
        ops = [copy.deepcopy(op) for op in st.split.prefix]
        ops.append(st.split.make_partial())
    else:
        ops = [copy.deepcopy(op) for op in st.chain]
    return ops


class _ShardCore:
    """One shard's engine plus epoch bookkeeping (runs in any backend)."""

    def __init__(
        self, ops: list, input_name: str, output_name: str, batch_size,
        observe=None, representation: str = "tuple",
    ) -> None:
        self.ops = ops
        self.input_name = input_name
        self.output_name = output_name
        plan = linear_plan(input_name, ops, output_name)
        self.engine = Engine(
            plan,
            batch_size=batch_size,
            observe=observe,
            representation=representation,
        )
        self.engine.start()
        self.emitted = 0

    def feed_prefix(self, batch: Sequence[Record], upto: int) -> None:
        """Feed the first ``upto`` records only (fault staging)."""
        size = self.engine.batch_size
        if size is None:
            for el in batch[:upto]:
                self.engine.feed(self.input_name, el)
        else:
            for i in range(0, upto, size):
                self.engine.feed_batch(
                    self.input_name, batch[i : min(i + size, upto)]
                )

    def run_epoch(
        self, batch: Sequence[Record], punct: Punctuation | None
    ) -> tuple[list[Element], float]:
        produced: list[Element] = []
        size = self.engine.batch_size
        if size is None:
            for el in batch:
                produced.extend(self.engine.feed(self.input_name, el))
        else:
            for i in range(0, len(batch), size):
                produced.extend(
                    self.engine.feed_batch(
                        self.input_name, batch[i : i + size]
                    )
                )
        if punct is not None:
            produced.extend(self.engine.feed(self.input_name, punct))
        self.emitted += len(produced)
        return produced, _terminal_progress(self.ops[-1])

    def checkpoint(self) -> EngineCheckpoint:
        return self.engine.checkpoint()

    def restore(self, cp: EngineCheckpoint) -> None:
        self.engine.restore_checkpoint(cp)
        # A fresh (rebuilt) worker restores onto an *empty* output list,
        # so count what is actually buffered, not the checkpoint's
        # original position — flush slicing only needs everything fed
        # after the restore to be accounted for.
        self.emitted = len(self.engine._outputs[self.output_name])

    def stats(self):
        """Picklable per-operator counter snapshot (adaptive feedback)."""
        from repro.observe.feedback import collect_stats

        return collect_stats(self.engine.metrics)

    def revise(self, revisions) -> None:
        """Apply plan revisions at the current epoch boundary.

        Lazy import: :mod:`repro.adaptive` drives these workers, so a
        top-level import here would be a cycle.
        """
        from repro.adaptive.revision import apply_revisions

        self.ops = apply_revisions(
            self.engine,
            revisions,
            self.input_name,
            self.output_name,
            self.ops,
        )

    def take_feedback(self) -> list:
        """Drain feedback this shard's operators pushed to ingress.

        Picklable ``(input_name, FeedbackPunctuation)`` pairs — the
        coordinator broadcasts the union so every shard sheds the same
        slice (a hot key is hot wherever the partitioner routed it).
        """
        return self.engine.take_ingress_feedback()

    def apply_feedback(self, items) -> None:
        """Install coordinator-broadcast feedback at this shard's ingress."""
        self.engine.apply_feedback(items)

    def finish(self) -> tuple[list[Element], float, MetricsRegistry]:
        result = self.engine.finish()
        flush = result.outputs[self.output_name][self.emitted :]
        return flush, _terminal_progress(self.ops[-1]), result.metrics


def _apply_fault(core: _ShardCore, batch: Sequence[Record], fault: Fault):
    """Stage a shard fault mid-epoch: feed half the batch, then fail."""
    core.feed_prefix(batch, len(batch) // 2)
    if fault.kind == "hang":
        time.sleep(fault.seconds)
    raise InjectedFault(
        f"injected {fault.kind} on shard {fault.shard} "
        f"(epoch {fault.epoch})"
    )


# ---------------------------------------------------------------------------
# Worker backends
# ---------------------------------------------------------------------------


class _InlineWorker:
    """Synchronous worker (debugging backend).  Hangs degrade to crashes:
    there is no second thread of control to time them out from."""

    def __init__(self, core: _ShardCore) -> None:
        self.core = core
        self._pending = None

    def start_epoch(self, batch, punct, fault: Fault | None) -> None:
        self._pending = (batch, punct, fault)

    def join_epoch(self, timeout: float | None):
        batch, punct, fault = self._pending
        self._pending = None
        if fault is not None:
            _apply_fault(self.core, batch, fault)
        return self.core.run_epoch(batch, punct)

    def replay_epoch(self, batch, punct) -> None:
        self.core.run_epoch(batch, punct)

    def snapshot(self) -> EngineCheckpoint:
        return self.core.checkpoint()

    def restore(self, cp: EngineCheckpoint) -> None:
        self.core.restore(cp)

    def stats(self):
        return self.core.stats()

    def revise(self, revisions) -> None:
        self.core.revise(revisions)

    def take_feedback(self):
        return self.core.take_feedback()

    def apply_feedback(self, items) -> None:
        self.core.apply_feedback(items)

    def finish(self):
        return self.core.finish()

    def close(self, abandon: bool = False) -> None:
        self._pending = None


class _ThreadWorker:
    """One shard on a dedicated single-thread executor.

    A hung epoch cannot be killed (Python threads are uninterruptible),
    but it *can* be abandoned: the supervisor stops waiting, leaves the
    thread to finish its sleep, and rebuilds the shard on a fresh
    executor from the last checkpoint.
    """

    def __init__(self, core: _ShardCore) -> None:
        self.core = core
        self.pool = ThreadPoolExecutor(max_workers=1)
        self.future = None

    def _epoch(self, batch, punct, fault: Fault | None):
        if fault is not None:
            _apply_fault(self.core, batch, fault)
        return self.core.run_epoch(batch, punct)

    def start_epoch(self, batch, punct, fault: Fault | None) -> None:
        self.future = self.pool.submit(self._epoch, batch, punct, fault)

    def join_epoch(self, timeout: float | None):
        try:
            return self.future.result(timeout=timeout)
        except FutureTimeoutError:
            raise _WorkerHung(
                f"worker hung: no epoch result within {timeout}s"
            ) from None

    def replay_epoch(self, batch, punct) -> None:
        self.core.run_epoch(batch, punct)

    def snapshot(self) -> EngineCheckpoint:
        return self.core.checkpoint()

    def restore(self, cp: EngineCheckpoint) -> None:
        self.core.restore(cp)

    def stats(self):
        # Called by the coordinator between epochs, when the pool thread
        # is idle — same lockstep discipline as snapshot().
        return self.core.stats()

    def revise(self, revisions) -> None:
        self.core.revise(revisions)

    def take_feedback(self):
        # Coordinator-only call between epochs (the pool thread is idle).
        return self.core.take_feedback()

    def apply_feedback(self, items) -> None:
        self.core.apply_feedback(items)

    def finish(self):
        return self.core.finish()

    def close(self, abandon: bool = False) -> None:
        self.pool.shutdown(wait=not abandon)


def _process_worker_main(
    conn, ops, input_name, output_name, batch_size, observe=None,
    representation="tuple",
) -> None:
    """Forked child: serve epoch/snapshot/restore/finish commands.

    A ``crash`` fault is a real process death (``os._exit``), not an
    exception — the parent observes it as EOF on the result pipe,
    exactly like a segfaulted or OOM-killed worker.
    """
    core = _ShardCore(
        ops, input_name, output_name, batch_size, observe,
        representation,
    )
    try:
        while True:
            cmd = conn.recv()
            tag = cmd[0]
            if tag == "epoch":
                _idx, batch, punct, fault = cmd[1:]
                if fault is not None:
                    core.feed_prefix(batch, len(batch) // 2)
                    if fault.kind == "hang":
                        time.sleep(fault.seconds)
                    os._exit(17)
                try:
                    produced, progress = core.run_epoch(batch, punct)
                except Exception as exc:
                    conn.send(
                        (
                            "error",
                            f"{type(exc).__name__}: {exc}",
                            traceback.format_exc(),
                        )
                    )
                    break
                conn.send(("ok", produced, progress))
            elif tag == "replay":
                _idx, batch, punct = cmd[1:]
                core.run_epoch(batch, punct)
                conn.send(("ok",))
            elif tag == "snapshot":
                conn.send(("ok", core.checkpoint()))
            elif tag == "restore":
                core.restore(cmd[1])
                conn.send(("ok",))
            elif tag == "stats":
                conn.send(("ok", core.stats()))
            elif tag == "revise":
                core.revise(cmd[1])
                conn.send(("ok",))
            elif tag == "take_feedback":
                conn.send(("ok", core.take_feedback()))
            elif tag == "apply_feedback":
                core.apply_feedback(cmd[1])
                conn.send(("ok",))
            elif tag == "finish":
                conn.send(("ok", core.finish()))
                break
            else:  # pragma: no cover - protocol error
                break
    except EOFError:  # pragma: no cover - parent died
        pass
    finally:
        conn.close()


class _ProcessWorker:
    """One shard in a long-lived forked child, driven over two pipes.

    The operator chain crosses via fork inheritance (plans hold
    closures, which never survive pickling); commands, batches,
    checkpoints, and results — all picklable — cross the pipes.
    """

    def __init__(
        self, ops, input_name: str, output_name: str, batch_size,
        observe=None, representation: str = "tuple",
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        # Two one-way pipes.  The child holds the *only* write end of
        # the result pipe, so a child death is an immediate EOF in the
        # parent even while sibling workers (forked later, inheriting
        # parent fds) are alive.
        self._cmd_recv, self._cmd_send = ctx.Pipe(duplex=False)
        self._res_recv, self._res_send = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=_process_worker_main,
            args=(
                _PipePair(self._cmd_recv, self._res_send),
                ops,
                input_name,
                output_name,
                batch_size,
                observe,
                representation,
            ),
        )
        self.proc.start()
        self._cmd_recv.close()
        self._res_send.close()

    def _recv(self, timeout: float | None):
        if timeout is not None and not self._res_recv.poll(timeout):
            raise _WorkerHung(
                f"worker hung: no epoch result within {timeout}s"
            )
        try:
            reply = self._res_recv.recv()
        except EOFError:
            exitcode = self.proc.exitcode
            raise ShardError(
                "worker process died without a result "
                f"(exitcode={exitcode})"
            ) from None
        if reply[0] == "error":
            _tag, message, worker_tb = reply
            raise ShardError(message, worker_traceback=worker_tb)
        return reply[1:]

    def start_epoch(self, batch, punct, fault: Fault | None) -> None:
        self._cmd_send.send(("epoch", 0, list(batch), punct, fault))

    def join_epoch(self, timeout: float | None):
        produced, progress = self._recv(timeout)
        return produced, progress

    def replay_epoch(self, batch, punct) -> None:
        self._cmd_send.send(("replay", 0, list(batch), punct))
        self._recv(None)

    def snapshot(self) -> EngineCheckpoint:
        self._cmd_send.send(("snapshot",))
        (cp,) = self._recv(None)
        return cp

    def restore(self, cp: EngineCheckpoint) -> None:
        self._cmd_send.send(("restore", cp))
        self._recv(None)

    def stats(self):
        self._cmd_send.send(("stats",))
        (snap,) = self._recv(None)
        return snap

    def revise(self, revisions) -> None:
        # Revisions are picklable by design (names + scalars only);
        # the worker resolves them against its own operator instances.
        self._cmd_send.send(("revise", revisions))
        self._recv(None)

    def take_feedback(self):
        # Feedback punctuations are frozen value dataclasses — picklable.
        self._cmd_send.send(("take_feedback",))
        (items,) = self._recv(None)
        return items

    def apply_feedback(self, items) -> None:
        self._cmd_send.send(("apply_feedback", list(items)))
        self._recv(None)

    def finish(self):
        self._cmd_send.send(("finish",))
        (payload,) = self._recv(None)
        self.proc.join()
        return payload

    def close(self, abandon: bool = False) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join()
        self._cmd_send.close()
        self._res_recv.close()


class _PipePair:
    """Child-side view of the two one-way pipes as one connection."""

    def __init__(self, recv_conn, send_conn) -> None:
        self._recv_conn = recv_conn
        self._send_conn = send_conn

    def recv(self):
        return self._recv_conn.recv()

    def send(self, obj) -> None:
        self._send_conn.send(obj)

    def close(self) -> None:
        self._recv_conn.close()
        self._send_conn.close()


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


class Supervisor:
    """Fault-tolerant driver for a :class:`ShardedEngine`.

    Parameters
    ----------
    engine:
        The sharded engine to supervise.  Its plan, partition, batch
        size, and backend are honoured; only its execution is replaced
        by the epoch-lockstep protocol.
    max_retries:
        Retries per (shard, epoch) before degrading to fewer shards.
    backoff_base, backoff_factor:
        Retry ``i`` (1-based) sleeps ``backoff_base * backoff_factor**(i-1)``
        seconds before rebuilding the shard.
    epoch_timeout:
        Seconds to wait for any shard's epoch result before treating the
        worker as hung.  ``None`` disables hang detection (crashes are
        still caught).
    checkpoint_every:
        Epoch interval between checkpoints.  ``1`` checkpoints every
        epoch (shortest replay, most snapshot traffic); larger values
        trade replay work for snapshot overhead.
    injector:
        Optional :class:`~repro.resilience.chaos.FaultInjector` whose
        shard-fault schedule is applied during the run.
    record_log:
        Optional :class:`~repro.replay.RecordLog`.  When attached, the
        coordinator journals every completed epoch (merged-order
        elements plus the broadcast feedback union) into it, and
        recovery replays a rebuilt shard from the *journal* — re-split
        through the partitioner from position zero, so position-stateful
        routing stays identical — instead of the in-memory epoch list.
        The log is cleared if graceful degradation restarts the run; a
        degraded-to-single run is not journaled.
    """

    def __init__(
        self,
        engine: ShardedEngine,
        max_retries: int = 3,
        backoff_base: float = 0.01,
        backoff_factor: float = 2.0,
        epoch_timeout: float | None = None,
        checkpoint_every: int = 1,
        injector: FaultInjector | None = None,
        record_log=None,
    ) -> None:
        if max_retries < 0:
            raise PlanError(f"max_retries must be >= 0; got {max_retries}")
        if checkpoint_every < 1:
            raise PlanError(
                f"checkpoint_every must be >= 1; got {checkpoint_every}"
            )
        self.engine = engine
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.epoch_timeout = epoch_timeout
        self.checkpoint_every = checkpoint_every
        self.injector = injector
        self.record_log = record_log
        self.report = SupervisorReport()
        self._attempts: dict[tuple[int, int], int] = {}
        self._tracer: Tracer | None = None
        self._run_started = 0.0

    # -- public entry ------------------------------------------------------

    def run(
        self, sources: Sequence[Source] | Mapping[str, Source]
    ) -> RunResult:
        """Execute under supervision; output matches a fault-free run."""
        self.report = SupervisorReport()
        self._attempts = {}
        engine = self.engine
        cfg = engine.observe_config
        self._run_started = time.perf_counter()
        # Coordinator-side trace: epoch rounds, checkpoints, recoveries
        # and replays nest under the "run" span, beside the per-shard
        # worker spans the engines record (same context discipline).
        self._tracer = (
            Tracer(cfg.context + ("run",), max_spans=cfg.max_spans)
            if cfg is not None and cfg.trace
            else None
        )
        st = engine._strategy
        if st.name == "single":
            return self._run_plain(engine.plan, engine.batch_size, sources)
        by_name = resolve_sources(engine.plan, sources)
        elements = list(by_name[st.input_name].events())
        while True:
            try:
                return self._run_sharded(engine, elements)
            except _DegradeSignal as sig:
                n = engine._strategy.routing.n_shards
                if n <= 1:
                    self.report.degraded_to = "single"
                    self.report.events.append(
                        f"degraded to single engine after: {sig.cause}"
                    )
                    return self._run_plain(
                        self.engine.plan,
                        self.engine.batch_size,
                        sources,
                    )
                narrowed = max(1, n // 2)
                self.report.degraded_to = f"shards={narrowed}"
                self.report.events.append(
                    f"degraded {n} -> {narrowed} shards after: {sig.cause}"
                )
                engine = ShardedEngine(
                    self.engine.plan,
                    self.engine.partition.narrowed(narrowed),
                    batch_size=self.engine.batch_size,
                    backend=self.engine.backend,
                    observe=self.engine.observe_config,
                    representation=self.engine.representation,
                )
                if engine._strategy.name == "single":
                    self.report.degraded_to = "single"
                    return self._run_plain(
                        self.engine.plan,
                        self.engine.batch_size,
                        sources,
                    )

    # -- supervised sharded run -------------------------------------------

    def _run_sharded(
        self, engine: ShardedEngine, elements: list[Element]
    ) -> RunResult:
        st = engine._strategy
        epochs = split_epochs(elements, st.routing)
        n = st.routing.n_shards
        log = self.record_log
        if log is not None:
            if log.n_epochs or log.dropped_revisions:
                # A degradation restarted the protocol: the journal must
                # describe the run that produces the output, not the
                # abandoned attempt.
                log.clear()
            log.meta.update(
                {
                    "batch_size": engine.batch_size,
                    "representation": engine.representation,
                    "inputs": [st.input_name],
                    "outputs": [st.output_name],
                    "supervised": True,
                }
            )
        log_cursor = 0
        log_out = 0
        workers = [self._make_worker(engine, st, s) for s in range(n)]
        accepted: list[list[list[Element]]] = [[] for _ in range(n)]
        progress: list[list[float]] = [[] for _ in range(n)]
        cp_epoch = 0
        checkpoints = [w.snapshot() for w in workers]
        self.report.checkpoints += 1
        # Per-epoch log of the broadcast feedback union.  Recovery
        # replays re-apply it after each replayed epoch so a rebuilt
        # shard re-sheds exactly what the original run shed — recovery
        # must not un-shed.
        feedback_log: list[list] = []
        tracer = self._tracer
        try:
            for e, epoch in enumerate(epochs):
                epoch_started = time.perf_counter()
                for shard, worker in enumerate(workers):
                    worker.start_epoch(
                        epoch.batches[shard],
                        epoch.punct,
                        self._next_fault(shard, e),
                    )
                for shard in range(n):
                    while True:
                        try:
                            produced, prog = workers[shard].join_epoch(
                                self.epoch_timeout
                            )
                            break
                        except Exception as exc:
                            workers[shard] = self._recover(
                                engine,
                                st,
                                workers[shard],
                                shard,
                                e,
                                epochs,
                                cp_epoch,
                                checkpoints[shard],
                                exc,
                                feedback_log,
                            )
                            workers[shard].start_epoch(
                                epoch.batches[shard],
                                epoch.punct,
                                self._next_fault(shard, e),
                            )
                    accepted[shard].append(produced)
                    progress[shard].append(prog)
                # Every worker is quiescent: exchange feedback.  Any
                # advice a shard's operators emitted this epoch is
                # broadcast to all shards — a hot key is hot wherever
                # the partitioner routed it.  apply_feedback is
                # idempotent, so the originating shard re-installing its
                # own advice is a no-op.
                exchanged: list = []
                for worker in workers:
                    exchanged.extend(worker.take_feedback())
                if exchanged:
                    for worker in workers:
                        worker.apply_feedback(exchanged)
                feedback_log.append(exchanged)
                if log is not None:
                    # Journal the epoch only once every shard completed
                    # it, so the log never describes an epoch a recovery
                    # might still be replaying.  Output positions count
                    # coordinator-accepted elements (exact for the
                    # "local" strategy; partial-aggregate combines merge
                    # further, so treat them as diagnostics there).
                    from repro.replay.log import EpochRecord

                    count = sum(len(b) for b in epoch.batches) + (
                        1 if epoch.punct is not None else 0
                    )
                    log_out += sum(
                        len(accepted[s][e]) for s in range(n)
                    ) + (1 if epoch.punct is not None else 0)
                    log.append(
                        EpochRecord(
                            index=e,
                            elements=[
                                (st.input_name, el)
                                for el in elements[
                                    log_cursor : log_cursor + count
                                ]
                            ],
                            output_positions={st.output_name: log_out},
                            feedback=list(exchanged),
                            final=epoch.punct is None,
                        )
                    )
                    log_cursor += count
                if tracer is not None:
                    tracer.record(
                        f"epoch:{e}",
                        epoch_started,
                        time.perf_counter(),
                        epoch=e,
                        shards=n,
                    )
                if (e + 1) % self.checkpoint_every == 0 and e + 1 < len(
                    epochs
                ):
                    if tracer is None:
                        checkpoints = [w.snapshot() for w in workers]
                    else:
                        with tracer.span(f"checkpoint:{e + 1}", epoch=e + 1):
                            checkpoints = [w.snapshot() for w in workers]
                    cp_epoch = e + 1
                    self.report.checkpoints += 1
            runs: list[_ShardRun] = []
            for shard, worker in enumerate(workers):
                flush, _final_prog, metrics = worker.finish()
                runs.append(
                    _ShardRun(
                        accepted[shard], flush, progress[shard], metrics
                    )
                )
        finally:
            for worker in workers:
                worker.close(abandon=True)
        combined = engine._combine(epochs, runs)
        metrics = merge_metrics(run.metrics for run in runs)
        self._publish(metrics)
        return RunResult(outputs={st.output_name: combined}, metrics=metrics)

    def _next_fault(self, shard: int, epoch: int) -> Fault | None:
        attempt = self._attempts.get((shard, epoch), 0)
        self._attempts[(shard, epoch)] = attempt + 1
        if self.injector is None:
            return None
        return self.injector.fault_for(shard, epoch, attempt)

    def _make_worker(self, engine: ShardedEngine, st: _Strategy, shard: int):
        ops = _fresh_ops(st)
        observe = engine._shard_observe(shard)
        if engine.backend == "process":
            return _ProcessWorker(
                ops, st.input_name, st.output_name, engine.batch_size,
                observe, engine.representation,
            )
        core = _ShardCore(
            ops, st.input_name, st.output_name, engine.batch_size,
            observe, engine.representation,
        )
        if engine.backend == "thread":
            return _ThreadWorker(core)
        return _InlineWorker(core)

    def _recover(
        self,
        engine: ShardedEngine,
        st: _Strategy,
        failed_worker,
        shard: int,
        epoch_index: int,
        epochs: list[Epoch],
        cp_epoch: int,
        checkpoint: EngineCheckpoint,
        exc: Exception,
        feedback_log: list[list] | None = None,
    ):
        """Rebuild ``shard`` from its last checkpoint and replay forward."""
        attempt = self._attempts.get((shard, epoch_index), 1)
        cause = ShardError(
            f"shard {shard} failed during epoch {epoch_index} "
            f"(attempt {attempt}): {type(exc).__name__}: {exc}",
            shard=shard,
            strategy=st.name,
            worker_traceback=getattr(exc, "worker_traceback", None),
        )
        failed_worker.close(abandon=True)
        if attempt > self.max_retries:
            raise _DegradeSignal(cause) from exc
        self.report.retries += 1
        self.report.events.append(str(cause))
        time.sleep(self.backoff_base * self.backoff_factor ** (attempt - 1))
        worker = self._make_worker(engine, st, shard)
        worker.restore(checkpoint)
        # Replay the epochs since the checkpoint.  Their output is
        # discarded — the coordinator already accepted it — which is
        # exactly the dedup that keeps replays invisible downstream.
        # Each replay is traced with ``replay=True`` so a recovery run's
        # trace distinguishes re-executed epochs from first-run epochs.
        replay_epochs: Sequence[Epoch] = epochs
        feedback_source: Sequence[list] | None = feedback_log
        log = self.record_log
        if (
            log is not None
            and log.base_epoch == 0
            and log.n_epochs >= epoch_index
        ):
            # Log-backed recovery: rebuild the replay batches from the
            # durable journal instead of coordinator memory.  The whole
            # journaled stream is re-split through the partitioner from
            # position zero, so position-stateful routing (round-robin)
            # re-derives the original per-shard batches exactly.
            trace = [el for _name, el in log.all_elements(0, epoch_index)]
            replay_epochs = split_epochs(trace, st.routing)
            feedback_source = [
                entry.feedback for entry in log.entries(0, epoch_index)
            ]
        tracer = self._tracer
        for replay_index in range(cp_epoch, epoch_index):
            epoch = replay_epochs[replay_index]
            replay_started = time.perf_counter()
            worker.replay_epoch(epoch.batches[shard], epoch.punct)
            if feedback_source is not None and replay_index < len(
                feedback_source
            ):
                items = feedback_source[replay_index]
                if items:
                    # Re-install the feedback union exactly where the
                    # original run did, so the replayed epochs shed the
                    # same slice (idempotent against advice the restored
                    # checkpoint already carried).
                    worker.apply_feedback(items)
            self.report.replayed_epochs += 1
            if tracer is not None:
                tracer.record(
                    f"replay:{replay_index}",
                    replay_started,
                    time.perf_counter(),
                    shard=shard,
                    epoch=replay_index,
                    replay=True,
                    attempt=attempt,
                )
        # Replay re-emits only advice the original run already
        # broadcast (replay is deterministic), so drain and discard it
        # rather than re-broadcasting duplicates at the next boundary.
        worker.take_feedback()
        return worker

    # -- single-engine path ------------------------------------------------

    def _run_plain(
        self,
        plan: Plan,
        batch_size,
        sources: Sequence[Source] | Mapping[str, Source],
    ) -> RunResult:
        """Run (or re-run, after degradation) on one plain engine.

        Sources are restartable by contract, so a retry is a clean
        re-execution; faults here are whole-run failures (e.g. injected
        operator exceptions), retried up to ``max_retries`` times.
        """
        attempt = 0
        while True:
            try:
                result = Engine(
                    plan,
                    batch_size=batch_size,
                    observe=self.engine.observe_config,
                    representation=self.engine.representation,
                ).run(sources)
                self._publish(result.metrics)
                return result
            except Exception as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise
                self.report.retries += 1
                self.report.events.append(
                    f"single-engine run failed (attempt {attempt}): "
                    f"{type(exc).__name__}: {exc}"
                )
                time.sleep(
                    self.backoff_base
                    * self.backoff_factor ** (attempt - 1)
                )

    def _publish(self, metrics: MetricsRegistry) -> None:
        metrics.incr("supervisor.retries", self.report.retries)
        metrics.incr("supervisor.replayed_epochs", self.report.replayed_epochs)
        metrics.incr("supervisor.checkpoints", self.report.checkpoints)
        if self.report.degraded_to is not None:
            metrics.incr("supervisor.degradations", 1)
        tracer = self._tracer
        if tracer is None:
            return
        tracer.publish(metrics)
        cfg = self.engine.observe_config
        metrics.spans.append(
            Span(
                cfg.context + ("run",),
                self._run_started,
                time.perf_counter(),
                {
                    "supervised": True,
                    "retries": self.report.retries,
                    "replayed_epochs": self.report.replayed_epochs,
                    "checkpoints": self.report.checkpoints,
                    "degraded_to": self.report.degraded_to,
                },
            )
        )
        metrics.spans.sort(key=lambda span: span.start)
