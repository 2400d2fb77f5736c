"""Adaptive execution drivers: engines that re-plan while running.

Two drivers pair a controller with the existing execution machinery:

* :class:`AdaptiveEngine` wraps one push
  :class:`~repro.core.engine.Engine`.  It feeds the merged input stream
  exactly as ``Engine.run`` would — same chunking, same
  punctuation-closes-chunk discipline — but counts punctuations and, at
  every ``decide_every``-th boundary, hands the controller a cumulative
  stats snapshot and applies whatever revisions come back through
  :func:`~repro.adaptive.revision.apply_revisions` (structural ones via
  :meth:`~repro.core.engine.Engine.migrate_plan`).  Works for *every*
  plan: non-linear plans simply get no structural revisions, only
  tuning knobs.
* :class:`AdaptiveShardedEngine` wraps a
  :class:`~repro.parallel.sharded.ShardedEngine`.  It reuses the
  supervisor's epoch-lockstep workers (inline/thread/process) and their
  new ``stats``/``revise`` commands: after each epoch the coordinator
  sums per-shard stats (:func:`~repro.observe.feedback.merge_stats`),
  decides *centrally*, and broadcasts the identical revision list to
  every worker — so all shards migrate at the same epoch boundary and
  the combine discipline (which never involves the revised filter
  prefix) is untouched.

Both drivers produce outputs bit-identical to their static
counterparts: every revision is output-invariant by construction (see
:mod:`repro.adaptive.revision`), and none is ever applied mid-chunk.
The differential suite in ``tests/adaptive`` certifies this across the
example plan grid and all three backends.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.adaptive.controller import AdaptiveConfig, AdaptiveController
from repro.adaptive.revision import apply_revisions, chain_of
from repro.core.engine import Engine, RunResult, resolve_sources
from repro.core.graph import Plan
from repro.core.metrics import MetricsRegistry
from repro.core.stream import Source, merge_sources
from repro.core.tuples import Punctuation, Record
from repro.errors import PlanError
from repro.observe.feedback import collect_stats, merge_stats
from repro.parallel.combine import merge_metrics
from repro.parallel.partition import PartitionSpec, split_epochs
from repro.parallel.sharded import ShardedEngine, _ShardRun
from repro.resilience.supervisor import (
    _fresh_ops,
    _InlineWorker,
    _ProcessWorker,
    _ShardCore,
    _ThreadWorker,
)

__all__ = ["AdaptiveEngine", "AdaptiveShardedEngine", "run_adaptive"]

Element = Record | Punctuation


class AdaptiveEngine:
    """One push engine plus a controller re-planning it at punctuations.

    Parameters
    ----------
    plan:
        Any plan.  Structural revisions (filter re-ordering,
        chain/eddy swaps) require a single-input linear chain; other
        plans still get batch-size and shedding retunes.
    controller:
        An :class:`~repro.adaptive.controller.AdaptiveController`;
        built from ``config`` (or defaults) when omitted.
    batch_size, guard:
        Forwarded to the wrapped :class:`~repro.core.engine.Engine`.
    observe:
        Defaults to ``True`` — the controller is blind without measured
        rates.  Pass an int stride or
        :class:`~repro.observe.ObserveConfig` to tune overhead, or
        ``None`` to run blind (no revisions will ever fire).
    """

    def __init__(
        self,
        plan: Plan,
        controller: AdaptiveController | None = None,
        config: AdaptiveConfig | None = None,
        batch_size: int | str | None = "auto",
        guard=None,
        observe=True,
        representation: str = "tuple",
        recorder=None,
    ) -> None:
        if controller is not None and config is not None:
            raise PlanError(
                "pass either a controller or a config, not both"
            )
        self.engine = Engine(
            plan,
            batch_size=batch_size,
            guard=guard,
            observe=observe,
            representation=representation,
            recorder=recorder,
        )
        self._recorder = recorder
        self.controller = controller or AdaptiveController(config)
        self._chain = chain_of(plan)
        if self._chain is not None:
            self._input_name = next(iter(plan.inputs))
            self._output_name = next(iter(plan.outputs))
        else:
            self._input_name = None
            self._output_name = None

    @property
    def migrations(self):
        """The controller's migration log (applied revisions, in order)."""
        return self.controller.migrations

    def run(
        self, sources: Sequence[Source] | Mapping[str, Source]
    ) -> RunResult:
        """Execute over ``sources``, adapting at punctuation boundaries."""
        engine = self.engine
        by_name = resolve_sources(engine.plan, sources)
        engine.start()
        if len(by_name) == 1:
            only = next(iter(by_name.values()))
            merged = ((only.name, el) for el in only.events())
        else:
            merged = merge_sources(*by_name.values())
        pending: list[Element] = []
        pending_input: str | None = None
        for input_name, element in merged:
            size = engine.batch_size
            if size is None:
                engine.feed(input_name, element)
                if isinstance(element, Punctuation):
                    self._boundary()
                continue
            if pending and (
                input_name != pending_input or len(pending) >= size
            ):
                engine.feed_batch(pending_input, pending)
                pending = []
            pending_input = input_name
            pending.append(element)
            if isinstance(element, Punctuation):
                # Close the chunk at the punctuation — flushes keep
                # their tuple-at-a-time positions — then adapt: the
                # boundary falls *between* chunks, never inside one.
                engine.feed_batch(pending_input, pending)
                pending = []
                self._boundary()
        if pending:
            engine.feed_batch(pending_input, pending)
        return engine.finish()

    def _boundary(self) -> None:
        engine = self.engine
        guard = engine.guard
        overload = (
            guard.feedback_stats()
            if guard is not None and hasattr(guard, "feedback_stats")
            else None
        )
        revisions = self.controller.observe(
            collect_stats(engine.metrics),
            self._chain,
            batch_size=engine.batch_size,
            has_guard=guard is not None,
            representation=engine.representation,
            overload=overload,
        )
        if revisions:
            self._chain = apply_revisions(
                engine,
                revisions,
                self._input_name,
                self._output_name,
                self._chain,
            )
            if self._recorder is not None:
                # The journal's epoch for this boundary was already
                # closed (inside feed/feed_batch); attaching here marks
                # the revisions as applied *at* that boundary, and the
                # deferred checkpoint that follows captures the migrated
                # plan — exactly what a replay must reconstruct.
                self._recorder.on_revisions(revisions)


class AdaptiveShardedEngine:
    """Epoch-lockstep sharded execution with central re-planning.

    The wrapped :class:`~repro.parallel.sharded.ShardedEngine` supplies
    the strategy analysis, partitioning, and combine discipline; this
    driver replaces its one-shot shard execution with the supervisor's
    per-epoch worker protocol so there *is* a coordinator moment at
    every epoch boundary to gather stats and broadcast revisions.

    Plans whose strategy resolves to ``single`` delegate to an
    :class:`AdaptiveEngine` (same controller), so the adaptive layer
    never silently drops to static execution.
    """

    def __init__(
        self,
        plan: Plan,
        partition: PartitionSpec,
        controller: AdaptiveController | None = None,
        config: AdaptiveConfig | None = None,
        batch_size: int | str | None = "auto",
        backend: str = "thread",
        observe=True,
        representation: str = "tuple",
    ) -> None:
        if controller is not None and config is not None:
            raise PlanError(
                "pass either a controller or a config, not both"
            )
        self.engine = ShardedEngine(
            plan,
            partition,
            batch_size=batch_size,
            backend=backend,
            observe=observe,
            representation=representation,
        )
        self.controller = controller or AdaptiveController(config)
        self._observe = observe

    @property
    def strategy(self) -> str:
        return self.engine.strategy

    @property
    def migrations(self):
        return self.controller.migrations

    def run(
        self, sources: Sequence[Source] | Mapping[str, Source]
    ) -> RunResult:
        engine = self.engine
        st = engine._strategy
        if st.name == "single":
            return AdaptiveEngine(
                engine.plan,
                controller=self.controller,
                batch_size=engine.batch_size,
                observe=self._observe,
                representation=engine.representation,
            ).run(sources)
        by_name = resolve_sources(engine.plan, sources)
        elements = list(by_name[st.input_name].events())
        epochs = split_epochs(elements, st.routing)
        n = st.routing.n_shards
        workers = [self._make_worker(st, shard) for shard in range(n)]
        # Structural shadow: one more copy of the shard chain, revised in
        # lockstep with the workers so the controller always sees the
        # current chain shape.  Decisions are name-based, so the shadow
        # standing in for N distinct worker instances is sound.
        shadow = _fresh_ops(st)
        batch_size = engine.batch_size
        if batch_size == "auto":
            batch_size = Engine.DEFAULT_BATCH_SIZE
        representation = engine.representation
        accepted: list[list[list[Element]]] = [[] for _ in range(n)]
        progress: list[list[float]] = [[] for _ in range(n)]
        try:
            for epoch in epochs:
                for shard, worker in enumerate(workers):
                    worker.start_epoch(
                        epoch.batches[shard], epoch.punct, None
                    )
                for shard in range(n):
                    produced, prog = workers[shard].join_epoch(None)
                    accepted[shard].append(produced)
                    progress[shard].append(prog)
                # Cross-shard feedback: advice any shard's operators
                # pushed to their local ingress this epoch is broadcast
                # so every shard sheds the same slice (a hot key is hot
                # wherever the partitioner routed it; installation is
                # idempotent on the originating shard).
                exchanged: list = []
                for worker in workers:
                    exchanged.extend(worker.take_feedback())
                if exchanged:
                    for worker in workers:
                        worker.apply_feedback(exchanged)
                # Epoch boundary: every worker is quiescent.  Decide
                # centrally on the summed stats, broadcast identically.
                totals = merge_stats([w.stats() for w in workers])
                revisions = self.controller.observe(
                    totals,
                    shadow,
                    batch_size=batch_size,
                    has_guard=False,
                    representation=representation,
                )
                if revisions:
                    for worker in workers:
                        worker.revise(revisions)
                    shadow = self._apply_to_shadow(shadow, revisions)
                    for revision in revisions:
                        if hasattr(revision, "representation"):
                            representation = revision.representation
                        elif not revision.structural and hasattr(
                            revision, "batch_size"
                        ):
                            batch_size = revision.batch_size
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
        return RunResult(
            outputs={st.output_name: combined}, metrics=metrics
        )

    def _apply_to_shadow(self, shadow: list, revisions) -> list:
        from repro.adaptive.revision import apply_to_chain

        for revision in revisions:
            if revision.structural:
                shadow = apply_to_chain(shadow, revision)
        return shadow

    def _make_worker(self, st, shard: int):
        engine = self.engine
        ops = _fresh_ops(st)
        observe = engine._shard_observe(shard)
        if engine.backend == "process":
            return _ProcessWorker(
                ops,
                st.input_name,
                st.output_name,
                engine.batch_size,
                observe,
                engine.representation,
            )
        core = _ShardCore(
            ops,
            st.input_name,
            st.output_name,
            engine.batch_size,
            observe,
            engine.representation,
        )
        if engine.backend == "thread":
            return _ThreadWorker(core)
        return _InlineWorker(core)

    def _publish(self, metrics: MetricsRegistry) -> None:
        controller = self.controller
        metrics.incr("adaptive.migrations", len(controller.migrations))
        metrics.incr(
            "adaptive.structural_migrations",
            controller.structural_migrations,
        )


def run_adaptive(
    plan: Plan,
    sources: Sequence[Source] | Mapping[str, Source],
    config: AdaptiveConfig | None = None,
    partition: PartitionSpec | None = None,
    batch_size: int | str | None = "auto",
    backend: str = "thread",
    observe=True,
    guard=None,
    representation: str = "tuple",
) -> tuple[RunResult, list]:
    """One-shot convenience: run ``plan`` adaptively, return
    ``(result, migration log)``.

    With a ``partition`` the sharded driver is used (``guard`` is a
    single-engine feature and must be ``None`` then).
    """
    if partition is not None:
        if guard is not None:
            raise PlanError(
                "overload guards attach to single engines; sharded "
                "adaptive execution does not accept one"
            )
        sharded = AdaptiveShardedEngine(
            plan,
            partition,
            config=config,
            batch_size=batch_size,
            backend=backend,
            observe=observe,
            representation=representation,
        )
        return sharded.run(sources), sharded.migrations
    adaptive = AdaptiveEngine(
        plan,
        config=config,
        batch_size=batch_size,
        guard=guard,
        observe=observe,
        representation=representation,
    )
    return adaptive.run(sources), adaptive.migrations
