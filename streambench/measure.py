"""Timing, oracle checks and metric assembly for one workload run.

Timings are wall-clock ``perf_counter`` seconds.  The shared machine the
benchmark was written on changes speed by up to 1.8x in phases lasting
seconds (a fixed pure-Python loop measured 25 ms and 45 ms a minute
apart), which no run length averages away.  So every end-to-end time is
bracketed by a fixed pure-Python calibration kernel, timed right before
and right after it, and reported rescaled to the speed at which that
kernel takes :data:`REFERENCE_KERNEL_S`.  The kernel never touches the
program, so a change to the program moves the rescaled figure exactly as
it moves the raw one.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import math
import pickle
import statistics
import tracemalloc
from pathlib import Path
from time import perf_counter

from repro.core import Engine

import tracer as tracing
from loads import Workload, retention_limit

#: Kernel time (seconds) at the reference speed the end-to-end times are
#: rescaled to; the kernel's median on the machine it was written on.
REFERENCE_KERNEL_S = 0.02

#: Timed groups of set-up builds per run; the median is reported.
SETUP_REPEATS = 7

#: Timed passes a run makes even when ``--seconds`` runs out first.
MIN_PASSES = 5

#: Inputs whose peak memory a run measures, its own and ones from
#: derived seeds; the median is reported.  The peak moves in steps with
#: the input: on ``cdr_journal`` about one seed in ten has enough groups
#: that the deep copy of a checkpoint grows its memo dict once more,
#: which adds 9% to the peak.
PEAK_INPUTS = 5

#: Distance between the seeds of a run's peak-memory inputs, far from
#: the seeds runs are given.
PEAK_SEED_STRIDE = 1_000_000

OUT_DIR = Path(__file__).resolve().parent / "out"


def kernel() -> int:
    """Fixed interpreter work: small dicts and tuples built, copied and
    summed, like the engine's per-record traffic, and a deep copy."""
    rows = [{"k": i % 509, "v": i * 0.5, "s": (i, "x")} for i in range(8000)]
    sums: dict = {}
    for row in [dict(r) for r in rows]:
        sums[row["k"]] = sums.get(row["k"], 0.0) + row["v"]
    nested = {i: [(j, float(j)) for j in range(8)] for i in range(400)}
    return len(sums) + len(copy.deepcopy(nested))


def time_kernel() -> float:
    """Median of three timed kernel runs: one run's jitter is as large as
    the phase changes it is meant to track."""
    times = []
    for _ in range(3):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def digest(outputs: dict) -> str:
    """Order-sensitive digest of every output stream's elements."""
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode())
        for element in outputs[name]:
            h.update(repr(element).encode())
            h.update(b"\n")
    return h.hexdigest()


class Run:
    """One workload at one seed: input, set-up, oracle, passes.

    Construction generates the load, times set-up, and computes the
    oracle digest with a tuple-at-a-time ``run_plan`` over the same
    source — none of it timed as a pass.
    """

    def __init__(
        self, workload: Workload, seed: int, records: int | None = None
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.records = records or workload.records
        self.use_input(seed)
        self.setup_s, self.setup_raw_s, self.setup_parts = self._setup()
        #: Failure messages of passes and checks, in order (empty on success).
        self.errors: list[str] = []
        #: Passes run so far, and those that raised or failed a check.
        self.attempted = 0
        self.failed = 0
        # The source kept from the last set-up build is resident too.
        gc.collect()
        gc.freeze()

    def use_input(self, seed: int) -> None:
        """Generate ``seed``'s input, build on it once and compute its
        oracle digest; later passes run on it."""
        self.load = self.workload.make_input(seed, self.records)
        # The resident input is never garbage: keep the collector from
        # rescanning it on every collection during set-up and passes.
        gc.collect()
        gc.freeze()
        self._build({"source": [], "plan": [], "driver": []})
        oracle = Engine(self.workload.plan()).run([self.source])
        self.oracle = digest(oracle.outputs)
        del oracle
        gc.collect()
        gc.freeze()

    def _build(self, parts: dict[str, list[float]]) -> float:
        """Build source, plan and driver once; keep them; return seconds."""
        wl = self.workload
        t0 = perf_counter()
        self.source = wl.source(self.load)
        t1 = perf_counter()
        self.plan = wl.plan()
        t2 = perf_counter()
        self.driver = wl.driver(self.plan)
        t3 = perf_counter()
        parts["source"].append(t1 - t0)
        parts["plan"].append(t2 - t1)
        parts["driver"].append(t3 - t2)
        return t3 - t0

    def _setup(self) -> tuple[float, float, dict[str, float]]:
        """Time set-up in ``SETUP_REPEATS`` groups of back-to-back builds.

        A group holds enough builds to outlast the kernel around it, so
        sub-millisecond set-ups are not timed one clock read at a time.
        Returns the median rescaled and raw seconds per build and the
        median raw seconds of each part; the last build is kept for the
        passes.
        """
        parts: dict[str, list[float]] = {"source": [], "plan": [], "driver": []}
        per_group = max(1, math.ceil(REFERENCE_KERNEL_S / self._build(parts)))
        parts = {name: [] for name in parts}
        totals: list[float] = []
        raw: list[float] = []
        before = time_kernel()
        for _ in range(SETUP_REPEATS):
            elapsed = sum(self._build(parts) for _ in range(per_group))
            after = time_kernel()
            raw.append(elapsed / per_group)
            totals.append(_rescale(raw[-1], before, after))
            before = after
        return statistics.median(totals), statistics.median(raw), {
            name: statistics.median(values) for name, values in parts.items()
        }

    # -- passes ------------------------------------------------------------

    def run_pass(self):
        """One pass of the workload's driver: ``(RunResult, journal or None)``."""
        return self.workload.run(self.driver, self.source)

    def check(self, result, journal, held_epochs: int = 0) -> bool:
        """Compare a pass's outputs with the oracle and, for a journal,
        the most epochs it held (after the pass, or ``held_epochs`` seen
        after any append) with the retention target plus one segment."""
        if digest(result.outputs) != self.oracle:
            self.errors.append("output digest differs from the oracle")
            return False
        if journal is not None:
            held = max(journal.n_epochs, held_epochs)
            if held > retention_limit():
                self.errors.append(
                    f"journal held {held} epochs (limit {retention_limit()})"
                )
                return False
        return True

    def checked_pass(self, run=None, watch: tracing.Tracer | None = None):
        """Run one counted pass of ``run`` (default :meth:`run_pass`).

        Returns ``(wall seconds, (result, journal))``, with ``None`` for
        the outputs when the pass raised or failed its check; either way
        it counts in ``failed`` and the run goes on.  ``watch`` is a
        tracer whose most retained epochs are checked too.
        """
        self.attempted += 1
        start = perf_counter()
        try:
            outcome = (run or self.run_pass)()
        except Exception as exc:  # a failing pass is counted, not fatal
            elapsed = perf_counter() - start
            self.errors.append(f"{type(exc).__name__}: {exc}")
            outcome = None
        else:
            elapsed = perf_counter() - start
            held = watch.retained_epochs if watch is not None else 0
            if not self.check(*outcome, held):
                outcome = None
        self.failed += outcome is None
        return elapsed, outcome

    def watched_pass(self, tracer: tracing.Tracer, install, run=None):
        """:meth:`checked_pass` with ``install()``'s patches on ``tracer``
        in place, restored afterwards."""
        tracer.reset()
        try:
            install()
            return self.checked_pass(run, tracer)
        finally:
            tracer.restore()

    def traced_pass(self, tracer: tracing.Tracer):
        """One pass with every layer entry point wrapped, under a root span."""
        return self.watched_pass(
            tracer,
            tracer.install,
            lambda: tracer.span("pass", "bench", self.run_pass),
        )

    def peak_memory_mb(self) -> float:
        """tracemalloc peak of one pass, above the resident input."""
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            self.checked_pass()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gc.collect()
        return (peak - base) / 1e6

    # -- the two kinds of run ----------------------------------------------

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics over closed-loop passes for ``seconds``.

        An untimed warm-up pass checks the journal bound after every
        append, and untimed passes measure peak memory, on this run's
        input and then on inputs of derived seeds; all count in
        ``attempted`` and ``failed`` like the timed passes.
        """
        watch = tracing.Tracer()
        self.watched_pass(watch, watch.watch_retention)
        gc.collect()
        peak_mb = self.peak_memory_mb()
        passes: list[float] = []
        raw: list[float] = []
        kernels: list[float] = []
        deadline = perf_counter() + seconds
        before = time_kernel()
        while len(passes) < MIN_PASSES or perf_counter() < deadline:
            elapsed, outcome = self.checked_pass()
            del outcome
            gc.collect()
            after = time_kernel()
            raw.append(elapsed)
            kernels.append(after)
            passes.append(_rescale(elapsed, before, after))
            before = after
        median_pass = statistics.median(passes)
        peaks = [peak_mb]
        for k in range(1, PEAK_INPUTS):
            self.use_input(self.seed + k * PEAK_SEED_STRIDE)
            peaks.append(self.peak_memory_mb())
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                "throughput_rps": self.records / median_pass,
                "peak_mem_mb": statistics.median(peaks),
                "setup_s": self.setup_s,
                "success_rate": 1 - self.failed / self.attempted,
            },
            "timed_passes": len(passes),
            "median_pass_s": median_pass,
            "median_pass_raw_s": statistics.median(raw),
            "median_kernel_s": statistics.median(kernels),
            "peaks_mb": peaks,
        }

    def trace(self, seconds: float) -> dict:
        """Per-layer metrics: rounds of plain, bare-engine and traced
        passes, so ratios compare neighbouring passes."""
        wl = self.workload
        tracer = tracing.Tracer()
        overhead: list[float] = []
        vs_engine: list[float] = []
        layers: list[dict] = []
        last = None  # outputs of the last traced pass that passed its check
        deadline = perf_counter() + seconds
        while len(layers) < 3 or perf_counter() < deadline:
            plain, outcome = self.checked_pass()
            del outcome
            gc.collect()
            if wl.bare is not None:
                bare, outcome = self.checked_pass(
                    lambda: (wl.bare(self.plan, self.source), None)
                )
                del outcome
                vs_engine.append(plain / bare)
                gc.collect()
            _, outcome = self.traced_pass(tracer)
            last = outcome or last
            layers.append(_layer_metrics(tracer.spans, tracer))
            overhead.append(layers[-1]["trace.pass_s"] / plain)
            gc.collect()
        metrics = {
            name: statistics.mean(sample[name] for sample in layers)
            for name in layers[0]
        }
        result, journal = last or (None, None)
        metrics.update(_operator_metrics(result, self.records))
        metrics.update(_journal_metrics(journal))
        metrics["trace.overhead"] = statistics.median(overhead)
        metrics["parallel.vs_engine"] = metrics["replay.vs_engine"] = 0.0
        if wl.vs_engine is not None:
            metrics[wl.vs_engine] = statistics.median(vs_engine)
        for part, value in self.setup_parts.items():
            metrics[f"setup.{part}_s"] = value
        self.write_trace(tracer.spans)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def write_trace(self, spans: list) -> None:
        """Write the last traced pass's spans (µs from the pass start)."""
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{self.workload.name}-seed{self.seed}.json"
        origin = spans[0][2]
        rows = [
            [name, round((start - origin) * 1e6, 3),
             round((end - origin) * 1e6, 3), parent]
            for name, _layer, start, end, parent in spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {"workload": self.workload.name, "seed": self.seed,
                 "fields": ["name", "start_us", "end_us", "parent"],
                 "spans": rows},
                fh,
            )


def _rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the kernel times around it."""
    return seconds * REFERENCE_KERNEL_S / ((before + after) / 2)


def _layer_metrics(spans: list, tracer: tracing.Tracer) -> dict[str, float]:
    """Time metrics of one traced pass (``spans[0]`` is the pass root)."""
    layers = tracing.layer_totals(spans)
    names = tracing.name_totals(spans)
    root = spans[0]
    pass_s = root[3] - root[2]
    metrics = {
        "trace.pass_s": pass_s,
        "trace.attributed_share": (pass_s - layers.get("bench", 0.0)) / pass_s,
        "core.engine.self_s": layers.get("core.engine", 0.0),
        "columnar.from_rows_s": names.get("columnar.from_rows", 0.0),
        "parallel.partition.split_s": layers.get("parallel.partition", 0.0),
        "parallel.combine.merge_s": layers.get("parallel.combine", 0.0),
        "parallel.sharded.coordinator_self_s": layers.get("parallel.sharded", 0.0),
        "observe.self_s": layers.get("observe", 0.0),
        "replay.recorder.self_s": layers.get("replay.recorder", 0.0),
        "replay.log.append_s": layers.get("replay.log", 0.0),
    }
    for role in tracing.ROLES:
        metrics[f"operators.{role}.busy_s"] = layers.get(f"operators.{role}", 0.0)
    checkpoint_s = shard_engine_s = 0.0
    checkpoints = 0
    for name, layer, start, end, parent in spans:
        if name == "core.engine.checkpoint":
            checkpoint_s += end - start
            checkpoints += 1
        elif layer == "core.engine" and spans[parent][1] == "parallel.sharded":
            shard_engine_s += end - start
    metrics["core.engine.checkpoint_s"] = checkpoint_s
    metrics["core.engine.checkpoints"] = checkpoints
    metrics["parallel.sharded.shard_engine_s"] = shard_engine_s
    metrics["parallel.sharded.epochs_resident"] = tracer.epochs_resident
    sizes = tracer.shard_records
    metrics["parallel.partition.skew"] = (
        max(sizes) / statistics.mean(sizes) if sizes and sum(sizes) else 0.0
    )
    metrics["columnar.rows_per_batch"] = (
        tracer.column_rows / tracer.column_batches if tracer.column_batches else 0.0
    )
    metrics["replay.log.retained_epochs"] = tracer.retained_epochs
    return metrics


def _operator_metrics(result, records: int) -> dict[str, float]:
    """Counts from the engine's own operator metrics of one pass's
    ``RunResult`` (all 0 when no traced pass succeeded)."""
    registry = result.metrics if result is not None else None
    metrics: dict[str, float] = {}
    totals = {role: [0, 0] for role in tracing.ROLES}
    invocations = records_in = 0
    for name, m in registry.operators.items() if registry else ():
        kind = registry.operator_kinds.get(name, "")
        role = kind if kind in ("select", "project") else "aggregate"
        totals[role][0] += m.records_in
        totals[role][1] += m.records_out
        invocations += m.invocations
        records_in += m.records_in
    for role, (rin, rout) in totals.items():
        metrics[f"operators.{role}.records_in"] = rin
        metrics[f"operators.{role}.records_out"] = rout
        metrics[f"operators.{role}.selectivity"] = rout / rin if rin else 0.0
    metrics["core.engine.invocations_per_krec"] = 1000 * invocations / records
    metrics["core.engine.mean_chunk"] = records_in / invocations if invocations else 0.0
    return metrics


def _journal_metrics(journal) -> dict[str, float]:
    """Journal size and the mean pickled size of one checkpoint's
    operator state, measured after the pass."""
    if journal is None:
        return {"replay.log.bytes": 0, "operators.snapshot_bytes": 0}
    sizes = [
        len(pickle.dumps(cp.operator_states, protocol=pickle.HIGHEST_PROTOCOL))
        for segment in journal.segments
        for cp in segment.checkpoints.values()
    ]
    return {
        "replay.log.bytes": len(journal.to_bytes()),
        "operators.snapshot_bytes": statistics.mean(sizes) if sizes else 0,
    }

