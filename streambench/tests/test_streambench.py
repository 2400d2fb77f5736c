"""The benchmark's own tests, on tiny inputs.

Run from the repository root::

    python3 -m pytest streambench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run as cli  # noqa: E402
import tracer as tracing  # noqa: E402
from loads import WORKLOADS  # noqa: E402
from measure import Run  # noqa: E402

TINY = 3000
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    run = Run(WORKLOADS[workload], 3, TINY)
    outcome = run.trace(0) if trace else run.measure(0)
    result = json.loads(json.dumps(cli.result_line(outcome, trace, run.errors, SPEC)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, run.errors
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {
        name: (m["unit"], type(m["value"]) in (int, float))
        for name, m in result["metrics"].items()
    } == {metric["name"]: (metric["unit"], True) for metric in declared}


def test_workloads_match_the_declaration():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    for workload in SPEC["workloads"]:
        assert WORKLOADS[workload["name"]].why == workload["why"]


def _dropping_an_output(run):
    """``run`` with the last element of each output stream lost."""

    def lossy(driver, source):
        result, journal = run(driver, source)
        for name, elements in result.outputs.items():
            result.outputs[name] = elements[:-1]
        return result, journal

    return lossy


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_forced_digest_mismatch_counts_as_an_error(workload):
    wl = WORKLOADS[workload]
    run = Run(dataclasses.replace(wl, run=_dropping_an_output(wl.run)), 5, TINY)
    outcome = run.measure(0)
    assert outcome["attempted"] >= 1
    assert outcome["failed"] == outcome["attempted"]
    assert "output digest differs from the oracle" in run.errors
    assert outcome["metrics"]["success_rate"] == 0.0
    assert cli.result_line(outcome, False, run.errors, SPEC)["correct"] is False


def _raise(_driver, _source):
    raise RuntimeError("program fault")


@pytest.mark.parametrize("trace", [False, True])
def test_a_raising_pass_is_counted_and_the_result_printed(trace):
    broken = dataclasses.replace(WORKLOADS["cdr_journal"], run=_raise)
    run = Run(broken, seed=5, records=TINY)
    outcome = run.trace(0) if trace else run.measure(0)
    line = cli.result_line(outcome, trace, run.errors, SPEC)
    assert line["correct"] is False
    assert "RuntimeError: program fault" in run.errors
    if trace:
        # the bare-engine passes of each round still succeed
        assert 0 < outcome["failed"] < outcome["attempted"]
    else:
        assert outcome["failed"] == outcome["attempted"] > 5
        assert outcome["metrics"]["success_rate"] == 0.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_spans_nest_and_self_times_sum_to_the_pass(workload):
    run = Run(WORKLOADS[workload], seed=7, records=TINY)
    tracer = tracing.Tracer()
    run.traced_pass(tracer)
    spans = tracer.spans
    assert spans[0][1] == "bench" and spans[0][4] == -1
    assert all(parent >= 0 for *_rest, parent in spans[1:])
    tracing.check_nesting(spans)
    wall = spans[0][3] - spans[0][2]
    layers = tracing.layer_totals(spans)
    assert sum(layers.values()) == pytest.approx(wall, rel=1e-9)
    unattributed = layers["bench"]
    assert unattributed <= 0.1 * wall
    assert {"core.engine", "operators.select", "operators.aggregate"} <= set(layers)
    assert not run.errors


def test_check_nesting_rejects_overlap_and_escape():
    tracing.check_nesting([("r", "bench", 0.0, 10.0, -1), ("a", "x", 1.0, 4.0, 0)])
    with pytest.raises(ValueError, match="overlaps"):
        tracing.check_nesting([
            ("r", "bench", 0.0, 10.0, -1),
            ("a", "x", 1.0, 4.0, 0),
            ("b", "x", 3.0, 5.0, 0),
        ])
    with pytest.raises(ValueError, match="escapes"):
        tracing.check_nesting([("r", "bench", 0.0, 10.0, -1), ("a", "x", 9.0, 11.0, 0)])


def test_tracing_restores_the_program():
    from repro.core.engine import Engine
    from repro.operators.select import Select

    before = (Engine.run, Select.process_batch)
    run = Run(WORKLOADS["cdr_columnar"], seed=1, records=TINY)
    run.traced_pass(tracing.Tracer())
    assert (Engine.run, Select.process_batch) == before


def test_a_missing_entry_point_fails_the_traced_run(monkeypatch):
    from repro.core.engine import Engine

    before = Engine.run
    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + (
        ("repro.core.engine", "Engine", ("no_such_method",), "core.engine"),
    ))
    run = Run(WORKLOADS["cdr_columnar"], seed=1, records=TINY)
    with pytest.raises(AttributeError, match="Engine.no_such_method"):
        run.trace(0)
    assert Engine.run is before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "cdr_columnar", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
