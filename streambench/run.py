"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 streambench/run.py --workload cdr_columnar --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that attributes time to the layers.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (each metric a ``{"value", "unit"}`` pair);
the lines before it describe the run for a human reader.  The program
is imported from ``src/`` next to this directory, never from elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The declared workloads and metrics, with their units.
SPEC_PATH = HERE.parent / "BENCHMARK.json"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine() -> dict:
    try:
        import numpy  # noqa: F401
        have_numpy = True
    except ImportError:
        have_numpy = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": have_numpy,
    }


def result_line(
    outcome: dict, trace: bool, errors: list[str], spec: dict
) -> dict:
    """The final JSON object: ``{"correct", "attempted", "failed", "metrics"}``,
    with every metric ``BENCHMARK.json`` declares for this kind of run."""
    declared = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in declared}
    if set(outcome["metrics"]) != names:
        raise ValueError(
            f"measured {sorted(set(outcome['metrics']) ^ names)} "
            f"differ from the declared metrics"
        )
    return {
        "correct": not errors and outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"streambench: no program sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from loads import WORKLOADS
    from measure import REFERENCE_KERNEL_S, Run

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"streambench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    run = Run(workload, args.seed)
    outcome = run.trace(args.seconds) if args.trace else run.measure(args.seconds)
    print(
        f"# workload={workload.name} seed={args.seed} records={run.records} "
        f"passes={outcome['attempted']} failed={outcome['failed']} "
        f"error_rate={outcome['failed'] / outcome['attempted']:.4f} "
        f"machine={json.dumps(machine())}"
    )
    if not args.trace:
        print(
            f"# {outcome['timed_passes']} timed passes: median "
            f"{outcome['median_pass_raw_s']:.6f} s raw, "
            f"{outcome['median_pass_s']:.6f} s rescaled; median kernel "
            f"{outcome['median_kernel_s']:.6f} s against the reference "
            f"{REFERENCE_KERNEL_S} s; set-up median {run.setup_raw_s:.6g} s "
            f"raw, {run.setup_s:.6g} s rescaled; peak memory per input "
            f"{', '.join(f'{mb:.3f}' for mb in outcome['peaks_mb'])} MB"
        )
    for message in run.errors:
        print(f"# error: {message}")
    print(json.dumps(result_line(outcome, bool(args.trace), run.errors, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
