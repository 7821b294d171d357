"""End-to-end benchmark of the packet classifier under cold deploys and churn.

Run from the repository root::

    python3 perfbench/run.py                          # every workload, untraced
    python3 perfbench/run.py --workload replay_churn --seed 7 --seconds 25
    python3 perfbench/run.py --workload cold_start --trace 1

Each workload runs in a fresh process (``perfbench/workloads.py``) whose
``PYTHONHASHSEED`` is derived from ``--seed``.  Every metric is printed by
name with its unit and sample count; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` measures for ``--seconds`` (and at least 100 batches and 100
commits) and reports the end-to-end metrics.  ``--trace 1`` runs a fixed
amount of work three times -- once untraced, twice traced -- and reports the
per-layer metrics of the first traced run and its overhead over the
untraced run; it fails if a count metric differs between the traced runs, or
a modelled count between the traced and the untraced run.
Spans are written to ``.perfbench-out/``.

The exit code is 0 only when every checked result matched the oracle, no
commit failed and the count metrics repeated.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("cold_start", "replay_churn", "fabric_churn")

#: Every run of this command ends within this many seconds.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A workload process failed without producing a result."""


def run_workload(workload, seed, seconds, trace, steps=None, spans=None, deadline=None):
    """Run one workload process and return its parsed result."""
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if steps is not None:
        command += ["--steps", str(steps)]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED=str(seed % (1 << 32)))
    timeout = max(1.0, deadline - time.monotonic()) if deadline else None
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within the deadline") from None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload}: exited with code {proc.returncode} and no result") from None
    return result


def show(workload, metrics):
    for name, metric in metrics.items():
        samples = metric.get("samples")
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"{workload:13s} {name:48s} {metric['value']:14.4f} {metric['unit']}{suffix}")


def end_to_end(workload, seed, seconds, deadline):
    result = run_workload(workload, seed, seconds, 0, deadline=deadline)
    show(workload, result["e2e"])
    failed_ratio = result["failed"] / result["attempted"]
    print(f"{workload:13s} {'failed_ratio':48s} {failed_ratio:14.4f} ratio"
          f"  (n={result['attempted']})")
    for name, value in result["host"].items():
        print(f"{workload:13s} {'host.' + name:48s} {value:14.4f}")
    metrics = {
        name: {"value": metric["value"], "unit": metric["unit"]}
        for name, metric in result["e2e"].items()
    }
    return result["correct"], result["attempted"], result["failed"], metrics


def traced(workload, seed, seconds, deadline):
    """Fixed work: untraced once, traced twice; counts must repeat exactly."""
    OUT_DIR.mkdir(exist_ok=True)
    untraced = run_workload(workload, seed, seconds, 0, steps=0, deadline=deadline)
    first, second = (
        run_workload(
            workload, seed, seconds, 1, steps=0, deadline=deadline,
            spans=OUT_DIR / f"spans-{workload}-{run}.jsonl",
        )
        for run in (1, 2)
    )
    runs = (untraced, first, second)
    differing = sorted(
        name for name, value in first["exact"].items() if second["exact"][name] != value
    )
    differing += sorted(
        name for name, value in untraced["model"].items() if first["model"][name] != value
    )
    for name in differing:
        print(f"{workload}: count metric {name} did not repeat", file=sys.stderr)
    metrics = dict(first["layers"])
    metrics["host.ref_ms"] = {"value": untraced["host"]["ref_ms"], "unit": "ms"}
    metrics["host.raw_throughput_pps"] = {
        "value": untraced["host"]["raw_throughput_pps"], "unit": "pkt/s"
    }
    metrics["host.tracing_overhead"] = {
        "value": first["timed_s"] / untraced["timed_s"],
        "unit": "ratio",
    }
    show(workload, metrics)
    correct = all(run["correct"] for run in runs) and not differing
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs) + len(differing)
    return correct, attempted, failed, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    deadline = time.monotonic() + DEADLINE_S * len(workloads)
    measure = traced if args.trace else end_to_end
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload in workloads:
            ok, tried, bad, values = measure(workload, args.seed, args.seconds, deadline)
            correct = correct and ok
            attempted += tried
            failed += bad
            if args.workload:
                metrics = values
            else:
                metrics.update({f"{workload}.{name}": m for name, m in values.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
