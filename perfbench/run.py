#!/usr/bin/env python3
"""Frontier Sampling benchmark: one workload per process, from a seed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table4-mc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

A run builds its inputs ``setup_reps`` times (``setup_s`` is the
median), runs unit 0 once untimed (warm-up, and the reference for an
exact rerun), measures units of work for ``--seconds``, then checks
every unit's output: estimates against exact values, work
conservation (steps walked == steps planned by
``steps_within_budget``), and the exact rerun.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` measures half the time untraced, reruns the same units with the
layer tracer installed and reports the per-layer metrics, including
``trace.overhead_s``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
manifest is printed above it and written to ``.perfbench/<workload>.json``.

``--workload all`` runs every workload, each in a fresh process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench"

NAMES = ("table4-mc", "fig4-sweep", "fs-wide-fused", "fs-wide-suite")

END_TO_END = (
    ("setup_s", "s"),
    ("steps_per_s", "steps/s"),
    ("sessions_per_s", "sessions/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

clock = time.perf_counter


def refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def guard_environment() -> None:
    """Refuse to measure a different program than the default one."""
    flags = sorted(key for key in os.environ if key.startswith("REPRO_NO_"))
    if flags:
        refuse(f"{', '.join(flags)} set; unset it to benchmark the default program")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        refuse(f"program source not found under {SOURCE}")


def prepare_environment() -> None:
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    # Numerical libraries get one thread: the workloads' own threads
    # (two suite workers) are the only parallelism measured.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(SOURCE))


def manifest(
    name: str, args: argparse.Namespace, units: int, setup: Dict[str, float]
) -> Dict[str, Any]:
    import numpy

    from repro.sampling import _native
    from repro.sampling.base import get_default_backend

    source = Path(_native.__file__).with_name("_kernels.c")
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    version = None
    if compiler is not None:
        probe = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True, timeout=30
        )
        version = (probe.stdout.splitlines() or [""])[0]
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": units,
        "setup_median_s": setup,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_loaded": _native.available(),
        "kernel_digest": hashlib.sha256(source.read_bytes()).hexdigest()[:16],
        "compiler": compiler,
        "compiler_version": version,
        "nproc": os.cpu_count(),
        "default_backend": get_default_backend(),
        "machine": platform.machine(),
    }


def run_units(workload: Any, budget_s: float, count: Optional[int] = None) -> List[Any]:
    """Run units until the next would take the timed total past
    ``budget_s`` (at least one), or exactly ``count`` units.  Each unit
    is settled (checked, its output shrunk) untimed right after it ran."""
    from workloads import Unit

    units: List[Any] = []
    timed = 0.0
    while True:
        index = len(units)
        begun = clock()
        try:
            unit = workload.unit(index)
        except Exception:
            unit = Unit(index, clock() - begun, workload.sessions_per_unit(), 0, 0, None)
            unit.failed = unit.sessions
            unit.errors = [f"unit {index} raised:\n{traceback.format_exc()}"]
            units.append(unit)
            return units
        unit.seconds = clock() - begun
        try:
            unit.errors = workload.settle(unit)
        except Exception:
            unit.errors = [f"checking unit {index} raised:\n{traceback.format_exc()}"]
        units.append(unit)
        timed += unit.seconds
        if count is not None:
            if len(units) >= count:
                return units
        elif timed + unit.seconds > budget_s:
            return units


def rate(units: Sequence[Any], field: str) -> float:
    """Work per second over the measured units (total / total)."""
    return sum(getattr(unit, field) for unit in units) / sum(unit.seconds for unit in units)


def run_one(args: argparse.Namespace) -> int:
    import layers
    from tracer import Tracer, tracing_overhead
    from workloads import WORKLOADS

    from repro.sampling import _native

    # Compiles into the cache on a cold checkout; untimed.
    if _native.load() is None:
        refuse("native kernels are unavailable (no C compiler?)")

    workload = WORKLOADS[args.workload](args.seed, WORK / args.workload)
    errors: List[str] = []
    try:
        setups = []
        for _ in range(workload.setup_reps):
            begun = clock()
            parts = workload.build()
            setups.append((clock() - begun, parts))
        setup_s = statistics.median(total for total, _ in setups)
        setup_parts = {
            part: statistics.median(parts[part] for _, parts in setups)
            for part in ("build_s", "csr_s", "kernel_s")
        }

        # Unit 0 once untimed: lazy set-up finishes and caches fill before
        # timing, and its output is the reference an exact rerun must match.
        reference = run_units(workload, 0.0, count=1)[0]
        if not args.trace:
            measured = untraced = run_units(workload, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            untraced = run_units(workload, args.seconds / 2.0)
            tracer = Tracer()
            layers.install_layers(tracer)
            workload.tracer = tracer
            with tracer:
                traced = run_units(workload, 0.0, count=len(untraced))
            workload.tracer = None
            for before, after in zip(untraced, traced):
                if after.output != before.output:
                    errors.append(f"traced unit {after.index} differs from its untraced run")
            measured = traced
            overhead_s = tracing_overhead(
                [unit.seconds for unit in untraced], [unit.seconds for unit in traced]
            )
            per_layer = layers.layer_metrics(
                tracer,
                overhead_s=overhead_s,
                build_s=setup_parts["build_s"],
                csr_s=setup_parts["csr_s"],
            )
        if reference.output is None or measured[0].output != reference.output:
            errors.append("a rerun of unit 0 at the same seed differs")

        for unit in {id(u): u for u in [reference, *untraced, *measured]}.values():
            errors += unit.errors
        if all(unit.output is not None for unit in measured):
            errors += workload.check(measured)
        if not errors and measured[0].output is not None:
            errors += workload.equivalence(measured[0])
    finally:
        workload.close()

    attempted = sum(unit.sessions for unit in measured)
    failed = sum(unit.failed for unit in measured)
    if not args.trace:
        values = {
            "setup_s": setup_s,
            "steps_per_s": rate(measured, "steps"),
            "sessions_per_s": rate(measured, "sessions"),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = {
            name: {"value": per_layer[name], "unit": unit}
            for name, unit, _ in layers.PER_LAYER
        }

    info = manifest(args.workload, args, len(measured), setup_parts)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("manifest " + json.dumps(info, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  units={len(measured)} sessions={attempted} failed={failed} failed_frac="
          f"{failed / attempted if attempted else 0.0:.6g}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    correct = not errors and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"{args.workload}.json").write_text(
        json.dumps({"manifest": info, "errors": errors, "result": result}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process; a combined summary last."""
    combined: Dict[str, Any] = {}
    correct, attempted, failed = True, 0, 0
    for name in NAMES:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result (exit {completed.returncode})",
                  file=sys.stderr)
            return 1
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    guard_environment()
    prepare_environment()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
