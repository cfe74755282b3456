"""Run one workload in this process and shape its result."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Dict, Optional

from bench import ROOT

BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DEFAULT_WORKDIR = ROOT / ".bench_build"


def catalogue() -> Dict[str, object]:
    """``BENCHMARK.json``: the names every run reports under."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def prepare_workdir(workdir: Optional[Path]) -> Path:
    """Create the scratch directory and keep the kernel build inside it.

    The library compiles its C kernels on first use into
    ``$REPRO_KERNEL_CACHE``; left unset that is a per-user directory under
    ``$TMPDIR``, outside the checkout — and the compiler puts its own
    intermediate files under ``$TMPDIR`` too.
    """
    workdir = Path(workdir) if workdir is not None else DEFAULT_WORKDIR
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ.setdefault("REPRO_KERNEL_CACHE", str(workdir / "kernels"))
    os.environ["TMPDIR"] = str(workdir / "tmp")
    return workdir


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    traced: bool = False,
    smoke: bool = False,
    workdir: Optional[Path] = None,
) -> Dict[str, object]:
    """Run ``name`` once; the caller's process is the workload process."""
    workdir = prepare_workdir(workdir)
    # Imported here: the kernel cache location above must be set before the
    # library resolves its backend, and the native library must be compiled
    # before any set-up is timed.
    from repro.db.kernels import resolve_backend

    from bench import harness, inputs, service, workloads
    from bench.trace import Recorder, install

    backend = resolve_backend("auto")
    sizes = inputs.sizes_for(name, smoke)
    recorder = installed = None
    if traced:
        recorder = Recorder()
        installed = install(recorder)
    try:
        if name == "service_wire":
            result = service.run_service_workload(sizes, seed, seconds, recorder, workdir)
        elif name == "ingest_mixed":
            result = workloads.run_ingest_workload(sizes, seed, seconds, recorder)
        else:
            result = workloads.run_engine_workload(name, sizes, seed, seconds, recorder)
    finally:
        if installed is not None:
            installed.uninstall()

    result.update(
        workload=name, seed=seed, seconds=seconds, traced=traced, smoke=smoke,
        env=harness.environment_stamp(backend),
    )
    result["oracle_ok"] = result["oracle"]["mismatches"] == 0 and result["oracle"]["checked"] > 0
    result["correct"] = bool(result["oracle_ok"] and result["failed"] == 0)
    if traced:
        spans = result.pop("spans", None)
        if spans is not None:
            trace_dir = workdir / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            path = trace_dir / f"{name}-seed{seed}.npz"
            spans.save(path)
            result["trace_file"] = str(path)
        result["missing_targets"] = installed.missing
    return result


def driver_line(result: Dict[str, object], listing: Dict[str, object]) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    if result["traced"]:
        wanted, values = listing["per_layer"], result["per_layer"]
    else:
        wanted, values = listing["end_to_end"], result["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"])
        # A per-layer metric that does not exist on this workload (or whose
        # target is missing) reads 0 here; the report above prints it as n/a.
        if value is None or not math.isfinite(value):
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps({
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })
