"""``python3 -m bench``: run the benchmark (see ``bench/README.md``).

With ``--workload NAME`` the workload runs in this process and the last line
of standard output is the one JSON object the driver reads.  Without it every
workload runs in a fresh subprocess of this same command, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from bench import ROOT, report, runner
from bench.inputs import WORKLOADS


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    listing = runner.catalogue()
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (in this process)")
    parser.add_argument("--seed", type=int, default=0, help="drives every input generator")
    parser.add_argument(
        "--seconds", type=float, default=float(listing["run_seconds"]),
        help="length of each workload's timed section (default: run_seconds of BENCHMARK.json)")
    parser.add_argument(
        "--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
        help="traced run: span wrappers on, per-layer metrics instead of end-to-end ones")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="N complete untraced sets (seed, seed+1, ...), then the verdicts")
    parser.add_argument("--list", action="store_true", help="print the catalogue and exit")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (the smoke test's)")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="scratch directory (default: .bench_build in the checkout)")
    parser.add_argument("--result-file", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.listing = listing
    return args


def run_here(args: argparse.Namespace) -> int:
    """One workload in this process; the driver's line last."""
    result = runner.run_workload(
        args.workload, seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
        smoke=args.smoke, workdir=args.workdir,
    )
    report.print_result(result, args.listing)
    if args.result_file is not None:
        args.result_file.write_text(json.dumps(result), encoding="utf-8")
    print(runner.driver_line(result, args.listing), flush=True)
    return 0 if result["correct"] else 1


def run_child(args: argparse.Namespace, workload: str, seed: int, trace: int) -> Dict[str, object]:
    """One workload in a fresh subprocess; its report passes through."""
    workdir = runner.prepare_workdir(args.workdir)
    result_file = workdir / f"result-{os.getpid()}-{workload}.json"
    # A traced set is a diagnostic: it runs at a third of the length.
    seconds = args.seconds / 3.0 if trace else args.seconds
    command = [
        sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir),
        "--result-file", str(result_file),
    ]
    if args.smoke:
        command.append("--smoke")
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        code = child.wait()
    finally:
        if child.poll() is None:  # interrupted: take the workload down too
            child.send_signal(signal.SIGINT)
            try:
                child.wait(timeout=20)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    try:
        result = json.loads(result_file.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        raise SystemExit(f"bench: workload {workload} exited with {code} and left no result")
    finally:
        if result_file.exists():
            result_file.unlink()
    result["exit_code"] = code
    return result


def _exit_on_sigterm(signum, frame) -> None:
    # As for SIGINT: unwind through the ``finally`` blocks that stop the service.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if args.list:
        report.print_catalogue(args.listing)
        return 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.workload and not args.repeat:
        return run_here(args)

    if not args.repeat:
        results = [run_child(args, name, args.seed, args.trace) for name in names]
        failed = [result["workload"] for result in results if result["exit_code"] != 0]
        print("\nsummary")
        key = "per_layer" if args.trace else "end_to_end"
        for result in results:
            print(f"  {result['workload']:<18} attempted={result['attempted']} "
                  f"answered={result['answered']} failed={result['failed']} "
                  f"oracle={'ok' if result['oracle_ok'] else 'FAILED'} "
                  f"{len(result[key])} {key} metrics")
        if failed:
            print("FAILED:", ", ".join(failed))
        return 1 if failed else 0

    sets = []
    for index in range(args.repeat):
        print(f"\n#### set {index + 1}/{args.repeat} (seed {args.seed + index})", flush=True)
        sets.append({name: run_child(args, name, args.seed + index, 0) for name in names})
    rows = report.repeat_verdicts(sets, args.listing)
    print(f"\n#### {args.repeat} sets; 'halves' compares the medians of the first and second "
          "half-sets")
    report.print_verdicts(rows)
    incorrect = [
        (index, name) for index, run in enumerate(sets) for name, result in run.items()
        if result["exit_code"] != 0
    ]
    for index, name in incorrect:
        print(f"set {index}: {name} was not correct")
    return 1 if incorrect or not all(row["ok"] for row in rows) else 0


#: The process environment every run measures under.
PINNED_ENVIRONMENT = {
    # String hashing is randomised per process, and with it the order in which
    # the program walks its sets of labels and branch keys: measured here, that
    # alone moves ``scan_dense`` batch throughput by ±10 % from one process to
    # the next, steady within a process.
    "PYTHONHASHSEED": "0",
    # glibc moves its mmap and trim thresholds with the sizes a process frees,
    # so whether the multi-megabyte temporaries of a ``scan_dense`` batch are
    # page-faulted afresh on every call depends on what happens to lie above
    # them on the heap: batch throughput read 1280 or 1530 QPS per process and
    # 1990 (spread 3 %) with the thresholds fixed.  Fixed at glibc's own upper
    # limit for the mmap threshold, the heap a long-lived server settles into.
    "MALLOC_MMAP_THRESHOLD_": str(32 * 1024 * 1024),
    "MALLOC_TRIM_THRESHOLD_": str(1024 * 1024 * 1024),
}


def pin_environment() -> None:
    """Re-execute under ``PINNED_ENVIRONMENT`` unless already there."""
    if any(os.environ.get(name) != value for name, value in PINNED_ENVIRONMENT.items()):
        os.environ.update(PINNED_ENVIRONMENT)
        os.execv(sys.executable, [sys.executable, "-m", "bench", *sys.argv[1:]])


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
