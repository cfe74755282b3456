"""Printing: one run's report, the catalogue, and the ``--repeat`` verdicts."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence


def _number(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return f"{value:.4g}"


def print_catalogue(listing: Dict[str, object]) -> None:
    print("command:", " ".join(listing["command"]), f"(run_seconds={listing['run_seconds']})")
    print("\nworkloads")
    for workload in listing["workloads"]:
        print(f"  {workload['name']:<18} {workload['why']}")
    print("\nend-to-end metrics (each measured on every workload)")
    for metric in listing["end_to_end"]:
        print(f"  {metric['name']:<24} {metric['unit']:<6} {metric['better']:<7}"
              f" may worsen by {metric['bound']:.0%}")
    print("\nper-layer metrics (traced run; definitions in bench/README.md)")
    for metric in listing["per_layer"]:
        print(f"  {metric['name']:<38} {metric['unit']:<10} {metric['better']}")


def print_result(result: Dict[str, object], listing: Dict[str, object]) -> None:
    """Every metric of one run by name, with unit; counts; the oracle verdict."""
    env = result["env"]
    mode = "traced" if result["traced"] else "end-to-end"
    print(f"== {result['workload']} ({mode}{', smoke sizes' if result['smoke'] else ''}) "
          f"seed={result['seed']} timed_section={result['timed_section_s']:.1f}s "
          f"rounds={result['rounds']}")
    print(f"   env: git={env['git_sha']} cpus={env['cpu_count']} affinity={env['affinity']} "
          f"loadavg={env['loadavg']} python={env['python']} numpy={env['numpy']} "
          f"kernels={env['kernel_backend']} machine.calib_ms={result['machine.calib_ms']:.3f}")
    print("   phase            attempted  answered  failed  passes  wall rate/s  "
          "machine_speed  flags")
    for name, phase in result["phases"].items():
        flags = [flag for flag in ("disturbed", "invalid") if phase.get(flag)]
        print(f"   {name:<16} {phase['attempted']:>9}  {phase['answered']:>8}  "
              f"{phase['failed']:>6}  {phase['passes']:>6}  {phase['wall_rate_per_s']:>11.1f}  "
              f"{phase['machine_speed']:>13.2f}  {' '.join(flags) or '-'}")
        if "latency_p99_ms" in phase:
            print(f"   {'':<16} latency p50/p90 = {phase['latency_p50_ms']:.3f}/"
                  f"{phase['latency_p90_ms']:.3f} ms (median pass of "
                  f"{phase['latency_samples_per_pass']} samples), pooled p99 (diagnostic) = "
                  f"{phase['latency_p99_ms']:.3f} ms over {phase['latency_samples']}")
    oracle = result["oracle"]
    print(f"   oracle: {oracle['checked']} sampled answers checked, "
          f"{oracle['mismatches']} mismatches -> {'ok' if result['oracle_ok'] else 'FAILED'}")
    if "cache_hits" in result:
        print(f"   result-cache hits in the timed section: {result['cache_hits']} "
              "(each one is a failed operation)")
    print(f"   set-ups (s): {', '.join(f'{value:.3f}' for value in result['setup_samples_s'])}")
    key = "per_layer" if result["traced"] else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in listing[key]}
    values = result[key]
    for name in units:
        print(f"   {name:<38} {_number(values.get(name)):>14} {units[name]}")
    for name in sorted(set(values) - set(units)):
        print(f"   {name:<38} {_number(values[name]):>14} (not in BENCHMARK.json)")
    if result["traced"]:
        for missing in result.get("missing_targets", []):
            print(f"   WARNING: trace target {missing} not found in src/ - its metrics read n/a")
        coverage = values.get("trace.coverage_pct")
        if coverage is not None and coverage < 90.0 and result["workload"] != "service_wire":
            print(f"   WARNING: layer self times cover only {coverage:.1f}% of the single phase")
        for step in result.get("ladder", []):
            print(f"   ladder {step['rate']:>5}/s: p90={_number(step['p90_ms'])} ms "
                  f"left_at_end={step['left_at_end']} failed={step['failed']} "
                  f"{'holds' if step['holds'] else 'past the knee'}"
                  f"{' INVALID (generator late or refused)' if step['invalid'] else ''}")
        for phase, extras in result.get("per_phase", {}).items():
            print(f"   {phase:<8} queue_wait_ms_p50={_number(extras['queue_wait_ms_p50'])} "
                  f"mean_batch_size={_number(extras['mean_batch_size'])}")
        if "trace_file" in result:
            print(f"   spans written to {result['trace_file']}")


#: The bounds the issue asked for.  ``BENCHMARK.json`` carries wider ones for the
#: timings (README, "Spread over ten sets"); a pair whose runs do not agree to
#: within the issue's bound is reported as unresolved at that bound.
ISSUE_BOUNDS = {"peak_rss_mb": 0.05}
ISSUE_BOUND = 0.10


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median (the driver's spread)."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def repeat_verdicts(sets: List[Dict[str, Dict[str, object]]], listing: Dict[str, object]):
    """Per metric × workload: median, spreads, half-set comparison, stray runs."""
    rows = []
    half = len(sets) // 2
    for workload in sets[0]:
        for metric in listing["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            values = [run[workload]["end_to_end"][name] for run in sets]
            median = statistics.median(values)
            row = {
                "workload": workload, "metric": name, "unit": metric["unit"], "bound": bound,
                "median": median, "range_share": (max(values) - min(values)) / median,
                "iqr_share": iqr_share(values) if len(values) >= 2 else 0.0,
                "halves": None, "ok": True, "strays": [],
            }
            if half >= 1:
                first = statistics.median(values[:half])
                second = statistics.median(values[half:])
                row["halves"] = abs(worse_by(first, second, better))
                row["ok"] = row["halves"] < bound
            # The driver that accepts the benchmark checks the spread of every
            # metric but ``setup_s`` (a run has two or three set-ups against
            # thousands of queries); its medians are compared like the others'.
            if name != "setup_s" and row["iqr_share"] > bound:
                row["ok"] = False
            wanted = ISSUE_BOUNDS.get(name, ISSUE_BOUND)
            row["resolves_issue_bound"] = (
                row["iqr_share"] <= wanted and (row["halves"] or 0.0) < wanted)
            for index, value in enumerate(values):
                if abs(value - median) / median > bound:
                    phases = sets[index][workload]["phases"]
                    disturbed = any(phase.get("disturbed") for phase in phases.values())
                    row["strays"].append((index, value, disturbed))
            rows.append(row)
    return rows


def print_verdicts(rows) -> None:
    print(f"{'workload':<18}{'metric':<24}{'median':>12} {'unit':<5}{'range/med':>10}"
          f"{'iqr/med':>9}{'halves':>8}{'bound':>7}  verdict  at the issue's bound")
    for row in rows:
        halves = f"{row['halves']:.1%}" if row["halves"] is not None else "n/a"
        print(f"{row['workload']:<18}{row['metric']:<24}{_number(row['median']):>12} "
              f"{row['unit']:<5}{row['range_share']:>10.1%}{row['iqr_share']:>9.1%}"
              f"{halves:>8}{row['bound']:>7.0%}  {'ok' if row['ok'] else 'MISS':<7}  "
              f"{'resolved' if row['resolves_issue_bound'] else 'unresolved'}")
        for index, value, disturbed in row["strays"]:
            print(f"{'':<18}  run {index}: {_number(value)} strays beyond the bound"
                  f"{' (flagged disturbed)' if disturbed else ''}")
