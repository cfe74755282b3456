"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one paper artefact (a table or a figure), prints
its plain-text rendering, and writes it to ``<results_dir>/<name>.txt``.  The
committed record lives in ``results/``, and only a run that asks for it with
``REPRO_BENCH_WRITE=1`` writes there (the CI steps that upload or compare
``results/BENCH_*.json`` do); every other run, tier-1 included, writes to a
pytest temporary directory and leaves the working tree as it found it.

Expensive experiment sweeps are computed once per session in fixtures and
shared across the benchmark files that slice different metrics out of them
(e.g. Figures 10–13 / 14–17 / 18–21 all come from one effectiveness sweep).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import SMALL_SCALE, dataset_suite

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    """Where rendered tables/series are written: ``results/`` only on request."""
    if os.environ.get("REPRO_BENCH_WRITE") != "1":
        return tmp_path_factory.mktemp("results")
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_output(results_dir):
    """Callable that persists an ExperimentOutput and echoes it to stdout."""

    def _save(output) -> None:
        path = results_dir / f"{output.name}.txt"
        path.write_text(output.rendered + "\n", encoding="utf-8")
        print()
        print(output.rendered)

    return _save


@pytest.fixture(scope="session")
def scale():
    """The reproduction scale used by the benchmark suite (seconds per artefact)."""
    return SMALL_SCALE


@pytest.fixture(scope="session")
def real_datasets(scale):
    """The four real-data look-alike datasets, built once per session."""
    return dataset_suite(scale, include_synthetic=False)


@pytest.fixture(scope="session")
def all_datasets(scale):
    """Real look-alikes plus Syn-1/Syn-2, built once per session."""
    return dataset_suite(scale, include_synthetic=True)


@pytest.fixture(scope="session")
def effectiveness_results(real_datasets, scale):
    """One effectiveness sweep per real dataset (shared by Figures 10–21)."""
    from repro.experiments import run_effectiveness_real

    return {dataset.name: run_effectiveness_real(dataset, scale) for dataset in real_datasets}


@pytest.fixture(scope="session")
def variant_results(real_datasets, scale):
    """GBDA-vs-variant comparisons (shared by Figures 22–25 and 26–29)."""
    from repro.experiments import run_variant_comparison

    return {
        dataset.name: run_variant_comparison(
            dataset, scale, alpha_values=(10, 50), weight_values=(0.1, 0.5)
        )
        for dataset in real_datasets[:2]
    }
