"""The C kernels under AddressSanitizer and UBSan.

The Python suites cannot see a read one slot past a posting segment, a heap
entry written beyond ``k``, or an int32 accumulator that wrapped: the answers
are usually still right.  This leg builds the bundled ``_kernels.c`` with
``-fsanitize=address,undefined`` at the path the loader itself would use
(:func:`repro.db.kernels.native.library_path`) inside a private
``REPRO_KERNEL_CACHE``, and runs the suites that drive the kernels — parity,
columnar, carry, multi-chunk top-k, the reducers, batches that mix both, the
metamorphic relations, the posterior table and graphs of 10⁵ vertices — in a
subprocess that preloads the sanitizer runtime.  Any report
aborts that process, so the
assertion is its exit code.  No switch in ``src/``: the sanitised build is
just a library of the same source placed where the cache would have put it.

To run it by hand, see ``.claude/skills/verify/SKILL.md``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.db.kernels import native

ROOT = Path(__file__).resolve().parent.parent
SUITES = [
    "tests/test_kernels.py",
    "tests/test_columnar.py",
    "tests/test_columnar_carry.py",
    "tests/test_execution_parity.py",
    "tests/test_topk_multichunk.py",
    "tests/test_clustered_layout.py",
    "tests/test_batch_rows.py",
    "tests/test_metamorphic.py",
    "tests/test_posterior_table.py",
    "tests/test_large_orders.py",
]
SANITIZE = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined"]


def _asan_runtime(compiler: str):
    """The shared AddressSanitizer runtime of ``compiler``, or ``None``.

    gcc answers ``-print-file-name`` with the bare name when it has no such file.
    """
    found = subprocess.run(
        [compiler, "-print-file-name=libasan.so"], capture_output=True, text=True, timeout=60
    ).stdout.strip()
    return found if os.path.isabs(found) and os.path.exists(found) else None


def test_kernel_suites_are_clean_under_asan_and_ubsan(tmp_path, monkeypatch):
    compiler = native._find_compiler()
    if compiler is None:
        pytest.skip("no C compiler (tried cc, gcc, clang)")
    runtime = _asan_runtime(compiler)
    if runtime is None:
        pytest.skip(f"{compiler} has no AddressSanitizer runtime (libasan.so)")
    cache = tmp_path / "kernels"
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache))
    library = native.library_path()
    assert library.parent == cache
    cache.mkdir()
    build = subprocess.run(
        [compiler, *SANITIZE, "-std=c99", "-fPIC", "-shared",
         str(native._SOURCE_PATH), "-o", str(library)],
        capture_output=True, text=True, timeout=300,
    )
    if build.returncode != 0:
        pytest.skip(f"sanitised build failed: {build.stderr.strip()[-500:]}")
    env = dict(
        os.environ,
        LD_PRELOAD=runtime,
        ASAN_OPTIONS="detect_leaks=0",  # CPython keeps its arenas; leaks are not the question
        REPRO_KERNEL_BACKEND="native",
        REPRO_KERNEL_CACHE=str(cache),
        PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *SUITES],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800,
    )
    assert run.returncode == 0, f"{run.stdout[-6000:]}\n{run.stderr[-6000:]}"
    assert list(cache.glob("*.so")) == [library]  # the suites ran the sanitised build, built no other
