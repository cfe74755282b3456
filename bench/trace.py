"""Span wrappers around the layers' public entry points (traced runs only).

:func:`install` rebinds, in this process, the public functions listed in
:data:`TARGETS` to wrappers that record one span per call — name, start,
end, parent span, query id — in memory.  Nothing in ``src/`` is edited: the
layers are timed from outside.  A layer's *self time* is the duration of its
spans minus the part their child spans cover, so the self times of all
layers add up to the duration of the outermost spans.

A target that no longer exists (renamed in ``src/``) is reported in
``Installed.missing`` and its metrics read ``null``; it never crashes a run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: (layer, module, class or None, attribute names; a trailing ``*`` is a prefix)
TARGETS: Sequence[Tuple[str, str, Optional[str], Tuple[str, ...]]] = (
    ("db.kernels", "repro.db.columnar", "ColumnarBranchStore",
     ("intersection_*", "gbd_*", "filter_verify_*")),
    ("db.compact", "repro.db.columnar", "ColumnarBranchStore", ("compact",)),
    ("db.branch_extract", "repro.db.query", "SimilarityQuery", ("branches",)),
    ("db.add_many", "repro.db.database", "GraphDatabase", ("add_many",)),
    ("core.plan", "repro.core.plan", "ExecutionCore", ("execute", "execute_pruned")),
    ("core.plan_batch", "repro.core.plan", "ExecutionCore", ("execute_batch",)),
    ("core.plan_topk", "repro.core.plan", "ExecutionCore", ("execute_topk",)),
    ("serving.engine", "repro.serving.engine", "BatchQueryEngine",
     ("query", "query_batch", "query_topk")),
    ("service.codec", "repro.service.protocol", None,
     ("encode_frame", "decode_frame", "encode_query", "decode_query", "encode_graph",
      "decode_graph", "encode_answer", "decode_answer", "query_request")),
)

#: span name -> a number taken from the call: ``measure(args, result)``
MEASURES: Dict[str, Callable] = {
    # postings rewritten by a compaction that did work
    "db.compact:compact": lambda args, result: args[0].num_postings if result else 0,
    # bytes of the frame; both ends of the wire encode in the one process, so a
    # request (kind "query") counts as is and a reply negated
    "service.codec:encode_frame": lambda args, result: (
        len(result) if args[0].get("kind") == "query" else -len(result)),
}


@dataclass
class Spans:
    """Recorded spans as parallel arrays (one row per span)."""

    names: List[str]
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray  #: row of the parent span, -1 for an outermost span
    query_id: np.ndarray
    tag: np.ndarray
    value: np.ndarray
    self_time: np.ndarray

    def mask(self, prefix: str, tag: Optional[int] = None) -> np.ndarray:
        """Rows whose name is ``prefix`` or starts with ``prefix:``."""
        ids = [
            index for index, name in enumerate(self.names)
            if name == prefix or name.startswith(prefix + ":")
        ]
        chosen = np.isin(self.name_id, ids)
        if tag is not None:
            chosen &= self.tag == tag
        return chosen

    def known(self, prefix: str) -> bool:
        """Whether any wrapper of this layer was installed (else: renamed in ``src/``)."""
        return any(name == prefix or name.startswith(prefix + ":") for name in self.names)

    def self_seconds(self, prefix: str, tag: Optional[int] = None) -> Optional[float]:
        """Summed self time of a layer's spans; ``None`` for a layer never wrapped."""
        if not self.known(prefix):
            return None
        return float(self.self_time[self.mask(prefix, tag)].sum())

    def total_seconds(self, prefix: str, tag: Optional[int] = None) -> float:
        chosen = self.mask(prefix, tag)
        return float((self.end[chosen] - self.start[chosen]).sum())

    def count(self, prefix: str, tag: Optional[int] = None) -> int:
        return int(self.mask(prefix, tag).sum())

    def outermost_seconds(self, tag: Optional[int] = None) -> float:
        chosen = self.parent < 0
        if tag is not None:
            chosen &= self.tag == tag
        return float((self.end[chosen] - self.start[chosen]).sum())

    def save(self, path) -> None:
        """Write the spans out (``numpy.load`` reads them back)."""
        np.savez_compressed(
            path, names=np.asarray(self.names), name_id=self.name_id, start=self.start,
            end=self.end, parent=self.parent, query_id=self.query_id, tag=self.tag,
            value=self.value,
        )


@dataclass
class Recorder:
    """In-memory span store; wrappers record only while ``enabled``."""

    enabled: bool = False
    tag: int = 0  #: stamped on every span; the harness sets it per pass
    names: List[str] = field(default_factory=list)
    #: layer -> the object its last span ran on (how ``db.store_mb`` finds the store)
    instances: Dict[str, object] = field(default_factory=dict)
    _threads: List[Tuple[list, list]] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _next_query: int = 0

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self.names:
                self.names.append(name)
            return self.names.index(name)

    def thread_state(self) -> Tuple[list, list]:
        """This thread's ``(stack, spans)``; spans lists are merged by :meth:`spans`."""
        try:
            return self._local.state
        except AttributeError:
            state = ([], [])
            self._local.state = state
            with self._lock:
                self._threads.append(state)
            return state

    def next_query_id(self) -> int:
        self._next_query += 1
        return self._next_query

    def spans(self, *, drain: bool = False) -> Spans:
        """All finished spans; ``drain`` forgets them (idle threads only)."""
        rows: List[tuple] = []
        with self._lock:
            threads = list(self._threads)
        for stack, recorded in threads:
            base = len(rows)
            taken = [row for row in recorded if row is not None]
            if len(taken) != len(recorded):
                continue  # a span is still open on that thread; leave it be
            for row in taken:
                parent = row[3]
                rows.append(row[:3] + (parent + base if parent >= 0 else -1,) + row[4:])
            if drain and not stack:
                del recorded[:]
        if rows:
            table = np.asarray(rows, dtype=np.float64)
        else:
            table = np.zeros((0, 7), dtype=np.float64)
        parent = table[:, 3].astype(np.int64)
        duration = table[:, 2] - table[:, 1]
        covered = np.zeros(len(table), dtype=np.float64)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        return Spans(
            names=list(self.names),
            name_id=table[:, 0].astype(np.int64),
            start=table[:, 1],
            end=table[:, 2],
            parent=parent,
            query_id=table[:, 4].astype(np.int64),
            tag=table[:, 5].astype(np.int64),
            value=table[:, 6],
            self_time=duration - covered,
        )


def _wrap(recorder: Recorder, name: str, function: Callable, keep_instance: bool) -> Callable:
    name_id = recorder.name_id(name)
    measure = MEASURES.get(name)
    clock = time.perf_counter
    layer = name.split(":")[0]

    def traced(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        stack, spans = recorder.thread_state()
        if stack:
            parent, query_id = stack[-1]
        else:
            parent, query_id = -1, recorder.next_query_id()
        row = len(spans)
        spans.append(None)
        stack.append((row, query_id))
        value = 0
        started = clock()
        try:
            result = function(*args, **kwargs)
            if measure is not None:
                value = measure(args, result)
            return result
        finally:
            ended = clock()
            stack.pop()
            spans[row] = (name_id, started, ended, parent, query_id, recorder.tag, value)
            if keep_instance:
                recorder.instances[layer] = args[0]

    traced.__wrapped__ = function
    traced.__name__ = getattr(function, "__name__", "traced")
    return traced


@dataclass
class Installed:
    """What :func:`install` rebound; :meth:`uninstall` restores it."""

    recorder: Recorder
    missing: List[str] = field(default_factory=list)
    _restore: List[Tuple[object, str, object]] = field(default_factory=list)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()


def _resolve(names: Tuple[str, ...], owner) -> Tuple[List[str], List[str]]:
    found: List[str] = []
    missing: List[str] = []
    for pattern in names:
        if pattern.endswith("*"):
            matches = [
                attribute for attribute, value in vars(owner).items()
                if attribute.startswith(pattern[:-1]) and inspect.isfunction(value)
            ]
        else:
            value = vars(owner).get(pattern)
            matches = [pattern] if inspect.isfunction(value) else []
        if matches:
            found.extend(matches)
        else:
            missing.append(pattern)
    return found, missing


def install(recorder: Recorder) -> Installed:
    """Rebind every target in :data:`TARGETS` to a recording wrapper."""
    installed = Installed(recorder)
    for layer, module_name, class_name, names in TARGETS:
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
        except (ImportError, AttributeError):
            installed.missing.extend(f"{layer}:{name}" for name in names)
            continue
        found, missing = _resolve(names, owner)
        installed.missing.extend(f"{layer}:{name}" for name in missing)
        for attribute in found:
            original = vars(owner)[attribute]
            wrapper = _wrap(
                recorder, f"{layer}:{attribute}", original, keep_instance=layer == "db.compact"
            )
            holders = [owner]
            if class_name is None:
                # ``from repro.service.protocol import encode_frame`` copied the
                # function into the importing modules; rebind those names too.
                holders += [
                    other for other_name, other in list(sys.modules.items())
                    if other_name.startswith("repro.") and other is not module
                    and vars(other).get(attribute) is original
                ]
            for holder in holders:
                installed._restore.append((holder, attribute, vars(holder)[attribute]))
                setattr(holder, attribute, wrapper)
    return installed
