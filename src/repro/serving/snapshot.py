"""Versioned on-disk snapshots of a fitted serving engine.

A snapshot captures everything the online stage needs — the database graphs,
the GMM parameters of the GBD prior (Λ2) and the Jeffreys GED-prior grid
(Λ3) — so a server process can :func:`load_engine` in milliseconds instead
of re-running the offline ``fit()`` (pair sampling + EM + Jeffreys grid).
Neither branch multisets nor posterior lookup tables are stored: the loader
re-extracts the branches with one ``add_many`` (the store then holds what
the graphs say, whatever a file claims), and the tables cost milliseconds to
rebuild from the priors — rebuilt, they are the very floats
the per-pair reference loop computes with the loaded priors.

The payload is a plain dict of built-in types serialized with :mod:`pickle`
behind a ``(format, version)`` header; :func:`load_engine` refuses files
with an unknown format or a newer version with a clear
:class:`~repro.exceptions.SnapshotError`.  As with any pickle-based format,
only load snapshots you produced yourself or otherwise trust.

Crash safety
------------
:func:`save_engine` is atomic and torn-write-proof: the payload is written
to a temporary file in the destination directory, flushed and ``fsync``-ed,
then moved into place with ``os.replace`` — a crash mid-write leaves the
previous snapshot intact, never a half-written file under the final name.
Every snapshot ends in a fixed-size integrity footer (sha256 of the
payload + payload length + magic); :func:`load_engine` verifies it and
raises :class:`~repro.exceptions.SnapshotCorruptError` on truncation or
bit corruption *before* any of the payload is trusted.  Footer-less files
written by older builds still load (their integrity is unverified).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from pathlib import Path
from typing import Union

from repro.core.estimator import GBDAEstimator
from repro.core.gbd_prior import GBDPrior
from repro.core.ged_prior import GEDPrior
from repro.db.database import GraphDatabase
from repro.exceptions import SnapshotCorruptError, SnapshotError
from repro.graphs.graph import Graph
from repro.serving.engine import BatchQueryEngine

__all__ = ["save_engine", "load_engine", "SNAPSHOT_FORMAT", "SNAPSHOT_VERSION"]

SNAPSHOT_FORMAT = "repro.serving.engine-snapshot"
#: Format version 2 adds the offline ``model_version`` and the priors' seed
#: state (so a reloaded prior refits deterministically); version 3 adds the
#: engine's pruned-execution flag, which loading now ignores (answers
#: were bit-identical under both values); version 4 adds the *configured* ``kernel_backend``
#: (configured, not resolved — a snapshot built where the native kernels
#: compile must still load on a machine without a toolchain, so ``"auto"``
#: re-resolves per host); version 5 drops the v1–v4 ``posterior_tables``,
#: which loading ignores (an older Λ1 may differ in the last ulp); version 6
#: drops each graph's ``branches`` record, which loading ignores in v1–v5
#: files (a record that disagrees with its graph would be served as the
#: graph's); version 7 drops the engine's ``keep_scores`` and
#: ``use_index_pruning``, the engine having one plan: a v1–v6 file's
#: ``keep_scores`` is ignored (accepted sets and their scores are unchanged;
#: the other graphs' posteriors are no longer in an answer), and its
#: ``use_index_pruning: True`` is refused (its accepted sets would change).
#: Older files are still readable — the new fields default to 0 / seed 0 /
#: ``"auto"``.
SNAPSHOT_VERSION = 7

PathLike = Union[str, Path]

#: Integrity footer appended after the pickle payload:
#: ``sha256(payload) (32B) | payload length (8B big-endian) | magic (8B)``.
#: The footer sits *after* the pickle stream, so files carrying it remain
#: readable by any loader that simply unpickles from the front — and
#: version 1–7 payloads round-trip through it unchanged.
_FOOTER_MAGIC = b"RSNAPSUM"
_FOOTER_STRUCT = struct.Struct(">32sQ8s")


def _write_atomic(destination: Path, blob: bytes) -> None:
    """Write ``blob`` to ``destination`` atomically (temp + fsync + rename).

    The temporary file lives in the destination directory so the final
    ``os.replace`` is a same-filesystem atomic rename; the file and (best
    effort) its directory are fsync-ed first, so after a crash the name
    either refers to the complete new snapshot or the complete old one.
    """
    tmp = destination.with_name(f".{destination.name}.tmp.{os.getpid()}")
    try:
        with tmp.open("wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, destination)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    try:
        directory = os.open(str(destination.parent), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except OSError:  # pragma: no cover - platform without dir fsync
        pass


def _verified_payload(blob: bytes, source: Path) -> bytes:
    """Strip and verify the integrity footer; raise on corruption.

    Returns the pickle payload bytes.  Files without the footer (older
    builds) are returned whole — their integrity cannot be checked.
    """
    footer_size = _FOOTER_STRUCT.size
    if len(blob) < footer_size or blob[-8:] != _FOOTER_MAGIC:
        return blob  # legacy footer-less snapshot
    digest, length, _magic = _FOOTER_STRUCT.unpack(blob[-footer_size:])
    payload = blob[:-footer_size]
    if length != len(payload):
        raise SnapshotCorruptError(
            f"snapshot {source} is truncated: footer records {length} payload "
            f"bytes, file holds {len(payload)}"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise SnapshotCorruptError(
            f"snapshot {source} failed its sha256 integrity check "
            "(bit corruption or a torn write)"
        )
    return payload


def save_engine(engine: BatchQueryEngine, path: PathLike) -> Path:
    """Serialize a fitted :class:`BatchQueryEngine` to ``path``; return it."""
    graphs = [
        {
            "name": entry.graph.name,
            "vertices": list(entry.graph.vertex_items()),
            "edges": list(entry.graph.edges()),
        }
        for entry in engine.database
    ]
    estimator = engine.estimator
    payload = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "model_version": int(getattr(engine, "model_version", 0)),
        "database": {"name": engine.database.name, "graphs": graphs},
        "gbd_prior": estimator.gbd_prior.to_state(),
        "ged_prior": estimator.ged_prior.to_state(),
        "num_vertex_labels": estimator.num_vertex_labels,
        "num_edge_labels": estimator.num_edge_labels,
        "engine": {
            "max_tau": engine.max_tau,
            "cache_size": engine.cache_size,
            "kernel_backend": engine.database.kernel_backend,
        },
    }
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    footer = _FOOTER_STRUCT.pack(
        hashlib.sha256(blob).digest(), len(blob), _FOOTER_MAGIC
    )
    _write_atomic(destination, blob + footer)
    return destination


def load_engine(path: PathLike) -> BatchQueryEngine:
    """Restore a :class:`BatchQueryEngine` from a snapshot without re-fitting."""
    source = Path(path)
    if not source.exists():
        raise SnapshotError(f"snapshot file {source} does not exist")
    blob = source.read_bytes()
    verified = _verified_payload(blob, source)
    try:
        payload = pickle.loads(verified)
    except (pickle.UnpicklingError, EOFError, AttributeError, ValueError, IndexError) as exc:
        if len(verified) < len(blob):
            # The footer checked out but the payload will not unpickle —
            # only possible if the file was *written* torn.
            raise SnapshotCorruptError(
                f"snapshot file {source} passed its checksum but is unreadable"
            ) from exc
        raise SnapshotCorruptError(
            f"snapshot file {source} is corrupt or not a snapshot"
        ) from exc

    if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"file {source} is not a serving-engine snapshot")
    version = payload.get("version")
    if not isinstance(version, int) or version < 1 or version > SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version!r} is not supported "
            f"(this build reads versions 1..{SNAPSHOT_VERSION})"
        )

    config = payload["engine"]
    if config.get("use_index_pruning", False):
        raise SnapshotError(
            f"snapshot {source} was saved with use_index_pruning, which this build "
            "does not serve (its accepted sets would change); rebuild the engine "
            "from a search without it"
        )
    database = GraphDatabase(
        (
            Graph.from_dicts(
                dict(record["vertices"]),
                {(u, v): label for u, v, label in record["edges"]},
                name=record["name"],
            )
            for record in payload["database"]["graphs"]
        ),
        name=payload["database"]["name"],
        kernel_backend=config.get("kernel_backend", "auto"),
    )

    gbd_prior = GBDPrior.from_state(payload["gbd_prior"])
    ged_prior = GEDPrior.from_state(payload["ged_prior"])
    estimator = GBDAEstimator(
        gbd_prior,
        ged_prior,
        payload["num_vertex_labels"],
        payload["num_edge_labels"],
    )
    engine = BatchQueryEngine(
        database,
        estimator,
        max_tau=config["max_tau"],
        cache_size=config["cache_size"] or None,
    )
    engine.model_version = int(payload.get("model_version", 0))
    return engine
