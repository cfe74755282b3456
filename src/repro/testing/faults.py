"""Deterministic fault injection for the service layer.

The resilience primitives of :mod:`repro.service.resilience` are proven
against *injected* failure, not hoped correct: a seeded
:class:`FaultInjector` decides — deterministically, and with a replayable
event log — when the wire drops, corrupts, truncates, delays, or resets a
frame, and when the engine raises or stalls mid-batch.  A chaos test run
that fails can dump ``injector.schedule`` and be replayed exactly from
its seed.

Three injection sites cover the failure surface of the service stack:

* **the wire** — :class:`FaultProxy`, a frame-aware TCP proxy between
  client and server (runs on its own thread + event loop, like
  :func:`~repro.service.server.start_service_thread`).  It understands
  the length-prefixed framing, so faults land on *message* boundaries
  the way real network failures do: a dropped response (client must time
  out and retry), corrupted payload bytes (receiver sees a body of
  no known message class and must poison the connection), a truncated frame followed by a
  reset (the classic partial write), injected latency (stalls), and
  abrupt resets.
* **the engine** — :class:`FaultyEngine`, a transparent wrapper whose
  ``query_batch`` raises or sleeps per the schedule; the batcher must
  fail the whole flush with a typed error and keep serving later
  batches.
* **the process** — :class:`ChaosService`, kill-and-restart of the
  service thread on a stable port: clients with retry policies must
  reconnect and converge after the "crash".

Everything here is test infrastructure, but it ships in the package
(like ``numpy.testing``) so downstream deployments can chaos-test their
own configurations.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import random
import struct
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ServiceError
from repro.service.server import ServiceHandle, start_service_thread

__all__ = [
    "FaultInjector",
    "FaultProxy",
    "FaultProxyHandle",
    "start_fault_proxy",
    "FaultyEngine",
    "ChaosService",
]

_LENGTH = struct.Struct(">I")

#: Wire fault kinds, in the priority order probabilities are consumed —
#: fixed so one seed always yields one decision sequence.
_WIRE_FAULTS = ("drop", "corrupt", "truncate", "reset", "delay")
_ENGINE_FAULTS = ("raise", "stall")


class FaultInjector:
    """Seeded, deterministic fault decisions with a replayable event log.

    Parameters
    ----------
    seed:
        Seed of the decision stream.  The same seed and the same sequence
        of consultations yields the same decisions — chaos runs replay.
    drop, corrupt, truncate, reset, delay:
        Per-frame probabilities of each wire fault (checked in that fixed
        order; at most one fault per frame).
    delay_ms:
        ``(low, high)`` range of injected wire delays.
    engine_fault, engine_stall:
        Per-batch probabilities of a mid-batch scoring exception / stall.
    stall_ms:
        ``(low, high)`` range of injected engine stalls.

    The injector is consulted from the proxy's event loop *and* the
    scoring thread; a lock keeps the decision stream single-file so the
    sequence is well-defined.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        drop: float = 0.0,
        corrupt: float = 0.0,
        truncate: float = 0.0,
        reset: float = 0.0,
        delay: float = 0.0,
        delay_ms: Tuple[float, float] = (1.0, 25.0),
        engine_fault: float = 0.0,
        engine_stall: float = 0.0,
        stall_ms: Tuple[float, float] = (5.0, 50.0),
    ) -> None:
        for name, value in (
            ("drop", drop),
            ("corrupt", corrupt),
            ("truncate", truncate),
            ("reset", reset),
            ("delay", delay),
            ("engine_fault", engine_fault),
            ("engine_stall", engine_stall),
        ):
            if not 0.0 <= value <= 1.0:
                raise ServiceError(f"{name} must be a probability in [0, 1]")
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._wire_probs = {
            "drop": drop,
            "corrupt": corrupt,
            "truncate": truncate,
            "reset": reset,
            "delay": delay,
        }
        self._delay_ms = delay_ms
        self._engine_probs = {"raise": engine_fault, "stall": engine_stall}
        self._stall_ms = stall_ms
        #: Replayable event log: one entry per *injected* fault, in
        #: injection order (consulted-but-clean frames are not logged).
        self.schedule: List[Dict[str, Any]] = []
        self._sequence = 0

    # ------------------------------------------------------------------ #
    # decisions
    # ------------------------------------------------------------------ #
    def _record(self, site: str, action: str, **detail) -> None:
        self._sequence += 1
        entry = {"seq": self._sequence, "site": site, "action": action}
        entry.update(detail)
        self.schedule.append(entry)

    def wire_action(self, direction: str) -> Tuple[str, float]:
        """Decide the fate of one frame: ``(action, delay_seconds)``.

        ``direction`` is ``"request"`` or ``"response"`` — logged so a
        failing schedule shows which leg was hit.
        """
        with self._lock:
            roll = self._rng.random()
            cumulative = 0.0
            for fault in _WIRE_FAULTS:
                cumulative += self._wire_probs[fault]
                if roll < cumulative:
                    delay = 0.0
                    if fault == "delay":
                        delay = self._rng.uniform(*self._delay_ms) / 1000.0
                        self._record(
                            "wire", fault, direction=direction, delay_ms=delay * 1000.0
                        )
                    else:
                        self._record("wire", fault, direction=direction)
                    return fault, delay
            return "pass", 0.0

    def engine_action(self) -> Tuple[str, float]:
        """Decide the fate of one engine batch: ``(action, stall_seconds)``."""
        with self._lock:
            roll = self._rng.random()
            cumulative = 0.0
            for fault in _ENGINE_FAULTS:
                cumulative += self._engine_probs[fault]
                if roll < cumulative:
                    stall = 0.0
                    if fault == "stall":
                        stall = self._rng.uniform(*self._stall_ms) / 1000.0
                        self._record("engine", fault, stall_ms=stall * 1000.0)
                    else:
                        self._record("engine", fault)
                    return fault, stall
            return "pass", 0.0

    # ------------------------------------------------------------------ #
    # replay / reporting
    # ------------------------------------------------------------------ #
    @property
    def injected(self) -> int:
        """Number of faults injected so far."""
        return len(self.schedule)

    def counts(self) -> Dict[str, int]:
        """Injected-fault totals by ``site:action`` (for test reporting)."""
        totals: Dict[str, int] = {}
        for entry in self.schedule:
            key = f"{entry['site']}:{entry['action']}"
            totals[key] = totals.get(key, 0) + 1
        return totals

    def as_dict(self) -> Dict[str, Any]:
        """Seed + config + full schedule — the CI failure artifact."""
        return {
            "seed": self.seed,
            "wire_probabilities": dict(self._wire_probs),
            "engine_probabilities": dict(self._engine_probs),
            "injected": self.injected,
            "counts": self.counts(),
            "schedule": list(self.schedule),
        }

    def __repr__(self) -> str:
        return f"<FaultInjector seed={self.seed} injected={self.injected}>"


# ---------------------------------------------------------------------- #
# the wire: frame-aware fault proxy
# ---------------------------------------------------------------------- #
async def _read_raw_frame(reader) -> Optional[bytes]:
    """Read one complete frame (prefix + payload) as raw bytes; None on EOF."""
    try:
        prefix = await reader.readexactly(_LENGTH.size)
        (length,) = _LENGTH.unpack(prefix)
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None
    return prefix + payload


class FaultProxy:
    """Frame-aware TCP proxy injecting wire faults between client and service.

    Forwards length-prefixed frames in both directions, consulting the
    :class:`FaultInjector` per frame on the configured legs.  Faults are
    applied on message boundaries:

    * ``drop`` — the frame silently vanishes (the client's read/deadline
      machinery must notice);
    * ``corrupt`` — payload bytes are flipped (the receiver must treat the
      connection as poisoned, never act on garbage);
    * ``truncate`` — a partial write followed by closing both legs (torn
      frame);
    * ``reset`` — both legs close immediately;
    * ``delay`` — the frame is stalled before forwarding.

    Parameters
    ----------
    upstream:
        ``(host, port)`` of the real service.
    injector:
        The seeded decision source.
    host, port:
        Listen address of the proxy (port 0 picks a free port).

    Faults apply to responses only, the leg that exercises the client's
    timeout/retry machinery hardest; requests are forwarded clean.
    """

    def __init__(
        self,
        upstream: Tuple[str, int],
        injector: FaultInjector,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.upstream = upstream
        self.injector = injector
        self.host = host
        self._requested_port = int(port)
        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: set = set()

    async def start(self) -> None:
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self._requested_port
            )

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise ServiceError("the fault proxy is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    async def _handle_client(self, client_reader, client_writer) -> None:
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                *self.upstream
            )
        except OSError:
            client_writer.close()
            return
        alive = {"open": True}
        loop = asyncio.get_running_loop()
        pumps = [
            loop.create_task(
                self._pump("request", client_reader, upstream_writer, alive)
            ),
            loop.create_task(
                self._pump("response", upstream_reader, client_writer, alive)
            ),
        ]
        for pump in pumps:
            self._tasks.add(pump)
            pump.add_done_callback(self._tasks.discard)
        try:
            await asyncio.gather(*pumps, return_exceptions=True)
        finally:
            for writer in (client_writer, upstream_writer):
                try:
                    writer.close()
                except Exception:
                    pass

    async def _pump(self, direction, reader, writer, alive) -> None:
        """Forward frames one way, applying the injector's decisions."""
        while alive["open"]:
            frame = await _read_raw_frame(reader)
            if frame is None:
                break
            if direction == "response":
                action, delay = self.injector.wire_action(direction)
            else:
                action, delay = "pass", 0.0
            if action == "drop":
                continue
            if action == "corrupt":
                # Flip bytes inside the payload; the length prefix stays
                # valid so the receiver reads a full frame of garbage.
                body = bytearray(frame)
                for offset in range(_LENGTH.size, min(len(body), _LENGTH.size + 8)):
                    body[offset] ^= 0xFF
                frame = bytes(body)
            elif action == "truncate":
                # Torn write: forward a strict prefix, then kill the
                # connection — the receiver must detect the partial frame.
                writer.write(frame[: max(_LENGTH.size + 1, len(frame) // 2)])
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
                alive["open"] = False
                break
            elif action == "reset":
                alive["open"] = False
                break
            elif action == "delay":
                await asyncio.sleep(delay)
            try:
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):
                break
        try:
            writer.close()
        except Exception:
            pass


class FaultProxyHandle:
    """Handle on a :class:`FaultProxy` running on its own thread."""

    def __init__(self, proxy: FaultProxy, loop, thread: threading.Thread, port: int):
        self.proxy = proxy
        self._loop = loop
        self._thread = thread
        self.host = proxy.host
        self.port = port

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` clients should dial instead of the service."""
        return (self.host, self.port)

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread.is_alive():
            try:
                future = asyncio.run_coroutine_threadsafe(self.proxy.stop(), self._loop)
                future.result(timeout)
            # concurrent.futures.TimeoutError is not the builtin on 3.9.
            except (RuntimeError, TimeoutError, concurrent.futures.TimeoutError):
                pass
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:
                pass
        self._thread.join(timeout)

    def __enter__(self) -> "FaultProxyHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_fault_proxy(
    upstream: Tuple[str, int],
    injector: FaultInjector,
    *,
    timeout: float = 10.0,
    **kwargs,
) -> FaultProxyHandle:
    """Run a :class:`FaultProxy` on a dedicated daemon thread; return its handle."""
    proxy = FaultProxy(upstream, injector, **kwargs)
    started = threading.Event()
    holder: Dict[str, Any] = {}

    async def _main() -> None:
        try:
            await proxy.start()
            holder["port"] = proxy.port
            holder["loop"] = asyncio.get_running_loop()
        except BaseException as exc:
            holder["error"] = exc
            started.set()
            raise
        started.set()
        await asyncio.Event().wait()  # run until the loop is stopped

    def _runner() -> None:
        try:
            asyncio.run(_main())
        except Exception:
            if not started.is_set():  # pragma: no cover - defensive
                started.set()

    thread = threading.Thread(target=_runner, name="repro-fault-proxy", daemon=True)
    thread.start()
    if not started.wait(timeout):
        raise ServiceError("fault proxy failed to start within the timeout")
    if "error" in holder:
        raise ServiceError(f"fault proxy failed to start: {holder['error']}")
    return FaultProxyHandle(proxy, holder["loop"], thread, holder["port"])


# ---------------------------------------------------------------------- #
# the engine: mid-batch scoring faults
# ---------------------------------------------------------------------- #
class FaultyEngine:
    """Transparent engine wrapper injecting mid-batch scoring failures.

    ``query_batch`` consults the injector per flush: ``raise`` makes the
    whole batch fail with a ``RuntimeError`` *after* the queries were
    accepted (exactly the mid-batch failure the batcher must convert into
    typed per-query errors), ``stall`` sleeps in the scoring thread
    before delegating (exercising deadline drops and hedging).  Every
    other attribute — model version, database, cache, prune counters —
    passes through, so the server cannot tell it is being sabotaged.
    """

    def __init__(self, engine, injector: FaultInjector) -> None:
        self._engine = engine
        self._injector = injector

    @classmethod
    def holding(cls, engine, stall_ms: float) -> "FaultyEngine":
        """``engine`` behind a scorer that holds *every* batch for ``stall_ms``.

        The way to keep queries waiting in a test: the micro-batcher never
        holds a query back on its own, so a queue forms — as in production —
        only behind a batch that is still being scored.
        """
        return cls(engine, FaultInjector(engine_stall=1.0, stall_ms=(stall_ms, stall_ms)))

    def query_batch(self, queries, **kwargs):
        action, stall = self._injector.engine_action()
        if action == "raise":
            raise RuntimeError(
                f"injected engine fault: batch of {len(list(queries))} abandoned mid-score"
            )
        if action == "stall":
            time.sleep(stall)
        return self._engine.query_batch(queries, **kwargs)

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def __repr__(self) -> str:
        return f"<FaultyEngine {self._injector!r} wrapping {self._engine!r}>"


# ---------------------------------------------------------------------- #
# the process: kill-and-restart
# ---------------------------------------------------------------------- #
class ChaosService:
    """Service lifecycle with crash simulation on a stable port.

    Starts a :func:`start_service_thread` service, remembers the bound
    port, and can :meth:`kill` it abruptly (no drain — in-flight queries
    are abandoned, connections reset) and :meth:`restart` a fresh service
    thread *on the same port*, so retrying clients reconnect to the same
    address, exactly like a supervised process coming back after a crash.
    """

    def __init__(self, engine=None, **service_kwargs) -> None:
        self._engine = engine
        self._kwargs = dict(service_kwargs)
        self._handle: Optional[ServiceHandle] = None
        self._port: Optional[int] = None
        self.restarts = 0

    def start(self) -> ServiceHandle:
        if self._handle is not None:
            raise ServiceError("chaos service already running")
        kwargs = dict(self._kwargs)
        if self._port is not None:
            kwargs["port"] = self._port
        self._handle = start_service_thread(self._engine, **kwargs)
        self._port = self._handle.port
        return self._handle

    @property
    def handle(self) -> ServiceHandle:
        if self._handle is None:
            raise ServiceError("chaos service is not running")
        return self._handle

    @property
    def address(self) -> Tuple[str, int]:
        return self.handle.address

    def kill(self) -> None:
        """Crash the service: stop its loop without draining anything."""
        self.handle.kill()
        self._handle = None

    def restart(self) -> ServiceHandle:
        """Bring a killed service back on the same port.

        The dead listener's socket may linger briefly after the crash;
        rebinding retries for up to 5 s.
        """
        if self._handle is not None:
            raise ServiceError("restart() after kill(); the service is still running")
        deadline = time.monotonic() + 5.0
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                handle = self.start()
            except ServiceError as exc:
                self._handle = None
                last_error = exc
                time.sleep(0.05)
                continue
            self.restarts += 1
            return handle
        raise ServiceError(f"could not rebind port {self._port} after kill: {last_error}")

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.stop()
            self._handle = None

    def __enter__(self) -> "ChaosService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
