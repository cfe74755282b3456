"""repro.testing — oracles, fault injection and chaos-testing harnesses.

:mod:`~repro.testing.oracles` holds the unfactored Λ1 the model is held to.

Production-facing resilience claims are only as good as the failures they
were tested against.  This package holds the *correctness engine* of the
service layer's fault tolerance:

* :class:`~repro.testing.faults.FaultInjector` — a seeded, deterministic
  source of fault decisions (drop / corrupt / truncate / delay / reset on
  the wire, raise / stall in the engine) that records every injected
  fault in a replayable schedule.
* :class:`~repro.testing.faults.FaultProxy` /
  :func:`~repro.testing.faults.start_fault_proxy` — a frame-aware TCP
  proxy between client and service that applies wire faults.
* :class:`~repro.testing.faults.FaultyEngine` — an engine wrapper that
  injects mid-batch scoring failures and stalls.
* :class:`~repro.testing.faults.ChaosService` — service lifecycle with
  kill-and-restart (crash simulation on a stable port).

See ``tests/test_chaos.py`` for the invariant the harness enforces:
*every query either returns the bit-identical correct answer or a typed
error, and the service returns to healthy.*
"""

from repro.testing.faults import (
    ChaosService,
    FaultInjector,
    FaultProxy,
    FaultyEngine,
    start_fault_proxy,
)

__all__ = [
    "ChaosService",
    "FaultInjector",
    "FaultProxy",
    "FaultyEngine",
    "start_fault_proxy",
]
