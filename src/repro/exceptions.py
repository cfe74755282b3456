"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError` so
downstream users can catch library failures with a single ``except`` clause
while still being able to distinguish individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Base class for errors related to graph construction or mutation."""


class DuplicateVertexError(GraphError):
    """Raised when adding a vertex whose identifier already exists."""


class MissingVertexError(GraphError, KeyError):
    """Raised when referencing a vertex identifier that does not exist."""


class DuplicateEdgeError(GraphError):
    """Raised when adding an edge that already exists (simple graphs only)."""


class MissingEdgeError(GraphError, KeyError):
    """Raised when referencing an edge that does not exist."""


class SelfLoopError(GraphError):
    """Raised when adding a self-loop, which simple graphs forbid."""


class InvalidLabelError(GraphError, ValueError):
    """Raised when a label is invalid (e.g. the reserved virtual label)."""


class EditOperationError(ReproError):
    """Raised when a graph edit operation cannot be applied."""


class ModelError(ReproError):
    """Base class for probabilistic-model failures."""


class PriorNotFittedError(ModelError):
    """Raised when a prior is queried before being fitted/pre-computed."""


class EstimationError(ModelError):
    """Raised when the posterior estimation cannot be computed."""


class DatasetError(ReproError):
    """Raised when a dataset cannot be generated, parsed, or validated."""


class SearchError(ReproError):
    """Raised when a similarity-search query is malformed or fails."""


class QueryError(SearchError, ValueError):
    """Raised when a :class:`~repro.db.query.SimilarityQuery` is constructed
    with invalid parameters (negative ``τ̂``, ``γ`` outside ``[0, 1]``).

    Subclasses :class:`SearchError` so existing callers that catch the
    broader class keep working.
    """


class ServingError(ReproError):
    """Raised when the batched query-serving subsystem is misused."""


class SnapshotError(ServingError):
    """Raised when a serving-engine snapshot cannot be written or read."""


class SnapshotCorruptError(SnapshotError):
    """Raised when a snapshot file fails its integrity check on load.

    Covers truncation (the checksum footer is missing bytes), bit flips
    (the sha256 of the payload does not match the recorded digest), and a
    payload that unpickles but was written torn.  A corrupt snapshot is
    *data loss evidence*, not a programming error — callers that hold a
    previously-good engine (the service's hot swap) must keep serving it.
    """


class ServiceError(ServingError):
    """Base class for failures of the network service layer (:mod:`repro.service`)."""


class ProtocolError(ServiceError):
    """Raised when a wire frame or message violates the service protocol."""


class ServiceOverloadedError(ServiceError):
    """Raised client-side when the server sheds a query with ``OVERLOADED``.

    The request was never queued: the admission controller rejected it
    because the server-wide pending budget (or the connection's in-flight
    budget) was exhausted.  Safe to retry after backing off.
    """


class DeadlineExceededError(ServiceError):
    """Raised when a query's deadline expired before an answer was produced.

    Server-side the query is *dropped*, never scored: admission refuses
    already-expired work and the micro-batcher sheds expired entries at
    flush time, so a deadline that has passed costs no engine cycles.
    Client-side it is raised for the server's ``DEADLINE_EXCEEDED`` reply
    only: a local wait that runs out first — the async client bounds its own
    by the same budget — is a plain :class:`TimeoutError`.  Queries are
    idempotent reads — safe to retry with a fresh deadline.
    """


class ConnectionLostError(ServiceError, ConnectionError):
    """Raised client-side when the service connection died mid-conversation.

    Covers abrupt resets, EOF with responses outstanding, and unframeable
    bytes on the wire (a corrupt or truncated frame poisons the pipelined
    stream — nothing after it can be trusted).  Subclasses
    :class:`ConnectionError` so retry policies treat it as transient:
    queries are idempotent reads and the client reconnects before
    resending.
    """


class CircuitOpenError(ServiceError):
    """Raised client-side when the endpoint's circuit breaker is open.

    The request was not sent: recent failures tripped the breaker, and
    until the reset timeout elapses (half-open probe) every attempt fails
    fast locally instead of piling onto a struggling server.
    """


class AssignmentError(ReproError):
    """Raised when an assignment-problem instance is malformed."""


class ConvergenceError(ModelError):
    """Raised when an iterative fitting procedure fails to converge."""
