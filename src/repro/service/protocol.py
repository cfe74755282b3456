"""Wire protocol of the similarity-search service.

Framing
-------
Every message is one *frame*: a 4-byte big-endian unsigned length followed
by that many bytes of body.  Frames larger than :data:`MAX_FRAME_BYTES` are
rejected with a :class:`~repro.exceptions.ProtocolError` on both ends — a
malformed or hostile peer cannot make the server buffer unbounded input.
The first body byte names the message class:

=====  ==============================================================
``{``  a JSON object: admin requests and replies, and error replies
``Q``  a query request, binary (layout below)
``A``  an answer reply, binary (layout below)
=====  ==============================================================

Queries and answers are the data plane and have exactly one encoding: a
JSON body of ``kind`` ``"query"`` or ``"answer"`` is a
:class:`ProtocolError`.  Admin and error messages keep JSON because they are
rare, their payloads are open-ended (metrics, traces, log records), and an
error must stay readable to a peer that can parse nothing else.  Everything
binary after the length prefix is little-endian and unpadded.

Query frame
-----------
=================  ===========  ==========================================
field              type         meaning
=================  ===========  ==========================================
tag                byte         ``Q``
flags              uint8        1: ``deadline_ms`` present, 2:
                                ``request_key`` present, 4: ``trace``
                                present; any other bit is an error
id                 int64        client-assigned, echoed by the reply so
                                pipelined replies match out of order
deadline_ms        float64      relative latency budget (0 when absent)
len(request_key)   uint16
len(trace)         uint16
request_key        UTF-8        idempotency key of retries and hedges
trace              UTF-8        ``traceparent``-style trace context
query section      bytes        the rest of the frame, see below
=================  ===========  ==========================================

:func:`decode_frame` parses this header only and hands the *query section*
through as ``bytes``; the server runs :func:`decode_query` after its
idempotency, deadline and admission checks, so a cached or shed query never
pays for its graph.  The query section (:func:`encode_query` /
:func:`decode_query`) is the thresholds, which are mandatory, then the
*graph section* (:func:`encode_graph` / :func:`decode_graph`):

=================  ===========  ==========================================
field              type         meaning
=================  ===========  ==========================================
tau_hat            int64        similarity threshold τ̂
gamma              float64      probability threshold γ
top_k              int64        0: a thresholded query, else top-k
|V|                uint32
|E|                uint32
len(table)         uint32
table              JSON         ``[name, labels, vertex ids]``: the graph
                                name, the *distinct* vertex and edge
                                labels, and the vertex ids — ``null``
                                when they are the integers ``0..|V|-1``
                                in order
vertex labels      uint32[|V|]  index into ``labels``, per vertex
edge labels        uint32[|E|]  index into ``labels``, per edge
edge endpoints u   uint32[|E|]  position of one endpoint among the vertices
edge endpoints v   uint32[|E|]  position of the other
=================  ===========  ==========================================

Labels, vertex ids and the name may be ``str``, ``int``, ``float``,
``bool``, ``None`` and tuples of these; in the table a tuple is written
``{"__tuple__": [...]}`` since JSON has no tuple type.  Labels that compare
equal but differ in type (``1``, ``True``, ``1.0``) keep separate entries.
The section's length must equal what its counts announce — checked before
anything is unpacked — label indices and endpoints must be in range, and
the graph is rebuilt through ``Graph.add_vertex``/``add_edge``: a vertex id
listed twice, a self-loop, an edge listed twice (in either orientation) or
the virtual label is a :class:`ProtocolError`, a threshold out of range a
:class:`~repro.exceptions.QueryError`; the server answers ``BAD_REQUEST``
to both.

Answer frame
------------
=================  ===========  ==========================================
field              type         meaning
=================  ===========  ==========================================
tag                byte         ``A``
cached             uint8        1 when served from the idempotency cache
                                (so a retrying/hedging client can tag the
                                attempt's outcome in its trace), else 0
id                 int64        the request's id
elapsed_seconds    float64      start of the *answer section*
len(method)        uint16
has ranking        uint8        1 for a top-k answer, else 0
|accepted_ids|     uint32
|scores|           uint32
|ranking|          uint32
method             UTF-8
accepted_ids       int64[]      ascending
scores             int64[] then float64[]: ids ascending, their scores
ranking            int64[] then float64[]: ids in rank order, their scores
=================  ===========  ==========================================

The *answer section* is :meth:`QueryAnswer.to_wire` /
:meth:`~repro.db.query.QueryAnswer.from_wire` (here :func:`encode_answer` /
:func:`decode_answer`); the server's idempotency cache holds those bytes and
replays them to duplicates.  A float travels as its eight bytes, so answers
received over the wire are bit-identical to the server's in-process
answers, non-finite scores included.

JSON messages
-------------
========  =========================================================
request   ``{"id", "kind": "admin",  "command": ..., ...}``
response  ``{"id", "kind": "admin",  "result": {...}}``
          ``{"id", "kind": "error",  "error": {"code", "message"}}``
========  =========================================================

Error codes are the :data:`ERROR_*` constants below; ``OVERLOADED`` is the
typed load-shedding response of the admission controller and maps to
:class:`~repro.exceptions.ServiceOverloadedError` client-side;
``DEADLINE_EXCEEDED`` means the query's ``deadline_ms`` budget expired
before scoring (the server dropped it without wasting engine cycles) and
maps to :class:`~repro.exceptions.DeadlineExceededError`.

Resilience and trace fields
---------------------------
``deadline_ms`` is the request's *relative* latency budget in
milliseconds — relative, because the two ends' wall clocks are never
comparable; the server converts it to an absolute monotonic deadline at
receipt.  ``request_key`` is an opaque client-chosen idempotency key:
retried and hedged duplicates of one logical request reuse it, and the
server answers duplicates of an already-completed request from its
idempotency cache, bit-identically, without re-scoring.  ``trace``
carries the query's distributed trace context
(``00-<trace_id>-<parent span_id>-<sampled flags>``, see
:class:`~repro.obs.trace.TraceContext`).  The server joins a sampled
context — its waterfall shares the client's trace id — and a malformed
value is silently ignored (observability must never reject a query).

In memory a message is a ``dict`` whichever way it travels:
:func:`encode_frame` takes, and :func:`decode_frame` returns, ``{"id",
"kind": "query", "query": <query section>, "deadline_ms"?, "request_key"?,
"trace"?}`` and ``{"id", "kind": "answer", "answer": <answer section>,
"cached"?}``.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Dict, Optional

from repro.db.query import QueryAnswer, SimilarityQuery
from repro.exceptions import (
    DeadlineExceededError,
    GraphError,
    ProtocolError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.graphs.graph import Graph

__all__ = [
    "MAX_FRAME_BYTES",
    "ERROR_OVERLOADED",
    "ERROR_BAD_REQUEST",
    "ERROR_SHUTTING_DOWN",
    "ERROR_SERVER_ERROR",
    "ERROR_DEADLINE_EXCEEDED",
    "query_request",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "send_frame",
    "recv_frame",
    "encode_graph",
    "decode_graph",
    "encode_query",
    "decode_query",
    "encode_answer",
    "decode_answer",
    "error_response",
    "exception_for_error",
]

#: Upper bound on one frame's body (32 MiB — a few hundred thousand scored
#: answers; far beyond any sane single query or answer).
MAX_FRAME_BYTES = 32 * 1024 * 1024

_LENGTH = struct.Struct(">I")

_TAG_JSON = b"{"
_TAG_QUERY = b"Q"
_TAG_ANSWER = b"A"
#: tag, flags, id, deadline_ms, len(request_key), len(trace)
_QUERY_HEADER = struct.Struct("<cBqdHH")
_HAS_DEADLINE, _HAS_KEY, _HAS_TRACE = 1, 2, 4
#: tag, cached, id
_ANSWER_HEADER = struct.Struct("<cBq")
#: tau_hat, gamma, top_k (0: none)
_THRESHOLDS = struct.Struct("<qdq")
#: |V|, |E|, len(table)
_GRAPH_HEADER = struct.Struct("<III")

#: What a malformed binary section can raise while it is taken apart.
_MALFORMED = (GraphError, LookupError, TypeError, ValueError, RecursionError, struct.error)

_compact_json = json.JSONEncoder(separators=(",", ":")).encode

# Typed error codes carried in ``error`` responses.
ERROR_OVERLOADED = "OVERLOADED"
ERROR_BAD_REQUEST = "BAD_REQUEST"
ERROR_SHUTTING_DOWN = "SHUTTING_DOWN"
ERROR_SERVER_ERROR = "SERVER_ERROR"
ERROR_DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"


# ---------------------------------------------------------------------- #
# framing
# ---------------------------------------------------------------------- #
def _query_body(message: Dict[str, Any]) -> bytes:
    flags = 0
    deadline_ms = message.get("deadline_ms")
    if deadline_ms is None:
        deadline_ms = 0.0
    else:
        flags |= _HAS_DEADLINE
    key = trace = b""
    if message.get("request_key") is not None:
        flags |= _HAS_KEY
        key = str(message["request_key"]).encode("utf-8")
    if message.get("trace") is not None:
        flags |= _HAS_TRACE
        trace = str(message["trace"]).encode("utf-8")
    header = _QUERY_HEADER.pack(
        _TAG_QUERY, flags, message["id"], deadline_ms, len(key), len(trace)
    )
    return b"".join((header, key, trace, message["query"]))


def _query_message(payload: bytes) -> Dict[str, Any]:
    _, flags, message_id, deadline_ms, key_bytes, trace_bytes = _QUERY_HEADER.unpack_from(payload)
    key_end = _QUERY_HEADER.size + key_bytes
    trace_end = key_end + trace_bytes
    if flags & ~(_HAS_DEADLINE | _HAS_KEY | _HAS_TRACE) or trace_end > len(payload):
        raise ProtocolError("malformed query frame header")
    message = {"id": message_id, "kind": "query", "query": payload[trace_end:]}
    if flags & _HAS_DEADLINE:
        message["deadline_ms"] = deadline_ms
    if flags & _HAS_KEY:
        message["request_key"] = str(payload[_QUERY_HEADER.size:key_end], "utf-8")
    if flags & _HAS_TRACE:
        message["trace"] = str(payload[key_end:trace_end], "utf-8")
    return message


def _answer_message(payload: bytes) -> Dict[str, Any]:
    _, cached, message_id = _ANSWER_HEADER.unpack_from(payload)
    if cached > 1:
        raise ProtocolError("malformed answer frame header")
    message = {"id": message_id, "kind": "answer", "answer": payload[_ANSWER_HEADER.size:]}
    if cached:
        message["cached"] = True
    return message


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialize one message into a length-prefixed frame.

    A ``kind`` of ``"query"`` or ``"answer"`` selects the binary layout (the
    message then carries its already-encoded section as ``bytes``); every
    other message is a JSON object.
    """
    kind = message.get("kind")
    try:
        if kind == "query":
            payload = _query_body(message)
        elif kind == "answer":
            payload = b"".join((
                _ANSWER_HEADER.pack(_TAG_ANSWER, bool(message.get("cached")), message["id"]),
                message["answer"],
            ))
        else:
            payload = _compact_json(message).encode("utf-8")
    except (KeyError, TypeError, struct.error) as exc:
        raise ProtocolError(f"cannot encode {kind!r} message on the wire: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> Dict[str, Any]:
    """Parse one frame body (without the length prefix) back into a message.

    Of a query or answer frame only the header is parsed: the section comes
    back as ``bytes`` under ``"query"`` / ``"answer"`` for
    :func:`decode_query` / :func:`decode_answer`.
    """
    tag = payload[:1]
    try:
        if tag == _TAG_QUERY:
            return _query_message(payload)
        if tag == _TAG_ANSWER:
            return _answer_message(payload)
        if tag != _TAG_JSON:
            raise ProtocolError("frame body is neither a JSON object nor a query or answer")
        message = json.loads(str(payload, "utf-8"))
    except (ValueError, RecursionError, struct.error) as exc:
        raise ProtocolError("malformed frame body") from exc
    if message.get("kind") in ("query", "answer"):
        raise ProtocolError("query and answer messages travel as binary frames, not JSON")
    return message


def _checked_length(prefix: bytes) -> int:
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"announced frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return length


async def read_frame(reader) -> Optional[Dict[str, Any]]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    A connection dropped mid-frame raises :class:`ProtocolError` — the
    caller cannot distinguish the truncated message from a complete one and
    must close the connection.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame (truncated length prefix)") from exc
    length = _checked_length(prefix)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame (truncated payload)") from exc
    return decode_frame(payload)


def _recv_exactly(sock, length: int) -> bytes:
    chunks = []
    remaining = length
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock, message: Dict[str, Any]) -> None:
    """Blocking-socket counterpart of :func:`read_frame`'s writer side."""
    sock.sendall(encode_frame(message))


def recv_frame(sock) -> Optional[Dict[str, Any]]:
    """Read one frame from a blocking socket; ``None`` on clean EOF."""
    prefix = sock.recv(_LENGTH.size)
    if not prefix:
        return None
    if len(prefix) < _LENGTH.size:
        prefix += _recv_exactly(sock, _LENGTH.size - len(prefix))
    return decode_frame(_recv_exactly(sock, _checked_length(prefix)))


# ---------------------------------------------------------------------- #
# value codec: labels / vertex ids with a tagged tuple encoding
# ---------------------------------------------------------------------- #
_PLAIN = frozenset((str, int))


def _encode_value(value):
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(item) for item in value]}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise ProtocolError(
        f"cannot encode value of type {type(value).__name__} on the wire "
        "(supported: str, int, float, bool, None, and tuples thereof)"
    )


def _tagged_tuple(tagged: Dict[str, Any]) -> tuple:
    """``object_hook`` of the table decoder: the only JSON object is a tagged tuple."""
    items = tagged.get("__tuple__")
    if len(tagged) != 1 or not isinstance(items, list):
        raise ProtocolError("malformed tagged value on the wire")
    return tuple(items)


_decode_table = json.JSONDecoder(object_hook=_tagged_tuple).decode


def _label_key(label):
    """The label table's key for ``label``: equal keys mean one table entry.

    ``1``, ``True`` and ``1.0`` are equal and hash alike, as are ``0.0`` and
    ``-0.0``, but they must reach the peer as what they are: the key carries
    the type, and a float's ``repr``.  ``str`` and ``int`` labels are their
    own keys.
    """
    kind = type(label)
    if kind in _PLAIN:
        return label
    if kind is tuple:
        return (kind, tuple(map(_label_key, label)))
    return (kind, repr(label) if kind is float else label)


# ---------------------------------------------------------------------- #
# graph / query / answer codecs
# ---------------------------------------------------------------------- #
def encode_graph(graph: Graph) -> bytes:
    """Encode a graph as its *graph section* (see the module docstring)."""
    try:
        vertices, vertex_labels = zip(*graph.vertex_items()) if graph.num_vertices else ((), ())
        us, vs, edge_labels = zip(*graph.edges()) if graph.num_edges else ((), (), ())
        count = len(vertices)
        # 0..n-1 as ints, not as the bools or floats that equal them
        if vertices == tuple(range(count)) and all(type(vertex) is int for vertex in vertices):
            ids = None
        else:
            ids = [*map(_encode_value, vertices)]
            position = dict(zip(vertices, range(count))).__getitem__
            us, vs = map(position, us), map(position, vs)
        labels = vertex_labels + edge_labels
        # str and int — what real label alphabets hold — need neither walk.
        plain = _PLAIN.issuperset(map(type, labels))
        keys = labels if plain else [*map(_label_key, labels)]
        distinct = dict(zip(keys, labels))  # key -> label, in first-seen order
        code = dict(zip(distinct, range(len(distinct)))).__getitem__
        entries = [*distinct.values()] if plain else [*map(_encode_value, distinct.values())]
        table = _compact_json([_encode_value(graph.name), entries, ids]).encode("utf-8")
        return b"".join((
            _GRAPH_HEADER.pack(count, len(edge_labels), len(table)),
            table,
            struct.pack("<%dI" % (len(labels) + 2 * len(edge_labels)), *map(code, keys), *us, *vs),
        ))
    except (TypeError, ValueError, struct.error) as exc:  # e.g. an unhashable label
        raise ProtocolError(f"cannot encode the graph on the wire: {exc}") from exc


def decode_graph(payload: bytes) -> Graph:
    """Rebuild, and validate, a graph from its *graph section*.

    Every defect — a length that disagrees with the announced counts, a code
    or endpoint out of range, a vertex id listed twice, a self-loop, an edge
    listed twice, the virtual label — is a :class:`ProtocolError`.
    """
    try:
        num_vertices, num_edges, table_bytes = _GRAPH_HEADER.unpack_from(payload)
        ints_at = _GRAPH_HEADER.size + table_bytes
        count = num_vertices + 3 * num_edges
        # Before anything is allocated: the counts must be what the frame holds.
        if len(payload) != ints_at + 4 * count:
            raise ProtocolError("graph section length disagrees with its counts")
        table = _decode_table(str(payload[_GRAPH_HEADER.size:ints_at], "utf-8"))
        if not isinstance(table, list):
            raise ProtocolError("the graph section's table must be a JSON array")
        name, labels, ids = table
        if not isinstance(labels, list) or not (ids is None or isinstance(ids, list)):
            raise ProtocolError("the graph section's labels and vertex ids must be arrays")
        ints = struct.unpack_from("<%dI" % count, payload, ints_at)
        us_at = num_vertices + num_edges
        us, vs = ints[us_at:us_at + num_edges], ints[us_at + num_edges:]
        if ids is None:
            # The endpoints are the vertex ids themselves; add_edge refuses unknown ones.
            ids = range(num_vertices)
        else:
            if len(ids) != num_vertices:
                raise ProtocolError("graph section lists a different number of vertex ids")
            us, vs = map(ids.__getitem__, us), map(ids.__getitem__, vs)
        # Hashable or TypeError: a JSON array, bare or inside a tagged tuple, is no label.
        hash((name, *labels))
        labels = [*map(labels.__getitem__, ints[:us_at])]
        graph = Graph(name=name)
        add_vertex, add_edge = graph.add_vertex, graph.add_edge
        for vertex, label in zip(ids, labels):
            add_vertex(vertex, label)
        for u, v, label in zip(us, vs, labels[num_vertices:]):
            add_edge(u, v, label)
        return graph
    except _MALFORMED as exc:
        raise ProtocolError(f"malformed graph section on the wire: {exc}") from exc


def encode_query(query: SimilarityQuery) -> bytes:
    """Encode one similarity query as its *query section*: thresholds, then graph."""
    try:
        thresholds = _THRESHOLDS.pack(query.tau_hat, query.gamma, query.top_k or 0)
    except struct.error as exc:
        raise ProtocolError(f"cannot encode the thresholds on the wire: {exc}") from exc
    return thresholds + encode_graph(query.query_graph)


def decode_query(payload: bytes) -> SimilarityQuery:
    """Rebuild a similarity query; invalid thresholds surface as QueryError."""
    try:
        tau_hat, gamma, top_k = _THRESHOLDS.unpack_from(payload)
    except (TypeError, struct.error) as exc:
        raise ProtocolError("query section does not hold its thresholds") from exc
    return SimilarityQuery(
        decode_graph(payload[_THRESHOLDS.size:]), tau_hat, gamma, top_k=top_k or None
    )


def query_request(
    message_id,
    query: SimilarityQuery,
    *,
    deadline_ms: Optional[float] = None,
    request_key: Optional[str] = None,
    trace: Optional[str] = None,
) -> Dict[str, Any]:
    """Build one query request message with the resilience/trace fields.

    ``trace`` is a ``traceparent``-style context string
    (:meth:`~repro.obs.trace.TraceContext.to_traceparent`) propagating the
    client's trace id, parent span id, and sampling decision.
    """
    message: Dict[str, Any] = {
        "id": message_id,
        "kind": "query",
        "query": encode_query(query),
    }
    if deadline_ms is not None:
        message["deadline_ms"] = float(deadline_ms)
    if request_key is not None:
        message["request_key"] = str(request_key)
    if trace is not None:
        message["trace"] = str(trace)
    return message


def encode_answer(answer: QueryAnswer) -> bytes:
    """Encode one answer (delegates to :meth:`QueryAnswer.to_wire`)."""
    return answer.to_wire()


def decode_answer(payload: bytes) -> QueryAnswer:
    """Rebuild an answer (delegates to :meth:`QueryAnswer.from_wire`)."""
    try:
        return QueryAnswer.from_wire(payload)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed answer section on the wire: {exc}") from exc


# ---------------------------------------------------------------------- #
# error responses
# ---------------------------------------------------------------------- #
def error_response(message_id, code: str, message: str) -> Dict[str, Any]:
    """Build a typed error response frame body."""
    return {"id": message_id, "kind": "error", "error": {"code": code, "message": message}}


def exception_for_error(payload: Dict[str, Any]) -> ServiceError:
    """Map an ``error`` response to the client-side exception to raise."""
    error = payload.get("error") or {}
    code = error.get("code", ERROR_SERVER_ERROR)
    message = error.get("message", "server reported an error")
    if code == ERROR_OVERLOADED:
        return ServiceOverloadedError(message)
    if code == ERROR_BAD_REQUEST:
        return ProtocolError(message)
    if code == ERROR_DEADLINE_EXCEEDED:
        return DeadlineExceededError(message)
    return ServiceError(f"{code}: {message}")
