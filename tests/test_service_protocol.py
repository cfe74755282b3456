"""Tests for the service wire protocol (repro.service.protocol)."""

from __future__ import annotations

import itertools
import json
import random
import socket
import struct
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.branches import branch_multiset
from repro.core.search import GBDASearch
from repro.db.database import GraphDatabase
from repro.db.query import QueryAnswer, SimilarityQuery
from repro.exceptions import (
    ProtocolError,
    QueryError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.graphs.generators import random_labeled_graph
from repro.graphs.graph import Graph
from repro.service import ServiceClient, protocol, start_service_thread
from repro.serving import BatchQueryEngine
from repro.testing.faults import FaultyEngine


def _graph(name="wire-graph"):
    return Graph.from_dicts(
        {0: "A", 1: "B", 2: "C"},
        {(0, 1): "x", (1, 2): "y"},
        name=name,
    )


class TestFraming:
    def test_round_trip(self):
        """Query, answer, admin and error messages all survive a full frame."""
        query = SimilarityQuery(_graph(), 2, 0.75)
        answer = QueryAnswer(method="GBDA", accepted_ids=frozenset({3}), scores={3: 0.5})
        messages = [
            protocol.query_request(7, query),
            protocol.query_request(
                8, query, deadline_ms=12.5, request_key="key-1", trace="00-" + "ab" * 16
            ),
            {"id": 7, "kind": "answer", "answer": protocol.encode_answer(answer)},
            {"id": 8, "kind": "answer", "answer": protocol.encode_answer(answer), "cached": True},
            # JSON stays for admin and error messages.
            {"id": 9, "kind": "admin", "command": "traces", "limit": 4},
            {"id": 9, "kind": "admin", "result": {"payload": [1, 2.5, "x", None, True]}},
            protocol.error_response(10, protocol.ERROR_BAD_REQUEST, "nope"),
        ]
        for message in messages:
            frame = protocol.encode_frame(message)
            length = struct.unpack(">I", frame[:4])[0]
            assert length == len(frame) - 4
            assert protocol.decode_frame(frame[4:]) == message
        assert [protocol.encode_frame(m)[4:5] for m in messages] == [
            b"Q", b"Q", b"A", b"A", b"{", b"{", b"{"
        ]

    def test_rejects_non_object_payload(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"[1, 2, 3]")

    def test_rejects_invalid_json(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"{not json")

    def test_rejects_oversized_announced_frame(self):
        prefix = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)

        class FakeSocket:
            def __init__(self, data):
                self.data = data

            def recv(self, n):
                chunk, self.data = self.data[:n], self.data[n:]
                return chunk

        with pytest.raises(ProtocolError):
            protocol.recv_frame(FakeSocket(prefix + b"x"))

    def test_sync_recv_reports_clean_eof(self):
        class ClosedSocket:
            def recv(self, n):
                return b""

        assert protocol.recv_frame(ClosedSocket()) is None

    def test_sync_recv_reports_truncated_frame(self):
        frame = protocol.encode_frame({"id": 1})

        class TruncatedSocket:
            def __init__(self, data):
                self.data = data

            def recv(self, n):
                chunk, self.data = self.data[:n], self.data[n:]
                return chunk

        with pytest.raises(ProtocolError):
            protocol.recv_frame(TruncatedSocket(frame[:-2]))


class TestGraphCodec:
    def test_round_trip_preserves_structure_and_labels(self):
        graph = _graph()
        decoded = protocol.decode_graph(protocol.encode_graph(graph))
        assert decoded.name == graph.name
        assert dict(decoded.vertex_items()) == dict(graph.vertex_items())
        assert {frozenset((u, v)): label for u, v, label in decoded.edges()} == {
            frozenset((u, v)): label for u, v, label in graph.edges()
        }

    def test_tuple_labels_survive(self):
        graph = Graph.from_dicts(
            {0: ("A", 1), 1: ("B", 2)}, {(0, 1): ("x", "y")}, name="tuple-labels"
        )
        decoded = protocol.decode_graph(protocol.encode_graph(graph))
        assert dict(decoded.vertex_items()) == {0: ("A", 1), 1: ("B", 2)}
        assert next(iter(decoded.edges()))[2] == ("x", "y")

    def test_frame_round_trip_is_exact(self):
        """The full frame pipeline (header and query section) must be lossless."""
        graph = _graph()
        frame = protocol.encode_frame(protocol.query_request(1, SimilarityQuery(graph, 1, 0.5)))
        decoded = protocol.decode_query(protocol.decode_frame(frame[4:])["query"]).query_graph
        assert decoded == graph
        assert decoded.name == graph.name
        assert dict(decoded.vertex_items()) == dict(graph.vertex_items())

    def test_unencodable_label_is_rejected(self):
        graph = Graph.from_dicts({0: object()}, {}, name="bad")
        with pytest.raises(ProtocolError):
            protocol.encode_graph(graph)

    def test_malformed_graph_payload(self):
        with pytest.raises(ProtocolError):
            protocol.decode_graph({"vertices": "nope"})


class TestQueryCodec:
    def test_round_trip(self):
        query = SimilarityQuery(_graph(), 2, 0.75)
        decoded = protocol.decode_query(protocol.encode_query(query))
        assert decoded.tau_hat == 2
        assert decoded.gamma == 0.75
        assert decoded.top_k is None
        assert decoded.branches() == query.branches()

    def test_top_k_round_trip(self):
        query = SimilarityQuery(_graph(), 1, 0.9, top_k=5)
        decoded = protocol.decode_query(protocol.encode_query(query))
        assert decoded.top_k == 5

    def test_invalid_thresholds_surface_as_query_error(self):
        payload = protocol.encode_query(SimilarityQuery(_graph(), 1, 0.5))
        graph_section = payload[struct.calcsize("<qdq"):]
        for tau_hat, gamma, top_k in [
            (1, 2.0, 0), (1, float("nan"), 0), (-1, 0.5, 0), (1, 0.5, -3),
        ]:
            with pytest.raises(QueryError):
                protocol.decode_query(struct.pack("<qdq", tau_hat, gamma, top_k) + graph_section)

    def test_malformed_payload(self):
        with pytest.raises(ProtocolError):
            protocol.decode_query({"tau_hat": 1})


class TestAnswerCodec:
    def test_round_trip_bit_identical(self):
        answer = QueryAnswer(
            method="GBDA",
            accepted_ids=frozenset({3, 1, 41}),
            scores={1: 0.1234567890123456789, 3: 1.0 / 3.0, 41: 0.9999999999999999},
            elapsed_seconds=0.00123,
            ranking=[(41, 0.9999999999999999), (3, 1.0 / 3.0), (1, 0.1234567890123456789)],
        )
        decoded = QueryAnswer.from_wire(answer.to_wire())
        assert decoded.accepted_ids == answer.accepted_ids
        assert decoded.scores == answer.scores  # float bits preserved
        assert decoded.ranking == answer.ranking
        assert decoded.method == answer.method

    def test_numpy_scalars_are_coerced(self):
        """NumPy scalars travel as the native numbers of the same bits."""
        np = pytest.importorskip("numpy")
        answer = QueryAnswer(
            method="GBDA",
            accepted_ids=frozenset({np.int64(5)}),
            scores={np.int64(5): np.float64(0.3333333333333333)},
            ranking=[(np.int64(5), np.float64(0.3333333333333333))],
        )
        native = QueryAnswer(
            method="GBDA",
            accepted_ids=frozenset({5}),
            scores={5: 0.3333333333333333},
            ranking=[(5, 0.3333333333333333)],
        )
        wire = answer.to_wire()
        assert wire == native.to_wire()
        decoded = QueryAnswer.from_wire(wire)
        assert decoded == native
        (graph_id, score), = decoded.scores.items()
        assert type(graph_id) is int and type(score) is float
        assert type(decoded.ranking[0][0]) is int and type(decoded.ranking[0][1]) is float

    def test_thresholded_answer_has_no_ranking(self):
        answer = QueryAnswer(method="GBDA", accepted_ids=frozenset({1}), scores={1: 0.5})
        decoded = QueryAnswer.from_wire(answer.to_wire())
        assert decoded.ranking is None

    def test_full_frame_round_trip_is_exact(self):
        answer = QueryAnswer(
            method="GBDA",
            accepted_ids=frozenset({0, 2}),
            scores={0: 0.1 + 0.2, 2: 7.0 / 11.0},  # non-representable doubles
            elapsed_seconds=1e-4 / 3.0,
        )
        frame = protocol.encode_frame(
            {"id": 3, "kind": "answer", "answer": protocol.encode_answer(answer)}
        )
        decoded = protocol.decode_answer(protocol.decode_frame(frame[4:])["answer"])
        assert decoded == answer

    def test_malformed_answer_payload(self):
        with pytest.raises(ProtocolError):
            protocol.decode_answer({"method": "GBDA"})


class TestErrorMapping:
    def test_overloaded_maps_to_typed_exception(self):
        response = protocol.error_response(4, protocol.ERROR_OVERLOADED, "shed")
        exc = protocol.exception_for_error(response)
        assert isinstance(exc, ServiceOverloadedError)

    def test_bad_request_maps_to_protocol_error(self):
        response = protocol.error_response(4, protocol.ERROR_BAD_REQUEST, "nope")
        assert isinstance(protocol.exception_for_error(response), ProtocolError)

    def test_unknown_code_maps_to_service_error(self):
        exc = protocol.exception_for_error({"error": {"code": "???", "message": "m"}})
        assert isinstance(exc, ServiceError)
        assert not isinstance(exc, ServiceOverloadedError)


# ---------------------------------------------------------------------- #
# the binary layout: one codec, size guards, hostile sections
# ---------------------------------------------------------------------- #
_THRESHOLDS = struct.Struct("<qdq")
_GRAPH_HEADER = struct.Struct("<III")


def _graph_section(table, vertex_codes, edges=(), num_vertices=None):
    """Hand-packed graph section: ``edges`` are ``(u, v, label code)``."""
    text = json.dumps(table).encode("utf-8")
    count = len(vertex_codes) if num_vertices is None else num_vertices
    ints = [*vertex_codes, *(e[2] for e in edges), *(e[0] for e in edges), *(e[1] for e in edges)]
    return (
        _GRAPH_HEADER.pack(count, len(edges), len(text))
        + text
        + struct.pack("<%dI" % len(ints), *ints)
    )


def _ten_vertex_graph():
    graph = Graph(name="q17")
    for vertex in range(10):
        graph.add_vertex(vertex, "ABCDE"[vertex % 5])
    for vertex in range(1, 10):
        graph.add_edge(vertex - 1, vertex, "xyz"[vertex % 3])
    for u, v in [(0, 5), (2, 7), (3, 9)]:
        graph.add_edge(u, v, "x")
    return graph


class TestOneCodec:
    @pytest.mark.parametrize("kind", ["query", "answer"])
    def test_json_data_plane_messages_are_refused(self, kind):
        body = json.dumps({"id": 1, "kind": kind, kind: {"tau_hat": 1}}).encode("utf-8")
        with pytest.raises(ProtocolError):
            protocol.decode_frame(body)
        with pytest.raises(ProtocolError):  # the section must already be bytes
            protocol.encode_frame({"id": 1, "kind": kind, kind: {"tau_hat": 1}})

    def test_unknown_message_class_is_refused(self):
        for body in (b"", b"Z", b"\x00" * 64, b" {}"):
            with pytest.raises(ProtocolError):
                protocol.decode_frame(body)

    def test_frames_stay_small(self):
        """Count guards: the parent's JSON frames averaged 353 / 388 bytes."""
        query = SimilarityQuery(_ten_vertex_graph(), 2, 0.5)
        assert query.query_graph.num_edges == 12
        request = protocol.query_request(1, query, request_key="0123456789abcdef-0000042")
        assert len(request["request_key"]) == 24
        assert len(protocol.encode_frame(request)) <= 330
        answer = QueryAnswer(
            method="GBDA",
            accepted_ids=frozenset(range(100, 110)),
            scores={graph_id: 1.0 / graph_id for graph_id in range(100, 110)},
            elapsed_seconds=1.5e-4,
        )
        reply = {"id": 1, "kind": "answer", "answer": protocol.encode_answer(answer)}
        assert len(protocol.encode_frame(reply)) <= 300

    def test_equal_answers_encode_to_equal_bytes(self):
        one = QueryAnswer("GBDA", frozenset({3, 1, 2}), {3: 0.5, 1: 0.25, 2: 0.125})
        other = QueryAnswer("GBDA", frozenset({2, 3, 1}), {1: 0.25, 2: 0.125, 3: 0.5})
        assert one.to_wire() == other.to_wire()


class TestHostileSections:
    def test_well_formed_hand_packed_section_decodes(self):
        section = _graph_section([None, ["A", "B", "x"], None], [0, 1, 0], [(0, 1, 2), (1, 2, 2)])
        graph = protocol.decode_graph(section)
        assert dict(graph.vertex_items()) == {0: "A", 1: "B", 2: "A"}
        assert graph.edge_label(0, 1) == graph.edge_label(2, 1) == "x"

    @pytest.mark.parametrize(
        "section",
        [
            pytest.param(
                _graph_section([None, ["A", "x"], None], [0, 0], [(0, 0, 1)]), id="self-loop"
            ),
            pytest.param(
                _graph_section([None, ["A", "x"], None], [0, 0], [(0, 1, 1), (1, 0, 1)]),
                id="edge-in-both-orientations",
            ),
            pytest.param(_graph_section([None, ["A"], [5, 5]], [0, 0]), id="vertex-id-twice"),
            pytest.param(_graph_section([None, ["A"], [1, True]], [0, 0]), id="equal-vertex-ids"),
            pytest.param(_graph_section([None, ["A"], [5]], [0, 0]), id="too-few-vertex-ids"),
            pytest.param(_graph_section([None, ["A"], None], [1]), id="label-code-out-of-range"),
            pytest.param(
                _graph_section([None, ["A"], None], [0xFFFFFFFF]), id="label-code-minus-one"
            ),
            pytest.param(
                _graph_section([None, ["A", "x"], None], [0, 0], [(0, 2, 1)]),
                id="endpoint-out-of-range",
            ),
            pytest.param(
                _graph_section([None, ["A", "x"], None], [0, 0], [(0xFFFFFFFF, 1, 1)]),
                id="endpoint-minus-one",
            ),
            pytest.param(
                _graph_section([None, ["A", "x"], ["a", "b"]], [0, 0], [(0, 2, 1)]),
                id="endpoint-out-of-range-with-ids",
            ),
            pytest.param(_graph_section([None, ["ε"], None], [0]), id="virtual-label"),
            pytest.param(_graph_section([None, [["A"]], None], [0]), id="array-as-label"),
            pytest.param(_graph_section([None, ["A"], [["v"]]], [0]), id="array-as-vertex-id"),
            pytest.param(_graph_section([None, [{"t": ["A"]}], None], [0]), id="unknown-tag"),
            pytest.param(_graph_section({"a": 1, "b": 2, "c": 3}, []), id="table-is-an-object"),
            pytest.param(_graph_section([None, "AB", None], [0]), id="labels-not-an-array"),
            pytest.param(_graph_section([None, ["A"]], [0]), id="table-too-short"),
            pytest.param(_graph_section([None, ["A"], None], [0]) + b"\x00", id="trailing-byte"),
            pytest.param(b"", id="empty"),
            pytest.param(
                _GRAPH_HEADER.pack(1, 0, 4) + b"\xff\xfe\xfd\xfc" + b"\x00" * 4, id="table-not-utf8"
            ),
            pytest.param(
                _GRAPH_HEADER.pack(0, 0, 200_000) + b"[" * 200_000, id="table-nested-too-deep"
            ),
        ],
    )
    def test_defective_graph_section_is_a_protocol_error(self, section):
        with pytest.raises(ProtocolError):
            protocol.decode_graph(section)
        with pytest.raises(ProtocolError):
            protocol.decode_query(_THRESHOLDS.pack(1, 0.5, 0) + section)

    def test_counts_beyond_the_payload_fail_the_length_check(self, monkeypatch):
        """|V| = 2**31 - 1 in a 40-byte frame: refused before anything is unpacked."""
        def no_allocation(*args, **kwargs):
            raise AssertionError("the arrays were unpacked before the length check")

        section = _GRAPH_HEADER.pack(2**31 - 1, 0, 2) + b"[]" + b"\x00" * 2
        frame = protocol.encode_frame(
            {"id": 1, "kind": "query", "query": _THRESHOLDS.pack(1, 0.5, 0) + section}
        )
        assert len(frame) - 4 <= 64
        message = protocol.decode_frame(frame[4:])
        answer = struct.pack("<dHBIII", 0.0, 0, 0, 2**32 - 1, 2**32 - 1, 0)
        monkeypatch.setattr(struct, "unpack_from", no_allocation)
        monkeypatch.setattr(json, "loads", no_allocation)
        with pytest.raises(ProtocolError, match="length disagrees"):
            protocol.decode_query(message["query"])
        with pytest.raises(ProtocolError, match="disagree"):
            protocol.decode_answer(answer)

    def test_query_section_without_thresholds(self):
        for section in (b"", b"\x00" * 23):
            with pytest.raises(ProtocolError):
                protocol.decode_query(section)

    @pytest.mark.parametrize(
        "section",
        [
            pytest.param(b"", id="empty"),
            pytest.param(struct.pack("<dHBIII", 0.0, 4, 0, 0, 0, 0) + b"GB", id="short-method"),
            pytest.param(
                struct.pack("<dHBIII", 0.0, 0, 0, 0, 0, 1) + b"\x00" * 16, id="ranking-unflagged"
            ),
            pytest.param(struct.pack("<dHBIII", 0.0, 0, 2, 0, 0, 0), id="flag-out-of-range"),
            pytest.param(
                struct.pack("<dHBIII", 0.0, 2, 0, 0, 0, 0) + b"\xff\xfe", id="method-not-utf8"
            ),
            pytest.param({"method": "GBDA"}, id="not-bytes"),
        ],
    )
    def test_defective_answer_section_is_a_protocol_error(self, section):
        with pytest.raises(ProtocolError):
            protocol.decode_answer(section)


# ---------------------------------------------------------------------- #
# round trips
# ---------------------------------------------------------------------- #
def _typed(value):
    """``value`` with its types spelled out: ``1``, ``True`` and ``1.0`` differ."""
    if isinstance(value, tuple):
        return ("tuple", tuple(_typed(item) for item in value))
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))  # -0.0 vs 0.0, NaN == NaN
    return (type(value).__name__, value)


def _typed_graph(graph):
    return (
        _typed(graph.name),
        [(_typed(vertex), _typed(label)) for vertex, label in graph.vertex_items()],
        {
            frozenset((_typed(u), _typed(v))): _typed(label)
            for u, v, label in graph.edges()
        },
    )


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=6)
)
_values = st.recursive(
    _scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6
)
_labels = _values.filter(lambda label: label != "ε")


@st.composite
def _graphs(draw):
    ids = draw(st.one_of(
        st.integers(0, 8).map(lambda n: list(range(n))),
        st.lists(_values, max_size=8, unique_by=lambda v: v),
    ))
    graph = Graph(name=draw(st.one_of(st.none(), st.text(max_size=8))))
    for vertex in ids:
        graph.add_vertex(vertex, draw(_labels))
    pairs = [(u, v) for at, u in enumerate(ids) for v in ids[at + 1:]]
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []:
        graph.add_edge(*draw(st.permutations([u, v])), draw(_labels))
    return graph


class TestRoundTrips:
    @settings(max_examples=300, deadline=None)
    @given(graph=_graphs(), tau_hat=st.integers(0, 2**62), gamma=st.floats(0.0, 1.0),
           top_k=st.one_of(st.none(), st.integers(1, 2**62)))
    def test_any_query_survives_a_full_frame(self, graph, tau_hat, gamma, top_k):
        query = SimilarityQuery(graph, tau_hat, gamma, top_k=top_k)
        frame = protocol.encode_frame(protocol.query_request(5, query))
        decoded = protocol.decode_query(protocol.decode_frame(frame[4:])["query"])
        assert (decoded.tau_hat, decoded.top_k) == (tau_hat, top_k)
        assert struct.pack("<d", decoded.gamma) == struct.pack("<d", gamma)
        assert _typed_graph(decoded.query_graph) == _typed_graph(graph)

    @settings(max_examples=200, deadline=None)
    @given(graph=_graphs())
    def test_a_decoded_graph_has_the_same_branches(self, graph):
        decoded = protocol.decode_graph(protocol.encode_graph(graph))
        assert decoded == graph
        assert list(decoded.edges()) == list(graph.edges())
        assert branch_multiset(decoded) == branch_multiset(graph)

    def test_equal_labels_of_different_type_stay_distinct(self):
        labels = [1, True, 1.0, 0, False, 0.0, -0.0, (1,), (True,), (1.0,), ((1,),), "1", None]
        graph = Graph(name="τύποι")
        for vertex, label in enumerate(labels):
            graph.add_vertex(vertex, label)
        graph.add_edge(0, 1, True)
        graph.add_edge(1, 2, 1)
        decoded = protocol.decode_graph(protocol.encode_graph(graph))
        assert _typed_graph(decoded) == _typed_graph(graph)
        assert decoded.name == "τύποι"

    def test_vertex_ids_that_equal_a_range_but_are_not_ints_are_carried(self):
        graph = Graph.from_dicts({False: "A", True: "B"}, {(False, True): "x"})
        decoded = protocol.decode_graph(protocol.encode_graph(graph))
        assert [type(vertex) for vertex in decoded.vertices()] == [bool, bool]
        shuffled = Graph.from_dicts({1: "A", 0: "B", 2: "C"}, {(2, 0): "x"})
        decoded = protocol.decode_graph(protocol.encode_graph(shuffled))
        assert list(decoded.vertex_items()) == [(1, "A"), (0, "B"), (2, "C")]
        assert decoded.edge_label(0, 2) == "x"

    def test_empty_graph_and_isolated_vertices(self):
        assert protocol.decode_graph(protocol.encode_graph(Graph())) == Graph()
        isolated = Graph.from_dicts({"a": "A", ("b", 2): "B", 7: "C"}, {})
        decoded = protocol.decode_graph(protocol.encode_graph(isolated))
        assert _typed_graph(decoded) == _typed_graph(isolated)

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.dictionaries(st.integers(-2**63, 2**63 - 1), st.floats(), max_size=12),
        extra_ids=st.frozensets(st.integers(2**31, 2**63 - 1), max_size=4),
        elapsed=st.floats(),
        method=st.text(max_size=12),
        ranked=st.booleans(),
    )
    def test_any_answer_survives_a_full_frame(self, scores, extra_ids, elapsed, method, ranked):
        answer = QueryAnswer(
            method=method,
            accepted_ids=frozenset(scores) | extra_ids,
            scores=scores,
            elapsed_seconds=elapsed,
            ranking=list(reversed(list(scores.items()))) if ranked else None,
        )
        for cached in (False, True):
            message = {"id": 2**40, "kind": "answer", "answer": protocol.encode_answer(answer)}
            if cached:
                message["cached"] = True
            received = protocol.decode_frame(protocol.encode_frame(message)[4:])
            assert received.get("cached", False) is cached and received["id"] == 2**40
            decoded = protocol.decode_answer(received["answer"])
            assert decoded.method == method and decoded.accepted_ids == answer.accepted_ids
            # Non-finite scores included: compare the bits, and the order of a ranking.
            assert _typed(tuple(decoded.scores.items())) == _typed(tuple(sorted(scores.items())))
            assert _typed(decoded.elapsed_seconds) == _typed(elapsed)
            if ranked:
                assert _typed(tuple(decoded.ranking)) == _typed(tuple(answer.ranking))
            else:
                assert decoded.ranking is None

    def test_an_empty_ranking_is_not_an_absent_one(self):
        answer = QueryAnswer("GBDA", frozenset(), ranking=[])
        assert QueryAnswer.from_wire(answer.to_wire()).ranking == []

    def test_absent_and_present_header_fields_are_told_apart(self):
        query = SimilarityQuery(_graph(), 1, 0.5)
        bare = protocol.decode_frame(protocol.encode_frame(protocol.query_request(1, query))[4:])
        assert {"deadline_ms", "request_key", "trace"}.isdisjoint(bare)
        full = protocol.decode_frame(protocol.encode_frame(
            protocol.query_request(1, query, deadline_ms=0.5, request_key="", trace="")
        )[4:])
        assert (full["deadline_ms"], full["request_key"], full["trace"]) == (0.5, "", "")
        keyed = protocol.decode_frame(protocol.encode_frame(
            protocol.query_request(1, query, request_key="κλειδί")
        )[4:])
        assert keyed["request_key"] == "κλειδί" and "trace" not in keyed


# ---------------------------------------------------------------------- #
# fuzz: whatever arrives, a valid message or a typed error
# ---------------------------------------------------------------------- #
def _decode_all(body):
    """Everything a receiver does with one frame body."""
    message = protocol.decode_frame(body)
    if message.get("kind") == "query":
        return protocol.decode_query(message["query"])
    if message.get("kind") == "answer":
        return protocol.decode_answer(message["answer"])
    return message


def _valid_bodies():
    query = SimilarityQuery(_ten_vertex_graph(), 2, 0.5, top_k=3)
    tupled = SimilarityQuery(
        Graph.from_dicts({("a", 1): ("A", 1.5), "b": True}, {(("a", 1), "b"): None}, name="ü"),
        1, 0.25,
    )
    answer = QueryAnswer(
        "GBDA", frozenset({1, 2**40}), {1: 0.5, 2**40: float("inf")},
        elapsed_seconds=1e-3, ranking=[(2**40, float("inf")), (1, 0.5)],
    )
    messages = [
        protocol.query_request(1, query, deadline_ms=50.0, request_key="k-1", trace="00-ab-cd-01"),
        protocol.query_request(2, tupled),
        {"id": 3, "kind": "answer", "answer": protocol.encode_answer(answer), "cached": True},
        {"id": 4, "kind": "admin", "command": "ping"},
    ]
    return [protocol.encode_frame(message)[4:] for message in messages]


def _mutations(body):
    """Every truncation and every single-bit flip of ``body``."""
    for length in range(len(body)):
        yield body[:length]
    for position in range(len(body)):
        for bit in range(8):
            flipped = bytearray(body)
            flipped[position] ^= 1 << bit
            yield bytes(flipped)


class TestWireFuzz:
    @settings(max_examples=500, deadline=None)
    @given(body=st.one_of(
        st.binary(max_size=200),
        st.tuples(st.sampled_from([b"Q", b"A", b"{"]), st.binary(max_size=200)).map(b"".join),
    ))
    def test_arbitrary_bytes_never_escape_as_another_exception(self, body):
        try:
            _decode_all(body)
        except (ProtocolError, QueryError):
            pass

    @pytest.mark.parametrize(
        "body", _valid_bodies(), ids=["query", "tupled-query", "answer", "admin"]
    )
    def test_every_truncation_and_bit_flip_of_a_valid_frame(self, body):
        _decode_all(body)
        rejected = 0
        for mutated in _mutations(body):
            try:
                _decode_all(mutated)
            except (ProtocolError, QueryError):
                rejected += 1
        assert rejected >= len(body)  # every truncation at least

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_splices_of_valid_frames(self, data):
        bodies = _valid_bodies()
        body = bytearray(data.draw(st.sampled_from(bodies)))
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(body) - 1))
            body[at:at + data.draw(st.integers(0, 8))] = data.draw(st.binary(max_size=8))
        try:
            _decode_all(bytes(body))
        except (ProtocolError, QueryError):
            pass


# ---------------------------------------------------------------------- #
# the same, against a live service
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def engine():
    rng = random.Random(17)
    graphs = [
        random_labeled_graph(rng.randint(5, 9), rng.randint(5, 12), seed=rng) for _ in range(40)
    ]
    search = GBDASearch(GraphDatabase(graphs, name="wire"), max_tau=4, num_prior_pairs=150, seed=5)
    return BatchQueryEngine.from_search(search.fit())


@pytest.fixture(scope="module")
def handle(engine):
    with start_service_thread(engine, max_batch=8) as running:
        yield running


def _exchange(address, payload, timeout=10.0):
    """Send ``payload``, half-close, and collect reply frames until the server hangs up."""
    replies = []
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        while True:
            message = protocol.recv_frame(sock)  # a hang here is socket.timeout: a failure
            if message is None:
                return replies
            replies.append(message)


def _assert_sane_replies(replies):
    for reply in replies:
        if reply["kind"] == "error":
            assert reply["error"]["code"] == protocol.ERROR_BAD_REQUEST, reply
        else:
            assert reply["kind"] in ("answer", "admin"), reply


class TestLiveServiceFuzz:
    def _still_serving(self, handle, engine):
        query = SimilarityQuery(_ten_vertex_graph(), 2, 0.5)
        with ServiceClient(*handle.address) as client:
            received, direct = client.query(query), engine.query(query)
        assert (received.accepted_ids, received.scores) == (direct.accepted_ids, direct.scores)

    def test_truncations_and_bit_flips_get_bad_request_or_a_closed_connection(self, handle, engine):
        frame = protocol.encode_frame(
            protocol.query_request(1, SimilarityQuery(_ten_vertex_graph(), 2, 0.5))
        )
        # Every 7th mutation of the whole frame, length prefix included.
        for mutated in itertools.islice(_mutations(frame), 0, None, 7):
            try:
                _assert_sane_replies(_exchange(handle.address, mutated))
            except ProtocolError:
                pass  # a reply cut short by the server hanging up on the connection
        self._still_serving(handle, engine)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=st.tuples(st.sampled_from([b"Q", b"A", b"{", b""]), st.binary(max_size=120))
           .map(b"".join))
    def test_arbitrary_frames_get_bad_request_or_a_closed_connection(self, handle, body):
        _assert_sane_replies(_exchange(handle.address, struct.pack(">I", len(body)) + body))

    def test_the_service_answers_after_the_fuzz(self, handle, engine):
        self._still_serving(handle, engine)
        # Nothing the fuzz sent left a connection or a handler behind.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            server = handle.service.metrics()["server"]
            if not server["connections"] and not server["inflight_requests"]:
                break
            time.sleep(0.01)
        assert (server["connections"], server["inflight_requests"]) == (0, 0)


class TestLazyDecoding:
    def test_shed_and_cached_queries_never_reach_decode_graph(self, engine, monkeypatch):
        """A query refused by admission, or answered from the idempotency
        cache, costs a header parse: its graph bytes are never taken apart."""
        decoded = []
        real = protocol.decode_graph
        monkeypatch.setattr(
            protocol, "decode_graph", lambda payload: decoded.append(1) or real(payload)
        )
        queries = [SimilarityQuery(_ten_vertex_graph(), tau, 0.5) for tau in (1, 2, 3)]
        with start_service_thread(
            FaultyEngine.holding(engine, 150.0), max_batch=8, max_per_connection=1
        ) as running:
            with socket.create_connection(running.address, timeout=10) as sock:
                for message_id, query in enumerate(queries):  # a pipelined burst
                    protocol.send_frame(
                        sock,
                        protocol.query_request(message_id, query, request_key=f"k{message_id}"),
                    )
                replies = {}
                for _ in queries:
                    reply = protocol.recv_frame(sock)
                    replies[reply["id"]] = reply
                assert replies[0]["kind"] == "answer"
                assert [replies[i]["error"]["code"] for i in (1, 2)] == ["OVERLOADED"] * 2
                assert len(decoded) == 1, "a shed query's graph was decoded"
                protocol.send_frame(sock, protocol.query_request(9, queries[0], request_key="k0"))
                again = protocol.recv_frame(sock)
                assert again["cached"] is True and again["answer"] == replies[0]["answer"]
                assert len(decoded) == 1, "a cached query's graph was decoded"
