"""Query objects and answers shared by all similarity-search methods.

A :class:`SimilarityQuery` captures the inputs of the stated graph
similarity search problem (query graph ``Q``, similarity threshold ``τ̂``,
and — for probabilistic methods — the probability threshold ``γ``), and a
:class:`QueryAnswer` captures one method's output so the evaluation layer
can compute precision/recall/F1 uniformly across GBDA and the baselines.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.exceptions import QueryError
from repro.graphs.graph import Graph

__all__ = ["SimilarityQuery", "QueryAnswer"]

#: Head of an answer's wire form: elapsed_seconds, len(method), has ranking,
#: |accepted_ids|, |scores|, |ranking| (little-endian, unpadded).
_WIRE_COUNTS = struct.Struct("<dHBIII")


def _wire_arrays(method_bytes: int, accepted: int, scored: int, ranked: int) -> str:
    """``struct`` format of what follows the counts: method, ids, (ids, scores) twice."""
    return "<%ds%dq%dq%dd%dq%dd" % (method_bytes, accepted, scored, scored, ranked, ranked)


@dataclass(frozen=True)
class SimilarityQuery:
    """Inputs of one graph similarity search (Problem Statement, Section I)."""

    query_graph: Graph
    tau_hat: int
    gamma: float = 0.9
    #: Optional top-k mode: when set, the query asks for the ``top_k``
    #: database graphs ranked by posterior (ties broken by ascending graph
    #: id) instead of the γ-thresholded answer set — γ is ignored by the
    #: ranking.  Engines route such queries through their top-k path.
    top_k: Optional[int] = None
    #: Lazily cached canonical branch multiset of the query graph (see
    #: :meth:`branches`); never part of equality or construction.
    _branches: Optional[Counter] = field(
        default=None, init=False, repr=False, compare=False
    )

    def branches(self) -> Counter:
        """Return (and cache) ``B_Q``, the query's canonical branch multiset.

        Extracting the multiset is the per-query constant cost of the online
        stage (Step 2's input), so the search and serving layers share one
        extraction per query object instead of repeating it per scoring
        path.  The query is a request-scoped value object: mutating
        ``query_graph`` after the first scoring call is not supported.
        """
        branches = self._branches
        if branches is None:
            from repro.core.branches import branch_multiset

            branches = branch_multiset(self.query_graph)
            object.__setattr__(self, "_branches", branches)
        return branches

    def __post_init__(self) -> None:
        try:
            tau_hat = int(self.tau_hat)
            if tau_hat != self.tau_hat:
                raise QueryError("the similarity threshold τ̂ must be an integer")
        except (TypeError, ValueError) as exc:
            raise QueryError("the similarity threshold τ̂ must be an integer") from exc
        if tau_hat < 0:
            raise QueryError("the similarity threshold τ̂ must be non-negative")
        try:
            gamma = float(self.gamma)
        except (TypeError, ValueError) as exc:
            raise QueryError("the probability threshold γ must be a number in [0, 1]") from exc
        if not 0.0 <= gamma <= 1.0:
            raise QueryError("the probability threshold γ must lie in [0, 1]")
        top_k = self.top_k
        if top_k is not None:
            try:
                value = int(top_k)
                if value != top_k:
                    raise QueryError("top_k must be a positive integer or None")
            except (TypeError, ValueError) as exc:
                raise QueryError("top_k must be a positive integer or None") from exc
            if value < 1:
                raise QueryError("top_k must be a positive integer or None")
            top_k = value
        # Normalise so downstream arithmetic/comparisons see native numbers
        # even when the caller passed e.g. numpy scalars or 2.0 / "0.5".
        object.__setattr__(self, "tau_hat", tau_hat)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "top_k", top_k)


@dataclass
class QueryAnswer:
    """The result set returned by one method for one query.

    Attributes
    ----------
    method:
        Human-readable method name (``"GBDA"``, ``"LSAP"``, ...).
    accepted_ids:
        The ids of the database graphs reported as similar.
    scores:
        Optional per-graph scores (posterior probabilities for GBDA,
        estimated GEDs for the baselines); useful for diagnostics.
    elapsed_seconds:
        Online wall-clock time spent answering the query.
    ranking:
        For top-k answers only: the ``(graph id, score)`` pairs ordered by
        descending score (ascending id under ties) — the ordered view of
        ``accepted_ids``/``scores``, which are unordered containers.
    """

    method: str
    accepted_ids: FrozenSet[int]
    scores: Dict[int, float] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    ranking: Optional[List[Tuple[int, float]]] = None

    @property
    def size(self) -> int:
        """Number of graphs in the answer set."""
        return len(self.accepted_ids)

    def contains(self, graph_id: int) -> bool:
        """Whether a database graph id is part of the answer."""
        return graph_id in self.accepted_ids

    def score_of(self, graph_id: int) -> Optional[float]:
        """Return the recorded score of a graph id, if any."""
        return self.scores.get(graph_id)

    # ------------------------------------------------------------------ #
    # wire serialization (used by the repro.service protocol)
    # ------------------------------------------------------------------ #
    def to_wire(self) -> bytes:
        """Return the answer section of an answer frame (see ``repro.service.protocol``).

        Counts first, then the method name and the id and score arrays as
        little-endian ``int64`` / ``float64``; ids travel in ascending order
        (``ranking`` in rank order), so equal answers encode to equal bytes.
        A float travels as its eight bytes and a NumPy scalar as the native
        number of the same bits, so a decoded answer compares equal, bit for
        bit, to the answer the server computed — non-finite scores included.
        """
        method = self.method.encode("utf-8")
        accepted = sorted(self.accepted_ids)
        scored = sorted(self.scores)
        ranking = self.ranking or ()
        return _WIRE_COUNTS.pack(
            self.elapsed_seconds, len(method), self.ranking is not None,
            len(accepted), len(scored), len(ranking),
        ) + struct.pack(
            _wire_arrays(len(method), len(accepted), len(scored), len(ranking)),
            method, *accepted, *scored, *map(self.scores.__getitem__, scored),
            *[graph_id for graph_id, _ in ranking], *[score for _, score in ranking],
        )

    @classmethod
    def from_wire(cls, payload: bytes) -> "QueryAnswer":
        """Rebuild an answer from :meth:`to_wire` output; ``ValueError`` if malformed."""
        try:
            elapsed, method_bytes, has_ranking, accepted, scored, ranked = (
                _WIRE_COUNTS.unpack_from(payload))
            # Before anything is allocated: the counts must be what the section holds.
            if len(payload) != (
                _WIRE_COUNTS.size + method_bytes + 8 * accepted + 16 * (scored + ranked)
            ) or has_ranking > 1 or (ranked and not has_ranking):
                raise ValueError("answer section length or flags disagree with its counts")
            method, *numbers = struct.unpack_from(
                _wire_arrays(method_bytes, accepted, scored, ranked), payload, _WIRE_COUNTS.size)
        except struct.error as exc:
            raise ValueError(f"malformed answer section: {exc}") from exc
        scores_at = accepted + scored
        ranking_at = scores_at + scored
        return cls(
            method=method.decode("utf-8"),
            accepted_ids=frozenset(numbers[:accepted]),
            scores=dict(zip(numbers[accepted:scores_at], numbers[scores_at:ranking_at])),
            elapsed_seconds=elapsed,
            ranking=list(zip(numbers[ranking_at:ranking_at + ranked],
                             numbers[ranking_at + ranked:])) if has_ranking else None,
        )
