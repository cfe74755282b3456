"""Seeded inputs and the fixed sizes of every workload.

Everything the program under test sees is generated here from ``--seed``:
the same seed gives the same graphs, queries, arrival schedule and read
sequence.  Sizes are constants of the benchmark, never tuned per run — a
timed section that must get shorter loses rounds, not pass size.

Vertex counts cycle deterministically through their range (only labels and
edges are random), so the total amount of data — and with it set-up time
and memory — does not move with the seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Graph

VERTEX_LABELS: Sequence[str] = ("A", "B", "C", "D", "E")
EDGE_LABELS: Sequence[str] = ("x", "y", "z")
#: Extra edges beyond the spanning tree, per vertex.
EXTRA_EDGES_PER_VERTEX = 0.3

BATCH = 32  #: queries per ``query_batch`` call in every ``batch`` phase
TOP_K = 10  #: k of every ``topk`` phase


@dataclass(frozen=True)
class EngineSizes:
    """An in-process, read-only workload (``scan_dense`` / ``filter_selective``)."""

    graphs: int
    vertices: Tuple[int, int]
    query_vertices: Tuple[int, int]
    taus: Tuple[int, ...]
    gamma: float
    #: queries issued by one pass of each phase (``batch`` in whole batches);
    #: the three phases use disjoint queries
    single_pass: int
    batch_pass: int
    topk_pass: int
    prior_pairs: int
    #: τ̂ of the ``topk`` slice when it differs from ``taus`` (see README:
    #: ``scan_dense`` ranks at τ̂=3 only, where early termination never fires)
    topk_taus: Tuple[int, ...] = ()
    #: share of the queries that are copies of a stored graph, so that the
    #: answers being checked are not all empty
    planted: float = 0.125

    @property
    def max_tau(self) -> int:
        return max(self.taus)


@dataclass(frozen=True)
class ServiceSizes:
    """``service_wire``: a saved engine behind a ``SimilarityService``, driven over TCP."""

    engine: EngineSizes
    connections: int
    callers_per_connection: int
    serial_pass: int  #: queries of one ``serial`` pass (one caller, one at a time)
    single_pass: int  #: closed-loop queries per pass
    batch_pass: int  #: queries per ``query_many`` call
    batch_calls: int  #: consecutive calls per connection in one ``batch`` pass
    topk_pass: int
    ladder_rates: Tuple[int, ...]  #: traced-run knee diagnostic
    knee_p90_ms: float


@dataclass(frozen=True)
class IngestSizes:
    """``ingest_mixed``: episodes of writes beside reads on a growing store."""

    base_graphs: int
    vertices: Tuple[int, int]
    query_vertices: Tuple[int, int]
    taus: Tuple[int, ...]
    gamma: float
    rounds: int  #: per episode; the read kind rotates single/batch/topk
    add_per_round: int
    reads_per_round: int
    hot_queries: int  #: fits the 256-entry result cache
    zipf_s: float
    prior_pairs: int

    @property
    def max_tau(self) -> int:
        return max(self.taus)


# Pass sizes are chosen for ≈0.1–0.4 s per pass at the rates measured on the
# reference box (see README).  The phases of a read-only workload use disjoint
# queries and every pass of a phase re-issues the same ones, so one round
# probes the engine's 256-entry LRU result cache with about twice as many
# distinct keys as it holds and no timed query is answered from it.  That
# rests on the cache's size and policy, so every run counts the hits of its
# timed section and a hit is a failed operation (``cache_hits`` in the result).
FULL = {
    "scan_dense": EngineSizes(
        graphs=40_000, vertices=(8, 12), query_vertices=(8, 12), taus=(1, 2, 3), gamma=0.5,
        single_pass=300, batch_pass=192, topk_pass=10, prior_pairs=2000,
        topk_taus=(3,),
    ),
    "filter_selective": EngineSizes(
        graphs=16_000, vertices=(8, 120), query_vertices=(8, 12), taus=(0, 0, 1), gamma=0.95,
        single_pass=810, batch_pass=800, topk_pass=165, prior_pairs=2000,
    ),
    "service_wire": ServiceSizes(
        engine=EngineSizes(
            graphs=2000, vertices=(8, 12), query_vertices=(8, 12), taus=(1, 2, 3), gamma=0.5,
            single_pass=1024, batch_pass=256, topk_pass=256, prior_pairs=2000,
        ),
        connections=2, callers_per_connection=16, serial_pass=128,
        single_pass=1024, batch_pass=256, batch_calls=2, topk_pass=256,
        ladder_rates=(500, 1000, 1500, 2000, 2500), knee_p90_ms=25.0,
    ),
    "ingest_mixed": IngestSizes(
        base_graphs=4000, vertices=(8, 60), query_vertices=(8, 12), taus=(1, 2), gamma=0.5,
        rounds=32, add_per_round=64, reads_per_round=32, hot_queries=128, zipf_s=2.0,
        prior_pairs=2000,
    ),
}

SMOKE = {
    "scan_dense": EngineSizes(
        graphs=600, vertices=(8, 12), query_vertices=(8, 12), taus=(1, 2, 3), gamma=0.5,
        single_pass=300, batch_pass=320, topk_pass=60, prior_pairs=300,
    ),
    "filter_selective": EngineSizes(
        graphs=400, vertices=(8, 120), query_vertices=(8, 12), taus=(0, 0, 1), gamma=0.95,
        single_pass=300, batch_pass=320, topk_pass=90, prior_pairs=300,
    ),
    "service_wire": ServiceSizes(
        engine=EngineSizes(
            graphs=300, vertices=(8, 12), query_vertices=(8, 12), taus=(1, 2, 3), gamma=0.5,
            single_pass=288, batch_pass=64, topk_pass=64, prior_pairs=300,
        ),
        connections=2, callers_per_connection=16, serial_pass=32,
        # more than the result cache holds: a traced round issues this pool twice
        single_pass=288, batch_pass=64, batch_calls=2, topk_pass=64,
        ladder_rates=(200, 400), knee_p90_ms=25.0,
    ),
    "ingest_mixed": IngestSizes(
        base_graphs=300, vertices=(8, 30), query_vertices=(8, 12), taus=(1, 2), gamma=0.5,
        rounds=6, add_per_round=16, reads_per_round=8, hot_queries=32, zipf_s=2.0,
        prior_pairs=300,
    ),
}

WORKLOADS = tuple(FULL)


def sizes_for(workload: str, smoke: bool = False):
    return (SMOKE if smoke else FULL)[workload]


@dataclass(frozen=True)
class QuerySpec:
    """One query of the pool; a fresh ``SimilarityQuery`` is built per call."""

    graph: Graph
    tau_hat: int
    gamma: float


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """One independent, reproducible stream per (seed, purpose)."""
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode())])


def cycled_sizes(count: int, bounds: Tuple[int, int], offset: int = 0) -> List[int]:
    low, high = bounds
    span = high - low + 1
    return [low + (offset + index) % span for index in range(count)]


def make_graphs(rng: np.random.Generator, sizes: Sequence[int], prefix: str = "g") -> List[Graph]:
    """Connected random labeled graphs: a random spanning tree plus extra edges.

    All random draws are made in bulk (four NumPy calls for the whole list),
    which keeps input generation a small part of a run.
    """
    total = int(sum(sizes))
    extras = [int(n * EXTRA_EDGES_PER_VERTEX) for n in sizes]
    total_extra = int(sum(extras))
    vertex_labels = rng.integers(0, len(VERTEX_LABELS), size=total).tolist()
    tree_unit = rng.random(total).tolist()
    tree_labels = rng.integers(0, len(EDGE_LABELS), size=total).tolist()
    extra_unit = rng.random(2 * total_extra).tolist()
    extra_labels = rng.integers(0, len(EDGE_LABELS), size=total_extra).tolist()

    graphs = []
    v_at = 0
    e_at = 0
    for index, n in enumerate(sizes):
        graph = Graph(name=f"{prefix}{index}")
        add_vertex, add_edge = graph.add_vertex, graph.add_edge
        for vertex in range(n):
            add_vertex(vertex, VERTEX_LABELS[vertex_labels[v_at + vertex]])
        seen = set()
        for vertex in range(1, n):
            anchor = int(tree_unit[v_at + vertex] * vertex)
            seen.add((anchor, vertex))
            add_edge(vertex, anchor, EDGE_LABELS[tree_labels[v_at + vertex]])
        for extra in range(extras[index]):
            u = int(extra_unit[2 * (e_at + extra)] * n)
            v = int(extra_unit[2 * (e_at + extra) + 1] * n)
            if u == v:
                continue
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                continue
            seen.add(pair)
            add_edge(u, v, EDGE_LABELS[extra_labels[e_at + extra]])
        graphs.append(graph)
        v_at += n
        e_at += extras[index]
    return graphs


def make_queries(
    seed: int,
    stream: str,
    count: int,
    query_vertices: Tuple[int, int],
    taus: Sequence[int],
    gamma: float,
    *,
    stored: Sequence[Graph] = (),
    planted: float = 0.0,
) -> List[QuerySpec]:
    """The query pool: sizes and τ̂ cycle, so every slice has the same mix.

    Query ``i`` has ``low + i % span`` vertices and threshold
    ``taus[(i // span) % len(taus)]``; only labels and edges depend on the
    seed.  A value listed twice in ``taus`` gets twice the share: the shares
    are chosen so that the 50th and 90th percentile of the per-query cost fall
    inside a (size, τ̂) class, not on the border between two.  Every
    ``1/planted``-th query is instead a copy of a stored graph of the same
    vertex count (the program cannot tell), which gives the selective workload
    answers that are not empty.
    """
    rng = rng_for(seed, stream)
    low, high = query_vertices
    span = high - low + 1
    sizes = cycled_sizes(count, query_vertices)
    graphs = make_graphs(rng, sizes, prefix="q")
    if stored and planted > 0:
        by_size: dict = {}
        for graph in stored:
            if low <= graph.num_vertices <= high:
                by_size.setdefault(graph.num_vertices, []).append(graph)
        for candidates in by_size.values():
            rng.shuffle(candidates)
        every = max(int(round(1.0 / planted)), 1)
        # Each stored graph is planted at most once: two equal queries would
        # share a result-cache key and the second would not be scored.
        for index in range(0, count, every):
            candidates = by_size.get(sizes[index])
            if candidates:
                graphs[index] = candidates.pop().copy(name=f"q{index}")
    return [
        QuerySpec(graph, int(taus[(index // span) % len(taus)]), float(gamma))
        for index, graph in enumerate(graphs)
    ]


def split(pool: Sequence, counts: Dict[str, int]) -> Dict[str, list]:
    """Cut one pool into disjoint slices, one per phase: no two share a query."""
    pools, at = {}, 0
    for kind, count in counts.items():
        pools[kind] = list(pool[at:at + count])
        at += count
    return pools


def engine_inputs(sizes: EngineSizes, seed: int, workload: str):
    """``(stored graphs, {phase: its queries})`` of a read-only workload."""
    graphs = make_graphs(
        rng_for(seed, workload + ":graphs"), cycled_sizes(sizes.graphs, sizes.vertices)
    )
    common = dict(stored=graphs, planted=sizes.planted)
    pools = split(
        make_queries(
            seed, workload + ":queries", sizes.single_pass + sizes.batch_pass,
            sizes.query_vertices, sizes.taus, sizes.gamma, **common),
        {"single": sizes.single_pass, "batch": sizes.batch_pass},
    )
    pools["topk"] = make_queries(
        seed, workload + ":topk", sizes.topk_pass,
        sizes.query_vertices, sizes.topk_taus or sizes.taus, sizes.gamma, **common)
    return graphs, pools


def poisson_schedule(
    seed: int, rate: float, seconds: float, stream: str = "arrivals"
) -> List[float]:
    """Due times (seconds from the pass start) of a Poisson arrival process.

    The number of arrivals is fixed at ``round(rate * seconds)`` — every pass
    issues the same operations — and the times are sorted uniforms, which is
    exactly a Poisson process conditioned on its count.
    """
    count = max(int(round(rate * seconds)), 1)
    times = np.sort(rng_for(seed, stream).random(count)) * float(seconds)
    return times.tolist()


def zipf_draws(seed: int, count: int, population: int, s: float, stream: str = "zipf") -> List[int]:
    """``count`` ranks in ``[0, population)`` with probability ∝ 1/(rank+1)^s."""
    weights = 1.0 / np.arange(1, population + 1, dtype=np.float64) ** float(s)
    weights /= weights.sum()
    return rng_for(seed, stream).choice(population, size=count, p=weights).tolist()
