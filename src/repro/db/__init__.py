"""In-memory graph database with pre-computed branch structures.

The paper assumes that "all auxiliary data structures in different methods
... are pre-computed and stored with graphs"; this subpackage provides that
storage layer: a :class:`~repro.db.database.GraphDatabase` holding graphs
together with the one columnar store of their branch multisets (what the
online stage and the offline pair sampling read), and a small query layer
shared by the GBDA search and the baselines.
"""

from repro.db.database import GraphDatabase, StoredGraph
from repro.db.columnar import ColumnarBranchStore
from repro.db.catalog import DatabaseCatalog
from repro.db.query import SimilarityQuery, QueryAnswer

__all__ = [
    "GraphDatabase",
    "StoredGraph",
    "ColumnarBranchStore",
    "DatabaseCatalog",
    "SimilarityQuery",
    "QueryAnswer",
]
