"""In-memory graph database with pre-computed branch structures.

The paper assumes that "all auxiliary data structures in different methods
... are pre-computed and stored with graphs"; this subpackage provides that
storage layer: a :class:`~repro.db.database.GraphDatabase` holding graphs
together with their branch multisets and summary statistics, an inverted
branch index for candidate counting, and a small query layer shared by the
GBDA search and the baselines.
"""

from repro.db.database import GraphDatabase, StoredGraph
from repro.db.columnar import ColumnarBranchStore
from repro.db.index import BranchInvertedIndex
from repro.db.catalog import DatabaseCatalog
from repro.db.query import SimilarityQuery, QueryAnswer

__all__ = [
    "GraphDatabase",
    "StoredGraph",
    "ColumnarBranchStore",
    "BranchInvertedIndex",
    "DatabaseCatalog",
    "SimilarityQuery",
    "QueryAnswer",
]
