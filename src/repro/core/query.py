"""Query processing (§2.4): Q1 full version, Q2 range, Q3 evolution,
and single-record retrieval, over the simulated KVS.

Each query asks the :class:`~repro.core.indexes.IndexSet` planner for
its candidate chunks, fetches those chunks from the
:class:`~repro.kvs.store.ChunkStore` (request/byte traffic is accounted
there), then uses the chunk maps to extract exactly the requested
records.

Every method returns ``(DataFrame, QueryStats)`` where the stats carry
the span, bytes moved, and the calibrated simulated time, as charged by
:func:`query_stats` — which the experiments call on the same plans.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from ..kvs.cost import CostModel, QUERY_MODEL
from ..kvs.store import ChunkStore
from .indexes import IndexSet


RECORD_COLS = ("key", "origin", "size", "payload")


@dataclass
class QueryStats:
    span: int          # chunks fetched
    bytes: int         # chunk bytes moved
    sim_time_s: float  # calibrated retrieval time


def query_stats(chunk_ids: list[int], chunk_bytes: dict,
                cost: CostModel) -> QueryStats:
    """Charge a plan: fetching ``chunk_ids`` sized by ``chunk_bytes``."""
    nbytes = sum(chunk_bytes.get(c, 0) for c in chunk_ids)
    return QueryStats(span=len(chunk_ids), bytes=nbytes,
                      sim_time_s=cost.retrieval_time(len(chunk_ids), nbytes))


class QueryEngine:
    """RStore's query processing module over a populated ChunkStore."""

    def __init__(self, spark: SparkSession, store: ChunkStore,
                 indexes: IndexSet, cost: CostModel = QUERY_MODEL):
        self.spark = spark
        self.store = store
        self.indexes = indexes
        self.cost = cost

    def _fetch(self, chunk_ids: list[int]) -> tuple[DataFrame, QueryStats]:
        return (self.store.get_chunks(self.spark, chunk_ids),
                query_stats(chunk_ids, self.indexes.chunk_bytes, self.cost))

    def _extract(self, chunk_ids: list[int],
                 member: Column) -> tuple[DataFrame, QueryStats]:
        """Fetch ``chunk_ids`` and keep the records whose chunk-map rows
        satisfy ``member``."""
        recs, stats = self._fetch(chunk_ids)
        wanted = (self.store.get_chunk_maps(self.spark, chunk_ids)
                  .where(member).select("key", "origin"))
        return recs.join(wanted, ["key", "origin"]).select(*RECORD_COLS), stats

    def full_version(self, vid: int) -> tuple[DataFrame, QueryStats]:
        """Q1: all records belonging to version ``vid``."""
        return self._extract(self.indexes.chunks_for_version(vid),
                             F.col("vid") == vid)

    def range_query(self, vid: int, key_lo: int,
                    key_hi: int) -> tuple[DataFrame, QueryStats]:
        """Q2: records of ``vid`` with ``key_lo <= key <= key_hi``."""
        return self._extract(self.indexes.chunks_for_range(vid, key_lo, key_hi),
                             (F.col("vid") == vid)
                             & F.col("key").between(key_lo, key_hi))

    def record_evolution(self, key: int) -> tuple[DataFrame, QueryStats]:
        """Q3: every distinct record ever stored under ``key``.

        Every record of ``key`` is wanted, so the chunk maps are not read.
        """
        recs, stats = self._fetch(self.indexes.chunks_for_key(key))
        return recs.where(F.col("key") == key).select(*RECORD_COLS), stats

    def record(self, key: int, vid: int) -> tuple[DataFrame, QueryStats]:
        """Point query: the record of ``key`` live in version ``vid``."""
        return self._extract(self.indexes.chunks_for_record(key, vid),
                             (F.col("vid") == vid) & (F.col("key") == key))
