"""Query processing (§2.4): Q1 full version, Q2 range, Q3 evolution,
and single-record retrieval, over the simulated KVS.

Each query asks the :class:`~repro.core.indexes.IndexSet` planner for
its candidate chunks and gets those chunks from the
:class:`~repro.kvs.store.ChunkStore` by key (request/byte traffic is
accounted there). Like the paper's client, the engine then extracts the
wanted records on the driver: it filters the same chunks' maps by the
query's predicate and semi-joins the records on ``(key, origin)`` with
Arrow compute kernels. Only the answer is handed to Spark, as a DataFrame.

Every method returns ``(DataFrame, QueryStats)`` where the stats carry
the span, bytes moved, and the calibrated simulated time, as charged by
:func:`query_stats` — which the experiments call on the same plans —
plus the measured wall time of the gets and of the extraction.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame, SparkSession

from ..kvs.cost import CostModel, QUERY_MODEL
from ..kvs.store import ChunkStore
from .indexes import IndexSet


RECORD_COLS = ("key", "origin", "size", "payload")


@dataclass
class QueryStats:
    span: int          # chunks fetched
    bytes: int         # chunk bytes moved
    sim_time_s: float  # calibrated retrieval time
    get_s: float = 0.0      # measured: keyed gets of chunks and chunk maps
    extract_s: float = 0.0  # measured: extraction into the result DataFrame


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

    def _answer(self, chunk_ids: list[int], records: pa.Table,
                start: float, got: float) -> tuple[DataFrame, QueryStats]:
        """Hand the extracted ``records`` to Spark and charge the plan;
        the gets ran from ``start`` to ``got``."""
        df = self.spark.createDataFrame(records.select(list(RECORD_COLS)))
        stats = query_stats(chunk_ids, self.indexes.chunk_bytes, self.cost)
        stats.get_s = got - start
        stats.extract_s = time.perf_counter() - got
        return df, stats

    def _extract(self, chunk_ids: list[int], vid: int, key_lo: int | None = None,
                 key_hi: int | None = None) -> tuple[DataFrame, QueryStats]:
        """Get ``chunk_ids`` and keep the records of version ``vid``
        (with ``key_lo <= key <= key_hi`` when a key range is given), as
        the chunk maps place them."""
        start = time.perf_counter()
        recs = self.store.fetch_chunks(chunk_ids)
        maps = self.store.fetch_chunk_maps(chunk_ids, ["vid", "key", "origin"])
        got = time.perf_counter()
        member = pc.equal(maps["vid"], vid)
        if key_lo is not None:
            member = pc.and_(member, pc.and_(pc.greater_equal(maps["key"], key_lo),
                                             pc.less_equal(maps["key"], key_hi)))
        wanted = maps.filter(member)
        # A version holds one record per key, so the semi-join on
        # (key, origin) is a lookup of each record's key among the wanted
        # keys; records of unwanted keys get a null and are dropped.
        at = pc.index_in(recs["key"], value_set=wanted["key"])
        kept = recs.filter(pc.equal(recs["origin"], pc.take(wanted["origin"], at)))
        return self._answer(chunk_ids, kept, start, got)

    def full_version(self, vid: int) -> tuple[DataFrame, QueryStats]:
        """Q1: all records belonging to version ``vid``."""
        return self._extract(self.indexes.chunks_for_version(vid), vid)

    def range_query(self, vid: int, key_lo: int,
                    key_hi: int) -> tuple[DataFrame, QueryStats]:
        """Q2: records of ``vid`` with ``key_lo <= key <= key_hi``."""
        return self._extract(self.indexes.chunks_for_range(vid, key_lo, key_hi),
                             vid, key_lo, key_hi)

    def record_evolution(self, key: int) -> tuple[DataFrame, QueryStats]:
        """Q3: every distinct record ever stored under ``key``.

        Every record of ``key`` is wanted, so the chunk maps are not read.
        """
        chunk_ids = self.indexes.chunks_for_key(key)
        start = time.perf_counter()
        recs = self.store.fetch_chunks(chunk_ids)
        got = time.perf_counter()
        return self._answer(chunk_ids, recs.filter(pc.equal(recs["key"], key)),
                            start, got)

    def record(self, key: int, vid: int) -> tuple[DataFrame, QueryStats]:
        """Point query: the record of ``key`` live in version ``vid``."""
        return self._extract(self.indexes.chunks_for_record(key, vid),
                             vid, key, key)
