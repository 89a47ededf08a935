"""ChunkStore: the simulated distributed KVS (DESIGN §2).

Chunks are the unit of storage (§2.4). Each chunk's records live in a
Parquet dataset partitioned by ``chunk``. The per-chunk *chunk map*
(which versions each record in the chunk belongs to) is co-stored the
same way, as the paper stores it alongside the chunk.

A store opens each of its two datasets once: the first get after a
``write`` lists the partition directories and the store keeps the
resulting DataFrame. A get is a filter on ``chunk`` over that held
DataFrame, which Spark prunes against the file index it already holds —
the columnar analogue of a KVS ``get``, with no re-listing. ``write``
drops the held DataFrames. A handle does not see writes made through
another handle on the same path; open a new ``ChunkStore`` to read them.

Chunks are distributed over ``n_nodes`` simulated servers by
``chunk % n_nodes``; every ``get_chunks`` records request/byte traffic so
experiments can charge the calibrated :class:`~repro.kvs.cost.CostModel`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


@dataclass
class KVSStats:
    """Cumulative traffic counters for one store instance."""

    n_requests: int = 0
    n_bytes: int = 0
    per_node_requests: dict = field(default_factory=dict)

    def record(self, chunk_ids, chunk_bytes: dict, n_nodes: int) -> None:
        for cid in chunk_ids:
            self.n_requests += 1
            self.n_bytes += chunk_bytes.get(int(cid), 0)
            node = int(cid) % n_nodes
            self.per_node_requests[node] = self.per_node_requests.get(node, 0) + 1


class ChunkStore:
    """Persist chunked records + chunk maps; serve chunk-id gets."""

    def __init__(self, path: str | Path, n_nodes: int = 1):
        self.path = Path(path)
        self.n_nodes = n_nodes
        self.stats = KVSStats()
        self._chunk_bytes: dict[int, int] = {}
        self._frames: dict[str, DataFrame] = {}   # dataset path -> opened DataFrame

    @property
    def records_path(self) -> str:
        return str(self.path / "chunks")

    @property
    def maps_path(self) -> str:
        return str(self.path / "chunk_maps")

    def write(self, records_with_chunk: DataFrame,
              chunk_map: DataFrame | None = None) -> None:
        """Write the chunked records (and optionally the chunk maps).

        ``records_with_chunk``: (key, origin, size, payload?, chunk).
        ``chunk_map``: (chunk, vid, key, origin) — the per-chunk slice of
        the 3-D mapping M (§2.4).
        """
        self._frames.clear()
        (records_with_chunk.write.mode("overwrite")
         .partitionBy("chunk").parquet(self.records_path))
        if chunk_map is not None:
            (chunk_map.write.mode("overwrite")
             .partitionBy("chunk").parquet(self.maps_path))
        sizes = (records_with_chunk.groupBy("chunk")
                 .agg(F.sum("size").alias("bytes")).collect())
        self._chunk_bytes = {int(r["chunk"]): int(r["bytes"]) for r in sizes}

    def chunk_bytes(self) -> dict[int, int]:
        return dict(self._chunk_bytes)

    def _open(self, spark: SparkSession, path: str) -> DataFrame:
        """The dataset at ``path``, listed on first use after a ``write``."""
        if path not in self._frames:
            self._frames[path] = spark.read.parquet(path)
        return self._frames[path]

    def get_chunks(self, spark: SparkSession, chunk_ids) -> DataFrame:
        """Fetch chunks by id (partition-pruned filter); account traffic."""
        ids = [int(c) for c in chunk_ids]
        self.stats.record(ids, self._chunk_bytes, self.n_nodes)
        return self._open(spark, self.records_path).where(F.col("chunk").isin(ids))

    def get_chunk_maps(self, spark: SparkSession, chunk_ids) -> DataFrame:
        ids = [int(c) for c in chunk_ids]
        return self._open(spark, self.maps_path).where(F.col("chunk").isin(ids))

    def reset_stats(self) -> None:
        self.stats = KVSStats()
