"""ChunkStore: the simulated distributed KVS (DESIGN §2).

Chunks are the unit of storage (§2.4). Each chunk's records live in a
Parquet dataset partitioned by ``chunk``. The per-chunk *chunk map*
(which versions each record in the chunk belongs to) is co-stored the
same way, as the paper stores it alongside the chunk.

Writes are bulk work and run in Spark. A get is a keyed read on the
driver, as the paper's client fetches a chunk by its chunk key:
:func:`read_chunks` reads the part files under ``chunk=<id>/`` of each
requested chunk with pyarrow, one chunk after another, and adds the
``chunk`` column. No file index or DataFrame is held between calls, so a
get sees every write made to the path, through any handle.

Chunks are distributed over ``n_nodes`` simulated servers by
``chunk % n_nodes``; every chunk get records request/byte traffic so
experiments can charge the calibrated :class:`~repro.kvs.cost.CostModel`.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

# Type of the ``chunk`` column: what Spark's partition discovery infers
# for chunk ids that fit in an int.
CHUNK_TYPE = pa.int32()


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


def _part_files(chunk_dir: str) -> list[str]:
    """Parquet part files of one chunk directory; none if it is absent."""
    try:
        names = os.listdir(chunk_dir)
    except FileNotFoundError:
        return []
    return [os.path.join(chunk_dir, n) for n in sorted(names)
            if not n.startswith((".", "_"))]


def _dataset_schema(path: str) -> pa.Schema:
    """File schema of the dataset at ``path``, from any one part file."""
    with os.scandir(path) as entries:
        for e in entries:
            if e.name.startswith("chunk=") and (files := _part_files(e.path)):
                return pq.read_schema(files[0])
    raise FileNotFoundError(f"no Parquet part files under {path}")


def read_chunks(path: str, chunk_ids: list[int],
                columns: list[str] | None = None) -> pa.Table:
    """Keyed read of chunks ``chunk_ids`` from the dataset at ``path``.

    Reads every part file under ``chunk=<id>/`` for each id in turn and
    adds the ``chunk`` column, giving the rows, columns and types that
    Spark's Parquet reader gives for ``path`` filtered on ``chunk ∈ ids``.
    Ids with no directory contribute no rows.
    """
    parts = []
    for cid in chunk_ids:
        for f in _part_files(os.path.join(path, f"chunk={cid}")):
            with pq.ParquetFile(f) as pf:
                t = pf.read(columns=columns, use_threads=False)
            parts.append(t.append_column(
                "chunk", pa.array([cid] * t.num_rows, CHUNK_TYPE)))
    if parts:
        return pa.concat_tables(parts)
    schema = _dataset_schema(path)
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return schema.append(pa.field("chunk", CHUNK_TYPE)).empty_table()


class ChunkStore:
    """Persist chunked records + chunk maps; serve chunk-id gets."""

    def __init__(self, path: str | Path, n_nodes: int = 1):
        self.path = Path(path)
        self.n_nodes = n_nodes
        self.stats = KVSStats()
        self._chunk_bytes: dict[int, int] = {}

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

    def fetch_chunks(self, chunk_ids) -> pa.Table:
        """Get chunks by id (keyed read); account traffic."""
        ids = [int(c) for c in chunk_ids]
        self.stats.record(ids, self._chunk_bytes, self.n_nodes)
        return read_chunks(self.records_path, ids)

    def fetch_chunk_maps(self, chunk_ids,
                         columns: list[str] | None = None) -> pa.Table:
        """The chunk maps of ``chunk_ids`` (keyed read). Not charged: the
        paper stores a chunk's map alongside the chunk."""
        return read_chunks(self.maps_path, [int(c) for c in chunk_ids], columns)

    def get_chunks(self, spark: SparkSession, chunk_ids) -> DataFrame:
        """:meth:`fetch_chunks` as a Spark DataFrame."""
        return spark.createDataFrame(self.fetch_chunks(chunk_ids))

    def get_chunk_maps(self, spark: SparkSession, chunk_ids) -> DataFrame:
        """:meth:`fetch_chunk_maps` as a Spark DataFrame."""
        return spark.createDataFrame(self.fetch_chunk_maps(chunk_ids))

    def reset_stats(self) -> None:
        self.stats = KVSStats()
