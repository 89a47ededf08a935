"""Indexes and lossy projections (§2.4, Fig 3b).

The full 3-D mapping M(K, V, C) is kept as per-chunk *chunk maps*
(stored with the chunks in the KVS) plus two lossy in-memory projections
on the application server:

- ``version_to_chunks``: which chunks contain records of a version,
- ``key_to_chunks``: which chunks contain records of a primary key.

Both are built by one Spark aggregation over membership ⋈ assignment and
collected into driver hash maps — the paper uses in-memory hashmaps too
and reports their sizes (we expose :meth:`IndexSet.sizes_bytes` for the
same measurement). :meth:`IndexSet.from_layout` builds the same maps on
the driver from a pandas layout, for the experiments.

:class:`IndexSet` is the one query planner: it turns each query into the
chunk ids to fetch, ANDing the two projections for range and record
queries (a fetched chunk may then hold no matching record — the
lossy-projection artifact the paper notes).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@dataclass
class IndexSet:
    """Driver-side lossy projections + chunk byte sizes."""

    version_to_chunks: dict   # vid -> sorted list[int]
    key_to_chunks: dict       # key -> sorted list[int]
    chunk_bytes: dict         # chunk -> bytes
    sorted_keys: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.sorted_keys = sorted(self.key_to_chunks)

    @classmethod
    def from_layout(cls, membership: pd.DataFrame, assignment: pd.DataFrame,
                    units: pd.DataFrame) -> IndexSet:
        """Driver-side build from a pandas layout.

        ``membership`` is ``(vid, key, origin)``, ``assignment`` places
        each record ``(key, origin)`` in a ``chunk``, and ``units`` are
        the partitioner's items ``(size, chunk)``: the records
        themselves, or the compressed sub-chunks when k > 1, so
        ``chunk_bytes`` is what a fetch moves.
        """
        placed = assignment[["key", "origin", "chunk"]]
        return cls(
            version_to_chunks=_chunk_lists(
                membership.merge(placed, on=["key", "origin"]), "vid"),
            key_to_chunks=_chunk_lists(placed, "key"),
            chunk_bytes={int(c): int(b) for c, b in
                         units.groupby("chunk")["size"].sum().items()},
        )

    def chunks_for_version(self, vid: int) -> list[int]:
        return self.version_to_chunks.get(int(vid), [])

    def chunks_for_key(self, key: int) -> list[int]:
        return self.key_to_chunks.get(int(key), [])

    def chunks_for_key_range(self, key_lo: int, key_hi: int) -> set[int]:
        """Union of the chunk lists of keys in ``[key_lo, key_hi]``."""
        lo = bisect_left(self.sorted_keys, key_lo)
        hi = bisect_right(self.sorted_keys, key_hi)
        return {c for k in self.sorted_keys[lo:hi] for c in self.key_to_chunks[k]}

    def chunks_for_range(self, vid: int, key_lo: int, key_hi: int) -> list[int]:
        """Q2 plan: the version's chunks that hold a key in range."""
        return sorted(set(self.chunks_for_version(vid))
                      & self.chunks_for_key_range(key_lo, key_hi))

    def chunks_for_record(self, key: int, vid: int) -> list[int]:
        """Point plan: the version's chunks that hold ``key``."""
        return sorted(set(self.chunks_for_version(vid))
                      & set(self.chunks_for_key(key)))

    def sizes_bytes(self) -> dict:
        """Approximate in-memory footprint of each projection, counting 8
        bytes per stored id (adjacency-list representation, §2.4)."""
        v2c = sum(1 + len(v) for v in self.version_to_chunks.values()) * 8
        k2c = sum(1 + len(v) for v in self.key_to_chunks.values()) * 8
        return {"version_to_chunks": v2c, "key_to_chunks": k2c}


def _chunk_lists(df: pd.DataFrame, by: str) -> dict:
    """``by`` value -> sorted distinct chunks of its rows."""
    return {int(k): sorted(cs.tolist())
            for k, cs in df.groupby(by)["chunk"].unique().items()}


def chunk_map_df(membership: DataFrame, assignment: DataFrame) -> DataFrame:
    """Per-chunk slice of M: ``(chunk, vid, key, origin)``."""
    return (membership.join(assignment.select("key", "origin", "chunk"),
                            ["key", "origin"])
            .select("chunk", "vid", "key", "origin"))


def build_indexes(membership: DataFrame, assignment: DataFrame) -> IndexSet:
    """Build both lossy projections with two Spark aggregations."""
    cm = chunk_map_df(membership, assignment)
    v2c_rows = (cm.groupBy("vid")
                .agg(F.sort_array(F.collect_set("chunk")).alias("chunks"))
                .collect())
    k2c_rows = (assignment.groupBy("key")
                .agg(F.sort_array(F.collect_set("chunk")).alias("chunks"))
                .collect())
    bytes_rows = (assignment.groupBy("chunk")
                  .agg(F.sum("size").alias("bytes")).collect())
    return IndexSet(
        version_to_chunks={int(r["vid"]): [int(c) for c in r["chunks"]]
                           for r in v2c_rows},
        key_to_chunks={int(r["key"]): [int(c) for c in r["chunks"]]
                       for r in k2c_rows},
        chunk_bytes={int(r["chunk"]): int(r["bytes"]) for r in bytes_rows},
    )
