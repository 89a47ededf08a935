"""SHINGLE partitioning (§3.1, Algorithms 1–2) — pure Spark.

For every record, ``l`` min-hashes are computed over the set of versions
it belongs to (``min over versions of xxhash64(i, vid)`` for hash
function ``i``). Records are sorted lexicographically by their shingle
vector — placing records whose version sets overlap heavily next to each
other — and packed into fixed-size chunks by a running byte-sum window.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .chunking import pack_window


def shingle_partition(membership: DataFrame, C: int, *, l: int = 4,
                      seed: int = 42) -> DataFrame:
    """Return the assignment ``(key, origin, size, chunk)``.

    ``membership`` is the ``(vid, key, origin, size)`` relation from
    :func:`repro.versioned.membership.membership_spark`. Every record
    appears in at least one version (its origin), so no record is lost.
    """
    if l < 1:
        raise ValueError("need at least one hash function")
    aggs = [F.min(F.xxhash64(F.lit(seed), F.lit(i), F.col("vid"))).alias(f"sh{i}")
            for i in range(l)]
    shingles = (membership.groupBy("key", "origin")
                .agg(F.first("size").alias("size"), *aggs))
    order = [F.col(f"sh{i}") for i in range(l)] + [F.col("key"), F.col("origin")]
    packed = pack_window(shingles, C, order)
    return packed.select("key", "origin", "size", "chunk")


def shingle_subchunks(spark: SparkSession, sc_records: pd.DataFrame,
                      sc_region: pd.DataFrame, C: int) -> pd.DataFrame:
    """SHINGLE over Algorithm 5 sub-chunks (``sc_dataset``'s records and
    exact regions): each sub-chunk is one record ``(key=sc, origin=0)``
    in exactly the versions of its region. Returns the assignment
    ``(key, origin, size, chunk)`` as a pandas frame, like the other
    partitioners.
    """
    reg = sc_region.merge(
        sc_records.rename(columns={"key": "sc"})[["sc", "size"]],
        on="sc").rename(columns={"sc": "key"})
    reg["origin"] = 0
    membership = spark.createDataFrame(reg[["vid", "key", "origin", "size"]])
    return shingle_partition(membership, C).toPandas()
