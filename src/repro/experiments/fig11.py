"""Fig 11 (as tables): query-processing performance for Q1 (full
version), Q2 (partial version) and Q3 (record evolution), per algorithm
and max sub-chunk size k, plus the SUBCHUNK and DELTA baselines.

Each layout is indexed with :meth:`IndexSet.from_layout` and every query
is charged on the plan :class:`~repro.core.query.QueryEngine` runs: the
planner's chunk ids priced by :func:`~repro.core.query.query_stats` under
the calibrated QUERY cost model (requests + bytes + sequential per-chunk
processing — the dominant terms in the paper's measurements; DESIGN §2).
Q2 is index-ANDed, so it fetches every chunk of the version that holds
*some* key in range. Queries are drawn from a seeded random workload.
DELTA appears only at k=1 (no cross-version record compression); it
reconstructs versions along the root path, not through an index plan,
and its Q3 must reconstruct every version, which is why the paper calls
it impractical.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..core.baselines import (delta_partition, delta_version_spans,
                              subchunk_partition)
from ..core.bottom_up import bottom_up_partition
from ..core.indexes import IndexSet
from ..core.query import query_stats
from ..core.shingle import shingle_subchunks
from ..core.subchunks import build_subchunks, compress_subchunks, sc_dataset
from ..core.traversal import dfs_partition
from ..kvs.cost import QUERY_MODEL, CostModel
from ..versioned.datasets import make
from ..versioned.membership import membership_pd

K_VALUES = (1, 5, 20, 50)
N_QUERIES = 20


def _ranges(vids, max_key: pd.Series, rng) -> list[tuple]:
    """Q2 workload: a random 10%-of-keyspace range per queried version."""
    out = []
    for v in vids:
        top = max_key.loc[v]
        lo = rng.integers(0, max(1, int(top)))
        out.append((lo, lo + max(1, int(0.1 * top))))
    return out


def _mean_times(idx: IndexSet, vids, ranges, keys, model: CostModel) -> dict:
    """Average simulated Q1/Q2/Q3 times of the planner's plans."""
    def mean(plans) -> float:
        return float(np.mean([query_stats(ids, idx.chunk_bytes, model).sim_time_s
                              for ids in plans]))
    return {"q1_s": mean(idx.chunks_for_version(v) for v in vids),
            "q2_s": mean(idx.chunks_for_range(v, lo, hi)
                         for v, (lo, hi) in zip(vids, ranges)),
            "q3_s": mean(idx.chunks_for_key(k) for k in keys)}


def run_dataset(spark: SparkSession | None, name: str, *,
                scale: float = 1.0, C: int = 10_000, k_values=K_VALUES,
                model: CostModel = QUERY_MODEL, seed: int = 0) -> pd.DataFrame:
    rows = []
    ds = make(name, scale=scale, with_payload=True, p_d=0.05)
    g = ds.graph
    mem_p = membership_pd(g, ds.records, ds.kills)
    max_key = mem_p.groupby("vid")["key"].max()
    rng = np.random.default_rng(seed)

    for k in k_values:
        sc = build_subchunks(g, ds.records, k=k)
        cs = compress_subchunks(ds.records, sc, g.depths())
        screc, sckill, screg = sc_dataset(g, mem_p, sc, cs)
        algos = {
            "BOTTOMUP": bottom_up_partition(g, screc, sckill, C),
            "DEPTHFIRST": dfs_partition(g, screc, C),
        }
        if spark is not None:
            algos["SHINGLE"] = shingle_subchunks(spark, screc, screg, C)
        for algo, asg in algos.items():
            rec_assign = sc.merge(
                asg.rename(columns={"key": "sc"})[["sc", "chunk"]], on="sc")
            idx = IndexSet.from_layout(mem_p, rec_assign, asg)
            vids = rng.choice(mem_p["vid"].unique(), N_QUERIES)
            keys = rng.choice(mem_p["key"].unique(), N_QUERIES)
            rows.append({"dataset": name, "k": k, "algorithm": algo,
                         **_mean_times(idx, vids, _ranges(vids, max_key, rng),
                                       keys, model)})

    # DELTA (k=1 only): Q1 walks the root path; Q2 == Q1 + filter; Q3
    # reconstructs all versions (impractical).
    d_asg = delta_partition(g, ds.records, C)
    spans = delta_version_spans(g, d_asg)
    delta_bytes = d_asg.groupby("origin")["size"].sum().reindex(
        range(g.n), fill_value=0)
    path_bytes = {}
    for v in range(g.n):
        p = g.parent[v]
        path_bytes[v] = int(delta_bytes.loc[v]) + (path_bytes[p] if p is not None else 0)
    vids = rng.choice(g.n, N_QUERIES)
    q1 = [model.retrieval_time(int(spans.loc[v]), path_bytes[v]) for v in vids]
    total_chunks = int(d_asg["chunk"].nunique())
    total_bytes = int(d_asg["size"].sum())
    q3 = model.retrieval_time(total_chunks, total_bytes)
    rows.append({"dataset": name, "k": 1, "algorithm": "DELTA",
                 "q1_s": float(np.mean(q1)), "q2_s": float(np.mean(q1)),
                 "q3_s": q3})

    # SUBCHUNK baseline: one compressed group per key, chunk = key, so the
    # index-ANDed Q2 fetches exactly the groups of in-range keys. It
    # reuses DELTA's versions; its ranges are drawn before its keys.
    key_bytes = compress_subchunks(
        ds.records, ds.records[["key", "origin"]].assign(
            sc=ds.records["key"]), g.depths())
    idx = IndexSet.from_layout(
        mem_p, subchunk_partition(ds.records),
        key_bytes.rename(columns={"sc": "chunk", "comp_bytes": "size"}))
    ranges = _ranges(vids, max_key, rng)
    keys = rng.choice(ds.records["key"].unique(), N_QUERIES)
    rows.append({"dataset": name, "k": "all", "algorithm": "SUBCHUNK",
                 **_mean_times(idx, vids, ranges, keys, model)})
    return pd.DataFrame(rows)
