"""Baseline layouts (§2.2) and their span evaluation.

- SINGLE-ADDRESS: one record per KVS key (chunk == record).
- RANDOM: records shuffled into fixed-size chunks — the §2.3 experiment's
  layout, and the 'Independent w/chunking' row of Table 1.
- SUBCHUNK: all records of a primary key in one (compressed) group; the
  generic membership span applies (span of V = #keys in V).
- DELTA: each version's delta packed into its own chunk(s). A version is
  reconstructed by fetching every delta on its root path, so the generic
  membership span does NOT apply; :func:`delta_version_spans` charges the
  full path.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .chunking import pack_ordered


def single_address_partition(records: pd.DataFrame) -> pd.DataFrame:
    """One chunk per record (the composite-key address space)."""
    df = records[["key", "origin", "size"]].copy().reset_index(drop=True)
    df["chunk"] = np.arange(len(df), dtype=np.int64)
    return df


def random_partition(records: pd.DataFrame, C: int, *,
                     seed: int = 0) -> pd.DataFrame:
    """Records shuffled uniformly into ~C-byte chunks (§2.3)."""
    g = np.random.default_rng(seed)
    df = records[["key", "origin", "size"]].copy().reset_index(drop=True)
    perm = g.permutation(len(df))
    df = df.iloc[perm].reset_index(drop=True)
    ids, _ = pack_ordered(df["size"].to_numpy(), C)
    df["chunk"] = ids
    return df


def subchunk_partition(records: pd.DataFrame) -> pd.DataFrame:
    """All records of one primary key in one chunk keyed by the key."""
    df = records[["key", "origin", "size"]].copy()
    df["chunk"] = df["key"].astype(np.int64)
    return df


def delta_partition(graph, records: pd.DataFrame, C: int) -> pd.DataFrame:
    """Each version's Δ⁺ packed into per-version chunks (≥1 each).

    Chunk ids are disjoint across versions; the mapping version → its
    chunks is recoverable from the assignment (chunks never mix origins).
    """
    parts = []
    next_chunk = 0
    for origin, grp in records.groupby("origin", sort=True):
        g = grp[["key", "origin", "size"]].sort_values("key").reset_index(drop=True)
        ids, next_chunk = pack_ordered(g["size"].to_numpy(), C,
                                       start_chunk=next_chunk)
        g["chunk"] = ids
        parts.append(g)
    return pd.concat(parts, ignore_index=True)


def delta_version_spans(graph, assignment: pd.DataFrame) -> pd.Series:
    """Span of each version under DELTA = Σ chunks over its root path.

    Versions whose delta is empty (possible for tiny test datasets)
    contribute 0 chunks of their own but still require their ancestors'.
    """
    per_version = (assignment.groupby("origin")["chunk"].nunique()
                   .reindex(range(graph.n), fill_value=0).to_numpy())
    spans = np.zeros(graph.n, dtype=np.int64)
    for v in range(graph.n):
        p = graph.parent[v]
        spans[v] = per_version[v] + (spans[p] if p is not None else 0)
    return pd.Series(spans, index=pd.RangeIndex(graph.n, name="vid"),
                     name="span")


def delta_total_span(graph, assignment: pd.DataFrame) -> int:
    return int(delta_version_spans(graph, assignment).sum())
