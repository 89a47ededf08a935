"""Online partitioning (§4).

New versions' deltas accumulate in a *delta store*; every ``batch_size``
versions the batch is partitioned and appended — already-placed records
are never repartitioned. Each batch forms a forest grafted onto the
existing tree: we wrap it under a virtual root and run BOTTOM-UP on the
batch alone (kills of pre-batch records are irrelevant to placing the
batch's new records and are filtered out).

Fig 13's quality metric: total version span of the online layout over the
first ``t`` versions, divided by the span of an offline BOTTOM-UP run on
the same prefix.
"""
from __future__ import annotations

import pandas as pd

from ..versioned.graph import VersionGraph
from .bottom_up import bottom_up_partition
from .span import total_version_span_pd


def _batch_graph(graph: VersionGraph, lo: int, hi: int):
    """Wrap versions [lo, hi) as a forest under a virtual root.

    Returns ``(batch_graph, to_orig)`` where batch node ``i>0`` is
    original version ``to_orig[i]`` and node 0 is the virtual root.
    """
    vids = list(range(lo, hi))
    to_batch = {v: i + 1 for i, v in enumerate(vids)}
    parent: list = [None]
    for v in vids:
        p = graph.parent[v]
        parent.append(to_batch[p] if (p is not None and p >= lo) else 0)
    return VersionGraph(parent), {i + 1: v for i, v in enumerate(vids)}


def partition_batch(graph: VersionGraph, records: pd.DataFrame,
                    kills: pd.DataFrame, lo: int, hi: int, C: int,
                    start_chunk: int, *, beta: int | None = None) -> pd.DataFrame:
    """BOTTOM-UP over one ingest batch; fresh chunk ids from start_chunk."""
    bg, to_orig = _batch_graph(graph, lo, hi)
    to_batch = {v: b for b, v in to_orig.items()}
    br = records[(records["origin"] >= lo) & (records["origin"] < hi)].copy()
    bk = kills[(kills["origin"] >= lo) & (kills["origin"] < hi)
               & (kills["kill_vid"] >= lo) & (kills["kill_vid"] < hi)].copy()
    if br.empty:
        return pd.DataFrame({"key": pd.Series(dtype="int64"),
                             "origin": pd.Series(dtype="int64"),
                             "size": pd.Series(dtype="int64"),
                             "chunk": pd.Series(dtype="int64")})
    br["origin"] = br["origin"].map(to_batch)
    bk["origin"] = bk["origin"].map(to_batch)
    bk["kill_vid"] = bk["kill_vid"].map(to_batch)
    out = bottom_up_partition(bg, br, bk, C, beta=beta, start_chunk=start_chunk)
    out["origin"] = out["origin"].map(to_orig)
    return out


def online_partition(graph: VersionGraph, records: pd.DataFrame,
                     kills: pd.DataFrame, C: int, batch_size: int,
                     checkpoints: list[int] | None = None,
                     *, beta: int | None = None):
    """Run the online pipeline over the whole version sequence.

    Returns ``(assignment, snapshots)``: the final assignment, and for
    every checkpoint ``t`` (a batch boundary) the assignment restricted
    to versions < t.
    """
    checkpoints = sorted(set(checkpoints or [])) or [graph.n]
    boundaries = list(range(batch_size, graph.n, batch_size)) + [graph.n]
    parts: list[pd.DataFrame] = []
    snapshots: dict[int, pd.DataFrame] = {}
    next_chunk = 0
    lo = 0
    for hi in boundaries:
        part = partition_batch(graph, records, kills, lo, hi, C, next_chunk,
                               beta=beta)
        if len(part):
            next_chunk = int(part["chunk"].max()) + 1
        parts.append(part)
        for t in checkpoints:
            if lo < t <= hi:
                # Checkpoint inside/at this batch boundary: snapshot what
                # is partitioned so far (only whole batches are placed).
                snap = pd.concat(parts, ignore_index=True)
                snapshots[t] = snap[snap["origin"] < t].reset_index(drop=True)
        lo = hi
    assignment = pd.concat(parts, ignore_index=True)
    return assignment, snapshots


def quality_ratio(graph: VersionGraph, records: pd.DataFrame,
                  kills: pd.DataFrame, membership: pd.DataFrame, C: int,
                  batch_size: int, checkpoints: list[int]) -> dict[int, float]:
    """Fig 13: online span / offline span at each checkpoint.

    Checkpoints that are not batch boundaries are skipped (the paper's
    '-' cells). ``membership`` is the record-level membership (pandas).
    """
    valid = [t for t in checkpoints
             if t % batch_size == 0 or t == graph.n]
    _, snapshots = online_partition(graph, records, kills, C, batch_size,
                                    checkpoints=valid)
    out: dict[int, float] = {}
    for t in valid:
        mem_t = membership[membership["vid"] < t]
        online_span = total_version_span_pd(mem_t, snapshots[t])
        prefix = VersionGraph(list(graph.parent[:t]))
        rec_t = records[records["origin"] < t]
        kill_t = kills[kills["kill_vid"] < t]
        offline = bottom_up_partition(prefix, rec_t, kill_t, C)
        offline_span = total_version_span_pd(mem_t, offline)
        out[t] = online_span / max(1, offline_span)
    return out

