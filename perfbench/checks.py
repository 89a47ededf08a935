"""Output checks. Each returns a list of failure messages (empty = ok);
the workloads count an operation as failed when any check on it fails.

The expected answers are derived from ``membership_pd`` and the
generated records, never from the code under test's own indexes.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

OVERFLOW = 1.25  # §2.5: a chunk may exceed C by 25% unless it is one oversize item


class Oracle:
    """Expected query answers from the record-level membership."""

    def __init__(self, records: pd.DataFrame, membership: pd.DataFrame):
        m = membership.sort_values(["vid", "key"], kind="mergesort")
        self._vid = m["vid"].to_numpy()
        self._key = m["key"].to_numpy()
        self._origin = m["origin"].to_numpy()
        self.n_versions = int(self._vid.max()) + 1
        bounds = np.searchsorted(self._vid, np.arange(self.n_versions + 1))
        self._lo, self._hi = bounds[:-1], bounds[1:]
        rec = records.sort_values(["key", "origin"], kind="mergesort")
        self._rows = {(int(k), int(o)): (int(s), p) for k, o, s, p in zip(
            rec["key"], rec["origin"], rec["size"], rec["payload"])}
        self.keys = np.unique(rec["key"].to_numpy())
        self._by_key: dict[int, list[int]] = {}
        for k, o in zip(rec["key"], rec["origin"]):
            self._by_key.setdefault(int(k), []).append(int(o))

    def version_keys(self, vid: int) -> np.ndarray:
        return self._key[self._lo[vid]:self._hi[vid]]

    def _rows_of(self, pairs) -> list[tuple]:
        return sorted((k, o, *self._rows[(k, o)]) for k, o in pairs)

    def q1(self, vid: int) -> list[tuple]:
        s = slice(self._lo[vid], self._hi[vid])
        return self._rows_of(zip(self._key[s].tolist(), self._origin[s].tolist()))

    def q2(self, vid: int, lo: int, hi: int) -> list[tuple]:
        s = slice(self._lo[vid], self._hi[vid])
        keys, origins = self._key[s], self._origin[s]
        sel = (keys >= lo) & (keys <= hi)
        return self._rows_of(zip(keys[sel].tolist(), origins[sel].tolist()))

    def q3(self, key: int) -> list[tuple]:
        return self._rows_of((key, o) for o in self._by_key.get(key, []))

    def point(self, key: int, vid: int) -> list[tuple]:
        s = slice(self._lo[vid], self._hi[vid])
        sel = self._key[s] == key
        return self._rows_of(zip(self._key[s][sel].tolist(),
                                 self._origin[s][sel].tolist()))


def rows_of(df: pd.DataFrame) -> list[tuple]:
    return sorted(zip(df["key"].astype(int).tolist(), df["origin"].astype(int).tolist(),
                      df["size"].astype(int).tolist(), df["payload"].tolist()))


def check_rows(label: str, got: list[tuple], want: list[tuple]) -> list[str]:
    if got == want:
        return []
    return [f"{label}: {len(got)} rows returned, {len(want)} expected"]


def check_placement(records: pd.DataFrame, rec_chunk: pd.DataFrame) -> list[str]:
    """Every record is placed exactly once."""
    errs = []
    placed = rec_chunk[["key", "origin"]]
    dup = int(placed.duplicated().sum())
    if dup:
        errs.append(f"placement: {dup} records placed more than once")
    want = set(zip(records["key"].tolist(), records["origin"].tolist()))
    got = set(zip(placed["key"].tolist(), placed["origin"].tolist()))
    if got != want:
        errs.append(f"placement: {len(want - got)} records unplaced, "
                    f"{len(got - want)} unknown records placed")
    return errs


def check_fill(items: pd.DataFrame, C: int) -> list[str]:
    """Chunk fill ≤ 1.25·C unless the chunk is one oversize item.

    ``items``: the partitioner's input units ``(size, chunk)``.
    """
    g = items.groupby("chunk")["size"].agg(["sum", "count"])
    bad = g[(g["sum"] > OVERFLOW * C) & (g["count"] > 1)]
    if len(bad):
        return [f"fill: {len(bad)} chunks over {OVERFLOW}·C "
                f"(max {int(bad['sum'].max())} bytes, C={C})"]
    return []


def check_subchunks(sc_sizes: pd.DataFrame, k: int) -> list[str]:
    over = int((sc_sizes["n_members"] > k).sum())
    return [f"subchunks: {over} sub-chunks exceed k={k}"] if over else []


def check_indexes(idx, membership: pd.DataFrame, rec_chunk: pd.DataFrame) -> list[str]:
    """Index lists equal those recomputed from the assignment."""
    errs = []
    m = membership.merge(rec_chunk[["key", "origin", "chunk"]], on=["key", "origin"])
    v2c = {int(v): sorted(set(c.tolist())) for v, c in m.groupby("vid")["chunk"]}
    k2c = {int(k): sorted(set(c.tolist())) for k, c in rec_chunk.groupby("key")["chunk"]}
    cb = {int(c): int(b) for c, b in rec_chunk.groupby("chunk")["size"].sum().items()}
    for name, got, want in (("version_to_chunks", idx.version_to_chunks, v2c),
                            ("key_to_chunks", idx.key_to_chunks, k2c),
                            ("chunk_bytes", idx.chunk_bytes, cb)):
        if {int(a): b for a, b in got.items()} != want:
            errs.append(f"indexes: {name} differs from the assignment")
    return errs


def check_commit(part: pd.DataFrame, records: pd.DataFrame, lo: int, hi: int,
                 start_chunk: int, C: int) -> list[str]:
    """An online commit places exactly the batch's new records, each once,
    into fresh chunks; nothing placed earlier (origin < lo) moves."""
    errs = []
    n_new = int(((records["origin"] >= lo) & (records["origin"] < hi)).sum())
    if len(part) != n_new or part[["key", "origin"]].duplicated().any():
        errs.append(f"commit [{lo},{hi}): {len(part)} placements for {n_new} new records")
    if len(part) and not part["origin"].between(lo, hi - 1).all():
        errs.append(f"commit [{lo},{hi}): moved a record placed by an earlier commit")
    if len(part) and int(part["chunk"].min()) < start_chunk:
        errs.append(f"commit [{lo},{hi}): reused a chunk id below {start_chunk}")
    return errs + check_fill(part, C)
