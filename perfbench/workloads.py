"""The benchmark workloads. Each is one client in a closed loop: the
next operation starts only after the previous one has returned and been
checked.

- ``query-b0s``: Q1/Q2/Q3/point through ``QueryEngine`` on a B0s store
  (read path);
- ``load-c0s-k5``: bulk loads of C0s with k=5 sub-chunks (write path);
- ``online-b1s``: 25-version online commits on B1s at 1 000 versions
  (partitioner per-call cost, no Spark). Not listed in BENCHMARK.json:
  on a shared 4-core host its single Python thread follows the host's
  load, and its median commit time moved by up to 30% between runs, more
  than any bound allows. The listed workloads still measure
  ``core.online``, in load-c0s-k5's traced run.

A workload returns a :class:`Run`; ``run.py`` turns it into metrics.
Spans are recorded around every call the benchmark makes into a layer.
"""
from __future__ import annotations

import os
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import pandas as pd

from checks import (Oracle, check_commit, check_fill, check_indexes,
                    check_placement, check_rows, check_subchunks, rows_of)
from harness import SparkCounter, Tracer, percentile

QUERY_KINDS = ("q1", "q2", "q3", "point")
P_D = 0.05      # payload change per update (Fig 10's knob), every payload dataset
N_NODES = 4     # simulated KVS servers


@dataclass(frozen=True)
class Config:
    dataset: str
    scale: float = 1.0
    payload: bool = False
    C: int = 10_000
    k: int = 1            # max sub-chunk size; 1 = record-level layout
    batch: int = 25       # versions per online commit
    warmup: int = 1       # untimed operations before the measured window
                          # (online-b1s: always one pass of the stream)
    setups: int = 1       # set-ups per run (median reported)


CONFIGS = {
    "query-b0s": Config("B0s", payload=True, k=1, warmup=3),
    "load-c0s-k5": Config("C0s", payload=True, k=5, warmup=2),
    "online-b1s": Config("B1s", scale=4.0, setups=3),
}

# Tiny versions of each workload for the harness self-tests.
SMOKE = {
    "query-b0s": Config("B0s", scale=0.1, payload=True, C=2_000, k=1, warmup=4),
    "load-c0s-k5": Config("C0s", scale=0.1, payload=True, C=1_000, k=5, warmup=1),
    "online-b1s": Config("B1s", scale=0.2, C=1_000, batch=5, setups=2),
}


@dataclass
class Run:
    setup_s: list = field(default_factory=list)     # one entry per set-up
    warmup_s: list = field(default_factory=list)    # untimed operations
    ops: list = field(default_factory=list)         # measured operations
    failures: list = field(default_factory=list)    # check messages
    sizes: dict = field(default_factory=dict)
    layout: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)       # per-layer counts/ratios
    extra: dict = field(default_factory=dict)       # report-only figures


# --------------------------------------------------------------------------
# Shared pieces


def _generate(cfg: Config, tr: Tracer):
    from repro.versioned.datasets import make
    with tr.span("versioned.generator"):
        return make(cfg.dataset, scale=cfg.scale, with_payload=cfg.payload, p_d=P_D)


def layout_stats(membership: pd.DataFrame, rec_chunk: pd.DataFrame,
                 units: pd.DataFrame, C: int) -> dict:
    """Span and fill statistics of a record → chunk layout.

    ``units`` are the partitioner's items ``(size, chunk)`` — records, or
    sub-chunks with their compressed size.
    """
    spans = (membership.merge(rec_chunk[["key", "origin", "chunk"]],
                              on=["key", "origin"])
             .groupby("vid")["chunk"].nunique().to_numpy())
    fill = units.groupby("chunk")["size"].sum().to_numpy() / C
    return {"total_version_span": int(spans.sum()),
            "n_chunks": int(rec_chunk["chunk"].nunique()),
            "layout.fill_mean_over_C": float(fill.mean()),
            "layout.fill_max_over_C": float(fill.max()),
            "layout.span_p50": percentile(spans.tolist(), 50),
            "layout.span_p95": percentile(spans.tolist(), 95),
            "layout.span_max": float(spans.max())}


@dataclass
class Loaded:
    store: object
    idx: object
    mem_rows: int
    rec_chunk: pd.DataFrame   # key, origin, size, chunk
    units: pd.DataFrame       # partitioner items: size, chunk
    sc_sizes: pd.DataFrame | None


def bulk_load(spark, ds, cfg: Config, path: Path, tr: Tracer) -> tuple[Loaded, pd.DataFrame]:
    """Generated inputs → queryable ``ChunkStore`` at ``path``.

    Returns the load and the pandas membership (used by the checks).
    With ``cfg.k == 1`` records are partitioned directly (no sub-chunks,
    §2.5); otherwise Algorithm 5 sub-chunks are partitioned.
    """
    from repro.core.bottom_up import bottom_up_partition
    from repro.core.indexes import build_indexes, chunk_map_df
    from repro.core.span import assignment_df
    from repro.core.subchunks import build_subchunks, compress_subchunks, sc_dataset
    from repro.kvs.store import ChunkStore
    from repro.versioned.membership import membership_pd, membership_spark

    g = ds.graph
    rdf = ds.spark_records(spark)
    with tr.span("versioned.membership.spark"):
        mem_s = membership_spark(spark, g, rdf, ds.spark_kills(spark)).cache()
        mem_rows = mem_s.count()
    with tr.span("versioned.membership.pd"):
        mem_p = membership_pd(g, ds.records, ds.kills)
    sc_sizes = None
    if cfg.k == 1:
        with tr.span("core.bottom_up"):
            rec_chunk = bottom_up_partition(g, ds.records, ds.kills, cfg.C)
        units = rec_chunk
    else:
        with tr.span("core.subchunks.build"):
            sc = build_subchunks(g, ds.records, cfg.k)
        with tr.span("core.subchunks.compress"):
            sc_sizes = compress_subchunks(ds.records, sc, g.depths())
        with tr.span("core.subchunks.sc_dataset"):
            sc_rec, sc_kill, _ = sc_dataset(g, mem_p, sc, sc_sizes)
        with tr.span("core.bottom_up"):
            units = bottom_up_partition(g, sc_rec, sc_kill, cfg.C)
        with tr.span("bench.assign"):
            chunk_of = units[["key", "chunk"]].rename(columns={"key": "sc"})
            rec_chunk = (sc.merge(chunk_of, on="sc")
                         .merge(ds.records[["key", "origin", "size"]],
                                on=["key", "origin"])
                         [["key", "origin", "size", "chunk"]])
    adf = assignment_df(spark, rec_chunk)
    with tr.span("core.indexes.build"):
        idx = build_indexes(mem_s, adf)
    store = ChunkStore(path, n_nodes=N_NODES)
    with tr.span("kvs.store.write"):
        store.write(rdf.join(adf.select("key", "origin", "chunk"), ["key", "origin"]),
                    chunk_map_df(mem_s, adf))
    mem_s.unpersist()
    return Loaded(store, idx, mem_rows, rec_chunk, units, sc_sizes), mem_p


def check_load(ds, cfg: Config, ld: Loaded, mem_p: pd.DataFrame) -> list[str]:
    errs = check_placement(ds.records, ld.rec_chunk)
    errs += check_fill(ld.units, cfg.C)
    if ld.sc_sizes is not None:
        errs += check_subchunks(ld.sc_sizes, cfg.k)
    errs += check_indexes(ld.idx, mem_p, ld.rec_chunk)
    on_disk = {int(p.name.split("=", 1)[1])
               for p in Path(ld.store.records_path).glob("chunk=*")}
    if on_disk != set(ld.rec_chunk["chunk"].astype(int)):
        errs.append(f"store: {len(on_disk)} chunk partitions on disk, "
                    f"{ld.rec_chunk['chunk'].nunique()} in the layout")
    return errs


def store_stats(ld: Loaded, unique_bytes: int) -> dict:
    """Size of the record files on disk (Parquet data files, without
    checksums or markers) against the user's record bytes."""
    files = [Path(d) / f for d, _, fs in os.walk(ld.store.records_path)
             for f in fs if not f.startswith((".", "_"))]
    disk = sum(f.stat().st_size for f in files)
    return {"store.files": len(files), "store.disk_bytes": disk,
            "store.bytes_per_user_byte": disk / unique_bytes}


def spark_layer(counter: SparkCounter, ops: list, label: str) -> dict:
    """Mean Spark jobs/tasks per operation and the JVM heap peak."""
    n = len(ops)
    return {f"spark.jobs_per_{label}": sum(o["jobs"] for o in ops) / n,
            f"spark.tasks_per_{label}": sum(o["tasks"] for o in ops) / n,
            "spark.jvm_hwm_mb": counter.jvm_heap_peak_mb()}


# --------------------------------------------------------------------------
# query-b0s


def _query_ops(rng: random.Random, oracle: Oracle):
    """Endless seeded stream of ``(kind, args)``: an equal mix, shuffled in
    blocks of four so every kind recurs at a steady rate."""
    kinds = list(QUERY_KINDS)
    max_key = int(oracle.keys.max())
    width = max(1, (max_key + 1) // 10)
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            vid = rng.randrange(oracle.n_versions)
            if kind == "q1":
                yield kind, (vid,)
            elif kind == "q2":
                lo = rng.randrange(max_key + 2 - width)
                yield kind, (vid, lo, lo + width - 1)
            elif kind == "q3":
                yield kind, (int(oracle.keys[rng.randrange(len(oracle.keys))]),)
            else:
                keys = oracle.version_keys(vid)
                yield kind, (int(keys[rng.randrange(len(keys))]), vid)


def _chunk_ids(idx, kind: str, args) -> list[int]:
    """Chunk ids a query fetches, from the lossy projections (§2.4)."""
    if kind == "q1":
        return idx.chunks_for_version(args[0])
    if kind == "q3":
        return idx.chunks_for_key(args[0])
    if kind == "point":
        key, vid = args
        return sorted(set(idx.chunks_for_version(vid)) & set(idx.chunks_for_key(key)))
    vid, lo, hi = args
    keyed = {c for k, cs in idx.key_to_chunks.items() if lo <= k <= hi for c in cs}
    return sorted(set(idx.chunks_for_version(vid)) & keyed)


def query_b0s(spark, cfg: Config, seed: int, seconds: float, tr: Tracer,
              work: Path) -> Run:
    from repro.core.query import QueryEngine
    from repro.kvs.store import ChunkStore

    run = Run()
    counter = SparkCounter(spark) if tr.enabled else None
    t0 = time.perf_counter()
    ds = _generate(cfg, tr)
    ld, mem_p = bulk_load(spark, ds, cfg, work / "store", tr)
    run.failures += check_load(ds, cfg, ld, mem_p)
    oracle = Oracle(ds.records, mem_p)
    engine = QueryEngine(spark, ld.store, ld.idx)
    call = {"q1": engine.full_version, "q2": engine.range_query,
            "q3": engine.record_evolution, "point": engine.record}
    probe = ChunkStore(ld.store.path, n_nodes=N_NODES)
    want = {"q1": oracle.q1, "q2": oracle.q2, "q3": oracle.q3, "point": oracle.point}

    def one(kind, args, op_id):
        tr.op = op_id
        with (counter.group(kind) if counter else nullcontext()) as sp, \
                tr.span(f"op.query.{kind}"):
            a = time.perf_counter()
            with tr.span(f"core.query.{kind}.plan"):
                df, stats = call[kind](*args)
            b = time.perf_counter()
            with tr.span(f"core.query.{kind}.exec"):
                out = df.toPandas()
            c = time.perf_counter()
        got = rows_of(out)
        errs = check_rows(f"{kind}{args}", got, want[kind](*args))
        op = {"kind": kind, "s": c - a, "plan_s": b - a, "exec_s": c - b,
              "ok": not errs, "span": stats.span, "bytes": stats.bytes,
              "sim_s": stats.sim_time_s}
        if counter:
            # The store's share, timed apart from the query: the same
            # chunk ids fetched and materialised through a second handle
            # so the measured store's traffic counters stay untouched.
            op.update(jobs=sp["jobs"], tasks=sp["tasks"])
            ids = _chunk_ids(ld.idx, kind, args)
            with tr.span("kvs.store.get"):
                probe.get_chunks(spark, ids).toPandas()
                probe.get_chunk_maps(spark, ids).toPandas()
        tr.op = None
        return op, errs

    # Warm-up: untimed queries, part of set-up.
    warm = _query_ops(random.Random(f"warmup-{seed}"), oracle)
    for i in range(cfg.warmup):
        kind, args = next(warm)
        op, errs = one(kind, args, -1 - i)
        run.warmup_s.append(op["s"])
        run.failures += errs
    run.setup_s.append(time.perf_counter() - t0)

    ld.store.reset_stats()
    stream = _query_ops(random.Random(seed), oracle)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        kind, args = next(stream)
        op, errs = one(kind, args, len(run.ops))
        run.ops.append(op)
        run.failures += errs

    n = len(run.ops)
    st = ld.store.stats
    per_node = [st.per_node_requests.get(i, 0) for i in range(N_NODES)]
    mean_node = sum(per_node) / N_NODES
    sizes = ld.idx.sizes_bytes()
    run.sizes = {"versions": ds.graph.n, "unique_records": ds.n_unique,
                 "membership_rows": ld.mem_rows,
                 "chunks": int(ld.rec_chunk["chunk"].nunique())}
    run.layout = layout_stats(mem_p, ld.rec_chunk, ld.units, cfg.C)
    run.layer = {"membership.rows": ld.mem_rows,
                 "bottom_up.records": len(ld.units),
                 "indexes.v2c_bytes": sizes["version_to_chunks"],
                 "indexes.k2c_bytes": sizes["key_to_chunks"],
                 "store.requests_per_query": st.n_requests / n,
                 "store.bytes_per_query": st.n_bytes / n,
                 "store.node_skew": max(per_node) / mean_node if mean_node else 0.0,
                 **store_stats(ld, ds.unique_bytes)}
    if counter:
        run.layer.update(spark_layer(counter, run.ops, "query"))
    for kind in QUERY_KINDS:
        mine = [o for o in run.ops if o["kind"] == kind]
        if not mine:
            continue
        wall = percentile([o["s"] for o in mine], 50)
        sim = percentile([o["sim_s"] for o in mine], 50)
        run.layer[f"cost.{kind}_sim_s"] = sim
        run.layer[f"cost.{kind}_wall_over_sim"] = wall / sim if sim else 0.0
        run.extra[f"{kind}_p50_s"] = wall
        run.extra[f"{kind}_n"] = len(mine)
    run.extra["query_span_mean"] = sum(o["span"] for o in run.ops) / n
    run.extra["query_bytes_mean"] = sum(o["bytes"] for o in run.ops) / n
    run.extra["stored_bytes_per_user_byte"] = run.layer["store.bytes_per_user_byte"]
    shutil.rmtree(work / "store", ignore_errors=True)
    return run


# --------------------------------------------------------------------------
# load-c0s-k5


def load_c0s_k5(spark, cfg: Config, seed: int, seconds: float, tr: Tracer,
                work: Path) -> Run:
    run = Run()
    counter = SparkCounter(spark) if tr.enabled else None
    t0 = time.perf_counter()
    ds = _generate(cfg, tr)
    # A bulk load has no parameters for the seed to vary.
    last = None

    def one(op_id):
        tr.op = op_id
        path = work / f"load{op_id}"
        with (counter.group("load") if counter else nullcontext()) as sp, \
                tr.span("op.load"):
            a = time.perf_counter()
            ld, mem_p = bulk_load(spark, ds, cfg, path, tr)
            s = time.perf_counter() - a
        tr.op = None
        errs = check_load(ds, cfg, ld, mem_p)
        op = {"kind": "load", "s": s, "ok": not errs,
              "span": int(ld.rec_chunk["chunk"].nunique())}
        if sp is not None:
            op.update(jobs=sp["jobs"], tasks=sp["tasks"])
        return op, errs, ld, mem_p, path

    for i in range(cfg.warmup):
        op, errs, _, _, path = one(-1 - i)
        run.warmup_s.append(op["s"])
        run.failures += errs
        shutil.rmtree(path, ignore_errors=True)
    run.setup_s.append(time.perf_counter() - t0)

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op, errs, ld, mem_p, path = one(len(run.ops))
        run.ops.append(op)
        run.failures += errs
        if last is not None:
            shutil.rmtree(last[-1], ignore_errors=True)
        last = (ld, mem_p, path)

    ld, mem_p, path = last
    cs = ld.sc_sizes
    run.sizes = {"versions": ds.graph.n, "unique_records": ds.n_unique,
                 "membership_rows": ld.mem_rows,
                 "chunks": int(ld.rec_chunk["chunk"].nunique())}
    run.layout = layout_stats(mem_p, ld.rec_chunk, ld.units, cfg.C)
    sizes = ld.idx.sizes_bytes()
    run.layer = {"membership.rows": ld.mem_rows,
                 "subchunks.count": len(cs),
                 "subchunks.compression_ratio":
                     float(cs["raw_bytes"].sum() / cs["comp_bytes"].sum()),
                 "bottom_up.records": len(ld.units),
                 "indexes.v2c_bytes": sizes["version_to_chunks"],
                 "indexes.k2c_bytes": sizes["key_to_chunks"],
                 **store_stats(ld, ds.unique_bytes)}
    if counter:
        run.layer.update(spark_layer(counter, run.ops, "load"))
        # The same inputs ingested online instead, untimed: this is where
        # the core.online layer is measured among the gated workloads.
        layout, commits = replay(ds, cfg, tr, run)
        run.layer.update(online_layer(ds, cfg, mem_p, layout, commits, tr))
    run.extra["load_s"] = percentile([o["s"] for o in run.ops], 50)
    run.extra["stored_bytes_per_user_byte"] = run.layer["store.bytes_per_user_byte"]
    shutil.rmtree(path, ignore_errors=True)
    return run


# --------------------------------------------------------------------------
# Online ingest: the online-b1s workload, and the core.online layer of
# load-c0s-k5's traced run


def _commit(ds, cfg: Config, b: int, start: int, tr: Tracer, op_id):
    """Commit batch ``b`` (versions [b·batch, (b+1)·batch)) with fresh
    chunk ids from ``start``; returns ``(op, errors, placements, next id)``."""
    from repro.core.online import partition_batch
    g = ds.graph
    lo, hi = b * cfg.batch, min(g.n, (b + 1) * cfg.batch)
    tr.op = op_id
    with tr.span("op.commit"):
        a = time.perf_counter()
        with tr.span("core.online.partition_batch"):
            part = partition_batch(g, ds.records, ds.kills, lo, hi, cfg.C, start)
        s = time.perf_counter() - a
    tr.op = None
    errs = check_commit(part, ds.records, lo, hi, start, cfg.C)
    nxt = int(part["chunk"].max()) + 1 if len(part) else start
    return ({"kind": "commit", "s": s, "ok": not errs, "span": nxt - start,
             "records": len(part)}, errs, part, nxt)


def replay(ds, cfg: Config, tr: Tracer, run: Run, op_base: int | None = None):
    """Commit the whole version stream once, from an empty layout.

    Returns the online layout and the commit ops; failed checks go to
    ``run.failures``. ``op_base`` numbers the commits' spans downwards
    from it (warm-up); ``None`` leaves them untagged.
    """
    ops, parts, nxt = [], [], 0
    for b in range(-(-ds.graph.n // cfg.batch)):
        op_id = None if op_base is None else op_base - b
        op, errs, part, nxt = _commit(ds, cfg, b, nxt, tr, op_id)
        ops.append(op)
        parts.append(part)
        run.failures += errs
    layout = pd.concat(parts, ignore_index=True)
    run.failures += check_placement(ds.records, layout)
    return layout, ops


def online_layer(ds, cfg: Config, mem_p: pd.DataFrame, layout: pd.DataFrame,
                 ops: list, tr: Tracer) -> dict:
    """core.online per-layer metrics for one pass of the stream. The
    offline ratio is Fig 13's at the final boundary: online span over
    the span of one offline BOTTOM-UP run on all versions."""
    from repro.core.bottom_up import bottom_up_partition
    from repro.core.span import total_version_span_pd
    with tr.span("core.bottom_up"):
        offline = bottom_up_partition(ds.graph, ds.records, ds.kills, cfg.C)
    return {"online.records_per_commit": sum(o["records"] for o in ops) / len(ops),
            "online.new_chunks_per_commit": sum(o["span"] for o in ops) / len(ops),
            "online.offline_span_ratio": (total_version_span_pd(mem_p, layout)
                                          / total_version_span_pd(mem_p, offline))}


def online_b1s(spark, cfg: Config, seed: int, seconds: float, tr: Tracer,
               work: Path) -> Run:
    from repro.versioned.membership import membership_pd

    run = Run()
    # Set-up: generate, then replay the whole stream once, untimed (the
    # warm-up, and the layout the workload reports). Repeated
    # ``cfg.setups`` times; the last set-up's dataset and layout are used.
    for _ in range(cfg.setups):
        t0 = time.perf_counter()
        ds = _generate(cfg, tr)
        layout, warm = replay(ds, cfg, tr, run, op_base=-1)
        run.warmup_s += [o["s"] for o in warm]
        run.setup_s.append(time.perf_counter() - t0)

    # Measured window: the stream from a seeded starting batch, replayed
    # from an empty layout whenever it ends.
    n_batches = len(warm)
    b = random.Random(seed).randrange(n_batches)
    nxt = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if b == n_batches:
            b, nxt = 0, 0
        op, errs, _, nxt = _commit(ds, cfg, b, nxt, tr, len(run.ops))
        run.ops.append(op)
        run.failures += errs
        b += 1

    with tr.span("versioned.membership.pd"):
        mem_p = membership_pd(ds.graph, ds.records, ds.kills)
    run.sizes = {"versions": ds.graph.n, "unique_records": ds.n_unique,
                 "membership_rows": len(mem_p),
                 "chunks": int(layout["chunk"].nunique())}
    run.layout = layout_stats(mem_p, layout, layout, cfg.C)
    run.layer = {"membership.rows": len(mem_p), "bottom_up.records": len(layout)}
    if tr.enabled:
        run.layer.update(online_layer(ds, cfg, mem_p, layout, warm, tr))
    run.extra["commit_p50_s"] = percentile([o["s"] for o in run.ops], 50)
    run.extra["commit_p90_s"] = percentile([o["s"] for o in run.ops], 90)
    return run


WORKLOADS = {"query-b0s": query_b0s, "load-c0s-k5": load_c0s_k5,
             "online-b1s": online_b1s}
NEEDS_SPARK = {"query-b0s", "load-c0s-k5"}
