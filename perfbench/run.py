"""RStore benchmark: one workload, one closed-loop client, one JSON line.

    python3 perfbench/run.py --workload query-b0s --seed 1 --seconds 20 --trace 0

Run from the repository root. The program under test is imported from
``src/``; every file the run writes stays under ``perfbench/`` (the
store, Spark's scratch space, and ``perfbench/out/`` result files).

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` records spans around every call into a layer and reports
the per-layer metrics instead. The last stdout line is the result
object; the lines above it are the human report. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# End-to-end metrics (BENCHMARK.json "end_to_end"), every workload.
END_TO_END = [
    ("op_p50_s", "s"), ("op_p90_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("total_version_span", "chunks"), ("n_chunks", "chunks"),
]

# Per-layer metrics (BENCHMARK.json "per_layer"), the traced run. A
# layer a workload does not exercise reports 0. Times are the median
# self time of the layer's spans over the measured operations (over
# set-up when the workload calls the layer only there).
SPAN_METRICS = {
    "generate_s": "versioned.generator",
    "membership.spark_s": "versioned.membership.spark",
    "membership.pd_s": "versioned.membership.pd",
    "subchunks.build_s": "core.subchunks.build",
    "subchunks.compress_s": "core.subchunks.compress",
    "subchunks.sc_dataset_s": "core.subchunks.sc_dataset",
    "bottom_up.s": "core.bottom_up",
    "indexes.build_s": "core.indexes.build",
    "store.write_s": "kvs.store.write",
    "store.get_s": "kvs.store.get",
    "online.partition_batch_s": "core.online.partition_batch",
    **{f"query.{q}.{p}_s": f"core.query.{q}.{p}"
       for q in ("q1", "q2", "q3", "point") for p in ("plan", "exec")},
}
PER_LAYER = [(name, "s") for name in SPAN_METRICS] + [
    ("spark.jobs_per_query", "count"), ("spark.tasks_per_query", "count"),
    ("spark.jobs_per_load", "count"), ("spark.tasks_per_load", "count"),
    ("spark.jvm_hwm_mb", "MB"),
    ("store.requests_per_query", "count"), ("store.bytes_per_query", "bytes"),
    ("store.node_skew", "ratio"), ("store.files", "count"),
    ("store.disk_bytes", "bytes"), ("store.bytes_per_user_byte", "ratio"),
    *[(f"cost.{q}_{m}", u) for q in ("q1", "q2", "q3", "point")
      for m, u in (("sim_s", "s"), ("wall_over_sim", "ratio"))],
    ("indexes.v2c_bytes", "bytes"), ("indexes.k2c_bytes", "bytes"),
    ("membership.rows", "count"),
    ("subchunks.count", "count"), ("subchunks.compression_ratio", "ratio"),
    ("bottom_up.records", "count"),
    ("online.records_per_commit", "count"), ("online.new_chunks_per_commit", "count"),
    ("online.offline_span_ratio", "ratio"),
    ("layout.fill_mean_over_C", "ratio"), ("layout.fill_max_over_C", "ratio"),
    ("layout.span_p50", "chunks"), ("layout.span_p95", "chunks"),
    ("layout.span_max", "chunks"),
]

# Which end-to-end figure each layer should move, printed beside it.
MOVES = {
    "query.": "<q>_p50_s, op_p50_s, op_p90_s on query-b0s",
    "cost.": "<q>_p50_s on query-b0s (the cost-model gap)",
    "spark.jobs_per_query": "op_p50_s on query-b0s",
    "spark.tasks_per_query": "op_p50_s on query-b0s",
    "spark.": "op_p50_s on load-c0s-k5, setup_s",
    "store.get_s": "op_p50_s on query-b0s",
    "store.write_s": "op_p50_s on load-c0s-k5, setup_s on query-b0s",
    "store.": "query_bytes_mean on query-b0s; stored_bytes_per_user_byte on load-c0s-k5",
    "indexes.": "op_p50_s on load-c0s-k5; setup_s, peak_rss_mb on query-b0s",
    "membership.": "op_p50_s on load-c0s-k5; setup_s on query-b0s",
    "subchunks.": "op_p50_s, stored_bytes_per_user_byte on load-c0s-k5",
    "bottom_up.": "op_p50_s on load-c0s-k5; setup_s on query-b0s",
    "online.": "commit_p50_s on online-b1s (not in BENCHMARK.json); online layout quality",
    "generate_s": "setup_s on every workload",
    "layout.": "total_version_span, n_chunks; query span",
}


def moves(name: str) -> str:
    return next(v for k, v in MOVES.items() if name.startswith(k))


def spark_env(work: Path) -> None:
    """Spark settings that must be in place before the JVM launches:
    master ``local[k]`` with k ≤ nproc, the tier-1 driver-memory rule
    (half of RAM, clamped to 2–8 GiB), and scratch space under ``work``."""
    cores = min(4, len(os.sched_getaffinity(0)))
    ram_gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    mem = min(8, max(2, int(ram_gib / 2)))
    local = work / "spark-local"
    tmp = work / "tmp"
    for d in (local, tmp):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]", f"--driver-memory {mem}g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(str(local))}",
        f"--conf spark.sql.warehouse.dir={shlex.quote(str(work / 'warehouse'))}",
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp}"),
        "pyspark-shell"])


def start_spark():
    from repro.experiments.common import get_spark
    spark = get_spark("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the gateway JVM to exit."""
    from pyspark import SparkContext
    gw = SparkContext._gateway
    proc = getattr(gw, "proc", None)
    spark.stop()
    if gw is not None:
        gw.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def layer_metrics(tr, run) -> dict:
    by_op = tr.self_by_name(ops_only=True)
    by_all = tr.self_by_name()
    from harness import percentile
    out = {}
    for name, span in SPAN_METRICS.items():
        xs = by_op.get(span) or by_all.get(span)
        out[name] = percentile(xs, 50) if xs else 0.0
    for name, _ in PER_LAYER:
        if name not in out:
            out[name] = float(run.layer.get(name, run.layout.get(name, 0.0)))
    return out


def end_to_end(run, spark_start_s: float) -> dict:
    from harness import peak_rss_mb, percentile
    xs = [o["s"] for o in run.ops]
    return {
        "op_p50_s": percentile(xs, 50),
        "op_p90_s": percentile(xs, 90),
        "setup_s": spark_start_s + percentile(run.setup_s, 50),
        "peak_rss_mb": peak_rss_mb(),
        "total_version_span": run.layout["total_version_span"],
        "n_chunks": run.layout["n_chunks"],
    }


def report(workload: str, args, run, e2e: dict, layers: dict | None,
           meta: dict, overhead: dict | None) -> list[str]:
    from harness import percentile, samples_beyond
    n = len(run.ops)
    failed = sum(not o["ok"] for o in run.ops)
    lines = [f"# perfbench {workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace}",
             "## run metadata"]
    lines += [f"  {k}: {v}" for k, v in meta.items()]
    lines += [f"  dataset.{k}: {v}" for k, v in run.sizes.items()]
    lines.append("## end-to-end" + (" (traced run: not for comparison)" if args.trace else ""))
    units = dict(END_TO_END)
    for name, v in e2e.items():
        lines.append(f"  {name:28s} {v:14.6g} {units[name]}")
    lines.append(f"  {'fail_frac':28s} {failed / max(1, n):14.6g} ops "
                 f"({failed} of {n} failed)")
    lines.append(f"  samples: {n} operations; op_p90_s has "
                 f"{samples_beyond(n, 90)} samples beyond it"
                 + ("" if samples_beyond(n, 90) >= 10 else
                    " (fewer than ten: read it as a high-water mark)"))
    for k, v in run.extra.items():
        lines.append(f"  {k:28s} {v:14.6g}")
    if "q1_p50_s" in run.extra:
        lines.append("## cost-model gap (median wall vs simulated, per query type)")
        for q in ("q1", "q2", "q3", "point"):
            sim = run.layer.get(f"cost.{q}_sim_s")
            if sim is None:
                continue
            wall = run.extra[f"{q}_p50_s"]
            ratio = run.layer[f"cost.{q}_wall_over_sim"]
            lines.append(f"  {q:6s} wall {wall:9.4f} s  sim {sim:9.4f} s  "
                         f"wall/sim {ratio:8.2f}  (n={run.extra[f'{q}_n']})")
    lines.append("## warm-up (untimed, counted in setup_s)")
    if run.warmup_s:
        med = percentile([o["s"] for o in run.ops], 50)
        shown = run.warmup_s[:8]
        lines.append(f"  {len(run.warmup_s)} warm-up ops, first {len(shown)}: "
                     + ", ".join(f"{s:.4f}" for s in shown))
        lines.append(f"  first warm-up / timed median: {run.warmup_s[0] / med:.2f}; "
                     f"last warm-up / timed median: {run.warmup_s[-1] / med:.2f}")
    lines.append("  set-ups: " + ", ".join(f"{s:.4f}" for s in run.setup_s))
    if layers is not None:
        lines.append("## per-layer (traced run) -> end-to-end metric it should move")
        for name, unit in PER_LAYER:
            lines.append(f"  {name:30s} {layers[name]:14.6g} {unit:7s} -> {moves(name)}")
    if overhead:
        lines.append("## tracing overhead (traced minus untraced, same seed)")
        for k, v in overhead.items():
            lines.append(f"  {k:28s} {v:+14.6g} s")
    for f in run.failures:
        lines.append(f"FAILED CHECK: {f}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny datasets, for the harness self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads
    from harness import NullTracer, Tracer, metadata
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cfg = (workloads.SMOKE if args.smoke else workloads.CONFIGS)[args.workload]

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(exist_ok=True)
    tr = Tracer() if args.trace else NullTracer()
    spark = None
    spark_start_s = 0.0
    try:
        if args.workload in workloads.NEEDS_SPARK:
            spark_env(work)
            t0 = time.perf_counter()
            with tr.span("spark.start"):
                spark = start_spark()
            spark_start_s = time.perf_counter() - t0
        run = workloads.WORKLOADS[args.workload](spark, cfg, args.seed,
                                                 args.seconds, tr, work)
        e2e = end_to_end(run, spark_start_s)
        layers = layer_metrics(tr, run) if args.trace else None
        meta = metadata(ROOT, args.seed, spark)
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(work, ignore_errors=True)

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    overhead = None
    if args.trace:
        base = out_dir / f"{stem}-trace0.json"
        if base.exists():
            untraced = json.loads(base.read_text())["end_to_end"]
            overhead = {k: e2e[k] - untraced[k]
                        for k in ("op_p50_s", "op_p90_s", "setup_s")}
    lines = report(args.workload, args, run, e2e, layers, meta, overhead)
    print("\n".join(lines), flush=True)

    n = len(run.ops)
    failed = sum(not o["ok"] for o in run.ops)
    result = {
        "correct": not run.failures,
        "attempted": n,
        "failed": failed,
        "metrics": ({k: {"value": layers[k], "unit": u} for k, u in PER_LAYER}
                    if args.trace else
                    {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}),
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              "metadata": meta, "sizes": run.sizes, "config": vars(cfg),
              "end_to_end": e2e, "per_layer": layers, "extra": run.extra,
              "layout": run.layout, "fail_frac": failed / max(1, n),
              "setup_runs_s": run.setup_s, "spark_start_s": spark_start_s,
              "warmup_s": run.warmup_s, "ops": run.ops,
              "failures": run.failures, "tracing_overhead_s": overhead}
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(tr.dump()))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
