"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/stability.py --workloads query-b0s --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per (workload, seed), one run at a time,
and prints for every metric the median and the quartile spread
``(Q3 - Q1) / median`` with Q1/Q3 from ``statistics.quantiles(n=4)`` —
the figure compared against each metric's bound in BENCHMARK.json.
Writes the table to ``perfbench/out/stability-<label>.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--label", default="latest")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    table = {}
    for wl in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            out = subprocess.run(
                [*spec["command"], "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            if out.returncode != 0:
                print(out.stdout[-2000:], out.stderr[-4000:], file=sys.stderr)
                raise SystemExit(f"{wl} seed {seed}: exit {out.returncode}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": wall, **res})
            print(f"{wl} seed={seed} wall={wall:.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            rows[name] = {"median": statistics.median(vals), "spread": spread(vals),
                          "bound": bounds.get(name), "values": vals}
        table[wl] = {"runs": runs, "metrics": rows,
                     "wall_s_mean": statistics.fmean(r["wall_s"] for r in runs)}
        print(f"== {wl}: mean wall {table[wl]['wall_s_mean']:.1f}s")
        for name, r in rows.items():
            flag = ("" if r["bound"] is None or r["spread"] <= r["bound"] / 3
                    else "  <-- above bound/3")
            print(f"   {name:22s} median {r['median']:12.6g}  spread {r['spread']:.4f}"
                  f"  bound {r['bound']}{flag}")
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"stability-{args.label}.json").write_text(json.dumps(table, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
