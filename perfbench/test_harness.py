"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q -p no:cacheprovider

Covers the percentile rule, self-time accounting, the output checks
(each must flag a wrong answer), the metric names against
BENCHMARK.json, and a smoke run of every workload on tiny data.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
from harness import Span, Tracer, percentile, samples_beyond, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestPercentile:
    @pytest.mark.parametrize("q", [0, 10, 25, 50, 90, 99, 100])
    def test_matches_numpy_linear(self, q):
        xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        assert percentile(xs, q) == pytest.approx(np.percentile(xs, q))

    def test_single_sample(self):
        assert percentile([2.5], 90) == 2.5

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_samples_beyond(self):
        # p90 of 101 samples sits on the 91st; ten lie above it.
        assert samples_beyond(101, 90) == 10
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(12, 90) == 2
        assert samples_beyond(1, 50) == 0


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [Span(0, "op", None, 0, 0.0, 10.0),
                 Span(1, "a", 0, 0, 1.0, 4.0),
                 Span(2, "b", 0, 0, 5.0, 6.0),
                 Span(3, "a.x", 1, 0, 2.0, 3.0)]
        st = self_times(spans)
        assert st == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})

    def test_overlapping_children_counted_once(self):
        spans = [Span(0, "op", None, 0, 0.0, 10.0),
                 Span(1, "a", 0, 0, 1.0, 5.0),
                 Span(2, "b", 0, 0, 3.0, 7.0)]
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_tracer_nests_and_tags_ops(self):
        tr = Tracer()
        tr.op = 7
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        tr.op = None
        with tr.span("setup"):
            pass
        outer, inner, setup = tr.spans
        assert inner.parent == outer.sid and outer.parent is None
        assert (outer.op, inner.op, setup.op) == (7, 7, None)
        assert set(tr.self_by_name(ops_only=True)) == {"outer", "inner"}
        assert all(d["self"] >= 0 for d in tr.dump())


@pytest.fixture(scope="module")
def tiny():
    from repro.versioned.generator import generate
    from repro.versioned.graph import random_tree
    from repro.versioned.membership import membership_pd
    g = random_tree(12, deepen_prob=0.8, seed=3)
    ds = generate(g, n_base=30, pct_update=20, with_payload=True, seed=5)
    return ds, membership_pd(g, ds.records, ds.kills)


class TestChecks:
    def test_oracle_q1_equals_membership(self, tiny):
        ds, mem = tiny
        oracle = checks.Oracle(ds.records, mem)
        got = oracle.q1(4)
        assert len(got) == int((mem["vid"] == 4).sum())
        assert oracle.q2(4, 0, 10) == [r for r in got if r[0] <= 10]
        assert [r[:2] for r in oracle.point(int(got[0][0]), 4)] == [got[0][:2]]

    def test_wrong_rows_are_flagged(self, tiny):
        ds, mem = tiny
        want = checks.Oracle(ds.records, mem).q1(3)
        assert checks.check_rows("q1", want, want) == []
        assert checks.check_rows("q1", want[1:], want)

    def test_placement_and_fill(self, tiny):
        from repro.core.bottom_up import bottom_up_partition
        ds, mem = tiny
        asg = bottom_up_partition(ds.graph, ds.records, ds.kills, 600)
        assert checks.check_placement(ds.records, asg) == []
        assert checks.check_placement(ds.records, pd.concat([asg, asg.head(1)]))
        assert checks.check_placement(ds.records, asg.iloc[1:])
        assert checks.check_fill(asg, 600) == []
        crammed = asg.assign(chunk=0)
        assert checks.check_fill(crammed, 600)

    def test_commit_that_moves_a_record_is_flagged(self, tiny):
        from repro.core.online import partition_batch
        ds, _ = tiny
        part = partition_batch(ds.graph, ds.records, ds.kills, 4, 8, 600, 10)
        assert checks.check_commit(part, ds.records, 4, 8, 10, 600) == []
        moved = part.copy()
        moved.loc[moved.index[0], "origin"] = 0
        assert checks.check_commit(moved, ds.records, 4, 8, 10, 600)
        assert checks.check_commit(part, ds.records, 4, 8, 11, 600)


class TestBenchmarkSpec:
    def test_metric_names_match_the_harness(self):
        assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
        assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER

    def test_every_per_layer_metric_says_what_it_moves(self):
        for name, _ in run.PER_LAYER:
            assert run.moves(name)

    def test_refuses_to_run_without_the_program(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(BENCH, tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
        out = subprocess.run(
            [*SPEC["command"], "--workload", "online-b1s", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert out.returncode != 0
        assert "correct" not in out.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["online-b1s"])
def test_smoke(workload, trace):
    out = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "2",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-3000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())
    elif workload == "load-c0s-k5":
        # core.online is measured in the load's traced run.
        assert res["metrics"]["online.partition_batch_s"]["value"] > 0
        assert res["metrics"]["online.offline_span_ratio"]["value"] > 0
