"""Tests for the lossy projections and chunk maps (§2.4, Fig 3)."""
import pytest

from repro.core.baselines import subchunk_partition
from repro.core.bottom_up import bottom_up_partition
from repro.core.indexes import IndexSet, build_indexes, chunk_map_df
from repro.core.span import assignment_df
from repro.core.subchunks import build_subchunks, compress_subchunks, sc_dataset
from repro.versioned.generator import generate
from repro.versioned.graph import random_tree
from repro.versioned.membership import membership_pd, membership_spark


@pytest.fixture(scope="module")
def built(spark):
    g = random_tree(25, deepen_prob=0.85, seed=31)
    ds = generate(g, n_base=60, pct_update=15, seed=12)
    mem_s = membership_spark(spark, g, ds.spark_records(spark),
                             ds.spark_kills(spark)).cache()
    mem_p = membership_pd(g, ds.records, ds.kills)
    asg = bottom_up_partition(g, ds.records, ds.kills, C=600)
    adf = assignment_df(spark, asg)
    idx = build_indexes(mem_s, adf)
    return g, ds, mem_p, asg, adf, mem_s, idx


def _range_plans(idx, mem_p, asg):
    """Every Q2 ``(vid, lo, hi)`` over and around the key domain, empty
    ranges included, with its plan and the exact chunks of the version's
    in-range records."""
    placed = mem_p.merge(asg[["key", "origin", "chunk"]], on=["key", "origin"])
    keys = sorted(asg["key"].unique())
    bounds = range(keys[0] - 1, keys[-1] + 2)
    for vid, grp in placed.groupby("vid"):
        chunk_of = dict(zip(grp["key"].tolist(), grp["chunk"].tolist()))
        for lo in bounds:
            exact = set()
            for hi in bounds:
                if hi >= lo and hi in chunk_of:
                    exact.add(chunk_of[hi])
                yield (vid, lo, hi), idx.chunks_for_range(vid, lo, hi), exact


class TestProjections:
    def test_version_projection_exact(self, built):
        g, ds, mem_p, asg, adf, mem_s, idx = built
        joined = mem_p.merge(asg, on=["key", "origin"])
        for vid, grp in joined.groupby("vid"):
            assert idx.chunks_for_version(vid) == sorted(
                grp["chunk"].unique().tolist())

    def test_key_projection_exact(self, built):
        g, ds, mem_p, asg, adf, mem_s, idx = built
        for key, grp in asg.groupby("key"):
            assert idx.chunks_for_key(key) == sorted(
                grp["chunk"].unique().tolist())

    def test_spark_build_equals_pandas_build(self, built):
        g, ds, mem_p, asg, adf, mem_s, idx = built
        assert idx == IndexSet.from_layout(mem_p, asg, asg)

    def test_key_range_matches_scan(self, built):
        # The bisect lookup returns the chunks a scan of every key finds,
        # for every range over and around the key domain, empty ones
        # (lo > hi, no key in range) included.
        *_, idx = built
        keys = sorted(idx.key_to_chunks)
        bounds = range(keys[0] - 2, keys[-1] + 3)
        for lo in bounds:
            for hi in bounds:
                scan = {c for k, cs in idx.key_to_chunks.items()
                        if lo <= k <= hi for c in cs}
                assert idx.chunks_for_key_range(lo, hi) == scan, (lo, hi)

    def test_unknown_ids_empty(self, built):
        *_, idx = built
        assert idx.chunks_for_version(10**6) == []
        assert idx.chunks_for_key(10**6) == []

    def test_chunk_bytes(self, built):
        g, ds, mem_p, asg, adf, mem_s, idx = built
        exp = asg.groupby("chunk")["size"].sum()
        assert idx.chunk_bytes == {int(k): int(v) for k, v in exp.items()}

    def test_sizes_reported(self, built):
        *_, idx = built
        sizes = idx.sizes_bytes()
        assert sizes["version_to_chunks"] > 0
        assert sizes["key_to_chunks"] > 0


class TestChunkMaps:
    def test_chunk_maps_aggregate_to_full_mapping(self, spark, built):
        # In aggregate the chunk maps contain exactly M (§2.4).
        g, ds, mem_p, asg, adf, mem_s, idx = built
        cm = chunk_map_df(mem_s, adf).toPandas()
        assert len(cm) == len(mem_p)
        got = set(zip(cm.vid, cm.key, cm.origin))
        exp = set(zip(mem_p.vid, mem_p.key, mem_p.origin))
        assert got == exp

    def test_chunk_map_chunks_match_assignment(self, spark, built):
        g, ds, mem_p, asg, adf, mem_s, idx = built
        cm = chunk_map_df(mem_s, adf).toPandas()
        chunk_of = dict(zip(zip(asg.key, asg.origin), asg.chunk))
        sample = cm.sample(n=min(200, len(cm)), random_state=0)
        for r in sample.itertuples():
            assert chunk_of[(r.key, r.origin)] == r.chunk


class TestPlanner:
    def test_range_plan_covers_in_range_records(self, built):
        # Index-ANDing is lossy: the plan may fetch extra chunks of the
        # version, but never misses one holding an in-range record.
        g, ds, mem_p, asg, adf, mem_s, idx = built
        for q, plan, exact in _range_plans(idx, mem_p, asg):
            assert exact <= set(plan) <= set(idx.chunks_for_version(q[0])), q

    def test_range_plan_exact_when_chunk_is_key(self, built):
        g, ds, mem_p, asg, adf, mem_s, idx = built
        sub = subchunk_partition(ds.records)
        sub_idx = IndexSet.from_layout(mem_p, sub, sub)
        for q, plan, exact in _range_plans(sub_idx, mem_p, sub):
            assert set(plan) == exact, q

    def test_record_plan_holds_live_record(self, built):
        g, ds, mem_p, asg, adf, mem_s, idx = built
        placed = mem_p.merge(asg, on=["key", "origin"])
        for r in placed.itertuples():
            plan = idx.chunks_for_record(r.key, r.vid)
            assert r.chunk in plan
            assert set(plan) <= set(idx.chunks_for_version(r.vid))

    def test_chunk_bytes_are_compressed_subchunk_bytes(self):
        # With k > 1 the partitioner's units are compressed sub-chunks,
        # and a chunk's bytes are theirs, not its raw records'.
        g = random_tree(25, deepen_prob=0.85, seed=31)
        ds = generate(g, n_base=60, pct_update=15, with_payload=True, seed=12)
        mem_p = membership_pd(g, ds.records, ds.kills)
        sc = build_subchunks(g, ds.records, k=5)
        cs = compress_subchunks(ds.records, sc, g.depths())
        screc, sckill, _ = sc_dataset(g, mem_p, sc, cs)
        units = bottom_up_partition(g, screc, sckill, C=600)
        chunk_of = units.rename(columns={"key": "sc"})[["sc", "chunk"]]
        idx = IndexSet.from_layout(mem_p, sc.merge(chunk_of, on="sc"), units)
        exp = cs.merge(chunk_of, on="sc").groupby("chunk")["comp_bytes"].sum()
        assert idx.chunk_bytes == {int(c): int(b) for c, b in exp.items()}
        assert sum(idx.chunk_bytes.values()) < ds.records["size"].sum()
