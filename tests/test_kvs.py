"""Tests for the simulated KVS substrate (ChunkStore + accounting)."""
import os

import pytest
from pyspark.sql import functions as F

from repro.core.bottom_up import bottom_up_partition
from repro.core.indexes import chunk_map_df
from repro.core.span import assignment_df
from repro.kvs.store import ChunkStore, KVSStats
from repro.versioned.generator import generate
from repro.versioned.graph import random_tree
from repro.versioned.membership import membership_spark


@pytest.fixture(scope="module")
def store(spark, tmp_path_factory):
    g = random_tree(20, deepen_prob=0.85, seed=21)
    ds = generate(g, n_base=50, pct_update=15, with_payload=True, seed=10)
    rdf = ds.spark_records(spark)
    mem = membership_spark(spark, g, rdf, ds.spark_kills(spark))
    asg = bottom_up_partition(g, ds.records, ds.kills, C=500)
    adf = assignment_df(spark, asg)
    st = ChunkStore(tmp_path_factory.mktemp("kvs"), n_nodes=4)
    st.write(rdf.join(adf.select("key", "origin", "chunk"), ["key", "origin"]),
             chunk_map_df(mem, adf))
    return g, ds, asg, st


class TestWriteRead:
    def test_roundtrip_all_chunks(self, spark, store):
        g, ds, asg, st = store
        all_ids = sorted(asg["chunk"].unique().tolist())
        got = st.get_chunks(spark, all_ids)
        assert got.count() == ds.n_unique

    def test_partition_pruning_returns_subset(self, spark, store):
        g, ds, asg, st = store
        one = int(asg["chunk"].iloc[0])
        got = st.get_chunks(spark, [one]).toPandas()
        exp = asg[asg["chunk"] == one]
        assert set(zip(got.key, got.origin)) == set(zip(exp.key, exp.origin))

    def test_chunk_maps_roundtrip(self, spark, store):
        g, ds, asg, st = store
        one = int(asg["chunk"].iloc[0])
        m = st.get_chunk_maps(spark, [one]).toPandas()
        assert (m["chunk"] == one).all()
        assert len(m) > 0

    def test_chunk_bytes_match_assignment(self, store):
        g, ds, asg, st = store
        exp = asg.groupby("chunk")["size"].sum().to_dict()
        assert st.chunk_bytes() == {int(k): int(v) for k, v in exp.items()}


class TestHeldHandle:
    def test_rewrite_serves_new_layout(self, spark, tmp_path):
        # Gets after a rewrite see the new partitions only.
        def layout(chunk_of):
            recs = spark.createDataFrame(
                [(k, 0, 10, c) for k, c in chunk_of.items()],
                "key long, origin long, size long, chunk long")
            maps = recs.selectExpr("chunk", "0L AS vid", "key", "origin")
            return recs, maps

        st = ChunkStore(tmp_path, n_nodes=2)
        st.write(*layout({0: 0, 1: 0, 2: 1}))
        assert st.get_chunks(spark, [0, 1]).count() == 3
        assert st.get_chunk_maps(spark, [0, 1]).count() == 3
        st.write(*layout({0: 5, 1: 6, 2: 6, 3: 6}))
        got = st.get_chunks(spark, [0, 1, 5, 6]).toPandas()
        assert sorted(zip(got.chunk, got.key)) == [(5, 0), (6, 1), (6, 2), (6, 3)]
        maps = st.get_chunk_maps(spark, [0, 1, 5, 6]).toPandas()
        assert sorted(zip(maps.chunk, maps.key)) == [(5, 0), (6, 1), (6, 2), (6, 3)]
        assert st.chunk_bytes() == {5: 10, 6: 30}

    def test_fresh_handle_on_existing_path(self, spark, store):
        g, ds, asg, st = store
        ids = sorted(asg["chunk"].unique().tolist())[:2]
        fresh = ChunkStore(st.path, n_nodes=4)
        got = fresh.get_chunks(spark, ids).toPandas()
        exp = asg[asg["chunk"].isin(ids)]
        assert set(zip(got.key, got.origin)) == set(zip(exp.key, exp.origin))
        assert fresh.get_chunk_maps(spark, ids).count() > 0

    def test_empty_get(self, spark, store):
        g, ds, asg, st = store
        st.reset_stats()
        assert st.get_chunks(spark, []).count() == 0
        assert st.get_chunk_maps(spark, []).count() == 0
        assert st.stats.n_requests == 0 and st.stats.n_bytes == 0


class TestAccounting:
    def test_request_and_byte_counters(self, spark, store):
        g, ds, asg, st = store
        st.reset_stats()
        ids = sorted(asg["chunk"].unique().tolist())[:3]
        st.get_chunks(spark, ids)
        assert st.stats.n_requests == 3
        exp_bytes = int(asg[asg["chunk"].isin(ids)]["size"].sum())
        assert st.stats.n_bytes == exp_bytes

    def test_per_node_distribution(self, spark, store):
        g, ds, asg, st = store
        st.reset_stats()
        ids = sorted(asg["chunk"].unique().tolist())
        st.get_chunks(spark, ids)
        assert sum(st.stats.per_node_requests.values()) == len(ids)
        assert set(st.stats.per_node_requests) <= set(range(4))

    def test_stats_object_standalone(self):
        s = KVSStats()
        s.record([0, 1, 5], {0: 10, 1: 20, 5: 30}, n_nodes=2)
        assert s.n_requests == 3 and s.n_bytes == 60
        assert s.per_node_requests == {0: 1, 1: 2}


def spark_read(spark, path, ids):
    """Test oracle for the keyed read: Spark's own Parquet reader, with
    partition discovery and pruning on ``chunk``."""
    return spark.read.parquet(path).where(F.col("chunk").isin(ids))


def schema_of(df):
    return [(f.name, f.dataType) for f in df.schema.fields]


def rows_of(df):
    return sorted(tuple(r) for r in df.collect())


@pytest.fixture(scope="module")
def split_store(spark, tmp_path_factory):
    """A store whose chunk directories hold several part files each."""
    g = random_tree(15, deepen_prob=0.85, seed=22)
    ds = generate(g, n_base=40, pct_update=15, with_payload=True, seed=11)
    rdf = ds.spark_records(spark)
    mem = membership_spark(spark, g, rdf, ds.spark_kills(spark))
    asg = bottom_up_partition(g, ds.records, ds.kills, C=400)
    adf = assignment_df(spark, asg)
    st = ChunkStore(tmp_path_factory.mktemp("split"), n_nodes=3)
    st.write(rdf.join(adf.select("key", "origin", "chunk"), ["key", "origin"])
             .repartition(3),
             chunk_map_df(mem, adf).repartition(3))
    ids = sorted(int(c) for c in asg["chunk"].unique())
    return st, ids


class TestKeyedRead:
    """``get_chunks`` / ``get_chunk_maps`` == Spark's Parquet reader."""

    def test_split_chunks_match_spark_reader(self, spark, split_store):
        st, ids = split_store
        n_files = [len(os.listdir(os.path.join(st.records_path, f"chunk={c}")))
                   for c in ids]
        assert max(n_files) > 1, "fixture must split chunks over part files"
        for some in (ids, ids[::3]):
            for got, path in ((st.get_chunks(spark, some), st.records_path),
                              (st.get_chunk_maps(spark, some), st.maps_path)):
                want = spark_read(spark, path, some)
                assert schema_of(got) == schema_of(want)
                assert rows_of(got) == rows_of(want)

    def test_absent_ids_match_spark_reader(self, spark, split_store):
        st, ids = split_store
        some = [ids[0], ids[-1] + 1000, -1]
        got = st.get_chunks(spark, some)
        assert rows_of(got) == rows_of(spark_read(spark, st.records_path, some))
        assert rows_of(st.get_chunks(spark, [ids[-1] + 1000])) == []

    def test_empty_ids_schema_matches_spark_reader(self, spark, split_store):
        st, _ = split_store
        for got, path in ((st.get_chunks(spark, []), st.records_path),
                          (st.get_chunk_maps(spark, []), st.maps_path)):
            assert got.count() == 0
            assert schema_of(got) == schema_of(spark_read(spark, path, []))

    def test_handle_sees_rewrite_through_another_handle(self, spark, tmp_path):
        def recs(chunk_of):
            return spark.createDataFrame(
                [(k, 0, 10, c) for k, c in chunk_of.items()],
                "key long, origin long, size long, chunk long")

        reader = ChunkStore(tmp_path)
        reader.write(recs({0: 0, 1: 1}))
        assert rows_of(reader.get_chunks(spark, [0, 1, 2])) == [
            (0, 0, 10, 0), (1, 0, 10, 1)]
        ChunkStore(tmp_path).write(recs({0: 2, 1: 2, 2: 1}))
        assert rows_of(reader.get_chunks(spark, [0, 1, 2])) == [
            (0, 0, 10, 2), (1, 0, 10, 2), (2, 0, 10, 1)]
