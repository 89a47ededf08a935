"""End-to-end query-processing tests (§2.4) against the DuckDB oracle."""
import pandas as pd
import pytest

from repro.core.bottom_up import bottom_up_partition
from repro.core.indexes import IndexSet, build_indexes, chunk_map_df
from repro.core.query import RECORD_COLS, QueryEngine, query_stats
from repro.core.span import assignment_df
from repro.core.subchunks import build_subchunks, compress_subchunks, sc_dataset
from repro.kvs.store import ChunkStore
from repro.oracle import assert_equivalent
from repro.versioned.generator import generate
from repro.versioned.graph import random_tree
from repro.versioned.membership import membership_pd, membership_spark


def _sql_q1(vid):
    return f"""
    SELECT m.key AS key, m.origin AS origin, r."size" AS size,
           r.payload AS payload
    FROM member m JOIN records r ON m.key = r.key AND m.origin = r.origin
    WHERE m.vid = {vid}
    """


def _sql_q2(vid, lo, hi):
    return _sql_q1(vid) + f" AND m.key BETWEEN {lo} AND {hi}"


def _sql_q3(key):
    return f"""SELECT key, origin, "size" AS size, payload
    FROM records WHERE key = {key}"""


@pytest.fixture(scope="module")
def engine(spark, tmp_path_factory):
    g = random_tree(25, deepen_prob=0.85, seed=41)
    ds = generate(g, n_base=60, pct_update=15, with_payload=True, seed=14)
    rdf = ds.spark_records(spark)
    mem_s = membership_spark(spark, g, rdf, ds.spark_kills(spark)).cache()
    mem_p = membership_pd(g, ds.records, ds.kills)
    asg = bottom_up_partition(g, ds.records, ds.kills, C=600)
    adf = assignment_df(spark, asg)
    idx = build_indexes(mem_s, adf)
    st = ChunkStore(tmp_path_factory.mktemp("qkvs"), n_nodes=2)
    st.write(rdf.join(adf.select("key", "origin", "chunk"), ["key", "origin"]),
             chunk_map_df(mem_s, adf))
    qe = QueryEngine(spark, st, idx)
    return g, ds, mem_p, asg, qe


def run_kind(engine, kind):
    """One query of each kind, on a record updated mid-history."""
    g, ds, mem_p, asg, qe = engine
    row = mem_p[mem_p.vid != mem_p.origin].iloc[0]
    key, vid = int(row.key), int(row.vid)
    return {"q1": lambda: qe.full_version(vid),
            "q2": lambda: qe.range_query(vid, 5, 30),
            "q3": lambda: qe.record_evolution(key),
            "point": lambda: qe.record(key, vid)}[kind]()


class TestAccounting:
    @pytest.mark.parametrize("kind", ["q1", "q2", "q3", "point"])
    def test_query_bytes_equal_store_bytes(self, engine, kind):
        # QueryStats.bytes (from IndexSet.chunk_bytes) and the store's
        # byte counter (from ChunkStore's own sizes) are two sources of
        # the same figure; every query must move them by the same amount.
        qe = engine[-1]
        before = qe.store.stats.n_bytes
        _, stats = run_kind(engine, kind)
        assert stats.span > 0
        assert stats.bytes == qe.store.stats.n_bytes - before

    @pytest.mark.parametrize("kind", ["q1", "q2", "q3", "point"])
    def test_phase_times_measured(self, engine, kind):
        # QueryEngine measures its gets and its extraction; a plan charged
        # without a store (the experiments' path) carries no wall time.
        qe = engine[-1]
        _, stats = run_kind(engine, kind)
        assert stats.get_s > 0 and stats.extract_s > 0
        charged = query_stats([0, 1], qe.indexes.chunk_bytes, qe.cost)
        assert charged.get_s == 0.0 and charged.extract_s == 0.0


class TestFullVersion:
    @pytest.mark.parametrize("vid", [0, 7, 24])
    def test_q1_matches_oracle(self, engine, vid):
        g, ds, mem_p, asg, qe = engine
        out, stats = qe.full_version(vid)
        assert_equivalent(out, _sql_q1(vid), member=mem_p, records=ds.records)

    def test_q1_stats_match_index(self, engine):
        g, ds, mem_p, asg, qe = engine
        out, stats = qe.full_version(5)
        assert stats.span == len(qe.indexes.chunks_for_version(5))
        assert stats.sim_time_s > 0


class TestRange:
    def test_q2_matches_oracle(self, engine):
        g, ds, mem_p, asg, qe = engine
        out, stats = qe.range_query(10, 5, 30)
        assert_equivalent(out, _sql_q2(10, 5, 30), member=mem_p,
                          records=ds.records)

    def test_q2_span_no_more_than_q1(self, engine):
        g, ds, mem_p, asg, qe = engine
        _, full = qe.full_version(10)
        _, part = qe.range_query(10, 5, 30)
        assert part.span <= full.span


class TestEvolution:
    @pytest.mark.parametrize("key", [0, 3, 17])
    def test_q3_matches_oracle(self, engine, key):
        g, ds, mem_p, asg, qe = engine
        out, stats = qe.record_evolution(key)
        assert_equivalent(out, _sql_q3(key), records=ds.records)

    def test_q3_span_matches_key_chunks(self, engine):
        g, ds, mem_p, asg, qe = engine
        _, stats = qe.record_evolution(3)
        assert stats.span == len(qe.indexes.chunks_for_key(3))


class TestPoint:
    def test_point_query_resolves_predecessor_origin(self, engine):
        # A key updated mid-history: the record returned for a later
        # version must carry the origin where it was last modified.
        g, ds, mem_p, asg, qe = engine
        cand = mem_p[mem_p.vid != mem_p.origin]
        row = cand.iloc[0]
        out, stats = qe.record(int(row.key), int(row.vid))
        got = out.toPandas()
        assert len(got) == 1
        assert int(got.origin.iloc[0]) == int(row.origin)

    def test_point_query_missing_key_empty(self, engine):
        g, ds, mem_p, asg, qe = engine
        # Key deleted before this version, or never present.
        dead = set(ds.records.key) - set(mem_p[mem_p.vid == g.n - 1].key)
        if not dead:
            pytest.skip("no deleted keys in generated data")
        out, _ = qe.record(int(sorted(dead)[0]), g.n - 1)
        assert out.count() == 0


class TestDegenerate:
    """Queries with nothing to return give an empty result, never an error."""

    @staticmethod
    def check_empty(out, stats, plan):
        assert out.columns == list(RECORD_COLS)
        assert out.count() == 0
        assert stats.span == len(plan)

    def test_unknown_vid(self, engine):
        g, ds, mem_p, asg, qe = engine
        vid = g.n + 100
        out, stats = qe.full_version(vid)
        self.check_empty(out, stats, qe.indexes.chunks_for_version(vid))
        out, stats = qe.range_query(vid, 0, 30)
        self.check_empty(out, stats, qe.indexes.chunks_for_range(vid, 0, 30))
        out, stats = qe.record(3, vid)
        self.check_empty(out, stats, qe.indexes.chunks_for_record(3, vid))

    def test_key_never_stored(self, engine):
        g, ds, mem_p, asg, qe = engine
        key = int(ds.records.key.max()) + 1000
        out, stats = qe.record_evolution(key)
        self.check_empty(out, stats, qe.indexes.chunks_for_key(key))
        out, stats = qe.record(key, 5)
        self.check_empty(out, stats, qe.indexes.chunks_for_record(key, 5))

    def test_range_without_keys(self, engine):
        g, ds, mem_p, asg, qe = engine
        lo = int(ds.records.key.max()) + 1
        out, stats = qe.range_query(5, lo, lo + 50)
        self.check_empty(out, stats, qe.indexes.chunks_for_range(5, lo, lo + 50))

    def test_key_deleted_before_version(self, engine):
        # The key is live in the parent and gone in the child, so the
        # planner still sends the child to chunks holding the key.
        g, ds, mem_p, asg, qe = engine
        live = {v: set(m.key) for v, m in mem_p.groupby("vid")}
        key, vid = next((k, v) for v in range(1, g.n)
                        for k in sorted(live[int(g.parent[v])] - live.get(v, set())))
        plan = qe.indexes.chunks_for_record(key, vid)
        assert plan
        out, stats = qe.record(key, vid)
        self.check_empty(out, stats, plan)


@pytest.fixture(scope="module", params=[5, 50], ids=["k5", "k50"])
def sc_engine(request, spark, tmp_path_factory):
    """A store of raw records laid out by Algorithm 5 sub-chunks: each
    record goes to the chunk BOTTOM-UP gave its sub-chunk."""
    k = request.param
    g = random_tree(40, deepen_prob=0.85, seed=44)
    ds = generate(g, n_base=60, pct_update=15, p_d=0.05, with_payload=True,
                  seed=16)
    mem_p = membership_pd(g, ds.records, ds.kills)
    sc = build_subchunks(g, ds.records, k)
    sc_sizes = compress_subchunks(ds.records, sc, g.depths())
    sc_rec, sc_kill, _ = sc_dataset(g, mem_p, sc, sc_sizes)
    units = bottom_up_partition(g, sc_rec, sc_kill, C=1500)
    chunk_of = units[["key", "chunk"]].rename(columns={"key": "sc"})
    rec_chunk = (sc.merge(chunk_of, on="sc")
                 .merge(ds.records[["key", "origin", "size"]], on=["key", "origin"])
                 [["key", "origin", "size", "chunk"]])
    adf = assignment_df(spark, rec_chunk)
    st = ChunkStore(tmp_path_factory.mktemp(f"sc{k}"), n_nodes=2)
    st.write(ds.spark_records(spark)
             .join(adf.select("key", "origin", "chunk"), ["key", "origin"]),
             chunk_map_df(spark.createDataFrame(mem_p), adf))
    qe = QueryEngine(spark, st, IndexSet.from_layout(mem_p, rec_chunk, units))
    return g, ds, mem_p, sc, qe


class TestSubchunkLayouts:
    """Q1/Q2/Q3/point on k=5 and k=50 sub-chunk layouts == DuckDB."""

    def test_layout_groups_subchunks(self, sc_engine):
        g, ds, mem_p, sc, qe = sc_engine
        assert sc["sc"].nunique() < len(sc)
        assert len(qe.indexes.chunk_bytes) > 1

    def test_queries_match_oracle(self, sc_engine):
        g, ds, mem_p, sc, qe = sc_engine
        row = mem_p[mem_p.vid != mem_p.origin].iloc[-1]
        key, vid = int(row.key), int(row.vid)
        cases = [(qe.full_version(v), _sql_q1(v)) for v in (0, vid, g.n - 1)]
        cases += [(qe.range_query(vid, 10, 40), _sql_q2(vid, 10, 40)),
                  (qe.record_evolution(key), _sql_q3(key)),
                  (qe.record(key, vid), _sql_q2(vid, key, key))]
        for (out, _), sql in cases:
            assert_equivalent(out, sql, member=mem_p, records=ds.records)
