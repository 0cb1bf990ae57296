// dist_scatter: scatter-gather over a doc-partitioned dist::Cluster.
//
// Three nodes with one worker each hold contiguous thirds of the corpus.
// One closed-loop stream sends heavy ranked queries (BM25, k=100, three or
// more terms) with shared-θ pruning on, the service-time model off
// (service_scale=0) and no network charge, so only real work is timed: a
// query waits for the slowest of its shards, then the merge. Every result
// is checked against a single-engine Database over the same corpus, under
// the tolerance the cluster tests use for MaxScore paths.
#include <filesystem>
#include <set>

#include "bench/bench_util.h"
#include "bench_core.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "dist/cluster.h"
#include "open_loop.h"

namespace e2e {
namespace {

constexpr uint32_t kNodes = 3;
constexpr uint32_t kK = 100;
constexpr uint32_t kMinTerms = 3;
constexpr uint32_t kQueryPool = 2000;
constexpr float kTolerance = 1e-4f;
constexpr int kSetupRepeats = 3;
constexpr double kChunkSeconds = 0.25;

void CheckOk(const Status& s, const char* what) { bench::CheckOk(s, what); }

}  // namespace

Report RunDistScatter(const RunOptions& opts) {
  Report rep;
  Tracer tracer(opts.trace);
  const std::string dir = opts.data_dir + "/dist_scatter";
  const ir::CorpusOptions corpus_opts = bench::BenchCorpusOptions();
  dist::ClusterOptions copts;
  copts.num_partitions = kNodes;
  copts.total_partitions = kNodes;
  copts.cores_per_node = 1;
  copts.network_ms = 0.0;
  copts.service_scale = 0.0;
  copts.storage = bench::BenchStorageOptions();

  // ---- Set-up: corpus generation + fresh partition builds + node start,
  // repeated; the median is setup_s and the last cluster is kept. --------
  std::unique_ptr<dist::Cluster> cluster;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cluster.reset();
    std::filesystem::remove_all(dir);
    const int64_t t0 = NowNs();
    ir::Corpus corpus;
    CheckOk(ir::Corpus::Generate(corpus_opts, &corpus), "generate corpus");
    auto c = std::make_unique<dist::Cluster>();
    {
      ScopedSpan span(&tracer, "Cluster::Open", 0, 0);
      CheckOk(c->Open(corpus, dir, copts), "open cluster");
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    cluster = std::move(c);
  }

  // The single-engine oracle over the same corpus (in memory).
  core::Database oracle_db;
  {
    ir::Corpus corpus;
    CheckOk(ir::Corpus::Generate(corpus_opts, &corpus), "generate corpus");
    ScopedSpan span(&tracer, "Database::Open", 0, 0);
    CheckOk(oracle_db.OpenWithCorpus(std::move(corpus), "",
                                     storage::StorageOptions()),
            "open oracle database");
  }

  // ---- Heavy queries (seeded): efficiency queries with >= 3 terms. ------
  ir::QueryGenOptions qopts;
  qopts.num_eval_queries = 0;
  qopts.num_efficiency_queries = 20 * kQueryPool;
  qopts.seed = opts.seed;
  std::vector<ir::Query> queries;
  for (const ir::Query& q :
       ir::QueryGenerator(oracle_db.corpus(), qopts).EfficiencyQueries()) {
    if (q.terms.size() >= kMinTerms && queries.size() < kQueryPool) {
      queries.push_back(q);
    }
  }
  ir::SearchOptions sopts;
  sopts.k = kK;
  std::vector<ir::SearchResult> oracle(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ScopedSpan span(&tracer, "Database::Search", 0, i);
    CheckOk(oracle_db.Search(queries[i], ir::RunType::kBm25, sopts, &oracle[i]),
            "oracle search");
  }

  dist::DistSearchOptions dopts;
  dopts.search = sopts;
  dopts.share_theta = true;
  Rng pick_rng(opts.seed ^ 0xD157ull);
  uint64_t mismatches = 0;
  uint32_t bad_query = 0;
  uint64_t failed = 0;

  // One closed-loop query; returns its latency in ms (or -1 on failure)
  // and the id of its Cluster::Search span in *span (0 when untraced).
  Tracer untraced(false);
  auto one_query = [&](uint32_t qi, uint64_t request, Tracer* tr,
                       dist::DistResult* out, uint64_t* span = nullptr) {
    const int64_t t0 = NowNs();
    const Status s =
        cluster->Search(queries[qi], ir::RunType::kBm25, dopts, out);
    const int64_t t1 = NowNs();
    const uint64_t id = tr->Record("Cluster::Search", t0, t1, 0, request);
    if (span != nullptr) *span = id;
    if (!s.ok()) {
      ++failed;
      return -1.0;
    }
    if (!RankingsEquivalent(out->merged, oracle[qi], kTolerance)) {
      if (mismatches++ == 0) bad_query = qi;
    }
    return static_cast<double>(t1 - t0) * 1e-6;
  };

  // Warm-up (untimed), then the self-test's corrupted oracle row: the
  // first query the measured loop draws.
  {
    dist::DistResult r;
    Rng warm(opts.seed ^ 0x3A3Aull);
    for (int i = 0; i < 50 && !queries.empty(); ++i) {
      one_query(static_cast<uint32_t>(warm.NextBounded(queries.size())), 0,
                &untraced, &r);
    }
  }
  if (opts.inject_fault == "oracle_row" && !queries.empty()) {
    Rng probe = pick_rng;
    oracle[probe.NextBounded(queries.size())].scores[0] += 1.0f;
  }

  // ---- Measurement: closed loop, one stream, in chunks; figures come
  // from the chunks the host left alone (bench_core.h). Traced runs
  // alternate an untraced chunk with a traced one. -----------------------
  std::vector<Chunk> chunks, traced_chunks;
  uint64_t queries_done = 0;
  std::vector<double> shard_max_ms, shard_mean_ms, gather_ms, candidates;
  ServedStats served;
  const int64_t end_ns = NowNs() + static_cast<int64_t>(opts.seconds * 1e9);
  uint64_t request = 0;
  dist::DistResult r;
  for (int chunk = 0; chunk == 0 || NowNs() < end_ns; ++chunk) {
    std::vector<double> lat;
    HostWatch host;
    const int64_t c0 = NowNs();
    while (NowNs() < c0 + static_cast<int64_t>(kChunkSeconds * 1e9)) {
      const uint32_t qi =
          static_cast<uint32_t>(pick_rng.NextBounded(queries.size()));
      const double ms = one_query(qi, ++request, &untraced, &r);
      if (ms >= 0.0) lat.push_back(ms);
      ++queries_done;
    }
    const double c_s = static_cast<double>(NowNs() - c0) * 1e-9;
    chunks.push_back(ChunkOf(lat, {}, host.Finish()));
    chunks.back().per_s = static_cast<double>(lat.size()) / c_s;
    if (!opts.trace) continue;
    std::vector<double> lat_traced;
    const HostWatch traced_host;
    const int64_t t0 = NowNs();
    while (NowNs() < t0 + static_cast<int64_t>(kChunkSeconds * 1e9)) {
      const uint32_t qi =
          static_cast<uint32_t>(pick_rng.NextBounded(queries.size()));
      const uint64_t id = ++request;
      uint64_t cluster_span = 0;
      const double ms = one_query(qi, id, &tracer, &r, &cluster_span);
      if (ms < 0.0) continue;
      lat_traced.push_back(ms);
      // Each node's engine call, timed directly under the cluster's
      // global statistics (no shared θ: the shard's own cost); its span's
      // parent is the query's Cluster::Search span.
      ir::SearchOptions node_opts = sopts;
      node_opts.global_stats = &cluster->collection_stats();
      double slowest = 0.0, sum = 0.0;
      for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
        ir::SearchResult sr;
        const int64_t s0n = NowNs();
        CheckOk(cluster->node_db(n).Search(queries[qi], ir::RunType::kBm25,
                                           node_opts, &sr),
                "node search");
        const int64_t s1n = NowNs();
        tracer.Record("Database::Search", s0n, s1n, cluster_span, id);
        const double node_ms = static_cast<double>(s1n - s0n) * 1e-6;
        slowest = std::max(slowest, node_ms);
        sum += node_ms;
        served.exec += sr.stats;
      }
      shard_max_ms.push_back(slowest);
      shard_mean_ms.push_back(sum / cluster->num_nodes());
      gather_ms.push_back(ms - slowest);
      candidates.push_back(static_cast<double>(r.merged.num_matches));
      served.exec_ms.push_back(slowest);
      served.candidates += r.merged.num_matches;
      ++served.served;
    }
    traced_chunks.push_back(ChunkOf(lat_traced, {}, traced_host.Finish()));
  }

  if (mismatches > 0) {
    rep.Fail(StrFormat("%llu cluster results differ from the single-engine "
                       "oracle beyond %.0e (first: query %u)",
                       static_cast<unsigned long long>(mismatches),
                       static_cast<double>(kTolerance), bad_query));
  }
  rep.attempted = queries_done;
  rep.failed = failed;

  uint64_t postings = 0;
  for (uint32_t n = 0; n < cluster->num_nodes(); ++n) {
    postings += cluster->node_db(n).index()->num_postings();
  }
  rep.Header("nodes", StrFormat("%u", kNodes));
  rep.Header("cores_per_node", "1");
  rep.Header("streams", "1");
  rep.Header("k", StrFormat("%u", kK));
  rep.Header("query_pool", StrFormat("%zu", queries.size()));
  rep.Header("share_theta", "true");
  rep.Header("pool_bytes", StrFormat("%llu", static_cast<unsigned long long>(
                                                 copts.storage.pool_bytes)));
  rep.Header("page_bytes", StrFormat("%u", copts.storage.page_bytes));
  rep.Header("wal", "\"n/a (read-only)\"");
  rep.Header("offered_qps", "\"closed loop, 1 stream\"");

  const std::vector<Chunk> quiet = QuietChunks(chunks);
  const double p50 = MedianOf(quiet, &Chunk::p50);
  size_t samples = 0;
  for (const Chunk& c : quiet) samples += c.samples;
  if (!opts.trace) {
    rep.Add("query_p50_ms", p50, "ms");
    rep.Add("query_p99_ms", MedianOf(quiet, &Chunk::p99), "ms");
    rep.Info("query_p99_ms.pooled", PooledPercentile(quiet, 0.99), "ms");
    rep.Add("throughput_per_s", MedianOf(quiet, &Chunk::per_s), "1/s");
    rep.Add("ok_ratio", 1.0 - Ratio(rep.failed, rep.attempted), "ratio");
    rep.Add("setup_s", Median(setup_s), "s");
    rep.Add("bytes_per_posting",
            Ratio(static_cast<double>(DirBytes(dir, "wal_")),
                  static_cast<double>(postings)),
            "B");
    rep.Add("peak_rss_mb", PeakRssMb(), "MB");
    rep.Info("query_samples", static_cast<double>(samples), "count");
    rep.Info("query_chunks", static_cast<double>(quiet.size()), "count");
    rep.Info("query_chunks_run", static_cast<double>(chunks.size()), "count");
    rep.Info("query_p50_ms.all_chunks", MedianOf(chunks, &Chunk::p50), "ms");
    rep.Info("query_p99_ms.all_chunks", MedianOf(chunks, &Chunk::p99), "ms");
    rep.Info("queries_per_s.all_chunks", MedianOf(chunks, &Chunk::per_s),
             "1/s");
    rep.Info("host_probe_ms.all_chunks", MedianOf(chunks, &Chunk::probe_ms),
             "ms");
    rep.Info("host_probe_ms.quiet_chunks", MedianOf(quiet, &Chunk::probe_ms),
             "ms");
    rep.Info("error_ratio", Ratio(rep.failed, rep.attempted), "ratio");
  } else {
    AddServedMetrics(served, &rep);
    rep.Add("dist.shard_exec_max_ms", Median(shard_max_ms), "ms");
    rep.Add("dist.shard_exec_mean_ms", Median(shard_mean_ms), "ms");
    rep.Add("dist.gather_ms", Median(gather_ms), "ms");
    rep.Add("dist.candidates_per_query", Mean(candidates), "count");
    std::set<uint32_t> uniq;
    for (const ir::Query& q : queries) {
      uniq.insert(q.terms.begin(), q.terms.end());
    }
    rep.Add("compress.decode_gbps",
            DecodeGbps(*cluster->node_db(0).index(),
                       std::vector<uint32_t>(uniq.begin(), uniq.end()), 0.2,
                       &tracer),
            "GB/s");
    const double p50_traced =
        MedianOf(QuietChunks(traced_chunks), &Chunk::p50);
    rep.Add("bench.query_p50_ms.traced", p50_traced, "ms");
    rep.Add("bench.trace_overhead_ms", p50_traced - p50, "ms");
    rep.Info("query_p50_ms.untraced", p50, "ms");
    rep.Info("traced_queries", static_cast<double>(served.served), "count");
    tracer.WriteJsonl(opts.data_dir + "/dist_scatter.spans.jsonl");
  }
  return rep;
}

}  // namespace e2e
