// hot_ranked and cold_storage: read-only open-loop workloads through
// server::QueryService.
//
//   hot_ranked    in-memory compressed index; 80% BM25 (Block-Max
//                 MaxScore), 15% BoolAND, 5% BoolOR, drawn uniformly from
//                 a seeded efficiency batch; result cache off.
//   cold_storage  BM25T / BM25TC / BM25TCM / BM25TCMQ8 served through a
//                 buffer pool far smaller than the columns the mix
//                 touches; Zipf-popular queries; result cache off; each
//                 response's latency includes the simulated-disk time
//                 charged to it.
//
// Both measure short fixed-rate chunks (the latency figures) interleaved
// with the rungs of a fixed rate ladder (the highest rate whose p99 meets
// the workload's limit without a growing backlog: max_qps_at_slo). Every
// OK response is compared bit for bit with a serial fault-free
// Database::Search of the same request, computed before any timing.
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench_core.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "ir/index_meta.h"
#include "open_loop.h"
#include "server/query_service.h"

namespace e2e {
namespace {

struct RunMix {
  ir::RunType run;
  double weight;
};

struct ReadSpec {
  const char* name;
  std::vector<RunMix> mix;
  double zipf_s;       // popularity exponent over the request pool; 0 = uniform
  uint32_t pool_queries;
  double rate_qps;     // fixed offered rate (tiny scale: scaled down)
  double slo_p99_ms;   // ladder limit on query_p99_ms
  double ladder_start; // first rung, as a multiple of rate_qps
  uint32_t workers;
  uint64_t pool_bytes; // buffer pool; 0 = the bench profile's default
};

// The rate ladder: rung j offers rate_qps * kRungStep * j queries/s. The
// search strides kCoarse rungs at a time, then bisects (class Ladder).
constexpr double kRungStep = 0.025;
constexpr int kCoarse = 16;
constexpr double kStepSeconds = 1.0;
// Fixed-rate measurement chunks last for about this many arrivals, and at
// least kMinChunkSeconds: short enough that the host ranking can pick out
// the quiet moments, while the pooled quiet quarter still holds many
// thousands of samples.
constexpr double kChunkArrivals = 1000.0;
constexpr double kMinChunkSeconds = 0.1;
// A rung's p99 is the median of the p99s of this many consecutive slices
// of its arrivals (one vCPU stall then fails one slice, not the rung).
constexpr size_t kStepWindows = 5;
// A failing rung measured while the host stole more than this many ticks
// (10 ms each, all CPUs) is tried again.
constexpr int kRungAttempts = 3;
constexpr double kBacklogMs = 20.0;
constexpr uint64_t kRungStealTicks = 2;
// Query class edges on the longest posting list's document frequency, as
// a share of the collection (BENCHMARK.json's hot_ranked entry states
// them too).
constexpr double kRareDfShare = 0.01;
constexpr double kHeadDfShare = 0.10;
constexpr int kSetupRepeats = 3;
constexpr uint64_t kTracedIdBase = 1ull << 32;

ReadSpec HotSpec() {
  return {"hot_ranked",
          {{ir::RunType::kBm25, 0.80},
           {ir::RunType::kBoolAnd, 0.15},
           {ir::RunType::kBoolOr, 0.05}},
          /*zipf_s=*/0.0,
          /*pool_queries=*/16000,
          /*rate_qps=*/11000.0,
          /*slo_p99_ms=*/10.0,
          /*ladder_start=*/1.5,
          /*workers=*/3,
          /*pool_bytes=*/0};
}

ReadSpec ColdSpec() {
  return {"cold_storage",
          {{ir::RunType::kBm25T, 0.25},
           {ir::RunType::kBm25TC, 0.25},
           {ir::RunType::kBm25TCM, 0.25},
           {ir::RunType::kBm25TCMQ8, 0.25}},
          /*zipf_s=*/0.6,
          /*pool_queries=*/8000,
          /*rate_qps=*/4000.0,
          /*slo_p99_ms=*/1000.0,
          /*ladder_start=*/3.0,
          /*workers=*/3,
          /*pool_bytes=*/8u << 20};
}

void CheckOk(const Status& s, const char* what) { bench::CheckOk(s, what); }

// The column files a storage run reads (index_meta.h names), for the
// touched-bytes header figure.
std::vector<const char*> RunColumnFiles(ir::RunType type) {
  switch (type) {
    case ir::RunType::kBm25T:
      return {ir::kDocidRawFile, ir::kTfRawFile};
    case ir::RunType::kBm25TC:
      return {ir::kDocidCompressedFile, ir::kTfCompressedFile};
    case ir::RunType::kBm25TCM:
      return {ir::kDocidCompressedFile, ir::kScoreF32File};
    case ir::RunType::kBm25TCMQ8:
      return {ir::kDocidCompressedFile, ir::kScoreQ8File};
    default:
      return {};
  }
}

struct Workload {
  std::unique_ptr<core::Database> db;
  std::unique_ptr<server::QueryService> service;
  std::vector<server::QueryRequest> requests;
  std::vector<ir::SearchResult> oracle;
  std::unique_ptr<ZipfPicker> zipf;
  std::vector<uint32_t> popularity_order;  // rank -> request index
  double rate = 0.0;
  double slo_ms = 0.0;

  uint32_t Pick(Rng* rng) const {
    const double u = rng->NextDouble();
    if (zipf == nullptr) {
      return static_cast<uint32_t>(u * static_cast<double>(requests.size())) %
             static_cast<uint32_t>(requests.size());
    }
    return popularity_order[zipf->Pick(u)];
  }
};

struct StepRow {
  double rate = 0.0;
  bool pass = false;
  double p99_ms = 0.0;
  size_t samples = 0;
  uint64_t failed = 0;
  bool backlog = false;
  int attempts = 0;
};

// A growing backlog shows as queries piling up faster than they finish:
// when the step's last tenth of arrivals find, on median, more than
// kBacklogMs of arrivals still in flight, the service did not keep up. (A
// vCPU stall of a few ms on the shared host leaves a short, draining pile;
// it does not fail the rung on its own.)
bool BacklogGrew(const PhaseResult& phase, double rate) {
  const size_t n = phase.outcomes.size();
  if (n < 20) return false;
  std::vector<double> tail;
  for (size_t i = n - n / 10; i < n; ++i) {
    tail.push_back(phase.outcomes[i].inflight_at_submit);
  }
  return Median(tail) > rate * kBacklogMs * 1e-3;
}

// One phase's figures as a measurement chunk.
Chunk Figures(const PhaseResult& ph, const HostSample& host) {
  std::vector<double> lag;
  for (const Outcome& o : ph.outcomes) lag.push_back(o.lag_ms());
  return ChunkOf(Latencies(ph), lag, host);
}

// Searches the fixed rung ladder for the highest passing rung: up from the
// start rung in coarse strides until one fails, then bisects between the
// highest pass (rate 0 passes trivially) and the lowest failure. If the
// run ends first, best() is the highest rung seen to pass.
class Ladder {
 public:
  explicit Ladder(int start) : next_(start) {}

  bool done() const { return done_; }
  int next() const { return next_; }
  int best() const { return lo_; }

  void Record(int rung, bool pass) {
    if (pass) {
      lo_ = std::max(lo_, rung);
    } else {
      hi_ = hi_ < 0 ? rung : std::min(hi_, rung);
    }
    if (hi_ < 0) {
      next_ = rung + kCoarse;
    } else if (hi_ - lo_ <= 1) {
      done_ = true;
    } else {
      next_ = (lo_ + hi_) / 2;
    }
  }

 private:
  int next_;
  int lo_ = 0;   // highest passing rung
  int hi_ = -1;  // lowest failing rung
  bool done_ = false;
};

Report RunRead(const ReadSpec& spec, const RunOptions& opts) {
  Report rep;
  const bool tiny = bench::Scale() == bench::BenchScale::kTiny;
  Workload w;
  w.rate = tiny ? spec.rate_qps / 4.0 : spec.rate_qps;
  w.slo_ms = spec.slo_p99_ms;
  Tracer tracer(opts.trace);

  // ---- Set-up: corpus generation + fresh index build + service start,
  // repeated; the median is setup_s and the last one is kept. ----------
  const std::string dir = opts.data_dir + "/" + spec.name;
  core::DatabaseOptions dbopts;
  dbopts.dir = dir;
  dbopts.corpus = bench::BenchCorpusOptions();
  dbopts.storage = bench::BenchStorageOptions();
  dbopts.storage.shards = 2 * spec.workers;
  if (spec.pool_bytes != 0) {
    dbopts.storage.pool_bytes = tiny ? spec.pool_bytes / 8 : spec.pool_bytes;
  }
  server::QueryServiceOptions sopts;
  sopts.num_threads = spec.workers;
  sopts.max_pending = 4096;
  sopts.result_cache_entries = 0;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    w.service.reset();
    w.db.reset();
    std::filesystem::remove_all(dir);
    const int64_t t0 = NowNs();
    auto db = std::make_unique<core::Database>();
    {
      ScopedSpan span(&tracer, "Database::Open", 0, 0);
      CheckOk(db->Open(dbopts), "open database");
    }
    auto service = std::make_unique<server::QueryService>();
    CheckOk(service->Start(db.get(), sopts), "start service");
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    w.db = std::move(db);
    w.service = std::move(service);
  }
  const core::Database& db = *w.db;
  const ir::InvertedIndex& index = *db.index();

  // ---- Requests (seeded) and the serial oracle. ----------------------
  ir::QueryGenOptions qopts;
  qopts.num_eval_queries = 0;
  qopts.num_efficiency_queries = tiny ? 400 : spec.pool_queries;
  qopts.seed = opts.seed;
  const std::vector<ir::Query> queries =
      ir::QueryGenerator(db.corpus(), qopts).EfficiencyQueries();
  Rng mix_rng(opts.seed * 0x9E3779B97F4A7C15ull + 17);
  for (const ir::Query& q : queries) {
    double u = mix_rng.NextDouble();
    ir::RunType run = spec.mix.back().run;
    for (const RunMix& m : spec.mix) {
      if (u < m.weight) {
        run = m.run;
        break;
      }
      u -= m.weight;
    }
    server::QueryRequest req;
    req.query = q;
    req.run = run;
    w.requests.push_back(req);
  }
  if (spec.zipf_s > 0.0) {
    w.zipf = std::make_unique<ZipfPicker>(w.requests.size(), spec.zipf_s);
    w.popularity_order.resize(w.requests.size());
    for (uint32_t i = 0; i < w.popularity_order.size(); ++i) {
      w.popularity_order[i] = i;
    }
    Rng perm(opts.seed ^ 0xC01Dull);
    for (size_t i = w.popularity_order.size(); i > 1; --i) {
      std::swap(w.popularity_order[i - 1],
                w.popularity_order[perm.NextBounded(i)]);
    }
  }
  w.oracle.resize(w.requests.size());
  for (size_t i = 0; i < w.requests.size(); ++i) {
    ScopedSpan span(&tracer, "Database::Search", 0, 0);
    CheckOk(db.Search(w.requests[i].query, w.requests[i].run,
                      w.requests[i].opts, &w.oracle[i]),
            "oracle search");
  }

  // Query classes: df bucket of the longest list, term-count bucket.
  const double n_docs = static_cast<double>(index.num_docs());
  std::vector<int> df_class(w.requests.size()), len_class(w.requests.size());
  for (size_t i = 0; i < w.requests.size(); ++i) {
    uint32_t max_df = 0;
    for (uint32_t t : w.requests[i].query.terms) {
      max_df = std::max(max_df, index.term(t).doc_freq);
    }
    df_class[i] = max_df < kRareDfShare * n_docs   ? 0
                  : max_df < kHeadDfShare * n_docs ? 1
                                                   : 2;
    len_class[i] = std::min<int>(
        static_cast<int>(w.requests[i].query.terms.size()), 3) - 1;
  }

  // Storage sizes for the header: pool vs the bytes of every column range
  // the request mix can touch.
  uint64_t touched_bytes = 0;
  if (spec.pool_bytes != 0) {
    std::set<std::pair<std::string, uint32_t>> seen;
    const double postings = static_cast<double>(index.num_postings());
    for (const server::QueryRequest& r : w.requests) {
      for (const char* file : RunColumnFiles(r.run)) {
        const double bytes_per_value =
            static_cast<double>(DirBytesNamed(dir, file)) / postings;
        for (uint32_t t : r.query.terms) {
          if (!seen.insert({file, t}).second) continue;
          touched_bytes += static_cast<uint64_t>(
              bytes_per_value * index.term(t).doc_freq);
        }
      }
    }
  }

  auto check = [&w](uint32_t req, const ir::SearchResult& got) {
    return SameResult(got, w.oracle[req]);
  };

  Rng sched_rng(opts.seed ^ 0x5C4EDull);
  auto pick = [&w](Rng* rng) { return w.Pick(rng); };

  auto run_phase = [&](double rate, double seconds, Tracer* tr,
                       uint64_t id_base) {
    PhaseConfig cfg;
    cfg.requests = &w.requests;
    cfg.arrivals = PoissonSchedule(rate, seconds, &sched_rng, pick);
    cfg.check = check;
    cfg.tracer = tr;
    cfg.request_id_base = id_base;
    return RunOpenLoop(w.service.get(), cfg);
  };

  // Warm-up (untimed): caches, pool, branch predictors, thread wake-ups.
  run_phase(w.rate, std::min(1.0, opts.seconds * 0.05), nullptr, 0);
  if (opts.inject_fault == "oracle_row") {
    // Self-test: corrupt the oracle row of the first request the measured
    // phase will submit. Regenerating that schedule from a copy of the
    // scheduler's stream names it exactly.
    Rng probe = sched_rng;
    const std::vector<Arrival> a =
        PoissonSchedule(w.rate, 0.05, &probe, pick);
    if (!a.empty()) w.oracle[a.front().req].docids.push_back(-1);
  }

  // ---- Measurement: fixed-rate chunks interleaved with ladder rungs
  // (untraced runs) or with traced fixed-rate chunks (traced runs), so
  // both spread over the whole run; figures come from the chunks the host
  // left alone (bench_core.h). A rung that fails while the host was
  // stealing time is tried again, up to kRungAttempts times: it fails only
  // when it also fails without steal, or every time. ---------------------
  std::vector<Chunk> fixed_chunks, traced_chunks;
  ServedStats served;
  storage::BufferStats buf_traced;
  auto disk_s = [&db] {
    return db.disk() != nullptr ? db.disk()->io_seconds() : 0.0;
  };
  double fixed_disk_s = 0.0, fixed_charged_s = 0.0;
  uint64_t fixed_ok = 0;
  uint64_t mismatches = 0;
  uint32_t bad_req = 0;
  auto account = [&](const PhaseResult& ph) {
    if (ph.mismatches > 0 && mismatches == 0) bad_req = ph.first_mismatch_req;
    mismatches += ph.mismatches;
  };
  auto timed_phase = [&](double rate, double seconds, Tracer* tr,
                         uint64_t id_base, HostSample* host) {
    const HostWatch watch;
    PhaseResult ph = run_phase(rate, seconds, tr, id_base);
    *host = watch.Finish();
    account(ph);
    return ph;
  };
  Ladder ladder(static_cast<int>(spec.ladder_start / kRungStep));
  std::vector<StepRow> steps;
  const double chunk_s = std::max(kMinChunkSeconds, kChunkArrivals / w.rate);
  const int64_t end_ns = NowNs() + static_cast<int64_t>(opts.seconds * 1e9);
  // The ladder never takes more of the run than the fixed-rate chunks, so
  // rung retries on a noisy host cannot starve the latency figures.
  int64_t fixed_ns = 0, ladder_ns = 0;
  for (uint64_t chunk = 0; chunk == 0 || NowNs() < end_ns; ++chunk) {
    HostSample host;
    const double d0 = disk_s();
    const int64_t f0 = NowNs();
    PhaseResult ph = timed_phase(w.rate, chunk_s, nullptr, 0, &host);
    fixed_ns += NowNs() - f0;
    fixed_disk_s += disk_s() - d0;
    for (const Outcome& o : ph.outcomes) {
      fixed_charged_s += o.io_s;
      fixed_ok += o.ok() ? 1 : 0;
    }
    fixed_chunks.push_back(Figures(ph, host));
    rep.attempted += ph.outcomes.size();
    rep.failed += FailedCount(ph);
    if (opts.trace) {
      const uint64_t base = kTracedIdBase + (chunk << 24);
      const storage::BufferStats b0 = db.buffer_stats();
      const double t_d0 = disk_s();
      PhaseResult tp = timed_phase(w.rate, chunk_s, &tracer, base, &host);
      served.disk_io_ms += (disk_s() - t_d0) * 1e3;
      const storage::BufferStats b1 = db.buffer_stats();
      traced_chunks.push_back(Figures(tp, host));
      CollectServed(tracer, tp, base, &served);
      buf_traced.hits += b1.hits - b0.hits;
      buf_traced.misses += b1.misses - b0.misses;
      buf_traced.evictions += b1.evictions - b0.evictions;
      buf_traced.bytes_fetched += b1.bytes_fetched - b0.bytes_fetched;
    } else if (!ladder.done() && ladder_ns <= fixed_ns) {
      const int64_t l0 = NowNs();
      const int rung = ladder.next();
      StepRow row;
      row.rate = w.rate * kRungStep * rung;
      for (int attempt = 0; attempt < kRungAttempts && !row.pass; ++attempt) {
        PhaseResult rp = timed_phase(row.rate, kStepSeconds, nullptr, 0, &host);
        row.samples = rp.outcomes.size();
        row.failed = FailedCount(rp);
        row.p99_ms = WindowedPercentile(Latencies(rp), 0.99, kStepWindows);
        row.backlog = BacklogGrew(rp, row.rate);
        row.pass = row.failed == 0 && row.p99_ms <= w.slo_ms && !row.backlog;
        row.attempts = attempt + 1;
        if (host.steal <= kRungStealTicks) break;
      }
      steps.push_back(row);
      ladder.Record(rung, row.pass);
      ladder_ns += NowNs() - l0;
    }
  }
  const double max_qps = w.rate * kRungStep * ladder.best();
  const double lag_p99 = MedianOf(fixed_chunks, &Chunk::lag_p99);
  const std::vector<Chunk> quiet = QuietChunks(fixed_chunks);

  if (mismatches > 0) {
    rep.Fail(StrFormat("%llu responses differ from the serial oracle "
                       "(first: request %u)",
                       static_cast<unsigned long long>(mismatches), bad_req));
  }

  // ---- Header. --------------------------------------------------------
  rep.Header("offered_qps", StrFormat("%.1f", w.rate));
  rep.Header("slo_p99_ms", StrFormat("%.3f", w.slo_ms));
  rep.Header("service_workers", StrFormat("%u", spec.workers));
  rep.Header("request_pool", StrFormat("%zu", w.requests.size()));
  rep.Header("pool_bytes", StrFormat("%llu", static_cast<unsigned long long>(
                                                 dbopts.storage.pool_bytes)));
  rep.Header("page_bytes", StrFormat("%u", dbopts.storage.page_bytes));
  rep.Header("touched_column_bytes",
             StrFormat("%llu", static_cast<unsigned long long>(touched_bytes)));
  rep.Header("wal", "\"n/a (read-only)\"");

  const uint64_t index_bytes = DirBytes(dir, "wal_");
  const double bytes_per_posting =
      Ratio(static_cast<double>(index_bytes),
            static_cast<double>(index.num_postings()));

  size_t samples = 0;
  for (const Chunk& c : quiet) samples += c.samples;
  const double p50 = MedianOf(quiet, &Chunk::p50);
  if (!opts.trace) {
    rep.Add("query_p50_ms", p50, "ms");
    rep.Add("query_p99_ms", MedianOf(quiet, &Chunk::p99), "ms");
    rep.Info("query_p99_ms.pooled", PooledPercentile(quiet, 0.99), "ms");
    rep.Add("throughput_per_s", max_qps, "1/s");
    rep.Add("ok_ratio", 1.0 - Ratio(rep.failed, rep.attempted), "ratio");
    rep.Add("setup_s", Median(setup_s), "s");
    rep.Add("bytes_per_posting", bytes_per_posting, "B");
    rep.Add("peak_rss_mb", PeakRssMb(), "MB");
    rep.Info("query_samples", static_cast<double>(samples), "count");
    rep.Info("query_chunks", static_cast<double>(quiet.size()), "count");
    rep.Info("query_chunks_run", static_cast<double>(fixed_chunks.size()),
             "count");
    rep.Info("query_p50_ms.all_chunks", MedianOf(fixed_chunks, &Chunk::p50),
             "ms");
    rep.Info("query_p99_ms.all_chunks", MedianOf(fixed_chunks, &Chunk::p99),
             "ms");
    uint64_t steal_all = 0, steal_quiet = 0;
    for (const Chunk& c : fixed_chunks) steal_all += c.steal;
    for (const Chunk& c : quiet) steal_quiet += c.steal;
    rep.Info("host_steal_ticks.all_chunks", static_cast<double>(steal_all),
             "count");
    rep.Info("host_steal_ticks.quiet_chunks", static_cast<double>(steal_quiet),
             "count");
    rep.Info("host_probe_ms.all_chunks", MedianOf(fixed_chunks, &Chunk::probe_ms),
             "ms");
    rep.Info("host_probe_ms.quiet_chunks", MedianOf(quiet, &Chunk::probe_ms),
             "ms");
    rep.Info("max_qps_at_slo", max_qps, "1/s");
    rep.Info("ladder_complete", ladder.done() ? 1.0 : 0.0, "bool");
    rep.Info("error_ratio", Ratio(rep.failed, rep.attempted), "ratio");
    rep.Info("bench.generator_lag_p99_ms", lag_p99, "ms");
    const double nq = static_cast<double>(std::max<uint64_t>(fixed_ok, 1));
    rep.Info("io_ms_per_query.charged", fixed_charged_s * 1e3 / nq, "ms");
    rep.Info("io_ms_per_query.disk_share", fixed_disk_s * 1e3 / nq, "ms");
    for (const StepRow& r : steps) {
      rep.Info(StrFormat("ladder.%.0f_qps.try%d.p99_ms%s%s", r.rate,
                         r.attempts, r.pass ? "" : ".FAIL",
                         r.backlog ? ".backlog" : ""),
               r.p99_ms, "ms");
    }
  } else {
    // Per-layer figures from the traced chunks.
    AddServedMetrics(served, &rep);
    std::vector<double> by_df[3], by_len[3];
    for (size_t i = 0; i < served.exec_ms.size(); ++i) {
      by_df[df_class[served.reqs[i]]].push_back(served.exec_ms[i]);
      by_len[len_class[served.reqs[i]]].push_back(served.exec_ms[i]);
    }
    const char* df_names[3] = {"rare", "medium", "head"};
    const char* len_names[3] = {"t1", "t2", "t3plus"};
    for (int c = 0; c < 3; ++c) {
      rep.Add(StrFormat("ir.exec_p50_ms.%s", df_names[c]),
              Percentile(by_df[c], 0.5), "ms");
      rep.Info(StrFormat("ir.exec_samples.%s", df_names[c]),
               static_cast<double>(by_df[c].size()), "count");
      rep.Add(StrFormat("ir.exec_p50_ms.%s", len_names[c]),
              Percentile(by_len[c], 0.5), "ms");
      rep.Info(StrFormat("ir.exec_samples.%s", len_names[c]),
               static_cast<double>(by_len[c].size()), "count");
    }
    const double nq = static_cast<double>(std::max<uint64_t>(served.served, 1));
    rep.Add("storage.pool_hit_ratio",
            Ratio(static_cast<double>(buf_traced.hits),
                  static_cast<double>(buf_traced.hits + buf_traced.misses)),
            "ratio");
    rep.Add("storage.evictions_per_query",
            static_cast<double>(buf_traced.evictions) / nq, "count");
    rep.Add("storage.bytes_fetched_per_query",
            static_cast<double>(buf_traced.bytes_fetched) / nq, "B");
    size_t traced_n = 0;
    for (const Chunk& c : traced_chunks) traced_n += c.samples;
    rep.Add("server.shed_ratio",
            Ratio(static_cast<double>(traced_n - served.served - served.cache_hits),
                  static_cast<double>(traced_n)),
            "ratio");
    std::set<uint32_t> uniq;
    for (const server::QueryRequest& r : w.requests) {
      uniq.insert(r.query.terms.begin(), r.query.terms.end());
    }
    rep.Add("compress.decode_gbps",
            DecodeGbps(index, std::vector<uint32_t>(uniq.begin(), uniq.end()),
                       0.2, &tracer),
            "GB/s");
    const double p50_traced =
        MedianOf(QuietChunks(traced_chunks), &Chunk::p50);
    rep.Add("bench.query_p50_ms.traced", p50_traced, "ms");
    rep.Add("bench.trace_overhead_ms", p50_traced - p50, "ms");
    rep.Add("bench.generator_lag_p99_ms", lag_p99, "ms");
    rep.Info("query_p50_ms.untraced", p50, "ms");
    rep.Info("traced_query_samples", static_cast<double>(traced_n), "count");
  }

  if (lag_p99 > kMaxGeneratorLagP99Ms) {
    rep.invalid = StrFormat("generator lag p99 %.3f ms exceeds the stated "
                            "%.1f ms",
                            lag_p99, kMaxGeneratorLagP99Ms);
  }
  if (opts.trace) {
    tracer.WriteJsonl(opts.data_dir + "/" + spec.name + ".spans.jsonl");
  }
  w.service->Stop();
  return rep;
}

}  // namespace

Report RunHotRanked(const RunOptions& opts) { return RunRead(HotSpec(), opts); }
Report RunColdStorage(const RunOptions& opts) {
  return RunRead(ColdSpec(), opts);
}

}  // namespace e2e
