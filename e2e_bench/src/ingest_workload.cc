// ingest_mixed: writes competing with reads on an on-disk database.
//
// Two closed-loop writer threads run AddDocument and DeleteDocument at a
// fixed 4:1 ratio; every call is an acknowledged write (the WAL is on, in
// its default group-commit mode, so the call returns once an fsync covers
// it). Each time kMergeEveryAdds documents have been added since the last
// merge started, the adding writer fires StartMerge (the previous merge
// must have finished; otherwise the next add retries). Meanwhile
// open-loop Zipf-popular BM25 reads go through QueryService with the
// result cache on, so every write's epoch bump invalidates it.
//
// Checks: no result holds a docid whose delete was acknowledged before
// the query was submitted, and every added docid a result holds was
// acknowledged by the end of the run and had been submitted before the
// response; after the run the live document count equals the initial
// count plus acknowledged adds minus acknowledged deletes; and a reopen
// (WAL replay) answers a fixed query batch bit-identically to the
// database before close.
#include <atomic>
#include <filesystem>
#include <set>
#include <thread>
#include <unordered_map>

#include "bench/bench_util.h"
#include "bench_core.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "open_loop.h"
#include "server/query_service.h"

namespace e2e {
namespace {

constexpr uint32_t kWriters = 2;
constexpr uint32_t kServiceWorkers = 1;
constexpr double kReadRate = 1000.0;
// Read popularity: Zipf(kZipfS) over kQueryPool seeded queries, flat
// enough (top query ~1%, top 100 ~17%) that the few queries a seed makes
// most popular do not set the read percentiles on their own.
constexpr uint32_t kQueryPool = 8000;
constexpr double kZipfS = 0.6;
constexpr uint32_t kMergeEveryAdds = 10000;
constexpr double kDeleteShare = 0.2;
constexpr uint32_t kCacheEntries = 4096;
constexpr uint32_t kReopenBatch = 50;
constexpr int kSetupRepeats = 3;
constexpr double kChunkSeconds = 0.5;
constexpr uint64_t kTracedIdBase = 1ull << 32;

void CheckOk(const Status& s, const char* what) { bench::CheckOk(s, what); }

struct WriteOp {
  bool add = false;
  int32_t docid = -1;
  int64_t start_ns = 0;  // absolute steady-clock ns
  int64_t ack_ns = 0;
  uint32_t distinct_terms = 0;
  bool ok = false;
};

// One ingest document: 30-80 term occurrences, skewed toward the head of
// the vocabulary the way the query generator skews its terms (so the new
// documents actually show up in query results).
std::vector<uint32_t> MakeDoc(Rng* rng, uint32_t vocab) {
  const uint32_t len = 30 + static_cast<uint32_t>(rng->NextBounded(51));
  const uint32_t head = vocab > 64 ? 8 : 0;
  std::vector<uint32_t> terms(len);
  for (uint32_t& t : terms) {
    const double u = rng->NextDouble();
    t = head + static_cast<uint32_t>(u * u * u * static_cast<double>(vocab - head));
    t = std::min(t, vocab - 1);
  }
  return terms;
}

uint32_t DistinctTerms(std::vector<uint32_t> terms) {
  std::sort(terms.begin(), terms.end());
  return static_cast<uint32_t>(std::unique(terms.begin(), terms.end()) -
                               terms.begin());
}

}  // namespace

Report RunIngestMixed(const RunOptions& opts) {
  Report rep;
  const bool tiny = bench::Scale() == bench::BenchScale::kTiny;
  Tracer tracer(opts.trace);
  const std::string dir = opts.data_dir + "/ingest_mixed";
  core::DatabaseOptions dbopts;
  dbopts.dir = dir;
  dbopts.corpus = bench::BenchCorpusOptions();
  dbopts.storage = bench::BenchStorageOptions();
  dbopts.storage.shards = 2;
  dbopts.storage.wal.enabled = true;
  dbopts.storage.wal.mode = storage::WalSyncMode::kGroupCommit;
  server::QueryServiceOptions sopts;
  sopts.num_threads = kServiceWorkers;
  sopts.max_pending = 4096;
  sopts.result_cache_entries = kCacheEntries;
  const double read_rate = tiny ? kReadRate / 4.0 : kReadRate;
  const uint32_t merge_every = tiny ? kMergeEveryAdds / 10 : kMergeEveryAdds;

  // ---- Set-up (median of kSetupRepeats fresh builds; last one kept). ----
  std::unique_ptr<core::Database> db;
  std::unique_ptr<server::QueryService> service;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    db.reset();
    std::filesystem::remove_all(dir);
    const int64_t t0 = NowNs();
    auto d = std::make_unique<core::Database>();
    {
      ScopedSpan span(&tracer, "Database::Open", 0, 0);
      CheckOk(d->Open(dbopts), "open database");
    }
    auto svc = std::make_unique<server::QueryService>();
    CheckOk(svc->Start(d.get(), sopts), "start service");
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    db = std::move(d);
    service = std::move(svc);
  }
  const uint32_t n0 = db->corpus().num_docs();
  const uint32_t vocab = db->corpus().vocab_size();
  uint64_t postings0 = 0;
  for (uint32_t d = 0; d < n0; ++d) postings0 += db->corpus().doc(d).size();

  // ---- Reads: a seeded pool with Zipf popularity. ----------------------
  ir::QueryGenOptions qopts;
  qopts.num_eval_queries = 0;
  qopts.num_efficiency_queries = tiny ? 200 : kQueryPool;
  qopts.seed = opts.seed;
  std::vector<server::QueryRequest> requests;
  for (const ir::Query& q :
       ir::QueryGenerator(db->corpus(), qopts).EfficiencyQueries()) {
    server::QueryRequest r;
    r.query = q;
    r.run = ir::RunType::kBm25;
    requests.push_back(r);
  }
  ZipfPicker zipf(requests.size(), kZipfS);
  auto pick = [&zipf](Rng* rng) {
    return static_cast<uint32_t>(zipf.Pick(rng->NextDouble()));
  };

  // ---- Deletions: a seeded shuffle of the base docids, dealt out to the
  // writers so no docid is ever deleted twice. ---------------------------
  std::vector<int32_t> victims(n0);
  for (uint32_t d = 0; d < n0; ++d) victims[d] = static_cast<int32_t>(d);
  {
    Rng perm(opts.seed ^ 0xDE1E7Eull);
    for (size_t i = victims.size(); i > 1; --i) {
      std::swap(victims[i - 1], victims[perm.NextBounded(i)]);
    }
  }

  // ---- Merge control. ----------------------------------------------------
  // Writers fire StartMerge; the read generator notices completion in its
  // idle time (merge_running() is a cheap locked read) and records the
  // merge's duration — no extra thread.
  std::atomic<uint64_t> adds_since_merge{0};
  std::atomic<int> merge_state{0};  // 0 idle, 1 starting, 2 running
  std::atomic<int64_t> merge_start_ns{0};
  std::vector<double> merge_s;  // generator thread only
  uint64_t merges_completed = 0;
  uint64_t merge_failures = 0;
  auto poll_merge = [&] {
    if (merge_state.load(std::memory_order_acquire) != 2) return;
    if (db->merge_running()) return;
    const Status s = db->WaitMerge();
    const int64_t end = NowNs();
    const int64_t start = merge_start_ns.load();
    tracer.Record("StartMerge->WaitMerge", start, end, 0, merges_completed);
    merge_s.push_back(static_cast<double>(end - start) * 1e-9);
    if (s.ok()) {
      ++merges_completed;
    } else {
      ++merge_failures;
    }
    merge_state.store(0, std::memory_order_release);
  };

  // ---- One measured chunk: writers and reads together. ------------------
  std::vector<std::vector<WriteOp>> writer_ops(kWriters);
  std::vector<size_t> victim_next(kWriters, 0);
  std::vector<Rng> writer_rng;
  for (uint32_t w = 0; w < kWriters; ++w) {
    writer_rng.emplace_back(opts.seed * 0x100000001B3ull + 0xADD0 + w);
  }
  Rng sched_rng(opts.seed ^ 0x1A9E57ull);
  struct ChunkResult {
    PhaseResult reads;
    uint64_t acked = 0;
    uint64_t write_failed = 0;
    double wall_s = 0.0;
    HostSample host;
    std::vector<double> ack_ms;
  };
  std::vector<uint64_t> delta_docs;  // traced: visible delta docs per query
  auto run_chunk = [&](double seconds, Tracer* tr, uint64_t id_base) {
    ChunkResult cr;
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    std::vector<size_t> first_op(kWriters);
    for (uint32_t w = 0; w < kWriters; ++w) first_op[w] = writer_ops[w].size();
    for (uint32_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        Rng& rng = writer_rng[w];
        while (!stop.load(std::memory_order_relaxed)) {
          WriteOp op;
          const bool del = rng.NextDouble() < kDeleteShare &&
                           w + kWriters * victim_next[w] < victims.size();
          if (del) {
            op.docid = victims[w + kWriters * victim_next[w]++];
            op.start_ns = NowNs();
            const Status s = db->DeleteDocument(op.docid);
            op.ack_ns = NowNs();
            op.ok = s.ok();
          } else {
            std::vector<uint32_t> doc = MakeDoc(&rng, vocab);
            op.add = true;
            op.distinct_terms = DistinctTerms(doc);
            op.start_ns = NowNs();
            const Status s = db->AddDocument(doc, &op.docid);
            op.ack_ns = NowNs();
            op.ok = s.ok();
          }
          if (tr != nullptr) {
            tr->Record(op.add ? "Database::AddDocument"
                              : "Database::DeleteDocument",
                       op.start_ns, op.ack_ns, 0, static_cast<uint64_t>(op.docid));
          }
          writer_ops[w].push_back(op);
          if (op.add && op.ok &&
              adds_since_merge.fetch_add(1) + 1 >= merge_every) {
            int idle = 0;
            if (merge_state.compare_exchange_strong(idle, 1)) {
              adds_since_merge.store(0);
              merge_start_ns.store(NowNs());
              if (db->StartMerge().ok()) {
                merge_state.store(2, std::memory_order_release);
              } else {
                merge_state.store(0);
              }
            }
          }
        }
      });
    }
    PhaseConfig cfg;
    cfg.requests = &requests;
    cfg.arrivals = PoissonSchedule(read_rate, seconds, &sched_rng, pick);
    cfg.keep_docids = true;
    cfg.tracer = tr;
    cfg.request_id_base = id_base;
    cfg.idle_hook = poll_merge;
    if (tr != nullptr) {
      cfg.pre_submit = [&](size_t) {
        std::shared_ptr<const ir::Snapshot> snap = db->Acquire();
        uint64_t visible = 0;
        for (const ir::Snapshot::DeltaRead& d : snap->deltas) {
          visible += d.visible;
        }
        delta_docs.push_back(visible);
      };
    }
    // Steal only, no reference probe: a background merge can run across
    // chunk boundaries, so a probe here would time the program too.
    const uint64_t steal0 = StealTicks();
    const int64_t t0 = NowNs();
    cr.reads = RunOpenLoop(service.get(), cfg);
    stop.store(true);
    for (std::thread& t : writers) t.join();
    cr.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
    cr.host.steal = StealTicks() - steal0;
    for (uint32_t w = 0; w < kWriters; ++w) {
      for (size_t i = first_op[w]; i < writer_ops[w].size(); ++i) {
        const WriteOp& op = writer_ops[w][i];
        if (op.ok) {
          ++cr.acked;
          cr.ack_ms.push_back(static_cast<double>(op.ack_ns - op.start_ns) * 1e-6);
        } else {
          ++cr.write_failed;
        }
      }
    }
    return cr;
  };

  // ---- Measurement. -----------------------------------------------------
  // Untraced runs measure back-to-back chunks; traced runs alternate an
  // untraced chunk with a traced one (the tracing overhead comparison).
  std::vector<ChunkResult> chunks, traced_chunks;
  const storage::WalStats wal0 = db->wal_stats();
  const server::ServiceStats svc0 = service->stats();
  const uint64_t wbytes0 = ProcWriteBytes();
  uint64_t traced_merges0 = 0;
  const int64_t end_ns = NowNs() + static_cast<int64_t>(opts.seconds * 1e9);
  storage::WalStats wal_t{};
  server::ServiceStats svc_t{};
  uint64_t wbytes_t = 0;
  for (uint64_t c = 0; c == 0 || NowNs() < end_ns; ++c) {
    chunks.push_back(run_chunk(kChunkSeconds, nullptr, c << 24));
    if (opts.trace) {
      const storage::WalStats wa = db->wal_stats();
      const server::ServiceStats sa = service->stats();
      const uint64_t ba = ProcWriteBytes();
      const uint64_t ma = merges_completed;
      traced_chunks.push_back(
          run_chunk(kChunkSeconds, &tracer, kTracedIdBase + (c << 24)));
      const storage::WalStats wb = db->wal_stats();
      const server::ServiceStats sb = service->stats();
      wal_t.fsyncs += wb.fsyncs - wa.fsyncs;
      wal_t.batches += wb.batches - wa.batches;
      wal_t.batch_records_sum += wb.batch_records_sum - wa.batch_records_sum;
      svc_t.cache_hits += sb.cache_hits - sa.cache_hits;
      svc_t.cache_misses += sb.cache_misses - sa.cache_misses;
      svc_t.cache_invalidations +=
          sb.cache_invalidations - sa.cache_invalidations;
      wbytes_t += ProcWriteBytes() - ba;
      traced_merges0 += merges_completed - ma;
    }
  }
  // Let a running merge finish (its duration is recorded), then quiesce.
  while (merge_state.load() == 1) std::this_thread::yield();
  if (merge_state.load() == 2) {
    while (db->merge_running()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    poll_merge();
  }
  service->Drain();
  double decode_gbps = 0.0;
  if (opts.trace) {
    std::set<uint32_t> uniq;
    for (const server::QueryRequest& r : requests) {
      uniq.insert(r.query.terms.begin(), r.query.terms.end());
    }
    decode_gbps = DecodeGbps(*db->index(),
                             std::vector<uint32_t>(uniq.begin(), uniq.end()),
                             0.2, &tracer);
  }
  const storage::WalStats wal1 = db->wal_stats();
  const server::ServiceStats svc1 = service->stats();
  const uint64_t wbytes1 = ProcWriteBytes();

  // ---- Correctness. -----------------------------------------------------
  // Every write, keyed by docid.
  std::unordered_map<int32_t, const WriteOp*> adds, deletes;
  uint64_t acked_adds = 0, acked_deletes = 0, write_failed = 0;
  uint64_t postings_added = 0, postings_deleted = 0;
  for (const auto& ops : writer_ops) {
    for (const WriteOp& op : ops) {
      if (!op.ok) {
        ++write_failed;
        continue;
      }
      if (op.add) {
        adds[op.docid] = &op;
        ++acked_adds;
        postings_added += op.distinct_terms;
      } else {
        deletes[op.docid] = &op;
        ++acked_deletes;
        postings_deleted += db->corpus().doc(static_cast<uint32_t>(op.docid)).size();
      }
    }
  }
  WriteOp fake_delete;
  uint64_t violations = 0;
  std::string first_violation;
  auto violation = [&](const std::string& what) {
    if (violations++ == 0) first_violation = what;
  };
  auto check_reads = [&](const ChunkResult& cr, int64_t base_ns) {
    for (const Outcome& o : cr.reads.outcomes) {
      if (!o.ok()) continue;
      const int64_t submit = base_ns + o.submit_ns;
      const int64_t done = base_ns + o.done_ns;
      for (int32_t d : o.docids) {
        if (opts.inject_fault == "deleted_visible" && fake_delete.docid < 0) {
          // Self-test: claim the first returned docid had been deleted
          // (and acknowledged) long before this query.
          fake_delete.docid = d;
          fake_delete.ok = true;
          fake_delete.start_ns = fake_delete.ack_ns = 0;
          deletes[d] = &fake_delete;
        }
        auto del = deletes.find(d);
        if (del != deletes.end() && del->second->ack_ns < submit) {
          violation(StrFormat("docid %d returned after its delete was "
                              "acknowledged",
                              d));
        }
        if (d >= static_cast<int32_t>(n0)) {
          auto add = adds.find(d);
          if (add == adds.end()) {
            violation(StrFormat("docid %d returned but never acknowledged", d));
          } else if (add->second->start_ns > done) {
            violation(StrFormat("docid %d returned before it was added", d));
          }
        }
      }
    }
  };
  for (const std::vector<ChunkResult>* set : {&chunks, &traced_chunks}) {
    for (const ChunkResult& cr : *set) check_reads(cr, cr.reads.t0_ns);
  }
  if (violations > 0) {
    rep.Fail(StrFormat("%llu result docids violate the write order (first: %s)",
                       static_cast<unsigned long long>(violations),
                       first_violation.c_str()));
  }

  const uint64_t expect_live = n0 + acked_adds - acked_deletes +
                               (opts.inject_fault == "live_count" ? 1 : 0);
  const uint64_t live = db->Acquire()->stats->num_docs;
  if (live != expect_live) {
    rep.Fail(StrFormat("live documents %llu, expected %llu (initial %u + "
                       "acked adds %llu - acked deletes %llu)",
                       static_cast<unsigned long long>(live),
                       static_cast<unsigned long long>(expect_live), n0,
                       static_cast<unsigned long long>(acked_adds),
                       static_cast<unsigned long long>(acked_deletes)));
  }

  // On-disk bytes per live posting held on disk: live documents still in
  // the in-memory delta are left out, so the figure does not move with
  // where in its merge cycle the run ended.
  const uint64_t live_postings = postings0 + postings_added - postings_deleted;
  uint64_t delta_postings = 0;
  for (const ir::Snapshot::DeltaRead& d : db->Acquire()->deltas) {
    const uint64_t* bits =
        d.tombstones != nullptr ? d.tombstones->data() : nullptr;
    for (uint32_t local = 0; local < d.visible; ++local) {
      if (bits != nullptr && ((bits[local / 64] >> (local % 64)) & 1)) {
        continue;
      }
      delta_postings += d.delta->doc(local).size();
    }
  }
  const double bytes_per_posting =
      Ratio(static_cast<double>(DirBytes(dir, "wal_")),
            static_cast<double>(live_postings - delta_postings));

  // Reopen: WAL replay must reproduce the pre-close answers bit for bit.
  std::vector<ir::SearchResult> before(std::min<size_t>(kReopenBatch,
                                                        requests.size()));
  for (size_t i = 0; i < before.size(); ++i) {
    ScopedSpan span(&tracer, "Database::Search", 0, i);
    CheckOk(db->Search(requests[i].query, requests[i].run, requests[i].opts,
                       &before[i]),
            "pre-close search");
  }
  if (opts.inject_fault == "reopen_row" && !before.empty()) {
    before[0].docids.push_back(-1);
  }
  service->Stop();
  service.reset();
  db.reset();
  {
    auto reopened = std::make_unique<core::Database>();
    {
      ScopedSpan span(&tracer, "Database::Open", 0, 1);
      CheckOk(reopened->Open(dbopts), "reopen database");
    }
    uint64_t diffs = 0;
    for (size_t i = 0; i < before.size(); ++i) {
      ir::SearchResult after;
      ScopedSpan span(&tracer, "Database::Search", 0, i);
      CheckOk(reopened->Search(requests[i].query, requests[i].run,
                               requests[i].opts, &after),
              "post-reopen search");
      diffs += SameResult(after, before[i]) ? 0 : 1;
    }
    if (diffs > 0) {
      rep.Fail(StrFormat("%llu of %zu queries answer differently after a "
                         "reopen (WAL replay)",
                         static_cast<unsigned long long>(diffs),
                         before.size()));
    }
    if (reopened->Acquire()->stats->num_docs != live) {
      rep.Fail(StrFormat("live document count changed across a reopen: %llu -> %u", (unsigned long long)live, reopened->Acquire()->stats->num_docs));
    }
  }
  if (merge_failures > 0) {
    rep.Fail(StrFormat("%llu merges failed",
                       static_cast<unsigned long long>(merge_failures)));
  }

  // ---- Figures: the chunks the host left alone (bench_core.h). --------
  auto figures = [](const ChunkResult& cr) {
    std::vector<double> lag;
    for (const Outcome& o : cr.reads.outcomes) lag.push_back(o.lag_ms());
    Chunk c = ChunkOf(Latencies(cr.reads), lag, cr.host);
    c.per_s = Ratio(static_cast<double>(cr.acked), cr.wall_s);
    return c;
  };
  std::vector<Chunk> figs;
  std::vector<double> ack_all;
  uint64_t reads = 0, read_failed = 0, acked = 0;
  for (const ChunkResult& cr : chunks) {
    figs.push_back(figures(cr));
    reads += cr.reads.outcomes.size();
    read_failed += FailedCount(cr.reads);
    acked += cr.acked;
    ack_all.insert(ack_all.end(), cr.ack_ms.begin(), cr.ack_ms.end());
  }
  const std::vector<Chunk> quiet = QuietChunks(figs);
  const double lag_p99 = MedianOf(figs, &Chunk::lag_p99);
  rep.attempted = reads + acked + write_failed;
  rep.failed = read_failed + write_failed;

  rep.Header("offered_qps", StrFormat("%.1f", read_rate));
  rep.Header("service_workers", StrFormat("%u", kServiceWorkers));
  rep.Header("writers", StrFormat("%u", kWriters));
  rep.Header("delete_share", StrFormat("%.2f", kDeleteShare));
  rep.Header("merge_every_adds", StrFormat("%u", merge_every));
  rep.Header("result_cache_entries", StrFormat("%u", kCacheEntries));
  rep.Header("pool_bytes", StrFormat("%llu", static_cast<unsigned long long>(
                                                 dbopts.storage.pool_bytes)));
  rep.Header("page_bytes", StrFormat("%u", dbopts.storage.page_bytes));
  rep.Header("wal", StrFormat("\"group_commit, window %u us\"",
                              dbopts.storage.wal.group_window_us));

  const double docs_per_s = MedianOf(quiet, &Chunk::per_s);
  const double p50 = MedianOf(quiet, &Chunk::p50);
  if (!opts.trace) {
    rep.Add("query_p50_ms", p50, "ms");
    rep.Add("query_p99_ms", MedianOf(quiet, &Chunk::p99), "ms");
    rep.Info("query_p99_ms.pooled", PooledPercentile(quiet, 0.99), "ms");
    rep.Add("throughput_per_s", docs_per_s, "1/s");
    rep.Add("ok_ratio", 1.0 - Ratio(rep.failed, rep.attempted), "ratio");
    rep.Add("setup_s", Median(setup_s), "s");
    rep.Add("bytes_per_posting", bytes_per_posting, "B");
    rep.Add("peak_rss_mb", PeakRssMb(), "MB");
    rep.Info("query_samples", static_cast<double>(reads), "count");
    rep.Info("ingest_docs_per_s", docs_per_s, "1/s");
    rep.Info("ack_p50_ms", Percentile(ack_all, 0.5), "ms");
    rep.Info("ack_p99_ms", Percentile(ack_all, 0.99), "ms");
    rep.Info("ack_samples", static_cast<double>(ack_all.size()), "count");
    rep.Info("acked_adds", static_cast<double>(acked_adds), "count");
    rep.Info("acked_deletes", static_cast<double>(acked_deletes), "count");
    rep.Info("merges_completed", static_cast<double>(merges_completed), "count");
    rep.Info("error_ratio", Ratio(rep.failed, rep.attempted), "ratio");
    rep.Info("server.cache_hit_ratio",
             Ratio(static_cast<double>(svc1.cache_hits - svc0.cache_hits),
                   static_cast<double>(svc1.cache_hits - svc0.cache_hits +
                                       svc1.cache_misses - svc0.cache_misses)),
             "ratio");
    rep.Info("wal_fsyncs", static_cast<double>(wal1.fsyncs - wal0.fsyncs),
             "count");
    rep.Info("write_bytes", static_cast<double>(wbytes1 - wbytes0), "B");
    rep.Info("bench.generator_lag_p99_ms", lag_p99, "ms");
  } else {
    ServedStats served;
    uint64_t traced_acked = 0, traced_reads = 0, traced_failed = 0;
    std::vector<Chunk> traced_figs;
    for (const ChunkResult& cr : traced_chunks) {
      CollectServed(tracer, cr.reads, cr.reads.id_base, &served);
      traced_acked += cr.acked;
      traced_reads += cr.reads.outcomes.size();
      traced_failed += FailedCount(cr.reads);
      traced_figs.push_back(figures(cr));
    }
    AddServedMetrics(served, &rep);
    rep.Add("compress.decode_gbps", decode_gbps, "GB/s");
    std::vector<double> dd(delta_docs.begin(), delta_docs.end());
    rep.Add("ir.delta_docs_per_query", Mean(dd), "count");
    rep.Add("ir.merge_s", Mean(merge_s), "s");
    rep.Add("ir.merges_completed", static_cast<double>(traced_merges0), "count");
    rep.Add("storage.wal_fsyncs_per_ack",
            Ratio(static_cast<double>(wal_t.fsyncs),
                  static_cast<double>(traced_acked)),
            "ratio");
    rep.Add("storage.wal_batch_mean",
            Ratio(static_cast<double>(wal_t.batch_records_sum),
                  static_cast<double>(wal_t.batches)),
            "count");
    rep.Add("storage.write_bytes_per_doc",
            Ratio(static_cast<double>(wbytes_t),
                  static_cast<double>(traced_acked)),
            "B");
    rep.Add("server.shed_ratio",
            Ratio(static_cast<double>(traced_failed),
                  static_cast<double>(traced_reads)),
            "ratio");
    rep.Add("server.cache_hit_ratio",
            Ratio(static_cast<double>(svc_t.cache_hits),
                  static_cast<double>(svc_t.cache_hits + svc_t.cache_misses)),
            "ratio");
    rep.Add("server.cache_invalidations_per_write",
            Ratio(static_cast<double>(svc_t.cache_invalidations),
                  static_cast<double>(traced_acked)),
            "ratio");
    const double p50_traced =
        MedianOf(QuietChunks(traced_figs), &Chunk::p50);
    rep.Add("bench.query_p50_ms.traced", p50_traced, "ms");
    rep.Add("bench.trace_overhead_ms", p50_traced - p50, "ms");
    rep.Add("bench.generator_lag_p99_ms", lag_p99, "ms");
    rep.Info("query_p50_ms.untraced", p50, "ms");
    rep.Info("merge_samples", static_cast<double>(merge_s.size()), "count");
    tracer.WriteJsonl(opts.data_dir + "/ingest_mixed.spans.jsonl");
  }
  if (lag_p99 > kMaxGeneratorLagP99Ms) {
    rep.invalid = StrFormat("generator lag p99 %.3f ms exceeds the stated "
                            "%.1f ms",
                            lag_p99, kMaxGeneratorLagP99Ms);
  }
  return rep;
}

}  // namespace e2e
