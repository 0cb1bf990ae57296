#include "open_loop.h"

#include <atomic>
#include <thread>

#include "compress/codec.h"

namespace e2e {

namespace {

// Latency charged to a failed, shed or refused query: it missed any limit.
constexpr double kFailedLatencyMs = 1e9;

}  // namespace

std::vector<Arrival> PoissonSchedule(
    double rate, double seconds, Rng* rng,
    const std::function<uint32_t(Rng*)>& pick) {
  std::vector<Arrival> out;
  out.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  double t = ExpDraw(rng->NextDouble(), rate);
  while (t < seconds) {
    out.push_back({static_cast<int64_t>(t * 1e9), pick(rng)});
    t += ExpDraw(rng->NextDouble(), rate);
  }
  return out;
}

PhaseResult RunOpenLoop(server::QueryService* service,
                        const PhaseConfig& cfg) {
  PhaseResult res;
  const size_t n = cfg.arrivals.size();
  res.outcomes.resize(n);
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint32_t> first_bad{UINT32_MAX};

  const int64_t t0 = NowNs();
  res.t0_ns = t0;
  res.id_base = cfg.request_id_base;
  int64_t last_hook = 0;
  for (size_t i = 0; i < n; ++i) {
    const Arrival& a = cfg.arrivals[i];
    const int64_t target = t0 + a.due_ns;
    for (int64_t now = NowNs(); now < target; now = NowNs()) {
      if (cfg.idle_hook && now - last_hook > 500'000) {
        cfg.idle_hook();
        last_hook = NowNs();
        continue;
      }
      // Sleep only through long gaps: a halted vCPU can take milliseconds
      // to be rescheduled, so short gaps are spun out.
      if (target - now > 2'000'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(target - now - 1'000'000));
      } else {
        std::this_thread::yield();
      }
    }
    Outcome& o = res.outcomes[i];
    o.due_ns = a.due_ns;
    o.req = a.req;
    o.submit_ns = NowNs() - t0;
    o.inflight_at_submit =
        static_cast<uint32_t>(i - completed.load(std::memory_order_acquire));
    const uint64_t request_id = cfg.request_id_base + i;
    if (cfg.pre_submit) cfg.pre_submit(i);
    auto on_done = [&, i, request_id,
                    submit_thread = std::this_thread::get_id()](
                       server::QueryResponse r) {
      Outcome& out = res.outcomes[i];
      out.done_ns = NowNs() - t0;
      out.cache_hit = std::this_thread::get_id() == submit_thread;
      out.code = r.status.code();
      out.exec_s = r.result.seconds;
      out.io_s = r.result.io_seconds;
      out.num_matches = r.result.num_matches;
      out.second_pass = r.result.used_second_pass;
      out.stats = r.result.stats;
      if (r.status.ok() && cfg.check && !cfg.check(out.req, r.result)) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
        uint32_t expect = UINT32_MAX;
        first_bad.compare_exchange_strong(expect, out.req);
      }
      if (cfg.keep_docids) out.docids = std::move(r.result.docids);
      if (cfg.tracer != nullptr) {
        cfg.tracer->Record("QueryService::Submit", t0 + out.submit_ns,
                           t0 + out.done_ns, 0, request_id);
      }
      completed.fetch_add(1, std::memory_order_release);
    };
    Status s = service->Submit((*cfg.requests)[a.req], on_done);
    if (!s.ok()) {
      o.done_ns = NowNs() - t0;
      o.code = s.code();
      completed.fetch_add(1, std::memory_order_release);
    }
  }
  while (completed.load(std::memory_order_acquire) < n) {
    if (cfg.idle_hook) cfg.idle_hook();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  res.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  res.mismatches = mismatches.load();
  res.first_mismatch_req = first_bad.load();
  return res;
}

std::vector<double> Latencies(const PhaseResult& phase) {
  std::vector<double> out;
  out.reserve(phase.outcomes.size());
  for (const Outcome& o : phase.outcomes) {
    out.push_back(o.ok() ? o.latency_ms() : kFailedLatencyMs);
  }
  return out;
}

uint64_t FailedCount(const PhaseResult& phase) {
  uint64_t failed = 0;
  for (const Outcome& o : phase.outcomes) failed += o.ok() ? 0 : 1;
  return failed;
}

void CollectServed(const Tracer& tracer, const PhaseResult& phase,
                   uint64_t request_id_base, ServedStats* into) {
  ServedStats& s = *into;
  for (const Span& span : tracer.Named("QueryService::Submit")) {
    if (span.request < request_id_base ||
        span.request - request_id_base >= phase.outcomes.size()) {
      continue;
    }
    const Outcome& o = phase.outcomes[span.request - request_id_base];
    if (o.ok() && o.cache_hit) ++s.cache_hits;
    if (!o.ok() || o.cache_hit) continue;
    ++s.served;
    const double e = o.exec_s * 1e3;
    s.exec_ms.push_back(e);
    s.reqs.push_back(o.req);
    s.queue_ms.push_back(
        static_cast<double>(span.end_ns - span.start_ns) * 1e-6 - e);
    s.exec += o.stats;
    s.candidates += o.num_matches;
    s.second_pass += o.second_pass ? 1 : 0;
    s.io_ms_charged += o.io_s * 1e3;
  }
}

void AddServedMetrics(const ServedStats& s, Report* rep) {
  const double nq = static_cast<double>(std::max<uint64_t>(s.served, 1));
  const vec::ExecStats& st = s.exec;
  const double windows = static_cast<double>(
      st.windows_decoded + st.windows_skipped + st.windows_blockmax_skipped);
  rep->Add("compress.windows_decoded_per_query", st.windows_decoded / nq,
           "count");
  rep->Add("compress.window_skip_ratio",
           Ratio(static_cast<double>(st.windows_skipped +
                                     st.windows_blockmax_skipped),
                 windows),
           "ratio");
  rep->Add("compress.fused_windows_per_query", st.fused_windows / nq,
           "count");
  rep->Add("compress.tf_windows_per_query", st.tf_windows_decoded / nq,
           "count");
  rep->Add("vec.primitive_calls_per_query", st.primitive_calls / nq, "count");
  rep->Add("ir.exec_p50_ms", Percentile(s.exec_ms, 0.5), "ms");
  rep->Add("ir.exec_p99_ms", Percentile(s.exec_ms, 0.99), "ms");
  rep->Add("ir.candidates_per_query", s.candidates / nq, "count");
  rep->Add("ir.docs_probed_per_query", st.docs_probed / nq, "count");
  rep->Add("ir.vectors_pruned_per_query", st.vectors_pruned / nq, "count");
  rep->Add("ir.second_pass_ratio", s.second_pass / nq, "ratio");
  rep->Add("storage.io_ms_per_query", s.disk_io_ms / nq, "ms");
  rep->Info("storage.io_ms_charged_per_query", s.io_ms_charged / nq, "ms");
  rep->Add("server.queue_wait_p50_ms", Percentile(s.queue_ms, 0.5), "ms");
  rep->Add("server.queue_wait_p99_ms", Percentile(s.queue_ms, 0.99), "ms");
  rep->Info("served_queries", static_cast<double>(s.served), "count");
}

double DecodeGbps(const ir::InvertedIndex& index,
                  const std::vector<uint32_t>& terms, double seconds,
                  Tracer* tracer) {
  const compress::BlockDecoder* decoders[2] = {index.docid_decoder(),
                                               index.tf_decoder()};
  std::vector<int32_t> buf;
  uint64_t values = 0;
  double decode_s = 0.0;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end && !terms.empty()) {
    for (uint32_t t : terms) {
      const ir::TermInfo& ti = index.term(t);
      buf.resize(ti.doc_freq);
      for (const compress::BlockDecoder* dec : decoders) {
        const int64_t t0 = NowNs();
        dec->Decode(static_cast<uint32_t>(ti.posting_start), ti.doc_freq,
                    buf.data());
        const int64_t t1 = NowNs();
        tracer->Record("BlockDecoder::Decode", t0, t1, 0, t);
        decode_s += static_cast<double>(t1 - t0) * 1e-9;
        values += ti.doc_freq;
      }
    }
  }
  return Ratio(static_cast<double>(values) * sizeof(int32_t), decode_s) / 1e9;
}

}  // namespace e2e
