// Open-loop load generator over server::QueryService.
//
// Independent users arrive on a schedule fixed in advance (a seeded
// Poisson process), whether or not earlier queries have finished, so a
// stalled service sees its queue grow instead of its load drop. Every
// query is timed from the moment it was *due*, not from when the
// generator got round to submitting it: a stall is charged to every query
// it delayed. The generator's own lateness (submit - due) is recorded
// separately, so a run whose generator could not keep the schedule can be
// told apart from one whose service could not.
#ifndef E2E_BENCH_OPEN_LOOP_H_
#define E2E_BENCH_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_core.h"
#include "common/rng.h"
#include "server/query_service.h"

namespace e2e {

// Generator lateness (p99 of submit - due, median over a run's chunks)
// above which a run is invalid and not reported. Stalls of a few ms are
// the shared host's vCPU steal and are charged to latency; a generator
// that cannot keep its schedule lags without bound.
constexpr double kMaxGeneratorLagP99Ms = 25.0;

struct Arrival {
  int64_t due_ns = 0;  // offset from the phase start
  uint32_t req = 0;    // index into the request table
};

// A Poisson arrival schedule of `rate` per second over `seconds`, each
// arrival naming request pick(rng).
std::vector<Arrival> PoissonSchedule(double rate, double seconds, Rng* rng,
                                     const std::function<uint32_t(Rng*)>& pick);

struct Outcome {
  // Offsets from the phase start, in ns.
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  uint32_t req = 0;
  StatusCode code = StatusCode::kOk;
  bool cache_hit = false;        // answered synchronously inside Submit
  uint32_t inflight_at_submit = 0;
  double exec_s = 0.0;           // SearchResult::seconds
  double io_s = 0.0;             // simulated-disk seconds charged
  uint64_t num_matches = 0;
  bool second_pass = false;
  vec::ExecStats stats;
  std::vector<int32_t> docids;   // kept only when the phase asks for it

  bool ok() const { return code == StatusCode::kOk; }
  // Response time as a user sees it: due -> callback, plus the simulated
  // disk time the storage layer charged to this query. That charge is the
  // shared disk's advance while the query ran, so with several workers it
  // also holds other queries' I/O (io_ms_per_query.disk_share is the
  // per-query figure).
  double latency_ms() const {
    return static_cast<double>(done_ns - due_ns) * 1e-6 + io_s * 1e3;
  }
  double lag_ms() const {
    return static_cast<double>(submit_ns - due_ns) * 1e-6;
  }
};

struct PhaseConfig {
  const std::vector<server::QueryRequest>* requests = nullptr;
  std::vector<Arrival> arrivals;
  // Called on the worker thread for every OK response; false = mismatch.
  std::function<bool(uint32_t req, const ir::SearchResult&)> check;
  bool keep_docids = false;
  Tracer* tracer = nullptr;
  uint64_t request_id_base = 0;  // span request ids = base + arrival index
  // Called by the generator just before submitting arrival i (traced
  // ingest runs sample the snapshot a query will see).
  std::function<void(size_t i)> pre_submit;
  // Called by the generator while it waits for the next due time (at most
  // every ~0.5 ms) — the ingest workload's merge-completion poll.
  std::function<void()> idle_hook;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  // in arrival order
  uint64_t mismatches = 0;
  uint32_t first_mismatch_req = 0;
  double wall_s = 0.0;
  int64_t t0_ns = 0;         // absolute phase start (Outcome times offset)
  uint64_t id_base = 0;      // PhaseConfig::request_id_base
};

PhaseResult RunOpenLoop(server::QueryService* service, const PhaseConfig& cfg);

// Latencies (ms) of the phase's responses in arrival order; failures and
// sheds count as +inf (a refused query misses any latency limit).
std::vector<double> Latencies(const PhaseResult& phase);

uint64_t FailedCount(const PhaseResult& phase);

// What the traced phase's served queries cost, layer by layer: engine
// execution (SearchResult::seconds and ExecStats) and the service's share
// of the QueryService::Submit span (span duration minus execution).
// Cache hits never reach a worker and are left out.
struct ServedStats {
  std::vector<double> exec_ms;
  std::vector<double> queue_ms;
  std::vector<uint32_t> reqs;  // request index of each exec_ms entry
  vec::ExecStats exec;
  uint64_t candidates = 0;
  uint64_t second_pass = 0;
  // Simulated-disk ms: the sum of SearchResult::io_seconds (what latency
  // is charged; under concurrency each query's figure also holds the I/O
  // other queries did while it ran), and the disk's own total over the
  // phase (each I/O counted once), which the caller fills in.
  double io_ms_charged = 0.0;
  double disk_io_ms = 0.0;
  uint64_t served = 0;
  uint64_t cache_hits = 0;
};
// Adds the phase's served queries (spans with request ids from
// `request_id_base`) to *into.
void CollectServed(const Tracer& tracer, const PhaseResult& phase,
                   uint64_t request_id_base, ServedStats* into);

// Adds the compress.*, vec.*, ir.exec/candidate and server.queue_wait
// per-layer metrics computed from `s`.
void AddServedMetrics(const ServedStats& s, Report* rep);

// compress.decode_gbps: timed BlockDecoder range decodes (docid and tf
// columns) of `terms`' posting ranges for ~`seconds`, one span each.
double DecodeGbps(const ir::InvertedIndex& index,
                  const std::vector<uint32_t>& terms, double seconds,
                  Tracer* tracer);

}  // namespace e2e

#endif  // E2E_BENCH_OPEN_LOOP_H_
