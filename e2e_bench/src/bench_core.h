// Shared machinery of the end-to-end benchmark: run options, the metric
// report every workload fills, order statistics, the in-memory span
// recorder, and small helpers over the engine's public entry points.
//
// The benchmark drives the engine only through core::Database,
// server::QueryService, dist::Cluster and compress::BlockDecoder; every
// input it hands them (queries, arrival times, documents, deletions) is
// generated here from the workload seed. The corpus itself is the fixed
// bench_util.h profile.
#ifndef E2E_BENCH_BENCH_CORE_H_
#define E2E_BENCH_BENCH_CORE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "ir/query_gen.h"

namespace e2e {

using namespace x100ir;  // NOLINT: the benchmark is a client of the engine

// ---------------------------------------------------------------------------
// Run options (main.cc parses them from the command line).

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for index files and the span dump (inside the
  // checkout; wiped at the start of every run).
  std::string data_dir = ".bench_data";
  // Self-test hook: corrupts one oracle row (or one bookkeeping fact the
  // ingest checks rely on) so the run must fail its correctness check.
  std::string inject_fault;
};

// ---------------------------------------------------------------------------
// Report.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Gated end-to-end metrics (untraced runs) or per-layer metrics (traced
  // runs) — exactly the set BENCHMARK.json names for the run's mode.
  std::vector<Metric> metrics;
  // Workload-specific figures printed on the report lines only (sample
  // counts, per-workload figures such as max_qps_at_slo, offered rates).
  std::vector<Metric> info;
  // Run header fields, printed first as one JSON object.
  std::vector<std::pair<std::string, std::string>> header;
  std::vector<std::string> errors;  // correctness failures, first few kept
  // Set when the run could not be measured as stated (e.g. the open-loop
  // generator fell behind its schedule): such a run is not reported.
  std::string invalid;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Info(const std::string& name, double value, const std::string& unit) {
    info.push_back({name, value, unit});
  }
  void Header(const std::string& key, const std::string& json_value) {
    header.emplace_back(key, json_value);
  }
  void Fail(const std::string& what) {
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Clock.

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Order statistics.

// Percentile q in [0, 1], interpolated between order statistics; 0 for an
// empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double Ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

// Percentile of a sample in arrival order, taken per consecutive slice and
// reported as the median over slices: one scheduler stall on a shared
// host then moves one slice, not the whole figure.
inline double WindowedPercentile(const std::vector<double>& in_order,
                                 double q, size_t windows) {
  if (in_order.empty()) return 0.0;
  // Slices keep at least 1000 samples, so a slice's p99 has ten beyond it.
  windows = std::max<size_t>(1, std::min(windows, in_order.size() / 1000));
  std::vector<double> per;
  const size_t n = in_order.size();
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = n * w / windows, hi = n * (w + 1) / windows;
    per.push_back(Percentile(
        std::vector<double>(in_order.begin() + static_cast<long>(lo),
                            in_order.begin() + static_cast<long>(hi)),
        q));
  }
  return Median(per);
}

// ---------------------------------------------------------------------------
// Measurement chunks.
//
// The benchmark measures in short chunks spread over the whole run and
// reports figures over the quarter of them the host left most alone. A
// shared host slows a VM in two ways: vCPU steal (/proc/stat), bursts
// that stall any thread for milliseconds, and contention that shows no
// steal but makes the same instructions run up to ~1.5x slower for
// seconds at a time. So each chunk records the steal ticks while it ran
// and the slower of two runs of a fixed reference probe (a loop over a
// table of its own, not the engine) taken just before and just after it,
// while the workload is idle (ingest_mixed, whose merges outlive a chunk,
// records steal only). Chunks are ranked by steal, then by probe time, and
// the first quarter is kept. Only the host selects: nothing the
// program does (its latency, the generator's lateness) decides which
// chunks count. Latency percentiles are the median over the kept chunks
// of each chunk's own percentile (a stall spoils one chunk's p99, not the
// run's); rates are the median over them too.

struct Chunk {
  std::vector<double> latencies_ms;
  double p50 = 0.0;
  double p99 = 0.0;
  double lag_p99 = 0.0;  // open loop: generator lateness p99 (ms)
  size_t samples = 0;
  double per_s = 0.0;    // completed queries per second
  uint64_t steal = 0;    // host steal ticks while the chunk ran
  double probe_ms = 0.0; // reference probe time around the chunk
};

// Steal ticks so far, summed over CPUs (0 where /proc/stat is absent).
uint64_t StealTicks();

// One run of the fixed reference probe (about 1 ms on an idle current x86
// core), in ms.
double ReferenceProbeMs();

// What the host did to the VM between construction and Finish().
struct HostSample {
  uint64_t steal = 0;
  double probe_ms = 0.0;
};
class HostWatch {
 public:
  HostWatch() : steal0_(StealTicks()), probe0_(ReferenceProbeMs()) {}
  HostSample Finish() const {
    const double probe1 = ReferenceProbeMs();
    return {StealTicks() - steal0_, std::max(probe0_, probe1)};
  }

 private:
  uint64_t steal0_;
  double probe0_;
};

Chunk ChunkOf(const std::vector<double>& latencies_ms,
              const std::vector<double>& lags_ms, const HostSample& host);

// The first 1/kQuietShare of the chunks ranked by (steal, probe_ms),
// at least one, ties with the last of them included, in their original
// order. Chunks without a probe (probe_ms 0) are thus selected on steal
// alone, every chunk as quiet as the lower-quartile one.
constexpr size_t kQuietShare = 4;
std::vector<Chunk> QuietChunks(std::vector<Chunk> chunks);

double MedianOf(const std::vector<Chunk>& chunks, double Chunk::*field);

// Percentile q of every latency sample of `chunks` together (info lines).
double PooledPercentile(const std::vector<Chunk>& chunks, double q);

// ---------------------------------------------------------------------------
// Spans.
//
// A span marks one call the benchmark makes into a layer: name, start and
// end (steady-clock ns), the span that caused it (0 = root), and the
// request it belongs to. Spans live in per-thread buffers (no lock on the
// record path), are only recorded while tracing is enabled, and are
// written out once, when the run ends.

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled)
      : enabled_(enabled), instance_(NextInstance()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Records a finished span and returns its id (0 when disabled).
  uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t parent, uint64_t request);

  // Every recorded span with this name (any thread).
  std::vector<Span> Named(const char* name) const;

  // Writes every span as one JSON object per line; false on I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer* LocalBuffer();
  static uint64_t NextInstance() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  const bool enabled_;
  const uint64_t instance_;  // keys the per-thread buffer cache
  mutable std::mutex mu_;  // guards buffers_ (registration, not records)
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::atomic<uint64_t> next_id_{1};
};

// Times a scope as one span when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request)
      : tracer_(tracer), name_(name), parent_(parent), request_(request),
        start_ns_(NowNs()) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void End() {
    if (!done_) {
      done_ = true;
      tracer_->Record(name_, start_ns_, NowNs(), parent_, request_);
    }
  }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t request_;
  int64_t start_ns_;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Engine helpers.

// Bit-identical result check (docids and scores, in rank order).
inline bool SameResult(const ir::SearchResult& a, const ir::SearchResult& b) {
  return a.docids == b.docids && a.scores == b.scores;
}

// Rank-equivalence within `tol` (dist_test's contract for MaxScore paths:
// scores within tol rank by rank, docids exact except inside tied score
// runs and at the last rank, where a tie with rank k+1 is possible).
bool RankingsEquivalent(const ir::SearchResult& got,
                        const ir::SearchResult& want, float tol);

// Sum of regular-file sizes under `dir`, skipping names that start with
// `skip_prefix` (empty = skip nothing).
uint64_t DirBytes(const std::string& dir, const std::string& skip_prefix);

// Sum of the sizes of the regular files under `dir` named exactly `name`.
uint64_t DirBytesNamed(const std::string& dir, const std::string& name);

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

// write_bytes from /proc/self/io (bytes this process caused to be sent to
// the storage layer); 0 when unavailable.
uint64_t ProcWriteBytes();

// Draws an index in [0, n) with Zipf(s) popularity over a fixed rank
// order. Precomputes the CDF once.
class ZipfPicker {
 public:
  ZipfPicker(size_t n, double s);
  size_t Pick(double u) const;

 private:
  std::vector<double> cdf_;
};

// Exponential inter-arrival draw for a Poisson process of `rate` per second.
double ExpDraw(double u, double rate);

// Per-workload entry points (one translation unit each).
Report RunHotRanked(const RunOptions& opts);
Report RunColdStorage(const RunOptions& opts);
Report RunIngestMixed(const RunOptions& opts);
Report RunDistScatter(const RunOptions& opts);

}  // namespace e2e

#endif  // E2E_BENCH_BENCH_CORE_H_
