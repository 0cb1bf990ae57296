#include "bench_core.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace e2e {

Tracer::Buffer* Tracer::LocalBuffer() {
  // One buffer per (thread, tracer), cached per thread under the tracer's
  // process-unique instance number (never reused, unlike an address).
  thread_local uint64_t owner = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != instance_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->spans.reserve(1 << 14);
    owner = instance_;
  }
  return buffer;
}

uint64_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                        uint64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  LocalBuffer()->spans.push_back({name, start_ns, end_ns, id, parent, request});
  return id;
}

std::vector<Span> Tracer::Named(const char* name) const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      if (std::strcmp(s.name, name) == 0) out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

bool RankingsEquivalent(const ir::SearchResult& got,
                        const ir::SearchResult& want, float tol) {
  if (got.docids.size() != want.docids.size() ||
      got.scores.size() != want.scores.size() ||
      got.scores.size() != got.docids.size()) {
    return false;
  }
  const size_t n = got.docids.size();
  for (size_t i = 0; i < n; ++i) {
    if (std::abs(got.scores[i] - want.scores[i]) > tol) return false;
    const bool tied_prev =
        i > 0 && std::abs(want.scores[i] - want.scores[i - 1]) <= tol;
    const bool tied_next =
        i + 1 < n && std::abs(want.scores[i] - want.scores[i + 1]) <= tol;
    if (!tied_prev && !tied_next && i + 1 < n &&
        got.docids[i] != want.docids[i]) {
      return false;
    }
  }
  return true;
}

uint64_t DirBytes(const std::string& dir, const std::string& skip_prefix) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    if (!skip_prefix.empty() && name.rfind(skip_prefix, 0) == 0) continue;
    total += it->file_size(ec);
  }
  return total;
}

uint64_t DirBytesNamed(const std::string& dir, const std::string& name) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec) && it->path().filename() == name) {
      total += it->file_size(ec);
    }
  }
  return total;
}

namespace {

// Value of "<key>: <n>" (first number after the key) in a /proc text file.
uint64_t ProcField(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0) {
      return std::strtoull(line.c_str() + klen, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

uint64_t StealTicks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu;
  for (uint64_t& x : v) in >> x;
  return in ? v[7] : 0;
}

double ReferenceProbeMs() {
  // Pseudo-random read-modify-writes over a 1 MiB table: core speed plus
  // the cache and memory traffic a neighbour can slow down.
  constexpr uint32_t kSlots = 1u << 18;
  constexpr int kSteps = 250000;
  thread_local std::vector<uint32_t> table(kSlots);
  thread_local uint64_t x = 0x9E3779B97F4A7C15ull;
  const int64_t t0 = NowNs();
  uint32_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    acc += table[(x >> 40) & (kSlots - 1)]++;
  }
  const int64_t t1 = NowNs();
  table[acc & (kSlots - 1)] ^= 1;  // keep the loop's result live
  return static_cast<double>(t1 - t0) * 1e-6;
}

Chunk ChunkOf(const std::vector<double>& latencies_ms,
              const std::vector<double>& lags_ms, const HostSample& host) {
  Chunk c;
  c.latencies_ms = latencies_ms;
  c.p50 = Percentile(latencies_ms, 0.5);
  c.p99 = Percentile(latencies_ms, 0.99);
  c.lag_p99 = Percentile(lags_ms, 0.99);
  c.samples = latencies_ms.size();
  c.steal = host.steal;
  c.probe_ms = host.probe_ms;
  return c;
}

std::vector<Chunk> QuietChunks(std::vector<Chunk> chunks) {
  if (chunks.empty()) return chunks;
  std::vector<std::pair<uint64_t, double>> keys;
  for (const Chunk& c : chunks) keys.emplace_back(c.steal, c.probe_ms);
  const size_t n = std::max<size_t>(1, chunks.size() / kQuietShare);
  std::nth_element(keys.begin(), keys.begin() + (n - 1), keys.end());
  const std::pair<uint64_t, double> limit = keys[n - 1];
  std::vector<Chunk> quiet;
  for (Chunk& c : chunks) {
    if (std::make_pair(c.steal, c.probe_ms) <= limit) {
      quiet.push_back(std::move(c));
    }
  }
  return quiet;
}

double MedianOf(const std::vector<Chunk>& chunks, double Chunk::*field) {
  std::vector<double> v;
  for (const Chunk& c : chunks) v.push_back(c.*field);
  return Median(v);
}

double PooledPercentile(const std::vector<Chunk>& chunks, double q) {
  std::vector<double> all;
  for (const Chunk& c : chunks) {
    all.insert(all.end(), c.latencies_ms.begin(), c.latencies_ms.end());
  }
  return Percentile(std::move(all), q);
}

double PeakRssMb() {
  return static_cast<double>(ProcField("/proc/self/status", "VmHWM:")) /
         1024.0;
}

uint64_t ProcWriteBytes() {
  return ProcField("/proc/self/io", "write_bytes:");
}

ZipfPicker::ZipfPicker(size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfPicker::Pick(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double ExpDraw(double u, double rate) {
  return -std::log1p(-u) / rate;
}

}  // namespace e2e
