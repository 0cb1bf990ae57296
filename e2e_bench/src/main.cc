// x100ir end-to-end benchmark: the measuring program.
//
//   e2e_bench --workload <hot_ranked|cold_storage|ingest_mixed|dist_scatter>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir <dir>] [--git-sha <sha>] [--inject-fault <name>]
//
// Prints a run header, one "metric <name> <value> <unit>" line per figure,
// and, last, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set, with
// --trace 1 the per-layer set (plus the tracing overhead). Exit status:
// 0 = measured and correct, 1 = a correctness check failed, 2 = usage,
// 3 = the run was invalid (e.g. the open-loop generator fell behind) and
// is not reported.
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "bench_core.h"
#include "common/string_util.h"
#include "compress/unpack.h"

namespace e2e {
namespace {

// Per-layer metrics every traced run reports; a workload that does not
// exercise a layer reports 0 for it.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"compress.windows_decoded_per_query", "count"},
    {"compress.window_skip_ratio", "ratio"},
    {"compress.fused_windows_per_query", "count"},
    {"compress.tf_windows_per_query", "count"},
    {"compress.decode_gbps", "GB/s"},
    {"vec.primitive_calls_per_query", "count"},
    {"ir.exec_p50_ms", "ms"},
    {"ir.exec_p99_ms", "ms"},
    {"ir.exec_p50_ms.rare", "ms"},
    {"ir.exec_p50_ms.medium", "ms"},
    {"ir.exec_p50_ms.head", "ms"},
    {"ir.exec_p50_ms.t1", "ms"},
    {"ir.exec_p50_ms.t2", "ms"},
    {"ir.exec_p50_ms.t3plus", "ms"},
    {"ir.candidates_per_query", "count"},
    {"ir.docs_probed_per_query", "count"},
    {"ir.vectors_pruned_per_query", "count"},
    {"ir.second_pass_ratio", "ratio"},
    {"ir.delta_docs_per_query", "count"},
    {"ir.merge_s", "s"},
    {"ir.merges_completed", "count"},
    {"storage.pool_hit_ratio", "ratio"},
    {"storage.evictions_per_query", "count"},
    {"storage.bytes_fetched_per_query", "B"},
    {"storage.io_ms_per_query", "ms"},
    {"storage.wal_fsyncs_per_ack", "ratio"},
    {"storage.wal_batch_mean", "count"},
    {"storage.write_bytes_per_doc", "B"},
    {"server.queue_wait_p50_ms", "ms"},
    {"server.queue_wait_p99_ms", "ms"},
    {"server.shed_ratio", "ratio"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.cache_invalidations_per_write", "ratio"},
    {"dist.shard_exec_max_ms", "ms"},
    {"dist.shard_exec_mean_ms", "ms"},
    {"dist.gather_ms", "ms"},
    {"dist.candidates_per_query", "count"},
    {"bench.generator_lag_p99_ms", "ms"},
    {"bench.query_p50_ms.traced", "ms"},
    {"bench.trace_overhead_ms", "ms"},
};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--data-dir <dir>] "
               "[--git-sha <sha>] [--inject-fault <name>]\n",
               msg);
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  return StrFormat("%.17g", v);
}

void PrintHeader(const RunOptions& opts, const std::string& git_sha,
                 const Report& rep) {
  const ir::CorpusOptions corpus = bench::BenchCorpusOptions();
  const char* scale = bench::Scale() == bench::BenchScale::kTiny ? "tiny"
                      : bench::Scale() == bench::BenchScale::kLarge
                          ? "large"
                          : "default";
  std::string h = StrFormat(
      "{\"git_sha\":\"%s\",\"nproc\":%u,\"simd\":\"%s\",\"scale\":\"%s\","
      "\"num_docs\":%u,\"vocab\":%u,\"corpus_seed\":%llu,\"workload\":\"%s\","
      "\"seed\":%llu,\"seconds\":%.3f,\"trace\":%d",
      git_sha.c_str(), std::thread::hardware_concurrency(),
      compress::internal::SimdLevelName(
          compress::internal::ActiveSimdLevel()),
      scale, corpus.num_docs, corpus.vocab_size,
      static_cast<unsigned long long>(corpus.seed), opts.workload.c_str(),
      static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? 1 : 0);
  for (const auto& kv : rep.header) {
    h += StrFormat(",\"%s\":%s", kv.first.c_str(), kv.second.c_str());
  }
  h += "}";
  std::printf("# header %s\n", h.c_str());
}

int Main(int argc, char** argv) {
  RunOptions opts;
  std::string git_sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opts.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), nullptr);
      have_seconds = opts.seconds > 0.0;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return Usage("--trace takes 0 or 1");
      opts.trace = val == "1";
      have_trace = true;
    } else if (arg == "--data-dir") {
      opts.data_dir = val;
    } else if (arg == "--git-sha") {
      git_sha = val;
    } else if (arg == "--inject-fault") {
      opts.inject_fault = val;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  Report (*run)(const RunOptions&) = nullptr;
  if (opts.workload == "hot_ranked") run = RunHotRanked;
  if (opts.workload == "cold_storage") run = RunColdStorage;
  if (opts.workload == "ingest_mixed") run = RunIngestMixed;
  if (opts.workload == "dist_scatter") run = RunDistScatter;
  if (run == nullptr) return Usage(("unknown workload " + opts.workload).c_str());

  std::filesystem::remove_all(opts.data_dir + "/" + opts.workload);
  std::filesystem::create_directories(opts.data_dir);
  Report rep = run(opts);
  std::filesystem::remove_all(opts.data_dir + "/" + opts.workload);

  if (opts.trace) {
    for (const LayerMetric& lm : kLayerMetrics) {
      bool present = false;
      for (const Metric& m : rep.metrics) present = present || m.name == lm.name;
      if (!present) rep.Add(lm.name, 0.0, lm.unit);
    }
  }

  PrintHeader(opts, git_sha, rep);
  for (const Metric& m : rep.info) {
    std::printf("info %s %s %s\n", m.name.c_str(), JsonNumber(m.value).c_str(),
                m.unit.c_str());
  }
  for (const Metric& m : rep.metrics) {
    std::printf("metric %s %s %s\n", m.name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  for (const std::string& e : rep.errors) {
    std::printf("MISMATCH %s\n", e.c_str());
  }
  if (!rep.invalid.empty()) {
    std::printf("INVALID %s\n", rep.invalid.c_str());
    std::fflush(stdout);
    return 3;
  }
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      rep.correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed));
  for (size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    json += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", m.name.c_str(),
                      JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return rep.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
