// One partitioned read (DESIGN.md §10.6): a query over parts that share no
// docids, listed in ascending global-docid order — a snapshot's segments
// and delta buffers (ir/snapshot_search.cc) or a cluster's nodes
// (dist/cluster.cc). It validates the request once, runs the parts through
// the caller's scatter and merges exactly: ranked runs through one TopK (a
// selection, never a re-score, whatever order parts finish in), boolean
// runs by concatenation in part order capped at the first k, accounting
// summed per part. A one-part read returns that part's result as is.
#ifndef X100IR_IR_PARTITIONED_SEARCH_H_
#define X100IR_IR_PARTITIONED_SEARCH_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "ir/normalize.h"
#include "ir/search_engine.h"
#include "ir/topk.h"

namespace x100ir::ir {

struct PartitionedRead {
  uint32_t num_parts = 0;
  // The storage runs read cold columns through the buffer pool: refused
  // unless the parts are on disk.
  bool on_disk = false;
  // The first failed part's status fails the read, unless this is set and
  // some part succeeded: then the succeeded parts alone are merged.
  bool allow_partial = false;
};

// Runs task(i) for every part on the calling thread, in part order.
struct InlineScatter {
  template <typename Task>
  void operator()(uint32_t num_parts, const Task& task) const {
    for (uint32_t i = 0; i < num_parts; ++i) task(i);
  }
};

// Every part receives `opts`. opts.global_stats must be set: the query is
// normalized and every part scored under them; shared_theta and deadline
// pass through. search_part(i, sub, opts, &r) -> Status runs part i for the
// normalized terms `sub` and fills `r` (handed over empty) in GLOBAL
// docids: its top opts.k in rank order, or its boolean matches in docid
// order, plus its accounting; each part checks the deadline itself.
// scatter(n, task) calls task(i) once per i < n, from any threads, and
// returns when all have. *part_status gets one status per part, or stays
// empty when validation failed before the scatter.
template <typename SearchPart, typename Scatter>
Status PartitionedSearch(const Query& query, RunType type,
                         const SearchOptions& opts, const PartitionedRead& read,
                         const SearchPart& search_part, const Scatter& scatter,
                         std::vector<Status>* part_status,
                         SearchResult* result) {
  if (result == nullptr) return InvalidArgument("null search result");
  WallTimer timer;
  *result = SearchResult();
  std::vector<Status>& status = *part_status;
  status.clear();
  if (opts.global_stats == nullptr) {
    return InvalidArgument("partitioned search needs collection stats");
  }
  // The monolithic engine's validation, in its order, under the stats in
  // force: "unknown" means no document of the whole collection holds it.
  const CollectionStats& stats = *opts.global_stats;
  Query sub;
  bool any_unknown = false;
  X100IR_RETURN_IF_ERROR(NormalizeQueryTerms(
      query, opts.k, static_cast<uint32_t>(stats.df.size()),
      [&stats](uint32_t t) { return stats.df[t]; }, &sub.terms,
      &any_unknown));
  if (IsStorageRun(type) && !read.on_disk) {
    return FailedPrecondition(
        std::string(RunTypeName(type)) +
        " needs an on-disk index (Database opened with a directory): the "
        "storage runs read cold columns through the buffer pool");
  }
  const uint32_t n = read.num_parts;
  status.assign(n, OkStatus());
  if (sub.terms.empty() || (type == RunType::kBoolAnd && any_unknown)) {
    result->seconds = timer.ElapsedSeconds();
    return OkStatus();
  }

  std::vector<SearchResult> parts(n == 1 ? 0 : n);
  scatter(n, [&](uint32_t i) {
    status[i] = search_part(i, sub, opts, n == 1 ? result : &parts[i]);
  });
  const auto failed = [](const Status& s) { return !s.ok(); };
  const auto first_error = std::find_if(status.begin(), status.end(), failed);
  if (first_error != status.end() &&
      (!read.allow_partial ||
       std::all_of(status.begin(), status.end(), failed))) {
    return *first_error;
  }

  if (n > 1) {
    const bool ranked_run =
        type != RunType::kBoolAnd && type != RunType::kBoolOr;
    TopK ranked(opts.k);
    for (uint32_t i = 0; i < n; ++i) {
      if (!status[i].ok()) continue;
      result->MergeAccounting(parts[i]);
      const std::vector<int32_t>& docids = parts[i].docids;
      if (!ranked_run) {
        result->docids.insert(result->docids.end(), docids.begin(),
                              docids.end());
        continue;
      }
      for (size_t r = 0; r < docids.size(); ++r) {
        ranked.Push(docids[r], parts[i].scores[r]);
      }
    }
    if (ranked_run) ranked.FinishSorted(&result->docids, &result->scores);
  }
  if (result->docids.size() > opts.k) result->docids.resize(opts.k);
  result->seconds = timer.ElapsedSeconds();
  return OkStatus();
}

}  // namespace x100ir::ir

#endif  // X100IR_IR_PARTITIONED_SEARCH_H_
