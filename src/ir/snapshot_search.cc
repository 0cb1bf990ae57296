// Query execution over a Snapshot (DESIGN.md §10): one partitioned read
// (ir/partitioned_search.h) whose parts are the snapshot's segments, then
// its delta buffers — ascending in global docid space by construction.
// Every compressed segment runs through the normal SearchEngine, with the
// scoring stats in force and the segment's tombstone bitmap plumbed into
// SearchOptions; every delta write buffer is evaluated exactly, in scalar,
// with the same Bm25One kernel and the same ascending-term accumulation
// order the vectorized union plan uses.
#include <cstdint>
#include <vector>

#include "ir/bm25.h"
#include "ir/partitioned_search.h"
#include "ir/snapshot.h"
#include "ir/topk.h"

namespace x100ir::ir {
namespace {

// Exact scalar evaluation of one delta buffer into its own result: the
// delta's top k (its own selection, like the engine's TopKOperator) or
// every boolean match in docid order. Ranked runs accumulate per-document
// scores term-by-term in ascending term order — the same float addition
// order MergeUnionOperator uses (children are built in ascending term order
// and partial sums fold in child order), so a delta document's score is
// bit-identical to what a rebuilt monolithic index would produce for it.
Status EvalDelta(const Snapshot::DeltaRead& dr,
                 const std::vector<uint32_t>& terms, RunType type,
                 const SearchOptions& opts, SearchResult* result) {
  if (opts.deadline != nullptr) {
    X100IR_RETURN_IF_ERROR(opts.deadline->Check());
  }
  const CollectionStats& stats = *opts.global_stats;
  const uint64_t* tombs =
      dr.tombstones != nullptr ? dr.tombstones->data() : nullptr;
  const bool ranked_run = type != RunType::kBoolAnd && type != RunType::kBoolOr;
  const float inv_avgdl = stats.avg_doc_len > 0.0
                              ? static_cast<float>(1.0 / stats.avg_doc_len)
                              : 0.0f;

  std::vector<float> acc(dr.visible, 0.0f);
  std::vector<uint32_t> hit_terms(dr.visible, 0);
  std::vector<int32_t> locals, tfs;
  for (uint32_t t : terms) {  // ascending: the accumulation-order contract
    dr.delta->CollectPostings(t, dr.visible, &locals, &tfs);
    if (locals.empty()) continue;
    const float idf = Bm25Idf(stats.num_docs, stats.df[t]);
    for (size_t i = 0; i < locals.size(); ++i) {
      const int32_t local = locals[i];
      if (TombstoneTest(tombs, local)) continue;
      ++hit_terms[local];
      if (ranked_run) {
        acc[local] += Bm25One(idf, static_cast<float>(tfs[i]),
                              static_cast<float>(dr.delta->doc_len(local)),
                              opts.bm25.k1, opts.bm25.b, inv_avgdl);
      }
    }
  }

  const uint32_t need =
      type == RunType::kBoolAnd ? static_cast<uint32_t>(terms.size()) : 1;
  TopK ranked(opts.k);
  for (uint32_t local = 0; local < dr.visible; ++local) {
    if (hit_terms[local] < need) continue;
    ++result->num_matches;
    const int32_t global = dr.delta->base_docid() + static_cast<int32_t>(local);
    if (ranked_run) {
      ranked.Push(global, acc[local]);
    } else {
      result->docids.push_back(global);
    }
  }
  if (ranked_run) ranked.FinishSorted(&result->docids, &result->scores);
  return OkStatus();
}

}  // namespace

Status SearchSnapshot(const Snapshot& snap, const Query& query, RunType type,
                      const SearchOptions& user_opts, SearchResult* result) {
  // The caller's stats win: a cluster node scores under the cluster's.
  SearchOptions opts = user_opts;
  if (opts.global_stats == nullptr) opts.global_stats = snap.stats.get();
  const uint32_t num_segments = static_cast<uint32_t>(snap.segments.size());
  const auto search_part = [&](uint32_t i, const Query& sub,
                               const SearchOptions& part_opts,
                               SearchResult* r) -> Status {
    if (i >= num_segments) {
      return EvalDelta(snap.deltas[i - num_segments], sub.terms, type,
                       part_opts, r);
    }
    const Snapshot::SegmentRead& sr = snap.segments[i];
    SearchOptions seg_opts = part_opts;
    seg_opts.tombstones =
        sr.tombstones != nullptr ? sr.tombstones->data() : nullptr;
    X100IR_RETURN_IF_ERROR(
        SearchEngine(&sr.seg->index()).Search(sub, type, seg_opts, r));
    // GlobalOf preserves order, so rank and docid order survive in place.
    for (int32_t& d : r->docids) d = sr.seg->GlobalOf(d);
    return OkStatus();
  };
  const PartitionedRead read{
      num_segments + static_cast<uint32_t>(snap.deltas.size()), snap.on_disk};
  std::vector<Status> part_status;
  const Status s = PartitionedSearch(query, type, opts, read, search_part,
                                     InlineScatter(), &part_status, result);
  if (result != nullptr) result->epoch = snap.epoch;
  return s;
}

}  // namespace x100ir::ir
