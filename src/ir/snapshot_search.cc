// Query execution over a Snapshot (DESIGN.md §10): every compressed
// segment runs through the normal SearchEngine — with the snapshot's live
// CollectionStats and the segment's tombstone bitmap plumbed into
// SearchOptions — and the delta write buffers are evaluated exactly, in
// scalar, with the same Bm25One kernel and the same ascending-term
// accumulation order the vectorized union plan uses. Docid spaces are
// disjoint, so the cross-structure merge is a concatenation (boolean runs)
// or one exact TopK over every structure's candidates (ranked runs) —
// never a re-score.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/timer.h"
#include "ir/bm25.h"
#include "ir/normalize.h"
#include "ir/snapshot.h"
#include "ir/topk.h"

namespace x100ir::ir {
namespace {

// Exact scalar evaluation of one delta buffer. Ranked runs accumulate
// per-document scores term-by-term in ascending term order — the same
// float addition order MergeUnionOperator uses (children are built in
// ascending term order and partial sums fold in child order), so a delta
// document's score is bit-identical to what a rebuilt monolithic index
// would produce for it.
void EvalDelta(const Snapshot::DeltaRead& dr,
               const std::vector<uint32_t>& terms, RunType type,
               const SearchOptions& opts, const CollectionStats& stats,
               TopK* ranked, uint64_t* num_matches,
               std::vector<int32_t>* bool_matches) {
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
  for (uint32_t local = 0; local < dr.visible; ++local) {
    if (hit_terms[local] < need) continue;
    ++*num_matches;
    const int32_t global = dr.delta->base_docid() + static_cast<int32_t>(local);
    if (ranked_run) {
      ranked->Push(global, acc[local]);
    } else {
      bool_matches->push_back(global);
    }
  }
}

}  // namespace

Status SearchSnapshot(const Snapshot& snap, const Query& query, RunType type,
                      const SearchOptions& user_opts, SearchResult* result) {
  if (result == nullptr) return InvalidArgument("null search result");
  if (snap.stats == nullptr) {
    return InvalidArgument("snapshot carries no collection stats");
  }
  WallTimer timer;
  *result = SearchResult();
  result->epoch = snap.epoch;

  // The monolithic engine's up-front validation (same normalizer, same
  // messages), so the segmented path rejects exactly what it would.
  // "Unknown" means zero LIVE documents hold the term — the rebuilt
  // monolithic oracle would not have it at all. (A term whose only
  // occurrences are tombstoned counts as unknown too.)
  std::vector<uint32_t> terms;
  bool any_unknown = false;
  X100IR_RETURN_IF_ERROR(NormalizeQueryTerms(
      query, user_opts.k, static_cast<uint32_t>(snap.stats->df.size()),
      [&snap](uint32_t t) { return snap.stats->df[t]; }, &terms,
      &any_unknown));
  if (IsStorageRun(type)) {
    for (const Snapshot::SegmentRead& sr : snap.segments) {
      if (!sr.seg->index().has_storage()) {
        return FailedPrecondition(
            std::string(RunTypeName(type)) +
            " needs an on-disk index (Database opened with a directory): the "
            "storage runs read cold columns through the buffer pool");
      }
    }
  }
  if (terms.empty() || (type == RunType::kBoolAnd && any_unknown)) {
    result->seconds = timer.ElapsedSeconds();
    return OkStatus();
  }
  if (user_opts.deadline != nullptr) {
    X100IR_RETURN_IF_ERROR(user_opts.deadline->Check());
  }

  const bool ranked_run = type != RunType::kBoolAnd && type != RunType::kBoolOr;
  Query sub;
  sub.terms = terms;
  sub.topic = query.topic;

  // Exact ranked merge: docids are globally unique, so the top k under
  // TopK's total order is independent of candidate arrival order.
  TopK ranked(user_opts.k);
  std::vector<int32_t> bool_matches;  // global docid order by construction

  for (const Snapshot::SegmentRead& sr : snap.segments) {
    SearchOptions seg_opts = user_opts;
    seg_opts.global_stats = snap.stats.get();
    seg_opts.tombstones =
        sr.tombstones != nullptr ? sr.tombstones->data() : nullptr;
    SearchEngine engine(&sr.seg->index());
    SearchResult seg_result;
    X100IR_RETURN_IF_ERROR(engine.Search(sub, type, seg_opts, &seg_result));
    result->MergeAccounting(seg_result);
    const bool identity = sr.seg->identity_map();
    if (ranked_run) {
      for (size_t i = 0; i < seg_result.docids.size(); ++i) {
        const int32_t g = identity ? seg_result.docids[i]
                                   : sr.seg->GlobalOf(seg_result.docids[i]);
        ranked.Push(g, seg_result.scores[i]);
      }
    } else {
      for (int32_t d : seg_result.docids) {
        bool_matches.push_back(identity ? d : sr.seg->GlobalOf(d));
      }
    }
  }

  for (const Snapshot::DeltaRead& dr : snap.deltas) {
    if (user_opts.deadline != nullptr) {
      X100IR_RETURN_IF_ERROR(user_opts.deadline->Check());
    }
    EvalDelta(dr, terms, type, user_opts, *snap.stats, &ranked,
              &result->num_matches, &bool_matches);
  }

  if (ranked_run) {
    ranked.FinishSorted(&result->docids, &result->scores);
  } else {
    // Segments ascend in global docid space and every delta base exceeds
    // every committed global, so the concatenation is already docid-sorted;
    // the monolithic boolean runs cap at the FIRST k matches.
    if (bool_matches.size() > user_opts.k) bool_matches.resize(user_opts.k);
    result->docids = std::move(bool_matches);
  }
  result->seconds = timer.ElapsedSeconds();
  return OkStatus();
}

}  // namespace x100ir::ir
