#include "ir/custom_engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/timer.h"
#include "ir/bm25.h"  // Bm25One — the shared scalar scoring kernel
#include "ir/normalize.h"
#include "ir/topk.h"
#include "vec/merge_join.h"  // GallopLowerBound for MaxScore skips

namespace x100ir::ir {

Status CustomIrEngine::Load(const InvertedIndex* index) {
  if (index == nullptr) return InvalidArgument("null index");
  if (index->num_postings() == 0) {
    return InvalidArgument("index has no postings");
  }
  index_ = index;
  docids_.resize(index->num_postings());
  tfs_.resize(index->num_postings());
  // One bulk range-decode per column: the custom engine pays the decode
  // once at load and never again — the "all raw, all resident" design
  // point Table 1's hand-built engines occupy.
  index->docid_source()->Read(0, static_cast<uint32_t>(docids_.size()),
                              docids_.data());
  index->tf_source()->Read(0, static_cast<uint32_t>(tfs_.size()),
                           tfs_.data());
  return OkStatus();
}

Status CustomIrEngine::PrepareTerms(const Query& query, uint32_t k,
                                    std::vector<uint32_t>* terms) const {
  if (index_ == nullptr) return InvalidArgument("engine not loaded");
  bool any_unknown = false;
  return NormalizeQueryTerms(
      query, k, index_->vocab_size(),
      [this](uint32_t t) { return index_->term(t).doc_freq; }, terms,
      &any_unknown);
}

Status CustomIrEngine::SearchDaat(const Query& query, uint32_t k,
                                  CustomSearchResult* result) const {
  if (result == nullptr) return InvalidArgument("null result");
  std::vector<uint32_t> terms;
  X100IR_RETURN_IF_ERROR(PrepareTerms(query, k, &terms));
  *result = CustomSearchResult();
  WallTimer timer;

  const float k1 = params_.k1, b = params_.b;
  const float inv_avgdl =
      index_->avg_doc_len() > 0.0
          ? static_cast<float>(1.0 / index_->avg_doc_len())
          : 0.0f;
  const int32_t* doclens = index_->doc_lens().data();

  struct List {
    const int32_t* d;
    const int32_t* tf;
    uint32_t n;
    uint32_t i = 0;
    float idf;
  };
  std::vector<List> lists;
  lists.reserve(terms.size());
  for (uint32_t t : terms) {
    const TermInfo& info = index_->term(t);
    lists.push_back({docids_.data() + info.posting_start,
                     tfs_.data() + info.posting_start, info.doc_freq, 0,
                     info.idf});
  }

  TopK topk(k);
  for (;;) {
    int32_t d = 0;
    bool any = false;
    for (const List& l : lists) {
      if (l.i < l.n && (!any || l.d[l.i] < d)) {
        d = l.d[l.i];
        any = true;
      }
    }
    if (!any) break;
    float score = 0.0f;
    for (List& l : lists) {
      if (l.i < l.n && l.d[l.i] == d) {
        score += Bm25One(l.idf, static_cast<float>(l.tf[l.i]),
                         static_cast<float>(doclens[d]), k1, b, inv_avgdl);
        ++l.i;
      }
    }
    topk.Push(d, score);
    ++result->num_matches;
  }
  topk.FinishSorted(&result->docids, &result->scores);
  result->cpu_seconds = timer.ElapsedSeconds();
  return OkStatus();
}

Status CustomIrEngine::SearchTaat(const Query& query, uint32_t k,
                                  CustomSearchResult* result) const {
  if (result == nullptr) return InvalidArgument("null result");
  std::vector<uint32_t> terms;
  X100IR_RETURN_IF_ERROR(PrepareTerms(query, k, &terms));
  *result = CustomSearchResult();
  WallTimer timer;

  const float k1 = params_.k1, b = params_.b;
  const float inv_avgdl =
      index_->avg_doc_len() > 0.0
          ? static_cast<float>(1.0 / index_->avg_doc_len())
          : 0.0f;
  const int32_t* doclens = index_->doc_lens().data();

  // The accumulator array is the TAAT signature: simple per-term loops, at
  // the price of touching O(num_docs) memory per query.
  std::vector<float> acc(index_->num_docs(), 0.0f);
  for (uint32_t t : terms) {
    const TermInfo& info = index_->term(t);
    const int32_t* d = docids_.data() + info.posting_start;
    const int32_t* tf = tfs_.data() + info.posting_start;
    const float idf = info.idf;
    for (uint32_t i = 0; i < info.doc_freq; ++i) {
      acc[d[i]] += Bm25One(idf, static_cast<float>(tf[i]),
                           static_cast<float>(doclens[d[i]]), k1, b,
                           inv_avgdl);
    }
  }
  TopK topk(k);
  for (uint32_t d = 0; d < acc.size(); ++d) {
    if (acc[d] > 0.0f) {
      topk.Push(static_cast<int32_t>(d), acc[d]);
      ++result->num_matches;
    }
  }
  topk.FinishSorted(&result->docids, &result->scores);
  result->cpu_seconds = timer.ElapsedSeconds();
  return OkStatus();
}

Status CustomIrEngine::SearchMaxScore(const Query& query, uint32_t k,
                                      CustomSearchResult* result) const {
  if (result == nullptr) return InvalidArgument("null result");
  std::vector<uint32_t> terms;
  X100IR_RETURN_IF_ERROR(PrepareTerms(query, k, &terms));
  *result = CustomSearchResult();
  WallTimer timer;

  const float k1 = params_.k1, b = params_.b;
  const float inv_avgdl =
      index_->avg_doc_len() > 0.0
          ? static_cast<float>(1.0 / index_->avg_doc_len())
          : 0.0f;
  const int32_t* doclens = index_->doc_lens().data();
  const float min_dl = static_cast<float>(index_->min_doc_len());

  struct List {
    const int32_t* d;
    const int32_t* tf;
    uint32_t n;
    uint32_t i = 0;
    float idf;
    float ub;
  };
  std::vector<List> lists;
  lists.reserve(terms.size());
  for (uint32_t t : terms) {
    const TermInfo& info = index_->term(t);
    const float tf_max = static_cast<float>(info.max_tf);
    lists.push_back({docids_.data() + info.posting_start,
                     tfs_.data() + info.posting_start, info.doc_freq, 0,
                     info.idf,
                     Bm25One(info.idf, tf_max, min_dl, k1, b, inv_avgdl)});
  }
  // Weakest first; prefix[i] = sum of ubs of lists[0..i].
  std::sort(lists.begin(), lists.end(),
            [](const List& a, const List& b2) { return a.ub < b2.ub; });
  const size_t m = lists.size();
  std::vector<float> prefix(m);
  float acc = 0.0f;
  for (size_t i = 0; i < m; ++i) {
    acc += lists[i].ub;
    prefix[i] = acc;
  }

  TopK topk(k);
  size_t ness = 0;  // lists[0..ness) are non-essential (probe-only)
  for (;;) {
    const float theta = topk.threshold();
    while (ness < m && prefix[ness] < theta) ++ness;
    if (ness == m) break;
    // Candidate: smallest head among essential lists.
    int32_t d = 0;
    bool any = false;
    for (size_t i = ness; i < m; ++i) {
      const List& l = lists[i];
      if (l.i < l.n && (!any || l.d[l.i] < d)) {
        d = l.d[l.i];
        any = true;
      }
    }
    if (!any) break;
    float score = 0.0f;
    for (size_t i = ness; i < m; ++i) {
      List& l = lists[i];
      if (l.i < l.n && l.d[l.i] == d) {
        score += Bm25One(l.idf, static_cast<float>(l.tf[l.i]),
                         static_cast<float>(doclens[d]), k1, b, inv_avgdl);
        ++l.i;
      }
    }
    ++result->num_matches;
    // Probe non-essential lists strongest-first while the bound allows.
    float remaining = ness > 0 ? prefix[ness - 1] : 0.0f;
    bool viable = true;
    for (size_t p = ness; p-- > 0;) {
      if (topk.full() && score + remaining < topk.threshold()) {
        viable = false;
        break;
      }
      List& l = lists[p];
      remaining -= l.ub;
      l.i = vec::GallopLowerBound(l.d, l.i, l.n, d);
      if (l.i < l.n && l.d[l.i] == d) {
        score += Bm25One(l.idf, static_cast<float>(l.tf[l.i]),
                         static_cast<float>(doclens[d]), k1, b, inv_avgdl);
      }
    }
    if (viable) topk.Push(d, score);
  }
  topk.FinishSorted(&result->docids, &result->scores);
  result->cpu_seconds = timer.ElapsedSeconds();
  return OkStatus();
}

}  // namespace x100ir::ir
