// Query execution. The boolean runs and the score-all BM25 union are
// operator plans: compositions of vec/ operators (Scan over
// SliceVectorSource windows of the compressed TD columns, MergeJoin for
// conjunctions), the ranked-run operators of ir/plan_ops.h and the
// TopKOperator plan root (topk.h). Every other ranked run — BM25 and the
// four Table 2 storage runs — goes through the one Block-Max MaxScore
// evaluator at the bottom of this file, over a posting source
// (posting_source.h) that picks the columns.
#include "ir/search_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "common/timer.h"
#include "ir/bm25.h"
#include "ir/normalize.h"
#include "ir/plan_ops.h"
#include "ir/posting_cursor.h"
#include "ir/posting_source.h"
#include "ir/topk.h"
#include "vec/mem_source.h"
#include "vec/merge_join.h"
#include "vec/primitives.h"
#include "vec/scan.h"
#include "vec/streaming_merge.h"

namespace x100ir::ir {
namespace {

// Leaf of every plan: a scan over one term's window of the compressed TD
// columns (docid always, tf when the run scores).
vec::OperatorPtr MakeTermScan(const InvertedIndex& index,
                              vec::ExecContext* ctx, uint32_t term,
                              bool with_tf) {
  const TermInfo& info = index.term(term);
  vec::Schema schema;
  schema.Add("docid", vec::TypeId::kI32);
  if (with_tf) schema.Add("tf", vec::TypeId::kI32);
  std::vector<vec::VectorSourcePtr> sources;
  sources.push_back(std::make_unique<vec::SliceVectorSource>(
      index.docid_source(), info.posting_start, info.doc_freq));
  if (with_tf) {
    sources.push_back(std::make_unique<vec::SliceVectorSource>(
        index.tf_source(), info.posting_start, info.doc_freq));
  }
  return std::make_unique<vec::ScanOperator>(ctx, std::move(schema),
                                             std::move(sources));
}

}  // namespace

Status SearchEngine::Search(const Query& query, RunType type,
                            const SearchOptions& opts,
                            SearchResult* result) const {
  if (result == nullptr) return InvalidArgument("null search result");
  if (index_ == nullptr) return InvalidArgument("search engine has no index");
  WallTimer timer;
  *result = SearchResult();

  // Request validation happens here, up front, with specific messages —
  // not by whichever operator deep in the plan would have tripped first.
  std::vector<uint32_t> terms;
  bool any_unknown = false;
  X100IR_RETURN_IF_ERROR(NormalizeQueryTerms(
      query, opts.k, index_->vocab_size(),
      [this](uint32_t t) { return index_->term(t).doc_freq; }, &terms,
      &any_unknown));
  const bool storage_run = IsStorageRun(type);
  if (storage_run && !index_->has_storage()) {
    return FailedPrecondition(
        std::string(RunTypeName(type)) +
        " needs an on-disk index (Database opened with a directory): the "
        "storage runs read cold columns through the buffer pool");
  }
  // Unknown words match nothing: a conjunction containing one is empty,
  // and a disjunction/ranked run simply drops them. Either way the result
  // is a clean empty set, never a plan built over zero-length columns.
  if (terms.empty() || (type == RunType::kBoolAnd && any_unknown)) {
    result->seconds = timer.ElapsedSeconds();
    return OkStatus();
  }
  // A query admitted past its deadline (queue wait ate the budget) fails
  // here, before any plan is built.
  if (opts.deadline != nullptr) {
    X100IR_RETURN_IF_ERROR(opts.deadline->Check());
  }

  // Simulated I/O is charged to the shared disk; a storage run's share is
  // the delta across the run (single-threaded engine).
  const double io_before = storage_run ? index_->disk()->io_seconds() : 0.0;
  Status s;
  switch (type) {
    case RunType::kBoolAnd:
      s = SearchBool(terms, /*conjunctive=*/true, opts, result);
      break;
    case RunType::kBoolOr:
      s = SearchBool(terms, /*conjunctive=*/false, opts, result);
      break;
    case RunType::kBm25:
      s = opts.maxscore_bm25
              ? SearchBm25MaxScore<TdPostings>(
                    TdPostings::MakeEnv(*index_, opts), terms, opts, result)
              : SearchBm25(terms, opts, result);
      break;
    // The storage runs: the same ranked evaluator, over pool-served
    // columns — the run picks the columns (posting_source.h).
    case RunType::kBm25T:
    case RunType::kBm25TC:
      s = SearchBm25MaxScore<ColumnPostings<false>>(
          ColumnPostings<false>::MakeEnv(type, *index_, opts), terms, opts,
          result);
      break;
    case RunType::kBm25TCM:
    case RunType::kBm25TCMQ8:
      s = SearchBm25MaxScore<ColumnPostings<true>>(
          ColumnPostings<true>::MakeEnv(type, *index_, opts), terms, opts,
          result);
      break;
    default:
      return Internal("unreachable run type");
  }
  if (storage_run) {
    result->io_seconds = index_->disk()->io_seconds() - io_before;
  }
  result->seconds = timer.ElapsedSeconds();
  return s;
}

Status SearchEngine::SearchBool(const std::vector<uint32_t>& terms,
                                bool conjunctive, const SearchOptions& opts,
                                SearchResult* result) const {
  vec::ExecContext ctx;
  ctx.vector_size = opts.vector_size;
  ctx.rng = Rng(opts.rng_seed);
  vec::OperatorPtr root;
  if (conjunctive && opts.streaming_and) {
    // Streaming skip join: cursors rarest-first so the shortest list
    // drives and the long lists are only probed (DESIGN.md §7.2).
    std::vector<uint32_t> by_df = terms;
    std::sort(by_df.begin(), by_df.end(), [this](uint32_t a, uint32_t b) {
      if (index_->term(a).doc_freq != index_->term(b).doc_freq) {
        return index_->term(a).doc_freq < index_->term(b).doc_freq;
      }
      return a < b;
    });
    std::vector<vec::SkipCursorPtr> cursors;
    cursors.reserve(by_df.size());
    for (uint32_t t : by_df) {
      auto cursor = std::make_unique<DocidSkipCursor>();
      X100IR_RETURN_IF_ERROR(cursor->Init(index_, t));
      cursors.push_back(std::move(cursor));
    }
    root = std::make_unique<vec::StreamingMergeJoinOperator>(
        &ctx, std::move(cursors));
  } else {
    std::vector<vec::OperatorPtr> children;
    children.reserve(terms.size());
    for (uint32_t t : terms) {
      children.push_back(MakeTermScan(*index_, &ctx, t, /*with_tf=*/false));
    }
    if (conjunctive) {
      root = std::make_unique<vec::MergeJoinOperator>(
          &ctx, std::move(children), vec::MergeMode::kIntersect);
    } else {
      root = std::make_unique<MergeUnionOperator>(&ctx, std::move(children),
                                                  /*sum_scores=*/false);
    }
  }
  X100IR_RETURN_IF_ERROR(root->Open());
  vec::Batch* b = nullptr;
  for (;;) {
    // Deadline checkpoint: once per batch (§9.3), so an expiring query
    // surfaces within one vector's worth of work, with its partial stats.
    if (opts.deadline != nullptr) {
      Status live = opts.deadline->Check();
      if (!live.ok()) {
        root->Close();
        result->stats = ctx.stats;
        return live;
      }
    }
    X100IR_RETURN_IF_ERROR(root->Next(&b));
    if (b == nullptr) break;
    const int32_t* docids = b->columns[0]->Data<int32_t>();
    if (opts.tombstones == nullptr) {
      result->num_matches += b->count;
      const uint32_t room =
          opts.k > result->docids.size()
              ? opts.k - static_cast<uint32_t>(result->docids.size())
              : 0;
      const uint32_t take = std::min(room, b->count);
      result->docids.insert(result->docids.end(), docids, docids + take);
    } else {
      // Segmented read with deletes: only live docids count toward
      // num_matches and the k cap, so the result matches an index rebuilt
      // without the deleted documents.
      for (uint32_t i = 0; i < b->count; ++i) {
        if (TombstoneTest(opts.tombstones, docids[i])) continue;
        ++result->num_matches;
        if (result->docids.size() < opts.k) {
          result->docids.push_back(docids[i]);
        }
      }
    }
  }
  root->Close();
  result->stats = ctx.stats;
  return OkStatus();
}

Status SearchEngine::SearchBm25(const std::vector<uint32_t>& terms,
                                const SearchOptions& opts,
                                SearchResult* result) const {
  vec::ExecContext ctx;
  ctx.vector_size = opts.vector_size;
  ctx.rng = Rng(opts.rng_seed);
  const double avgdl = EffectiveAvgDocLen(opts, *index_);
  const float inv_avgdl =
      avgdl > 0.0 ? static_cast<float>(1.0 / avgdl) : 0.0f;
  const int32_t* doclens = index_->doc_lens().data();

  std::vector<vec::OperatorPtr> scored;
  scored.reserve(terms.size());
  for (uint32_t t : terms) {
    scored.push_back(std::make_unique<Bm25ScoreOperator>(
        &ctx, MakeTermScan(*index_, &ctx, t, /*with_tf=*/true),
        EffectiveIdf(opts, *index_, t), opts.bm25, doclens, inv_avgdl));
  }
  auto union_op = std::make_unique<MergeUnionOperator>(&ctx, std::move(scored),
                                                       /*sum_scores=*/true);
  auto topk = std::make_unique<TopKOperator>(&ctx, std::move(union_op),
                                             opts.k);
  topk->set_tombstones(opts.tombstones);
  TopKOperator* topk_raw = topk.get();
  vec::OperatorPtr root = std::move(topk);
  X100IR_RETURN_IF_ERROR(root->Open());
  vec::Batch* b = nullptr;
  for (;;) {
    if (opts.deadline != nullptr) {
      Status live = opts.deadline->Check();
      if (!live.ok()) {
        result->num_matches = topk_raw->rows_consumed();
        root->Close();
        result->stats = ctx.stats;
        return live;
      }
    }
    X100IR_RETURN_IF_ERROR(root->Next(&b));
    if (b == nullptr) break;
    const int32_t* docids = b->columns[0]->Data<int32_t>();
    const float* scores = b->columns[1]->Data<float>();
    result->docids.insert(result->docids.end(), docids, docids + b->count);
    result->scores.insert(result->scores.end(), scores, scores + b->count);
  }
  result->num_matches = topk_raw->rows_consumed();
  root->Close();
  result->stats = ctx.stats;
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Streaming BM25 with MaxScore pruning (DESIGN.md §7.4) — the one ranked
// evaluator: the BM25 run and the four storage runs differ only in the
// posting source (posting_source.h) the loop reads.
//
// Per term: a score upper bound ub = idf * (k1+1) * max_tf /
// (max_tf + c0 + c1 * min_doclen) — BM25 is monotone in tf and doclen, so
// no posting of the term can contribute more. Terms sorted by ub ascending
// give prefix sums P[i]; once the top-k threshold θ exceeds P[i], the i+1
// weakest terms are *non-essential*: a document appearing only in them
// tops out below θ and can never enter the heap. Their streams stop being
// merged (whole vectors pruned) and they are only probed — forward SkipTo
// on the docid windows — to complete the scores of candidates that
// survive a branch-free threshold select. This demotion is what the
// paper's two-pass runs did with a fixed df cutoff (DESIGN.md §8.5).
//
// The evaluation stays vector-at-a-time, and refills are *window-granular*
// (Block-Max MaxScore, DESIGN.md §12): an essential stream advances one
// 128-posting window at a time. Before decoding a window, the term's
// stored (max_tf, min_doclen) block bound — recomputed under the source's
// scoring model — is tested against θ: when even Σ(other terms' ubs) plus
// this window's bound cannot reach θ, no document in the window can enter
// the top k through *any* merge, so the window is skipped without a fetch
// or decode (windows_blockmax_skipped). The in-memory source scores
// decoded windows with the fused decode→score kernel (fused_score.h): the
// tf codewords go from packed payload to BM25 contributions without
// materializing a tf vector.
// The merge emits candidate vectors of (docid, partial score), and one
// SelectColVal per vector rejects candidates whose partial +
// Σ(non-essential ubs) falls below θ. Only survivors touch the probe
// cursors and the branchy heap.
//
// Soundness of the per-term window skip: it fires only when
// other_bound + ub_w < θ, where other_bound sums the *static* ubs of
// every other query term. Any document d in the skipped window has
// score(d) <= other_bound + ub_w < θ, so even when d still surfaces as a
// candidate through another essential list, its completed score stays
// below θ and the heap push is a no-op — the top k (and p@20) are
// bit-identical to the unskipped oracle; only num_matches and the window
// counters may differ. The same argument covers the demotion probe: a
// probe cursor starts at the demoted stream's current vector, never
// before, so it may miss contributions from earlier skipped windows —
// missing them only lowers a score that is already provably below θ.
// ---------------------------------------------------------------------------

namespace {

// Per-term state for the MaxScore evaluation.
template <typename Source>
struct MsTerm {
  uint32_t term = 0;
  float ub = 0.0f;
  // Σ of every *other* query term's ub — the companion bound of the
  // per-window skip test.
  float other_bound = 0.0f;
  uint32_t df = 0;
  uint64_t posting_start = 0;

  // The term's postings (posting_source.h): streamed window by window
  // while essential, probed once demoted.
  Source src;
  // Essential phase: vectorized scoring buffers. They hold up to a full
  // extra window past vector_size (refills append whole window runs);
  // vec_start is the stream position of the current buffer's first
  // posting — what a demotion hands the probe as its resume position
  // (re-covering at most one buffered vector, which forward-only probes
  // cross for free).
  uint64_t vec_start = 0;
  std::vector<int32_t> docids;
  std::vector<float> scores;
  uint32_t voff = 0, vlen = 0;

  // Non-essential phase: the source probes forward from vec_start (the
  // stream read ahead by up to one vector; that tail is re-covered by the
  // probe, never lost).
  bool demoted = false;
};

}  // namespace

template <typename Source>
Status SearchEngine::SearchBm25MaxScore(const typename Source::Env& env,
                                        const std::vector<uint32_t>& terms,
                                        const SearchOptions& opts,
                                        SearchResult* result) const {
  using Term = MsTerm<Source>;
  vec::ExecContext ctx;
  ctx.vector_size = opts.vector_size;
  ctx.rng = Rng(opts.rng_seed);
  X100IR_RETURN_IF_ERROR(ctx.Validate());
  const uint32_t vsize = ctx.vector_size;
  const float min_dl = static_cast<float>(index_->min_doc_len());

  const size_t m = terms.size();
  // A single-term query never leaves the solo-stream fast path, which
  // reads scored windows in place — no per-term buffers, no candidate
  // staging, no initial refill. (Tombstoned reads use the generic merge.)
  const bool solo_only = m == 1 && opts.tombstones == nullptr;
  // Per-thread scratch, reused across queries: the posting buffers and
  // cursor window caches keep their capacity (and their cache heat), so a
  // steady query stream allocates nothing here after warm-up. The pool
  // never shrinks — states[0..m) is this query's slice; every per-query
  // field (voff/vlen/demoted/vec_start included) is re-initialized below,
  // and source Init fully resets position and skip stats.
  static thread_local std::vector<Term> states_pool;
  static thread_local std::vector<uint32_t> order;
  static thread_local std::vector<float> prefix;
  static thread_local std::vector<vec::sel_t> cand_sel;
  if (states_pool.size() < m) states_pool.resize(m);
  Term* const states = states_pool.data();
  for (size_t i = 0; i < m; ++i) {
    Term& ts = states[i];
    const TermInfo& info = index_->term(terms[i]);
    ts.term = terms[i];
    ts.df = info.doc_freq;
    ts.posting_start = info.posting_start;
    ts.voff = 0;
    ts.vlen = 0;
    ts.vec_start = 0;
    ts.demoted = false;
    X100IR_RETURN_IF_ERROR(ts.src.Init(env, ts.term, &ctx.stats));
    ts.ub = ts.src.model().Bound(static_cast<float>(info.max_tf), min_dl);
    if (!solo_only) {
      const uint32_t cap = vsize + compress::kEntryPointStride;
      ts.docids.resize(cap);
      ts.scores.resize(cap);
    }
  }

  // Weakest-first order and upper-bound prefix sums: order[0..ness) is the
  // demoted (non-essential) prefix.
  order.resize(m);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&states](uint32_t a, uint32_t b) {
    if (states[a].ub != states[b].ub) return states[a].ub < states[b].ub;
    return states[a].term < states[b].term;
  });
  prefix.resize(m);
  float acc = 0.0f;
  for (size_t i = 0; i < m; ++i) {
    acc += states[order[i]].ub;
    prefix[i] = acc;
  }
  const float total_ub = m > 0 ? prefix[m - 1] : 0.0f;
  for (size_t i = 0; i < m; ++i) states[i].other_bound = total_ub - states[i].ub;

  TopK topk(opts.k);
  if (!solo_only) {
    // The solo fast path's buffer-drain pass selects over a whole buffered
    // run, which can be up to one window longer than a candidate vector.
    cand_sel.resize(vsize + compress::kEntryPointStride);
  }
  uint64_t candidates = 0;
  size_t ness = 0;  // order[0..ness) are demoted

  // Distributed θ floor (DESIGN.md §11.3): the local heap's threshold,
  // raised to the cluster-wide k-th-best lower bound when a shared
  // channel is plumbed in. Every pruning decision below (the per-window
  // block-max test, term demotion, the candidate select, probe-completion
  // viability) goes through this, so a shard seeded by a faster peer
  // starts pruning — and block-max-skipping windows — where that peer
  // left off. Scores exactly at the bound always survive the >= /
  // strict-< pruning tests, so the (score desc, docid asc) tiebreak at
  // the global boundary is never cut off.
  SharedTheta* shared = opts.shared_theta;
  const auto live_theta = [&]() -> float {
    const float local = topk.threshold();
    return shared != nullptr ? std::max(local, shared->Load()) : local;
  };

  const std::vector<BlockMaxEntry>& blockmax = index_->block_max();
  const bool use_blockmax = opts.blockmax && !blockmax.empty();
  // The Block-Max reject of the term's current window: even every other
  // term's ub plus this window's stored (max_tf, min_doclen) bound —
  // evaluated under the source's scoring model — cannot reach θ.
  const auto window_rejected = [&](Term& ts) {
    if (!use_blockmax) return false;
    const BlockMaxEntry& bm = blockmax[ts.src.window()];
    return ts.other_bound + ts.src.model().Bound(
                                static_cast<float>(bm.max_tf),
                                static_cast<float>(bm.min_doclen)) <
           live_theta();
  };

  // Window-granular refill: append whole window runs until the buffer
  // holds at least vector_size postings or the stream ends. Each window is
  // either rejected by its block bound without a fetch or decode, or
  // decoded once and scored in one kernel call.
  const auto refill = [&](Term& ts) -> Status {
    ts.voff = 0;
    ts.vlen = 0;
    ts.vec_start = ts.src.position();
    while (ts.vlen < vsize && !ts.src.AtEnd()) {
      if (window_rejected(ts)) {
        ts.src.SkipWindow();
        // Leading skips move the buffer's start: vec_start must name the
        // first posting actually buffered (or the end, if none are).
        if (ts.vlen == 0) ts.vec_start = ts.src.position();
        continue;
      }
      PostingRun run;
      X100IR_RETURN_IF_ERROR(ts.src.Run(&run));
      std::memcpy(ts.docids.data() + ts.vlen, run.docids,
                  sizeof(int32_t) * run.n);
      std::memcpy(ts.scores.data() + ts.vlen, run.scores,
                  sizeof(float) * run.n);
      ts.vlen += run.n;
    }
    return OkStatus();
  };

  // Completes a candidate's partial score from the demoted lists,
  // strongest first, with the live threshold: each probe either adds the
  // term's real contribution or retires its ub from the remaining
  // headroom; a candidate that provably cannot reach θ is dropped
  // mid-chain. θ cannot rise inside one chain (no push until it ends), so
  // one load covers it. *pushed reports a heap push attempt — the
  // caller's cached cut may be stale then.
  const auto complete_and_push = [&](int32_t d, float s, size_t ness_now,
                                     float bound, bool* pushed) -> Status {
    *pushed = false;
    const float live = live_theta();
    float remaining = bound;
    for (size_t p = ness_now; p-- > 0;) {
      if (s + remaining < live) return OkStatus();
      Term& nt = states[order[p]];
      remaining -= nt.ub;
      bool hit = false;
      float contrib = 0.0f;
      X100IR_RETURN_IF_ERROR(nt.src.Probe(d, &hit, &contrib));
      if (hit) {
        s += contrib;
        ++ctx.stats.docs_probed;
      }
    }
    topk.Push(d, s);
    *pushed = true;
    return OkStatus();
  };

  // The evaluation proper. Every exit — done, deadline, or a pool failure
  // in a storage run — folds the per-term stats below, so a failed query
  // still reports everything it actually did.
  const auto evaluate = [&]() -> Status {
    if (!solo_only) {
      for (size_t i = 0; i < m; ++i) X100IR_RETURN_IF_ERROR(refill(states[i]));
    }
    vec::sel_t wsel[compress::kEntryPointStride];
    for (;;) {
      // Deadline checkpoint: once per candidate vector (§9.3).
      if (opts.deadline != nullptr) {
        X100IR_RETURN_IF_ERROR(opts.deadline->Check());
      }
      const float theta = live_theta();
      // Re-partition between vectors: θ only grows, so demotion is one-way.
      while (ness < m && prefix[ness] < theta) {
        Term& ts = states[order[ness]];
        ts.demoted = true;
        // Resume the probe at the current buffer's first posting: forward
        // probes cross the already-consumed prefix for free, and anything
        // block-max skipping dropped before this point is provably below θ
        // (see the soundness note above).
        X100IR_RETURN_IF_ERROR(ts.src.StartProbe(ts.vec_start));
        const uint64_t remaining = ts.df - (ts.vec_start - ts.posting_start);
        ctx.stats.vectors_pruned += (remaining + vsize - 1) / vsize;
        ts.voff = ts.vlen = 0;  // drop the read-ahead tail; probes re-cover it
        ++ness;
      }
      if (ness == m) break;  // even all terms together cannot reach θ
      const float ness_bound = ness > 0 ? prefix[ness - 1] : 0.0f;

      // Solo-stream fast path: with a single essential list left — every
      // 1-term query, and every multi-term query once demotion has eaten
      // the rest — there is nothing to merge. The source's scored window
      // run is the candidate vector and feeds the threshold select
      // directly, so postings flow window-at-a-time from decode to select
      // to heap with no staging copies at all. (Tombstoned reads keep the
      // generic merge, which filters per doc.)
      if (m - ness == 1 && opts.tombstones == nullptr) {
        Term* solo = nullptr;
        for (size_t i = 0; i < m; ++i) {
          if (!states[i].demoted) solo = &states[i];
        }
        Term& ts = *solo;
        bool pushed = false;
        // Drain whatever the buffered multi-stream phase left behind with
        // one select pass; streaming takes over on the next iteration.
        const uint32_t batch = ts.vlen - ts.voff;
        if (batch > 0) {
          const int32_t* bd = ts.docids.data() + ts.voff;
          const float* bs = ts.scores.data() + ts.voff;
          candidates += batch;
          const float cut = theta - ness_bound;
          const uint32_t n_cand =
              vec::SelectGeFloatVal(batch, cand_sel.data(), bs, cut);
          ++ctx.stats.primitive_calls;
          for (uint32_t j = 0; j < n_cand; ++j) {
            X100IR_RETURN_IF_ERROR(complete_and_push(
                bd[cand_sel[j]], bs[cand_sel[j]], ness, ness_bound, &pushed));
          }
          ts.voff = ts.vlen = 0;
          ts.vec_start = ts.src.position();
          if (shared != nullptr) shared->RaiseTo(topk.threshold());
          continue;
        }
        if (ts.src.AtEnd()) break;
        // Window-at-a-time streaming, one candidate vector's worth per
        // outer iteration (keeps the deadline / re-partition granularity).
        uint32_t consumed = 0;
        while (consumed < vsize && !ts.src.AtEnd()) {
          if (window_rejected(ts)) {
            ts.src.SkipWindow();
            continue;
          }
          PostingRun run;
          X100IR_RETURN_IF_ERROR(ts.src.Run(&run));
          candidates += run.n;
          const float cut = live_theta() - ness_bound;
          const uint32_t n_cand =
              vec::SelectGeFloatVal(run.n, wsel, run.scores, cut);
          ++ctx.stats.primitive_calls;
          for (uint32_t j = 0; j < n_cand; ++j) {
            X100IR_RETURN_IF_ERROR(complete_and_push(run.docids[wsel[j]],
                                                     run.scores[wsel[j]],
                                                     ness, ness_bound,
                                                     &pushed));
          }
          consumed += run.n;
        }
        ts.vec_start = ts.src.position();
        if (shared != nullptr) shared->RaiseTo(topk.threshold());
        continue;
      }

      // Merge one vector of candidates from the essential streams. The
      // active set (essential, non-empty) is gathered once per vector —
      // streams leave it only by running dry, so the per-doc loops never
      // re-test demotion or emptiness across the whole states array. The
      // threshold filter (partial + ness_bound >= θ, i.e. partial >= θ −
      // ness_bound; −inf until the heap fills) is fused into the merge, and
      // survivors complete and push immediately — θ therefore rises
      // *within* the vector and the cached cut is refreshed after every
      // push attempt, so later docs in the same vector face the freshest
      // threshold.
      float cut = theta - ness_bound;
      uint32_t seen = 0;
      Term* act[16];
      std::vector<Term*> act_big;
      Term** ap = act;
      size_t na = 0;
      if (m > 16) {
        act_big.resize(m);
        ap = act_big.data();
      }
      for (size_t i = 0; i < m; ++i) {
        Term& ts = states[i];
        if (!ts.demoted && ts.voff < ts.vlen) ap[na++] = &ts;
      }
      while (seen < vsize && na == 2) {
        // Two-pointer union — the workhorse shape (2-term queries, and
        // 3-term queries after one demotion). On a union merge the docid
        // comparison is a coin flip, so the advance is computed branch-free
        // (conditional moves). Both buffers are hoisted into locals for the
        // inner loop: nothing in the loop body touches the term objects
        // (probes and the heap live elsewhere), so the compiler keeps the
        // six hot values in registers instead of re-deriving them through
        // the state array every posting.
        Term& a = *ap[0];
        Term& b = *ap[1];
        const int32_t* ad = a.docids.data();
        const float* as = a.scores.data();
        const int32_t* bd = b.docids.data();
        const float* bs = b.scores.data();
        uint32_t ai = a.voff;
        const uint32_t an = a.vlen;
        uint32_t bi = b.voff;
        const uint32_t bn = b.vlen;
        while (seen < vsize && ai < an && bi < bn) {
          const int32_t da = ad[ai];
          const int32_t db = bd[bi];
          const float sa = as[ai];
          const float sb = bs[bi];
          const int32_t d = da < db ? da : db;
          const float partial = (da == d ? sa : 0.0f) + (db == d ? sb : 0.0f);
          ai += (da == d);
          bi += (db == d);
          if (TombstoneTest(opts.tombstones, d)) continue;
          ++seen;
          if (partial >= cut) {
            bool pushed = false;
            X100IR_RETURN_IF_ERROR(
                complete_and_push(d, partial, ness, ness_bound, &pushed));
            if (pushed) cut = live_theta() - ness_bound;
          }
        }
        a.voff = ai;
        b.voff = bi;
        if (ai >= an) X100IR_RETURN_IF_ERROR(refill(a));
        if (bi >= bn) X100IR_RETURN_IF_ERROR(refill(b));
        if (ap[1]->voff >= ap[1]->vlen) --na;
        if (ap[0]->voff >= ap[0]->vlen) {
          ap[0] = ap[na - 1];
          --na;
        }
      }
      // The find-min scan reads a local head array (maintained on every
      // advance) instead of chasing three dependent loads per stream
      // through the active-set pointers.
      int32_t heads[16];
      std::vector<int32_t> heads_big;
      int32_t* hp = heads;
      if (m > 16) {
        heads_big.resize(m);
        hp = heads_big.data();
      }
      for (size_t i = 0; i < na; ++i) hp[i] = ap[i]->docids[ap[i]->voff];
      while (seen < vsize && na > 0) {
        int32_t d = hp[0];
        for (size_t i = 1; i < na; ++i) {
          if (hp[i] < d) d = hp[i];
        }
        float partial = 0.0f;
        for (size_t i = 0; i < na; ++i) {
          if (hp[i] != d) continue;
          Term& ts = *ap[i];
          partial += ts.scores[ts.voff];
          if (++ts.voff == ts.vlen) {
            X100IR_RETURN_IF_ERROR(refill(ts));
            if (ts.voff >= ts.vlen) {  // stream dry: drop from the active set
              ap[i] = ap[na - 1];
              hp[i] = hp[na - 1];
              --na;
              --i;
              continue;
            }
          }
          hp[i] = ts.docids[ts.voff];
        }
        // Segmented read with deletes: the streams still advance past a
        // dead doc (posting consumption is positional) but it is never a
        // candidate — not scored, not probed, not counted.
        if (TombstoneTest(opts.tombstones, d)) continue;
        ++seen;
        if (partial >= cut) {
          bool pushed = false;
          X100IR_RETURN_IF_ERROR(
              complete_and_push(d, partial, ness, ness_bound, &pushed));
          if (pushed) cut = live_theta() - ness_bound;
        }
      }
      if (seen == 0) break;  // essential streams exhausted
      candidates += seen;
      // Publish once per candidate vector, not per push: the channel is a
      // bound, not a log, and the heap's threshold after the batch is the
      // tightest value this shard can prove.
      if (shared != nullptr) shared->RaiseTo(topk.threshold());
    }
    if (shared != nullptr) shared->RaiseTo(topk.threshold());
    topk.FinishSorted(&result->docids, &result->scores);
    return OkStatus();
  };

  const Status s = evaluate();
  result->num_matches = candidates;
  for (size_t i = 0; i < m; ++i) states[i].src.FoldStats(&ctx.stats);
  result->stats = ctx.stats;
  return s;
}

}  // namespace x100ir::ir
