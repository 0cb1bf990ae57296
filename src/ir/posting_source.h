// Window-granular posting sources: the one seam the ranked evaluator
// (SearchEngine's Block-Max MaxScore loop, DESIGN.md §7.4/§12) reads
// postings through. A source serves one query term's postings one
// 128-posting TD window at a time:
//
//   Status Init(const Env&, uint32_t term, vec::ExecStats*)
//   const TermModel& model() const  how the term's contributions are
//                                   bounded (term- and window-level)
//   bool AtEnd() const / uint64_t position() const
//   uint32_t window() const         TD window holding position() — the
//                                   block_max() entry that bounds it
//   void SkipWindow()               past that window; no fetch, no decode
//   Status Run(PostingRun*)         decode the window's in-range tail and
//                                   score it, then move past it
//   Status StartProbe(uint64_t pos) switch to forward probing from
//                                   absolute posting position pos
//   Status Probe(int32_t d, bool* hit, float* score)
//   void FoldStats(vec::ExecStats*) const
//
// Every column of the TD table (docid, tf, materialized scores — raw or
// compressed, resident or pool-served) shares one posting position space,
// so a window index means the same postings in every implementation. The
// paper's Table 2 runs are therefore choices of source, not algorithms:
//
//   TdPostings          BM25       in-memory compressed TD columns, fused
//                                  decode→score kernel, live stats
//   ColumnPostings<false>
//                       BM25T/TC   pool-served docid + tf columns (raw or
//                                  PFOR), MapBm25 under live stats
//   ColumnPostings<true>
//                       BM25TCM/Q8 pool-served docid + f32/q8 score
//                                  columns; bounds from block_max() under
//                                  the build-time model the scores were
//                                  baked with, plus q8's half-step slack
//
// Sources are per-query objects over borrowed index state.
#ifndef X100IR_IR_POSTING_SOURCE_H_
#define X100IR_IR_POSTING_SOURCE_H_

#include <algorithm>
#include <cstdint>

#include "common/status.h"
#include "ir/bm25.h"
#include "ir/fused_score.h"
#include "ir/index_builder.h"
#include "ir/posting_cursor.h"
#include "ir/search_engine.h"
#include "storage/column_reader.h"
#include "vec/scan.h"

namespace x100ir::ir {

// One term's BM25 scoring model, as far as bounds are concerned: the
// largest contribution of a posting with term frequency <= tf in a
// document of length >= dl. `slack` covers representation error of stored
// scores (q8 rounding).
struct TermModel {
  float idf = 0.0f;
  float k1 = 0.0f;
  float b = 0.0f;
  float inv_avgdl = 0.0f;
  float slack = 0.0f;

  float Bound(float tf, float dl) const {
    return Bm25One(idf, tf, dl, k1, b, inv_avgdl) + slack;
  }
};

// One scored window tail: docids[i] scored scores[i], i in [0, n).
// Borrowed from the source; valid until its next Run.
struct PostingRun {
  const int32_t* docids = nullptr;
  const float* scores = nullptr;
  uint32_t n = 0;
};

// In-memory compressed TD columns (the BM25 run).
class TdPostings {
 public:
  struct Env {
    const InvertedIndex* index = nullptr;
    const SearchOptions* opts = nullptr;
    const int32_t* doclens = nullptr;
    // Resident PFOR tf block in the patched layout, or null: the composed
    // decode + MapBm25 path (naive-layout A/B builds, PDICT, or
    // fused_score off — the kernel's agreement oracle).
    const compress::BlockDecoder* fused_tf = nullptr;
    float k1 = 0.0f, b = 0.0f, inv_avgdl = 0.0f;
  };

  static Env MakeEnv(const InvertedIndex& index, const SearchOptions& opts) {
    Env env;
    env.index = &index;
    env.opts = &opts;
    env.doclens = index.doc_lens().data();
    const compress::BlockDecoder* tf_dec = index.tf_decoder();
    if (opts.fused_score && tf_dec != nullptr &&
        tf_dec->scheme() == compress::Scheme::kPfor &&
        !tf_dec->naive_layout()) {
      env.fused_tf = tf_dec;
    }
    env.k1 = opts.bm25.k1;
    env.b = opts.bm25.b;
    const double avgdl = EffectiveAvgDocLen(opts, index);
    env.inv_avgdl = avgdl > 0.0 ? static_cast<float>(1.0 / avgdl) : 0.0f;
    return env;
  }

  Status Init(const Env& env, uint32_t term, vec::ExecStats* stats) {
    env_ = &env;
    stats_ = stats;
    probing_ = false;
    const TermInfo& info = env.index->term(term);
    end_ = info.posting_start + info.doc_freq;
    model_ = {EffectiveIdf(*env.opts, *env.index, term), env.k1, env.b,
              env.inv_avgdl, 0.0f};
    tf_.Init(env.index->tf_source());
    return stream_.Init(docids(), info.posting_start, end_);
  }

  const TermModel& model() const { return model_; }
  bool AtEnd() const { return stream_.AtEnd(); }
  uint64_t position() const { return stream_.position(); }
  uint32_t window() const { return stream_.CurrentWindowIndex(); }
  void SkipWindow() { stream_.SkipCurrentWindowBlockMax(); }

  Status Run(PostingRun* run) {
    compress::RunView rv;
    stream_.CurrentRun(&rv);
    const uint32_t cnt = rv.hi - rv.lo;
    run->docids = rv.vals + rv.lo;
    run->n = cnt;
    const float k1 = model_.k1, b = model_.b, inv_avgdl = model_.inv_avgdl;
    if (env_->fused_tf != nullptr) {
      GatherI32(env_->doclens, rv.vals, rv.win_len, dl_);
      if (FusedScoreTfWindow(env_->fused_tf->WindowViewOf(rv.win_index), dl_,
                             model_.idf * (k1 + 1.0f), k1 * (1.0f - b),
                             k1 * b * inv_avgdl, score_)) {
        run->scores = score_ + rv.lo;
        ++stats_->fused_windows;
        ++stats_->primitive_calls;
        stream_.AdvanceTo(rv.win_base + rv.hi);
        return OkStatus();
      }
    }
    // Composed two-step path: decode the tf slice, one MapBm25 over it.
    for (uint32_t i = 0; i < cnt; ++i) {
      const uint32_t slot = rv.lo + i;
      tfs_[i] = tf_.TfAt(rv.win_base + slot);
      dl_[i] = env_->doclens[rv.vals[slot]];
    }
    MapBm25(cnt, score_, tfs_, dl_, model_.idf, k1, b, inv_avgdl);
    ++stats_->primitive_calls;
    run->scores = score_;
    stream_.AdvanceTo(rv.win_base + rv.hi);
    return OkStatus();
  }

  Status StartProbe(uint64_t pos) {
    probing_ = true;
    return probe_.Init(docids(), pos, end_);
  }

  Status Probe(int32_t d, bool* hit, float* score) {
    *hit = false;
    probe_.SkipTo(d);
    if (probe_.AtEnd()) return OkStatus();
    int32_t v = 0;
    probe_.Value(&v);
    if (v != d) return OkStatus();
    const float tf = static_cast<float>(tf_.TfAt(probe_.position()));
    *score = Bm25One(model_.idf, tf, static_cast<float>(env_->doclens[d]),
                     model_.k1, model_.b, model_.inv_avgdl);
    *hit = true;
    return OkStatus();
  }

  void FoldStats(vec::ExecStats* stats) const {
    FoldSkipStats(stream_.stats(), stats);
    if (probing_) FoldSkipStats(probe_.stats(), stats);
    stats->tf_windows_decoded += tf_.windows_decoded();
  }

 private:
  compress::BlockWindows docids() const {
    return compress::BlockWindows(env_->index->docid_decoder());
  }

  const Env* env_ = nullptr;
  vec::ExecStats* stats_ = nullptr;
  bool probing_ = false;
  TermModel model_;
  uint64_t end_ = 0;
  compress::BlockCursor stream_;
  compress::BlockCursor probe_;
  TfWindowReader tf_;
  alignas(32) int32_t dl_[compress::kEntryPointStride];
  alignas(32) int32_t tfs_[compress::kEntryPointStride];
  alignas(32) float score_[compress::kEntryPointStride];
};

// Pool-served docid column plus a value column: tf (kMaterialized ==
// false, scored here under live stats — BM25T over raw columns, BM25TC
// over PFOR) or a materialized f32/q8 score column (kMaterialized ==
// true, BM25TCM/TCMQ8: the value is the contribution). Every access goes
// through the buffer pool, so every data-touching call returns Status.
template <bool kMaterialized>
class ColumnPostings {
 public:
  struct Env {
    const InvertedIndex* index = nullptr;
    const SearchOptions* opts = nullptr;
    const int32_t* doclens = nullptr;
    storage::ColumnReader* docid = nullptr;
    storage::ColumnReader* value = nullptr;
    float k1 = 0.0f, b = 0.0f, inv_avgdl = 0.0f, slack = 0.0f;
  };

  // Picks the run's columns. The tf runs score under the snapshot's live
  // stats; the materialized runs keep the build-time model their score
  // columns were baked with — for the bounds too, since a bound computed
  // under other stats than the scores would not be a bound.
  static Env MakeEnv(RunType type, const InvertedIndex& index,
                     const SearchOptions& opts) {
    IndexStorage* st = index.storage();
    Env env;
    env.index = &index;
    env.opts = &opts;
    env.doclens = index.doc_lens().data();
    const bool raw = type == RunType::kBm25T;
    env.docid = raw ? &st->docid_raw : &st->docid_compressed;
    double avgdl = index.avg_doc_len();
    if constexpr (kMaterialized) {
      const bool q8 = type == RunType::kBm25TCMQ8;
      env.value = q8 ? &st->score_q8 : &st->score_f32;
      env.k1 = InvertedIndex::kMaterializedK1;
      env.b = InvertedIndex::kMaterializedB;
      // Dequantized values can exceed the analytic bound by half a step.
      env.slack = q8 ? st->score_q8.q8_scale() * 0.5f : 0.0f;
    } else {
      env.value = raw ? &st->tf_raw : &st->tf_compressed;
      env.k1 = opts.bm25.k1;
      env.b = opts.bm25.b;
      avgdl = EffectiveAvgDocLen(opts, index);
    }
    env.inv_avgdl = avgdl > 0.0 ? static_cast<float>(1.0 / avgdl) : 0.0f;
    return env;
  }

  Status Init(const Env& env, uint32_t term, vec::ExecStats* stats) {
    env_ = &env;
    stats_ = stats;
    probing_ = false;
    const TermInfo& info = env.index->term(term);
    begin_ = info.posting_start;
    end_ = info.posting_start + info.doc_freq;
    vlo_ = vhi_ = 0;
    value_windows_ = 0;
    // A stream reads values ahead (one pool access per kAhead windows)
    // unless every window costs its own decode anyway.
    stream_ahead_ = env.value->is_compressed() ? 1 : kAhead;
    const float idf = kMaterialized ? info.idf
                                    : EffectiveIdf(*env.opts, *env.index, term);
    model_ = {idf, env.k1, env.b, env.inv_avgdl, env.slack};
    return stream_.Init(storage::ColumnWindows(env.docid), begin_, end_);
  }

  const TermModel& model() const { return model_; }
  bool AtEnd() const { return stream_.AtEnd(); }
  uint64_t position() const { return stream_.position(); }
  uint32_t window() const { return stream_.CurrentWindowIndex(); }
  void SkipWindow() { stream_.SkipCurrentWindowBlockMax(); }

  Status Run(PostingRun* run) {
    compress::RunView rv;
    X100IR_RETURN_IF_ERROR(stream_.CurrentRun(&rv));
    run->docids = rv.vals + rv.lo;
    run->n = rv.hi - rv.lo;
    const uint64_t pos = rv.win_base + rv.lo;
    X100IR_RETURN_IF_ERROR(LoadValues(pos, stream_ahead_));
    const uint64_t off = pos - vbase_;
    if constexpr (kMaterialized) {
      run->scores = vals_.score + off;
    } else {
      for (uint32_t i = 0; i < run->n; ++i) {
        dl_[i] = env_->doclens[run->docids[i]];
      }
      MapBm25(run->n, score_, vals_.tf + off, dl_, model_.idf, model_.k1,
              model_.b, model_.inv_avgdl);
      ++stats_->primitive_calls;
      run->scores = score_;
    }
    stream_.AdvanceTo(rv.win_base + rv.hi);
    return OkStatus();
  }

  Status StartProbe(uint64_t pos) {
    probing_ = true;
    return probe_.Init(storage::ColumnWindows(env_->docid), pos, end_);
  }

  Status Probe(int32_t d, bool* hit, float* score) {
    *hit = false;
    X100IR_RETURN_IF_ERROR(probe_.SkipTo(d));
    if (probe_.AtEnd()) return OkStatus();
    int32_t v = 0;
    X100IR_RETURN_IF_ERROR(probe_.Value(&v));
    if (v != d) return OkStatus();
    const uint64_t p = probe_.position();
    X100IR_RETURN_IF_ERROR(LoadValues(p, 1));
    if constexpr (kMaterialized) {
      *score = vals_.score[p - vbase_];
    } else {
      *score = Bm25One(model_.idf, static_cast<float>(vals_.tf[p - vbase_]),
                       static_cast<float>(env_->doclens[d]), model_.k1,
                       model_.b, model_.inv_avgdl);
    }
    *hit = true;
    return OkStatus();
  }

  void FoldStats(vec::ExecStats* stats) const {
    FoldSkipStats(stream_.stats(), stats);
    if (probing_) FoldSkipStats(probe_.stats(), stats);
    stats->tf_windows_decoded += value_windows_;
  }

 private:
  static constexpr uint32_t kStride = compress::kEntryPointStride;
  static constexpr uint32_t kAhead = 8;

  // Makes the values of the term's postings in p's window, and `windows`
  // - 1 windows after it, resident: one pool read of exactly their
  // in-range slice (window-by-window decodes for a compressed column).
  // Shared by Run and the probes — a term streams until it is demoted and
  // probes after, never both at once.
  Status LoadValues(uint64_t p, uint32_t windows) {
    if (p >= vlo_ && p < vhi_) return OkStatus();
    const uint64_t base = p & ~static_cast<uint64_t>(kStride - 1);
    const uint64_t lo = std::max(begin_, base);
    const uint64_t hi = std::min(end_, base + uint64_t{kStride} * windows);
    const uint32_t n = static_cast<uint32_t>(hi - lo);
    if constexpr (kMaterialized) {
      X100IR_RETURN_IF_ERROR(
          env_->value->ReadF32(lo, n, vals_.score + (lo - base)));
    } else {
      X100IR_RETURN_IF_ERROR(env_->value->Read(lo, n, vals_.tf + (lo - base)));
    }
    vbase_ = base;
    vlo_ = lo;
    vhi_ = hi;
    ++value_windows_;
    return OkStatus();
  }

  const Env* env_ = nullptr;
  vec::ExecStats* stats_ = nullptr;
  bool probing_ = false;
  TermModel model_;
  uint64_t begin_ = 0, end_ = 0;
  storage::ColumnCursor stream_;
  storage::ColumnCursor probe_;
  // Resident value window: positions [vlo_, vhi_) at vals_[p - vbase_].
  uint64_t vbase_ = 0, vlo_ = 0, vhi_ = 0;
  uint64_t value_windows_ = 0;
  uint32_t stream_ahead_ = 1;
  union {
    int32_t tf[kStride * kAhead];
    float score[kStride * kAhead];
  } vals_;
  alignas(32) int32_t dl_[kStride];
  alignas(32) float score_[kStride];
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_POSTING_SOURCE_H_
