// Block-skipping scan support: one forward cursor over a *sorted* sub-range
// of a posting column (one term's slice of TD.docid) whose SkipTo(target)
// loads only windows that can contain the probe. Where a window's values
// come from is the `Windows` store's business, not the cursor's:
//
//   BlockWindows (below)        a resident PFOR-DELTA block; decodes a
//                               window in place and cannot fail
//   storage::ColumnWindows      a pool-served ColumnReader; every load is
//                               a page fetch and returns Status
//
// The trick is that every entry point already stores the running value
// before its window (value_base, needed by LOOP3's seeded prefix sum), so
// the last value of window w is WindowValueBase(w + 1) — readable without
// decoding anything. Over a sorted range those per-window maxima are
// nondecreasing, which turns "first window that can contain target" into a
// binary search over entry points; only the one candidate window is then
// loaded (128 values) and searched. Windows the search jumps over are never
// touched — the paper's fine-granularity skipping, upgraded from positional
// (Decode(pos, len)) to value-based. A store without value bases (a raw
// pool column) gallops with point reads instead; that is the only branch,
// and the store's encoding picks it.
//
// Boundary care, pinned by the SkipCursor.* and SortedCursor.* tests:
//   - the range is a *sub-range*: positions outside [begin, end) may belong
//     to other terms and are not sorted relative to it (force_base makes
//     each term-boundary reset a plain exception, invisible here);
//   - the window containing end - 1 may extend past the range; its stored
//     value_base successor would describe out-of-range values, so it is
//     always treated as a decode candidate rather than trusted;
//   - SkipTo never moves backwards: probes must be nondecreasing, which the
//     merge-join guarantees (docids ascend).
//
// The cursor is cheap to construct (no allocation beyond its window
// buffer) and single-threaded like everything else in a plan: create one
// per query, never share it.
#ifndef X100IR_COMPRESS_SKIP_CURSOR_H_
#define X100IR_COMPRESS_SKIP_CURSOR_H_

#include <algorithm>
#include <cstdint>

#include "common/status.h"
#include "compress/codec.h"

namespace x100ir::compress {

// Per-cursor skipping telemetry, folded into the query's ExecStats by the
// operators that own cursors.
//
// Partition invariant (pinned by Codec.SkipStatsPartitionExact for the
// resident store and SortedCursor.PoolSkipStatsPartitionExact for the
// pool-served one): on any store with value bases, for any driver that
// decodes or skips every window it traverses (Value / CurrentRun / SkipTo /
// SkipCurrentWindowBlockMax — the engine's refill loop is such a driver),
// every 128-value window overlapping the cursor's [begin, end) range lands
// in exactly one of windows_decoded, windows_skipped, or
// windows_blockmax_skipped by the time the cursor exhausts.
// windows_decoded is *not* monotone in θ: a higher threshold can skip a
// window early that a lower one would have decoded, then decode a later
// window the lower one never reached — only the three-way sum is
// invariant, which is why the drift audit checks the partition, not any
// single counter. (A raw store's loads span several windows and its
// gallop counts no skips, so the partition does not apply to it.)
struct SkipStats {
  uint64_t windows_decoded = 0;  // window loads (decodes, or raw fetches)
  uint64_t windows_skipped = 0;  // windows SkipTo jumped without decoding
  // Windows rejected by a Block-Max bound (score upper bound < θ) without
  // decoding. Disjoint from windows_skipped: value-based skips come from
  // SkipTo's entry-point search, block-max skips from the caller's bound.
  uint64_t windows_blockmax_skipped = 0;
  uint64_t skip_calls = 0;       // SkipTo invocations
};

// The load result of a store that cannot fail: ok() is a compile-time
// true, so the cursor's error checks fold away and its callers have no
// Status to drop.
struct NoFail {
  static constexpr bool ok() { return true; }
};

// One window's in-range slice: vals[lo..hi) are the values at positions
// [win_base + lo, win_base + hi), all >= the cursor position and < end.
// Slots outside [lo, hi) hold decoded values only on compressed stores
// (the fused kernel reads the whole window; a raw store never fills them).
struct RunView {
  const int32_t* vals = nullptr;  // the window: vals[i] is win_base + i
  uint32_t win_index = 0;
  uint64_t win_base = 0;  // position of vals[0]
  uint32_t win_len = 0;   // window length (may extend past the range)
  uint32_t lo = 0;        // first in-range slot (== pos - win_base)
  uint32_t hi = 0;        // one past the last in-range slot
};

// Resident store: windows decoded straight out of an in-memory PFOR-DELTA
// block (the decoder and its block must outlive the cursor).
class BlockWindows {
 public:
  using Result = NoFail;
  static constexpr uint32_t kLoadValues = kEntryPointStride;

  explicit BlockWindows(const BlockDecoder* dec = nullptr) : dec_(dec) {}

  Status Check() const {
    if (dec_ == nullptr) return InvalidArgument("null decoder");
    if (dec_->scheme() != Scheme::kPforDelta) {
      return InvalidArgument(
          "skip cursor needs window value bases (PFOR-DELTA)");
    }
    return OkStatus();
  }
  uint64_t size() const { return dec_->n(); }
  bool has_value_bases() const { return true; }
  uint32_t window_count() const { return dec_->entry_count(); }
  int32_t WindowValueBase(uint32_t w) const {
    return dec_->WindowValueBase(w);
  }
  // Decodes window w whole: dst[i] = value at w * stride + i, i < *len.
  NoFail Load(uint32_t w, uint64_t /*begin*/, uint64_t /*end*/,
              int32_t* dst, uint32_t* len) const {
    const uint64_t base = static_cast<uint64_t>(w) * kEntryPointStride;
    *len = static_cast<uint32_t>(
        std::min<uint64_t>(kEntryPointStride, dec_->n() - base));
    dec_->Decode(static_cast<uint32_t>(base), *len, dst);
    return {};
  }
  NoFail Read(uint64_t pos, int32_t* out) const {
    dec_->Decode(static_cast<uint32_t>(pos), 1, out);
    return {};
  }

 private:
  const BlockDecoder* dec_;
};

// What SortedCursor needs of a `Windows` store (BlockWindows above,
// storage::ColumnWindows):
//   Result             NoFail, or Status when a load can fail
//   kLoadValues        most values one Load fills
//   Check()            Status: the store can back a sorted cursor
//   size()             values in the column
//   has_value_bases()  WindowValueBase(w) is valid; false means gallop
//   window_count(), WindowValueBase(w)
//   Load(w, begin, end, dst, len)
//                      fills dst[i] with the value at w * 128 + i for
//                      i < *len, at least at positions in [begin, end)
//                      (a store may load several windows at once)
//   Read(pos, out)     one value (the gallop's point read)
template <class Windows>
class SortedCursor {
 public:
  using Result = typename Windows::Result;

  // Values at positions [begin, end) must be nondecreasing — the caller's
  // contract, true for any single term's slice of TD.docid.
  Status Init(const Windows& windows, uint64_t begin, uint64_t end) {
    X100IR_RETURN_IF_ERROR(windows.Check());
    if (begin > end || end > windows.size()) {
      return InvalidArgument("cursor range out of bounds");
    }
    windows_ = windows;
    begin_ = begin;
    end_ = end;
    pos_ = begin;
    load_base_ = 0;
    load_len_ = 0;
    stats_ = SkipStats();
    return OkStatus();
  }

  bool AtEnd() const { return pos_ >= end_; }
  uint64_t position() const { return pos_; }
  const SkipStats& stats() const { return stats_; }

  // Advances one position; returns false at end.
  bool Next() { return ++pos_ < end_; }

  // Current value; requires !AtEnd(). Loads the containing window on first
  // access (lazily, so a cursor only ever skipped past a window never pays
  // for it).
  Result Value(int32_t* out) {
    if (Result r = EnsureLoaded(); !r.ok()) return r;
    *out = vals_[pos_ - load_base_];
    return Result();
  }

  // --- Window-granular bulk access (Block-Max MaxScore, DESIGN.md §12) ---

  // Index of the window containing the cursor; requires !AtEnd().
  uint32_t CurrentWindowIndex() const {
    return static_cast<uint32_t>(pos_ / kStride);
  }

  // Jumps past the current window without loading it — the Block-Max
  // reject, taken when the caller's per-window score upper bound cannot
  // beat θ. Counted as blockmax-skipped unless the window is already
  // loaded (then windows_decoded already owns it; each window lands in
  // exactly one counter). Returns false when the cursor exhausts.
  bool SkipCurrentWindowBlockMax() {
    if (!Loaded(pos_)) ++stats_.windows_blockmax_skipped;
    pos_ = std::min<uint64_t>(
        end_, static_cast<uint64_t>(CurrentWindowIndex() + 1) * kStride);
    return pos_ < end_;
  }

  // Loads (if needed) the window containing the cursor and describes its
  // in-range slice; requires !AtEnd(). The view stays valid until the
  // cursor loads another window; the caller moves on with
  // AdvanceTo(run->win_base + run->hi).
  Result CurrentRun(RunView* run) {
    if (Result r = EnsureLoaded(); !r.ok()) return r;
    const uint32_t w = CurrentWindowIndex();
    const uint64_t win_base = static_cast<uint64_t>(w) * kStride;
    run->vals = vals_ + (win_base - load_base_);
    run->win_index = w;
    run->win_base = win_base;
    run->win_len = static_cast<uint32_t>(
        std::min<uint64_t>(kStride, load_base_ + load_len_ - win_base));
    run->lo = static_cast<uint32_t>(pos_ - win_base);
    run->hi = static_cast<uint32_t>(
        std::min<uint64_t>(end_, win_base + run->win_len) - win_base);
    return Result();
  }

  // Forward-only positional advance (to the end of a consumed run); moves
  // to min(pos, end) and never backwards.
  void AdvanceTo(uint64_t pos) {
    pos_ = std::max(pos_, std::min(pos, end_));
  }

  // Advances to the first position >= the current one whose value is
  // >= target; afterwards AtEnd() iff no such position exists. Probes
  // must be nondecreasing across calls.
  Result SkipTo(int32_t target) {
    ++stats_.skip_calls;
    if (!windows_.has_value_bases()) return Gallop(target);
    while (!AtEnd()) {
      const uint32_t w_from = CurrentWindowIndex();
      const uint32_t w_last = static_cast<uint32_t>((end_ - 1) / kStride);
      // The window under the cursor, if loaded, is owned by
      // windows_decoded and must not be counted as skipped too.
      const uint32_t held = Loaded(pos_) ? 1 : 0;
      // Windows x < full_end have their last value in-range AND stored in
      // the next entry point: f(x) = WindowValueBase(x + 1) is the window
      // max without decoding. The block's final window has no successor
      // entry, so it is excluded even when the range covers it exactly.
      const uint32_t full_end =
          std::min(static_cast<uint32_t>(end_ / kStride),
                   windows_.window_count() - 1);
      uint32_t lo = w_from;
      uint32_t hi = std::max(w_from, full_end);
      while (lo < hi) {
        const uint32_t mid = lo + (hi - lo) / 2;
        if (windows_.WindowValueBase(mid + 1) >= target) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      uint32_t cand = lo;
      if (cand >= full_end) {
        // Every full-info window tops out below target. If the range ends
        // with a window whose max is unknown (partial coverage or the
        // block's final window), that window is the last candidate;
        // otherwise the range holds no value >= target.
        if (full_end > w_last) {
          // The jump to end passes windows w_from..w_last without loading
          // them; they must still land in the skip count or the partition
          // invariant (SkipStats comment) would leak exactly this branch.
          stats_.windows_skipped += w_last - w_from + 1 - held;
          pos_ = end_;
          break;
        }
        cand = w_last;
      }
      if (cand > w_from) {
        stats_.windows_skipped += cand - w_from - held;
        pos_ = static_cast<uint64_t>(cand) * kStride;
      }
      if (Result r = EnsureLoaded(); !r.ok()) return r;
      // Lower bound within the loaded in-range tail [pos_, cap).
      const uint64_t cap = std::min(end_, load_base_ + load_len_);
      const int32_t* first = vals_ + (pos_ - load_base_);
      const int32_t* last = vals_ + (cap - load_base_);
      pos_ = load_base_ + (std::lower_bound(first, last, target) - vals_);
      // pos_ == cap is only reachable when cand was the unknown-max
      // trailing window and its in-range values all fall below target: the
      // loop then observes AtEnd.
      if (pos_ < cap) break;
    }
    return Result();
  }

 private:
  static constexpr uint32_t kStride = kEntryPointStride;

  // Whether position p's value sits in the loaded window(s).
  bool Loaded(uint64_t p) const { return p - load_base_ < load_len_; }

  Result EnsureLoaded() {
    if (Loaded(pos_)) return Result();
    const uint32_t w = CurrentWindowIndex();
    load_len_ = 0;  // a failed load leaves nothing loaded
    uint32_t len = 0;
    if (Result r = windows_.Load(w, begin_, end_, vals_, &len); !r.ok()) {
      return r;
    }
    load_base_ = static_cast<uint64_t>(w) * kStride;
    load_len_ = len;
    ++stats_.windows_decoded;
    return Result();
  }

  Result ValueAt(uint64_t p, int32_t* out) {
    if (Loaded(p)) {
      *out = vals_[p - load_base_];
      return Result();
    }
    return windows_.Read(p, out);
  }

  // A store without value bases: gallop forward with point reads (each a
  // page-granular pool access on a raw column), then binary-search the
  // bracketed range.
  Result Gallop(int32_t target) {
    if (AtEnd()) return Result();
    int32_t v = 0;
    if (Result r = ValueAt(pos_, &v); !r.ok()) return r;
    if (v >= target) return Result();
    uint64_t lo = pos_;  // value < target
    uint64_t step = 1;
    uint64_t hi = end_;  // first position with value >= target, or end_
    while (lo + step < end_) {
      if (Result r = ValueAt(lo + step, &v); !r.ok()) return r;
      if (v >= target) {
        hi = lo + step;
        break;
      }
      lo += step;
      step *= 2;
    }
    uint64_t s = lo + 1, e = hi;
    while (s < e) {
      const uint64_t m = s + (e - s) / 2;
      if (Result r = ValueAt(m, &v); !r.ok()) return r;
      if (v >= target) {
        e = m;
      } else {
        s = m + 1;
      }
    }
    pos_ = s;
    return Result();
  }

  Windows windows_;
  uint64_t begin_ = 0;
  uint64_t end_ = 0;
  uint64_t pos_ = 0;
  // Loaded positions: [load_base_, load_base_ + load_len_) at
  // vals_[p - load_base_].
  uint64_t load_base_ = 0;
  uint32_t load_len_ = 0;
  int32_t vals_[Windows::kLoadValues];
  SkipStats stats_;
};

// The resident cursor: one term's slice of an in-memory TD.docid block.
using BlockCursor = SortedCursor<BlockWindows>;

}  // namespace x100ir::compress

#endif  // X100IR_COMPRESS_SKIP_CURSOR_H_
