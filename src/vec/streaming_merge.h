// Streaming, skip-aware merge-join — the replacement for the hot path of
// MergeJoinOperator's materialize-then-intersect (which stays as the
// reference/oracle; DESIGN.md §7.2).
//
// The operator drives SkipCursor children with a leapfrog intersection:
// take the head of one list as the candidate, SkipTo(candidate) on each
// other list; any overshoot becomes the new candidate, and agreement by all
// children emits a row. Each SkipTo lands directly on the first block
// window that can contain the probe (skip_cursor.h), so a selective
// conjunction decodes only a sliver of the long lists — the cost profile of
// a hand-built DAAT engine, reached through the relational operator tree.
//
// Children must be strictly increasing (docids are unique per list). The
// engine passes cursors rarest-first: the shortest list is the candidate
// generator, so probe count is O(shortest), and galloping inside SkipTo
// makes each probe logarithmic in the distance jumped.
#ifndef X100IR_VEC_STREAMING_MERGE_H_
#define X100IR_VEC_STREAMING_MERGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "vec/merge_join.h"
#include "vec/scan.h"
#include "vec/vector.h"

namespace x100ir::vec {

// A sorted i32 stream with value-based skipping — what the streaming join
// drives. Implementations: ir::DocidSkipCursor (compressed posting slice
// via compress::BlockCursor) and MemSkipCursor below (raw arrays;
// tests and the custom-engine baselines).
class SkipCursor {
 public:
  virtual ~SkipCursor() = default;

  virtual bool AtEnd() = 0;
  // Current value / ordinal position; require !AtEnd().
  virtual int32_t value() = 0;
  virtual uint64_t position() = 0;
  // Advance one position; false at end.
  virtual bool Next() = 0;
  // Advance to the first position >= the current one with value >= target
  // (nondecreasing targets across calls); false at end.
  virtual bool SkipTo(int32_t target) = 0;
  // Fold decode/skip counters into `stats` (called once, at plan Close).
  virtual void FoldStats(ExecStats* stats) { (void)stats; }
};

using SkipCursorPtr = std::unique_ptr<SkipCursor>;

// Cursor over a borrowed sorted array (must outlive the cursor). SkipTo
// gallops, so skewed intersections keep their O(short * log(long/short))
// bound even without block structure.
class MemSkipCursor : public SkipCursor {
 public:
  MemSkipCursor(const int32_t* data, uint64_t n) : data_(data), n_(n) {}
  explicit MemSkipCursor(const std::vector<int32_t>& v)
      : data_(v.data()), n_(v.size()) {}

  bool AtEnd() override { return pos_ >= n_; }
  int32_t value() override { return data_[pos_]; }
  uint64_t position() override { return pos_; }
  bool Next() override { return ++pos_ < n_; }
  bool SkipTo(int32_t target) override {
    pos_ = GallopLowerBound(data_, static_cast<uint32_t>(pos_),
                            static_cast<uint32_t>(n_), target);
    return pos_ < n_;
  }

 private:
  const int32_t* data_;
  uint64_t n_;
  uint64_t pos_ = 0;
};

// N-ary streaming intersection of SkipCursors on their values. Output
// schema: one dense i32 "docid" column, strictly increasing. Constant
// memory: one output vector, no materialization.
class StreamingMergeJoinOperator : public Operator {
 public:
  StreamingMergeJoinOperator(ExecContext* ctx,
                             std::vector<SkipCursorPtr> cursors);

  Status Open() override;
  Status Next(Batch** out) override;
  void Close() override;

 private:
  ExecContext* ctx_;
  std::vector<SkipCursorPtr> cursors_;
  Vector out_docid_;
  Batch batch_;
  bool done_ = false;
  bool stats_folded_ = false;
};

}  // namespace x100ir::vec

#endif  // X100IR_VEC_STREAMING_MERGE_H_
