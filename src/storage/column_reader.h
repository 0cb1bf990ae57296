// Storage-backed column access: a ColumnReader serves one on-disk .col file
// (ir/index_meta.h layout) through the buffer pool instead of a raw in-RAM
// array — the Table 2 cold runs' data path.
//
//   raw i32/f32   — value ranges map to byte ranges; reads pin the covering
//                   pages and copy out.
//   quantized u8  — same, plus dequantization (value = bias + scale * q)
//                   against the scale/bias stored in the file.
//   compressed    — the codec *metadata* (header + entry points + the
//                   exception-record section, a few % of the block) stays
//                   resident from Open, like a real system's cached block
//                   headers and patch data; window payloads are fetched
//                   through the pool per 128-value window
//                   (compress::WindowExtent) and decoded from a padded
//                   scratch, so a skipped window costs no I/O and an
//                   evicted one is re-fetched with its cost charged to
//                   the simulated disk.
//
// Open validates the header against the *exact* file size before trusting
// anything (torn-write safety: a truncated or grown file fails loudly here
// and the index builder falls back to a rebuild).
//
// Thread contract (DESIGN.md §9.1): after Open, one ColumnReader is shared
// by every concurrent query — Read/ReadF32/DecodeWindow keep all mutable
// state on the caller's stack and go through the thread-safe buffer pool,
// so they may race freely. The only member that moves is the
// windows_decoded_ telemetry counter (relaxed atomic: exact in total,
// approximate as a per-query delta under concurrency — the serial Table 2
// harness still reads exact deltas). A ColumnCursor over it, by contrast,
// is per-query state: create one per query, never share it.
//
// Transient page faults (storage/fault_injection.h) are retried here, in
// FetchBytes — the single funnel every byte passes through — with a
// classified retry loop: Unavailable retries up to RetryPolicy::budget
// with doubling backoff charged to the simulated disk; any other failure
// (torn read -> IOError, pool exhaustion) propagates unchanged.
#ifndef X100IR_STORAGE_COLUMN_READER_H_
#define X100IR_STORAGE_COLUMN_READER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "compress/codec.h"
#include "compress/skip_cursor.h"
#include "storage/buffer_manager.h"
#include "storage/file.h"

namespace x100ir::storage {

class ColumnReader {
 public:
  ColumnReader() = default;
  ColumnReader(const ColumnReader&) = delete;
  ColumnReader& operator=(const ColumnReader&) = delete;

  // Opens and validates `path`, registers it with `bm` (borrowed, must
  // outlive the reader) under `file_id`. Header/metadata reads happen
  // directly (open-time cost, not charged to the query-time disk model).
  Status Open(const std::string& path, uint32_t file_id, BufferManager* bm);

  uint64_t value_count() const { return value_count_; }
  uint32_t encoding() const { return encoding_; }
  bool is_compressed() const;
  bool is_open() const { return file_.is_open(); }

  // Quantization parameters (kQuantU8 columns only).
  float q8_scale() const { return q8_scale_; }
  float q8_bias() const { return q8_bias_; }

  // dst[0..len) = values [pos, pos + len), fetched through the pool.
  // Read: i32 columns (raw i32 or compressed block);
  // ReadF32: f32 columns (raw f32, or u8 dequantized on the fly).
  Status Read(uint64_t pos, uint32_t len, int32_t* dst);
  Status ReadF32(uint64_t pos, uint32_t len, float* dst);

  // Compressed-column window interface (skip cursors). `dst` must hold
  // kEntryPointStride values; *wn receives the window's length.
  uint32_t num_windows() const;
  int32_t WindowValueBase(uint32_t w) const;
  bool WindowIsDelta() const;  // value bases meaningful (PFOR-DELTA)
  Status DecodeWindow(uint32_t w, int32_t* dst, uint32_t* wn);

  // Cumulative windows decoded (compressed columns) — ExecStats deltas.
  // Relaxed atomic: totals are exact, concurrent per-query deltas are not.
  uint64_t windows_decoded() const {
    return windows_decoded_.load(std::memory_order_relaxed);
  }

  // The pool id this column was opened under — what EvictFile /
  // UnregisterFile take for per-column cold resets and retirement.
  uint32_t file_id() const { return file_id_; }

 private:
  // Copies file bytes [offset, offset + len) out of pinned pages,
  // retrying transient faults per the pool's RetryPolicy.
  Status FetchBytes(uint64_t offset, uint64_t len, uint8_t* dst);

  // One pin attempt with the classified retry loop around it.
  Status PinWithRetry(PinnedPage* pin, uint64_t page_no);

  File file_;
  uint32_t file_id_ = 0;
  BufferManager* bm_ = nullptr;
  uint64_t file_size_ = 0;
  uint64_t value_count_ = 0;
  uint32_t encoding_ = 0;
  uint64_t payload_offset_ = 0;  // first value/block byte
  float q8_scale_ = 0.0f;
  float q8_bias_ = 0.0f;

  // Compressed columns: resident codec metadata + exception section. All
  // of it is immutable after Open; decode scratch lives on the stack of
  // each call so concurrent queries never share a buffer.
  std::vector<uint8_t> block_meta_;
  std::vector<uint8_t> exc_section_;
  uint64_t exc_section_offset_ = 0;  // block-relative
  compress::BlockDecoder decoder_;
  std::atomic<uint64_t> windows_decoded_{0};
};

// Pool-served store for compress::SortedCursor (skip_cursor.h): the same
// skip loop the resident TD.docid block runs, with every load a page fetch
// that returns Status — a pool smaller than the pinned working set must
// surface as an error, not a wrong result. The column's encoding picks how
// windows arrive:
//
//   compressed — one window per load (DecodeWindow); SkipTo binary-searches
//     the resident per-window value bases, so a skipped window costs no I/O;
//   raw        — no window metadata exists, so one load reads the in-range
//     slice of kRawAhead windows in one pool access, and SkipTo gallops
//     with point reads (each a page-granular pool access).
//
// The reader must outlive the store; the store is a borrowed pointer.
class ColumnWindows {
 public:
  using Result = Status;
  // Raw columns carry no per-window structure, so a load fetches this many
  // windows at once: one pool access instead of one per window.
  static constexpr uint32_t kRawAhead = 8;
  static constexpr uint32_t kLoadValues =
      compress::kEntryPointStride * kRawAhead;

  explicit ColumnWindows(ColumnReader* col = nullptr) : col_(col) {}

  Status Check() const;
  uint64_t size() const { return col_->value_count(); }
  bool has_value_bases() const { return col_->is_compressed(); }
  uint32_t window_count() const { return col_->num_windows(); }
  int32_t WindowValueBase(uint32_t w) const {
    return col_->WindowValueBase(w);
  }
  Status Load(uint32_t w, uint64_t begin, uint64_t end, int32_t* dst,
              uint32_t* len) const;
  Status Read(uint64_t pos, int32_t* out) const {
    return col_->Read(pos, 1, out);
  }

 private:
  ColumnReader* col_;
};

// The pool-served cursor: one term's slice of a docid column.
using ColumnCursor = compress::SortedCursor<ColumnWindows>;

}  // namespace x100ir::storage

#endif  // X100IR_STORAGE_COLUMN_READER_H_
