#include "storage/column_reader.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/string_util.h"
#include "compress/block_layout.h"
#include "ir/index_meta.h"

namespace x100ir::storage {

using ir::ColumnFileHeader;
using ir::Q8Params;

Status ColumnReader::Open(const std::string& path, uint32_t file_id,
                          BufferManager* bm) {
  if (bm == nullptr) return InvalidArgument("null buffer manager");
  X100IR_RETURN_IF_ERROR(File::OpenReadOnly(path, &file_));
  X100IR_RETURN_IF_ERROR(file_.Size(&file_size_));
  ColumnFileHeader hdr;
  if (file_size_ < sizeof(hdr)) {
    return IOError("column file shorter than its header: " + path);
  }
  X100IR_RETURN_IF_ERROR(file_.ReadAt(0, sizeof(hdr), &hdr));
  if (hdr.magic != ColumnFileHeader::kMagic) {
    return IOError("bad column magic in " + path);
  }
  encoding_ = hdr.encoding;
  value_count_ = hdr.value_count;
  payload_offset_ = sizeof(hdr);

  switch (encoding_) {
    case ColumnFileHeader::kRawI32:
    case ColumnFileHeader::kRawF32: {
      const uint64_t want = sizeof(hdr) + value_count_ * 4;
      if (file_size_ != want) {
        return IOError(StrFormat("column %s is %llu bytes, expected %llu",
                                 path.c_str(),
                                 static_cast<unsigned long long>(file_size_),
                                 static_cast<unsigned long long>(want)));
      }
      break;
    }
    case ColumnFileHeader::kQuantU8: {
      const uint64_t want = sizeof(hdr) + sizeof(Q8Params) + value_count_;
      if (file_size_ != want) {
        return IOError(StrFormat("column %s is %llu bytes, expected %llu",
                                 path.c_str(),
                                 static_cast<unsigned long long>(file_size_),
                                 static_cast<unsigned long long>(want)));
      }
      Q8Params params;
      X100IR_RETURN_IF_ERROR(
          file_.ReadAt(sizeof(hdr), sizeof(params), &params));
      if (!std::isfinite(params.scale) || !std::isfinite(params.bias) ||
          params.scale <= 0.0f) {
        return IOError("bad quantization parameters in " + path);
      }
      q8_scale_ = params.scale;
      q8_bias_ = params.bias;
      payload_offset_ += sizeof(params);
      break;
    }
    case ColumnFileHeader::kCompressedBlock: {
      // Keep the codec metadata prefix (header + entry points + dict)
      // resident; InitMeta revalidates every section offset against the
      // exact block size, so truncation anywhere past the metadata is
      // caught here too (the exceptions section's end is part of the
      // check).
      const uint64_t block_size = file_size_ - sizeof(hdr);
      constexpr size_t kBlockHeaderBytes =
          sizeof(compress::internal::BlockHeader);
      if (block_size < kBlockHeaderBytes) {
        return IOError("compressed block too small");
      }
      compress::internal::BlockHeader probe;
      X100IR_RETURN_IF_ERROR(
          file_.ReadAt(sizeof(hdr), sizeof(probe), &probe));
      const uint32_t code_offset = probe.code_offset;
      if (code_offset < kBlockHeaderBytes || code_offset > block_size) {
        return IOError("bad code offset in " + path);
      }
      block_meta_.resize(code_offset);
      X100IR_RETURN_IF_ERROR(
          file_.ReadAt(sizeof(hdr), code_offset, block_meta_.data()));
      X100IR_RETURN_IF_ERROR(
          decoder_.InitMeta(block_meta_.data(), block_meta_.size(),
                            block_size));
      if (decoder_.n() != value_count_) {
        return IOError("block value count disagrees with column header");
      }
      // The exception-record section stays resident alongside the entry
      // points (it is the block's patch data — small, shared by every
      // window, and needed by any decode that hits an exception).
      exc_section_offset_ = decoder_.ExcSectionOffset();
      exc_section_.resize(8ull * decoder_.n_exceptions());
      if (!exc_section_.empty()) {
        X100IR_RETURN_IF_ERROR(file_.ReadAt(sizeof(hdr) + exc_section_offset_,
                                            exc_section_.size(),
                                            exc_section_.data()));
      }
      break;
    }
    default:
      return IOError(StrFormat("unknown column encoding %u", encoding_));
  }

  file_id_ = file_id;
  bm_ = bm;
  return bm_->RegisterFile(file_id_, &file_);
}

bool ColumnReader::is_compressed() const {
  return encoding_ == ColumnFileHeader::kCompressedBlock;
}

// Classified retry (DESIGN.md §9.4): only Unavailable — the code the fault
// injector uses for transient read errors — is retried, with doubling
// backoff charged to the simulated disk (deterministic, never a real
// sleep). Torn reads (IOError), pool exhaustion, and everything else fail
// the query on the first attempt. Each retry is a fresh fetch: a faulted
// page never entered the pool, so no poisoned frame can be re-served.
Status ColumnReader::PinWithRetry(PinnedPage* pin, uint64_t page_no) {
  const RetryPolicy& retry = bm_->retry_policy();
  double backoff = retry.backoff_seconds;
  for (uint32_t attempt = 0;; ++attempt) {
    Status s = pin->Acquire(bm_, file_id_, page_no);
    if (s.ok() || !IsTransient(s) || attempt >= retry.budget) return s;
    if (bm_->disk() != nullptr) bm_->disk()->ChargeLatency(backoff);
    backoff *= 2.0;
  }
}

Status ColumnReader::FetchBytes(uint64_t offset, uint64_t len,
                                uint8_t* dst) {
  if (offset + len > file_size_) {
    return InvalidArgument("column byte range out of bounds");
  }
  const uint32_t page_bytes = bm_->page_bytes();
  while (len > 0) {
    const uint64_t page_no = offset / page_bytes;
    const uint64_t in_page = offset - page_no * page_bytes;
    PinnedPage pin;
    X100IR_RETURN_IF_ERROR(PinWithRetry(&pin, page_no));
    const uint64_t take = std::min<uint64_t>(len, pin.len() - in_page);
    std::memcpy(dst, pin.data() + in_page, take);
    dst += take;
    offset += take;
    len -= take;
  }
  return OkStatus();
}

uint32_t ColumnReader::num_windows() const {
  return is_compressed() ? decoder_.entry_count() : 0;
}

int32_t ColumnReader::WindowValueBase(uint32_t w) const {
  return decoder_.WindowValueBase(w);
}

bool ColumnReader::WindowIsDelta() const {
  return is_compressed() &&
         decoder_.scheme() == compress::Scheme::kPforDelta;
}

Status ColumnReader::DecodeWindow(uint32_t w, int32_t* dst, uint32_t* wn) {
  if (!is_compressed()) return Internal("DecodeWindow on a raw column");
  if (w >= decoder_.entry_count()) {
    return InvalidArgument("window index out of range");
  }
  // Stack scratch, not a member: DecodeWindow races with itself across
  // queries sharing this reader (§9.1), so per-call state stays per-call.
  alignas(8) uint8_t payload_scratch[4 * compress::kEntryPointStride + 8];
  const compress::WindowExtent ext = decoder_.WindowExtentOf(w);
  if (ext.payload_bytes > sizeof(payload_scratch) - 8) {
    return Internal("window extent exceeds scratch (corrupt metadata)");
  }
  const uint64_t exc_rel = ext.exc_offset - exc_section_offset_;
  if (exc_rel + ext.exc_count * 8ull > exc_section_.size()) {
    return Internal("window exception range outside the resident section");
  }
  X100IR_RETURN_IF_ERROR(FetchBytes(payload_offset_ + ext.payload_offset,
                                    ext.payload_bytes, payload_scratch));
  // Zero the unaligned-load slack past the payload (the decode kernels may
  // read up to 8 bytes beyond the last codeword).
  std::memset(payload_scratch + ext.payload_bytes, 0, 8);
  decoder_.DecodeWindowDetached(w, payload_scratch,
                                exc_section_.data() + exc_rel, dst);
  windows_decoded_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t base =
      static_cast<uint64_t>(w) * compress::kEntryPointStride;
  *wn = static_cast<uint32_t>(
      std::min<uint64_t>(compress::kEntryPointStride, value_count_ - base));
  return OkStatus();
}

Status ColumnReader::Read(uint64_t pos, uint32_t len, int32_t* dst) {
  if (pos + len > value_count_) {
    return InvalidArgument("column read out of range");
  }
  if (len == 0) return OkStatus();
  if (encoding_ == ColumnFileHeader::kRawI32) {
    return FetchBytes(payload_offset_ + pos * 4, 4ull * len,
                      reinterpret_cast<uint8_t*>(dst));
  }
  if (!is_compressed()) {
    return Internal("Read(i32) on a non-integer column");
  }
  constexpr uint32_t kStride = compress::kEntryPointStride;
  int32_t tmp[kStride];
  const uint64_t last = pos + len - 1;
  for (uint32_t w = static_cast<uint32_t>(pos / kStride);
       w <= static_cast<uint32_t>(last / kStride); ++w) {
    uint32_t wn = 0;
    X100IR_RETURN_IF_ERROR(DecodeWindow(w, tmp, &wn));
    const uint64_t base = static_cast<uint64_t>(w) * kStride;
    const uint32_t lo = static_cast<uint32_t>(pos > base ? pos - base : 0);
    const uint32_t hi = static_cast<uint32_t>(
        std::min<uint64_t>(wn, pos + len - base));
    std::memcpy(dst, tmp + lo, static_cast<size_t>(hi - lo) * 4);
    dst += hi - lo;
  }
  return OkStatus();
}

Status ColumnReader::ReadF32(uint64_t pos, uint32_t len, float* dst) {
  if (pos + len > value_count_) {
    return InvalidArgument("column read out of range");
  }
  if (len == 0) return OkStatus();
  if (encoding_ == ColumnFileHeader::kRawF32) {
    return FetchBytes(payload_offset_ + pos * 4, 4ull * len,
                      reinterpret_cast<uint8_t*>(dst));
  }
  if (encoding_ != ColumnFileHeader::kQuantU8) {
    return Internal("ReadF32 on a non-float column");
  }
  // Stack staging, chunk by chunk (not a member buffer): concurrent
  // ReadF32 calls on the shared reader must not stomp each other's bytes.
  uint8_t bytes[1024];
  for (uint32_t done = 0; done < len;) {
    const uint32_t n = std::min<uint32_t>(len - done, sizeof(bytes));
    X100IR_RETURN_IF_ERROR(FetchBytes(payload_offset_ + pos + done, n, bytes));
    for (uint32_t i = 0; i < n; ++i) {
      dst[done + i] = q8_bias_ + q8_scale_ * static_cast<float>(bytes[i]);
    }
    done += n;
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// SortedColumnCursor
// ---------------------------------------------------------------------------

Status SortedColumnCursor::Init(ColumnReader* col, uint64_t begin,
                                uint64_t end) {
  if (col == nullptr) return InvalidArgument("null column reader");
  if (begin > end || end > col->value_count()) {
    return InvalidArgument("cursor range out of bounds");
  }
  col_ = col;
  begin_ = begin;
  end_ = end;
  pos_ = begin;
  compressed_ = col->is_compressed();
  if (compressed_ && !col->WindowIsDelta()) {
    return InvalidArgument(
        "sorted cursor needs window value bases (PFOR-DELTA)");
  }
  win_ = kNoWindow;
  stats_ = compress::SkipStats();
  return OkStatus();
}

Status SortedColumnCursor::EnsureWindow() {
  if (Loaded(pos_)) return OkStatus();
  const uint32_t w = static_cast<uint32_t>(pos_ / kStride);
  win_base_ = static_cast<uint64_t>(w) * kStride;
  if (compressed_) {
    X100IR_RETURN_IF_ERROR(col_->DecodeWindow(w, win_vals_, &win_len_));
  } else {
    // Raw: fetch the in-range slice of kRawAhead windows in one pool
    // access. Slots below begin_ stay unfilled and are never read
    // (positions never drop below it).
    const uint64_t lo = std::max(begin_, win_base_);
    const uint64_t hi =
        std::min<uint64_t>(end_, win_base_ + uint64_t{kStride} * kRawAhead);
    X100IR_RETURN_IF_ERROR(col_->Read(lo, static_cast<uint32_t>(hi - lo),
                                      win_vals_ + (lo - win_base_)));
    win_len_ = static_cast<uint32_t>(hi - win_base_);
  }
  win_ = w;
  ++stats_.windows_decoded;
  return OkStatus();
}

Status SortedColumnCursor::CurrentRun(const int32_t** vals, uint32_t* n) {
  X100IR_RETURN_IF_ERROR(EnsureWindow());
  const uint64_t window_end = (pos_ / kStride + 1) * kStride;
  const uint64_t cap =
      std::min({end_, win_base_ + win_len_, window_end});
  *vals = win_vals_ + (pos_ - win_base_);
  *n = static_cast<uint32_t>(cap - pos_);
  return OkStatus();
}

Status SortedColumnCursor::Value(int32_t* out) {
  X100IR_RETURN_IF_ERROR(EnsureWindow());
  *out = win_vals_[pos_ - win_base_];
  return OkStatus();
}

Status SortedColumnCursor::ValueAt(uint64_t p, int32_t* out) {
  if (Loaded(p)) {
    *out = win_vals_[p - win_base_];
    return OkStatus();
  }
  return col_->Read(p, 1, out);
}

Status SortedColumnCursor::SkipTo(int32_t target, bool* found) {
  return compressed_ ? SkipToCompressed(target, found)
                     : SkipToRaw(target, found);
}

// Same boundary rules as compress::SortedRangeCursor::SkipTo (which the
// tests pin this against): windows with a successor entry point expose
// their max for free; the window containing end - 1 — or the block's final
// window — has no trustworthy successor and is always decoded as a
// candidate rather than skipped.
Status SortedColumnCursor::SkipToCompressed(int32_t target, bool* found) {
  while (!AtEnd()) {
    const uint32_t w_from = static_cast<uint32_t>(pos_ / kStride);
    const uint32_t w_last = static_cast<uint32_t>((end_ - 1) / kStride);
    const uint32_t full_end =
        std::min(static_cast<uint32_t>(end_ / kStride),
                 col_->num_windows() - 1);
    uint32_t lo = w_from;
    uint32_t hi = std::max(w_from, full_end);
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (col_->WindowValueBase(mid + 1) >= target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    uint32_t cand = lo;
    if (cand >= full_end) {
      if (full_end > w_last) {
        pos_ = end_;
        *found = false;
        return OkStatus();
      }
      cand = w_last;
    }
    if (cand > w_from) {
      stats_.windows_skipped += cand - w_from - (win_ == w_from ? 1 : 0);
      pos_ = static_cast<uint64_t>(cand) * kStride;
    }
    X100IR_RETURN_IF_ERROR(EnsureWindow());
    const uint64_t cap = std::min<uint64_t>(end_, win_base_ + win_len_);
    uint32_t s = static_cast<uint32_t>(pos_ - win_base_);
    uint32_t e = static_cast<uint32_t>(cap - win_base_);
    while (s < e) {
      const uint32_t m = s + (e - s) / 2;
      if (win_vals_[m] >= target) {
        e = m;
      } else {
        s = m + 1;
      }
    }
    if (win_base_ + s < cap) {
      pos_ = win_base_ + s;
      *found = true;
      return OkStatus();
    }
    pos_ = cap;
  }
  *found = false;
  return OkStatus();
}

// Raw columns carry no skip metadata: gallop forward with point reads
// (each one page-granular through the pool), then binary-search the
// bracketed range.
Status SortedColumnCursor::SkipToRaw(int32_t target, bool* found) {
  if (AtEnd()) {
    *found = false;
    return OkStatus();
  }
  int32_t v = 0;
  X100IR_RETURN_IF_ERROR(ValueAt(pos_, &v));
  if (v >= target) {
    *found = true;
    return OkStatus();
  }
  uint64_t lo = pos_;       // value < target
  uint64_t step = 1;
  uint64_t hi = end_;       // first position with value >= target, or end_
  while (lo + step < end_) {
    X100IR_RETURN_IF_ERROR(ValueAt(lo + step, &v));
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
    X100IR_RETURN_IF_ERROR(ValueAt(m, &v));
    if (v >= target) {
      e = m;
    } else {
      s = m + 1;
    }
  }
  pos_ = s;
  *found = pos_ < end_;
  return OkStatus();
}

}  // namespace x100ir::storage
