// Shared block builder + BlockDecoder (LOOP1/LOOP2 patched decode, naive
// sentinel decode, dense-window escape, entry-point range decode). See
// codec.h for the format.
#include "compress/codec.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "compress/block_layout.h"
#include "compress/unpack.h"

namespace x100ir::compress {

using internal::BlockBuildInput;
using internal::BlockHeader;
using internal::DenseWins;
using internal::EntryPoint;
using internal::ExceptionRecord;
using internal::kBlockMagic;
using internal::kBlockPadBytes;
using internal::kDenseWindow;
using internal::kFlagNaiveLayout;
using internal::kNoException;
using internal::WindowBytes;

namespace {

// ---------------------------------------------------------------------------
// Bit packing / unpacking.
//
// Codewords are packed LSB-first into a little-endian bitstream. Every
// access goes through one unaligned 64-bit load: with b <= 30 the widest
// codeword spans at most ceil((7 + 30) / 8) = 5 bytes, so a single load
// always covers it. Callers guarantee 8 readable bytes past the last
// codeword (kBlockPadBytes).
// ---------------------------------------------------------------------------

inline uint32_t ReadCode(const uint8_t* src, uint64_t index, int b) {
  const uint64_t bit = index * static_cast<uint64_t>(b);
  uint64_t word;
  std::memcpy(&word, src + (bit >> 3), sizeof(word));
  const uint64_t mask = (1ull << b) - 1;
  return static_cast<uint32_t>((word >> (bit & 7)) & mask);
}

inline void WriteCode(uint8_t* dst, uint64_t index, int b, uint32_t code) {
  const uint64_t bit = index * static_cast<uint64_t>(b);
  const uint64_t mask = (1ull << b) - 1;
  uint64_t word;
  std::memcpy(&word, dst + (bit >> 3), sizeof(word));
  word |= (static_cast<uint64_t>(code) & mask) << (bit & 7);
  std::memcpy(dst + (bit >> 3), &word, sizeof(word));
}

// LOOP1 kernels live in unpack.h / simd_unpack.cc: per-width scalar
// templates plus SIMD shuffle kernels for b in {4, 8, 16}, resolved at
// runtime through internal::GetUnpackAdd / GetUnpackDict.

inline uint32_t Align8(uint32_t x) { return (x + 7u) & ~7u; }

// LOOP3: in-place prefix sum seeded from `acc`; returns the running value
// so DecodeAll can carry it across batches. Sums wrap (unsigned, like
// LOOP1's base add) instead of overflowing: a corrupt block read off disk
// may decode garbage, never undefined behaviour.
inline int32_t PrefixSumInPlace(int32_t* dst, uint32_t n, int32_t acc) {
  uint32_t sum = static_cast<uint32_t>(acc);
  for (uint32_t i = 0; i < n; ++i) {
    sum += static_cast<uint32_t>(dst[i]);
    dst[i] = static_cast<int32_t>(sum);
  }
  return static_cast<int32_t>(sum);
}

}  // namespace

namespace internal {

int ChooseBitWidth(const int64_t* syms, uint32_t n, bool naive_layout) {
  if (n == 0) return 1;
  // hist[k]: symbols needing exactly k bits; eq_all_ones[k]: symbols equal
  // to 2^k - 1 (the naive sentinel at width k, hence exceptions there).
  uint64_t hist[33] = {0};
  uint64_t eq_all_ones[33] = {0};
  for (uint32_t i = 0; i < n; ++i) {
    const int64_t s = syms[i];
    if (s < 0 || s > 0x7FFFFFFFll) {
      hist[32]++;  // never encodable
      continue;
    }
    int bits = 0;
    uint64_t u = static_cast<uint64_t>(s);
    while (u >> bits) ++bits;
    if (bits == 0) bits = 1;
    hist[bits]++;
    if (s == (1ll << bits) - 1) eq_all_ones[bits]++;
  }
  // suffix[k] = symbols needing more than k bits.
  uint64_t suffix[34] = {0};
  for (int k = 31; k >= 0; --k) suffix[k] = suffix[k + 1] + hist[k + 1];

  int best_b = 1;
  uint64_t best_bytes = ~0ull;
  for (int b = 1; b <= kMaxBitWidth; ++b) {
    uint64_t exc = suffix[b];
    if (naive_layout) exc += eq_all_ones[b];
    const uint64_t bytes = (static_cast<uint64_t>(n) * b + 7) / 8 +
                           sizeof(ExceptionRecord) * exc;
    if (bytes < best_bytes) {
      best_bytes = bytes;
      best_b = b;
    }
  }
  return best_b;
}

Status BuildBlock(const BlockBuildInput& in, std::vector<uint8_t>* out,
                  BlockStats* stats) {
  if (out == nullptr) return InvalidArgument("null output");
  if (in.bit_width < 1 || in.bit_width > kMaxBitWidth) {
    return InvalidArgument("bit_width must be in [1, 30]");
  }
  if (in.n > 0 && (in.syms == nullptr || in.payloads == nullptr)) {
    return InvalidArgument("null input arrays");
  }

  const int b = in.bit_width;
  const int64_t mask = (1ll << b) - 1;
  // Naive layout reserves the all-ones codeword as the exception sentinel.
  const int64_t max_normal = in.naive_layout ? mask - 1 : mask;
  // Patched links store (gap - 1); the largest representable gap.
  const uint32_t max_gap = 1u << b;

  const uint32_t entry_count =
      (in.n + kEntryPointStride - 1) / kEntryPointStride;
  std::vector<EntryPoint> entries(entry_count);
  std::vector<uint32_t> codes(in.n, 0);
  std::vector<ExceptionRecord> exc_records;
  std::vector<uint32_t> window_exc;  // scratch: window-relative slots
  uint64_t n_compulsory = 0;
  uint32_t n_dense = 0;
  uint32_t payload_off = 0;

  for (uint32_t w = 0; w < entry_count; ++w) {
    const uint32_t begin = w * kEntryPointStride;
    const uint32_t wn = std::min(kEntryPointStride, in.n - begin);
    EntryPoint& ep = entries[w];
    ep.exc_start = static_cast<uint32_t>(exc_records.size());
    ep.first_exc = kNoException;
    ep.value_base =
        in.window_value_bases != nullptr ? in.window_value_bases[w] : 0;
    ep.payload_off = payload_off;

    if (in.naive_layout) {
      for (uint32_t i = 0; i < wn; ++i) {
        const int64_t s = in.syms[begin + i];
        if (s < 0 || s > max_normal) {
          codes[begin + i] = static_cast<uint32_t>(mask);
          exc_records.push_back({in.payloads[begin + i], begin + i});
          if (ep.first_exc == kNoException) ep.first_exc = i;
        } else {
          codes[begin + i] = static_cast<uint32_t>(s);
        }
      }
      payload_off += WindowBytes(wn, b);
      continue;
    }

    // Patched layout: collect natural exceptions, then force compulsory
    // ones wherever the gap between two consecutive exceptions exceeds the
    // largest link (2^b).
    window_exc.clear();
    uint64_t naturals = 0;
    for (uint32_t i = 0; i < wn; ++i) {
      const int64_t s = in.syms[begin + i];
      const bool natural = s < 0 || s > max_normal;
      if (!natural) {
        codes[begin + i] = static_cast<uint32_t>(s);
        continue;
      }
      ++naturals;
      if (!window_exc.empty()) {
        uint32_t prev = window_exc.back();
        while (i - prev > max_gap) {
          prev += max_gap;
          window_exc.push_back(prev);  // compulsory exception
        }
      }
      window_exc.push_back(i);
    }

    // Dense escape: when the patched form would be no smaller than raw
    // values, store the window raw — smaller, and decode is a memcpy.
    if (DenseWins(wn, b, window_exc.size())) {
      ep.first_exc = kDenseWindow;
      payload_off += 4 * wn;
      ++n_dense;
      continue;
    }

    n_compulsory += window_exc.size() - naturals;
    for (size_t k = 0; k < window_exc.size(); ++k) {
      const uint32_t pos = window_exc[k];
      // Link to the next exception; the last link is never followed.
      const uint32_t link =
          k + 1 < window_exc.size() ? window_exc[k + 1] - pos - 1 : 0;
      codes[begin + pos] = link;
      exc_records.push_back({in.payloads[begin + pos], begin + pos});
    }
    if (!window_exc.empty()) ep.first_exc = window_exc[0];
    payload_off += WindowBytes(wn, b);
  }

  // ---- Layout ----
  const uint32_t payload_bytes = payload_off;
  const uint32_t dict_bytes =
      in.dict != nullptr ? (4u << b) : 0;  // padded to 1 << b entries

  BlockHeader hdr;
  std::memset(&hdr, 0, sizeof(hdr));
  hdr.magic = kBlockMagic;
  hdr.scheme = static_cast<uint8_t>(in.scheme);
  hdr.bit_width = static_cast<uint8_t>(b);
  hdr.flags = in.naive_layout ? kFlagNaiveLayout : 0;
  hdr.n = in.n;
  hdr.base = in.base;
  hdr.n_exceptions = static_cast<uint32_t>(exc_records.size());
  hdr.dict_count = in.dict_count;
  hdr.entry_count = entry_count;
  const uint32_t entries_offset = sizeof(BlockHeader);
  const uint32_t entries_bytes =
      entry_count * static_cast<uint32_t>(sizeof(EntryPoint));
  hdr.dict_offset = in.dict != nullptr ? entries_offset + entries_bytes : 0;
  hdr.code_offset = entries_offset + entries_bytes + dict_bytes;
  hdr.exc_offset = Align8(hdr.code_offset + payload_bytes);

  const size_t total = hdr.exc_offset +
                       sizeof(ExceptionRecord) * exc_records.size() +
                       kBlockPadBytes;
  out->assign(total, 0);
  uint8_t* base_ptr = out->data();
  std::memcpy(base_ptr, &hdr, sizeof(hdr));
  if (entry_count > 0) {
    std::memcpy(base_ptr + entries_offset, entries.data(),
                entries.size() * sizeof(EntryPoint));
  }
  if (in.dict != nullptr) {
    std::memcpy(base_ptr + hdr.dict_offset, in.dict, dict_bytes);
  }
  // Write window payloads. WriteCode's 8-byte read-modify-write only sets
  // its own bit range and writes neighbouring bytes back unchanged, so the
  // spill past a window's payload is harmless; exception records are copied
  // afterwards because the last window's spill can reach into their space.
  uint8_t* payload_ptr = base_ptr + hdr.code_offset;
  for (uint32_t w = 0; w < entry_count; ++w) {
    const uint32_t begin = w * kEntryPointStride;
    const uint32_t wn = std::min(kEntryPointStride, in.n - begin);
    uint8_t* wptr = payload_ptr + entries[w].payload_off;
    if (entries[w].first_exc == kDenseWindow) {
      std::memcpy(wptr, in.payloads + begin, 4ull * wn);
    } else {
      for (uint32_t i = 0; i < wn; ++i) {
        WriteCode(wptr, i, b, codes[begin + i]);
      }
    }
  }
  if (!exc_records.empty()) {
    std::memcpy(base_ptr + hdr.exc_offset, exc_records.data(),
                exc_records.size() * sizeof(ExceptionRecord));
  }

  if (stats != nullptr) {
    stats->n = in.n;
    stats->bit_width = b;
    stats->n_exceptions = static_cast<uint32_t>(exc_records.size());
    stats->n_compulsory_exceptions = static_cast<uint32_t>(n_compulsory);
    stats->n_dense_windows = n_dense;
    stats->compressed_bytes = total;
  }
  return OkStatus();
}

}  // namespace internal

// ---------------------------------------------------------------------------
// BlockDecoder
// ---------------------------------------------------------------------------

Status BlockDecoder::Init(const uint8_t* data, size_t size) {
  return InitInternal(data, size, size, /*meta_only=*/false);
}

Status BlockDecoder::InitMeta(const uint8_t* meta, size_t meta_size,
                              size_t full_size) {
  return InitInternal(meta, meta_size, full_size, /*meta_only=*/true);
}

Status BlockDecoder::InitInternal(const uint8_t* data, size_t size,
                                  size_t full_size, bool meta_only) {
  if (data == nullptr || size < sizeof(BlockHeader)) {
    return InvalidArgument("block too small");
  }
  if ((reinterpret_cast<uintptr_t>(data) & 3u) != 0) {
    return InvalidArgument("block must be 4-byte aligned");
  }
  BlockHeader hdr;
  std::memcpy(&hdr, data, sizeof(hdr));
  if (hdr.magic != kBlockMagic) return InvalidArgument("bad block magic");
  if (hdr.bit_width < 1 || hdr.bit_width > kMaxBitWidth) {
    return InvalidArgument("bad bit width");
  }
  if (hdr.scheme > static_cast<uint8_t>(Scheme::kPdict)) {
    return InvalidArgument("bad scheme");
  }
  const uint64_t expected_entries =
      (static_cast<uint64_t>(hdr.n) + kEntryPointStride - 1) /
      kEntryPointStride;
  if (hdr.entry_count != expected_entries) {
    return InvalidArgument("bad entry count");
  }
  const uint64_t entries_end =
      sizeof(BlockHeader) +
      sizeof(EntryPoint) * static_cast<uint64_t>(hdr.entry_count);
  const uint64_t exc_end = static_cast<uint64_t>(hdr.exc_offset) +
                           sizeof(ExceptionRecord) *
                               static_cast<uint64_t>(hdr.n_exceptions);
  if (entries_end > hdr.code_offset || hdr.code_offset > hdr.exc_offset ||
      exc_end + kBlockPadBytes > full_size) {
    return InvalidArgument("truncated block");
  }
  if (meta_only) {
    // The caller hands us only the metadata prefix; everything up to the
    // window payloads must be present, and the naive layout is rejected
    // outright (per-window exception slots live in absent payload bytes).
    if (size < hdr.code_offset) {
      return InvalidArgument("metadata prefix shorter than code offset");
    }
    if ((hdr.flags & kFlagNaiveLayout) != 0) {
      return InvalidArgument("metadata-only init on a naive-layout block");
    }
  }
  if ((hdr.exc_offset & 3u) != 0 || (hdr.dict_offset & 3u) != 0) {
    return InvalidArgument("misaligned section offset");
  }
  // Only PDICT blocks carry a dictionary. A crafted PFOR/PFOR-DELTA block
  // can place a bounds-consistent dictionary section between the entry
  // points and the (shifted) payloads; accepting it would let fuzzed
  // payloads smuggle an unvalidated section the decoder silently ignores.
  if (hdr.scheme != static_cast<uint8_t>(Scheme::kPdict) &&
      hdr.dict_offset != 0) {
    return InvalidArgument("unexpected dictionary section");
  }
  if (hdr.dict_offset != 0 &&
      (hdr.dict_offset < entries_end ||
       static_cast<uint64_t>(hdr.dict_offset) + (4ull << hdr.bit_width) >
           hdr.code_offset)) {
    return InvalidArgument("dictionary out of bounds");
  }
  if (hdr.scheme == static_cast<uint8_t>(Scheme::kPdict) &&
      hdr.bit_width > kMaxDictBitWidth) {
    return InvalidArgument("pdict bit width too large");
  }

  data_ = data;
  size_ = size;
  scheme_ = static_cast<Scheme>(hdr.scheme);
  bit_width_ = hdr.bit_width;
  naive_layout_ = (hdr.flags & kFlagNaiveLayout) != 0;
  meta_only_ = meta_only;
  base_ = hdr.base;
  n_ = hdr.n;
  n_exceptions_ = hdr.n_exceptions;
  entry_count_ = hdr.entry_count;
  meta_bytes_ = hdr.code_offset;
  code_offset_ = hdr.code_offset;
  exc_offset_ = hdr.exc_offset;
  entries_ = data + sizeof(BlockHeader);
  codes_ = meta_only ? nullptr : data + hdr.code_offset;
  exceptions_ = meta_only ? nullptr : data + hdr.exc_offset;
  dict_ = hdr.dict_offset != 0
              ? reinterpret_cast<const int32_t*>(data + hdr.dict_offset)
              : nullptr;
  if (scheme_ == Scheme::kPdict && dict_ == nullptr) {
    return InvalidArgument("pdict block without dictionary");
  }

  // Structural check of the entry points (O(entry_count), cheap relative
  // to any decode): exception starts monotone, and payload offsets exactly
  // canonical — each window's payload immediately follows the previous
  // one's, which also guarantees the contiguity DecodeAll's batched LOOP1
  // relies on. Exception record *positions* are not scanned here — that is
  // O(n_exceptions); call Validate() before decoding blocks from untrusted
  // sources.
  const uint32_t payload_bytes = hdr.exc_offset - hdr.code_offset;
  uint32_t prev_exc = 0;
  uint32_t expected_off = 0;
  for (uint32_t w = 0; w < entry_count_; ++w) {
    const Entry ep = EntryAt(w);
    const uint32_t wn = WindowLen(w);
    if (ep.exc_start < prev_exc || ep.exc_start > n_exceptions_) {
      return InvalidArgument("entry exception index out of order");
    }
    prev_exc = ep.exc_start;
    if (ep.payload_off != expected_off) {
      return InvalidArgument("non-canonical window payload offset");
    }
    expected_off += ep.first_exc == kDenseWindow
                        ? 4 * wn
                        : WindowBytes(wn, bit_width_);
    if (expected_off > payload_bytes) {
      return InvalidArgument("window payload out of bounds");
    }
    if (ep.first_exc != kNoException && ep.first_exc != kDenseWindow &&
        ep.first_exc >= wn) {
      return InvalidArgument("bad first exception slot");
    }
  }
  return OkStatus();
}

Status BlockDecoder::Validate() const {
  if (data_ == nullptr) return Internal("Init not called");
  if (meta_only_) {
    return Internal("payload not resident (metadata-only init)");
  }
  const auto* exc = reinterpret_cast<const ExceptionRecord*>(exceptions_);
  const uint32_t sentinel = (1u << bit_width_) - 1;
  for (uint32_t w = 0; w < entry_count_; ++w) {
    Entry ep;
    const uint32_t nexc = ExceptionsInWindow(w, &ep);
    const uint32_t begin = w * kEntryPointStride;
    const uint32_t wn = WindowLen(w);
    // Record positions: corruption would turn LOOP2's out[pos] into an
    // out-of-bounds write.
    for (uint32_t k = 0; k < nexc; ++k) {
      const uint32_t pos = exc[ep.exc_start + k].pos;
      if (pos < begin || pos - begin >= wn) {
        return InvalidArgument("exception position outside its window");
      }
    }
    // Naive layout: each sentinel codeword consumes one record during
    // decode; more sentinels than records would read past the exceptions
    // section.
    if (naive_layout_) {
      const uint8_t* src = codes_ + ep.payload_off;
      uint32_t sentinels = 0;
      for (uint32_t i = 0; i < wn; ++i) {
        if (ReadCode(src, i, bit_width_) == sentinel) ++sentinels;
      }
      if (sentinels != nexc) {
        return InvalidArgument("sentinel count does not match records");
      }
    }
  }
  return OkStatus();
}

int32_t BlockDecoder::WindowValueBase(uint32_t w) const {
  return EntryAt(w).value_base;
}

WindowExtent BlockDecoder::WindowExtentOf(uint32_t w) const {
  Entry ep;
  const uint32_t nexc = ExceptionsInWindow(w, &ep);
  const uint32_t wn = WindowLen(w);
  WindowExtent ext;
  ext.payload_offset = code_offset_ + ep.payload_off;
  ext.payload_bytes = ep.first_exc == kDenseWindow
                          ? 4 * wn
                          : WindowBytes(wn, bit_width_);
  ext.exc_offset = exc_offset_ +
                   static_cast<uint64_t>(ep.exc_start) *
                       sizeof(ExceptionRecord);
  ext.exc_count = nexc;
  return ext;
}

WindowView BlockDecoder::WindowViewOf(uint32_t w) const {
  assert(!meta_only_ && "payload not resident (metadata-only init)");
  WindowView view;
  if (meta_only_) return view;
  Entry ep;
  view.exc_count = ExceptionsInWindow(w, &ep);
  view.payload = codes_ + ep.payload_off;
  view.exc = exceptions_ +
             static_cast<size_t>(ep.exc_start) * sizeof(ExceptionRecord);
  view.begin = w * kEntryPointStride;
  view.len = WindowLen(w);
  view.bit_width = bit_width_;
  view.base = base_;
  view.dense = ep.first_exc == kDenseWindow;
  if (view.dense) view.exc_count = 0;
  return view;
}

void BlockDecoder::DecodeWindowDetached(uint32_t w, const uint8_t* payload,
                                        const uint8_t* exc,
                                        int32_t* dst) const {
  const uint32_t wn = WindowLen(w);
  Entry ep;
  const uint32_t nexc = ExceptionsInWindow(w, &ep);
  if (ep.first_exc == kDenseWindow) {
    std::memcpy(dst, payload, 4ull * wn);
  } else {
    if (scheme_ == Scheme::kPdict) {
      internal::GetUnpackDict(bit_width_)(payload, wn, dict_, dst);
    } else {
      internal::GetUnpackAdd(bit_width_)(payload, wn, base_, dst);
    }
    // LOOP2 from the caller's record buffer. Unlike the resident path —
    // whose record positions Validate() vets once per block — these records
    // come straight off storage at query time, so out-of-window positions
    // are clamped here: a torn or corrupt file may yield wrong values but
    // never an out-of-bounds store.
    const auto* recs = reinterpret_cast<const ExceptionRecord*>(exc);
    const uint32_t begin = w * kEntryPointStride;
    for (uint32_t k = 0; k < nexc; ++k) {
      const uint32_t slot = recs[k].pos - begin;
      if (slot < wn) dst[slot] = recs[k].value;
    }
  }
  if (scheme_ == Scheme::kPforDelta) {
    PrefixSumInPlace(dst, wn, ep.value_base);
  }
}

BlockDecoder::Entry BlockDecoder::EntryAt(uint32_t w) const {
  EntryPoint ep;
  std::memcpy(&ep, entries_ + static_cast<size_t>(w) * sizeof(EntryPoint),
              sizeof(ep));
  return Entry{ep.exc_start, ep.first_exc, ep.value_base, ep.payload_off};
}

uint32_t BlockDecoder::WindowLen(uint32_t w) const {
  const uint32_t begin = w * kEntryPointStride;
  return std::min(kEntryPointStride, n_ - begin);
}

uint32_t BlockDecoder::ExceptionsInWindow(uint32_t w, Entry* entry) const {
  *entry = EntryAt(w);
  const uint32_t next_start =
      w + 1 < entry_count_ ? EntryAt(w + 1).exc_start : n_exceptions_;
  return next_start - entry->exc_start;
}

void BlockDecoder::DecodeWindow(uint32_t w, int32_t* dst) const {
  const uint32_t wn = WindowLen(w);
  Entry ep;
  const uint32_t nexc = ExceptionsInWindow(w, &ep);
  const uint8_t* src = codes_ + ep.payload_off;

  if (ep.first_exc == kDenseWindow) {
    std::memcpy(dst, src, 4ull * wn);
  } else {
    // LOOP1: branch-free unpack (exception slots decode to garbage links;
    // LOOP2 overwrites them).
    if (scheme_ == Scheme::kPdict) {
      internal::GetUnpackDict(bit_width_)(src, wn, dict_, dst);
    } else {
      internal::GetUnpackAdd(bit_width_)(src, wn, base_, dst);
    }
    // LOOP2: patch exceptions from the materialized records — sequential
    // reads, scattered stores, no data-dependent branches.
    internal::GetPatch()(
        exceptions_ + static_cast<size_t>(ep.exc_start) *
                          sizeof(ExceptionRecord),
        nexc, w * kEntryPointStride, dst);
  }

  // LOOP3 (PFOR-DELTA): prefix-sum the patched deltas from the window's
  // running base.
  if (scheme_ == Scheme::kPforDelta) {
    PrefixSumInPlace(dst, wn, ep.value_base);
  }
}

void BlockDecoder::DecodeWindowNaive(uint32_t w, int32_t* dst) const {
  const uint32_t wn = WindowLen(w);
  Entry ep = EntryAt(w);
  const uint8_t* src = codes_ + ep.payload_off;
  const auto* excv = reinterpret_cast<const ExceptionRecord*>(exceptions_);
  const uint32_t sentinel = (1u << bit_width_) - 1;
  uint32_t j = ep.exc_start;
  uint64_t bit = 0;
  const int b = bit_width_;
  for (uint32_t i = 0; i < wn; ++i, bit += b) {
    uint64_t word;
    std::memcpy(&word, src + (bit >> 3), sizeof(word));
    const uint32_t code =
        static_cast<uint32_t>((word >> (bit & 7)) & sentinel);
    // The branch Figure 3 is about: unpredictable when the exception rate
    // nears 50%.
    if (code == sentinel) {
      dst[i] = excv[j].value;
      ++j;
    } else {
      dst[i] = base_ + static_cast<int32_t>(code);
    }
  }
  if (scheme_ == Scheme::kPforDelta) {
    PrefixSumInPlace(dst, wn, ep.value_base);
  }
}

namespace {
// Windows per decode batch: 8 windows = 4 KB of output, comfortably
// L1-resident so LOOP2 patches lines LOOP1 just wrote.
constexpr uint32_t kBatchWindows = 8;
}  // namespace

void BlockDecoder::DecodeAll(int32_t* out) const {
  assert(!meta_only_ && "payload not resident (metadata-only init)");
  if (meta_only_) return;
  if (naive_layout_) {
    for (uint32_t w = 0; w < entry_count_; ++w) {
      DecodeWindowNaive(w, out + static_cast<size_t>(w) * kEntryPointStride);
    }
    return;
  }

  const bool dict_scheme = scheme_ == Scheme::kPdict;
  const auto unpack_add = internal::GetUnpackAdd(bit_width_);
  const auto unpack_dict = internal::GetUnpackDict(bit_width_);
  const auto patch = internal::GetPatch();
  int32_t delta_acc = 0;

  // Process kBatchWindows windows per batch: LOOP1 unpacks the batch (a few
  // KB — stays in L1), LOOP2 patches the still-hot batch, LOOP3 prefix-sums
  // it. When no window in the batch is dense, their payloads are one
  // contiguous bitstream (full windows occupy exactly 16 * b bytes), so
  // LOOP1 is a single call.
  for (uint32_t w0 = 0; w0 < entry_count_; w0 += kBatchWindows) {
    const uint32_t nlanes = std::min(kBatchWindows, entry_count_ - w0);
    const uint32_t begin = w0 * kEntryPointStride;
    const uint32_t batch_n = std::min(nlanes * kEntryPointStride, n_ - begin);
    int32_t* batch_dst = out + begin;

    Entry eps[kBatchWindows];
    bool any_dense = false;
    for (uint32_t l = 0; l < nlanes; ++l) {
      eps[l] = EntryAt(w0 + l);
      any_dense = any_dense || eps[l].first_exc == kDenseWindow;
    }
    const uint32_t exc_hi = w0 + nlanes < entry_count_
                                ? EntryAt(w0 + nlanes).exc_start
                                : n_exceptions_;

    if (!any_dense) {
      // LOOP1 over the whole batch at once.
      const uint8_t* batch_src = codes_ + eps[0].payload_off;
      if (dict_scheme) {
        unpack_dict(batch_src, batch_n, dict_, batch_dst);
      } else {
        unpack_add(batch_src, batch_n, base_, batch_dst);
      }
      // LOOP2: one flat run over the batch's slice of the exception
      // records. One sequential 8-byte load and one scattered store per
      // exception — no data-dependent branches, no pointer chase.
      patch(exceptions_ + static_cast<size_t>(eps[0].exc_start) *
                              sizeof(ExceptionRecord),
            exc_hi - eps[0].exc_start, 0, out);
    } else {
      // Mixed batch: per window, memcpy dense payloads, unpack + patch the
      // rest.
      for (uint32_t l = 0; l < nlanes; ++l) {
        const uint32_t wbegin = (w0 + l) * kEntryPointStride;
        const uint32_t wn = std::min(kEntryPointStride, n_ - wbegin);
        const uint8_t* src = codes_ + eps[l].payload_off;
        int32_t* dst = out + wbegin;
        if (eps[l].first_exc == kDenseWindow) {
          std::memcpy(dst, src, 4ull * wn);
          continue;
        }
        if (dict_scheme) {
          unpack_dict(src, wn, dict_, dst);
        } else {
          unpack_add(src, wn, base_, dst);
        }
        const uint32_t wexc_hi =
            l + 1 < nlanes ? eps[l + 1].exc_start : exc_hi;
        patch(exceptions_ + static_cast<size_t>(eps[l].exc_start) *
                                sizeof(ExceptionRecord),
              wexc_hi - eps[l].exc_start, 0, out);
      }
    }

    // LOOP3 (PFOR-DELTA): prefix-sum the batch; the accumulator carries
    // across batches, and window value_bases are only needed for range
    // decodes.
    if (scheme_ == Scheme::kPforDelta) {
      delta_acc = PrefixSumInPlace(batch_dst, batch_n, delta_acc);
    }
  }
}

void BlockDecoder::DecodeNaive(int32_t* out) const { DecodeAll(out); }

void BlockDecoder::Decode(uint32_t pos, uint32_t len, int32_t* out) const {
  assert(!meta_only_ && "payload not resident (metadata-only init)");
  if (meta_only_) return;
  // Edge cases pinned by Codec.RangeDecodeHostileEdges: len == 0 and
  // pos >= n_ (including pos == n_ exactly) write nothing; pos + len past
  // n_ (including uint32 wrap, e.g. pos = n_ - 1, len = UINT32_MAX) clamps
  // to the block. The end is computed in 64-bit to make the no-wrap
  // argument local: the previous min(len, n_ - pos) form was equally
  // correct but relied on the pos < n_ guard above.
  if (pos >= n_ || len == 0) return;
  const uint64_t end =
      std::min<uint64_t>(static_cast<uint64_t>(pos) + len, n_);
  len = static_cast<uint32_t>(end - pos);
  const uint32_t w0 = pos / kEntryPointStride;
  const uint32_t w1 = (pos + len - 1) / kEntryPointStride;
  int32_t tmp[kEntryPointStride];
  int32_t* outp = out;
  for (uint32_t w = w0; w <= w1; ++w) {
    const uint32_t begin = w * kEntryPointStride;
    const uint32_t wn = WindowLen(w);
    const uint32_t lo = w == w0 ? pos - begin : 0;
    const uint32_t hi = w == w1 ? pos + len - begin : wn;
    if (lo == 0 && hi == wn) {
      if (naive_layout_) {
        DecodeWindowNaive(w, outp);
      } else {
        DecodeWindow(w, outp);
      }
    } else {
      if (naive_layout_) {
        DecodeWindowNaive(w, tmp);
      } else {
        DecodeWindow(w, tmp);
      }
      std::memcpy(outp, tmp + lo, static_cast<size_t>(hi - lo) * 4);
    }
    outp += hi - lo;
  }
}

void BlockDecoder::ExceptionMask(std::vector<bool>* mask) const {
  assert(!meta_only_ && "payload not resident (metadata-only init)");
  mask->assign(n_, false);
  if (meta_only_) return;
  const uint32_t sentinel = (1u << bit_width_) - 1;
  for (uint32_t w = 0; w < entry_count_; ++w) {
    const uint32_t begin = w * kEntryPointStride;
    const uint32_t wn = WindowLen(w);
    Entry ep;
    const uint32_t nexc = ExceptionsInWindow(w, &ep);
    const uint8_t* src = codes_ + ep.payload_off;
    if (naive_layout_) {
      for (uint32_t i = 0; i < wn; ++i) {
        if (ReadCode(src, i, bit_width_) == sentinel) {
          (*mask)[begin + i] = true;
        }
      }
    } else if (ep.first_exc == kDenseWindow) {
      // Dense windows store no exceptions.
    } else if (nexc > 0) {
      // Walk the in-slot linked exception list — the paper's traversal,
      // which the branch-trace sims model. Clamped to the window so a
      // corrupt link can't walk out of bounds.
      uint32_t cur = ep.first_exc;
      for (uint32_t k = 0; k < nexc && cur < wn; ++k) {
        (*mask)[begin + cur] = true;
        cur += ReadCode(src, cur, bit_width_) + 1;
      }
    }
  }
}

}  // namespace x100ir::compress
