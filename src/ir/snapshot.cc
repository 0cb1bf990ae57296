#include "ir/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/string_util.h"
#include "ir/index_meta.h"
#include "storage/crash_point.h"
#include "storage/wal.h"

namespace x100ir::ir {
namespace {

// The full-coverage size, in words, of a tombstone bitmap over a structure
// of `num_docs` documents. Readers (TombstoneTest in the engine and the
// delta scans) index by arbitrary live docids with no bounds check of their
// own, so every published bitmap spans ALL of its structure, not just the
// highest set bit — a short bitmap would be an out-of-bounds read, not a
// "not deleted". Every bitmap this file builds or grows is sized here.
size_t CoverageWords(uint32_t num_docs) { return num_docs / 64 + 1; }

// Copy-on-write tombstone set: never mutates the shared current bitmap
// (snapshots born earlier keep reading their version), publishes a
// full-coverage copy with one more bit.
TombstoneBits SetBitCow(const TombstoneBits& cur, uint32_t bit,
                        uint32_t num_docs) {
  auto next = std::make_shared<std::vector<uint64_t>>(
      cur != nullptr ? *cur : std::vector<uint64_t>());
  next->resize(std::max(next->size(), CoverageWords(num_docs)), 0);
  (*next)[bit / 64] |= 1ull << (bit % 64);
  return next;
}

// One live document as ForEachLiveDoc visits it. `part` numbers the walked
// structures: segments first, then deltas, in list order.
struct LiveDoc {
  size_t part;
  uint32_t local;
  int32_t global;
  const std::vector<DocTerm>& doc;
  int32_t len;
};

// Visits every live (untombstoned) document of `segments`, then of each
// delta's visible prefix, ascending local docid within a part — ascending
// global docid overall, since segment globals sit below every delta base.
// The one walk behind the merge's gather, the live-stats recount and the
// merge commit's tombstone derivation, which relies on all three agreeing
// on this order.
template <typename Fn>
void ForEachLiveDoc(const std::vector<Snapshot::SegmentRead>& segments,
                    const std::vector<Snapshot::DeltaRead>& deltas, Fn&& fn) {
  size_t part = 0;
  for (const Snapshot::SegmentRead& sr : segments) {
    const uint64_t* bits =
        sr.tombstones != nullptr ? sr.tombstones->data() : nullptr;
    for (uint32_t local = 0; local < sr.seg->num_docs(); ++local) {
      if (TombstoneTest(bits, static_cast<int32_t>(local))) continue;
      fn(LiveDoc{part, local, sr.seg->GlobalOf(static_cast<int32_t>(local)),
                 sr.seg->doc(local), sr.seg->doc_len(local)});
    }
    ++part;
  }
  for (const Snapshot::DeltaRead& dr : deltas) {
    const uint64_t* bits =
        dr.tombstones != nullptr ? dr.tombstones->data() : nullptr;
    for (uint32_t local = 0; local < dr.visible; ++local) {
      if (TombstoneTest(bits, static_cast<int32_t>(local))) continue;
      fn(LiveDoc{part, local,
                 dr.delta->base_docid() + static_cast<int32_t>(local),
                 dr.delta->doc(local), dr.delta->doc_len(local)});
    }
    ++part;
  }
}

std::string SegDir(const std::string& root, uint32_t seg_id) {
  return root + "/seg_" + std::to_string(seg_id);
}

// Deletes every on-disk trace of segmented state under `root` (manifest
// and seg_* directories) — the clean-rebuild fallback for a torn or
// mismatched manifest. The base segment's column files stay: the fresh
// open will reuse or rebuild them through the normal fingerprint check.
void RemoveSegmentedState(const std::string& root) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove(root + "/" + kManifestFile, ec);
  fs::remove(root + "/" + kManifestTmpFile, ec);
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (entry.is_directory(ec) &&
        entry.path().filename().string().rfind("seg_", 0) == 0) {
      fs::remove_all(entry.path(), ec);
    }
  }
}

// Sweeps seg_* directories the adopted manifest does not reference, plus a
// stranded MANIFEST.tmp — the debris a crash between segment build and
// manifest commit (or between commit and retirement) leaves behind. Safe
// because every committed segment is listed in the manifest by definition,
// and seg-id reuse after a crashed merge overwrites rather than trips.
void SweepUnreferencedSegments(const std::string& root,
                               const std::vector<uint32_t>& live_ids) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove(root + "/" + kManifestTmpFile, ec);
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_directory(ec) || name.rfind("seg_", 0) != 0) continue;
    uint32_t id = 0;
    bool numeric = name.size() > 4;
    for (size_t i = 4; numeric && i < name.size(); ++i) {
      numeric = name[i] >= '0' && name[i] <= '9';
      if (numeric) id = id * 10 + static_cast<uint32_t>(name[i] - '0');
    }
    if (!numeric) continue;
    if (std::find(live_ids.begin(), live_ids.end(), id) == live_ids.end()) {
      fs::remove_all(entry.path(), ec);
    }
  }
}

}  // namespace

SnapshotManager::~SnapshotManager() {
  // Joining here (not relying on merge_pool_'s own destructor) makes the
  // shutdown order explicit: the background merge finishes before any
  // member it touches starts dying.
  merge_pool_.Shutdown();
}

StorageBinding SnapshotManager::BindingFor(uint32_t seg_id) const {
  StorageBinding b;
  b.pool = pool_.get();
  b.file_id_base = seg_id * IndexStorage::kFilesPerIndex;
  return b;
}

Status SnapshotManager::Open(const Corpus* corpus, const std::string& dir,
                             const storage::StorageOptions& storage,
                             BuildStats* stats) {
  if (corpus == nullptr) return InvalidArgument("snapshot manager needs a corpus");
  if (stats == nullptr) return InvalidArgument("null build stats");
  corpus_ = corpus;
  dir_ = dir;
  if (!dir_.empty()) {
    disk_ = std::make_unique<storage::SimulatedDisk>(storage.disk);
    pool_ = std::make_unique<storage::BufferManager>(
        storage.pool_bytes, disk_.get(), storage.page_bytes, storage.shards);
    pool_->set_retry_policy(storage.retry);
  }

  std::lock_guard<std::mutex> lock(mu_);
  Status adopted = dir_.empty() ? NotFound("in-memory database")
                                : TryLoadManifest(stats);
  if (adopted.ok()) {
    // Clear the debris of crashed merges: built-but-uncommitted segment
    // dirs and a stranded MANIFEST.tmp.
    std::vector<uint32_t> live_ids;
    for (const Snapshot::SegmentRead& sr : segments_) {
      live_ids.push_back(sr.seg->seg_id());
    }
    SweepUnreferencedSegments(dir_, live_ids);
  } else {
    // No manifest (fresh/legacy directory) or an unusable one (torn swap,
    // corpus mismatch, torn segment): clean rebuild from the corpus. The
    // corpus is generative, so this loses nothing that was ever merged
    // under a *valid* manifest — only state the torn write already lost.
    // An *unusable* (vs merely absent) manifest also invalidates the WAL:
    // its records were framed against state the rebuild does not restore.
    if (!dir_.empty()) {
      RemoveSegmentedState(dir_);
      if (adopted.code() != StatusCode::kNotFound) {
        storage::Wal::RemoveFiles(dir_);
      }
    }
    segments_.clear();
    std::unique_ptr<Segment> base;
    X100IR_RETURN_IF_ERROR(
        Segment::OpenBase(corpus_, dir_, stats, BindingFor(0), &base));
    segments_.push_back({std::shared_ptr<Segment>(std::move(base)), nullptr});
    epoch_ = 0;
    next_seg_id_ = 1;
    next_docid_ = static_cast<int32_t>(corpus_->num_docs());
  }
  deltas_.assign(
      1, {std::make_shared<DeltaSegment>(corpus_->vocab_size(), next_docid_),
          0, nullptr});
  RecountLiveStatsLocked();
  if (!dir_.empty() && storage.wal.enabled) {
    wal_ = std::make_unique<storage::Wal>();
    X100IR_RETURN_IF_ERROR(
        wal_->Open(dir_, corpus_->Fingerprint(), storage.wal));
    X100IR_RETURN_IF_ERROR(ReplayWalLocked());
  }
  PublishLocked();
  return OkStatus();
}

Status SnapshotManager::ReplayWalLocked() {
  return wal_->Replay([this](const storage::WalRecordView& rec) -> Status {
    switch (rec.type) {
      case storage::WalRecordType::kAddDocument: {
        storage::Wal::AddPayload p;
        if (!storage::Wal::DecodeAdd(rec, &p)) {
          return OutOfRange("undecodable add record");
        }
        // Below the current high-water mark = already applied (committed
        // segment of a stale file a crash kept past its merge, or a record
        // seen once already in a double recovery): idempotent skip.
        if (p.docid < next_docid_) return OkStatus();
        if (p.docid > next_docid_) {
          return OutOfRange("docid gap in wal — truncating here");
        }
        std::vector<DocTerm> doc;
        int32_t len = 0;
        uint32_t prev_term = 0;
        for (const auto& [term, tf] : p.terms) {
          if (term >= corpus_->vocab_size() || tf <= 0 ||
              (!doc.empty() && term <= prev_term)) {
            return OutOfRange("malformed add payload");
          }
          doc.push_back({term, tf});
          len += tf;
          prev_term = term;
        }
        if (doc.empty()) return OutOfRange("empty add payload");
        int32_t id = -1;
        return ApplyAddLocked(std::move(doc), len, &id);
      }
      case storage::WalRecordType::kDeleteDocument: {
        int32_t docid = -1;
        if (!storage::Wal::DecodeDocid(rec, &docid)) {
          return OutOfRange("undecodable delete record");
        }
        DeleteTarget target;
        Status found = FindDeleteTargetLocked(docid, &target);
        // Idempotent: the delete may already be durable via the manifest
        // (a merge carried it as a tombstone, or the doc merged away).
        if (found.code() == StatusCode::kNotFound) return OkStatus();
        X100IR_RETURN_IF_ERROR(found);
        ApplyDeleteLocked(target);
        return OkStatus();
      }
      case storage::WalRecordType::kDeltaSealed: {
        int32_t cutoff = -1;
        if (!storage::Wal::DecodeDocid(rec, &cutoff)) {
          return OutOfRange("undecodable seal record");
        }
        if (cutoff < next_docid_) return OkStatus();  // stale era
        if (cutoff > next_docid_) {
          return OutOfRange("seal cutoff beyond replayed docids");
        }
        SealActiveLocked();
        return OkStatus();
      }
      case storage::WalRecordType::kMergeCommitted:
        // Purely informational: the manifest rename is the commit, and the
        // manifest was adopted before replay started.
        return OkStatus();
    }
    return OutOfRange("unknown wal record type");
  });
}

Status SnapshotManager::TryLoadManifest(BuildStats* stats) {
  const std::string path = dir_ + "/" + kManifestFile;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return NotFound("no manifest under " + dir_);
  ManifestHeader hdr;
  bool ok = std::fread(&hdr, sizeof(hdr), 1, f) == 1;
  ok = ok && hdr.magic == ManifestHeader::kMagic &&
       hdr.version == ManifestHeader::kVersion &&
       hdr.corpus_fingerprint == corpus_->Fingerprint() &&
       hdr.num_segments <= 1u << 20;
  std::vector<ManifestSegment> entries;
  std::vector<std::vector<uint64_t>> tomb_words;
  if (ok) {
    entries.resize(hdr.num_segments);
    tomb_words.resize(hdr.num_segments);
    for (uint32_t i = 0; ok && i < hdr.num_segments; ++i) {
      ok = std::fread(&entries[i], sizeof(ManifestSegment), 1, f) == 1;
      ok = ok && entries[i].num_tombstone_words <=
                     CoverageWords(entries[i].num_docs);
      if (ok && entries[i].num_tombstone_words > 0) {
        tomb_words[i].resize(entries[i].num_tombstone_words);
        ok = std::fread(tomb_words[i].data(),
                        entries[i].num_tombstone_words * sizeof(uint64_t), 1,
                        f) == 1;
      }
    }
  }
  std::fclose(f);
  if (!ok) return IOError("torn or mismatched manifest under " + dir_);

  std::vector<Snapshot::SegmentRead> segs;
  int32_t max_global = -1;
  uint32_t max_seg_id = 0;
  for (uint32_t i = 0; i < hdr.num_segments; ++i) {
    const ManifestSegment& e = entries[i];
    std::unique_ptr<Segment> seg;
    if (e.seg_id == 0) {
      if (e.num_docs != corpus_->num_docs()) {
        return IOError("manifest base segment disagrees with the corpus");
      }
      X100IR_RETURN_IF_ERROR(
          Segment::OpenBase(corpus_, dir_, stats, BindingFor(0), &seg));
    } else {
      X100IR_RETURN_IF_ERROR(Segment::Load(SegDir(dir_, e.seg_id),
                                           BindingFor(e.seg_id), e.seg_id,
                                           e.num_docs, &seg));
      // A manifest-loaded reuse is a reuse for reporting purposes.
      stats->reused_files = true;
      stats->num_postings += seg->index().num_postings();
    }
    max_seg_id = std::max(max_seg_id, e.seg_id);
    if (seg->num_docs() > 0) {
      max_global = std::max(max_global,
                            seg->GlobalOf(static_cast<int32_t>(
                                seg->num_docs() - 1)));
    }
    TombstoneBits tombs;
    if (!tomb_words[i].empty()) {
      // Manifests written by this code are full-coverage already; pad any
      // shorter (but magic-valid) bitmap rather than trust it.
      tomb_words[i].resize(CoverageWords(seg->num_docs()), 0);
      tombs = std::make_shared<std::vector<uint64_t>>(
          std::move(tomb_words[i]));
    }
    segs.push_back({std::shared_ptr<Segment>(std::move(seg)), tombs});
  }
  if (hdr.next_seg_id <= max_seg_id && hdr.num_segments > 0) {
    return IOError("manifest seg-id allocator behind its own segments");
  }
  if (hdr.next_docid <= max_global) {
    return IOError("manifest docid allocator behind its own segments");
  }
  std::sort(segs.begin(), segs.end(),
            [](const Snapshot::SegmentRead& a, const Snapshot::SegmentRead& b) {
              return a.seg->min_global() < b.seg->min_global();
            });
  segments_ = std::move(segs);
  epoch_ = hdr.epoch;
  next_seg_id_ = hdr.next_seg_id;
  next_docid_ = hdr.next_docid;
  return OkStatus();
}

void SnapshotManager::RecountLiveStatsLocked() {
  live_num_docs_ = 0;
  live_total_len_ = 0;
  live_df_.assign(corpus_->vocab_size(), 0);
  ForEachLiveDoc(segments_, deltas_, [this](const LiveDoc& d) {
    ++live_num_docs_;
    live_total_len_ += static_cast<uint64_t>(d.len);
    for (const DocTerm& dt : d.doc) ++live_df_[dt.term];
  });
}

std::shared_ptr<const CollectionStats> SnapshotManager::FreezeStatsLocked()
    const {
  auto stats = std::make_shared<CollectionStats>();
  stats->num_docs = live_num_docs_;
  stats->avg_doc_len =
      live_num_docs_ == 0
          ? 0.0
          : static_cast<double>(live_total_len_) /
                static_cast<double>(live_num_docs_);
  stats->df = live_df_;
  return stats;
}

void SnapshotManager::PublishLocked() {
  auto snap = std::make_shared<Snapshot>();
  snap->epoch = epoch_;
  snap->segments = segments_;
  for (const Snapshot::DeltaRead& dr : deltas_) {
    if (dr.visible > 0) snap->deltas.push_back(dr);
  }
  snap->stats = FreezeStatsLocked();
  snap->on_disk = pool_ != nullptr;
  current_ = std::move(snap);
}

void SnapshotManager::SealActiveLocked() {
  Snapshot::DeltaRead& active = deltas_.back();
  if (active.visible == 0) return;
  active.delta->Seal();
  deltas_.push_back(
      {std::make_shared<DeltaSegment>(corpus_->vocab_size(), next_docid_), 0,
       nullptr});
}

std::shared_ptr<const Snapshot> SnapshotManager::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t SnapshotManager::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

Status SnapshotManager::AddDocument(const std::vector<uint32_t>& terms,
                                    int32_t* docid) {
  if (terms.empty()) return InvalidArgument("document has no terms");
  std::vector<uint32_t> sorted = terms;
  for (uint32_t t : sorted) {
    if (t >= corpus_->vocab_size()) {
      return InvalidArgument(StrFormat("term %u outside vocabulary", t));
    }
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<DocTerm> doc;
  int32_t len = 0;
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    doc.push_back({sorted[i], static_cast<int32_t>(j - i)});
    len += static_cast<int32_t>(j - i);
    i = j;
  }

  int32_t id = -1;
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<uint32_t, int32_t>> pairs;
    if (wal_ != nullptr) {
      pairs.reserve(doc.size());
      for (const DocTerm& dt : doc) pairs.emplace_back(dt.term, dt.tf);
    }
    X100IR_RETURN_IF_ERROR(ApplyAddLocked(std::move(doc), len, &id));
    if (wal_ != nullptr) {
      // Logged under the same critical section that applied it, so the
      // log's record order IS the apply order. A failed append leaves the
      // document in memory but unacknowledged — the caller must assume it
      // is lost on the next crash, which is exactly what the error says.
      const std::vector<uint8_t> payload = storage::Wal::EncodeAdd(id, pairs);
      Status appended =
          wal_->Append(storage::WalRecordType::kAddDocument, payload.data(),
                       static_cast<uint32_t>(payload.size()), &lsn);
      if (!appended.ok()) {
        PublishLocked();
        return appended;
      }
    }
    PublishLocked();
  }
  // The acknowledgment barrier: OK only after an fsync covers the record.
  // Deliberately outside mu_ — this wait is where group commit batches.
  if (wal_ != nullptr) X100IR_RETURN_IF_ERROR(wal_->Sync(lsn));
  if (docid != nullptr) *docid = id;
  return OkStatus();
}

Status SnapshotManager::ApplyAddLocked(std::vector<DocTerm> doc, int32_t len,
                                       int32_t* docid) {
  // The active delta is only ever sealed while holding mu_ (StartMerge),
  // and sealing installs a fresh active delta in the same critical
  // section, so this Add cannot race a seal.
  Snapshot::DeltaRead& active = deltas_.back();
  int32_t id = -1;
  X100IR_RETURN_IF_ERROR(active.delta->Add(std::move(doc), &id));
  active.visible = active.delta->num_docs();
  // Keep the coverage invariant: an existing delta bitmap must span the
  // delta's new doc count, or readers of the next snapshot would index past
  // it. COW — earlier snapshots keep their pairing.
  if (active.tombstones != nullptr &&
      active.tombstones->size() < CoverageWords(active.visible)) {
    auto grown = std::make_shared<std::vector<uint64_t>>(*active.tombstones);
    grown->resize(CoverageWords(active.visible), 0);
    active.tombstones = std::move(grown);
  }
  ++live_num_docs_;
  live_total_len_ += static_cast<uint64_t>(len);
  for (const DocTerm& dt : active.delta->doc(active.visible - 1)) {
    ++live_df_[dt.term];
  }
  ++next_docid_;
  ++epoch_;
  *docid = id;
  return OkStatus();
}

Status SnapshotManager::FindDeleteTargetLocked(int32_t docid,
                                               DeleteTarget* target) {
  if (docid < 0 || docid >= next_docid_) {
    return NotFound(StrFormat("docid %d was never allocated", docid));
  }
  DeleteTarget t;
  for (Snapshot::DeltaRead& dr : deltas_) {
    const int32_t local = docid - dr.delta->base_docid();
    if (local < 0 || local >= static_cast<int32_t>(dr.visible)) continue;
    const uint32_t l = static_cast<uint32_t>(local);
    t = {&dr.tombstones, l, dr.visible, &dr.delta->doc(l),
         dr.delta->doc_len(l)};
    break;
  }
  for (size_t i = 0; t.tombstones == nullptr && i < segments_.size(); ++i) {
    Snapshot::SegmentRead& sr = segments_[i];
    const int32_t local = sr.seg->LocalOf(docid);
    if (local < 0) continue;
    const uint32_t l = static_cast<uint32_t>(local);
    t = {&sr.tombstones, l, sr.seg->num_docs(), &sr.seg->doc(l),
         sr.seg->doc_len(l)};
  }
  // In no structure: the doc was merged away and its segment replaced —
  // only possible for an already-deleted doc (merges carry every live doc
  // forward).
  if (t.tombstones == nullptr ||
      TombstoneTest(*t.tombstones != nullptr ? (*t.tombstones)->data()
                                             : nullptr,
                    static_cast<int32_t>(t.local))) {
    return NotFound(StrFormat("docid %d is already deleted", docid));
  }
  *target = t;
  return OkStatus();
}

void SnapshotManager::ApplyDeleteLocked(const DeleteTarget& target) {
  *target.tombstones =
      SetBitCow(*target.tombstones, target.local, target.num_docs);
  --live_num_docs_;
  live_total_len_ -= static_cast<uint64_t>(target.len);
  for (const DocTerm& dt : *target.doc) --live_df_[dt.term];
  ++epoch_;
}

Status SnapshotManager::DeleteDocument(int32_t docid) {
  uint64_t lsn = 0;
  Status persisted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DeleteTarget target;
    X100IR_RETURN_IF_ERROR(FindDeleteTargetLocked(docid, &target));
    // Segment globals sit below every delta base.
    const bool persistent_owner = docid < deltas_.front().delta->base_docid();
    ApplyDeleteLocked(target);
    if (wal_ != nullptr) {
      // The WAL is the durability story for every delete — including
      // segment docs, whose tombstones replay onto the adopted manifest —
      // so the per-delete manifest rewrite the volatile era needed is gone.
      const std::vector<uint8_t> payload = storage::Wal::EncodeDocid(docid);
      persisted =
          wal_->Append(storage::WalRecordType::kDeleteDocument,
                       payload.data(), static_cast<uint32_t>(payload.size()),
                       &lsn);
    } else if (persistent_owner && !dir_.empty()) {
      // No WAL: deletes of persisted documents are made durable the old
      // way, re-writing the manifest. A failure leaves the in-memory
      // delete applied and reports the error — the reopen then
      // resurrects, it never loses.
      persisted = WriteManifestLocked(segments_, next_docid_);
    }
    PublishLocked();
  }
  if (!persisted.ok()) return persisted;
  // Acknowledgment barrier, outside mu_ (same as AddDocument).
  if (wal_ != nullptr) X100IR_RETURN_IF_ERROR(wal_->Sync(lsn));
  return OkStatus();
}

Status SnapshotManager::WriteManifestLocked(
    const std::vector<Snapshot::SegmentRead>& segments, int32_t next_docid,
    bool* renamed) {
  if (renamed != nullptr) *renamed = false;
  if (storage::CrashedNow()) return IOError("simulated crash");
  const std::string tmp = dir_ + "/" + kManifestTmpFile;
  const std::string path = dir_ + "/" + kManifestFile;
  ManifestHeader hdr;
  hdr.corpus_fingerprint = corpus_->Fingerprint();
  hdr.epoch = epoch_;
  hdr.num_segments = static_cast<uint32_t>(segments.size());
  hdr.next_seg_id = next_seg_id_;
  hdr.next_docid = next_docid;
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return IOError("cannot create " + tmp);
  bool ok = std::fwrite(&hdr, sizeof(hdr), 1, f) == 1;
  for (const Snapshot::SegmentRead& sr : segments) {
    ManifestSegment e;
    e.seg_id = sr.seg->seg_id();
    e.num_docs = sr.seg->num_docs();
    e.num_tombstone_words =
        sr.tombstones != nullptr
            ? static_cast<uint32_t>(sr.tombstones->size())
            : 0;
    ok = ok && std::fwrite(&e, sizeof(e), 1, f) == 1;
    if (e.num_tombstone_words > 0) {
      ok = ok && std::fwrite(sr.tombstones->data(),
                             e.num_tombstone_words * sizeof(uint64_t), 1,
                             f) == 1;
    }
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok) return IOError("short write to " + tmp);
  if (storage::CrashReached(storage::CrashSite::kManifestAfterTmpWrite)) {
    return IOError("simulated crash");
  }
  // The atomic commit point: the manifest appears complete or not at all.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return IOError("cannot swap manifest into place");
  }
  if (renamed != nullptr) *renamed = true;
  if (storage::CrashReached(storage::CrashSite::kManifestAfterRename)) {
    return IOError("simulated crash");
  }
  return OkStatus();
}

bool SnapshotManager::merge_running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merge_running_;
}

storage::WalStats SnapshotManager::wal_stats() const {
  return wal_ != nullptr ? wal_->stats() : storage::WalStats{};
}

Status SnapshotManager::StartMerge() {
  MergeInput input;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (merge_running_) {
      return FailedPrecondition("a merge is already running");
    }
    if (wal_ != nullptr) {
      // Log the seal boundary and rotate BEFORE mutating anything: if
      // either fails, the delta stays active and no merge starts. The
      // rotation's fsync makes the DeltaSealed record (and everything
      // before it) durable; a replay that sees it reseals at the same
      // cutoff. A DeltaSealed record without a merge behind it is
      // harmless — replay reseals, content is unchanged.
      const std::vector<uint8_t> payload =
          storage::Wal::EncodeDocid(next_docid_);
      X100IR_RETURN_IF_ERROR(
          wal_->Append(storage::WalRecordType::kDeltaSealed, payload.data(),
                       static_cast<uint32_t>(payload.size()), nullptr));
      X100IR_RETURN_IF_ERROR(wal_->Rotate(&input.wal_sealed_seq));
    }
    SealActiveLocked();
    input.segments = segments_;
    input.deltas.assign(deltas_.begin(), deltas_.end() - 1);
    input.seg_id = next_seg_id_++;
    input.cutoff = next_docid_;
    merge_running_ = true;
    merge_status_ = OkStatus();
    ++epoch_;
    PublishLocked();
  }
  merge_pool_.Submit(
      [this, in = std::move(input)]() mutable { RunMerge(std::move(in)); });
  return OkStatus();
}

Status SnapshotManager::WaitMerge() {
  std::unique_lock<std::mutex> lock(mu_);
  merge_cv_.wait(lock, [this] { return !merge_running_; });
  return merge_status_;
}

Status SnapshotManager::Merge() {
  X100IR_RETURN_IF_ERROR(StartMerge());
  return WaitMerge();
}

Status SnapshotManager::BuildMergedSegment(const MergeInput& input,
                                           std::shared_ptr<Segment>* out) {
  // Gather every live input document in global docid order. Merged local
  // docid i is the i-th document of this walk, which the commit replays.
  std::vector<std::vector<DocTerm>> docs;
  std::vector<int32_t> globals;
  ForEachLiveDoc(input.segments, input.deltas, [&](const LiveDoc& d) {
    globals.push_back(d.global);
    docs.push_back(d.doc);
  });
  if (docs.empty()) {
    // Everything is deleted: the merge commits an empty segment set.
    out->reset();
    return OkStatus();
  }
  const std::string dir = dir_.empty() ? "" : SegDir(dir_, input.seg_id);
  std::unique_ptr<Segment> seg;
  X100IR_RETURN_IF_ERROR(Segment::Build(std::move(docs), std::move(globals),
                                        corpus_->vocab_size(), dir,
                                        BindingFor(input.seg_id),
                                        input.seg_id, &seg));
  *out = std::shared_ptr<Segment>(std::move(seg));
  return OkStatus();
}

void SnapshotManager::RunMerge(MergeInput input) {
  std::shared_ptr<Segment> merged;
  Status s = BuildMergedSegment(input, &merged);
  if (s.ok() &&
      storage::CrashReached(storage::CrashSite::kMergeAfterSegmentBuild)) {
    // The segment's files are complete on disk but nothing references
    // them; the next Open sweeps the orphan directory.
    s = IOError("simulated crash");
  }
  bool committed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (s.ok()) s = CommitMergeLocked(input, merged, &committed);
    if (!s.ok() && !committed && merged != nullptr) {
      // The built-but-uncommitted segment is garbage: arm deletion and let
      // the release below (outside no snapshot ever saw it) clean up. A
      // *committed* merge that failed post-commit (MergeCommitted append,
      // WAL truncation) keeps its segment — it is live in the manifest.
      merged->set_retire_on_release();
    }
    merge_status_ = s;
  }
  // Drop every reference this merge holds BEFORE announcing completion: a
  // WaitMerge caller may be the only other holder of a replaced segment and
  // expects its release to be the last one. Retirement deletes files, so it
  // must also happen outside mu_.
  merged.reset();
  input = MergeInput();
  {
    std::lock_guard<std::mutex> lock(mu_);
    merge_running_ = false;
  }
  merge_cv_.notify_all();
}

Status SnapshotManager::CommitMergeLocked(const MergeInput& input,
                                          std::shared_ptr<Segment> merged,
                                          bool* committed) {
  *committed = false;
  // Deletes that landed during the merge targeted documents the merge
  // carried forward; they are derived from the inputs. The merge's inputs
  // are still segments_ and the sealed prefix of deltas_ (only a commit
  // replaces segments, and no seal runs while a merge does), and walking
  // the inputs' StartMerge tombstones replays the build's gather, so
  // merged local i is the i-th walked doc. Bits are only ever set, so a
  // walked doc whose structure has its bit set now was deleted since.
  std::vector<Snapshot::SegmentRead> next;
  if (merged != nullptr) {
    std::vector<const uint64_t*> now;
    for (const Snapshot::SegmentRead& sr : segments_) {
      now.push_back(sr.tombstones != nullptr ? sr.tombstones->data()
                                             : nullptr);
    }
    for (size_t i = 0; i < input.deltas.size(); ++i) {
      now.push_back(deltas_[i].tombstones != nullptr
                        ? deltas_[i].tombstones->data()
                        : nullptr);
    }
    std::vector<uint64_t> words;
    uint32_t merged_local = 0;
    ForEachLiveDoc(input.segments, input.deltas, [&](const LiveDoc& d) {
      if (TombstoneTest(now[d.part], static_cast<int32_t>(d.local))) {
        words.resize(CoverageWords(merged->num_docs()), 0);
        words[merged_local / 64] |= 1ull << (merged_local % 64);
      }
      ++merged_local;
    });
    TombstoneBits merged_tombs;
    if (!words.empty()) {
      merged_tombs = std::make_shared<std::vector<uint64_t>>(std::move(words));
    }
    next.push_back({merged, std::move(merged_tombs)});
  }

  ++epoch_;
  Status post;
  if (!dir_.empty()) {
    // With a WAL, the manifest's allocator restarts at the merge cutoff —
    // the first docid the merged segments do not hold — so replay
    // re-applies every add acknowledged while the merge ran (those sit in
    // the post-rotation log, above the cutoff). Without a WAL such adds
    // are volatile anyway, and recording next_docid_ keeps their docids
    // from ever being reused.
    bool renamed = false;
    post = WriteManifestLocked(
        next, wal_ != nullptr ? input.cutoff : next_docid_, &renamed);
    if (!renamed) {
      // The swap never happened: memory still matches the on-disk
      // manifest, and the sealed deltas stay queryable as input to the next
      // attempt. Publish anyway, so the snapshot carries the bumped epoch.
      PublishLocked();
      return post;
    }
    // The rename happened: the merge is committed on disk even if the
    // crash simulation fired right after it. Finish the in-memory commit
    // and report the failure without undoing anything.
    if (post.ok() && wal_ != nullptr) {
      // Marker + truncation. The marker is informational (replay skips
      // it); the truncation is what reclaims the pre-rotation files whose
      // every record the manifest now carries. Failures here leave stale
      // files whose replay is idempotent, so the commit stands.
      const std::vector<uint8_t> payload =
          storage::Wal::EncodeMergeCommitted(input.cutoff, epoch_);
      uint64_t lsn = 0;
      post = wal_->Append(storage::WalRecordType::kMergeCommitted,
                          payload.data(),
                          static_cast<uint32_t>(payload.size()), &lsn);
      if (post.ok()) post = wal_->Sync(lsn);
      if (post.ok()) post = wal_->DropFilesUpTo(input.wal_sealed_seq);
    }
  }
  *committed = true;
  for (const Snapshot::SegmentRead& sr : segments_) {
    sr.seg->set_retire_on_release();
  }
  segments_ = std::move(next);
  deltas_.erase(deltas_.begin(),
                deltas_.begin() + static_cast<std::ptrdiff_t>(
                                      input.deltas.size()));
  PublishLocked();
  return post;
}

}  // namespace x100ir::ir
