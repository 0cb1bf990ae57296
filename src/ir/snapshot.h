// Snapshot reads and live updates over the segmented index (DESIGN.md §10).
//
// The SnapshotManager owns the database's mutable truth, each fact held
// once: one list of immutable Segments and one list of DeltaSegments
// (sealed buffers awaiting a merge, then the active write buffer), each
// entry paired with its current tombstone bitmap, plus the live
// CollectionStats and the docid/segment-id allocators. Every mutation
// (AddDocument, DeleteDocument, merge commit) happens under one commit
// mutex and ends by publishing a brand-new immutable Snapshot; Acquire
// hands a query a shared_ptr to the current one. In-flight queries
// therefore pin a consistent segment set for their whole duration —
// shared_ptr refcounts ARE the pin counts, and a segment replaced by a
// merge is marked retire-on-release so the last pin's release (not the
// commit) deletes its files and drops its pages from the shared pool.
//
// Tombstones are copy-on-write: DeleteDocument finds the one structure
// holding the docid, copies its bitmap, sets one bit, and publishes the
// copy; snapshots hold the version they were born with, so a query never
// sees a delete that committed after it started.
//
// Merge protocol (one background merge at a time, on a 1-thread pool):
//   StartMerge  seals a non-empty active delta (opening a fresh one at the
//               next docid), adopts every segment and sealed delta with
//               its tombstones as merge input, and kicks the background
//               compaction. Queries keep running against the inputs.
//   background  compacts every live input document (global docid order)
//               into one new compressed Segment under dir/seg_<id>.
//   commit      derives the new segment's tombstones from the inputs: a
//               compacted doc whose structure's bit is set now was deleted
//               while the merge ran. Writes the manifest for the new
//               segment tmp+rename (the atomic switch; meta-written-last
//               discipline), and only then swaps the segment set, drops
//               the merged deltas, and retires the old segments.
//   failure     changes nothing: the sealed deltas stay queryable and
//               become input to the next merge attempt.
//
// Durability (DESIGN.md §13): merges persist through the manifest; the
// delta tier persists through the write-ahead log (storage/wal.h). Every
// AddDocument/DeleteDocument appends a WAL record under the commit mutex
// and is acknowledged only after a covering fsync (group-committed), so a
// reopen replays the log against the adopted manifest and reconstructs the
// exact acknowledged pre-crash state. StartMerge writes a DeltaSealed
// record and rotates the log; the merge commit appends MergeCommitted
// after the manifest rename and drops the now-redundant files. A torn or
// mismatched manifest (or any torn segment under it) falls back to a clean
// rebuild from the corpus and discards the log — WAL records are only
// meaningful against the manifest they were written with.
#ifndef X100IR_IR_SNAPSHOT_H_
#define X100IR_IR_SNAPSHOT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "ir/collection_stats.h"
#include "ir/corpus.h"
#include "ir/delta_segment.h"
#include "ir/search_engine.h"
#include "ir/segment.h"
#include "storage/buffer_manager.h"

namespace x100ir::ir {

using TombstoneBits = std::shared_ptr<const std::vector<uint64_t>>;

// One consistent, immutable view of the collection. Everything is held by
// shared_ptr: the snapshot outlives any commit that happens after it.
struct Snapshot {
  struct SegmentRead {
    std::shared_ptr<Segment> seg;
    TombstoneBits tombstones;  // local-docid bitmap; null = no deletes
  };
  struct DeltaRead {
    std::shared_ptr<DeltaSegment> delta;
    uint32_t visible = 0;      // doc-count prefix this snapshot may read
    TombstoneBits tombstones;  // delta-local bitmap; null = no deletes
  };

  uint64_t epoch = 0;
  // Segments in ascending global-docid order, then deltas in ascending
  // base order — concatenating per-structure docid-ordered results yields
  // globally docid-ordered results.
  std::vector<SegmentRead> segments;
  std::vector<DeltaRead> deltas;
  std::shared_ptr<const CollectionStats> stats;
  bool on_disk = false;  // the database has a directory (storage runs)
};

// Executes one query against a snapshot as one partitioned read
// (ir/partitioned_search.h) over its segments, then its delta buffers.
// Scores under the caller's `user_opts.global_stats` when set (a cluster
// node scores under the cluster's), else the snapshot's live stats; a
// caller's shared_theta passes through. `user_opts.tombstones` is ignored
// (set per segment). Thread-safe.
Status SearchSnapshot(const Snapshot& snap, const Query& query, RunType type,
                      const SearchOptions& user_opts, SearchResult* result);

class SnapshotManager {
 public:
  SnapshotManager() = default;
  ~SnapshotManager();
  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  // Opens the segmented index: adopts a valid manifest under `dir` (v3
  // reopen), else builds-or-reuses the base segment from the corpus
  // (legacy layout, epoch 0). `corpus` is borrowed and must outlive the
  // manager. Empty dir = fully in-memory (no manifest, no storage runs).
  Status Open(const Corpus* corpus, const std::string& dir,
              const storage::StorageOptions& storage, BuildStats* stats);

  // Current snapshot; never null after a successful Open.
  std::shared_ptr<const Snapshot> Acquire() const;

  uint64_t epoch() const;

  // Appends one document (term occurrences, any order; duplicates become
  // tf) to the write buffer. Returns its global docid — docids are
  // allocated in add order and never reused.
  Status AddDocument(const std::vector<uint32_t>& terms, int32_t* docid);

  // Tombstones one live document. NotFound when the docid was never
  // allocated or is already deleted.
  Status DeleteDocument(int32_t docid);

  // Background merge controls. StartMerge fails FailedPrecondition while a
  // merge is running; WaitMerge blocks until the running merge (if any)
  // finishes and returns its status; Merge() is the synchronous pair.
  Status StartMerge();
  Status WaitMerge();
  Status Merge();
  bool merge_running() const;

  // Shared storage (null for in-memory databases).
  storage::BufferManager* pool() const { return pool_.get(); }
  const storage::SimulatedDisk* disk() const { return disk_.get(); }

  // Write-path durability counters (zeros when the WAL is off/in-memory).
  storage::WalStats wal_stats() const;

 private:
  struct MergeInput {
    // The merge's parts with their tombstones as of StartMerge: every
    // segment, then every sealed delta (fully visible).
    std::vector<Snapshot::SegmentRead> segments;
    std::vector<Snapshot::DeltaRead> deltas;
    uint32_t seg_id = 0;
    // First docid the merge does not hold (next_docid_ at StartMerge).
    int32_t cutoff = 0;
    // WAL file sequence sealed by the StartMerge rotation; everything at or
    // below it becomes droppable once this merge's manifest commits.
    uint64_t wal_sealed_seq = 0;
  };

  // One resolved DeleteDocument target, so validation (Find) can precede
  // mutation (Apply): the owning structure's tombstone slot and where the
  // document sits in it.
  struct DeleteTarget {
    TombstoneBits* tombstones = nullptr;  // a segments_ or deltas_ slot
    uint32_t local = 0;                   // structure-local docid
    uint32_t num_docs = 0;                // structure doc count (coverage)
    const std::vector<DocTerm>* doc = nullptr;
    int32_t len = 0;
  };

  StorageBinding BindingFor(uint32_t seg_id) const;
  // Rebuilds live num_docs/total_len/df from the current segments, deltas
  // and tombstones (Open, before WAL replay).
  void RecountLiveStatsLocked();
  // Freezes the live counters into a CollectionStats (exactly the numbers
  // a fresh monolithic build over the live corpus would compute).
  std::shared_ptr<const CollectionStats> FreezeStatsLocked() const;
  // Publishes a new Snapshot of the current state at epoch_.
  void PublishLocked();
  // Seals the active delta and opens a fresh one at next_docid_. An empty
  // active delta is left as it is. Shared by StartMerge and WAL replay.
  void SealActiveLocked();
  // Serializes `segments` to MANIFEST via tmp + rename, recording
  // `next_docid` as the docid allocator's restart point. *renamed (may be
  // null) reports whether the rename — the commit point — happened, so a
  // caller can distinguish pre- from post-commit failure.
  Status WriteManifestLocked(const std::vector<Snapshot::SegmentRead>& segments,
                             int32_t next_docid, bool* renamed = nullptr);
  // Applies one normalized document to the active delta (stats + epoch, no
  // WAL, no publish) — the shared tail of AddDocument and WAL replay.
  Status ApplyAddLocked(std::vector<DocTerm> doc, int32_t len, int32_t* docid);
  // Resolves a docid to its owning structure. NotFound for never-allocated
  // or already-deleted docids.
  Status FindDeleteTargetLocked(int32_t docid, DeleteTarget* target);
  // Tombstones a resolved target (stats + epoch, no WAL, no manifest, no
  // publish).
  void ApplyDeleteLocked(const DeleteTarget& target);
  // Replays the opened WAL against the adopted state (Open only).
  Status ReplayWalLocked();
  // Adopts dir_'s manifest: loads the listed segments and tombstones.
  // NotFound when no manifest exists; any other failure means the caller
  // should fall back to a clean rebuild.
  Status TryLoadManifest(BuildStats* stats);
  // The background compaction body (runs on merge_pool_).
  void RunMerge(MergeInput input);
  Status BuildMergedSegment(const MergeInput& input,
                            std::shared_ptr<Segment>* out);
  // *committed reports whether the merge passed its commit point (manifest
  // rename) — a post-commit failure must not retire the now-live segment.
  Status CommitMergeLocked(const MergeInput& input,
                           std::shared_ptr<Segment> merged, bool* committed);

  const Corpus* corpus_ = nullptr;
  std::string dir_;
  // Declaration order is destruction order in reverse: merge_pool_ (last)
  // joins the background merge first, then snapshots/segments release and
  // detach from pool_, then pool_/disk_ die.
  std::unique_ptr<storage::SimulatedDisk> disk_;
  std::unique_ptr<storage::BufferManager> pool_;
  // Null when durability is off (in-memory database or wal.enabled=false).
  // Appends happen under mu_; Sync (the fsync wait) deliberately outside.
  std::unique_ptr<storage::Wal> wal_;

  mutable std::mutex mu_;
  uint64_t epoch_ = 0;
  uint32_t next_seg_id_ = 1;
  int32_t next_docid_ = 0;
  // The writer state: every structure and its current tombstones, each
  // held once. Segments ascend by global docid; deltas ascend by base,
  // all sealed but back(), the active write buffer, whose `visible`
  // tracks its doc count. Never empty after Open.
  std::vector<Snapshot::SegmentRead> segments_;
  std::vector<Snapshot::DeltaRead> deltas_;
  uint32_t live_num_docs_ = 0;
  uint64_t live_total_len_ = 0;
  std::vector<uint32_t> live_df_;
  std::shared_ptr<const Snapshot> current_;

  bool merge_running_ = false;
  Status merge_status_;
  std::condition_variable merge_cv_;

  ThreadPool merge_pool_{1};
};

}  // namespace x100ir::ir

#endif  // X100IR_IR_SNAPSHOT_H_
