// Crash-recovery battery for the durable delta tier (DESIGN.md §13). The
// load-bearing structure is the kill-point sweep: for every CrashSite and
// every occurrence count of that site inside an operation, simulate a power
// cut exactly there (storage/crash_point.h freezes all further disk writes,
// including destructors), reopen the database, and assert the recovered
// state is bit-identical — documents, tombstones, frozen statistics — to
// either the pre-op or the post-op oracle, never a third state; and that an
// operation the caller saw acknowledged always recovers as the post-op
// state. Around the sweep: a torn-tail fuzzer (seeded truncations and
// single-bit flips over the log; replay recovers exactly the longest valid
// record prefix), a double-recovery idempotence property test (recovering
// twice from the same crash yields bitwise-identical dumps, and no
// acknowledged write is ever lost), group-commit concurrency (this binary
// runs in the TSan CI job), and frame/payload unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/database.h"
#include "ir/collection_stats.h"
#include "ir/delta_segment.h"
#include "ir/snapshot.h"
#include "storage/crash_point.h"
#include "storage/wal.h"

namespace x100ir::ir {
namespace {

namespace fs = std::filesystem;
using storage::CrashPoint;
using storage::CrashSite;
using storage::Wal;

std::string FreshDir(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string tag =
      info != nullptr
          ? std::string(info->test_suite_name()) + "_" + info->name()
          : std::string("global");
  const std::string dir =
      std::string(::testing::TempDir()) + "/x100ir_rec_" + tag + "_" + name;
  fs::remove_all(dir);
  return dir;
}

// Small corpus: the battery opens and reopens the database hundreds of
// times, each against a fresh directory.
CorpusOptions TinyGenerated() {
  CorpusOptions opts;
  opts.num_docs = 80;
  opts.vocab_size = 200;
  opts.doclen_mu = 3.0;
  opts.doclen_sigma = 0.4;
  opts.num_topics = 3;
  opts.terms_per_topic = 3;
  opts.relevant_docs_per_topic = 5;
  opts.topic_rank_min = 2;
  opts.topic_rank_max = 40;
  opts.seed = 2007;
  return opts;
}

constexpr uint32_t kVocab = 200;  // == TinyGenerated().vocab_size

core::DatabaseOptions DiskOptions(
    const std::string& dir,
    storage::WalSyncMode mode = storage::WalSyncMode::kGroupCommit) {
  core::DatabaseOptions dopts;
  dopts.dir = dir;
  dopts.corpus = TinyGenerated();
  dopts.storage.wal.enabled = true;
  dopts.storage.wal.mode = mode;
  return dopts;
}

// Deterministic live document, a function of `salt` alone: the same op
// sequence frames byte-identical WAL records in every battery iteration,
// which is what lets one oracle pass serve every kill-point run.
std::vector<uint32_t> DetDoc(uint64_t salt) {
  Rng rng(0x9E3779B97F4A7C15ull ^ salt);
  const uint32_t len = 6 + static_cast<uint32_t>(rng.NextBounded(20));
  std::vector<uint32_t> terms(len);
  for (uint32_t i = 0; i < len; ++i) {
    terms[i] = static_cast<uint32_t>(rng.NextBounded(kVocab));
  }
  return terms;
}

// Serializes the complete logical state of the database — every live
// document (global docid, length, normalized term:tf list) plus the frozen
// collection statistics scoring depends on. Two databases with equal dumps
// are indistinguishable to any query.
std::string DumpState(const core::Database& db) {
  std::shared_ptr<const Snapshot> snap = db.Acquire();
  std::map<int32_t, std::string> docs;
  for (const Snapshot::SegmentRead& sr : snap->segments) {
    const uint64_t* bits =
        sr.tombstones != nullptr ? sr.tombstones->data() : nullptr;
    for (uint32_t local = 0; local < sr.seg->num_docs(); ++local) {
      if (TombstoneTest(bits, static_cast<int32_t>(local))) continue;
      std::ostringstream d;
      d << "len=" << sr.seg->doc_len(local);
      for (const DocTerm& dt : sr.seg->doc(local)) {
        d << " " << dt.term << ":" << dt.tf;
      }
      docs[sr.seg->GlobalOf(static_cast<int32_t>(local))] = d.str();
    }
  }
  for (const Snapshot::DeltaRead& dr : snap->deltas) {
    const uint64_t* bits =
        dr.tombstones != nullptr ? dr.tombstones->data() : nullptr;
    for (uint32_t local = 0; local < dr.visible; ++local) {
      if (TombstoneTest(bits, static_cast<int32_t>(local))) continue;
      std::ostringstream d;
      d << "len=" << dr.delta->doc_len(local);
      for (const DocTerm& dt : dr.delta->doc(local)) {
        d << " " << dt.term << ":" << dt.tf;
      }
      docs[dr.delta->base_docid() + static_cast<int32_t>(local)] = d.str();
    }
  }
  std::ostringstream os;
  char avg[64];
  std::snprintf(avg, sizeof(avg), "%.17g", snap->stats->avg_doc_len);
  os << "num_docs=" << snap->stats->num_docs << " avg=" << avg << "\n";
  os << "df=";
  for (uint32_t f : snap->stats->df) os << f << ",";
  os << "\n";
  for (const auto& [g, body] : docs) os << g << " " << body << "\n";
  return os.str();
}

std::set<int32_t> LiveDocids(const core::Database& db) {
  std::set<int32_t> out;
  std::shared_ptr<const Snapshot> snap = db.Acquire();
  for (const Snapshot::SegmentRead& sr : snap->segments) {
    const uint64_t* bits =
        sr.tombstones != nullptr ? sr.tombstones->data() : nullptr;
    for (uint32_t local = 0; local < sr.seg->num_docs(); ++local) {
      if (TombstoneTest(bits, static_cast<int32_t>(local))) continue;
      out.insert(sr.seg->GlobalOf(static_cast<int32_t>(local)));
    }
  }
  for (const Snapshot::DeltaRead& dr : snap->deltas) {
    const uint64_t* bits =
        dr.tombstones != nullptr ? dr.tombstones->data() : nullptr;
    for (uint32_t local = 0; local < dr.visible; ++local) {
      if (TombstoneTest(bits, static_cast<int32_t>(local))) continue;
      out.insert(dr.delta->base_docid() + static_cast<int32_t>(local));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The kill-point battery.
// ---------------------------------------------------------------------------

struct Scenario {
  const char* name;
  // Deterministic pre-state, applied to a freshly opened database with no
  // crash armed. Every status inside must be OK.
  std::function<void(core::Database*)> setup;
  // The one operation under test; its Status is the acknowledgment.
  std::function<Status(core::Database*)> op;
};

constexpr CrashSite kAllSites[] = {
    CrashSite::kWalAfterAppend,         CrashSite::kWalAfterFsync,
    CrashSite::kWalAfterRotate,         CrashSite::kWalBeforeDropFile,
    CrashSite::kMergeAfterSegmentBuild, CrashSite::kManifestAfterTmpWrite,
    CrashSite::kManifestAfterRename,
};

void RunKillPointBattery(const Scenario& sc) {
  uint64_t crashes_simulated = 0;
  // Oracle pass: the scenario with no crash armed, dumped before and after
  // the op. Dumps are directory-independent, so they oracle every run.
  std::string dump_pre, dump_post;
  {
    CrashPoint::Instance().Reset();
    const std::string dir = FreshDir(std::string(sc.name) + "_oracle");
    core::Database db;
    ASSERT_TRUE(db.Open(DiskOptions(dir)).ok());
    sc.setup(&db);
    dump_pre = DumpState(db);
    ASSERT_TRUE(sc.op(&db).ok());
    dump_post = DumpState(db);
  }

  for (CrashSite site : kAllSites) {
    for (uint64_t count = 1;; ++count) {
      ASSERT_LT(count, 64u) << storage::CrashSiteName(site)
                            << " never exhausts in " << sc.name;
      CrashPoint::Instance().Reset();
      const std::string dir =
          FreshDir(std::string(sc.name) + "_" + storage::CrashSiteName(site) +
                   "_" + std::to_string(count));
      Status op_status;
      {
        core::Database db;
        ASSERT_TRUE(db.Open(DiskOptions(dir)).ok());
        sc.setup(&db);
        // Armed only now: Open and setup ran crash-free by construction,
        // so `count` indexes occurrences inside the op alone.
        CrashPoint::Instance().Arm(site, count);
        op_status = sc.op(&db);
        // Background work must settle before the crashed flag is read and
        // the database torn down.
        (void)db.WaitMerge();
      }
      const bool fired = CrashPoint::Instance().IsCrashed();
      if (fired) ++crashes_simulated;
      CrashPoint::Instance().Reset();

      core::Database reopened;
      ASSERT_TRUE(reopened.Open(DiskOptions(dir)).ok())
          << sc.name << " @ " << storage::CrashSiteName(site) << "#" << count;
      const std::string dump = DumpState(reopened);
      const std::string ctx = std::string(sc.name) + " @ " +
                              storage::CrashSiteName(site) + "#" +
                              std::to_string(count) +
                              (fired ? " (crashed)" : " (clean)");
      // The two-state invariant: pre-op or post-op, never a third state.
      EXPECT_TRUE(dump == dump_pre || dump == dump_post)
          << ctx << "\nrecovered state matches neither oracle:\n"
          << dump;
      // Acknowledged writes are never lost.
      if (op_status.ok()) {
        EXPECT_EQ(dump, dump_post) << ctx << "\nacknowledged op missing";
      }
      // The recovered database is live: it accepts new writes.
      EXPECT_TRUE(reopened.AddDocument(DetDoc(9999), nullptr).ok()) << ctx;

      if (!fired) {
        // The site occurs fewer than `count` times inside this op: the run
        // was crash-free, so it must have succeeded — and the sweep of
        // this site is exhausted.
        EXPECT_TRUE(op_status.ok()) << ctx << ": " << op_status.ToString();
        break;
      }
    }
  }
  // Anti-vacuity: every scenario's op frames at least one WAL record, so at
  // minimum wal_after_append#1 and wal_after_fsync#1 must have crashed — a
  // sweep where nothing fired tested nothing.
  EXPECT_GE(crashes_simulated, 2u) << sc.name;
}

// Base-segment docids are [0, 80); delta docids start at 80.

TEST(KillPointBattery, AddDocument) {
  Scenario sc;
  sc.name = "add";
  sc.setup = [](core::Database* db) {
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(db->AddDocument(DetDoc(i), nullptr).ok());
    }
  };
  sc.op = [](core::Database* db) {
    return db->AddDocument(DetDoc(100), nullptr);
  };
  RunKillPointBattery(sc);
}

TEST(KillPointBattery, DeleteDeltaDocument) {
  Scenario sc;
  sc.name = "del_delta";
  sc.setup = [](core::Database* db) {
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(db->AddDocument(DetDoc(i), nullptr).ok());
    }
  };
  sc.op = [](core::Database* db) { return db->DeleteDocument(82); };
  RunKillPointBattery(sc);
}

TEST(KillPointBattery, DeleteSegmentDocument) {
  Scenario sc;
  sc.name = "del_seg";
  sc.setup = [](core::Database*) {};
  sc.op = [](core::Database* db) { return db->DeleteDocument(3); };
  RunKillPointBattery(sc);
}

TEST(KillPointBattery, Merge) {
  // A merge changes no logical content (dump_pre == dump_post), so here the
  // two-state invariant sharpens to "always the oracle state": no crash
  // point inside seal, compact, manifest commit, or WAL truncation may lose
  // a document, resurrect a tombstoned one, or corrupt the stats.
  Scenario sc;
  sc.name = "merge";
  sc.setup = [](core::Database* db) {
    for (uint64_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(db->AddDocument(DetDoc(i), nullptr).ok());
    }
    ASSERT_TRUE(db->DeleteDocument(2).ok());   // base-segment doc
    ASSERT_TRUE(db->DeleteDocument(83).ok());  // delta doc
  };
  sc.op = [](core::Database* db) { return db->Merge(); };
  RunKillPointBattery(sc);
}

TEST(KillPointBattery, SecondMergeAndPostMergeWrites) {
  // The rotated-log regime: a committed first merge (manifest present, WAL
  // truncated) followed by live writes and a second merge — DropFilesUpTo
  // now has genuinely obsolete files to unlink, and replay runs against an
  // adopted manifest instead of a clean rebuild.
  Scenario sc;
  sc.name = "merge2";
  sc.setup = [](core::Database* db) {
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(db->AddDocument(DetDoc(i), nullptr).ok());
    }
    ASSERT_TRUE(db->Merge().ok());
    for (uint64_t i = 10; i < 13; ++i) {
      ASSERT_TRUE(db->AddDocument(DetDoc(i), nullptr).ok());
    }
    ASSERT_TRUE(db->DeleteDocument(84).ok());
  };
  sc.op = [](core::Database* db) { return db->Merge(); };
  RunKillPointBattery(sc);
}

TEST(KillPointBattery, PostMergeAdd) {
  Scenario sc;
  sc.name = "post_merge_add";
  sc.setup = [](core::Database* db) {
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(db->AddDocument(DetDoc(i), nullptr).ok());
    }
    ASSERT_TRUE(db->Merge().ok());
    ASSERT_TRUE(db->AddDocument(DetDoc(20), nullptr).ok());
  };
  sc.op = [](core::Database* db) {
    return db->AddDocument(DetDoc(21), nullptr);
  };
  RunKillPointBattery(sc);
}

TEST(KillPointBattery, AddDuringBackgroundMerge) {
  // An add acknowledged while the merge runs lands above the merge cutoff
  // (the delta StartMerge opened), in the post-rotation log. The merge's
  // manifest must not claim that docid as already applied, or replay skips
  // the add and the reopen loses an acknowledged write. The add is applied
  // right after StartMerge returns, long before the background thread has
  // written the merged segment's column files.
  Scenario sc;
  sc.name = "add_during_merge";
  sc.setup = [](core::Database* db) {
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(db->AddDocument(DetDoc(i), nullptr).ok());
    }
  };
  sc.op = [](core::Database* db) {
    X100IR_RETURN_IF_ERROR(db->StartMerge());
    const Status added = db->AddDocument(DetDoc(30), nullptr);
    const Status merged = db->WaitMerge();
    return added.ok() ? merged : added;
  };
  RunKillPointBattery(sc);
}

// ---------------------------------------------------------------------------
// Torn-tail fuzzer: truncations and bit flips over the log.
// ---------------------------------------------------------------------------

struct WalLayout {
  uint64_t header_end = 0;            // first byte after the file header
  std::vector<uint64_t> record_ends;  // byte offset just past record i
};

WalLayout ParseWalFile(const std::string& path) {
  WalLayout layout;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return layout;
  storage::WalFileHeader fh;
  EXPECT_EQ(std::fread(&fh, sizeof(fh), 1, f), 1u);
  EXPECT_EQ(fh.magic, storage::WalFileHeader::kMagic);
  layout.header_end = sizeof(fh);
  uint64_t off = sizeof(fh);
  storage::WalRecordHeader rh;
  while (std::fread(&rh, sizeof(rh), 1, f) == 1) {
    off += sizeof(rh) + rh.len;
    std::fseek(f, static_cast<long>(off), SEEK_SET);
    layout.record_ends.push_back(off);
  }
  std::fclose(f);
  return layout;
}

TEST(TornTailFuzzer, TruncationsAndBitFlipsRecoverLongestValidPrefix) {
  const std::string base = FreshDir("pristine");

  // One deterministic op per WAL record, dumping the oracle after each:
  // dumps[k] is exactly what a replay of the first k records must yield.
  std::vector<std::string> dumps;
  std::vector<int32_t> added;
  {
    CrashPoint::Instance().Reset();
    core::Database db;
    ASSERT_TRUE(db.Open(DiskOptions(base)).ok());
    dumps.push_back(DumpState(db));
    for (uint64_t i = 0; i < 10; ++i) {
      int32_t id = -1;
      ASSERT_TRUE(db.AddDocument(DetDoc(i), &id).ok());
      added.push_back(id);
      dumps.push_back(DumpState(db));
      if (i == 4 || i == 7) {
        ASSERT_TRUE(db.DeleteDocument(added[i / 2]).ok());
        dumps.push_back(DumpState(db));
      }
    }
  }
  const std::string wal_name = "wal_000000.log";
  const WalLayout layout = ParseWalFile(base + "/" + wal_name);
  ASSERT_EQ(layout.record_ends.size(), dumps.size() - 1);
  const uint64_t file_size = layout.record_ends.back();

  Rng rng(0xF022EDull);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string dir = FreshDir("trial" + std::to_string(trial));
    fs::copy(base, dir, fs::copy_options::recursive);
    const std::string wal_path = dir + "/" + wal_name;

    const bool flip = rng.NextBounded(2) == 1;
    uint64_t off;
    if (flip) {
      // Flip one bit anywhere — file header, frame header, or payload.
      off = rng.NextBounded(file_size);
      const int bit = static_cast<int>(rng.NextBounded(8));
      std::FILE* f = std::fopen(wal_path.c_str(), "rb+");
      ASSERT_NE(f, nullptr);
      std::fseek(f, static_cast<long>(off), SEEK_SET);
      const int c = std::fgetc(f);
      ASSERT_NE(c, EOF);
      std::fseek(f, static_cast<long>(off), SEEK_SET);
      std::fputc(c ^ (1 << bit), f);
      std::fclose(f);
    } else {
      // Truncate anywhere: mid-file-header, mid-record, or on a boundary.
      off = rng.NextBounded(file_size + 1);
      fs::resize_file(wal_path, off);
    }
    // The survivor count: a damaged file header discards the whole log
    // (its identity can't be trusted); otherwise every record that ends
    // at or before the damage survives — CRC32 catches every single-bit
    // flip, and a truncated frame is a short read.
    size_t expect_records = 0;
    if (off >= layout.header_end) {
      while (expect_records < layout.record_ends.size() &&
             layout.record_ends[expect_records] <= off) {
        ++expect_records;
      }
    }

    core::Database db;
    // Never an outcome worse than losing the torn tail: Open succeeds.
    ASSERT_TRUE(db.Open(DiskOptions(dir)).ok()) << "trial " << trial;
    EXPECT_EQ(DumpState(db), dumps[expect_records])
        << "trial " << trial << (flip ? " flip@" : " truncate@") << off
        << ": expected the longest valid prefix of " << expect_records
        << " records";
    // The recovered log keeps accepting and persisting writes.
    ASSERT_TRUE(db.AddDocument(DetDoc(777), nullptr).ok());
  }
}

// ---------------------------------------------------------------------------
// Double-recovery idempotence + acknowledged-writes property test.
// ---------------------------------------------------------------------------

TEST(RecoveryProperty, DoubleRecoveryIsIdempotentAndKeepsAckedWrites) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const std::string dir = FreshDir("seed" + std::to_string(seed));
    Rng rng(seed * 0x9E3779B9ull);
    const CrashSite site = kAllSites[rng.NextBounded(
        sizeof(kAllSites) / sizeof(kAllSites[0]))];
    const uint64_t count = 1 + rng.NextBounded(4);

    std::set<int32_t> acked_adds;
    std::set<int32_t> acked_deletes;
    {
      CrashPoint::Instance().Reset();
      core::Database db;
      ASSERT_TRUE(db.Open(DiskOptions(dir)).ok());
      CrashPoint::Instance().Arm(site, count);
      for (int i = 0; i < 30; ++i) {
        const uint64_t dice = rng.NextBounded(10);
        if (dice < 6) {
          int32_t id = -1;
          if (db.AddDocument(DetDoc(seed * 1000 + i), &id).ok()) {
            acked_adds.insert(id);
          }
        } else if (dice < 8 && !acked_adds.empty()) {
          const int32_t victim = *acked_adds.begin();
          if (db.DeleteDocument(victim).ok()) {
            acked_adds.erase(victim);
            acked_deletes.insert(victim);
          }
        } else if (dice == 8) {
          if (db.DeleteDocument(i % 80).ok()) {
            acked_deletes.insert(i % 80);
          }
        } else {
          (void)db.Merge();
        }
      }
      (void)db.WaitMerge();
    }
    CrashPoint::Instance().Reset();

    std::string dump1;
    {
      core::Database db;
      ASSERT_TRUE(db.Open(DiskOptions(dir)).ok()) << "seed " << seed;
      dump1 = DumpState(db);
      const std::set<int32_t> live = LiveDocids(db);
      for (int32_t id : acked_adds) {
        EXPECT_TRUE(live.count(id) != 0)
            << "seed " << seed << ": acked add " << id << " lost";
      }
      for (int32_t id : acked_deletes) {
        EXPECT_TRUE(live.count(id) == 0)
            << "seed " << seed << ": acked delete " << id << " resurrected";
      }
    }
    // The first recovery truncated any torn tail and re-established the
    // log. Recovering again — a crash *during* recovery, at the worst
    // moment: right after that truncation — must be a fixed point.
    core::Database db2;
    ASSERT_TRUE(db2.Open(DiskOptions(dir)).ok()) << "seed " << seed;
    EXPECT_EQ(DumpState(db2), dump1)
        << "seed " << seed << ": double recovery diverged";
  }
}

// ---------------------------------------------------------------------------
// Group commit under concurrency (TSan coverage) + ack durability.
// ---------------------------------------------------------------------------

TEST(GroupCommit, ConcurrentAcknowledgedWritesAllSurviveReopen) {
  const std::string dir = FreshDir("writers");
  constexpr int kThreads = 8;
  constexpr int kDocsPerThread = 25;

  std::vector<std::vector<int32_t>> acked(kThreads);
  {
    CrashPoint::Instance().Reset();
    core::Database db;
    ASSERT_TRUE(db.Open(DiskOptions(dir)).ok());
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&db, &acked, t] {
        for (int i = 0; i < kDocsPerThread; ++i) {
          int32_t id = -1;
          const Status s = db.AddDocument(
              DetDoc(static_cast<uint64_t>(t) * 100 + i), &id);
          ASSERT_TRUE(s.ok()) << s.ToString();
          acked[t].push_back(id);
        }
      });
    }
    for (std::thread& w : writers) w.join();

    const storage::WalStats ws = db.wal_stats();
    EXPECT_GE(ws.appends, static_cast<uint64_t>(kThreads * kDocsPerThread));
    EXPECT_GE(ws.fsyncs, 1u);
    EXPECT_GE(ws.batch_records_max, 1u);
    // The accounting invariant: every framed record is covered by exactly
    // one group-commit batch. (That batches exceed one record is the
    // throughput win — the ingest bench gates on it; a functional test on
    // an unloaded box can't.)
    EXPECT_EQ(ws.batch_records_sum, ws.appends);
  }

  // Every acknowledged docid is distinct and survives the reopen.
  std::set<int32_t> all;
  for (const auto& per_thread : acked) {
    for (int32_t id : per_thread) {
      EXPECT_TRUE(all.insert(id).second) << "docid " << id << " reused";
    }
  }
  ASSERT_EQ(all.size(), static_cast<size_t>(kThreads * kDocsPerThread));

  core::Database reopened;
  ASSERT_TRUE(reopened.Open(DiskOptions(dir)).ok());
  const std::set<int32_t> live = LiveDocids(reopened);
  for (int32_t id : all) {
    EXPECT_TRUE(live.count(id) != 0) << "acked docid " << id << " lost";
  }
  EXPECT_EQ(live.size(), 80u + all.size());
}

TEST(GroupCommit, FsyncPerWriteModeAlsoRecovers) {
  const std::string dir = FreshDir("fsync_each");
  CrashPoint::Instance().Reset();
  std::string dump;
  {
    core::Database db;
    ASSERT_TRUE(
        db.Open(DiskOptions(dir, storage::WalSyncMode::kFsyncPerWrite)).ok());
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(db.AddDocument(DetDoc(i), nullptr).ok());
    }
    ASSERT_TRUE(db.DeleteDocument(81).ok());
    const storage::WalStats ws = db.wal_stats();
    EXPECT_EQ(ws.appends, 6u);
    EXPECT_GE(ws.fsyncs, 6u);  // one per acknowledged write
    dump = DumpState(db);
  }
  core::Database reopened;
  ASSERT_TRUE(
      reopened.Open(DiskOptions(dir, storage::WalSyncMode::kFsyncPerWrite))
          .ok());
  EXPECT_EQ(DumpState(reopened), dump);
}

TEST(WalDisabled, RestoresVolatileDeltaSemantics) {
  const std::string dir = FreshDir("off");
  CrashPoint::Instance().Reset();
  std::string dump_before_adds;
  {
    core::Database db;
    core::DatabaseOptions dopts = DiskOptions(dir);
    dopts.storage.wal.enabled = false;
    ASSERT_TRUE(db.Open(dopts).ok());
    dump_before_adds = DumpState(db);
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(db.AddDocument(DetDoc(i), nullptr).ok());
    }
    EXPECT_EQ(db.wal_stats().appends, 0u);
  }
  core::Database reopened;
  core::DatabaseOptions dopts = DiskOptions(dir);
  dopts.storage.wal.enabled = false;
  ASSERT_TRUE(reopened.Open(dopts).ok());
  // The pre-§13 contract, kept for benches isolating WAL cost: delta
  // documents are volatile and a reopen sheds them.
  EXPECT_EQ(DumpState(reopened), dump_before_adds);
}

// ---------------------------------------------------------------------------
// Units: frame CRC, payload codecs, seal idempotence, torn-manifest fallback.
// ---------------------------------------------------------------------------

TEST(WalUnits, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32/ISO-HDLC check input.
  EXPECT_EQ(storage::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(storage::Crc32("", 0), 0u);
}

TEST(WalUnits, PayloadCodecsRoundTripAndRejectGarbage) {
  const std::vector<std::pair<uint32_t, int32_t>> terms = {
      {3, 1}, {7, 4}, {190, 2}};
  const std::vector<uint8_t> add = Wal::EncodeAdd(42, terms);
  storage::WalRecordView rec{storage::WalRecordType::kAddDocument, add.data(),
                             static_cast<uint32_t>(add.size())};
  Wal::AddPayload decoded;
  ASSERT_TRUE(Wal::DecodeAdd(rec, &decoded));
  EXPECT_EQ(decoded.docid, 42);
  EXPECT_EQ(decoded.terms, terms);
  rec.len -= 1;  // a truncated payload must not decode
  EXPECT_FALSE(Wal::DecodeAdd(rec, &decoded));

  const std::vector<uint8_t> del = Wal::EncodeDocid(7);
  storage::WalRecordView drec{storage::WalRecordType::kDeleteDocument,
                              del.data(), static_cast<uint32_t>(del.size())};
  int32_t docid = -1;
  ASSERT_TRUE(Wal::DecodeDocid(drec, &docid));
  EXPECT_EQ(docid, 7);

  const std::vector<uint8_t> mc = Wal::EncodeMergeCommitted(99, 12345);
  storage::WalRecordView mrec{storage::WalRecordType::kMergeCommitted,
                              mc.data(), static_cast<uint32_t>(mc.size())};
  int32_t cutoff = -1;
  uint64_t epoch = 0;
  ASSERT_TRUE(Wal::DecodeMergeCommitted(mrec, &cutoff, &epoch));
  EXPECT_EQ(cutoff, 99);
  EXPECT_EQ(epoch, 12345u);
}

TEST(WalUnits, SealIsIdempotent) {
  DeltaSegment delta(16, 100);
  int32_t id = -1;
  ASSERT_TRUE(delta.Add({{1, 2}, {5, 1}}, &id).ok());
  EXPECT_EQ(id, 100);
  delta.Seal();
  EXPECT_TRUE(delta.sealed());
  delta.Seal();  // re-sealing (WAL replay does this) changes nothing
  EXPECT_TRUE(delta.sealed());
  EXPECT_EQ(delta.num_docs(), 1u);
  EXPECT_EQ(delta.Add({{2, 1}}, &id).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(delta.doc_len(0), 3);
}

TEST(WalUnits, TornManifestWipesTheLogAndFallsBackClean) {
  const std::string dir = FreshDir("torn_manifest");
  CrashPoint::Instance().Reset();
  {
    core::Database db;
    ASSERT_TRUE(db.Open(DiskOptions(dir)).ok());
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(db.AddDocument(DetDoc(i), nullptr).ok());
    }
    ASSERT_TRUE(db.Merge().ok());
    ASSERT_TRUE(db.AddDocument(DetDoc(50), nullptr).ok());
  }
  // Tear the manifest. The WAL's records were framed against state the
  // clean rebuild cannot restore, so recovery must discard them with it —
  // replaying them against the rebuilt epoch-0 corpus would be corruption.
  fs::resize_file(dir + "/MANIFEST", 7);

  core::Database db;
  ASSERT_TRUE(db.Open(DiskOptions(dir)).ok());
  std::shared_ptr<const Snapshot> snap = db.Acquire();
  EXPECT_EQ(snap->stats->num_docs, 80u);  // the corpus alone
  EXPECT_EQ(db.epoch(), 0u);
  EXPECT_EQ(db.wal_stats().replayed_records, 0u);
}

}  // namespace
}  // namespace x100ir::ir
