#include "core/recovery.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cell/cluster.h"
#include "cell/cluster_transaction.h"
#include "core/database.h"
#include "core/transaction.h"
#include "invariants.h"
#include "wal/wal.h"

namespace orion {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// The newest (highest-index) changelog segment under `dir` — the active
/// tail at "crash" time.
std::string TailSegment(const std::string& dir) {
  std::string best;
  unsigned best_index = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    unsigned index = 0;
    if (std::sscanf(name.c_str(), "seg-%08u.log", &index) == 1 &&
        (best.empty() || index >= best_index)) {
      best_index = index;
      best = entry.path().string();
    }
  }
  return best;
}

std::string TitleOf(Database& db, Uid uid) {
  const Object* obj = db.objects().Peek(uid);
  return obj == nullptr ? std::string("<gone>") : obj->Get("Title").ToString();
}

/// A standalone durable database: schema (checkpointed), one object per
/// committed transaction, Title = "doc<i>".
ClassId SetupDocSchema(Database& db) {
  return *db.MakeClass(
      ClassSpec{.name = "Doc", .attributes = {WeakAttr("Title", "string")}});
}

TEST(RecoveryTest, SingleCellRoundTrip) {
  const std::string dir = FreshDir("orion_rec_single");
  Uid doc;
  uint64_t pre_crash_watermark = 0;
  {
    wal::WalManager wal;
    ASSERT_TRUE(wal.Open(dir).ok());
    Database db;
    ASSERT_TRUE(RecoverDatabase(db, wal).ok());
    EXPECT_TRUE(db.durable());
    SetupDocSchema(db);
    doc = *db.Make("Doc", {}, {{"Title", Value::String("hello")}});
    {
      TransactionContext txn(&db);
      ASSERT_TRUE(
          txn.SetAttribute(doc, "Title", Value::String("world")).ok());
      ASSERT_TRUE(txn.Commit().ok());
    }
    pre_crash_watermark = db.records().watermark();
    // "Crash": no checkpoint, no graceful anything — just teardown.
  }
  wal::WalManager wal;
  ASSERT_TRUE(wal.Open(dir).ok());
  Database db;
  RecoveryStats stats;
  ASSERT_TRUE(RecoverDatabase(db, wal, &stats).ok());
  EXPECT_EQ(TitleOf(db, doc), "\"world\"");
  // The schema snapshot cut precedes both commits, so both replayed.
  EXPECT_EQ(stats.replayed_commits, 2u);
  EXPECT_GE(db.records().watermark(), pre_crash_watermark);
  ORION_EXPECT_CONSISTENT(db);
  // Post-recovery commits work and make it into the (new) changelog.
  {
    TransactionContext txn(&db);
    ASSERT_TRUE(txn.SetAttribute(doc, "Title", Value::String("again")).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_EQ(TitleOf(db, doc), "\"again\"");
}

TEST(RecoveryTest, RecoveryIsIdempotentAcrossRepeatedCrashes) {
  const std::string dir = FreshDir("orion_rec_idem");
  Uid doc;
  {
    wal::WalManager wal;
    ASSERT_TRUE(wal.Open(dir).ok());
    Database db;
    ASSERT_TRUE(RecoverDatabase(db, wal).ok());
    SetupDocSchema(db);
    doc = *db.Make("Doc", {}, {{"Title", Value::String("v1")}});
  }
  // Recover, crash, recover, crash... state must be identical every time.
  for (int round = 0; round < 3; ++round) {
    wal::WalManager wal;
    ASSERT_TRUE(wal.Open(dir).ok());
    Database db;
    ASSERT_TRUE(RecoverDatabase(db, wal, nullptr).ok());
    ASSERT_EQ(TitleOf(db, doc), "\"v1\"") << "round " << round;
    ORION_EXPECT_CONSISTENT(db);
  }
}

/// Commits `n` one-object transactions and returns their uids in commit
/// order.
std::vector<Uid> CommitDocs(Database& db, int n) {
  std::vector<Uid> uids;
  for (int i = 0; i < n; ++i) {
    uids.push_back(*db.Make(
        "Doc", {}, {{"Title", Value::String("doc" + std::to_string(i))}}));
  }
  return uids;
}

TEST(RecoveryTest, TornTailKeepsExactlyTheCommittedPrefix) {
  const std::string dir = FreshDir("orion_rec_torn");
  std::vector<Uid> uids;
  {
    wal::WalManager wal;
    ASSERT_TRUE(wal.Open(dir).ok());
    Database db;
    ASSERT_TRUE(RecoverDatabase(db, wal).ok());
    SetupDocSchema(db);
    uids = CommitDocs(db, 10);
  }
  // Tear the last frame: drop a few bytes off the active segment, as a
  // crash mid-write would.
  const std::string tail = TailSegment(dir);
  ASSERT_FALSE(tail.empty());
  const auto size = std::filesystem::file_size(tail);
  ASSERT_GT(size, 4u);
  std::filesystem::resize_file(tail, size - 3);

  wal::WalManager wal;
  ASSERT_TRUE(wal.Open(dir).ok());
  Database db;
  RecoveryStats stats;
  ASSERT_TRUE(RecoverDatabase(db, wal, &stats).ok());
  EXPECT_TRUE(stats.truncated_tail);
  // Exactly the first 9 commits survive; the torn 10th is gone.
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(TitleOf(db, uids[i]), "\"doc" + std::to_string(i) + "\"");
  }
  EXPECT_EQ(db.objects().Peek(uids[9]), nullptr);
  ORION_EXPECT_CONSISTENT(db);
}

TEST(RecoveryTest, CorruptCrcDropsTheFrameAndEverythingAfter) {
  const std::string dir = FreshDir("orion_rec_crc");
  std::vector<Uid> uids;
  {
    wal::WalManager wal;
    ASSERT_TRUE(wal.Open(dir).ok());
    Database db;
    ASSERT_TRUE(RecoverDatabase(db, wal).ok());
    SetupDocSchema(db);
    uids = CommitDocs(db, 10);
  }
  // Flip the final payload byte: the length is intact but the CRC no
  // longer matches — a media/torn-sector corruption, not a short write.
  const std::string tail = TailSegment(dir);
  ASSERT_FALSE(tail.empty());
  {
    std::FILE* f = std::fopen(tail.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_END), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  wal::WalManager wal;
  ASSERT_TRUE(wal.Open(dir).ok());
  Database db;
  RecoveryStats stats;
  ASSERT_TRUE(RecoverDatabase(db, wal, &stats).ok());
  EXPECT_TRUE(stats.truncated_tail);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(TitleOf(db, uids[i]), "\"doc" + std::to_string(i) + "\"");
  }
  EXPECT_EQ(db.objects().Peek(uids[9]), nullptr);
}

TEST(RecoveryTest, GroupCommitHardensEveryAcknowledgedCommit) {
  const std::string dir = FreshDir("orion_rec_group");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5;
  std::vector<Uid> uids;
  uint64_t fsyncs = 0;
  uint64_t appends = 0;
  {
    wal::WalManager wal;
    wal::WalOptions opts;
    opts.group_window = std::chrono::microseconds(3000);
    opts.group_max = 64;
    ASSERT_TRUE(wal.Open(dir, opts).ok());
    Database db;
    ASSERT_TRUE(RecoverDatabase(db, wal).ok());
    SetupDocSchema(db);
    std::vector<std::vector<Uid>> per_thread(kThreads);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&db, &per_thread, t] {
        for (int i = 0; i < kPerThread; ++i) {
          auto made = db.Make(
              "Doc", {},
              {{"Title", Value::String(std::string("t")
                                           .append(std::to_string(t))
                                           .append(".")
                                           .append(std::to_string(i)))}});
          ASSERT_TRUE(made.ok());
          per_thread[t].push_back(*made);
        }
      });
    }
    for (std::thread& w : workers) {
      w.join();
    }
    for (const auto& batch : per_thread) {
      uids.insert(uids.end(), batch.begin(), batch.end());
    }
    auto stats = db.Stats();
    fsyncs = stats.counters["wal.fsyncs"];
    appends = stats.counters["wal.appends"];
  }
  // Group commit actually grouped: with a 3ms window and 8 concurrent
  // committers, strictly fewer fsyncs than records.
  EXPECT_EQ(appends, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_LT(fsyncs, appends);
  // And grouping lost nothing: every acknowledged commit survives a crash.
  wal::WalManager wal;
  ASSERT_TRUE(wal.Open(dir).ok());
  Database db;
  ASSERT_TRUE(RecoverDatabase(db, wal).ok());
  for (Uid uid : uids) {
    EXPECT_NE(db.objects().Peek(uid), nullptr);
  }
  ORION_EXPECT_CONSISTENT(db);
}

TEST(RecoveryTest, DdlSweepComesFromTheCheckpointNotTheLog) {
  const std::string dir = FreshDir("orion_rec_ddl");
  Uid keeper;
  {
    wal::WalManager wal;
    ASSERT_TRUE(wal.Open(dir).ok());
    Database db;
    ASSERT_TRUE(RecoverDatabase(db, wal).ok());
    ClassId doc = SetupDocSchema(db);
    ASSERT_TRUE(db.AddAttribute(doc, WeakAttr("Tmp", "string")).ok());
    keeper = *db.Make("Doc", {},
                      {{"Title", Value::String("keep")},
                       {"Tmp", Value::String("drop-me")}});
    // Destructive DDL: the sweep rewrites `keeper` (Tmp erased), publishes
    // under a ddlsweep tag, and checkpoints inside the fence.
    ASSERT_TRUE(db.DropAttribute(doc, "Tmp").ok());
    // Post-DDL DML rides the changelog on top of that checkpoint.
    TransactionContext txn(&db);
    ASSERT_TRUE(
        txn.SetAttribute(keeper, "Title", Value::String("post-ddl")).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  wal::WalManager wal;
  ASSERT_TRUE(wal.Open(dir).ok());
  Database db;
  RecoveryStats stats;
  ASSERT_TRUE(RecoverDatabase(db, wal, &stats).ok());
  const Object* obj = db.objects().Peek(keeper);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->Get("Title").ToString(), "\"post-ddl\"");
  // The dropped attribute stayed dropped (sweep recovered via snapshot).
  EXPECT_EQ(obj->values().count("Tmp"), 0u);
  EXPECT_EQ(stats.replayed_commits, 1u);  // only the post-DDL commit
  ORION_EXPECT_CONSISTENT(db);
}

// --- Cross-cell 2PC recovery -----------------------------------------------

/// Two objects in two different cells, Titles "a" and "b", committed via a
/// cross-cell 2PC.  Returns (a, b).
std::pair<Uid, Uid> SetupTwoCellDocs(Cluster& cluster) {
  ClassSpec spec{.name = "Doc", .attributes = {WeakAttr("Title", "string")}};
  EXPECT_TRUE(cluster.MakeClass(spec).ok());
  ClusterTransaction txn(&cluster);
  Uid a = *txn.Make("Doc", {}, {{"Title", Value::String("a")}});
  Uid b = *txn.Make("Doc", {}, {{"Title", Value::String("b")}});
  EXPECT_NE(CellTagOf(a), CellTagOf(b));
  EXPECT_TRUE(txn.Commit().ok());
  return {a, b};
}

TEST(RecoveryTest, PreparedButUndecidedIsPresumedAborted) {
  const std::string dir = FreshDir("orion_rec_2pc_undecided");
  Uid a, b;
  {
    Cluster cluster(2);
    ASSERT_TRUE(cluster.EnableDurability(dir).ok());
    std::tie(a, b) = SetupTwoCellDocs(cluster);
    ClusterTransaction txn(&cluster);
    ASSERT_TRUE(txn.SetAttribute(a, "Title", Value::String("a2")).ok());
    ASSERT_TRUE(txn.SetAttribute(b, "Title", Value::String("b2")).ok());
    // Crash between phase 1 and the decision record: both cells hold a
    // durable prepare, nobody holds a decision.
    txn.set_crash_point(ClusterTransaction::CrashPoint::kAfterPrepare);
    EXPECT_FALSE(txn.Commit().ok());
  }
  Cluster cluster(2);
  ASSERT_TRUE(cluster.EnableDurability(dir).ok());
  // No decision record -> presumed abort: the prepared update vanishes.
  EXPECT_EQ(TitleOf(*cluster.CellOf(a), a), "\"a\"");
  EXPECT_EQ(TitleOf(*cluster.CellOf(b), b), "\"b\"");
  ORION_EXPECT_CONSISTENT(*cluster.CellOf(a));
  ORION_EXPECT_CONSISTENT(*cluster.CellOf(b));
}

TEST(RecoveryTest, PreparedWithDecisionCommitsOnRecovery) {
  const std::string dir = FreshDir("orion_rec_2pc_decided");
  Uid a, b;
  {
    Cluster cluster(2);
    ASSERT_TRUE(cluster.EnableDurability(dir).ok());
    std::tie(a, b) = SetupTwoCellDocs(cluster);
    ClusterTransaction txn(&cluster);
    ASSERT_TRUE(txn.SetAttribute(a, "Title", Value::String("a2")).ok());
    ASSERT_TRUE(txn.SetAttribute(b, "Title", Value::String("b2")).ok());
    // Crash after the decision record: the transaction IS committed even
    // though no cell ever ran phase 2.
    txn.set_crash_point(ClusterTransaction::CrashPoint::kAfterDecision);
    EXPECT_FALSE(txn.Commit().ok());
  }
  Cluster cluster(2);
  ASSERT_TRUE(cluster.EnableDurability(dir).ok());
  // Decision log says commit -> both cells apply their prepare payloads.
  EXPECT_EQ(TitleOf(*cluster.CellOf(a), a), "\"a2\"");
  EXPECT_EQ(TitleOf(*cluster.CellOf(b), b), "\"b2\"");
  ORION_EXPECT_CONSISTENT(*cluster.CellOf(a));
  ORION_EXPECT_CONSISTENT(*cluster.CellOf(b));
}

TEST(RecoveryTest, KillAndRestartRoundTripMatchesCommittedState) {
  const std::string dir = FreshDir("orion_rec_roundtrip");
  ClassId doc_cls = kInvalidClass;
  std::map<uint64_t, std::string> expected_titles;  // uid.raw -> title
  std::vector<Uid> expected_versions;
  Uid design_generic;
  {
    Cluster cluster(3);
    ASSERT_TRUE(cluster.EnableDurability(dir).ok());
    // Schema DDL: two classes, plus an additive change after the fact.
    doc_cls = *cluster.MakeClass(ClassSpec{
        .name = "Doc", .attributes = {WeakAttr("Title", "string")}});
    ASSERT_TRUE(cluster
                    .MakeClass(ClassSpec{
                        .name = "Design",
                        .attributes = {WeakAttr("Label", "string")},
                        .versionable = true})
                    .ok());
    ASSERT_TRUE(
        cluster.AddAttribute(doc_cls, WeakAttr("Pages", "integer")).ok());
    // Objects spread across all three cells.
    for (int i = 0; i < 9; ++i) {
      ClusterTransaction txn(&cluster);
      Uid u = *txn.Make("Doc", {},
                        {{"Title", Value::String("doc" + std::to_string(i))},
                         {"Pages", Value::Integer(i)}});
      ASSERT_TRUE(txn.Commit().ok());
      expected_titles[u.raw] = "\"doc" + std::to_string(i) + "\"";
    }
    // Versions: a generic with three version instances (cell-local).
    Uid v0;
    {
      ClusterTransaction txn(&cluster);
      v0 = *txn.Make("Design", {}, {{"Label", Value::String("rev0")}});
      ASSERT_TRUE(txn.Commit().ok());
    }
    Database& owner = *cluster.CellOf(v0);
    design_generic = owner.objects().Peek(v0)->generic();
    {
      TransactionContext txn(&owner);
      Uid v1 = *txn.Derive(v0);
      ASSERT_TRUE(txn.Commit().ok());
      TransactionContext txn2(&owner);
      ASSERT_TRUE(txn2.Derive(v1).ok());
      ASSERT_TRUE(txn2.Commit().ok());
    }
    expected_versions = *owner.versions().VersionsOf(design_generic);
    ASSERT_EQ(expected_versions.size(), 3u);
    // A committed cross-cell update.
    auto it = expected_titles.begin();
    const Uid first = UidFromRaw(it->first);
    const Uid last = UidFromRaw(expected_titles.rbegin()->first);
    if (CellTagOf(first) != CellTagOf(last)) {
      ClusterTransaction txn(&cluster);
      ASSERT_TRUE(
          txn.SetAttribute(first, "Title", Value::String("xcell")).ok());
      ASSERT_TRUE(
          txn.SetAttribute(last, "Title", Value::String("xcell")).ok());
      ASSERT_TRUE(txn.Commit().ok());
      expected_titles[first.raw] = "\"xcell\"";
      expected_titles[last.raw] = "\"xcell\"";
    }
    // One in-flight cross-cell 2PC, torn down after the commit decision:
    // it counts as committed state the restart must reproduce.
    {
      Uid x = UidFromRaw(expected_titles.begin()->first);
      Uid y = UidFromRaw(std::next(expected_titles.begin(), 1)->first);
      for (auto& [raw, title] : expected_titles) {
        if (CellTagOf(UidFromRaw(raw)) != CellTagOf(x)) {
          y = UidFromRaw(raw);
          break;
        }
      }
      ClusterTransaction txn(&cluster);
      ASSERT_TRUE(
          txn.SetAttribute(x, "Title", Value::String("inflight")).ok());
      ASSERT_TRUE(
          txn.SetAttribute(y, "Title", Value::String("inflight")).ok());
      txn.set_crash_point(ClusterTransaction::CrashPoint::kAfterDecision);
      EXPECT_FALSE(txn.Commit().ok());
      expected_titles[x.raw] = "\"inflight\"";
      expected_titles[y.raw] = "\"inflight\"";
    }
    // Kill: no checkpoint, no graceful shutdown.
  }
  Cluster cluster(3);
  ASSERT_TRUE(cluster.EnableDurability(dir).ok());
  // The extent joined across all cells matches the pre-crash committed set.
  std::vector<Uid> instances = cluster.InstancesOf(doc_cls);
  ASSERT_EQ(instances.size(), expected_titles.size());
  for (Uid u : instances) {
    Database* owner = cluster.CellOf(u);
    ASSERT_NE(owner, nullptr);
    ASSERT_EQ(expected_titles.count(u.raw), 1u) << u.ToString();
    EXPECT_EQ(TitleOf(*owner, u), expected_titles[u.raw]) << u.ToString();
  }
  // VersionsOf sweep matches.
  Database& owner = *cluster.CellOf(design_generic);
  auto versions = owner.versions().VersionsOf(design_generic);
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(*versions, expected_versions);
  for (size_t i = 1; i <= cluster.size(); ++i) {
    ORION_EXPECT_CONSISTENT(cluster.cell(static_cast<CellTag>(i)).db());
  }
  // And the revived cluster keeps working, durably.
  {
    ClusterTransaction txn(&cluster);
    Uid u = *txn.Make("Doc", {}, {{"Title", Value::String("epilogue")}});
    ASSERT_TRUE(txn.Commit().ok());
    EXPECT_NE(cluster.CellOf(u), nullptr);
  }
}

}  // namespace
}  // namespace orion
