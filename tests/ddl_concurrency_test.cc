// §10 online DDL under fire: worker threads drive DML sessions while DDL
// entry points fence, drain and commit schema changes on the same classes.
// ThreadSanitizer (-DORION_SANITIZE=thread) watches the interleavings; the
// Debug latch checker enforces the §9 rank order (kSchemaFence=105,
// kSchemaLattice=540 must never invert against the instance latches).
// Every test ends with the whole-database invariant sweep and asserts the
// lock table drained.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/read_transaction.h"
#include "core/session.h"
#include "core/transaction.h"
#include "invariants.h"

namespace orion {
namespace {

using std::chrono::milliseconds;

// Small on purpose: the suite must stay fast under TSan on one core while
// still forcing fence/drain/retry interleavings.
constexpr int kDmlThreads = 4;
constexpr int kItersPerThread = 30;

SessionOptions StormOptions() {
  SessionOptions opts;
  opts.lock_timeout = milliseconds(250);
  // A fence aborts conflicting DML with kSchemaConflict; the session retry
  // loop is the contract that absorbs it, so give it plenty of budget.
  opts.max_retries = 200;
  return opts;
}

class DdlConcurrencyTest : public ::testing::Test {
 protected:
  DdlConcurrencyTest() {
    part_ = *db_.MakeClass(ClassSpec{
        .name = "Part", .attributes = {WeakAttr("N", "integer")}});
    node_ = *db_.MakeClass(ClassSpec{
        .name = "Node",
        .attributes = {CompositeAttr("Parts", "Part", /*exclusive=*/true,
                                     /*dependent=*/true, /*is_set=*/true),
                       WeakAttr("Counter", "integer")}});
  }

  Database db_;
  ClassId part_, node_;
};

// The tentpole scenario: a DDL storm (add/drop attribute, composite type
// toggles) against a DML hammer on the affected classes.  Every DML
// closure must eventually commit (kSchemaConflict is retryable), every DDL
// must succeed, and the fence metrics must show the protocol actually ran.
TEST_F(DdlConcurrencyTest, DdlStormVsDmlHammer) {
  std::vector<Uid> roots;
  for (int t = 0; t < kDmlThreads; ++t) {
    roots.push_back(*db_.Make("Node", {}, {{"Counter", Value::Integer(0)}}));
  }

  std::atomic<int> dml_failures{0};
  std::atomic<bool> ddl_done{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kDmlThreads; ++t) {
    workers.emplace_back([this, &roots, &dml_failures, t] {
      Session session(&db_, StormOptions());
      Uid root = roots[t];
      std::vector<Uid> mine;
      for (int i = 0; i < kItersPerThread; ++i) {
        Uid made;
        Status s = session.Run([&](TransactionContext& txn) -> Status {
          ORION_ASSIGN_OR_RETURN(made,
                                 txn.Make("Part", {{root, "Parts"}},
                                         {{"N", Value::Integer(i)}}));
          return txn.SetAttribute(root, "Counter", Value::Integer(i));
        });
        if (s.ok()) {
          mine.push_back(made);
        } else {
          ++dml_failures;
        }
        if (s.ok() && i % 3 == 2) {
          Uid doomed = mine.back();
          Status d = session.Run([&](TransactionContext& txn) -> Status {
            return txn.Delete(doomed);
          });
          if (d.ok()) {
            mine.pop_back();
          } else {
            ++dml_failures;
          }
        }
      }
    });
  }

  // The storm: additive DDL (guard only), destructive DDL (fence + drain),
  // and composite-type toggles on the very attribute the hammer binds
  // through.  Each toggle pair is I2 (exclusive -> shared, fenced) then D3
  // (shared -> exclusive, fenced immediate verification; every part has
  // exactly one parent, so the constraint holds by construction).
  std::thread ddl([this, &ddl_done] {
    for (int i = 0; i < 6; ++i) {
      const std::string attr = std::string("X").append(std::to_string(i));
      ASSERT_TRUE(db_.AddAttribute(part_, WeakAttr(attr, "integer")).ok());
      ASSERT_TRUE(db_.DropAttribute(part_, attr).ok());
      if (i % 3 == 0) {
        Status to_shared = db_.ChangeAttributeType(
            node_, "Parts", /*to_composite=*/true, /*to_exclusive=*/false,
            /*to_dependent=*/true, ChangeMode::kImmediate);
        ASSERT_TRUE(to_shared.ok()) << to_shared.ToString();
        Status back = db_.ChangeAttributeType(
            node_, "Parts", /*to_composite=*/true, /*to_exclusive=*/true,
            /*to_dependent=*/true, ChangeMode::kImmediate);
        ASSERT_TRUE(back.ok()) << back.ToString();
      }
    }
    ddl_done = true;
  });

  for (auto& w : workers) {
    w.join();
  }
  ddl.join();
  ASSERT_TRUE(ddl_done.load());
  EXPECT_EQ(dml_failures.load(), 0);

  const EngineMetrics& em = db_.engine_metrics();
  // 6 drops + 4 toggles fenced; every DdlGuard drop bumps the epoch.
  EXPECT_GE(em.ddl_fences->Value(), 10u);
  EXPECT_GE(em.ddl_epoch_bumps->Value(), 16u);
  EXPECT_GT(db_.schema_fence().epoch(), 0u);

  // The storm left the schema where it started: the X_i attributes are
  // gone and Parts is exclusive again.
  for (int i = 0; i < 6; ++i) {
    const std::string attr = std::string("X").append(std::to_string(i));
    EXPECT_FALSE(db_.schema().ResolveAttribute(part_, attr).ok());
  }
  AttributeSpec parts = *db_.schema().ResolveAttribute(node_, "Parts");
  EXPECT_TRUE(parts.composite);
  EXPECT_TRUE(parts.exclusive);

  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

// Deferred and immediate type changes race the same DML hammer.  The
// immediate sweep rewrites every instance inside the fence; the deferred
// change only appends a log entry, and instances catch up at first access
// — both must be race-free and converge to the same flags.
TEST_F(DdlConcurrencyTest, DeferredAndImmediateChangesRaceDml) {
  ClassId part_b = *db_.MakeClass(ClassSpec{
      .name = "PartB", .attributes = {WeakAttr("M", "integer")}});
  ClassId node_b = *db_.MakeClass(ClassSpec{
      .name = "NodeB",
      .attributes = {CompositeAttr("PartsB", "PartB", /*exclusive=*/true,
                                   /*dependent=*/true, /*is_set=*/true)}});

  Uid root_a = *db_.Make("Node", {}, {{"Counter", Value::Integer(0)}});
  Uid root_b = *db_.Make("NodeB", {}, {});

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([this, root_a, root_b, &failures, t] {
      Session session(&db_, StormOptions());
      const char* cls = (t == 0) ? "Part" : "PartB";
      const char* attr = (t == 0) ? "Parts" : "PartsB";
      Uid root = (t == 0) ? root_a : root_b;
      for (int i = 0; i < kItersPerThread; ++i) {
        Status s = session.Run([&](TransactionContext& txn) -> Status {
          return txn.Make(cls, {{root, attr}}, {}).status();
        });
        if (!s.ok()) {
          ++failures;
        }
      }
    });
  }
  // Two DDL threads: immediate I2 on Node.Parts, deferred I2 on
  // NodeB.PartsB, both while the hammer runs.
  std::thread immediate([this] {
    Status s = db_.ChangeAttributeType(node_, "Parts", true, false, true,
                                       ChangeMode::kImmediate);
    ASSERT_TRUE(s.ok()) << s.ToString();
  });
  std::thread deferred([this, node_b] {
    Status s = db_.ChangeAttributeType(node_b, "PartsB", true, false, true,
                                       ChangeMode::kDeferred);
    ASSERT_TRUE(s.ok()) << s.ToString();
  });
  for (auto& w : workers) {
    w.join();
  }
  immediate.join();
  deferred.join();
  EXPECT_EQ(failures.load(), 0);

  // Converged flags: immediate instances were swept inside the fence;
  // deferred ones catch up when a transaction reads them.
  Session session(&db_, StormOptions());
  for (ClassId cls : {part_, part_b}) {
    for (Uid uid : db_.objects().InstancesOf(cls)) {
      Status s = session.Run([&](TransactionContext& txn) -> Status {
        return txn.Read(uid).status();
      });
      ASSERT_TRUE(s.ok()) << s.ToString();
      const Object* obj = db_.objects().Peek(uid);
      ASSERT_NE(obj, nullptr);
      EXPECT_EQ(obj->cc(), db_.schema().CurrentCc());
      for (const ReverseRef& r : obj->reverse_refs()) {
        EXPECT_FALSE(r.exclusive);
        EXPECT_TRUE(r.dependent);
      }
    }
  }
  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

// A reader pinned before a destructive DDL keeps the pre-DDL world for its
// whole lifetime: dropped attribute values stay visible and the old
// composite flags stay on its states, while a reader pinned after the DDL
// sees the new schema cut.
TEST_F(DdlConcurrencyTest, ReaderPinnedAcrossTypeChangeSeesOldWorld) {
  Uid root = *db_.Make("Node", {}, {{"Counter", Value::Integer(1)}});
  Uid child = *db_.Make("Part", {{root, "Parts"}}, {{"N", Value::Integer(7)}});

  ReadTransaction pinned(&db_);
  ASSERT_TRUE(pinned.Exists(child));

  // Destructive wave: drop Part.N, then demote the composite edge to a
  // weak reference (I1, fenced immediate sweep erases the reverse refs).
  ASSERT_TRUE(db_.DropAttribute(part_, "N").ok());
  ASSERT_TRUE(db_.ChangeAttributeType(node_, "Parts", /*to_composite=*/false,
                                      false, false, ChangeMode::kImmediate)
                  .ok());

  // The pinned snapshot still resolves both the value and the old edge.
  const Object* old_child = *pinned.Get(child);
  EXPECT_EQ(old_child->Get("N").integer(), 7);
  ASSERT_EQ(old_child->reverse_refs().size(), 1u);
  EXPECT_TRUE(old_child->reverse_refs()[0].exclusive);
  ASSERT_TRUE(pinned.ComponentOf(child, root).ok());
  EXPECT_TRUE(*pinned.ComponentOf(child, root));

  // A snapshot pinned after the wave sees the post-DDL world: no value,
  // no composite edge.
  ReadTransaction fresh(&db_);
  const Object* new_child = *fresh.Get(child);
  EXPECT_TRUE(new_child->Get("N").is_null());
  EXPECT_TRUE(new_child->reverse_refs().empty());
  EXPECT_FALSE(*fresh.ComponentOf(child, root));

  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

// Regression (§4.3): two deferred type changes queued on the same domain
// class must be applied in log (CC) order at catch-up.  Each log entry
// overwrites the reference flags, so the LAST change's flags must win; a
// reversed application would leave the first change's flags instead.
// Concurrent pinned readers ride across both changes to make sure the
// deferred entries stay invisible to their snapshots.
TEST_F(DdlConcurrencyTest, QueuedDeferredChangesApplyInLogOrder) {
  Uid root = *db_.Make("Node", {}, {{"Counter", Value::Integer(0)}});
  Uid child = *db_.Make("Part", {{root, "Parts"}}, {{"N", Value::Integer(1)}});

  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([this, child, &stop, &reader_failures] {
      while (!stop.load()) {
        ReadTransaction rt(&db_);
        auto got = rt.Get(child);
        if (!got.ok() || (*got)->reverse_refs().size() != 1) {
          ++reader_failures;
          return;
        }
        // Snapshots never observe a half-applied deferred change: the
        // flags are either the original or a sealed post-sweep state.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }

  // Queued change 1 (I4): exclusive/dependent -> exclusive/independent.
  ASSERT_TRUE(db_.ChangeAttributeType(node_, "Parts", true, true, false,
                                      ChangeMode::kDeferred)
                  .ok());
  // Queued change 2 (I2, dependent-flag folded in): -> shared/dependent.
  ASSERT_TRUE(db_.ChangeAttributeType(node_, "Parts", true, false, true,
                                      ChangeMode::kDeferred)
                  .ok());
  stop = true;
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(reader_failures.load(), 0);

  // Both entries landed in Part's per-domain-class log, unapplied.
  EXPECT_EQ(db_.schema().PendingChanges(part_, 0).size(), 2u);
  const Object* before = db_.objects().Peek(child);
  ASSERT_NE(before, nullptr);
  EXPECT_LT(before->cc(), db_.schema().CurrentCc());

  // First transactional access catches the instance up through BOTH
  // entries in CC order: the final flags are change 2's (shared +
  // dependent).  Reversed order would leave change 1's (exclusive +
  // independent).
  Session session(&db_, StormOptions());
  Status s = session.Run([&](TransactionContext& txn) -> Status {
    return txn.Read(child).status();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  const Object* after = db_.objects().Peek(child);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->cc(), db_.schema().CurrentCc());
  ASSERT_EQ(after->reverse_refs().size(), 1u);
  EXPECT_FALSE(after->reverse_refs()[0].exclusive);
  EXPECT_TRUE(after->reverse_refs()[0].dependent);

  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

}  // namespace
}  // namespace orion
