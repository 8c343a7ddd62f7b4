// Multi-threaded engine tests: N worker threads drive one Database through
// Session handles while ThreadSanitizer (see -DORION_SANITIZE=thread)
// watches for races.  Every test ends with the whole-database invariant
// sweep and asserts the lock table drained.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/session.h"
#include "core/transaction.h"
#include "invariants.h"
#include "lock/lock_manager.h"

namespace orion {
namespace {

using std::chrono::milliseconds;

// Small on purpose: the suite must stay fast under TSan on one core while
// still forcing real interleavings.
constexpr int kThreads = 4;
constexpr int kItersPerThread = 40;

SessionOptions ContendedOptions() {
  SessionOptions opts;
  opts.lock_timeout = milliseconds(250);
  opts.max_retries = 64;
  return opts;
}

// --- common/clock ---------------------------------------------------------

TEST(ThreadSafeLogicalClockTest, ConcurrentTicksAreUnique) {
  ThreadSafeLogicalClock clock;
  constexpr int kTicks = 5000;
  std::vector<std::vector<uint64_t>> seen(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&clock, &seen, t] {
      seen[t].reserve(kTicks);
      for (int i = 0; i < kTicks; ++i) {
        seen[t].push_back(clock.Tick());
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  std::set<uint64_t> all;
  for (const auto& per_thread : seen) {
    all.insert(per_thread.begin(), per_thread.end());
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads) * kTicks);
  EXPECT_EQ(clock.Now(), static_cast<uint64_t>(kThreads) * kTicks);
  EXPECT_EQ(*all.rbegin(), clock.Now());
}

// --- engine under Sessions ------------------------------------------------

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest() {
    part_ = *db_.MakeClass(ClassSpec{.name = "Part",
                                     .attributes = {WeakAttr("N", "integer")}});
    node_ = *db_.MakeClass(ClassSpec{
        .name = "Node",
        .attributes = {CompositeAttr("Parts", "Part", /*exclusive=*/true,
                                     /*dependent=*/true, /*is_set=*/true),
                       WeakAttr("Counter", "integer")}});
  }

  Database db_;
  ClassId node_, part_;
};

// Each worker builds components under its own root: the object table,
// extents, clock and placement maps are shared, the logical locks are not.
TEST_F(ConcurrencyTest, PartitionedRootsMakeSetDelete) {
  std::vector<Uid> roots;
  for (int t = 0; t < kThreads; ++t) {
    roots.push_back(*db_.Make("Node", {}, {{"Counter", Value::Integer(0)}}));
  }
  const size_t base_count = db_.objects().object_count();

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, &roots, &failures, t] {
      Session session(&db_, ContendedOptions());
      Uid root = roots[t];
      std::vector<Uid> mine;
      for (int i = 0; i < kItersPerThread; ++i) {
        Status s = session.Run([&](TransactionContext& txn) -> Status {
          ORION_ASSIGN_OR_RETURN(
              Uid part, txn.Make("Part", {{root, "Parts"}},
                                 {{"N", Value::Integer(i)}}));
          mine.push_back(part);
          return txn.SetAttribute(root, "Counter",
                                  Value::Integer(static_cast<int64_t>(i)));
        });
        if (!s.ok()) {
          ++failures;
          mine.clear();  // closure may have re-run; recount below
        }
        // Every third part is deleted again to exercise the detach path.
        if (s.ok() && i % 3 == 2) {
          Uid doomed = mine.back();
          Status d = session.Run([&](TransactionContext& txn) -> Status {
            return txn.Delete(doomed);
          });
          if (d.ok()) {
            mine.pop_back();
          } else {
            ++failures;
          }
        }
      }
      // The surviving parts are exactly what this thread kept.
      for (Uid part : mine) {
        if (!db_.objects().Exists(part)) {
          ++failures;
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  EXPECT_EQ(failures.load(), 0);
  // Per thread: kIters makes minus one delete per 3 iterations survive.
  const size_t deleted = kItersPerThread / 3;
  const size_t expect_per_thread = kItersPerThread - deleted;
  EXPECT_EQ(db_.objects().object_count(),
            base_count + kThreads * expect_per_thread);
  EXPECT_EQ(db_.objects().InstancesOf(part_).size(),
            kThreads * expect_per_thread);
  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

// All workers hammer ONE root: every Make X-locks the shared parent, so
// this is the worst case for the wait/retry machinery.
TEST_F(ConcurrencyTest, ContendedSharedRootStaysConsistent) {
  Uid root = *db_.Make("Node", {}, {{"Counter", Value::Integer(0)}});
  const size_t base_count = db_.objects().object_count();

  std::atomic<int> failures{0};
  std::atomic<int> created{0};
  std::atomic<int> deleted{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, root, &failures, &created, &deleted, t] {
      Session session(&db_, ContendedOptions());
      std::vector<Uid> mine;
      for (int i = 0; i < kItersPerThread; ++i) {
        const int op = (t + i) % 3;
        Status s;
        if (op == 0 || mine.empty()) {
          Uid made;
          s = session.Run([&](TransactionContext& txn) -> Status {
            ORION_ASSIGN_OR_RETURN(
                made, txn.Make("Part", {{root, "Parts"}},
                               {{"N", Value::Integer(t * 1000 + i)}}));
            return Status::Ok();
          });
          if (s.ok()) {
            mine.push_back(made);
            ++created;
          }
        } else if (op == 1) {
          Uid target = mine.back();
          s = session.Run([&](TransactionContext& txn) -> Status {
            return txn.SetAttribute(target, "N", Value::Integer(i));
          });
        } else {
          Uid doomed = mine.back();
          s = session.Run([&](TransactionContext& txn) -> Status {
            return txn.Delete(doomed);
          });
          if (s.ok()) {
            mine.pop_back();
            ++deleted;
          }
        }
        if (!s.ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(db_.objects().object_count(),
            base_count + created.load() - deleted.load());
  const Object* r = db_.objects().Peek(root);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->Get("Parts").ReferencedUids().size(),
            static_cast<size_t>(created.load() - deleted.load()));
  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

// Writers that touch two objects in opposite orders must deadlock; the
// victim's session retries and BOTH streams of commits complete.
TEST_F(ConcurrencyTest, OppositeOrderWritersAllCommitViaRetry) {
  Uid a = *db_.Make("Node", {}, {{"Counter", Value::Integer(0)}});
  Uid b = *db_.Make("Node", {}, {{"Counter", Value::Integer(0)}});

  constexpr int kCommitsEach = 30;
  std::vector<uint64_t> commits(2, 0);
  std::vector<uint64_t> retries(2, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([this, a, b, t, &commits, &retries] {
      SessionOptions opts = ContendedOptions();
      opts.lock_timeout = milliseconds(1000);  // waits, not try-locks
      Session session(&db_, opts);
      Uid first = (t == 0) ? a : b;
      Uid second = (t == 0) ? b : a;
      for (int i = 0; i < kCommitsEach; ++i) {
        Status s = session.Run([&](TransactionContext& txn) -> Status {
          ORION_RETURN_IF_ERROR(
              txn.SetAttribute(first, "Counter", Value::Integer(i)));
          return txn.SetAttribute(second, "Counter", Value::Integer(i));
        });
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
      commits[t] = session.stats().commits;
      retries[t] = session.stats().retries;
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  EXPECT_EQ(commits[0], static_cast<uint64_t>(kCommitsEach));
  EXPECT_EQ(commits[1], static_cast<uint64_t>(kCommitsEach));
  EXPECT_EQ(db_.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db_);
}

// Insert-heavy fan-out across distinct classes: exercises the sharded
// object table, sharded extents, and atomic uid allocator with no logical
// lock conflicts at all.
TEST(ShardedTablesTest, ConcurrentMakesAcrossClasses) {
  Database db;
  std::vector<ClassId> classes;
  for (int t = 0; t < kThreads; ++t) {
    classes.push_back(*db.MakeClass(
        ClassSpec{.name = std::string("C").append(std::to_string(t)),
                  .attributes = {WeakAttr("N", "integer")}}));
  }
  constexpr int kPerThread = 100;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&db, &failures, t] {
      Session session(&db);
      for (int i = 0; i < kPerThread; ++i) {
        Status s = session.Run([&](TransactionContext& txn) -> Status {
          return txn.Make(std::string("C").append(std::to_string(t)), {},
                          {{"N", Value::Integer(i)}})
              .status();
        });
        if (!s.ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(db.objects().InstancesOf(classes[t]).size(),
              static_cast<size_t>(kPerThread));
  }
  EXPECT_EQ(db.locks().grant_count(), 0u);
  ORION_EXPECT_CONSISTENT(db);
}

// --- lock manager deadlock handling --------------------------------------

// Classic two-transaction cycle: t1 holds A and wants B, t2 holds B and
// wants A.  Exactly one requester must be refused with kDeadlock (it is
// the victim and aborts); the survivor's wait is then granted.
TEST(LockManagerConcurrencyTest, TwoThreadDeadlockOneVictimAborts) {
  LockManager lm;
  const TxnId t1 = lm.Begin();
  const TxnId t2 = lm.Begin();
  const LockResource kA = LockResource::Instance(Uid{1});
  const LockResource kB = LockResource::Instance(Uid{2});
  ASSERT_TRUE(lm.Acquire(t1, kA, LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(t2, kB, LockMode::kX).ok());

  Status s1, s2;
  std::atomic<bool> done1{false}, done2{false};
  std::thread th1([&] {
    s1 = lm.Acquire(t1, kB, LockMode::kX, milliseconds(10000));
    done1 = true;
  });
  // Give t1 time to block on B and record its waits-for edge, so t2's
  // request deterministically closes the cycle.
  std::this_thread::sleep_for(milliseconds(200));
  std::thread th2([&] {
    s2 = lm.Acquire(t2, kA, LockMode::kX, milliseconds(10000));
    done2 = true;
  });

  // One of the two must be chosen as victim and return immediately;
  // release the victim's locks (its abort) to unblock the survivor.
  while (!done1.load() && !done2.load()) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  if (done2.load()) {
    EXPECT_EQ(s2.code(), StatusCode::kDeadlock) << s2.ToString();
    ASSERT_TRUE(lm.Release(t2).ok());
    th1.join();
    th2.join();
    EXPECT_TRUE(s1.ok()) << s1.ToString();
    ASSERT_TRUE(lm.Release(t1).ok());
  } else {
    // Scheduling flipped the race: t1 was refused instead.
    EXPECT_EQ(s1.code(), StatusCode::kDeadlock) << s1.ToString();
    ASSERT_TRUE(lm.Release(t1).ok());
    th2.join();
    th1.join();
    EXPECT_TRUE(s2.ok()) << s2.ToString();
    ASSERT_TRUE(lm.Release(t2).ok());
  }

  EXPECT_EQ(lm.grant_count(), 0u);
  EXPECT_GE(lm.stats().deadlocks, 1u);
  EXPECT_EQ(lm.stats().timeouts, 0u);
}

// Blocked waiters are woken by the release of the conflicting holder, not
// by their timeout: hold X briefly while many readers queue up.
TEST(LockManagerConcurrencyTest, ReleaseWakesQueuedWaiters) {
  LockManager lm;
  const LockResource kR = LockResource::Instance(Uid{7});
  const TxnId writer = lm.Begin();
  ASSERT_TRUE(lm.Acquire(writer, kR, LockMode::kX).ok());

  std::atomic<int> granted{0};
  std::vector<std::thread> readers;
  std::vector<TxnId> reader_txns;
  for (int i = 0; i < kThreads; ++i) {
    reader_txns.push_back(lm.Begin());
  }
  for (int i = 0; i < kThreads; ++i) {
    readers.emplace_back([&, i] {
      Status s = lm.Acquire(reader_txns[i], kR, LockMode::kS,
                            milliseconds(10000));
      if (s.ok()) {
        ++granted;
      }
    });
  }
  std::this_thread::sleep_for(milliseconds(100));
  EXPECT_EQ(granted.load(), 0);  // all parked behind the X holder
  ASSERT_TRUE(lm.Release(writer).ok());
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(granted.load(), kThreads);  // S is shared: all woke and got in
  EXPECT_GE(lm.stats().waits, static_cast<uint64_t>(kThreads));
  for (TxnId t : reader_txns) {
    ASSERT_TRUE(lm.Release(t).ok());
  }
  EXPECT_EQ(lm.grant_count(), 0u);
}

}  // namespace
}  // namespace orion
