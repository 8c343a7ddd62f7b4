#ifndef ORION_COMMON_LATCH_H_
#define ORION_COMMON_LATCH_H_

// The engine's ONLY sanctioned wrappers around std synchronization
// primitives.  orion_lint fails CI on a naked std::mutex/std::shared_mutex
// (or guard thereof) anywhere else in src/, so every latch in the engine
// carries a name and a LatchRank, and — under ORION_LATCH_CHECK — every
// acquisition is validated against the rank hierarchy and recorded into a
// global lock-order graph with cycle detection.  A rank inversion aborts
// the process with both acquisition sites even when no deadlock manifests
// at runtime; TSan only catches orderings that actually race during a run.
//
// ORION_LATCH_CHECK is ON in Debug and sanitizer builds (see
// CMakeLists.txt) and compiled out entirely in plain Release builds:
// sizeof(Latch) == sizeof(std::mutex) there, enforced by static_assert.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <source_location>

namespace orion {

/// Acquisition ranks for every latch in the engine, ascending from the
/// outermost coordinators to the innermost leaves.  The machine-checked
/// rule (DESIGN.md §9): a thread may acquire a latch only if its rank is
/// STRICTLY GREATER than the rank of every latch it already holds
/// (re-entering the same RecursiveLatch is the one exception).  Because
/// the order is total, latch deadlock is impossible for any code the test
/// suite executes with the checker on.
///
/// Values are banded with gaps so a new latch can be slotted between two
/// existing ones without renumbering; the band structure mirrors the
/// DESIGN.md §6/§7 hierarchy as actually implemented:
///
///   coordinators  <  commit gateway  <  table shards  <  listener lists
///                 <  subsystem leaves  <  utility leaves
enum class LatchRank : uint16_t {
  /// Participates in re-entrancy and cycle detection only; rank checks are
  /// skipped.  `orion_check` (DESIGN.md §9.4) fails CI on any kUnranked
  /// latch in src/ and on any drift between this enum and the §9.1 rank
  /// table, so a new latch must be placed — and its row written — in the
  /// PR that introduces it.
  kUnranked = 0,

  // -- Coordinators: may be held across calls into lower subsystems. ------
  /// Cluster::ddl_mu_ — serializes DDL fan-out across cells (§11).  Held
  /// across per-cell FencedSchemaWrite calls, so it must order before every
  /// per-cell coordinator — including kSchemaFence, which those calls
  /// acquire in each participating cell.
  kClusterDdl = 80,
  /// Database::reclaim_mu_ — the reclaimer's stop/wakeup latch.  Never held
  /// across ReclaimOnce, but ranked outermost so a future refactor that
  /// does nest it still orders before everything else.
  kReclaim = 100,
  /// SchemaFence::mu_ — the online-DDL fence/drain coordinator (§10).  A
  /// DDL thread holds it only to flip fence state and snapshot the drain
  /// set; DML threads take it per operation to register the classes they
  /// touch.  It is never held across a lock-manager wait or a publication,
  /// but DdlGuard's drain *blocks* on its condition variable, so it ranks
  /// as a coordinator, below the version registry and everything physical.
  kSchemaFence = 105,
  /// VersionManager::mu_ — the version registry.  Held across object-table
  /// operations (CV rules read and mutate instances) and across
  /// publication (the registry publishes GenericRecords while holding it).
  kVersionRegistry = 110,
  /// ReadTsRegistry::mu_ — read-timestamp pins.
  kEpochRegistry = 120,
  /// ObjectManager::observers_mu_ — held (shared) while live-path observer
  /// callbacks run.  Callbacks traverse the object table (notification
  /// composite-reach walks) and take index postings, so this ranks as a
  /// coordinator, below the table shards.  Notify* is only ever entered
  /// with at most the version registry held.
  kObserverList = 150,

  // -- Commit gateway. ----------------------------------------------------
  /// RecordStore::commit_mu_.  The §7 "strict leaf" rule, machine-checked:
  /// no latch ranked at or above it may be held when it is acquired, so a
  /// subsystem latch can never nest AROUND a commit and the only latches
  /// acquired INSIDE one are the record store's own chains, the listener
  /// list, and the index postings the listeners maintain (all ranked
  /// above).  Publication phase 1 (live-state copies through the object
  /// table and version registry) runs before this latch is taken.
  kCommit = 200,

  /// WalManager::mu_ — the per-cell changelog append queue and group-commit
  /// state.  Ranked just above kCommit: the publish-time redo hook enqueues
  /// the serialized record while commit_mu_ is held (append order must
  /// equal commit order — DESIGN.md §12), and the group-commit leader then
  /// fsyncs with NO latch held.  Nothing below kWal is ever taken under it.
  kWal = 220,

  // -- Striped table shards. ----------------------------------------------
  /// Object table / class extents / placement map shards (ShardedMap).
  /// Shards never nest with each other: whole-map walks latch one shard at
  /// a time.
  kTableShard = 300,
  /// The record store's own chain/extent shards, installed under kCommit.
  kRecordChainShard = 310,

  // -- Listener lists. ------------------------------------------------------
  /// RecordStore::listeners_mu_ — held while committed-stream listeners
  /// run, which take index postings.
  kListenerList = 410,

  // -- Subsystem leaves: never held across a call into another subsystem. --
  /// AttributeIndex::mu_ — live + versioned postings.
  kIndexPostings = 500,
  /// ObjectStore::seg_mu_ — segment/page chains.
  kSegmentTable = 510,
  /// PageAccessTracker::mu_ — page-touch accounting.
  kPageTracker = 520,
  /// LockManager::mu_ — the lock table.  Ranked as a leaf AND additionally
  /// guarded by the §6 rule "no latch is ever held while calling
  /// LockManager::Acquire" (ORION_ASSERT_NO_LATCHES_HELD at the entry
  /// point): a latch may never be held across a lock-manager WAIT, which
  /// is stronger than rank order can express.
  kLockTable = 530,
  /// SchemaManager::lattice_mu_ — the versioned class lattice (shared for
  /// every read, exclusive for DDL mutation).  A leaf: lattice lookups are
  /// pure in-memory walks that call into no other subsystem (MakeClass
  /// creates its segment *before* taking this latch so kSegmentTable never
  /// nests inside it), and readers resolve attributes under it from query
  /// paths that may already hold table shards or index postings.
  kSchemaLattice = 540,

  // -- Utility leaves. -----------------------------------------------------
  /// obs::TraceBuffer::flight_mu_ — the tail-based flight recorder's
  /// retained-trace list.  A leaf: taken only at trace close (once per
  /// session root, never per span) and by exporters, and CloseTrace calls
  /// into no other subsystem while holding it.
  kTraceFlight = 560,
  /// rpc::Server::mu_ — the connection registry (accept, reap, stop).  A
  /// leaf: held only to mutate the connection list and counters, never
  /// across a blocking socket call or any call into the engine.
  kRpcServer = 570,
  /// obs::MetricsRegistry::mu_ — cell registration/lookup (cold path).
  kMetrics = 600,
};

/// Human-readable rank name for diagnostics ("kCommit", ...).
const char* LatchRankName(LatchRank rank);

#ifdef ORION_LATCH_CHECK
namespace latch_check {

/// Records an acquisition by the calling thread: validates the rank rule
/// and re-entrancy, inserts an edge into the global lock-order graph, and
/// aborts with both acquisition sites on a violation.  `recursive_ok`
/// permits re-entry of the same latch instance (RecursiveLatch).
void OnAcquire(const void* latch, const char* name, LatchRank rank,
               bool recursive_ok, const std::source_location& loc);

/// Records a release (tolerates out-of-stack-order unlock).
void OnRelease(const void* latch);

/// Records the re-acquisition performed inside a condition-variable wait
/// when the wait returns.  Semantically the thread re-acquires the latch
/// from scratch, so the full rank rule is RE-VALIDATED against whatever
/// the thread accumulated while blocked — a waiter that somehow holds a
/// higher-ranked latch at wake is an inversion even though the original
/// acquisition was legal.  `loc` is the WAIT CALL SITE (threaded through
/// from LatchCondVar), so a violation points at the wait, not at latch.h
/// internals.  Also rejects a wake while the latch is still marked held
/// (a checker-state corruption OnAcquire would misreport as re-entry).
void OnCondVarWake(const void* latch, const char* name, LatchRank rank,
                   const std::source_location& loc);

/// Aborts if the calling thread holds any latch.  Asserted at
/// LockManager::Acquire entry: blocking on a logical-lock wait while
/// holding a latch can deadlock the engine even with a perfect rank order.
void AssertNoneHeld(const char* where);

/// Number of latches the calling thread currently holds (diagnostics).
size_t HeldCount();

}  // namespace latch_check

#define ORION_ASSERT_NO_LATCHES_HELD(where) \
  ::orion::latch_check::AssertNoneHeld(where)

#else  // !ORION_LATCH_CHECK

#define ORION_ASSERT_NO_LATCHES_HELD(where) ((void)0)

#endif  // ORION_LATCH_CHECK

/// An exclusive latch: std::mutex plus (under ORION_LATCH_CHECK) a name,
/// a rank, and per-acquisition order checking.  Protects physical
/// structure for nanoseconds — never held across a lock-manager wait
/// (DESIGN.md §6).
class Latch {
 public:
  Latch() = default;
  explicit Latch(const char* name, LatchRank rank = LatchRank::kUnranked) {
    SetDebugInfo(name, rank);
  }
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  /// Names/ranks a default-constructed latch (array members).  Must happen
  /// before the latch is reachable by a second thread.
  void SetDebugInfo(const char* name, LatchRank rank) {
#ifdef ORION_LATCH_CHECK
    name_ = name;
    rank_ = rank;
#else
    (void)name;
    (void)rank;
#endif
  }

  void lock(std::source_location loc = std::source_location::current()) {
#ifdef ORION_LATCH_CHECK
    latch_check::OnAcquire(this, name_, rank_, /*recursive_ok=*/false, loc);
#else
    (void)loc;
#endif
    mu_.lock();
  }

  void unlock() {
#ifdef ORION_LATCH_CHECK
    latch_check::OnRelease(this);
#endif
    mu_.unlock();
  }

  bool try_lock(std::source_location loc = std::source_location::current()) {
    if (!mu_.try_lock()) {
      return false;
    }
#ifdef ORION_LATCH_CHECK
    latch_check::OnAcquire(this, name_, rank_, /*recursive_ok=*/false, loc);
#else
    (void)loc;
#endif
    return true;
  }

 private:
  friend class LatchCondVar;
  friend class UniqueLatchGuard;
  std::mutex mu_;
#ifdef ORION_LATCH_CHECK
  const char* name_ = "latch";
  LatchRank rank_ = LatchRank::kUnranked;
#endif
};

/// A reader-writer latch over std::shared_mutex.  The checker treats
/// shared and exclusive acquisitions identically for ordering purposes
/// (both can participate in a deadlock cycle) and rejects re-entrant
/// lock_shared — std::shared_mutex can self-deadlock through a writer
/// queued between two shared acquisitions by one thread.
class SharedLatch {
 public:
  SharedLatch() = default;
  explicit SharedLatch(const char* name,
                       LatchRank rank = LatchRank::kUnranked) {
    SetDebugInfo(name, rank);
  }
  SharedLatch(const SharedLatch&) = delete;
  SharedLatch& operator=(const SharedLatch&) = delete;

  void SetDebugInfo(const char* name, LatchRank rank) {
#ifdef ORION_LATCH_CHECK
    name_ = name;
    rank_ = rank;
#else
    (void)name;
    (void)rank;
#endif
  }

  void lock(std::source_location loc = std::source_location::current()) {
#ifdef ORION_LATCH_CHECK
    latch_check::OnAcquire(this, name_, rank_, /*recursive_ok=*/false, loc);
#else
    (void)loc;
#endif
    mu_.lock();
  }
  void unlock() {
#ifdef ORION_LATCH_CHECK
    latch_check::OnRelease(this);
#endif
    mu_.unlock();
  }
  void lock_shared(
      std::source_location loc = std::source_location::current()) {
#ifdef ORION_LATCH_CHECK
    latch_check::OnAcquire(this, name_, rank_, /*recursive_ok=*/false, loc);
#else
    (void)loc;
#endif
    mu_.lock_shared();
  }
  void unlock_shared() {
#ifdef ORION_LATCH_CHECK
    latch_check::OnRelease(this);
#endif
    mu_.unlock_shared();
  }

 private:
  std::shared_mutex mu_;
#ifdef ORION_LATCH_CHECK
  const char* name_ = "shared_latch";
  LatchRank rank_ = LatchRank::kUnranked;
#endif
};

/// A recursive latch (the version registry re-enters through the CV-4X
/// deletion rules).  Re-entry by the holding thread is always legal and
/// skips the rank check; first acquisition is checked like any latch.
class RecursiveLatch {
 public:
  RecursiveLatch() = default;
  explicit RecursiveLatch(const char* name,
                          LatchRank rank = LatchRank::kUnranked) {
    SetDebugInfo(name, rank);
  }
  RecursiveLatch(const RecursiveLatch&) = delete;
  RecursiveLatch& operator=(const RecursiveLatch&) = delete;

  void SetDebugInfo(const char* name, LatchRank rank) {
#ifdef ORION_LATCH_CHECK
    name_ = name;
    rank_ = rank;
#else
    (void)name;
    (void)rank;
#endif
  }

  void lock(std::source_location loc = std::source_location::current()) {
#ifdef ORION_LATCH_CHECK
    latch_check::OnAcquire(this, name_, rank_, /*recursive_ok=*/true, loc);
#else
    (void)loc;
#endif
    mu_.lock();
  }
  void unlock() {
#ifdef ORION_LATCH_CHECK
    latch_check::OnRelease(this);
#endif
    mu_.unlock();
  }

 private:
  std::recursive_mutex mu_;
#ifdef ORION_LATCH_CHECK
  const char* name_ = "recursive_latch";
  LatchRank rank_ = LatchRank::kUnranked;
#endif
};

#ifndef ORION_LATCH_CHECK
// The whole checking layer compiles away in Release: a ranked latch is
// exactly its std primitive, byte for byte.
static_assert(sizeof(Latch) == sizeof(std::mutex),
              "Latch must be overhead-free when ORION_LATCH_CHECK is off");
static_assert(sizeof(SharedLatch) == sizeof(std::shared_mutex),
              "SharedLatch must be overhead-free when ORION_LATCH_CHECK is "
              "off");
static_assert(sizeof(RecursiveLatch) == sizeof(std::recursive_mutex),
              "RecursiveLatch must be overhead-free when ORION_LATCH_CHECK "
              "is off");
#endif

/// Scoped exclusive hold of a Latch (the lock_guard idiom).
class LatchGuard {
 public:
  explicit LatchGuard(
      Latch& latch, std::source_location loc = std::source_location::current())
      : latch_(latch) {
    latch_.lock(loc);
  }
  ~LatchGuard() { latch_.unlock(); }
  LatchGuard(const LatchGuard&) = delete;
  LatchGuard& operator=(const LatchGuard&) = delete;

 private:
  Latch& latch_;
};

/// Scoped hold of a RecursiveLatch.
class RecursiveLatchGuard {
 public:
  explicit RecursiveLatchGuard(
      RecursiveLatch& latch,
      std::source_location loc = std::source_location::current())
      : latch_(latch) {
    latch_.lock(loc);
  }
  ~RecursiveLatchGuard() { latch_.unlock(); }
  RecursiveLatchGuard(const RecursiveLatchGuard&) = delete;
  RecursiveLatchGuard& operator=(const RecursiveLatchGuard&) = delete;

 private:
  RecursiveLatch& latch_;
};

/// Scoped shared (reader) hold of a SharedLatch.
class SharedLatchReadGuard {
 public:
  explicit SharedLatchReadGuard(
      const SharedLatch& latch,
      std::source_location loc = std::source_location::current())
      : latch_(const_cast<SharedLatch&>(latch)) {
    latch_.lock_shared(loc);
  }
  ~SharedLatchReadGuard() { latch_.unlock_shared(); }
  SharedLatchReadGuard(const SharedLatchReadGuard&) = delete;
  SharedLatchReadGuard& operator=(const SharedLatchReadGuard&) = delete;

 private:
  SharedLatch& latch_;
};

/// Scoped exclusive (writer) hold of a SharedLatch.
class SharedLatchWriteGuard {
 public:
  explicit SharedLatchWriteGuard(
      const SharedLatch& latch,
      std::source_location loc = std::source_location::current())
      : latch_(const_cast<SharedLatch&>(latch)) {
    latch_.lock(loc);
  }
  ~SharedLatchWriteGuard() { latch_.unlock(); }
  SharedLatchWriteGuard(const SharedLatchWriteGuard&) = delete;
  SharedLatchWriteGuard& operator=(const SharedLatchWriteGuard&) = delete;

 private:
  SharedLatch& latch_;
};

/// An ownable/releasable hold of a Latch: the unique_lock idiom, required
/// by LatchCondVar waits and by code that drops the latch mid-scope.
class UniqueLatchGuard {
 public:
  explicit UniqueLatchGuard(
      Latch& latch, std::source_location loc = std::source_location::current())
      : latch_(&latch), lk_(latch.mu_, std::defer_lock) {
#ifdef ORION_LATCH_CHECK
    latch_check::OnAcquire(latch_, latch_->name_, latch_->rank_,
                           /*recursive_ok=*/false, loc);
#else
    (void)loc;
#endif
    lk_.lock();
  }
  ~UniqueLatchGuard() {
    if (lk_.owns_lock()) {
      unlock();
    }
  }
  UniqueLatchGuard(const UniqueLatchGuard&) = delete;
  UniqueLatchGuard& operator=(const UniqueLatchGuard&) = delete;

  void lock(std::source_location loc = std::source_location::current()) {
#ifdef ORION_LATCH_CHECK
    latch_check::OnAcquire(latch_, latch_->name_, latch_->rank_,
                           /*recursive_ok=*/false, loc);
#else
    (void)loc;
#endif
    lk_.lock();
  }
  void unlock() {
#ifdef ORION_LATCH_CHECK
    latch_check::OnRelease(latch_);
#endif
    lk_.unlock();
  }
  bool owns_lock() const { return lk_.owns_lock(); }

 private:
  friend class LatchCondVar;
  Latch* latch_;
  std::unique_lock<std::mutex> lk_;
};

/// Condition variable bound to Latch/UniqueLatchGuard.  The checker's
/// held-stack is popped for the duration of each blocking wait (the latch
/// really is released) and re-pushed on wake, so AssertNoneHeld and rank
/// checks stay exact across waits.
class LatchCondVar {
 public:
  LatchCondVar() = default;
  LatchCondVar(const LatchCondVar&) = delete;
  LatchCondVar& operator=(const LatchCondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  template <typename Pred>
  void Wait(UniqueLatchGuard& g, Pred pred,
            std::source_location loc = std::source_location::current()) {
    while (!pred()) {
      WaitOnce(g, loc);
    }
  }

  /// Waits until `pred()` or the deadline; returns pred()'s final value
  /// (std::condition_variable::wait_until semantics).
  template <typename Clock, typename Duration, typename Pred>
  bool WaitUntil(UniqueLatchGuard& g,
                 const std::chrono::time_point<Clock, Duration>& deadline,
                 Pred pred,
                 std::source_location loc = std::source_location::current()) {
    while (!pred()) {
      if (WaitOnceUntil(g, deadline, loc) == std::cv_status::timeout) {
        return pred();
      }
    }
    return true;
  }

  template <typename Rep, typename Period, typename Pred>
  bool WaitFor(UniqueLatchGuard& g,
               const std::chrono::duration<Rep, Period>& dur, Pred pred,
               std::source_location loc = std::source_location::current()) {
    return WaitUntil(g, std::chrono::steady_clock::now() + dur,
                     std::move(pred), loc);
  }

  /// Single untimed block (for hand-written wait loops).  The checker pops
  /// the latch for the duration of the block and re-validates the rank
  /// rule on wake via OnCondVarWake, attributed to the caller's wait site.
  void WaitOnce(UniqueLatchGuard& g,
                std::source_location loc = std::source_location::current()) {
#ifdef ORION_LATCH_CHECK
    latch_check::OnRelease(g.latch_);
#endif
    cv_.wait(g.lk_);
#ifdef ORION_LATCH_CHECK
    latch_check::OnCondVarWake(g.latch_, g.latch_->name_, g.latch_->rank_,
                               loc);
#else
    (void)loc;
#endif
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitOnceUntil(
      UniqueLatchGuard& g,
      const std::chrono::time_point<Clock, Duration>& deadline,
      std::source_location loc = std::source_location::current()) {
#ifdef ORION_LATCH_CHECK
    latch_check::OnRelease(g.latch_);
#endif
    std::cv_status st = cv_.wait_until(g.lk_, deadline);
#ifdef ORION_LATCH_CHECK
    latch_check::OnCondVarWake(g.latch_, g.latch_->name_, g.latch_->rank_,
                               loc);
#else
    (void)loc;
#endif
    return st;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace orion

#endif  // ORION_COMMON_LATCH_H_
