#ifndef ORION_CORE_SESSION_H_
#define ORION_CORE_SESSION_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "core/read_transaction.h"
#include "core/transaction.h"
#include "obs/trace.h"

namespace orion {

/// Tuning knobs for one worker-thread session.
struct SessionOptions {
  /// Per-lock wait bound inside each transaction attempt.  Zero turns every
  /// acquisition into a try-lock (no blocking), which under contention
  /// shifts all conflict handling onto the retry loop.
  std::chrono::milliseconds lock_timeout{50};
  /// Retry budget: conflict aborts absorbed before `Run` gives up with
  /// kTimeout.
  int max_retries = 16;
  /// First backoff; doubles per retry (plus jitter) up to `backoff_cap`.
  std::chrono::microseconds backoff_base{100};
  std::chrono::microseconds backoff_cap{20000};
  /// Non-empty: run transactions with §6 authorization checks as this user.
  std::string user;
};

/// Outcome counters of one session (single-threaded access: a session
/// belongs to exactly one worker thread).  Every increment is mirrored into
/// the `session.*` registry counters of the engine the session drives (its
/// `Database`, or its `Cluster`), which is where the cross-session
/// aggregate lives.
struct SessionStats {
  uint64_t commits = 0;
  uint64_t retries = 0;    ///< deadlock/timeout aborts that were retried
  uint64_t failures = 0;   ///< Run() calls that gave up or hit a real error
};

/// True for the conflict outcomes a retry loop absorbs: kDeadlock,
/// kLockTimeout, and kSchemaConflict (§10: the transaction ran into a DDL
/// fence or epoch bump; re-running it sees the post-DDL schema).
bool IsRetryable(const Status& status);

/// Sleeps before retry number `attempt + 1`: `base << attempt`, capped at
/// `cap`, scaled by a jitter draw into [50%, 150%) so two sessions that
/// deadlocked each other do not re-collide in lockstep.  The jitter stream
/// is per OS thread.  Returns the microseconds slept.
uint64_t BackoffSleep(int attempt, std::chrono::microseconds base,
                      std::chrono::microseconds cap);

/// The kTimeout a retry loop returns once `max_retries` is spent.
Status RetryBudgetExhausted(int max_retries, const Status& last_conflict);

/// The one §6 retry loop, shared by `Session` (Txn = TransactionContext
/// over a Database) and `ClusterSession` (Txn = ClusterTransaction over a
/// Cluster).  Each attempt constructs `Txn(engine, lock_timeout, user)` and
/// runs `fn` on it; OK commits, a retryable outcome (from `fn` or from the
/// commit) aborts, backs off and re-runs `fn`, and any other error aborts
/// and is returned as-is.  Outcomes land in `stats` and `counters`.  The
/// whole run is one `session.run` trace root on the engine's buffer, so
/// every span the attempts record — txn outcomes, lock waits, 2PC
/// prepares, WAL waits — parents into one tree; a failed run is marked so
/// the flight recorder retains it.
template <typename Txn, typename Engine>
Status RunWithRetries(Engine* engine, const SessionOptions& options,
                      const SessionCounters& counters, SessionStats& stats,
                      const std::function<Status(Txn&)>& fn) {
  obs::TraceRoot trace_root(&engine->trace(), "session.run");
  Status last = Status::Ok();
  for (int attempt = 0; attempt <= options.max_retries; ++attempt) {
    if (attempt > 0) {
      ++stats.retries;
      counters.retries->Inc();
      counters.backoff_us->Add(BackoffSleep(attempt - 1, options.backoff_base,
                                            options.backoff_cap));
    }
    Txn txn(engine, options.lock_timeout, options.user);
    Status result = fn(txn);
    if (result.ok()) {
      result = txn.Commit();
      if (result.ok()) {
        ++stats.commits;
        counters.commits->Inc();
        return result;
      }
    } else {
      // The retry loop keeps the operation's own status; abort-on-abort
      // still finishes the transaction.
      (void)txn.Abort();
    }
    if (!IsRetryable(result)) {
      ++stats.failures;
      counters.failures->Inc();
      trace_root.MarkError();
      return result;
    }
    last = std::move(result);
  }
  ++stats.failures;
  counters.failures->Inc();
  trace_root.MarkError();
  return RetryBudgetExhausted(options.max_retries, last);
}

/// A per-worker-thread handle for driving one shared `Database`.
///
/// This is the layer that maps OS threads onto the paper's transactions
/// (DESIGN.md §6): each worker owns a Session; `Run` brackets the closure
/// in a `TransactionContext`, commits on success, and — when the lock
/// manager refuses a wait with `kDeadlock` (the requester is the victim) or
/// gives up with `kLockTimeout` — aborts, backs off exponentially with
/// jitter, and re-runs the closure (`RunWithRetries`).  Strict 2PL plus
/// full before-image rollback make the retry safe: an aborted attempt
/// leaves no trace.
///
/// A Session is NOT thread-safe; create one per thread.  The Database it
/// drives is.
class Session {
 public:
  explicit Session(Database* db, SessionOptions options = {})
      : db_(db), options_(std::move(options)) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs `fn` transactionally.  `fn` returning OK commits; kDeadlock /
  /// kLockTimeout / kSchemaConflict (from `fn` or from the commit) aborts
  /// and retries up to the `max_retries` budget, after which `Run` returns
  /// kTimeout; any other error aborts and is returned as-is.  `fn` must be
  /// safe to re-execute (it sees a rolled-back database).
  Status Run(const std::function<Status(TransactionContext&)>& fn) {
    return RunWithRetries(db_, options_, db_->engine_metrics().session,
                          stats_, fn);
  }

  /// Opens a lock-free read-only transaction at the current commit
  /// watermark: repeatable reads with no locks and no retry loop.  The
  /// returned transaction is independent of this session's retry state and
  /// may outlive it.
  ReadTransaction BeginReadOnly() { return ReadTransaction(db_); }

  const SessionStats& stats() const { return stats_; }
  Database* db() { return db_; }
  const SessionOptions& options() const { return options_; }

 private:
  Database* db_;
  SessionOptions options_;
  SessionStats stats_;
};

}  // namespace orion

#endif  // ORION_CORE_SESSION_H_
