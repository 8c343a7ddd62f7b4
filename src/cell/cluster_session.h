#ifndef ORION_CELL_CLUSTER_SESSION_H_
#define ORION_CELL_CLUSTER_SESSION_H_

#include <functional>
#include <utility>

#include "cell/cluster_transaction.h"
#include "core/session.h"

namespace orion {

/// The cluster counterpart of `Session`: one per worker thread, same
/// options, same retry loop (`RunWithRetries`).  `Run` brackets the closure
/// in a `ClusterTransaction`; conflict outcomes (kDeadlock, kLockTimeout,
/// kSchemaConflict) from any participating cell — including a 2PC prepare
/// refusal — abort every participant, back off, and re-run the closure.
/// Outcomes feed the cluster's own `session.*` counters, and the
/// `session.run` root opens on the cluster's trace buffer, so a cross-cell
/// commit's spans — per-cell prepares, each cell's WAL wait, the decision
/// — collect into one tree.
///
/// Not thread-safe; create one per thread.  The Cluster it drives is.
class ClusterSession {
 public:
  explicit ClusterSession(Cluster* cluster, SessionOptions options = {})
      : cluster_(cluster), options_(std::move(options)) {}

  ClusterSession(const ClusterSession&) = delete;
  ClusterSession& operator=(const ClusterSession&) = delete;

  Status Run(const std::function<Status(ClusterTransaction&)>& fn) {
    return RunWithRetries(cluster_, options_,
                          cluster_->cluster_metrics().session, stats_, fn);
  }

  const SessionStats& stats() const { return stats_; }
  Cluster* cluster() { return cluster_; }
  const SessionOptions& options() const { return options_; }

 private:
  Cluster* cluster_;
  SessionOptions options_;
  SessionStats stats_;
};

}  // namespace orion

#endif  // ORION_CELL_CLUSTER_SESSION_H_
