#ifndef ORION_CELL_CLUSTER_H_
#define ORION_CELL_CLUSTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cell/cell.h"
#include "common/latch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query.h"
#include "wal/wal.h"

namespace orion {

/// Cluster-level metric handles (resolved once at construction, same
/// discipline as `EngineMetrics`): transaction mix, 2PC prepare latency,
/// per-cell commit counters, and the `ClusterSession` retry outcomes.
struct ClusterMetrics {
  /// `session.*`, fed by every `ClusterSession::Run`.
  SessionCounters session;
  /// Transactions whose write set stayed in one cell (fast path).
  obs::Counter* txn_single = nullptr;
  /// Transactions that committed through 2PC across >= 2 cells.
  obs::Counter* txn_cross = nullptr;
  /// Cross-cell transactions aborted by a prepare refusal.
  obs::Counter* txn_cross_aborts = nullptr;
  /// Wall time of the whole prepare phase of one cross-cell commit.
  obs::Histogram* prepare_us = nullptr;
  /// Commit decisions appended to the cluster decision log.
  obs::Counter* decisions = nullptr;
  /// Active segment index of the decision log (refreshed by Stats()).
  obs::Gauge* decision_log_segment = nullptr;
  /// Commits applied per cell, indexed by `tag - 1`.
  std::vector<obs::Counter*> cell_commits;
};

/// A root-affine sharded database: N independent cells (tags 1..N), a
/// routing rule, replicated schema, and queries joined across cells (§11).
///
/// Placement: new roots round-robin across cells; `make` under a parent is
/// routed to the parent's cell, so every composite hierarchy is cell-local.
/// Cross-cell references are weak reference-by-uid edges; transactions that
/// touch several cells commit through `ClusterTransaction`'s 2PC.
///
/// DDL is *replicated*, not partitioned: each operation is applied to every
/// cell under that cell's own §10 fence protocol, serialized cluster-wide
/// by `ddl_mu_` (rank kClusterDdl, below every per-cell coordinator).
/// Cell 1 is the authority: it is always updated first, and an error there
/// aborts the fan-out with all cells still identical.  A failure in a
/// *later* cell after the authority succeeded leaves the schema diverged
/// and is surfaced as kInternal.  Validation is not schema-only, so this
/// can happen: a state-dependent `ChangeAttributeType` (D1–D3) also
/// checks each cell's own instances, and one cell may refuse what the
/// authority accepted (DESIGN.md §11.3).
///
/// Thread-safety: construction and destruction are single-threaded; every
/// other entry point may be called from any session thread.
class Cluster {
 public:
  using StatsSnapshot = obs::MetricsSnapshot;

  /// `cells` is clamped to [1, kMaxCellTag].  `trace_opts` sizes every
  /// cell's trace buffer AND the cluster's own (which collects cross-cell
  /// session trees — see ClusterSession::Run).
  explicit Cluster(size_t cells, uint32_t objects_per_page = 16,
                   const obs::TraceOptions& trace_opts = obs::TraceOptions());

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  size_t size() const { return cells_.size(); }

  /// The cell with `tag` (tags are 1-based; tag must be in [1, size()]).
  Cell& cell(CellTag tag) { return *cells_[tag - 1]; }

  /// The database owning `uid`, or nullptr for a tag no cell has
  /// (including tag 0, the standalone configuration).
  Database* CellOf(Uid uid);
  const Database* CellOf(Uid uid) const;

  /// The schema authority (cell 1).  All cells hold identical schema, so
  /// reads may use any cell; DDL always lands here first.
  Database& authority() { return cells_.front()->db(); }

  /// Picks the cell for a new root object (round-robin).
  CellTag PlaceNewRoot() {
    return static_cast<CellTag>(
        next_root_.fetch_add(1, std::memory_order_relaxed) % cells_.size() +
        1);
  }

  // --- Replicated DDL (fan-out, §11) -----------------------------------------

  /// `make-class` on every cell.  The ClassIds assigned by each cell must
  /// agree (they do: all cells replay the identical DDL history); a
  /// mismatch is surfaced as kInternal divergence.
  Result<ClassId> MakeClass(const ClassSpec& spec);
  Status AddAttribute(ClassId cls, AttributeSpec spec);
  Status AddSuperclass(ClassId cls, ClassId superclass);
  Status DropAttribute(ClassId cls, const std::string& name);
  Status RemoveSuperclass(ClassId cls, ClassId superclass);
  Status ChangeAttributeInheritance(ClassId cls, const std::string& name,
                                    ClassId source);
  Status DropClass(ClassId cls);
  Status ChangeAttributeType(ClassId cls, const std::string& attr,
                             bool to_composite, bool to_exclusive,
                             bool to_dependent,
                             ChangeMode mode = ChangeMode::kImmediate);

  // --- Queries ---------------------------------------------------------------
  //
  // Each reads through one ReadTransaction per cell it touches, so it is
  // pinned against that cell's reclaimer and takes no locks.  There is no
  // cross-cell point in time: each cell is read at its own watermark.
  // Composite edges are cell-local, so §3.1 navigation needs no cluster
  // entry point: open `ReadTransaction rt(CellOf(uid))` and traverse
  // `rt.view()`.

  /// Merged direct extent of `cls` across all cells.
  std::vector<Uid> InstancesOf(ClassId cls);

  /// Associative query over every cell's extent (each cell plans locally).
  Result<std::vector<Uid>> Select(ClassId cls, const QueryPtr& expr);

  /// Partition-pruned associative query: root affinity guarantees every
  /// instance reachable from `near`'s hierarchy lives in `near`'s cell, so
  /// only that cell scans — the 1/N-extent win `abl_cells` measures.
  Result<std::vector<Uid>> SelectNear(Uid near, ClassId cls,
                                      const QueryPtr& expr);

  obs::MetricsRegistry& metrics() { return metrics_; }
  const ClusterMetrics& cluster_metrics() const { return cm_; }

  /// §13: the cluster-level trace buffer — cross-cell session roots open
  /// their trace here, so one 2PC commit's spans (per-cell prepares, WAL
  /// waits, the decision) land in a single tree.
  obs::TraceBuffer& trace() { return trace_; }

  /// One labeled cluster-wide snapshot (the observability facade): the
  /// cluster's own registry plus every cell's, merged as
  ///   - counters and histograms: summed across cells (same family);
  ///   - gauges: kept per cell under `name|cell=<tag>` (point-in-time
  ///     values like watermarks are not meaningful summed).
  /// `ToPrometheus` renders the `|k=v` suffix as a proper label block;
  /// `ToJson` keeps the raw keys.  tools/metrics_check --cluster verifies
  /// this snapshot reconciles with the per-cell exports.
  StatsSnapshot Stats();

  // --- Durability (DESIGN.md §12) --------------------------------------------

  /// Turns on cell-aware durability under `dir`: one changelog + snapshot
  /// directory per cell (`<dir>/cell-<tag>/`) and one cluster decision log
  /// (`<dir>/cluster/`).  If the directories hold prior state, every cell
  /// is recovered first (this cluster must be freshly constructed):
  /// snapshot + changelog-tail replay, then prepared-but-undecided 2PC
  /// transactions are resolved against the decision log — a decision
  /// record means commit (the prepare's redo payload is applied); no
  /// record means presumed abort.  Each cell then checkpoints and attaches
  /// its WAL.  Call once, before any transaction.
  Status EnableDurability(const std::string& dir,
                          const wal::WalOptions& opts = wal::WalOptions());
  bool durable() const { return durable_; }

  /// Coordinator-side 2PC bookkeeping (used by ClusterTransaction): a
  /// fresh nonzero global transaction id, and the durable commit-decision
  /// record written between phase 1 and phase 2.
  uint64_t NextGtid() {
    return next_gtid_.fetch_add(1, std::memory_order_relaxed);
  }
  Status LogDecision(uint64_t gtid);

  /// Checkpoints every cell (snapshot + changelog truncation).
  Status Checkpoint();

 private:
  friend class ClusterTransaction;

  /// Applies `op` to the authority first, then every other cell, under the
  /// cluster DDL latch.  `what` labels divergence errors.
  Status FanOut(const char* what, const std::function<Status(Database&)>& op);

  /// Resolves the class of a foreign uid from its owner's *committed*
  /// record chain at the owner's watermark (never the live table — no
  /// locks are held in that cell).  kInvalidClass when unknown.
  ClassId ForeignClassOf(Uid uid) const;

  /// Declared first: cells hold resolver closures into this object, and
  /// metric pointers must outlive every cell.
  obs::MetricsRegistry metrics_;
  ClusterMetrics cm_;
  /// Cross-cell trace trees (see trace()); sized by the ctor's trace_opts.
  obs::TraceBuffer trace_;
  /// Declared before cells_ (destroyed after them): each cell's database
  /// holds a raw pointer to its WalManager.
  std::vector<std::unique_ptr<wal::WalManager>> wals_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::atomic<uint64_t> next_root_{0};
  /// Serializes cluster-wide DDL; held across per-cell fence protocols.
  Latch ddl_mu_{"cluster.ddl", LatchRank::kClusterDdl};

  bool durable_ = false;
  /// Seeded past the largest gtid the decision log has seen; 2PC ids stay
  /// unique across restarts.
  std::atomic<uint64_t> next_gtid_{1};
  /// The cluster-level commit-decision log; coordinator-only, so one latch
  /// (taken with no other latch held) serializes appends.
  Latch decision_mu_{"cluster.decisions", LatchRank::kWal};
  wal::Changelog decision_log_;
};

}  // namespace orion

#endif  // ORION_CELL_CLUSTER_H_
