#ifndef ORION_CORE_DATABASE_H_
#define ORION_CORE_DATABASE_H_

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "authz/authorization_manager.h"
#include "common/clock.h"
#include "core/commit_pipeline.h"
#include "common/epoch.h"
#include "common/latch.h"
#include "common/result.h"
#include "common/status.h"
#include "object/record_store.h"
#include "lock/composite_locking.h"
#include "lock/lock_manager.h"
#include "object/object_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/index.h"
#include "query/query.h"
#include "query/traversal.h"
#include "schema/schema_fence.h"
#include "schema/schema_manager.h"
#include "storage/object_store.h"
#include "version/version_manager.h"

namespace orion {

namespace wal {
class WalManager;
}  // namespace wal

/// Execution mode for state-independent attribute-type changes (§4.3):
/// "the changes may be made 'immediately' or 'deferred' until the objects
/// actually need to be accessed."
enum class ChangeMode { kImmediate, kDeferred };

/// The `session.*` counters the retry loop (core/session.h) feeds.  Each
/// `Database` and each `Cluster` resolves one set in its own registry, so
/// `Cluster::Stats()` sums the per-cell and the cross-cell session paths.
struct SessionCounters {
  obs::Counter* commits = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* failures = nullptr;
  obs::Counter* backoff_us = nullptr;

  static SessionCounters Resolve(obs::MetricsRegistry& registry);
};

/// Registry handles for the engine-level hot paths, resolved once by the
/// `Database` constructor.  Transactions, sessions, read transactions and
/// the reclaimer increment through these pointers — a registry lookup is a
/// mutex plus a map walk and has no business inside a commit.
struct EngineMetrics {
  obs::Counter* txn_begins = nullptr;
  obs::Counter* txn_commits = nullptr;
  obs::Counter* txn_aborts = nullptr;
  obs::Histogram* txn_commit_us = nullptr;
  obs::Histogram* txn_abort_us = nullptr;
  obs::Histogram* txn_journal_size = nullptr;
  SessionCounters session;
  obs::Counter* read_txns = nullptr;
  obs::Counter* reclaim_passes = nullptr;
  obs::Counter* reclaim_zero_passes = nullptr;
  obs::Gauge* reclaim_min_active_ts = nullptr;
  obs::Gauge* reclaim_last_trimmed = nullptr;
  /// §10 online DDL: fences raised, epoch bumps, transactions drained,
  /// DML aborted on a fence, fence-drain wait time, catch-up latency.
  obs::Counter* ddl_fences = nullptr;
  obs::Counter* ddl_epoch_bumps = nullptr;
  obs::Counter* ddl_drained_txns = nullptr;
  obs::Counter* ddl_conflicts = nullptr;
  obs::Histogram* ddl_fence_wait_us = nullptr;
  obs::Histogram* ddl_catchup_us = nullptr;
  obs::Gauge* ddl_epoch = nullptr;
};

/// The ORION-style database facade: one object owning every subsystem, plus
/// the operations whose semantics span subsystems — instance creation that
/// routes versionable classes through the version manager, deletion that
/// routes by object role, and the full §4 schema-evolution taxonomy with
/// its instance-level effects.
class Database {
 public:
  /// A coherent copy of every metric of this engine (see
  /// `obs::MetricsSnapshot` for the exact consistency guarantee and the
  /// Prometheus/JSON exporters).
  using StatsSnapshot = obs::MetricsSnapshot;

  /// `cell_tag` stamps every uid this database mints (common/uid.h): 0 is
  /// the standalone configuration, a Cluster assigns each cell its own tag.
  /// `trace_opts` sizes the §13 trace ring / flight recorder and sets the
  /// sampling and slow-trace retention policy.
  explicit Database(uint32_t objects_per_page = 16, CellTag cell_tag = 0,
                    const obs::TraceOptions& trace_opts = obs::TraceOptions());
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  SchemaManager& schema() { return schema_; }
  SchemaFence& schema_fence() { return schema_fence_; }
  ObjectManager& objects() { return objects_; }
  VersionManager& versions() { return versions_; }
  AuthorizationManager& authz() { return authz_; }
  LockManager& locks() { return locks_; }
  CompositeLockProtocol& protocol() { return protocol_; }
  IndexManager& indexes() { return indexes_; }
  ObjectStore& store() { return store_; }
  LogicalClock& clock() { return clock_; }
  RecordStore& records() { return records_; }
  const RecordStore& records() const { return records_; }
  ReadTsRegistry& read_registry() { return read_registry_; }
  CommitPipeline& commit_pipeline() { return pipeline_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::TraceBuffer& trace() { return trace_; }
  const EngineMetrics& engine_metrics() const { return em_; }

  /// The cell tag every uid minted here carries (0 = standalone).
  CellTag cell_tag() const { return cell_tag_; }

  // --- Durability (DESIGN.md §12) --------------------------------------------

  /// Attaches an open WAL as the commit pipeline's durability sink: every
  /// publish emits a redo record into `wal`'s changelog, commits block in
  /// Harden until their record is fsynced (group commit), 2PC prepares are
  /// logged before the cell votes, and every DDL entry point checkpoints.
  /// Call once, at startup, on a database with no in-flight transactions;
  /// `wal` must outlive this database.
  Status AttachWal(wal::WalManager* wal);

  /// Whether a WAL is attached (durability on).
  bool durable() const { return wal_ != nullptr; }

  /// Writes a snapshot of the current committed state to the WAL directory
  /// and truncates changelog segments the snapshot has subsumed.  No-op
  /// without an attached WAL.  Called automatically after every DDL (the
  /// changelog carries DML only — see DESIGN.md §12).
  Status Checkpoint();

  /// Race-free snapshot of every counter, gauge and histogram of this
  /// engine.  Point-in-time gauges (watermark, chain/record counts, held
  /// grants, distinct pages touched) are refreshed first, so the snapshot
  /// is self-describing; callable from any thread while workers run.
  StatsSnapshot Stats();

  /// One epoch-reclamation pass: computes the minimum active read timestamp
  /// (falling back to the commit watermark when no reader is open), trims
  /// record chains past it, and vacuums index postings.  The background
  /// reclaimer calls this periodically; tests call it for determinism.
  /// Returns the minimum used.
  uint64_t ReclaimOnce();

  // --- Paper-message conveniences -------------------------------------------

  /// `make-class` by spec.  Additive DDL: serialized against other DDL by
  /// the §10 guard, but needs no fence — no existing instance or in-flight
  /// transaction can reference the new class.
  Result<ClassId> MakeClass(const ClassSpec& spec);

  /// §4.1 change (1), additive half: adds an attribute to `cls`.  No fence
  /// needed — existing instances simply resolve the attribute as unset.
  Status AddAttribute(ClassId cls, AttributeSpec spec);

  /// §4.1 change (3), additive half: adds a superclass edge.  Additive DDL:
  /// no instance is rewritten (inherited attributes start unset), so no
  /// fence — the edge flips atomically under the schema latch.
  Status AddSuperclass(ClassId cls, ClassId superclass);

  /// `make` by class name.  For a versionable class this creates the
  /// generic and first version instance and returns the *version* instance
  /// (its generic is reachable via `Object::generic()`).
  ///
  /// Runs as a one-shot transaction through the session layer (the §10.5
  /// standing debt is retired): creation locks, journals, registers with
  /// the schema fence, and publishes like any other DML, and conflicts
  /// retry internally.  Code already inside a transaction uses
  /// `TransactionContext::Make` instead.
  Result<Uid> Make(const std::string& class_name,
                   const std::vector<ParentBinding>& parents = {},
                   const AttrValues& attrs = {});

  /// Deletes by role: normal objects through the Deletion Rule, version
  /// instances and generics through the §5 rules.  A one-shot transaction,
  /// like `Make` — in-transaction code uses `TransactionContext::Delete`.
  Status DeleteObject(Uid uid);

  // --- §4 schema evolution with instance semantics ---------------------------

  /// Drop attribute `name` from class `cls` (must be locally defined).
  /// Instances of `cls` and of subclasses that inherit the attribute lose
  /// their values; objects referenced through a composite attribute are
  /// deleted "in accordance with the Deletion Rule": dependent-exclusive
  /// components die, dependent-shared components die when this removes
  /// their last dependent reference, independent components are detached.
  Status DropAttribute(ClassId cls, const std::string& name);

  /// Remove `superclass` from `cls`.  Attributes `cls` loses through the
  /// change are handled like DropAttribute over `cls` and its subclasses.
  Status RemoveSuperclass(ClassId cls, ClassId superclass);

  /// §4.1 change (2): "change the inheritance (parent) of an attribute
  /// (inherit another attribute with the same name)."  Existing values held
  /// under the old definition are dropped with DropAttribute semantics
  /// (composite components per the Deletion Rule) on every class whose
  /// resolution changes; afterwards `cls` resolves `name` from `source`.
  Status ChangeAttributeInheritance(ClassId cls, const std::string& name,
                                    ClassId source);

  /// Drop class `cls`: its direct instances are deleted (Deletion Rule /
  /// version rules), subclasses re-attach to its superclasses.
  Status DropClass(ClassId cls);

  /// Attribute-type change (§4.2/§4.3).  State-independent changes (I1-I4)
  /// are logged with a fresh CC and either applied to all instances now
  /// (kImmediate) or left for access-time catch-up (kDeferred).
  /// State-dependent changes (D1-D3) verify the reverse-reference state
  /// immediately and are rejected with kSchemaChangeRejected on violation;
  /// `mode` is ignored for them ("state-dependent changes require
  /// 'immediate' verification").  Composite type changes require the
  /// attribute's domain to be a class.
  Status ChangeAttributeType(ClassId cls, const std::string& attr,
                             bool to_composite, bool to_exclusive,
                             bool to_dependent,
                             ChangeMode mode = ChangeMode::kImmediate);

 private:
  /// TransactionContext drives the raw DML variants below: it owns the
  /// locks, the journal, and the fence registration the public wrappers
  /// would otherwise duplicate.
  friend class TransactionContext;

  /// The pre-§10.5 non-transactional `make`: no locks, no journal, no
  /// fence.  Reached only from inside a transaction (which did all of
  /// that) or from a fenced DDL sweep (which drained every conflicter).
  Result<Uid> MakeRaw(const std::string& class_name,
                      const std::vector<ParentBinding>& parents,
                      const AttrValues& attrs);

  /// Role-dispatching delete with the same raw contract as `MakeRaw`.
  Status DeleteObjectRaw(Uid uid);

  /// §10: every class whose instances (or resolved attributes) a DDL over
  /// `seeds` can touch — the seeds, their transitive subclasses, the same
  /// closure of every touched attribute's domain class, and, when
  /// components may be deleted, the referencing side of those domains.
  std::vector<ClassId> AffectedClassClosure(
      std::vector<ClassId> seeds,
      const std::vector<AttributeSpec>& touched_attrs) const;

  /// §10 destructive-DDL scaffold: under an already-held DdlGuard, fences
  /// `closure`, drains conflicting transactions, runs `body` inside a
  /// record-store batch with schema sealing deferred, and seals the schema
  /// versions at the batch's publish timestamp (or a fresh watermark when
  /// the body rewrote no instances) so snapshots see schema + instances
  /// change at one instant.
  Status FencedSchemaWrite(SchemaFence::DdlGuard& ddl,
                           const std::vector<ClassId>& closure,
                           const std::function<Status()>& body);

  /// Detaches every composite reference held through `spec` by instances of
  /// `classes` and deletes the components the Deletion Rule dooms.  Values
  /// for the attribute are erased.
  Status DropAttributeInstances(const std::vector<ClassId>& classes,
                                const AttributeSpec& spec);

  /// D1/D2: promote weak references through `attr` to composite ones.
  Status PromoteWeakToComposite(ClassId cls, const AttributeSpec& old_spec,
                                AttributeSpec new_spec);
  /// D3: shared -> exclusive verification and X-flag rewrite.
  Status TightenSharedToExclusive(ClassId cls, const AttributeSpec& old_spec,
                                  AttributeSpec new_spec);

  /// Declared before every subsystem: metric cells are resolved into raw
  /// pointers at construction and must outlive all of their users.
  obs::MetricsRegistry metrics_;
  obs::TraceBuffer trace_;  // sized by the constructor's trace_opts
  EngineMetrics em_;
  CellTag cell_tag_ = 0;

  ObjectStore store_;
  LogicalClock clock_;
  /// Copy-on-write committed-record chains (declared before the managers
  /// that publish into it, destroyed after them).
  RecordStore records_;
  SchemaManager schema_;
  /// §10 online-DDL coordinator (declared beside the schema it guards;
  /// transactions and DDL entry points reach it via schema_fence()).
  SchemaFence schema_fence_;
  ObjectManager objects_;
  VersionManager versions_;
  AuthorizationManager authz_;
  LockManager locks_;
  CompositeLockProtocol protocol_;
  IndexManager indexes_;

  /// Read timestamps pinned by open read-only transactions.
  ReadTsRegistry read_registry_;

  /// The commit stage chain (validate → publish → harden); sinkless until
  /// AttachWal, which is exactly the old in-memory commit path.
  CommitPipeline pipeline_;
  /// Attached durability backend, or null (in-memory engine).
  wal::WalManager* wal_ = nullptr;

  /// Background epoch reclaimer; joined (after stop) in the destructor,
  /// before any member is destroyed.  The latch guards only the stop flag
  /// and the reclaimer's sleep; it is released across ReclaimOnce.
  Latch reclaim_mu_{"db.reclaim", LatchRank::kReclaim};
  LatchCondVar reclaim_cv_;
  bool stop_reclaimer_ = false;
  std::thread reclaimer_;
};

}  // namespace orion

#endif  // ORION_CORE_DATABASE_H_
