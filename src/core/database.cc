#include "core/database.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "core/session.h"
#include "core/snapshot.h"
#include "wal/wal.h"

namespace orion {

namespace {

/// The WAL as a commit-pipeline durability stage (DESIGN.md §12).
class WalSink : public CommitSink {
 public:
  explicit WalSink(wal::WalManager* wal) : wal_(wal) {}

  Status Harden(uint64_t commit_ts) override { return wal_->Sync(commit_ts); }

  Status PrepareRecord(uint64_t gtid, const std::string& record) override {
    return wal_->AppendPrepare(gtid, record);
  }

  void ResolvePrepared(uint64_t gtid) override { wal_->ResolvePrepare(gtid); }

 private:
  wal::WalManager* wal_;
};

}  // namespace

SessionCounters SessionCounters::Resolve(obs::MetricsRegistry& registry) {
  return SessionCounters{&registry.counter("session.commits"),
                         &registry.counter("session.retries"),
                         &registry.counter("session.failures"),
                         &registry.counter("session.backoff_us")};
}

Database::Database(uint32_t objects_per_page, CellTag cell_tag,
                   const obs::TraceOptions& trace_opts)
    : trace_(trace_opts),
      cell_tag_(cell_tag),
      store_(objects_per_page, &metrics_),
      schema_(&store_),
      objects_(&schema_, &store_, &clock_),
      versions_(&schema_, &objects_),
      authz_(&schema_, &objects_),
      locks_(&metrics_, &trace_),
      protocol_(&schema_, &objects_, &locks_),
      indexes_(&objects_, &records_, &metrics_) {
  // Before anything can allocate: every uid minted here carries this tag.
  objects_.set_cell_tag(cell_tag_);
  // trace.dropped / trace.sampled / trace.retained live beside the engine
  // metrics so one Stats() snapshot covers the tracer's own health.
  trace_.AttachMetrics(&metrics_);
  em_.txn_begins = &metrics_.counter("txn.begins");
  em_.txn_commits = &metrics_.counter("txn.commits");
  em_.txn_aborts = &metrics_.counter("txn.aborts");
  em_.txn_commit_us = &metrics_.histogram("txn.commit_us");
  em_.txn_abort_us = &metrics_.histogram("txn.abort_us");
  em_.txn_journal_size = &metrics_.histogram("txn.journal_size");
  em_.session = SessionCounters::Resolve(metrics_);
  em_.read_txns = &metrics_.counter("mvcc.read_txns");
  em_.reclaim_passes = &metrics_.counter("reclaim.passes");
  em_.reclaim_zero_passes = &metrics_.counter("reclaim.zero_passes");
  em_.reclaim_min_active_ts = &metrics_.gauge("reclaim.min_active_ts");
  em_.reclaim_last_trimmed = &metrics_.gauge("reclaim.last_trimmed");
  em_.ddl_fences = &metrics_.counter("ddl.fences");
  em_.ddl_epoch_bumps = &metrics_.counter("ddl.epoch_bumps");
  em_.ddl_drained_txns = &metrics_.counter("ddl.drained_txns");
  em_.ddl_conflicts = &metrics_.counter("ddl.conflicts");
  em_.ddl_fence_wait_us = &metrics_.histogram("ddl.fence_wait_us");
  em_.ddl_catchup_us = &metrics_.histogram("ddl.catchup_us");
  em_.ddl_epoch = &metrics_.gauge("ddl.epoch");
  {
    SchemaFence::Metrics fm;
    fm.fences = em_.ddl_fences;
    fm.epoch_bumps = em_.ddl_epoch_bumps;
    fm.drained_txns = em_.ddl_drained_txns;
    fm.conflicts = em_.ddl_conflicts;
    fm.fence_wait_us = em_.ddl_fence_wait_us;
    fm.epoch_gauge = em_.ddl_epoch;
    fm.trace = &trace_;
    schema_fence_.set_metrics(fm);
  }
  // §10: immediately-sealed schema versions (additive DDL) are stamped with
  // the record-store commit watermark, so schema history and record chains
  // ride the same logical clock.
  schema_.SetSealTimestampSource([this] { return records_.watermark(); });
  objects_.set_catchup_histogram(em_.ddl_catchup_us);
  records_.AttachMetrics(&metrics_, &trace_);
  // Wire the copy-on-write record store before the engine is reachable by
  // any other thread: sources copy live state (the publisher excludes
  // concurrent writers of a uid — X lock at commit, or it IS the mutating
  // thread), and the managers publish on every non-transactional mutation.
  records_.Configure(
      &clock_,
      [this](Uid uid) -> std::optional<Object> {
        const Object* obj = objects_.Peek(uid);
        if (obj == nullptr) {
          return std::nullopt;
        }
        return *obj;
      },
      [this](Uid uid) -> std::optional<std::pair<std::vector<Uid>, Uid>> {
        auto info = versions_.GenericInfoOf(uid);
        if (!info.ok()) {
          return std::nullopt;
        }
        return *info;
      });
  objects_.set_record_store(&records_);
  versions_.set_record_store(&records_);
  pipeline_.Configure(&schema_fence_, &records_);

  reclaimer_ = std::thread([this] {
    UniqueLatchGuard lk(reclaim_mu_);
    while (!stop_reclaimer_) {
      // Timing out IS the schedule: each pass runs every ~20ms unless
      // NotifyAll wakes the thread early for shutdown.
      (void)reclaim_cv_.WaitOnceUntil(
          lk, std::chrono::steady_clock::now() + std::chrono::milliseconds(20));
      if (stop_reclaimer_) {
        break;
      }
      lk.unlock();
      ReclaimOnce();
      lk.lock();
    }
  });
}

Database::~Database() {
  {
    LatchGuard lk(reclaim_mu_);
    stop_reclaimer_ = true;
  }
  reclaim_cv_.NotifyAll();
  if (reclaimer_.joinable()) {
    reclaimer_.join();
  }
}

uint64_t Database::ReclaimOnce() {
  obs::Span span(&trace_, "reclaim.pass");
  // The fallback watermark MUST be evaluated before MinActive acquires the
  // registry mutex (here: as its argument) — ReadTsRegistry::RegisterCurrent
  // relies on that ordering to make begin-of-read-transaction safe against a
  // concurrent trim.
  const uint64_t min_active = read_registry_.MinActive(records_.watermark());
  const size_t trimmed = records_.Trim(min_active);
  em_.reclaim_passes->Inc();
  if (trimmed == 0) {
    em_.reclaim_zero_passes->Inc();
  }
  em_.reclaim_min_active_ts->Set(static_cast<int64_t>(min_active));
  em_.reclaim_last_trimmed->Set(static_cast<int64_t>(trimmed));
  span.set_tag(trimmed);
  return min_active;
}

Database::StatsSnapshot Database::Stats() {
  // Instantaneous values live in gauges refreshed here (cold path — the
  // name lookups are fine); everything else is already in the registry.
  metrics_.gauge("mvcc.watermark").Set(
      static_cast<int64_t>(records_.watermark()));
  metrics_.gauge("mvcc.chains").Set(
      static_cast<int64_t>(records_.chain_count()));
  metrics_.gauge("mvcc.records").Set(
      static_cast<int64_t>(records_.record_count()));
  metrics_.gauge("lock.grants_held").Set(
      static_cast<int64_t>(locks_.grant_count()));
  metrics_.gauge("storage.distinct_pages").Set(
      static_cast<int64_t>(store_.tracker().distinct_pages()));
  return metrics_.Snapshot();
}

// --- §10 online DDL: additive entry points (guard, no fence) ---------------

Result<ClassId> Database::MakeClass(const ClassSpec& spec) {
  SchemaFence::DdlGuard ddl(&schema_fence_);
  ORION_ASSIGN_OR_RETURN(const ClassId id, schema_.MakeClass(spec));
  // Checkpoint-on-DDL, still inside the guard: the changelog carries DML
  // only, so the snapshot must capture the new schema before any DML
  // against it can be logged (DESIGN.md §12).
  ORION_RETURN_IF_ERROR(Checkpoint());
  return id;
}

Status Database::AddAttribute(ClassId cls, AttributeSpec spec) {
  SchemaFence::DdlGuard ddl(&schema_fence_);
  ORION_RETURN_IF_ERROR(schema_.AddAttribute(cls, std::move(spec)));
  return Checkpoint();
}

Status Database::AddSuperclass(ClassId cls, ClassId superclass) {
  SchemaFence::DdlGuard ddl(&schema_fence_);
  ORION_RETURN_IF_ERROR(schema_.AddSuperclass(cls, superclass));
  return Checkpoint();
}

// --- §10 online DDL: destructive scaffold ----------------------------------

std::vector<ClassId> Database::AffectedClassClosure(
    std::vector<ClassId> seeds,
    const std::vector<AttributeSpec>& touched_attrs) const {
  std::unordered_set<ClassId> closure;
  std::deque<ClassId> work;
  auto add_with_subclasses = [&](ClassId c) {
    for (ClassId s : schema_.SelfAndSubclasses(c)) {
      if (closure.insert(s).second) {
        work.push_back(s);
      }
    }
  };
  for (ClassId c : seeds) {
    add_with_subclasses(c);
  }
  for (const AttributeSpec& spec : touched_attrs) {
    if (!spec.is_composite()) {
      continue;
    }
    auto domain = schema_.FindClass(spec.domain);
    if (domain.ok()) {
      add_with_subclasses(*domain);
    }
  }
  // Two expansions, repeated to a fixpoint:
  //
  //  *Downward* — Deletion-Rule cascades run down the composite hierarchy:
  //  deleting an instance of a fenced class can delete its dependent
  //  components, which are instances of its composite attributes' domain
  //  classes, and so on.
  //
  //  *Upward* — transactions walk composites top-down: a txn registered
  //  only on a root class R reads (and, on delete, detaches) component
  //  instances before journaling them, so any class whose composite
  //  attributes can reference a fenced instance must be fenced too, or an
  //  unregistered walk could race the sweep.
  bool changed = true;
  while (changed) {
    changed = false;
    while (!work.empty()) {
      const ClassId c = work.front();
      work.pop_front();
      auto attrs = schema_.ResolvedAttributes(c);
      if (!attrs.ok()) {
        continue;  // dropped mid-walk; nothing to chase
      }
      for (const AttributeSpec& spec : *attrs) {
        if (!spec.is_composite()) {
          continue;
        }
        auto domain = schema_.FindClass(spec.domain);
        if (domain.ok()) {
          add_with_subclasses(*domain);
        }
      }
    }
    const size_t before = closure.size();
    for (ClassId c = 1; c <= schema_.allocated_class_count(); ++c) {
      if (closure.count(c) > 0 || schema_.GetClass(c) == nullptr) {
        continue;
      }
      auto attrs = schema_.ResolvedAttributes(c);
      if (!attrs.ok()) {
        continue;
      }
      for (const AttributeSpec& spec : *attrs) {
        if (!spec.is_composite()) {
          continue;
        }
        auto domain = schema_.FindClass(spec.domain);
        if (!domain.ok()) {
          continue;
        }
        // The attribute can hold any (reflexive) subclass of its domain, so
        // test the domain's whole subtree against the closure.
        bool reaches_fenced = false;
        for (ClassId d : schema_.SelfAndSubclasses(*domain)) {
          if (closure.count(d) > 0) {
            reaches_fenced = true;
            break;
          }
        }
        if (reaches_fenced) {
          add_with_subclasses(c);
          break;
        }
      }
    }
    changed = closure.size() != before;
  }
  return std::vector<ClassId>(closure.begin(), closure.end());
}

Status Database::FencedSchemaWrite(SchemaFence::DdlGuard& ddl,
                                   const std::vector<ClassId>& closure,
                                   const std::function<Status()>& body) {
  // 1. Fence the closure and wait out every transaction already inside it.
  //    After this returns, this thread is the only one referencing the
  //    closure's instances until the guard drops.
  ddl.FenceAndDrain(closure);
  // 2. Stage schema versions instead of sealing them one by one, so a
  //    multi-step change (drop attribute + re-parent subclasses + ...)
  //    becomes visible to timestamped readers at a single instant.
  const bool deferred = schema_.BeginDeferredSeal();
  uint64_t publish_ts = 0;
  Status st;
  {
    // Tag the sweep's publication: its redo record is written (keeping the
    // changelog a commit-order prefix) but NEVER replayed — recovery gets
    // the sweep's effects from the checkpoint below instead, because a
    // replayed sweep against a snapshot that already contains it would not
    // be idempotent for Deletion-Rule cascades (DESIGN.md §12).
    RedoTagScope redo_tag(RedoTag{RedoKind::kDdlSweep, 0});
    RecordStore::Batch publish(&records_);
    st = body();
    publish_ts = publish.Close();
  }
  if (publish_ts == 0) {
    // The body rewrote no instances (schema-only change); mint a fresh
    // watermark so the new schema versions still get a real seal point.
    publish_ts = records_.AdvanceWatermark();
  }
  if (deferred) {
    // Seal even when the body failed: partially-applied schema versions are
    // live already, and an unstamped pending version would stay invisible
    // to every future snapshot.
    schema_.SealPending(publish_ts);
  }
  // Checkpoint while the fence still blocks conflicting DML: replay skips
  // ddlsweep records, so the snapshot is the ONLY durable carrier of the
  // sweep's effects — and of partially-applied state when the body failed.
  const Status ckpt = Checkpoint();
  return st.ok() ? ckpt : st;
}

// --- Durability (DESIGN.md §12) --------------------------------------------

Status Database::AttachWal(wal::WalManager* wal) {
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("a WAL is already attached");
  }
  if (wal == nullptr || !wal->is_open()) {
    return Status::FailedPrecondition("AttachWal requires an open WAL");
  }
  wal_ = wal;
  wal->AttachMetrics(&metrics_, &trace_);
  pipeline_.AddSink(std::make_unique<WalSink>(wal));
  // The redo hook runs inside PublishBatch, under commit_mu_, so enqueue
  // order equals commit order — the changelog is a commit-order prefix of
  // history, which is what makes early lock release before Harden safe.
  records_.SetRedoSink(
      [](const std::vector<RecordStore::StagedObject>& objects,
         const std::vector<RecordStore::StagedGeneric>& generics) {
        return SerializeRedoBody(objects, generics);
      },
      [this](uint64_t ts, std::string body) {
        wal_->Enqueue(ts, RedoHeader(RedoTagScope::Current(), ts) +
                              std::move(body));
      });
  return Status::Ok();
}

Status Database::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::Ok();
  }
  uint64_t snap_ts = 0;
  const std::string text = SaveSnapshot(*this, &snap_ts);
  ORION_RETURN_IF_ERROR(wal_->WriteSnapshot(snap_ts, text));
  return wal_->TruncateBelow(snap_ts);
}

Result<Uid> Database::Make(const std::string& class_name,
                           const std::vector<ParentBinding>& parents,
                           const AttrValues& attrs) {
  // §10.5 debt retired: the public entry point is a one-shot session
  // transaction, so creation takes the same locks, journals the same
  // before-images, and registers with the schema fence exactly like DML
  // issued through a long-lived Session.
  Session session(this);
  Uid created = kNilUid;
  ORION_RETURN_IF_ERROR(
      session.Run([&](TransactionContext& txn) -> Status {
        ORION_ASSIGN_OR_RETURN(created, txn.Make(class_name, parents, attrs));
        return Status::Ok();
      }));
  return created;
}

Status Database::DeleteObject(Uid uid) {
  Session session(this);
  return session.Run(
      [&](TransactionContext& txn) -> Status { return txn.Delete(uid); });
}

Result<Uid> Database::MakeRaw(const std::string& class_name,
                              const std::vector<ParentBinding>& parents,
                              const AttrValues& attrs) {
  ORION_ASSIGN_OR_RETURN(ClassId cls, schema_.FindClass(class_name));
  const ClassDef* def = schema_.GetClass(cls);
  if (def->versionable) {
    ORION_ASSIGN_OR_RETURN(VersionedHandle handle,
                           versions_.MakeVersioned(cls, parents, attrs));
    return handle.version;
  }
  return objects_.Make(cls, parents, attrs);
}

Status Database::DeleteObjectRaw(Uid uid) {
  const Object* obj = objects_.Peek(uid);
  if (obj == nullptr) {
    return Status::NotFound("object " + uid.ToString());
  }
  switch (obj->role()) {
    case ObjectRole::kNormal:
      return objects_.Delete(uid);
    case ObjectRole::kVersion:
      return versions_.DeleteVersion(uid);
    case ObjectRole::kGeneric:
      return versions_.DeleteGeneric(uid);
  }
  return Status::Internal("unknown object role");
}

Status Database::DropAttributeInstances(const std::vector<ClassId>& classes,
                                        const AttributeSpec& spec) {
  // The whole instance sweep becomes visible to MVCC readers atomically.
  RecordStore::Batch publish(&records_);
  struct Detached {
    Uid child;
    bool was_dependent;
    bool was_exclusive;
  };
  std::vector<Detached> detached;
  for (ClassId c : classes) {
    for (Uid uid : objects_.InstancesOf(c)) {
      Object* obj = objects_.Peek(uid);
      if (obj == nullptr) {
        continue;
      }
      if (spec.is_composite()) {
        for (Uid child : obj->Get(spec.name).ReferencedUids()) {
          Status removed = objects_.RemoveComponent(child, uid, spec.name);
          if (removed.ok()) {
            detached.push_back(
                Detached{child, spec.dependent, spec.exclusive});
          }
        }
      }
      // The instance may never have had the dropped attribute set.
      (void)objects_.EraseValue(uid, spec.name);
    }
  }
  // "Objects that are referenced through A are deleted in accordance with
  // the Deletion Rule": dependent-exclusive components die; dependent-shared
  // components die when this removed their last dependent reference.
  std::unordered_set<Uid> doomed;
  for (const Detached& d : detached) {
    Object* child = objects_.Peek(d.child);
    if (child == nullptr || !d.was_dependent) {
      continue;
    }
    if (d.was_exclusive || child->DsSet().empty()) {
      doomed.insert(d.child);
    }
  }
  for (Uid uid : doomed) {
    if (objects_.Exists(uid)) {
      ORION_RETURN_IF_ERROR(DeleteObjectRaw(uid));
    }
  }
  return Status::Ok();
}

Status Database::DropAttribute(ClassId cls, const std::string& name) {
  SchemaFence::DdlGuard ddl(&schema_fence_);
  const ClassDef* def = schema_.GetClass(cls);
  if (def == nullptr) {
    return Status::NotFound("class id " + std::to_string(cls));
  }
  const AttributeSpec* own = def->FindOwnAttribute(name);
  if (own == nullptr) {
    auto defining = schema_.DefiningClass(cls, name);
    if (defining.ok()) {
      return Status::FailedPrecondition(
          "attribute '" + name + "' is inherited; drop it from class '" +
          schema_.GetClass(*defining)->name + "'");
    }
    return Status::NotFound("class '" + def->name +
                            "' has no attribute '" + name + "'");
  }
  const AttributeSpec spec = *own;
  // Instances of subclasses that *redefine* the attribute keep their
  // values; everything that resolves it to `cls` loses them.
  std::vector<ClassId> affected;
  for (ClassId c : schema_.SelfAndSubclasses(cls)) {
    auto defining = schema_.DefiningClass(c, name);
    if (defining.ok() && *defining == cls) {
      affected.push_back(c);
    }
  }
  return FencedSchemaWrite(
      ddl, AffectedClassClosure({cls}, {spec}), [&]() -> Status {
        ORION_RETURN_IF_ERROR(DropAttributeInstances(affected, spec));
        return schema_.DropAttributeSchemaOnly(cls, name);
      });
}

Status Database::RemoveSuperclass(ClassId cls, ClassId superclass) {
  SchemaFence::DdlGuard ddl(&schema_fence_);
  ORION_ASSIGN_OR_RETURN(std::vector<AttributeSpec> before,
                         schema_.ResolvedAttributes(cls));
  // The closure must be computed before the schema mutation: seed with every
  // attribute `cls` might lose — a superset of what it does lose.
  const std::vector<ClassId> closure = AffectedClassClosure({cls}, before);
  return FencedSchemaWrite(ddl, closure, [&]() -> Status {
    ORION_RETURN_IF_ERROR(schema_.RemoveSuperclassSchemaOnly(cls, superclass));
    std::unordered_set<std::string> after;
    auto after_attrs = schema_.ResolvedAttributes(cls);
    if (after_attrs.ok()) {
      for (const AttributeSpec& spec : *after_attrs) {
        after.insert(spec.name);
      }
    }
    // "If this operation causes class C to lose a composite attribute A,
    // objects that are recursively referenced by instances of C and its
    // subclasses through A are deleted according to (1)."
    for (const AttributeSpec& spec : before) {
      if (after.count(spec.name) > 0) {
        continue;
      }
      std::vector<ClassId> affected;
      for (ClassId c : schema_.SelfAndSubclasses(cls)) {
        if (!schema_.ResolveAttribute(c, spec.name).ok()) {
          affected.push_back(c);  // the subclass lost the attribute too
        }
      }
      ORION_RETURN_IF_ERROR(DropAttributeInstances(affected, spec));
    }
    return Status::Ok();
  });
}

Status Database::ChangeAttributeInheritance(ClassId cls,
                                            const std::string& name,
                                            ClassId source) {
  SchemaFence::DdlGuard ddl(&schema_fence_);
  ORION_ASSIGN_OR_RETURN(AttributeSpec old_spec,
                         schema_.ResolveAttribute(cls, name));
  ORION_ASSIGN_OR_RETURN(ClassId old_owner, schema_.DefiningClass(cls, name));
  // Which classes currently resolve `name` to the same definition as `cls`
  // (their instances' values live under the old definition)?
  std::vector<ClassId> affected;
  for (ClassId c : schema_.SelfAndSubclasses(cls)) {
    auto owner = schema_.DefiningClass(c, name);
    if (owner.ok() && *owner == old_owner) {
      affected.push_back(c);
    }
  }
  return FencedSchemaWrite(
      ddl, AffectedClassClosure({cls}, {old_spec}), [&]() -> Status {
        ORION_RETURN_IF_ERROR(
            schema_.SetAttributeInheritanceSchemaOnly(cls, name, source));
        if (*schema_.DefiningClass(cls, name) == old_owner) {
          return Status::Ok();  // resolution unchanged; values stay
        }
        // "Objects that are referenced through A are deleted in accordance
        // with the Deletion Rule" — same as dropping the old attribute from
        // the affected classes.
        return DropAttributeInstances(affected, old_spec);
      });
}

Status Database::DropClass(ClassId cls) {
  SchemaFence::DdlGuard ddl(&schema_fence_);
  const ClassDef* def = schema_.GetClass(cls);
  if (def == nullptr) {
    return Status::NotFound("class id " + std::to_string(cls));
  }
  auto own_attrs = schema_.ResolvedAttributes(cls);
  const std::vector<ClassId> closure = AffectedClassClosure(
      {cls}, own_attrs.ok() ? *own_attrs : std::vector<AttributeSpec>{});
  return FencedSchemaWrite(ddl, closure, [&]() -> Status {
    // Delete the direct extent (subclass instances keep their own class).
    // Deletions cascade, so re-fetch until the extent drains.
    while (true) {
      std::vector<Uid> extent = objects_.InstancesOf(cls);
      if (extent.empty()) {
        break;
      }
      bool progressed = false;
      for (Uid uid : extent) {
        if (!objects_.Exists(uid)) {
          continue;  // removed by an earlier cascade this round
        }
        ORION_RETURN_IF_ERROR(DeleteObjectRaw(uid));
        progressed = true;
      }
      if (!progressed) {
        break;
      }
    }
    return schema_.DropClassSchemaOnly(cls);
  });
}

namespace {

/// True if adding the prospective composite edges (parent -> child pairs)
/// on top of the existing composite references would close a cycle.
bool EdgesWouldCycle(
    ObjectManager& objects,
    const std::vector<std::pair<Uid, Uid>>& new_edges) {
  // Adjacency: existing composite edges of involved nodes plus new edges.
  std::unordered_map<Uid, std::vector<Uid>> extra;
  for (const auto& [parent, child] : new_edges) {
    extra[parent].push_back(child);
  }
  auto children_of = [&](Uid node, std::vector<Uid>& out) {
    auto comps = objects.DirectComponents(node);
    if (comps.ok()) {
      for (const auto& [uid, spec] : *comps) {
        out.push_back(uid);
      }
    }
    auto it = extra.find(node);
    if (it != extra.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  };
  // For each new edge parent -> child, parent must not be reachable from
  // child in the combined graph.
  for (const auto& [parent, child] : new_edges) {
    if (parent == child) {
      return true;
    }
    std::unordered_set<Uid> visited;
    std::deque<Uid> frontier{child};
    while (!frontier.empty()) {
      const Uid cur = frontier.front();
      frontier.pop_front();
      if (cur == parent) {
        return true;
      }
      if (!visited.insert(cur).second) {
        continue;
      }
      std::vector<Uid> next;
      children_of(cur, next);
      for (Uid n : next) {
        frontier.push_back(n);
      }
    }
  }
  return false;
}

}  // namespace

Status Database::PromoteWeakToComposite(ClassId cls,
                                        const AttributeSpec& old_spec,
                                        AttributeSpec new_spec) {
  ORION_ASSIGN_OR_RETURN(ClassId defining,
                         schema_.DefiningClass(cls, old_spec.name));
  // Collect every (holder, target) pair reached through the attribute.
  // "Step 2 above may be very expensive, since there is no reverse
  // reference corresponding to a weak reference" — this is that scan.
  std::vector<std::pair<Uid, Uid>> pairs;
  for (Uid holder : objects_.InstancesOfDeep(defining)) {
    Object* obj = objects_.Peek(holder);
    if (obj == nullptr) {
      continue;
    }
    for (Uid target : obj->Get(old_spec.name).ReferencedUids()) {
      pairs.emplace_back(holder, target);
    }
  }
  // Verification (D1: no composite references at all; D2: no exclusive
  // references) — delegated to the Make-Component Rule check, which also
  // covers domains, version rules, and pairwise cycles.
  if (new_spec.is_exclusive_composite()) {
    std::unordered_set<Uid> seen;
    for (const auto& [holder, target] : pairs) {
      if (!seen.insert(target).second) {
        return Status::SchemaChangeRejected(
            "object " + target.ToString() +
            " is weakly referenced more than once; it cannot become an "
            "exclusive component (D1)");
      }
    }
  }
  for (const auto& [holder, target] : pairs) {
    Status check = objects_.CheckAttach(new_spec, target, holder);
    if (!check.ok()) {
      return Status::SchemaChangeRejected(
          "promoting attribute '" + new_spec.name + "': " + check.message());
    }
  }
  if (EdgesWouldCycle(objects_, pairs)) {
    return Status::SchemaChangeRejected(
        "promoting attribute '" + new_spec.name +
        "' would create a cycle in the part hierarchy");
  }
  // Apply: add the reverse references, log the change, rewrite the schema.
  // (Runs inside FencedSchemaWrite's record-store batch.)
  for (const auto& [holder, target] : pairs) {
    ORION_RETURN_IF_ERROR(objects_.AttachBacklink(target, holder, new_spec));
  }
  auto domain = schema_.FindClass(new_spec.domain);
  if (domain.ok()) {
    LogEntry entry;
    entry.cc = schema_.NextCc();
    entry.change = new_spec.exclusive ? TypeChange::kToDependent
                                      : TypeChange::kToShared;
    entry.referencing_class = defining;
    entry.attribute = new_spec.name;
    entry.to_composite = true;
    entry.to_exclusive = new_spec.exclusive;
    entry.to_dependent = new_spec.dependent;
    schema_.AppendLogEntry(*domain, entry);
    for (const auto& [holder, target] : pairs) {
      Object* child = objects_.Peek(target);
      if (child != nullptr) {
        ORION_RETURN_IF_ERROR(objects_.CatchUp(child));
      }
    }
  }
  return schema_.ApplyTypeChangeSchemaOnly(cls, new_spec.name,
                                           new_spec.composite,
                                           new_spec.exclusive,
                                           new_spec.dependent);
}

Status Database::TightenSharedToExclusive(ClassId cls,
                                          const AttributeSpec& old_spec,
                                          AttributeSpec new_spec) {
  ORION_ASSIGN_OR_RETURN(ClassId defining,
                         schema_.DefiningClass(cls, old_spec.name));
  std::vector<std::pair<Uid, Uid>> pairs;
  for (Uid holder : objects_.InstancesOfDeep(defining)) {
    Object* obj = objects_.Peek(holder);
    if (obj == nullptr) {
      continue;
    }
    for (Uid target : obj->Get(old_spec.name).ReferencedUids()) {
      pairs.emplace_back(holder, target);
    }
  }
  // D3 verification: "reject the change if an instance O exists such that O
  // has more than one reverse composite reference, and at least one of the
  // reverse composite references is from an instance of the class C'."
  for (const auto& [holder, target] : pairs) {
    Object* child = objects_.Peek(target);
    if (child == nullptr) {
      continue;
    }
    ORION_RETURN_IF_ERROR(objects_.CatchUp(child));
    const size_t refs = child->is_generic() ? child->generic_refs().size()
                                            : child->reverse_refs().size();
    if (refs > 1) {
      return Status::SchemaChangeRejected(
          "object " + target.ToString() +
          " has more than one composite reference; attribute '" +
          new_spec.name + "' cannot become exclusive (D3)");
    }
  }
  // Apply via the operation-log machinery: log the absolute target flags
  // and catch the referenced instances up immediately.
  auto domain = schema_.FindClass(new_spec.domain);
  if (!domain.ok()) {
    return Status::SchemaChangeRejected(
        "attribute '" + new_spec.name +
        "' needs a class domain for a composite type change");
  }
  LogEntry entry;
  entry.cc = schema_.NextCc();
  entry.change = TypeChange::kToDependent;  // display only; flags below rule
  entry.referencing_class = defining;
  entry.attribute = new_spec.name;
  entry.to_composite = true;
  entry.to_exclusive = true;
  entry.to_dependent = new_spec.dependent;
  schema_.AppendLogEntry(*domain, entry);
  ORION_RETURN_IF_ERROR(schema_.ApplyTypeChangeSchemaOnly(
      cls, new_spec.name, true, true, new_spec.dependent));
  for (const auto& [holder, target] : pairs) {
    Object* child = objects_.Peek(target);
    if (child != nullptr) {
      ORION_RETURN_IF_ERROR(objects_.CatchUp(child));
    }
  }
  return Status::Ok();
}

Status Database::ChangeAttributeType(ClassId cls, const std::string& attr,
                                     bool to_composite, bool to_exclusive,
                                     bool to_dependent, ChangeMode mode) {
  SchemaFence::DdlGuard ddl(&schema_fence_);
  ORION_ASSIGN_OR_RETURN(
      TypeChangeClass klass,
      schema_.ClassifyTypeChange(cls, attr, to_composite, to_exclusive,
                                 to_dependent));
  ORION_ASSIGN_OR_RETURN(AttributeSpec old_spec,
                         schema_.ResolveAttribute(cls, attr));

  AttributeSpec new_spec = old_spec;
  new_spec.composite = to_composite;
  new_spec.exclusive = to_exclusive;
  new_spec.dependent = to_dependent;

  // The closure must cover instances rewritten under either interpretation
  // of the attribute — the domain closure is the same for both specs, but
  // is_composite() differs, so pass both.
  const std::vector<ClassId> closure =
      AffectedClassClosure({cls}, {old_spec, new_spec});

  if (klass.state_dependent) {
    // D1/D2: weak -> composite; D3: shared -> exclusive.  Verification
    // scans instances, so it must run inside the fence too.
    return FencedSchemaWrite(ddl, closure, [&]() -> Status {
      if (!old_spec.is_composite()) {
        return PromoteWeakToComposite(cls, old_spec, new_spec);
      }
      return TightenSharedToExclusive(cls, old_spec, new_spec);
    });
  }

  // State-independent (I1-I4): record in the operation log of the domain
  // class; apply now or at access time.
  auto domain = schema_.FindClass(old_spec.domain);
  if (!domain.ok()) {
    return Status::SchemaChangeRejected(
        "attribute '" + attr +
        "' needs a class domain for a composite type change");
  }
  ORION_ASSIGN_OR_RETURN(ClassId defining, schema_.DefiningClass(cls, attr));
  return FencedSchemaWrite(ddl, closure, [&]() -> Status {
    LogEntry entry;
    entry.cc = schema_.NextCc();
    entry.change = *klass.independent_kind;
    entry.referencing_class = defining;
    entry.attribute = attr;
    entry.to_composite = to_composite;
    entry.to_exclusive = to_exclusive;
    entry.to_dependent = to_dependent;
    schema_.AppendLogEntry(*domain, entry);
    ORION_RETURN_IF_ERROR(schema_.ApplyTypeChangeSchemaOnly(
        cls, attr, to_composite, to_exclusive, to_dependent));
    if (mode == ChangeMode::kImmediate) {
      // "This is implemented by accessing all instances of the class C ..."
      for (Uid uid : objects_.InstancesOfDeep(*domain)) {
        auto access = objects_.Access(uid);
        if (!access.ok()) {
          return access.status();
        }
      }
    }
    return Status::Ok();
  });
}

}  // namespace orion
