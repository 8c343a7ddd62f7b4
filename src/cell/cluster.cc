#include "cell/cluster.h"

#include <algorithm>
#include <set>

#include "core/read_transaction.h"
#include "core/recovery.h"
#include "core/snapshot_codec.h"

namespace orion {

Cluster::Cluster(size_t cells, uint32_t objects_per_page,
                 const obs::TraceOptions& trace_opts)
    : trace_(trace_opts) {
  trace_.AttachMetrics(&metrics_);
  cells = std::max<size_t>(1, std::min<size_t>(cells, kMaxCellTag));
  cells_.reserve(cells);
  for (size_t i = 0; i < cells; ++i) {
    cells_.push_back(std::make_unique<Cell>(static_cast<CellTag>(i + 1),
                                            objects_per_page, trace_opts));
  }
  for (const auto& c : cells_) {
    c->db().objects().set_foreign_class_resolver(
        [this](Uid uid) { return ForeignClassOf(uid); });
  }
  cm_.session = SessionCounters::Resolve(metrics_);
  cm_.txn_single = &metrics_.counter("cell.txn.single");
  cm_.txn_cross = &metrics_.counter("cell.txn.cross");
  cm_.txn_cross_aborts = &metrics_.counter("cell.txn.cross_aborts");
  cm_.prepare_us = &metrics_.histogram("cell.2pc.prepare_us");
  cm_.decisions = &metrics_.counter("cluster.decisions");
  cm_.decision_log_segment = &metrics_.gauge("cluster.decision_log.segment");
  cm_.cell_commits.reserve(cells);
  for (size_t i = 0; i < cells; ++i) {
    cm_.cell_commits.push_back(
        &metrics_.counter("cell.commits." + std::to_string(i + 1)));
  }
}

Database* Cluster::CellOf(Uid uid) {
  const CellTag tag = CellTagOf(uid);
  if (tag < 1 || tag > cells_.size()) {
    return nullptr;
  }
  return &cells_[tag - 1]->db();
}

const Database* Cluster::CellOf(Uid uid) const {
  const CellTag tag = CellTagOf(uid);
  if (tag < 1 || tag > cells_.size()) {
    return nullptr;
  }
  return &cells_[tag - 1]->db();
}

ClassId Cluster::ForeignClassOf(Uid uid) const {
  const Database* owner = CellOf(uid);
  if (owner == nullptr) {
    return kInvalidClass;
  }
  // Committed chain at the owner's watermark: an immutable copy, safe to
  // read with no locks held in that cell.  A live-but-unpublished object
  // resolves as unknown — exactly the visibility a foreign reader gets.
  const auto record =
      owner->records().GetAt(uid, owner->records().watermark());
  return record == nullptr ? kInvalidClass : record->class_id();
}

Status Cluster::FanOut(const char* what,
                       const std::function<Status(Database&)>& op) {
  LatchGuard g(ddl_mu_);
  // Authority first: if the DDL is invalid, it fails here with every cell
  // still identical.  A later cell can still refuse: D1–D3 type changes
  // also validate that cell's own instances (see the class comment).
  ORION_RETURN_IF_ERROR(op(authority()));
  for (size_t i = 1; i < cells_.size(); ++i) {
    Status s = op(cells_[i]->db());
    if (!s.ok()) {
      return Status::Internal(std::string("schema divergence: ") + what +
                              " succeeded on cell 1 but failed on cell " +
                              std::to_string(i + 1) + ": " + s.message());
    }
  }
  return Status::Ok();
}

Result<ClassId> Cluster::MakeClass(const ClassSpec& spec) {
  ClassId authority_id = kInvalidClass;
  ORION_RETURN_IF_ERROR(FanOut("make-class", [&](Database& db) -> Status {
    ORION_ASSIGN_OR_RETURN(ClassId id, db.MakeClass(spec));
    if (authority_id == kInvalidClass) {
      authority_id = id;
    } else if (id != authority_id) {
      return Status::InvalidArgument(
          "cell assigned class id " + std::to_string(id) +
          ", authority assigned " + std::to_string(authority_id));
    }
    return Status::Ok();
  }));
  return authority_id;
}

Status Cluster::AddAttribute(ClassId cls, AttributeSpec spec) {
  return FanOut("add-attribute", [&](Database& db) {
    return db.AddAttribute(cls, spec);
  });
}

Status Cluster::AddSuperclass(ClassId cls, ClassId superclass) {
  return FanOut("add-superclass", [&](Database& db) {
    return db.AddSuperclass(cls, superclass);
  });
}

Status Cluster::DropAttribute(ClassId cls, const std::string& name) {
  return FanOut("drop-attribute", [&](Database& db) {
    return db.DropAttribute(cls, name);
  });
}

Status Cluster::RemoveSuperclass(ClassId cls, ClassId superclass) {
  return FanOut("remove-superclass", [&](Database& db) {
    return db.RemoveSuperclass(cls, superclass);
  });
}

Status Cluster::ChangeAttributeInheritance(ClassId cls,
                                           const std::string& name,
                                           ClassId source) {
  return FanOut("change-attribute-inheritance", [&](Database& db) {
    return db.ChangeAttributeInheritance(cls, name, source);
  });
}

Status Cluster::DropClass(ClassId cls) {
  return FanOut("drop-class",
                [&](Database& db) { return db.DropClass(cls); });
}

Status Cluster::ChangeAttributeType(ClassId cls, const std::string& attr,
                                    bool to_composite, bool to_exclusive,
                                    bool to_dependent, ChangeMode mode) {
  return FanOut("change-attribute-type", [&](Database& db) {
    return db.ChangeAttributeType(cls, attr, to_composite, to_exclusive,
                                  to_dependent, mode);
  });
}

// Per-cell parts are joined in ascending tag order.  A uid's top byte is
// its cell tag, so each sorted part sorts after the previous one and the
// joined list is sorted and duplicate-free with no merge.

std::vector<Uid> Cluster::InstancesOf(ClassId cls) {
  std::vector<Uid> out;
  for (const auto& c : cells_) {
    const ReadTransaction rt(&c->db());
    const std::vector<Uid> part = rt.InstancesOf(cls);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

Result<std::vector<Uid>> Cluster::Select(ClassId cls, const QueryPtr& expr) {
  std::vector<Uid> out;
  for (const auto& c : cells_) {
    const ReadTransaction rt(&c->db());
    ORION_ASSIGN_OR_RETURN(const std::vector<Uid> part, rt.Select(cls, expr));
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

Result<std::vector<Uid>> Cluster::SelectNear(Uid near, ClassId cls,
                                             const QueryPtr& expr) {
  Database* owner = CellOf(near);
  if (owner == nullptr) {
    return Status::NotFound("no cell owns object " + near.ToString());
  }
  return ReadTransaction(owner).Select(cls, expr);
}

// --- Durability (DESIGN.md §12) --------------------------------------------

Status Cluster::EnableDurability(const std::string& dir,
                                 const wal::WalOptions& opts) {
  if (durable_) {
    return Status::FailedPrecondition("durability is already enabled");
  }
  // The decision log first: cell recovery resolves undecided prepares
  // against it.  Decisions are framed `decision <gtid> commit` with
  // ts = gtid (a decision per se has no commit timestamp).
  ORION_RETURN_IF_ERROR(
      decision_log_.Open(dir + "/cluster", opts.segment_bytes));
  std::set<uint64_t> decided;
  uint64_t max_gtid = 0;
  {
    ORION_ASSIGN_OR_RETURN(wal::LogContents decisions,
                           decision_log_.ReadAll());
    for (const wal::Frame& frame : decisions.frames) {
      const size_t eol = frame.payload.find('\n');
      const std::string line = eol == std::string::npos
                                   ? frame.payload
                                   : frame.payload.substr(0, eol);
      ORION_ASSIGN_OR_RETURN(std::vector<std::string> tok,
                             codec::Tokenize(line));
      if (tok.size() != 3 || tok[0] != "decision" || tok[2] != "commit") {
        return Status::InvalidArgument("malformed decision record: " + line);
      }
      const uint64_t gtid = codec::ParseU64(tok[1]);
      decided.insert(gtid);
      max_gtid = std::max(max_gtid, gtid);
    }
  }
  wals_.reserve(cells_.size());
  for (const auto& c : cells_) {
    Database& db = c->db();
    auto w = std::make_unique<wal::WalManager>();
    ORION_RETURN_IF_ERROR(
        w->Open(dir + "/cell-" + std::to_string(c->tag()), opts));
    RecoveryStats stats;
    ORION_RETURN_IF_ERROR(ReplayInto(db, *w, &stats));
    // A prepare with no commit2pc in this cell's log is resolved by the
    // coordinator's decision: logged -> the commit happened (some cell may
    // already have published phase 2), so this cell applies the prepare's
    // redo payload at a fresh timestamp; unlogged -> presumed abort (the
    // payload was never published, so dropping it IS the abort).
    for (const auto& [gtid, body] : stats.unresolved_prepares) {
      max_gtid = std::max(max_gtid, gtid);
      if (decided.count(gtid) > 0) {
        ORION_RETURN_IF_ERROR(ApplyRedoBody(db, body));
      }
    }
    ORION_RETURN_IF_ERROR(db.AttachWal(w.get()));
    // Checkpoint before serving: the replayed tail and any decision-log
    // resolutions are subsumed into a fresh snapshot.
    ORION_RETURN_IF_ERROR(db.Checkpoint());
    wals_.push_back(std::move(w));
  }
  next_gtid_.store(max_gtid + 1, std::memory_order_relaxed);
  durable_ = true;
  return Status::Ok();
}

Status Cluster::LogDecision(uint64_t gtid) {
  LatchGuard g(decision_mu_);
  ORION_RETURN_IF_ERROR(decision_log_.Append(
      gtid, "decision " + std::to_string(gtid) + " commit\n"));
  ORION_RETURN_IF_ERROR(decision_log_.Sync());
  cm_.decisions->Inc();
  return Status::Ok();
}

Cluster::StatsSnapshot Cluster::Stats() {
  // Refresh the facade's own point-in-time gauges before snapshotting.
  if (durable_) {
    cm_.decision_log_segment->Set(
        static_cast<int64_t>(decision_log_.current_segment()));
  }
  // The cluster's own registry (cell.* mix counters, 2PC latency, decision
  // log, ClusterSession outcomes, the cluster trace buffer's health) passes
  // through unlabeled.
  StatsSnapshot out = metrics_.Snapshot();
  for (const auto& c : cells_) {
    const std::string label = "|cell=" + std::to_string(c->tag());
    StatsSnapshot cell = c->db().Stats();
    // Counters are rates: the cluster-wide value is the sum.  A family the
    // cluster registry also owns (session.*, trace.*) sums in as well — the
    // facade counts every session path and every buffer, cluster-level and
    // per-cell.
    for (const auto& [name, value] : cell.counters) {
      out.counters[name] += value;
    }
    // Gauges are point-in-time per-cell facts (watermarks, chain counts);
    // summing them is meaningless, so they stay per cell, labeled.
    for (const auto& [name, value] : cell.gauges) {
      out.gauges[name + label] = value;
    }
    // Histograms merge bucket-wise: the cluster-wide distribution.
    for (const auto& [name, hist] : cell.histograms) {
      obs::HistogramSnapshot& merged = out.histograms[name];
      merged.count += hist.count;
      merged.sum += hist.sum;
      for (size_t i = 0; i < obs::HistogramSnapshot::kBuckets; ++i) {
        merged.buckets[i] += hist.buckets[i];
      }
    }
  }
  return out;
}

Status Cluster::Checkpoint() {
  for (const auto& c : cells_) {
    ORION_RETURN_IF_ERROR(c->db().Checkpoint());
  }
  return Status::Ok();
}

}  // namespace orion
