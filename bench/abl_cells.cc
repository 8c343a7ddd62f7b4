// ABL-9: root-affine multi-cell sharding (§11) — the same fixed workload
// driven against a Cluster of 1 / 2 / 4 / 8 cells, measuring committed
// ops/sec and the speedup each cell count buys:
//
//   workload   partitioned — every transaction stays inside one composite
//                            root's hierarchy, and its associative query
//                            is root-scoped (SelectNear), so each op scans
//                            1/N of the global extent.  This isolates the
//                            partition-pruning win; on a single-core host
//                            it is the whole win.
//              10%-cross   — 90% partitioned ops, 10% transfers that write
//                            two roots (usually in different cells), so
//                            roughly one op in ten commits through the §11
//                            two-phase path.
//
// A third table row quantifies the facade tax: the partitioned workload on
// a bare pre-refactor Database (Session + live-extent Select) next to a
// 1-cell Cluster (ClusterSession + SelectNear) — the acceptance bar is
// "within ~10%".
//
// Emits BENCH_cells.json; --smoke runs a ~1k-op pass for the sanitizer CI
// legs (it exercises 2PC commit and abort frees plus SelectNear's pinned
// per-cell reads).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cell/cluster.h"
#include "cell/cluster_session.h"
#include "cell/cluster_transaction.h"
#include "core/session.h"
#include "core/transaction.h"
#include "query/query.h"
#include "workloads.h"

namespace orion::bench {
namespace {

constexpr int kThreads = 8;
constexpr int kRoots = 64;          // divisible by kThreads and by 8 cells
constexpr int kPartsPerRoot = 8;

// Compiler barrier without dragging benchmark.h into the hot loop.
template <typename T>
inline void KeepAlive(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

SessionOptions BenchOptions() {
  SessionOptions opts;
  opts.lock_timeout = std::chrono::milliseconds(200);
  opts.max_retries = 128;
  return opts;
}

// The per-op associative predicate: a non-indexed range compare, so every
// select is an extent scan — global extent on the bare Database, the
// owning cell's 1/N extent through SelectNear.
QueryPtr ScanExpr() {
  return Compare("N", CompareOp::kGe, Value::Integer(kPartsPerRoot / 2));
}

struct ClusterFixture {
  Cluster cluster;
  ClassId node = kInvalidClass;
  ClassId part = kInvalidClass;
  std::vector<Uid> roots;                 // kRoots, placed round-robin
  std::vector<std::vector<Uid>> parts;    // parts[root][i], cell-local

  explicit ClusterFixture(size_t cells) : cluster(cells) {
    part = *cluster.MakeClass(ClassSpec{
        .name = "Part", .attributes = {WeakAttr("N", "integer")}});
    node = *cluster.MakeClass(ClassSpec{
        .name = "Node",
        .attributes = {WeakAttr("Balance", "integer"),
                       CompositeAttr("Parts", "Part", /*exclusive=*/true,
                                     /*dependent=*/true, /*is_set=*/true)}});
    ClusterSession session(&cluster, BenchOptions());
    parts.resize(kRoots);
    for (int r = 0; r < kRoots; ++r) {
      Status s = session.Run([&](ClusterTransaction& txn) -> Status {
        ORION_ASSIGN_OR_RETURN(
            Uid root, txn.Make("Node", {}, {{"Balance", Value::Integer(0)}}));
        roots.push_back(root);
        for (int i = 0; i < kPartsPerRoot; ++i) {
          ORION_ASSIGN_OR_RETURN(Uid p,
                                 txn.Make("Part", {{root, "Parts"}},
                                          {{"N", Value::Integer(i)}}));
          parts[r].push_back(p);
        }
        return Status::Ok();
      });
      if (!s.ok()) {
        std::fprintf(stderr, "fixture setup failed: %s\n",
                     std::string(s.message()).c_str());
        std::abort();
      }
    }
  }
};

// One worker's op stream.  Workers partition the roots statically (worker w
// owns roots w, w+kThreads, ...), so partitioned ops never contend.  A
// cross op writes the worker's root plus a second, globally chosen root —
// with several cells those usually land in two cells and commit via 2PC.
uint64_t Worker(ClusterFixture& fx, int worker, int ops, uint32_t cross_pct) {
  ClusterSession session(&fx.cluster, BenchOptions());
  const QueryPtr expr = ScanExpr();
  Rng rng(0x51ed2701u * static_cast<uint32_t>(worker + 1));
  const int owned = kRoots / kThreads;
  uint64_t committed = 0;
  for (int i = 0; i < ops; ++i) {
    const int r = worker + kThreads * static_cast<int>(rng.Below(owned));
    if (cross_pct != 0 && rng.Percent(cross_pct)) {
      // Transfer shape: touch this root and one other (any owner).  Write
      // the lower uid first so concurrent transfers lock in one order.
      const int r2 =
          (r + 1 + static_cast<int>(rng.Below(kRoots - 1))) % kRoots;
      const Uid a = std::min(fx.roots[r], fx.roots[r2]);
      const Uid b = std::max(fx.roots[r], fx.roots[r2]);
      Status s = session.Run([&](ClusterTransaction& txn) -> Status {
        ORION_RETURN_IF_ERROR(txn.SetAttribute(
            a, "Balance", Value::Integer(static_cast<int64_t>(i))));
        return txn.SetAttribute(b, "Balance",
                                Value::Integer(-static_cast<int64_t>(i)));
      });
      if (s.ok()) {
        ++committed;
      }
      continue;
    }
    const Uid target = fx.parts[r][rng.Below(kPartsPerRoot)];
    Status s = session.Run([&](ClusterTransaction& txn) -> Status {
      return txn.SetAttribute(target, "N",
                              Value::Integer(static_cast<int64_t>(i)));
    });
    if (s.ok()) {
      ++committed;
    }
    // Root-scoped associative query: routes to the owning cell and scans
    // that cell's extent only (the §11 partition-pruning dividend).
    auto hits = fx.cluster.SelectNear(fx.roots[r], fx.part, expr);
    if (hits.ok()) {
      KeepAlive(hits->size());
    }
  }
  return committed;
}

struct CellRow {
  double ops_per_sec = 0;
  uint64_t committed = 0;
  uint64_t txn_single = 0;
  uint64_t txn_cross = 0;
  uint64_t txn_cross_aborts = 0;
};

CellRow RunCells(size_t cells, int ops_per_thread, uint32_t cross_pct) {
  ClusterFixture fx(cells);
  const uint64_t single0 = fx.cluster.cluster_metrics().txn_single->Value();
  const uint64_t cross0 = fx.cluster.cluster_metrics().txn_cross->Value();
  const uint64_t aborts0 =
      fx.cluster.cluster_metrics().txn_cross_aborts->Value();
  std::vector<uint64_t> committed(kThreads, 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&fx, t, ops_per_thread, cross_pct, &committed] {
      committed[t] = Worker(fx, t, ops_per_thread, cross_pct);
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  CellRow row;
  for (uint64_t c : committed) {
    row.committed += c;
  }
  row.ops_per_sec = elapsed > 0 ? row.committed / elapsed : 0;
  row.txn_single = fx.cluster.cluster_metrics().txn_single->Value() - single0;
  row.txn_cross = fx.cluster.cluster_metrics().txn_cross->Value() - cross0;
  row.txn_cross_aborts =
      fx.cluster.cluster_metrics().txn_cross_aborts->Value() - aborts0;
  return row;
}

// --- facade-tax baseline ----------------------------------------------------
//
// The partitioned workload on a bare Database: per-thread Sessions, the
// same write mix, and a *global* live-extent Select standing in for the
// root-scoped query (a standalone database has no cells to prune to).
// With one cell both configurations scan the full extent, so the delta is
// pure routing/facade overhead.

struct BareFixture {
  Database db;
  ClassId node = kInvalidClass;
  ClassId part = kInvalidClass;
  std::vector<Uid> roots;
  std::vector<std::vector<Uid>> parts;

  BareFixture() {
    part = *db.MakeClass(ClassSpec{
        .name = "Part", .attributes = {WeakAttr("N", "integer")}});
    node = *db.MakeClass(ClassSpec{
        .name = "Node",
        .attributes = {WeakAttr("Balance", "integer"),
                       CompositeAttr("Parts", "Part", /*exclusive=*/true,
                                     /*dependent=*/true, /*is_set=*/true)}});
    // Transactional setup, mirroring ClusterFixture exactly: the baseline
    // must differ from the 1-cell cluster only in the facade.
    Session session(&db, BenchOptions());
    parts.resize(kRoots);
    for (int r = 0; r < kRoots; ++r) {
      Status s = session.Run([&](TransactionContext& txn) -> Status {
        ORION_ASSIGN_OR_RETURN(
            Uid root, txn.Make("Node", {}, {{"Balance", Value::Integer(0)}}));
        roots.push_back(root);
        for (int i = 0; i < kPartsPerRoot; ++i) {
          ORION_ASSIGN_OR_RETURN(Uid p,
                                 txn.Make("Part", {{root, "Parts"}},
                                          {{"N", Value::Integer(i)}}));
          parts[r].push_back(p);
        }
        return Status::Ok();
      });
      if (!s.ok()) {
        std::fprintf(stderr, "bare setup failed: %s\n",
                     std::string(s.message()).c_str());
        std::abort();
      }
    }
  }
};

uint64_t BareWorker(BareFixture& fx, int worker, int ops) {
  Session session(&fx.db, BenchOptions());
  const QueryPtr expr = ScanExpr();
  Rng rng(0x51ed2701u * static_cast<uint32_t>(worker + 1));
  const int owned = kRoots / kThreads;
  uint64_t committed = 0;
  for (int i = 0; i < ops; ++i) {
    const int r = worker + kThreads * static_cast<int>(rng.Below(owned));
    const Uid target = fx.parts[r][rng.Below(kPartsPerRoot)];
    Status s = session.Run([&](TransactionContext& txn) -> Status {
      return txn.SetAttribute(target, "N",
                              Value::Integer(static_cast<int64_t>(i)));
    });
    if (s.ok()) {
      ++committed;
    }
    // Same scan the cluster runs, against the committed snapshot (the live
    // extent is not safe under the other workers' commits).
    auto hits = SelectAt(fx.db.records(), *fx.db.objects().schema(), fx.part,
                         expr, &fx.db.indexes(), fx.db.records().watermark());
    if (hits.ok()) {
      KeepAlive(hits->size());
    }
  }
  return committed;
}

double RunBare(int ops_per_thread) {
  BareFixture fx;
  std::vector<uint64_t> committed(kThreads, 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&fx, t, ops_per_thread, &committed] {
      committed[t] = BareWorker(fx, t, ops_per_thread);
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  uint64_t total = 0;
  for (uint64_t c : committed) {
    total += c;
  }
  return elapsed > 0 ? total / elapsed : 0;
}

// --- observability facade export (§13) --------------------------------------
//
// One more small cross-heavy run on a fresh 2-cell cluster, then every
// registry is exported for tools/metrics_check --cluster: each cell's own
// snapshot, the cluster registry's own snapshot, and the merged facade
// (Cluster::Stats()) in both exposition formats — written in that order,
// so background-driven counters (reclaimer passes) are monotone from the
// parts to the merged snapshot.  The cluster trace buffer is exported as
// Chrome-trace JSON for orion_trace.
void ExportFacade(int ops_per_thread) {
  ClusterFixture fx(2);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&fx, t, ops_per_thread] {
      Worker(fx, t, ops_per_thread, /*cross_pct=*/50);
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  for (size_t i = 1; i <= fx.cluster.size(); ++i) {
    std::ofstream("BENCH_cells_cell" + std::to_string(i) + ".json")
        << fx.cluster.cell(static_cast<CellTag>(i)).db().Stats().ToJson();
  }
  std::ofstream("BENCH_cells_own.json")
      << fx.cluster.metrics().Snapshot().ToJson();
  // Both merged formats come from ONE snapshot: the checker cross-reads
  // them and the background reclaimer never sleeps.
  const Cluster::StatsSnapshot merged = fx.cluster.Stats();
  std::ofstream("BENCH_cells_cluster.prom") << merged.ToPrometheus();
  std::ofstream("BENCH_cells_cluster.json") << merged.ToJson();
  std::ofstream("BENCH_cells_trace.json")
      << fx.cluster.trace().ToChromeTraceJson();
  std::printf("\nWrote BENCH_cells_cell{1,2}.json, BENCH_cells_own.json, "
              "BENCH_cells_cluster.{prom,json}, BENCH_cells_trace.json "
              "(2-cell facade export for metrics_check --cluster and "
              "orion_trace).\n");
}

void RunSweep(int ops_per_thread) {
  std::printf("=== ABL-9: multi-cell scaling (§11) ===\n");
  std::printf("%d roots x %d parts, %d threads, %d ops/thread; ops are one "
              "committed write + one root-scoped scan.\n\n",
              kRoots, kPartsPerRoot, kThreads, ops_per_thread);
  std::printf("%-12s %6s %12s %10s %11s %10s %8s %9s\n", "workload", "cells",
              "ops/sec", "committed", "txn-single", "txn-cross", "aborts",
              "speedup");
  std::ofstream json("BENCH_cells.json");
  json << "{\n  \"bench\": \"abl_cells\",\n"
       << "  \"threads\": " << kThreads << ",\n"
       << "  \"roots\": " << kRoots << ",\n"
       << "  \"parts_per_root\": " << kPartsPerRoot << ",\n"
       << "  \"ops_per_thread\": " << ops_per_thread << ",\n"
       << "  \"rows\": [";
  bool first = true;
  for (uint32_t cross_pct : {0u, 10u}) {
    const char* workload = cross_pct == 0 ? "partitioned" : "10%-cross";
    double base_ops = 0;
    for (size_t cells : {1, 2, 4, 8}) {
      const CellRow row = RunCells(cells, ops_per_thread, cross_pct);
      if (cells == 1) {
        base_ops = row.ops_per_sec;
      }
      const double speedup =
          base_ops > 0 ? row.ops_per_sec / base_ops : 0;
      std::printf("%-12s %6zu %12.0f %10llu %11llu %10llu %8llu %8.2fx\n",
                  workload, cells, row.ops_per_sec,
                  static_cast<unsigned long long>(row.committed),
                  static_cast<unsigned long long>(row.txn_single),
                  static_cast<unsigned long long>(row.txn_cross),
                  static_cast<unsigned long long>(row.txn_cross_aborts),
                  speedup);
      json << (first ? "" : ",") << "\n    {\"workload\": \"" << workload
           << "\", \"cells\": " << cells << ", \"ops_per_sec\": "
           << static_cast<uint64_t>(row.ops_per_sec)
           << ", \"committed\": " << row.committed
           << ", \"txn_single\": " << row.txn_single
           << ", \"txn_cross\": " << row.txn_cross
           << ", \"txn_cross_aborts\": " << row.txn_cross_aborts
           << ", \"speedup_vs_1\": " << speedup << "}";
      first = false;
    }
  }
  const double bare = RunBare(ops_per_thread);
  const CellRow one = RunCells(1, ops_per_thread, /*cross_pct=*/0);
  const double tax_pct =
      bare > 0 ? (bare - one.ops_per_sec) / bare * 100.0 : 0;
  std::printf("\n%-12s %6s %12.0f   (bare Database, partitioned)\n",
              "baseline", "-", bare);
  std::printf("%-12s %6d %12.0f   facade tax %.1f%% (bar: ~10%%)\n",
              "cluster", 1, one.ops_per_sec, tax_pct);
  json << "\n  ],\n  \"baseline\": {\"bare_ops_per_sec\": "
       << static_cast<uint64_t>(bare) << ", \"cluster1_ops_per_sec\": "
       << static_cast<uint64_t>(one.ops_per_sec)
       << ", \"facade_tax_pct\": " << tax_pct << "}\n}\n";
  std::printf("\nWrote BENCH_cells.json.\nThe partitioned speedup is "
              "partition pruning: SelectNear scans one cell's 1/N extent "
              "instead of the global one.  Cross-cell transfers pay the 2PC "
              "prepare round; their share caps the 10%%-cross curve per "
              "Amdahl.\n");
}

}  // namespace
}  // namespace orion::bench

int main(int argc, char** argv) {
  using namespace orion::bench;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  // --smoke: a small pass over every configuration (both workloads, all
  // cell counts, the bare baseline) so the sanitizer legs see 2PC commits,
  // prepare-refusal aborts, and SelectNear's pinned per-cell reads.
  RunSweep(/*ops_per_thread=*/smoke ? 12 : 250);
  ExportFacade(/*ops_per_thread=*/smoke ? 12 : 50);
  return 0;
}
