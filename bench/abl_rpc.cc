// ABL-10: the wire front-end (§14) — a read-heavy workload (7 gets : 1
// set, the shape a lookup-serving front-end sees) driven through
// rpc::Client at 1 / 8 / 64 connections, once as
// one-request-per-round-trip calls and once as 64-request pipelined
// batches.  The table reports ops/sec plus per-operation p50/p99, and
// quantifies what pipelining buys: a batch pays one round trip (and one
// syscall pair per side) for 64 operations, so the batched row's ops/sec
// must clear 3x the unbatched row at 64 connections (the acceptance
// bar) — unbatched throughput is bounded by per-op wakeups and round
// trips, batched throughput by the server's per-op work.
//
// Every connection works on its own object, so the measured delta is pure
// transport: no lock conflicts, no retries, identical server-side work
// per operation.
//
// Emits BENCH_rpc.json; --smoke runs a ~1k-op pass for the sanitizer CI
// legs and keeps the connection storm small.  Both modes end with a
// cross-cell wire workload on a 2-cell cluster and export the full
// observability surface (per-cell registries, the cluster's own registry,
// the merged facade in both formats, and the trace ring) as BENCH_rpc_*
// for tools/metrics_check --cluster and tools/orion_trace.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cell/cluster.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/wire.h"

namespace orion::bench {
namespace {

using rpc::Client;
using rpc::ClientOptions;
using rpc::MakeRequest;
using rpc::Request;
using rpc::Server;
using rpc::ServerOptions;

constexpr int kBatch = 64;

struct WireFixture {
  Cluster cluster;
  Server server;
  std::vector<Uid> objects;  // one per connection, made over the wire

  explicit WireFixture(int connections, bool trace_all = false)
      : cluster(2), server(&cluster, [trace_all] {
          ServerOptions so;
          // The bench measures transport, not admission: give every
          // connection its token so no round is shed.
          so.max_connections = 512;
          so.max_in_flight = 512;
          so.trace_all = trace_all;
          return so;
        }()) {
    if (!cluster
             .MakeClass(ClassSpec{.name = "Doc",
                                  .attributes = {WeakAttr("N", "integer")}})
             .ok() ||
        !server.Start().ok()) {
      std::fprintf(stderr, "fixture setup failed\n");
      std::abort();
    }
    auto setup = Client::Connect("127.0.0.1", server.port());
    if (!setup.ok()) {
      std::fprintf(stderr, "setup connect failed\n");
      std::abort();
    }
    for (int i = 0; i < connections; ++i) {
      auto uid = (*setup)->Make("Doc", {}, {{"N", Value::Integer(i)}});
      if (!uid.ok()) {
        std::fprintf(stderr, "setup make failed\n");
        std::abort();
      }
      objects.push_back(*uid);
    }
  }
};

/// 7 gets : 1 set on the connection's own object.
bool IsWrite(int i) { return (i & 7) == 7; }

uint64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One connection's unbatched stream: `ops` calls, each one round trip;
/// `lat_us` collects one per-operation latency sample per call.
uint64_t CallWorker(uint16_t port, Uid uid, int ops,
                    std::vector<uint32_t>& lat_us) {
  auto client = Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    return 0;
  }
  uint64_t done = 0;
  lat_us.reserve(ops);
  for (int i = 0; i < ops; ++i) {
    const uint64_t t0 = NowUs();
    const bool ok = IsWrite(i)
                        ? (*client)->Set(uid, "N", Value::Integer(i)).ok()
                        : (*client)->Get(uid, "N").ok();
    lat_us.push_back(static_cast<uint32_t>(NowUs() - t0));
    done += ok ? 1 : 0;
  }
  return done;
}

/// The same stream as kBatch-request pipelined flights; the latency
/// sample is per operation (flight time / requests in the flight) —
/// the number a caller with kBatch outstanding requests experiences.
uint64_t BatchWorker(uint16_t port, Uid uid, int ops,
                     std::vector<uint32_t>& lat_us) {
  auto client = Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    return 0;
  }
  uint64_t done = 0;
  for (int sent = 0; sent < ops; sent += kBatch) {
    const int n = std::min(kBatch, ops - sent);
    std::vector<Request> batch;
    batch.reserve(n);
    for (int i = 0; i < n; ++i) {
      if (IsWrite(sent + i)) {
        batch.push_back(rpc::SetRequest(uid, "N", Value::Integer(sent + i)));
      } else {
        batch.push_back(rpc::GetRequest(uid, "N"));
      }
    }
    const uint64_t t0 = NowUs();
    const auto replies = (*client)->CallBatch(batch);
    lat_us.push_back(static_cast<uint32_t>((NowUs() - t0) / n));
    for (const auto& r : replies) {
      done += r.ok() ? 1 : 0;
    }
  }
  return done;
}

struct Row {
  double ops_per_sec = 0;
  uint64_t completed = 0;
  uint32_t p50_us = 0;
  uint32_t p99_us = 0;
};

Row Run(int connections, int ops_per_conn, bool batched) {
  WireFixture fx(connections);
  std::vector<uint64_t> done(connections, 0);
  std::vector<std::vector<uint32_t>> lat(connections);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (int c = 0; c < connections; ++c) {
    const Uid uid = fx.objects[c];
    const uint16_t port = fx.server.port();
    workers.emplace_back([&done, &lat, c, port, uid, ops_per_conn, batched] {
      done[c] = batched ? BatchWorker(port, uid, ops_per_conn, lat[c])
                        : CallWorker(port, uid, ops_per_conn, lat[c]);
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  Row row;
  std::vector<uint32_t> all;
  for (int c = 0; c < connections; ++c) {
    row.completed += done[c];
    all.insert(all.end(), lat[c].begin(), lat[c].end());
  }
  row.ops_per_sec = elapsed > 0 ? row.completed / elapsed : 0;
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    row.p50_us = all[all.size() / 2];
    row.p99_us = all[all.size() * 99 / 100];
  }
  fx.server.Stop();
  return row;
}

// --- observability export (§13, §14.7) ---------------------------------------
//
// A short cross-cell wire workload on a fresh 2-cell cluster — every
// worker mixes single-cell calls with txn requests whose two makes land
// in different cells — then the full registry surface is exported for
// tools/metrics_check --cluster.  The server is STOPPED first: §14.7's
// quiescence rule means the exported rpc.connections / rpc.in_flight
// gauges are authoritatively zero, which the checker asserts.
void ExportFacade(int ops_per_conn) {
  const int conns = 4;
  // trace_all: the export wants "rpc.server" trees in the ring even from
  // these untraced bench clients (§14.6's edge-sampling default would
  // skip them).
  WireFixture fx(conns, /*trace_all=*/true);
  std::vector<std::thread> workers;
  for (int c = 0; c < conns; ++c) {
    const Uid uid = fx.objects[c];
    const uint16_t port = fx.server.port();
    workers.emplace_back([c, port, uid, ops_per_conn] {
      auto client = Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        return;
      }
      for (int i = 0; i < ops_per_conn; ++i) {
        if (i % 4 == 3) {
          (void)(*client)->Txn(
              {MakeRequest("Doc", {}, {{"N", Value::Integer(i)}}),
               MakeRequest("Doc", {}, {{"N", Value::Integer(-i)}})});
        } else if ((i & 1) == 0) {
          (void)(*client)->Get(uid, "N");
        } else {
          (void)(*client)->Set(uid, "N", Value::Integer(i));
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  fx.server.Stop();
  for (size_t i = 1; i <= fx.cluster.size(); ++i) {
    std::ofstream("BENCH_rpc_cell" + std::to_string(i) + ".json")
        << fx.cluster.cell(static_cast<CellTag>(i)).db().Stats().ToJson();
  }
  std::ofstream("BENCH_rpc_own.json")
      << fx.cluster.metrics().Snapshot().ToJson();
  const Cluster::StatsSnapshot merged = fx.cluster.Stats();
  std::ofstream("BENCH_rpc_cluster.prom") << merged.ToPrometheus();
  std::ofstream("BENCH_rpc_cluster.json") << merged.ToJson();
  std::ofstream("BENCH_rpc_trace.json")
      << fx.cluster.trace().ToChromeTraceJson();
  std::printf("\nWrote BENCH_rpc_cell{1,2}.json, BENCH_rpc_own.json, "
              "BENCH_rpc_cluster.{prom,json}, BENCH_rpc_trace.json "
              "(stopped-server export for metrics_check --cluster and "
              "orion_trace).\n");
}

void RunSweep(bool smoke) {
  // Unbatched round trips are the slow axis: size them so the 64-conn
  // rows still finish quickly on a small host.
  const int ops_per_conn = smoke ? 2 * kBatch : 16 * kBatch;
  std::printf("=== ABL-10: wire front-end, pipelining vs round trips "
              "(§14) ===\n");
  std::printf("7:1 get/set on per-connection objects; batch = %d "
              "requests/flight, %d ops/connection.\n\n",
              kBatch, ops_per_conn);
  std::printf("%6s %12s %9s %9s %12s %9s %9s %9s\n", "conns", "unbatched/s",
              "p50us", "p99us", "batched/s", "p50us", "p99us", "speedup");
  std::ofstream json("BENCH_rpc.json");
  json << "{\n  \"bench\": \"abl_rpc\",\n"
       << "  \"batch\": " << kBatch << ",\n"
       << "  \"ops_per_conn\": " << ops_per_conn << ",\n"
       << "  \"rows\": [";
  bool first = true;
  const std::vector<int> sweep = smoke ? std::vector<int>{1, 8}
                                       : std::vector<int>{1, 8, 64};
  for (const int conns : sweep) {
    const Row unbatched = Run(conns, ops_per_conn, /*batched=*/false);
    const Row batched = Run(conns, ops_per_conn, /*batched=*/true);
    const double speedup = unbatched.ops_per_sec > 0
                               ? batched.ops_per_sec / unbatched.ops_per_sec
                               : 0;
    std::printf("%6d %12.0f %9u %9u %12.0f %9u %9u %8.2fx\n", conns,
                unbatched.ops_per_sec, unbatched.p50_us, unbatched.p99_us,
                batched.ops_per_sec, batched.p50_us, batched.p99_us,
                speedup);
    json << (first ? "" : ",") << "\n    {\"connections\": " << conns
         << ", \"unbatched_ops_per_sec\": "
         << static_cast<uint64_t>(unbatched.ops_per_sec)
         << ", \"unbatched_p50_us\": " << unbatched.p50_us
         << ", \"unbatched_p99_us\": " << unbatched.p99_us
         << ", \"batched_ops_per_sec\": "
         << static_cast<uint64_t>(batched.ops_per_sec)
         << ", \"batched_p50_us\": " << batched.p50_us
         << ", \"batched_p99_us\": " << batched.p99_us
         << ", \"unbatched_completed\": " << unbatched.completed
         << ", \"batched_completed\": " << batched.completed
         << ", \"batched_speedup\": " << speedup << "}";
    first = false;
  }
  json << "\n  ]\n}\n";
  std::printf("\nWrote BENCH_rpc.json.\nPipelining amortizes the round "
              "trip: one flight carries %d requests, so the wire cost per "
              "operation drops by ~%dx while the server-side work per "
              "operation is unchanged.\n",
              kBatch, kBatch);
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
  RunSweep(smoke);
  ExportFacade(/*ops_per_conn=*/smoke ? 16 : 64);
  return 0;
}
