#ifndef ORION_RPC_SERVER_H_
#define ORION_RPC_SERVER_H_

// The RPC front-end (§14): a TCP server speaking the wire.h frame
// protocol, thread-per-connection; each connection thread owns one
// `ClusterSession` and one `Interpreter` and runs its requests on them.
//
// Request routing (§14.4):
//   ping            answered in place
//   get             lock-free `ReadTransaction` on the owning cell
//   make, txn,      the connection's `ClusterSession::Run` (placement,
//   set, delete     cross-cell 2PC; a one-cell write commits on
//                   `ClusterTransaction`'s single-cell fast path)
//   select          predicate parsed by the connection's interpreter,
//                   run by `Cluster::Select` (one read transaction per
//                   cell)
//   eval            the connection's `lang/` interpreter against the
//                   authority cell; bindings (`define`) persist for the
//                   connection's lifetime
//
// Admission control: a global in-flight token bound sheds excess
// requests with the RETRYABLE wire status (clients absorb it in their
// retry loop, exactly like a lock conflict); the per-connection bound is
// structural — a connection's requests are executed serially by its
// thread, so one connection holds at most one token.  A full connection
// table rejects the socket at accept.
//
// Tracing: each request opens an adopting `obs::TraceRoot` ("rpc.server")
// on the cluster's trace buffer, joined to the TraceContext in the frame
// header when present — so a traced client call reconstructs as one tree
// through session -> 2PC -> WAL, with the client-side half connected by
// the wire's trace id (§13, §14.6).
//
/// Thread-safety: `Server` is thread-safe after `Start` — `Stop`, `port`,
/// and the metric reads may be called from any thread, concurrently with
/// the accept loop and connection threads it owns.  `Start` and the
/// destructor must not race each other.  Internally the `mu_` latch
/// (rank kRpcServer, a leaf) guards only the connection registry; it is
/// never held across a blocking socket call or a call into the engine.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "cell/cluster.h"
#include "common/latch.h"
#include "core/session.h"
#include "rpc/wire.h"

namespace orion {
class ClusterSession;
class Interpreter;
}  // namespace orion

namespace orion::rpc {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back with
  /// `port()` after Start).
  uint16_t port = 0;
  /// Connections beyond this are accepted and immediately closed
  /// (counted in rpc.connections_rejected).
  int max_connections = 256;
  /// Global in-flight request bound; excess requests are shed with
  /// WireStatus::kRetryable (counted in rpc.shed).
  int max_in_flight = 64;
  /// Frames with a larger payload are fatal for their connection.
  uint32_t max_payload_bytes = kDefaultMaxPayload;
  /// Upper bound on sub-ops in one txn request.
  uint16_t max_txn_ops = 1024;
  /// Open an "rpc.server" trace root for EVERY request.  Off by default:
  /// sampling is decided at the edge (§14.6) — the server roots a trace
  /// only when the frame header carries a nonzero trace id, so untraced
  /// calls pay no ring write on the hot path.
  bool trace_all = false;
  /// Knobs for every connection's server-side session (lock timeout,
  /// retry budget, backoff, user).
  SessionOptions session;
  /// Test hook: every admitted request holds its in-flight token this
  /// long before dispatch, making admission-control shedding
  /// deterministic in tests.  Zero in production.
  std::chrono::microseconds handler_delay{0};
};

/// Metric handles (cluster registry, resolved once — same discipline as
/// `EngineMetrics`): the `rpc.*` family exported by `Cluster::Stats()`.
struct RpcMetrics {
  obs::Gauge* connections = nullptr;        ///< rpc.connections (live)
  obs::Gauge* in_flight = nullptr;          ///< rpc.in_flight (admitted)
  obs::Counter* connections_total = nullptr;
  obs::Counter* connections_rejected = nullptr;
  obs::Counter* requests = nullptr;         ///< decoded request frames
  obs::Counter* shed = nullptr;             ///< admission-shed requests
  obs::Counter* errors = nullptr;           ///< non-OK, non-shed responses
  obs::Counter* protocol_errors = nullptr;  ///< fatal framing errors
  obs::Counter* bytes_in = nullptr;
  obs::Counter* bytes_out = nullptr;
  obs::Histogram* request_us = nullptr;     ///< dispatch latency, admitted
};

class Server {
 public:
  Server(Cluster* cluster, ServerOptions options = {});
  /// Stops and joins everything (idempotent with Stop).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept loop.  Call once.
  Status Start();

  /// Shuts down the listener and every connection, then joins all
  /// threads.  In-flight requests finish; queued-but-unread frames are
  /// dropped with the sockets.  Safe to call twice.
  void Stop();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  const RpcMetrics& metrics() const { return rm_; }

  /// A handler's outcome: the wire status plus either the encoded
  /// response payload (kOk) or the error message.
  struct HandlerResult {
    WireStatus status = WireStatus::kOk;
    std::string payload;
  };

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void Serve(Connection* conn);

  HandlerResult Dispatch(Op op, std::string_view payload,
                         ClusterSession& session, Interpreter& interp);
  HandlerResult HandleMake(std::string_view payload, ClusterSession& session);
  HandlerResult HandleGet(std::string_view payload);
  HandlerResult HandleSet(std::string_view payload, ClusterSession& session);
  HandlerResult HandleDelete(std::string_view payload,
                             ClusterSession& session);
  HandlerResult HandleSelect(std::string_view payload, Interpreter& interp);
  HandlerResult HandleEval(std::string_view payload, Interpreter& interp);
  HandlerResult HandleTxn(std::string_view payload, ClusterSession& session);

  Cluster* cluster_;
  ServerOptions options_;
  RpcMetrics rm_;

  std::atomic<bool> stop_{false};
  bool started_ = false;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  /// Guards conns_ only (leaf; see class comment).
  Latch mu_{"rpc.server", LatchRank::kRpcServer};
  std::vector<std::unique_ptr<Connection>> conns_;

  /// Admission tokens: current admitted requests, bounded by
  /// options_.max_in_flight.
  std::atomic<int> in_flight_{0};
  /// Live connections (accepted, not yet exited).
  std::atomic<int> conn_count_{0};
};

}  // namespace orion::rpc

#endif  // ORION_RPC_SERVER_H_
