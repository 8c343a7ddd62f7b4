#include "rpc/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "cell/cluster_session.h"
#include "core/read_transaction.h"
#include "lang/interpreter.h"
#include "object/object_manager.h"
#include "lang/sexpr.h"
#include "object/object.h"
#include "obs/trace.h"

namespace orion::rpc {

Server::Server(Cluster* cluster, ServerOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  obs::MetricsRegistry& reg = cluster_->metrics();
  rm_.connections = &reg.gauge("rpc.connections");
  rm_.in_flight = &reg.gauge("rpc.in_flight");
  rm_.connections_total = &reg.counter("rpc.connections_total");
  rm_.connections_rejected = &reg.counter("rpc.connections_rejected");
  rm_.requests = &reg.counter("rpc.requests");
  rm_.shed = &reg.counter("rpc.shed");
  rm_.errors = &reg.counter("rpc.errors");
  rm_.protocol_errors = &reg.counter("rpc.protocol_errors");
  rm_.bytes_in = &reg.counter("rpc.bytes_in");
  rm_.bytes_out = &reg.counter("rpc.bytes_out");
  rm_.request_us = &reg.histogram("rpc.request_us");
}

Server::~Server() { Stop(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  // Loopback only: this is a single-host front-end; §14 documents the
  // trust model (no authentication on the wire in v1).
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status s =
        Status::Internal(std::string("bind(): ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Status s =
        Status::Internal(std::string("listen(): ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  stop_.store(false, std::memory_order_release);
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::Stop() {
  if (!started_) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  // The accept loop is joined, so conns_ gains no new entries: swap it
  // out under the latch, then shut down and join outside it (a
  // connection thread must never need mu_ to make progress toward exit,
  // and none does — Serve only touches its own Connection).
  std::vector<std::unique_ptr<Connection>> conns;
  {
    UniqueLatchGuard g(mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) {
    ::shutdown(c->fd, SHUT_RDWR);
  }
  for (auto& c : conns) {
    if (c->thread.joinable()) {
      c->thread.join();
    }
    ::close(c->fd);
  }
  started_ = false;
  // All threads joined: publish exact quiescent gauges (the per-request
  // Set calls are racy-approximate while serving; §14.7).
  conn_count_.store(0, std::memory_order_relaxed);
  in_flight_.store(0, std::memory_order_relaxed);
  rm_.connections->Set(0);
  rm_.in_flight->Set(0);
}

void Server::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd p{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&p, 1, /*timeout_ms=*/100);
    // Reap exited connection threads opportunistically on every tick.
    std::vector<std::unique_ptr<Connection>> dead;
    {
      UniqueLatchGuard g(mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          dead.push_back(std::move(*it));
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& c : dead) {
      if (c->thread.joinable()) {
        c->thread.join();
      }
      ::close(c->fd);
    }
    if (ready <= 0 || (p.revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      continue;
    }
    if (stop_.load(std::memory_order_acquire) ||
        conn_count_.load(std::memory_order_relaxed) >=
            options_.max_connections) {
      rm_.connections_rejected->Inc();
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conn_count_.fetch_add(1, std::memory_order_relaxed);
    rm_.connections->Set(conn_count_.load(std::memory_order_relaxed));
    rm_.connections_total->Inc();
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      UniqueLatchGuard g(mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { Serve(raw); });
  }
}

void Server::Serve(Connection* conn) {
  // One session and one interpreter per connection, both confined to this
  // thread: the connection's writes run on the session's retry loop, and
  // `define` bindings persist across its eval/select requests.  Both die
  // with the connection.
  ClusterSession session(cluster_, options_.session);
  Interpreter interp(&cluster_->authority());
  uint8_t header[kHeaderSize];
  // Pipelining (§14.3): responses to a burst of requests are coalesced
  // here and flushed in one send once the connection's input drains —
  // the server-side half of the batched round-trip amortization.
  std::string out;
  for (;;) {
    if (!out.empty()) {
      // Flush only when no complete header is already waiting: while the
      // client is still streaming a pipelined flight, keep appending.
      int pending = 0;
      if (::ioctl(conn->fd, FIONREAD, &pending) != 0 ||
          pending < static_cast<int>(kHeaderSize)) {
        if (!WriteAll(conn->fd, out)) {
          break;
        }
        rm_.bytes_out->Add(out.size());
        out.clear();
      }
    }
    if (!ReadFull(conn->fd, header, kHeaderSize)) {
      break;  // clean close (or reset) at a frame boundary
    }
    Result<FrameHeader> h =
        DecodeFrameHeader(header, options_.max_payload_bytes);
    if (!h.ok() || h->kind != kKindRequest) {
      rm_.protocol_errors->Inc();
      break;
    }
    // Payload and CRC trailer arrive together: one read for both.
    std::string payload(h->length + kTrailerSize, '\0');
    if (!ReadFull(conn->fd, payload.data(), payload.size())) {
      rm_.protocol_errors->Inc();
      break;
    }
    uint32_t crc = 0;
    for (int i = 3; i >= 0; --i) {
      crc = (crc << 8) |
            static_cast<uint8_t>(payload[h->length + static_cast<size_t>(i)]);
    }
    payload.resize(h->length);
    if (!CheckFrameCrc(header, payload, crc)) {
      rm_.protocol_errors->Inc();
      break;
    }
    rm_.bytes_in->Add(kHeaderSize + payload.size() + kTrailerSize);
    rm_.requests->Inc();

    WireStatus status = WireStatus::kOk;
    std::string resp;
    const int admitted = in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (admitted > options_.max_in_flight) {
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      rm_.shed->Inc();
      status = WireStatus::kRetryable;
      resp = "server at max in-flight requests; retry";
    } else {
      rm_.in_flight->Set(in_flight_.load(std::memory_order_relaxed));
      if (options_.handler_delay.count() > 0) {
        std::this_thread::sleep_for(options_.handler_delay);
      }
      const uint64_t start_us = obs::NowMicros();
      {
        // §14.6: adopt the caller's trace context — this root joins the
        // client's trace id (remote-parented), and everything the handler
        // does below (session retries, 2PC prepares, WAL waits) lands
        // under it.  Untraced requests skip the root entirely unless
        // `trace_all` asks for server-side tracing: sampling is decided
        // at the edge, so the common untraced call pays no ring write.
        const bool traced = h->trace.trace_id != 0 || options_.trace_all;
        obs::TraceRoot root(traced ? &cluster_->trace() : nullptr,
                            "rpc.server", h->request_id, h->trace);
        HandlerResult result =
            Dispatch(static_cast<Op>(h->code), payload, session, interp);
        if (result.status != WireStatus::kOk) {
          root.MarkError();
        }
        status = result.status;
        resp = std::move(result.payload);
      }
      rm_.request_us->Observe(obs::NowMicros() - start_us);
      if (status != WireStatus::kOk) {
        rm_.errors->Inc();
      }
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      rm_.in_flight->Set(in_flight_.load(std::memory_order_relaxed));
    }
    out += EncodeFrame(kKindResponse, static_cast<uint16_t>(status),
                       h->request_id, h->trace, resp);
  }
  if (!out.empty()) {
    (void)WriteAll(conn->fd, out);  // connection is going away anyway
  }
  conn_count_.fetch_sub(1, std::memory_order_relaxed);
  rm_.connections->Set(conn_count_.load(std::memory_order_relaxed));
  conn->done.store(true, std::memory_order_release);
}

Server::HandlerResult Server::Dispatch(Op op, std::string_view payload,
                                       ClusterSession& session,
                                       Interpreter& interp) {
  switch (op) {
    case Op::kPing:
      return HandlerResult{};
    case Op::kMake:
      return HandleMake(payload, session);
    case Op::kGet:
      return HandleGet(payload);
    case Op::kSet:
      return HandleSet(payload, session);
    case Op::kDelete:
      return HandleDelete(payload, session);
    case Op::kSelect:
      return HandleSelect(payload, interp);
    case Op::kEval:
      return HandleEval(payload, interp);
    case Op::kTxn:
      return HandleTxn(payload, session);
  }
  return HandlerResult{WireStatus::kBadRequest, "unknown op"};
}

namespace {

Server::HandlerResult FromStatus(const Status& s) {
  return Server::HandlerResult{ToWireStatus(s.code()), s.message()};
}

Server::HandlerResult BadRequest(const char* what) {
  return Server::HandlerResult{WireStatus::kBadRequest, what};
}

}  // namespace

Server::HandlerResult Server::HandleMake(std::string_view payload,
                                         ClusterSession& session) {
  Cursor c(payload);
  const std::string cls(c.Bytes());
  const uint32_t n_parents = c.U32();
  if (!c.ok() || n_parents > payload.size()) {
    return BadRequest("malformed make payload");
  }
  std::vector<ParentBinding> parents;
  parents.reserve(n_parents);
  for (uint32_t i = 0; i < n_parents && c.ok(); ++i) {
    const Uid parent = UidFromRaw(c.U64());
    parents.push_back(ParentBinding{parent, std::string(c.Bytes())});
  }
  const uint32_t n_attrs = c.U32();
  if (!c.ok() || n_attrs > payload.size()) {
    return BadRequest("malformed make payload");
  }
  AttrValues attrs;
  attrs.reserve(n_attrs);
  for (uint32_t i = 0; i < n_attrs && c.ok(); ++i) {
    std::string name(c.Bytes());
    attrs.emplace_back(std::move(name), c.TakeValue());
  }
  if (!c.Done()) {
    return BadRequest("malformed make payload");
  }
  Uid out;
  const Status s = session.Run([&](ClusterTransaction& ct) -> Status {
    ORION_ASSIGN_OR_RETURN(out, ct.Make(cls, parents, attrs));
    return Status::Ok();
  });
  if (!s.ok()) {
    return FromStatus(s);
  }
  HandlerResult r;
  PutU64(r.payload, out.raw);
  return r;
}

Server::HandlerResult Server::HandleGet(std::string_view payload) {
  Cursor c(payload);
  const Uid uid = UidFromRaw(c.U64());
  const std::string attr(c.Bytes());
  if (!c.Done()) {
    return BadRequest("malformed get payload");
  }
  Database* db = cluster_->CellOf(uid);
  if (db == nullptr) {
    return FromStatus(Status::NotFound("no cell owns " + uid.ToString()));
  }
  // Lock-free snapshot read at the cell's watermark — no session, no
  // admission interplay with writers.
  ReadTransaction txn(db);
  const Result<const Object*> obj = txn.Get(uid);
  if (!obj.ok()) {
    return FromStatus(obj.status());
  }
  HandlerResult r;
  PutValue(r.payload, (*obj)->Get(attr));
  return r;
}

// A one-cell set/delete commits on ClusterTransaction's single-cell fast
// path; a uid whose tag no cell owns is NOT_FOUND from its Participant.
Server::HandlerResult Server::HandleSet(std::string_view payload,
                                        ClusterSession& session) {
  Cursor c(payload);
  const Uid uid = UidFromRaw(c.U64());
  const std::string attr(c.Bytes());
  const Value value = c.TakeValue();
  if (!c.Done()) {
    return BadRequest("malformed set payload");
  }
  return FromStatus(session.Run([&](ClusterTransaction& txn) {
    return txn.SetAttribute(uid, attr, value);
  }));
}

Server::HandlerResult Server::HandleDelete(std::string_view payload,
                                           ClusterSession& session) {
  Cursor c(payload);
  const Uid uid = UidFromRaw(c.U64());
  if (!c.Done()) {
    return BadRequest("malformed delete payload");
  }
  return FromStatus(
      session.Run([&](ClusterTransaction& txn) { return txn.Delete(uid); }));
}

Server::HandlerResult Server::HandleSelect(std::string_view payload,
                                           Interpreter& interp) {
  Cursor c(payload);
  const std::string cls_name(c.Bytes());
  const std::string query(c.Bytes());
  if (!c.Done()) {
    return BadRequest("malformed select payload");
  }
  const Result<ClassId> cls =
      cluster_->authority().schema().FindClass(cls_name);
  if (!cls.ok()) {
    return FromStatus(cls.status());
  }
  Result<Sexpr> expr = ParseSexpr(query);
  if (!expr.ok()) {
    return FromStatus(expr.status());
  }
  Result<QueryPtr> q = interp.ParseQueryExpr(*expr);
  if (!q.ok()) {
    return FromStatus(q.status());
  }
  const Result<std::vector<Uid>> hits = cluster_->Select(*cls, *q);
  if (!hits.ok()) {
    return FromStatus(hits.status());
  }
  HandlerResult r;
  PutU32(r.payload, static_cast<uint32_t>(hits->size()));
  for (const Uid uid : *hits) {
    PutU64(r.payload, uid.raw);
  }
  return r;
}

Server::HandlerResult Server::HandleEval(std::string_view payload,
                                         Interpreter& interp) {
  Cursor c(payload);
  const std::string program(c.Bytes());
  if (!c.Done()) {
    return BadRequest("malformed eval payload");
  }
  // v1 scoping (§14.4): programs evaluate against the authority cell's
  // database — DML on authority-owned objects plus all read/DDL forms.
  const Result<Value> v = interp.EvalString(program);
  if (!v.ok()) {
    return FromStatus(v.status());
  }
  HandlerResult r;
  PutValue(r.payload, *v);
  return r;
}

Server::HandlerResult Server::HandleTxn(std::string_view payload,
                                        ClusterSession& session) {
  // Pre-parse every sub-op before touching the engine, so a malformed
  // sub-payload is kBadRequest (and costs nothing), never a half-run
  // transaction.
  struct ParsedSub {
    Op op = Op::kPing;
    std::string cls;
    std::vector<ParentBinding> parents;
    AttrValues attrs;
    Uid uid;
    std::string attr;
    Value value;
  };
  Cursor c(payload);
  const uint16_t n = c.U16();
  if (!c.ok() || n > options_.max_txn_ops) {
    return BadRequest("malformed txn payload");
  }
  std::vector<ParsedSub> subs;
  subs.reserve(n);
  for (uint16_t i = 0; i < n && c.ok(); ++i) {
    ParsedSub sub;
    sub.op = static_cast<Op>(c.U16());
    Cursor sc(c.Bytes());
    switch (sub.op) {
      case Op::kMake: {
        sub.cls = std::string(sc.Bytes());
        const uint32_t n_parents = sc.U32();
        for (uint32_t j = 0; j < n_parents && sc.ok(); ++j) {
          const Uid parent = UidFromRaw(sc.U64());
          sub.parents.push_back(ParentBinding{parent, std::string(sc.Bytes())});
        }
        const uint32_t n_attrs = sc.U32();
        for (uint32_t j = 0; j < n_attrs && sc.ok(); ++j) {
          std::string name(sc.Bytes());
          sub.attrs.emplace_back(std::move(name), sc.TakeValue());
        }
        break;
      }
      case Op::kGet:
        sub.uid = UidFromRaw(sc.U64());
        sub.attr = std::string(sc.Bytes());
        break;
      case Op::kSet:
        sub.uid = UidFromRaw(sc.U64());
        sub.attr = std::string(sc.Bytes());
        sub.value = sc.TakeValue();
        break;
      case Op::kDelete:
        sub.uid = UidFromRaw(sc.U64());
        break;
      default:
        return BadRequest("txn sub-op must be make/get/set/delete");
    }
    if (!sc.Done()) {
      return BadRequest("malformed txn sub-op payload");
    }
    subs.push_back(std::move(sub));
  }
  if (!c.Done()) {
    return BadRequest("malformed txn payload");
  }

  std::vector<std::string> results;
  const Status s = session.Run([&](ClusterTransaction& ct) -> Status {
    // The closure may re-run after a conflict abort; per-attempt results
    // start clean.
    results.clear();
    results.reserve(subs.size());
    for (const ParsedSub& sub : subs) {
      std::string out;
      switch (sub.op) {
        case Op::kMake: {
          Uid made;
          ORION_ASSIGN_OR_RETURN(made,
                                 ct.Make(sub.cls, sub.parents, sub.attrs));
          PutU64(out, made.raw);
          break;
        }
        case Op::kGet: {
          const Object* obj = nullptr;
          ORION_ASSIGN_OR_RETURN(obj, ct.Read(sub.uid));
          PutValue(out, obj->Get(sub.attr));
          break;
        }
        case Op::kSet:
          ORION_RETURN_IF_ERROR(
              ct.SetAttribute(sub.uid, sub.attr, sub.value));
          break;
        case Op::kDelete:
          ORION_RETURN_IF_ERROR(ct.Delete(sub.uid));
          break;
        default:
          return Status::InvalidArgument("unreachable txn sub-op");
      }
      results.push_back(std::move(out));
    }
    return Status::Ok();
  });
  if (!s.ok()) {
    return FromStatus(s);
  }
  HandlerResult r;
  PutU16(r.payload, static_cast<uint16_t>(results.size()));
  for (const std::string& part : results) {
    PutBytes(r.payload, part);
  }
  return r;
}

}  // namespace orion::rpc
