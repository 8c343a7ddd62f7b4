#include "rpc/wire.h"

#include <sys/socket.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "common/crc32.h"

namespace orion::rpc {

WireStatus ToWireStatus(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    // §14.3: every conflict outcome the Session::Run retry loop absorbs —
    // plus its terminal budget-exhaustion kTimeout — collapses to the one
    // wire signal clients retry on.
    case StatusCode::kDeadlock:
    case StatusCode::kLockTimeout:
    case StatusCode::kSchemaConflict:
    case StatusCode::kTimeout:
      return WireStatus::kRetryable;
    case StatusCode::kInvalidArgument:
      return WireStatus::kInvalidArgument;
    case StatusCode::kNotFound:
      return WireStatus::kNotFound;
    case StatusCode::kAlreadyExists:
      return WireStatus::kAlreadyExists;
    case StatusCode::kFailedPrecondition:
      return WireStatus::kFailedPrecondition;
    case StatusCode::kTopologyViolation:
      return WireStatus::kTopologyViolation;
    case StatusCode::kSchemaChangeRejected:
      return WireStatus::kSchemaChangeRejected;
    case StatusCode::kAuthorizationConflict:
      return WireStatus::kAuthorizationConflict;
    case StatusCode::kAccessDenied:
      return WireStatus::kAccessDenied;
    case StatusCode::kTransactionInvalid:
      return WireStatus::kTransactionInvalid;
    case StatusCode::kInternal:
      return WireStatus::kInternal;
  }
  return WireStatus::kInternal;
}

Status FromWireStatus(WireStatus status, std::string message) {
  switch (status) {
    case WireStatus::kOk:
      return Status::Ok();
    case WireStatus::kRetryable:
      return Status::Timeout(std::move(message));
    case WireStatus::kInvalidArgument:
    case WireStatus::kBadRequest:
      return Status::InvalidArgument(std::move(message));
    case WireStatus::kNotFound:
      return Status::NotFound(std::move(message));
    case WireStatus::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case WireStatus::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case WireStatus::kTopologyViolation:
      return Status::TopologyViolation(std::move(message));
    case WireStatus::kSchemaChangeRejected:
      return Status::SchemaChangeRejected(std::move(message));
    case WireStatus::kAuthorizationConflict:
      return Status::AuthorizationConflict(std::move(message));
    case WireStatus::kAccessDenied:
      return Status::AccessDenied(std::move(message));
    case WireStatus::kTransactionInvalid:
      return Status::TransactionInvalid(std::move(message));
    case WireStatus::kInternal:
      return Status::Internal(std::move(message));
  }
  return Status::Internal(std::move(message));
}

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "OK";
    case WireStatus::kRetryable:
      return "RETRYABLE";
    case WireStatus::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case WireStatus::kNotFound:
      return "NOT_FOUND";
    case WireStatus::kAlreadyExists:
      return "ALREADY_EXISTS";
    case WireStatus::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case WireStatus::kTopologyViolation:
      return "TOPOLOGY_VIOLATION";
    case WireStatus::kSchemaChangeRejected:
      return "SCHEMA_CHANGE_REJECTED";
    case WireStatus::kAuthorizationConflict:
      return "AUTHORIZATION_CONFLICT";
    case WireStatus::kAccessDenied:
      return "ACCESS_DENIED";
    case WireStatus::kTransactionInvalid:
      return "TRANSACTION_INVALID";
    case WireStatus::kInternal:
      return "INTERNAL";
    case WireStatus::kBadRequest:
      return "BAD_REQUEST";
  }
  return "WireStatus(?)";
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kPing:
      return "ping";
    case Op::kMake:
      return "make";
    case Op::kGet:
      return "get";
    case Op::kSet:
      return "set";
    case Op::kDelete:
      return "delete";
    case Op::kSelect:
      return "select";
    case Op::kEval:
      return "eval";
    case Op::kTxn:
      return "txn";
  }
  return "op(?)";
}

void PutU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void PutU16(std::string& out, uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutBytes(std::string& out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

void PutValue(std::string& out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInteger:
      PutU64(out, static_cast<uint64_t>(v.integer()));
      break;
    case ValueType::kReal:
      PutU64(out, std::bit_cast<uint64_t>(v.real()));
      break;
    case ValueType::kString:
      PutBytes(out, v.string());
      break;
    case ValueType::kRef:
      PutU64(out, v.ref().raw);
      break;
    case ValueType::kSet:
      PutU32(out, static_cast<uint32_t>(v.set().size()));
      for (const Value& e : v.set()) {
        PutValue(out, e);
      }
      break;
  }
}

const uint8_t* Cursor::Take(size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return nullptr;
  }
  const auto* p = reinterpret_cast<const uint8_t*>(data_.data()) + pos_;
  pos_ += n;
  return p;
}

uint8_t Cursor::U8() {
  const uint8_t* p = Take(1);
  return p == nullptr ? 0 : p[0];
}

uint16_t Cursor::U16() {
  const uint8_t* p = Take(2);
  if (p == nullptr) {
    return 0;
  }
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t Cursor::U32() {
  const uint8_t* p = Take(4);
  if (p == nullptr) {
    return 0;
  }
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

uint64_t Cursor::U64() {
  const uint8_t* p = Take(8);
  if (p == nullptr) {
    return 0;
  }
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

std::string_view Cursor::Bytes() {
  const uint32_t len = U32();
  const uint8_t* p = Take(len);
  if (p == nullptr) {
    return {};
  }
  return {reinterpret_cast<const char*>(p), len};
}

Value Cursor::TakeValue() { return TakeValueDepth(0); }

Value Cursor::TakeValueDepth(int depth) {
  const uint8_t tag = U8();
  if (!ok_) {
    return Value::Null();
  }
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInteger:
      return Value::Integer(static_cast<int64_t>(U64()));
    case ValueType::kReal:
      return Value::Real(std::bit_cast<double>(U64()));
    case ValueType::kString:
      return Value::String(std::string(Bytes()));
    case ValueType::kRef:
      return Value::Ref(UidFromRaw(U64()));
    case ValueType::kSet: {
      // Engine sets are one level deep; a nested set on the wire is a
      // malformed payload, not a feature.
      if (depth > 0) {
        ok_ = false;
        return Value::Null();
      }
      const uint32_t n = U32();
      // Every element needs >= 1 tag byte: a count larger than the
      // remaining bytes cannot decode, so reject before reserving.
      if (!ok_ || n > data_.size() - pos_) {
        ok_ = false;
        return Value::Null();
      }
      std::vector<Value> elems;
      elems.reserve(n);
      for (uint32_t i = 0; i < n && ok_; ++i) {
        elems.push_back(TakeValueDepth(depth + 1));
      }
      return Value::Set(std::move(elems));
    }
  }
  ok_ = false;
  return Value::Null();
}

std::string EncodeFrame(uint8_t kind, uint16_t code, uint64_t request_id,
                        obs::TraceContext trace, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size() + kTrailerSize);
  PutU32(out, kWireMagic);
  PutU8(out, kWireVersion);
  PutU8(out, kind);
  PutU16(out, code);
  PutU16(out, 0);  // flags
  PutU16(out, 0);  // reserved
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU64(out, request_id);
  PutU64(out, trace.trace_id);
  PutU64(out, trace.span_id);
  out.append(payload.data(), payload.size());
  PutU32(out, Crc32c(out.data(), out.size()));
  return out;
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* header,
                                      uint32_t max_payload) {
  Cursor c(std::string_view(reinterpret_cast<const char*>(header),
                            kHeaderSize));
  const uint32_t magic = c.U32();
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  const uint8_t version = c.U8();
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(version));
  }
  FrameHeader h;
  h.kind = c.U8();
  if (h.kind != kKindRequest && h.kind != kKindResponse) {
    return Status::InvalidArgument("unknown frame kind");
  }
  h.code = c.U16();
  c.U16();  // flags: ignored in v1
  c.U16();  // reserved
  h.length = c.U32();
  if (h.length > max_payload) {
    return Status::InvalidArgument("frame payload of " +
                                   std::to_string(h.length) +
                                   " bytes exceeds the limit");
  }
  h.request_id = c.U64();
  h.trace.trace_id = c.U64();
  h.trace.span_id = c.U64();
  return h;
}

bool CheckFrameCrc(const uint8_t* header, std::string_view payload,
                   uint32_t crc) {
  const uint32_t have =
      Crc32c(payload.data(), payload.size(), Crc32c(header, kHeaderSize));
  return have == crc;
}

bool ReadFull(int fd, void* buf, size_t n) {
  auto* p = static_cast<uint8_t*>(buf);
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r == 0) {
      return false;  // peer closed
    }
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    got += static_cast<size_t>(r);
  }
  return true;
}

bool WriteAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t r =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(r);
  }
  return true;
}

Request PingRequest() { return Request{Op::kPing, {}}; }

Request MakeRequest(const std::string& class_name,
                    const std::vector<WireParent>& parents,
                    const std::vector<WireAttr>& attrs) {
  Request r{Op::kMake, {}};
  PutBytes(r.payload, class_name);
  PutU32(r.payload, static_cast<uint32_t>(parents.size()));
  for (const WireParent& p : parents) {
    PutU64(r.payload, p.first);
    PutBytes(r.payload, p.second);
  }
  PutU32(r.payload, static_cast<uint32_t>(attrs.size()));
  for (const WireAttr& a : attrs) {
    PutBytes(r.payload, a.first);
    PutValue(r.payload, a.second);
  }
  return r;
}

Request GetRequest(Uid uid, const std::string& attribute) {
  Request r{Op::kGet, {}};
  PutU64(r.payload, uid.raw);
  PutBytes(r.payload, attribute);
  return r;
}

Request SetRequest(Uid uid, const std::string& attribute,
                   const Value& value) {
  Request r{Op::kSet, {}};
  PutU64(r.payload, uid.raw);
  PutBytes(r.payload, attribute);
  PutValue(r.payload, value);
  return r;
}

Request DeleteRequest(Uid uid) {
  Request r{Op::kDelete, {}};
  PutU64(r.payload, uid.raw);
  return r;
}

Request SelectRequest(const std::string& class_name,
                      const std::string& query) {
  Request r{Op::kSelect, {}};
  PutBytes(r.payload, class_name);
  PutBytes(r.payload, query);
  return r;
}

Request EvalRequest(const std::string& program) {
  Request r{Op::kEval, {}};
  PutBytes(r.payload, program);
  return r;
}

Request TxnRequest(const std::vector<Request>& subops) {
  Request r{Op::kTxn, {}};
  PutU16(r.payload, static_cast<uint16_t>(subops.size()));
  for (const Request& sub : subops) {
    PutU16(r.payload, static_cast<uint16_t>(sub.op));
    PutBytes(r.payload, sub.payload);
  }
  return r;
}

Result<Uid> ParseUidResponse(std::string_view payload) {
  Cursor c(payload);
  const Uid uid = UidFromRaw(c.U64());
  if (!c.Done()) {
    return Status::Internal("malformed uid response payload");
  }
  return uid;
}

Result<Value> ParseValueResponse(std::string_view payload) {
  Cursor c(payload);
  Value v = c.TakeValue();
  if (!c.Done()) {
    return Status::Internal("malformed value response payload");
  }
  return v;
}

Result<std::vector<Uid>> ParseUidListResponse(std::string_view payload) {
  Cursor c(payload);
  const uint32_t n = c.U32();
  std::vector<Uid> uids;
  if (c.ok() && n <= payload.size() / 8) {
    uids.reserve(n);
  }
  for (uint32_t i = 0; i < n && c.ok(); ++i) {
    uids.push_back(UidFromRaw(c.U64()));
  }
  if (!c.Done()) {
    return Status::Internal("malformed uid-list response payload");
  }
  return uids;
}

Result<std::vector<std::string>> ParseTxnResponse(std::string_view payload) {
  Cursor c(payload);
  const uint16_t n = c.U16();
  std::vector<std::string> parts;
  parts.reserve(n);
  for (uint16_t i = 0; i < n && c.ok(); ++i) {
    parts.emplace_back(c.Bytes());
  }
  if (!c.Done()) {
    return Status::Internal("malformed txn response payload");
  }
  return parts;
}

}  // namespace orion::rpc
