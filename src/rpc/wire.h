#ifndef ORION_RPC_WIRE_H_
#define ORION_RPC_WIRE_H_

// The ORION wire protocol (DESIGN.md §14): a length-prefixed, CRC-framed
// binary frame over TCP.  This header is the single source of truth for
// the frame layout and the payload encodings; server, client, tests, and
// bench all encode/decode through it.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic "ORPC" (0x4F 0x52 0x50 0x43)
//   4       1     version (kWireVersion == 1)
//   5       1     kind (1 = request, 2 = response)
//   6       2     code (Op for requests, WireStatus for responses)
//   8       2     flags (0 in v1; receivers ignore unknown bits)
//   10      2     reserved (0 in v1)
//   12      4     payload length in bytes
//   16      8     request id (echoed verbatim in the response)
//   24      8     trace id   (§13 TraceContext; 0 = untraced)
//   32      8     span id    (the caller's span the server parents to)
//   40      len   payload
//   40+len  4     CRC-32C over bytes [0, 40+len)
//
// Versioning rule (§14.5): new ops append new Op values; existing op and
// status numbers are frozen forever.  A server receiving an unknown op
// answers kBadRequest on the same connection; only a malformed FRAME
// (bad magic/version/CRC, oversized or truncated payload) closes it.
//
/// Thread-safety: everything in this header is a pure function over its
/// arguments, a single-owner value type (`Cursor`, `Frame`, `Request`), or
/// a blocking socket helper that touches only the fd it is given; nothing
/// here synchronizes, and nothing here is shared between threads by the
/// rpc layer.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/uid.h"
#include "common/value.h"
#include "obs/trace.h"

namespace orion::rpc {

inline constexpr uint32_t kWireMagic = 0x4350524F;  // "ORPC" read as LE u32
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kHeaderSize = 40;
inline constexpr size_t kTrailerSize = 4;  // the CRC
inline constexpr uint32_t kDefaultMaxPayload = 16u << 20;

inline constexpr uint8_t kKindRequest = 1;
inline constexpr uint8_t kKindResponse = 2;

/// Request operations.  Values are wire-stable (§14.5): never renumber,
/// never reuse; new ops append.
enum class Op : uint16_t {
  kPing = 0,
  kMake = 1,
  kGet = 2,
  kSet = 3,
  kDelete = 4,
  kSelect = 5,
  kEval = 6,
  kTxn = 7,
};

/// Response statuses.  Values are wire-stable (§14.5).  kRetryable is the
/// protocol's single "abort and try again" signal: the server maps every
/// conflict outcome of `Session::Run` semantics (kDeadlock, kLockTimeout,
/// kSchemaConflict, retry-budget kTimeout) and admission-control shedding
/// onto it, so clients need exactly one retry rule.
enum class WireStatus : uint16_t {
  kOk = 0,
  kRetryable = 1,
  kInvalidArgument = 2,
  kNotFound = 3,
  kAlreadyExists = 4,
  kFailedPrecondition = 5,
  kTopologyViolation = 6,
  kSchemaChangeRejected = 7,
  kAuthorizationConflict = 8,
  kAccessDenied = 9,
  kTransactionInvalid = 10,
  kInternal = 11,
  /// The request frame was intact but its payload or op was not decodable
  /// (distinct from kInvalidArgument, which is the engine rejecting a
  /// well-formed request on model rules).
  kBadRequest = 12,
};

/// Engine status -> wire status.  Conflict codes collapse to kRetryable.
WireStatus ToWireStatus(StatusCode code);

/// Wire status -> client-facing engine status.  kRetryable (after the
/// client's own retry budget is exhausted) surfaces as kTimeout — the
/// same terminal code `Session::Run` uses for budget exhaustion.
Status FromWireStatus(WireStatus status, std::string message);

const char* WireStatusName(WireStatus status);
const char* OpName(Op op);

// --- Primitive encoders (little-endian) --------------------------------------

void PutU8(std::string& out, uint8_t v);
void PutU16(std::string& out, uint16_t v);
void PutU32(std::string& out, uint32_t v);
void PutU64(std::string& out, uint64_t v);
/// u32 length + raw bytes.
void PutBytes(std::string& out, std::string_view s);
/// u8 ValueType tag + typed body (§14.2); sets are flattened one level,
/// matching the engine's "sets are not nested" rule.
void PutValue(std::string& out, const Value& v);

/// Bounds-checked sequential reader over an encoded payload.  Any
/// out-of-range read latches `ok() == false` and every subsequent read
/// returns a zero value; callers check once at the end.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  /// ok() and fully consumed — the decode-complete check.
  bool Done() const { return AtEnd(); }

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  std::string_view Bytes();
  /// Decodes a Value; malformed type tags or nesting deeper than one set
  /// level fail the cursor.
  Value TakeValue();

 private:
  const uint8_t* Take(size_t n);
  Value TakeValueDepth(int depth);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- Frames ------------------------------------------------------------------

/// One decoded frame header (payload read separately by the transport).
struct FrameHeader {
  uint8_t kind = 0;
  uint16_t code = 0;
  uint32_t length = 0;
  uint64_t request_id = 0;
  obs::TraceContext trace;
};

/// Serializes a complete frame: header + payload + CRC trailer.
std::string EncodeFrame(uint8_t kind, uint16_t code, uint64_t request_id,
                        obs::TraceContext trace, std::string_view payload);

/// Decodes and validates the fixed header (`header` must hold kHeaderSize
/// bytes).  Fails on bad magic, unknown version, unknown kind, or a
/// length above `max_payload` — all of which the transport treats as
/// fatal for the connection.
Result<FrameHeader> DecodeFrameHeader(const uint8_t* header,
                                      uint32_t max_payload);

/// True when `crc` (the trailer) matches CRC-32C(header || payload).
bool CheckFrameCrc(const uint8_t* header, std::string_view payload,
                   uint32_t crc);

/// Blocking socket I/O shared by server and client: reads exactly `n`
/// bytes / writes all of `data` (EINTR retried); false on EOF or error.
bool ReadFull(int fd, void* buf, size_t n);
bool WriteAll(int fd, std::string_view data);

// --- Request builders and response parsers -----------------------------------

/// An un-framed request: the op plus its encoded payload.  The transport
/// (client) adds request id, trace context, and the frame envelope.
struct Request {
  Op op = Op::kPing;
  std::string payload;
};

/// One parent binding on the wire: (parent uid raw, attribute name).
using WireParent = std::pair<uint64_t, std::string>;
/// One attribute initializer: (attribute name, value).
using WireAttr = std::pair<std::string, Value>;

Request PingRequest();
Request MakeRequest(const std::string& class_name,
                    const std::vector<WireParent>& parents = {},
                    const std::vector<WireAttr>& attrs = {});
Request GetRequest(Uid uid, const std::string& attribute);
Request SetRequest(Uid uid, const std::string& attribute, const Value& value);
Request DeleteRequest(Uid uid);
/// `query` is the textual s-expression predicate of the `(select ...)`
/// form, e.g. "(> salary 1000)".
Request SelectRequest(const std::string& class_name, const std::string& query);
Request EvalRequest(const std::string& program);
/// Wraps `subops` (kMake/kGet/kSet/kDelete only) into one atomic
/// transaction executed in a single `ClusterSession::Run`.
Request TxnRequest(const std::vector<Request>& subops);

Result<Uid> ParseUidResponse(std::string_view payload);
Result<Value> ParseValueResponse(std::string_view payload);
Result<std::vector<Uid>> ParseUidListResponse(std::string_view payload);
/// The per-subop response payloads, in subop order; each parses with the
/// matching single-op parser above.
Result<std::vector<std::string>> ParseTxnResponse(std::string_view payload);

}  // namespace orion::rpc

#endif  // ORION_RPC_WIRE_H_
