#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "runtime/types.hpp"
#include "service/metrics.hpp"
#include "sparse/csr.hpp"

/// The solve-service wire protocol: length-prefixed binary frames.
///
/// Transport-agnostic by construction — encoding produces a byte vector,
/// parsing consumes a byte span; the POSIX-socket layer (service/socket)
/// only moves those bytes. One frame:
///
///   offset  size  field
///   0       4     magic "RTLS"
///   4       u32   protocol version (kServiceProtocolVersion)
///   8       u32   message type (MessageType)
///   12      u64   payload length in bytes
///   20      ...   payload (layout per message type, all little-endian)
///   20+len  u64   XXH64 checksum (runtime/hash.hpp) of every preceding byte
///
/// Parsing follows the same untrusted-input discipline as core/plan_io:
/// the header is validated before the payload is interpreted, the payload
/// length is bounded (kMaxFramePayload) before any allocation, every
/// count inside a payload is bounded and cross-checked against the exact
/// payload size *before* the arrays it sizes are allocated, the checksum
/// must match, and every violation throws a typed `ServiceError` — a
/// malformed or hostile frame can produce an error reply, never a crash,
/// a hang, or an oversized allocation.
///
/// Request/reply pairing: every request carries a client-chosen
/// `request_id` which the matching reply echoes. Replies to pipelined
/// solve requests may arrive out of submission order (the batching
/// aggregator completes whole batches); the id is the only correlation.
namespace rtl {

inline constexpr unsigned char kServiceMagic[4] = {'R', 'T', 'L', 'S'};
/// Version 1 sealed frames with FNV-1a; a v1 frame is refused as
/// kUnsupportedVersion.
inline constexpr std::uint32_t kServiceProtocolVersion = 2;

/// Bytes before the payload: magic + version + type + payload length.
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Trailing checksum bytes.
inline constexpr std::size_t kFrameTrailerBytes = 8;

/// Hard ceiling on a payload (256 MiB): large enough for a multi-million
/// row CSR upload, small enough that a corrupted length field cannot
/// drive an absurd allocation.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 28;
/// Payload bytes of an upload frame (UploadMatrixMsg) carrying an n-row
/// matrix with nnz stored entries. Exact (no wrap) for n, nnz < 2^32.
[[nodiscard]] constexpr std::uint64_t upload_payload_bytes(
    std::uint64_t n, std::uint64_t nnz) noexcept {
  return 32 + (n + 1) * sizeof(index_t) +
         nnz * (sizeof(index_t) + sizeof(real_t));
}
/// Ceiling on a workload name.
inline constexpr std::uint32_t kMaxNameLength = 256;
/// Ceiling on an error-reply message.
inline constexpr std::uint32_t kMaxErrorMessageLength = 4096;

/// Failure class of every service-layer error, wire or semantic.
enum class ServiceErrc {
  // Framing (raised while parsing bytes).
  kBadMagic,           ///< leading bytes are not "RTLS"
  kUnsupportedVersion, ///< protocol version mismatch
  kTruncated,          ///< frame shorter than the header declares
  kTrailingData,       ///< bytes beyond the declared frame
  kOversized,          ///< declared payload exceeds kMaxFramePayload
  kChecksumMismatch,   ///< trailer checksum does not match the bytes
  kBadFrame,           ///< unknown type / count bounds / size cross-check
  // Service semantics (raised while executing a request).
  kRejected,           ///< admission queue full — retry later
  kShuttingDown,       ///< service draining; no new admissions
  kUnknownSession,     ///< session id not open
  kUnknownMatrix,      ///< matrix id not registered in the session
  kUnknownWorkload,    ///< workload name not recognized
  kBadRequest,         ///< semantically invalid (dims, duplicate id, ...)
  kInternal,           ///< unexpected server-side failure
  // Transport.
  kIoError,            ///< socket read/write failure or peer disconnect
};

/// Human-readable name ("bad_magic", "rejected", ...).
[[nodiscard]] const char* service_errc_name(ServiceErrc code) noexcept;

/// Typed error thrown by every protocol and service failure path.
class ServiceError : public std::runtime_error {
 public:
  ServiceError(ServiceErrc code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] ServiceErrc code() const noexcept { return code_; }

 private:
  ServiceErrc code_;
};

/// Wire message types.
enum class MessageType : std::uint32_t {
  // Requests (client -> server).
  kUploadMatrix = 1,  ///< register a CSR matrix under a session-local id
  kOpenWorkload = 2,  ///< register a named generated problem instead
  kSolve = 3,         ///< one right-hand side against a registered matrix
  kGetMetrics = 4,    ///< snapshot the service metrics
  // Replies (server -> client).
  kAck = 16,           ///< upload/open completed (factorization ready)
  kSolveResult = 17,   ///< solution vector
  kMetricsResult = 18, ///< ServiceMetrics snapshot
  kError = 19,         ///< typed failure for the echoed request id
};

/// Register `matrix` under `matrix_id` in the sender's session and build
/// its ILU(`ilu_level`) factorization + bound solve kernels. Payload:
/// request_id u64, matrix_id u32, ilu_level u32, n u64, nnz u64,
/// row_ptr (n+1) i32, col (nnz) i32, val (nnz) f64.
struct UploadMatrixMsg {
  std::uint64_t request_id = 0;
  std::uint32_t matrix_id = 0;
  std::uint32_t ilu_level = 0;
  CsrMatrix matrix;
};

/// Register the named generated workload (see `service_workload`) under
/// `matrix_id`. Payload: request_id u64, matrix_id u32, ilu_level u32,
/// name_len u32, name bytes.
struct OpenWorkloadMsg {
  std::uint64_t request_id = 0;
  std::uint32_t matrix_id = 0;
  std::uint32_t ilu_level = 0;
  std::string name;
};

/// Apply the registered factorization to one right-hand side
/// (x = U^-1 L^-1 rhs). Payload: request_id u64, matrix_id u32,
/// n u64, rhs (n) f64.
struct SolveMsg {
  std::uint64_t request_id = 0;
  std::uint32_t matrix_id = 0;
  std::vector<real_t> rhs;
};

/// Payload: request_id u64.
struct GetMetricsMsg {
  std::uint64_t request_id = 0;
};

/// Payload: request_id u64.
struct AckMsg {
  std::uint64_t request_id = 0;
};

/// Payload: request_id u64, n u64, x (n) f64.
struct SolveResultMsg {
  std::uint64_t request_id = 0;
  std::vector<real_t> x;
};

/// Payload: request_id u64 followed by the fixed ServiceMetrics layout
/// (counter fields in declaration order, then the batch-width and latency
/// bucket arrays each preceded by their count, then cache/exec/team).
struct MetricsResultMsg {
  std::uint64_t request_id = 0;
  ServiceMetrics metrics;
};

/// Payload: request_id u64, code u32, msg_len u32, message bytes.
struct ErrorMsg {
  std::uint64_t request_id = 0;
  ServiceErrc code = ServiceErrc::kInternal;
  std::string message;
};

using ServiceMessage =
    std::variant<UploadMatrixMsg, OpenWorkloadMsg, SolveMsg, GetMetricsMsg,
                 AckMsg, SolveResultMsg, MetricsResultMsg, ErrorMsg>;

/// Request id of any message (every payload leads with it).
[[nodiscard]] std::uint64_t message_request_id(const ServiceMessage& msg);

/// Serialize one message into a complete frame (header through checksum).
[[nodiscard]] std::vector<unsigned char> encode_message(
    const ServiceMessage& msg);

/// Header fields as validated by `parse_frame_header`.
struct FrameHeader {
  MessageType type = MessageType::kError;
  std::uint64_t payload_len = 0;
};

/// Validate the fixed-size frame prefix (`kFrameHeaderBytes` bytes):
/// magic, version, known type, bounded payload length. The transport
/// calls this before allocating the payload buffer. Throws ServiceError.
[[nodiscard]] FrameHeader parse_frame_header(
    std::span<const unsigned char> header);

/// Parse and strictly validate one complete frame (header + payload +
/// checksum, exactly `frame.size()` bytes). Throws ServiceError on any
/// malformed, truncated, oversized, corrupted, or trailing-data input.
[[nodiscard]] ServiceMessage parse_message(
    std::span<const unsigned char> frame);

}  // namespace rtl
