#include "service/protocol.hpp"

#include <bit>
#include <cstring>

#include "runtime/hash.hpp"

namespace rtl {

namespace {

[[noreturn]] void fail(ServiceErrc code, const std::string& what) {
  throw ServiceError(code, "service: " + what + " (" +
                               service_errc_name(code) + ")");
}

/// Little-endian encoder appending to a byte vector.
class Writer {
 public:
  explicit Writer(std::vector<unsigned char>& out) : out_(out) {}

  void bytes(const void* p, std::size_t len) {
    const auto* b = static_cast<const unsigned char*>(p);
    out_.insert(out_.end(), b, b + len);
  }
  void u32(std::uint32_t v) {
    unsigned char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 4);
  }
  void u64(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 8);
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void indices(std::span<const index_t> v) {
    if constexpr (std::endian::native == std::endian::little) {
      bytes(v.data(), v.size() * sizeof(index_t));
    } else {
      for (const index_t x : v) u32(static_cast<std::uint32_t>(x));
    }
  }
  void reals(std::span<const real_t> v) {
    if constexpr (std::endian::native == std::endian::little) {
      bytes(v.data(), v.size() * sizeof(real_t));
    } else {
      for (const real_t x : v) f64(x);
    }
  }

 private:
  std::vector<unsigned char>& out_;
};

/// Little-endian decoder over a payload span. Reads past the end throw
/// kTruncated — unreachable once the exact-size cross-check has passed,
/// but kept as defense in depth.
class Reader {
 public:
  explicit Reader(std::span<const unsigned char> data) : data_(data) {}

  void bytes(void* p, std::size_t len) {
    if (len > data_.size() - pos_) {
      fail(ServiceErrc::kTruncated, "payload ends mid-field");
    }
    std::memcpy(p, data_.data() + pos_, len);
    pos_ += len;
  }
  std::uint32_t u32() {
    unsigned char b[4];
    bytes(b, 4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{b[i]} << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    unsigned char b[8];
    bytes(b, 8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{b[i]} << (8 * i);
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::vector<index_t> indices(std::size_t count) {
    std::vector<index_t> v(count);
    if constexpr (std::endian::native == std::endian::little) {
      if (count > 0) bytes(v.data(), count * sizeof(index_t));
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        v[i] = static_cast<index_t>(u32());
      }
    }
    return v;
  }
  std::vector<real_t> reals(std::size_t count) {
    std::vector<real_t> v(count);
    if constexpr (std::endian::native == std::endian::little) {
      if (count > 0) bytes(v.data(), count * sizeof(real_t));
    } else {
      for (std::size_t i = 0; i < count; ++i) v[i] = f64();
    }
    return v;
  }
  std::string str(std::size_t len) {
    std::string s(len, '\0');
    if (len > 0) bytes(s.data(), len);
    return s;
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  std::span<const unsigned char> data_;
  std::size_t pos_ = 0;
};

constexpr std::uint64_t kMaxIndex = 0x7fffffffull;  // fits index_t

/// The declared payload size must equal the size the counts imply,
/// checked before any count-sized allocation happens.
void require_exact(std::size_t actual, std::uint64_t expected,
                   const char* what) {
  if (actual != expected) {
    fail(ServiceErrc::kBadFrame,
         std::string(what) + " payload size inconsistent with its counts");
  }
}

// --- payload encoders ------------------------------------------------------

void encode_payload(Writer& w, const UploadMatrixMsg& m) {
  w.u64(m.request_id);
  w.u32(m.matrix_id);
  w.u32(m.ilu_level);
  w.u64(static_cast<std::uint64_t>(m.matrix.rows()));
  w.u64(static_cast<std::uint64_t>(m.matrix.nnz()));
  w.indices(m.matrix.row_ptr());
  w.indices(m.matrix.col_idx());
  w.reals(m.matrix.values());
}

void encode_payload(Writer& w, const OpenWorkloadMsg& m) {
  if (m.name.size() > kMaxNameLength) {
    fail(ServiceErrc::kBadFrame, "workload name too long");
  }
  w.u64(m.request_id);
  w.u32(m.matrix_id);
  w.u32(m.ilu_level);
  w.u32(static_cast<std::uint32_t>(m.name.size()));
  w.bytes(m.name.data(), m.name.size());
}

void encode_payload(Writer& w, const SolveMsg& m) {
  w.u64(m.request_id);
  w.u32(m.matrix_id);
  w.u64(m.rhs.size());
  w.reals(m.rhs);
}

void encode_payload(Writer& w, const GetMetricsMsg& m) { w.u64(m.request_id); }

void encode_payload(Writer& w, const AckMsg& m) { w.u64(m.request_id); }

void encode_payload(Writer& w, const SolveResultMsg& m) {
  w.u64(m.request_id);
  w.u64(m.x.size());
  w.reals(m.x);
}

void encode_payload(Writer& w, const MetricsResultMsg& m) {
  const ServiceMetrics& s = m.metrics;
  w.u64(m.request_id);
  w.u64(s.admitted);
  w.u64(s.rejected);
  w.u64(s.queue_depth);
  w.u64(s.queue_depth_peak);
  w.u64(s.queue_capacity);
  w.u64(s.completed);
  w.u64(s.request_errors);
  w.u64(s.sessions_opened);
  w.u64(s.sessions_closed);
  w.u64(s.matrices_uploaded);
  w.u64(s.workloads_opened);
  w.u64(s.batches);
  w.u64(s.max_batch);
  w.u32(kBatchWidthBuckets);
  for (const std::uint64_t c : s.batch_width_hist) w.u64(c);
  w.u32(LatencySnapshot::kBuckets);
  for (const std::uint64_t c : s.solve_latency.counts) w.u64(c);
  w.u64(s.cache.hits);
  w.u64(s.cache.misses);
  w.u64(s.cache.evictions);
  w.u64(s.cache.entries);
  w.u64(s.cache.disk_hits);
  w.u64(s.cache.disk_misses);
  w.u64(s.cache.disk_writes);
  w.u64(s.cache.disk_rejects);
  w.u64(s.exec.flag_publishes);
  w.u64(s.exec.steals);
  w.u64(s.exec.barrier_waits);
  w.u64(s.team_size);
}

void encode_payload(Writer& w, const ErrorMsg& m) {
  if (m.message.size() > kMaxErrorMessageLength) {
    fail(ServiceErrc::kBadFrame, "error message too long");
  }
  w.u64(m.request_id);
  w.u32(static_cast<std::uint32_t>(m.code));
  w.u32(static_cast<std::uint32_t>(m.message.size()));
  w.bytes(m.message.data(), m.message.size());
}

MessageType type_of(const ServiceMessage& msg) {
  struct Visitor {
    MessageType operator()(const UploadMatrixMsg&) const {
      return MessageType::kUploadMatrix;
    }
    MessageType operator()(const OpenWorkloadMsg&) const {
      return MessageType::kOpenWorkload;
    }
    MessageType operator()(const SolveMsg&) const { return MessageType::kSolve; }
    MessageType operator()(const GetMetricsMsg&) const {
      return MessageType::kGetMetrics;
    }
    MessageType operator()(const AckMsg&) const { return MessageType::kAck; }
    MessageType operator()(const SolveResultMsg&) const {
      return MessageType::kSolveResult;
    }
    MessageType operator()(const MetricsResultMsg&) const {
      return MessageType::kMetricsResult;
    }
    MessageType operator()(const ErrorMsg&) const {
      return MessageType::kError;
    }
  };
  return std::visit(Visitor{}, msg);
}

// --- payload parsers -------------------------------------------------------

UploadMatrixMsg parse_upload(std::span<const unsigned char> payload) {
  Reader r(payload);
  UploadMatrixMsg m;
  m.request_id = r.u64();
  m.matrix_id = r.u32();
  m.ilu_level = r.u32();
  const std::uint64_t n = r.u64();
  const std::uint64_t nnz = r.u64();
  if (n > kMaxIndex || nnz > kMaxIndex) {
    fail(ServiceErrc::kBadFrame, "matrix dimension exceeds index range");
  }
  require_exact(payload.size(), upload_payload_bytes(n, nnz),
                "upload_matrix");
  std::vector<index_t> ptr = r.indices(static_cast<std::size_t>(n) + 1);
  std::vector<index_t> col = r.indices(static_cast<std::size_t>(nnz));
  std::vector<real_t> val = r.reals(static_cast<std::size_t>(nnz));
  try {
    m.matrix = CsrMatrix(static_cast<index_t>(n), static_cast<index_t>(n),
                         std::move(ptr), std::move(col), std::move(val));
  } catch (const std::invalid_argument& e) {
    fail(ServiceErrc::kBadFrame, e.what());
  }
  return m;
}

OpenWorkloadMsg parse_open_workload(std::span<const unsigned char> payload) {
  Reader r(payload);
  OpenWorkloadMsg m;
  m.request_id = r.u64();
  m.matrix_id = r.u32();
  m.ilu_level = r.u32();
  const std::uint32_t len = r.u32();
  if (len > kMaxNameLength) {
    fail(ServiceErrc::kBadFrame, "workload name too long");
  }
  require_exact(payload.size(), 20ull + len, "open_workload");
  m.name = r.str(len);
  return m;
}

SolveMsg parse_solve(std::span<const unsigned char> payload) {
  Reader r(payload);
  SolveMsg m;
  m.request_id = r.u64();
  m.matrix_id = r.u32();
  const std::uint64_t n = r.u64();
  if (n > kMaxIndex) {
    fail(ServiceErrc::kBadFrame, "rhs dimension exceeds index range");
  }
  require_exact(payload.size(), 20 + n * sizeof(real_t), "solve");
  m.rhs = r.reals(static_cast<std::size_t>(n));
  return m;
}

GetMetricsMsg parse_get_metrics(std::span<const unsigned char> payload) {
  Reader r(payload);
  require_exact(payload.size(), 8, "get_metrics");
  return {r.u64()};
}

AckMsg parse_ack(std::span<const unsigned char> payload) {
  Reader r(payload);
  require_exact(payload.size(), 8, "ack");
  return {r.u64()};
}

SolveResultMsg parse_solve_result(std::span<const unsigned char> payload) {
  Reader r(payload);
  SolveResultMsg m;
  m.request_id = r.u64();
  const std::uint64_t n = r.u64();
  if (n > kMaxIndex) {
    fail(ServiceErrc::kBadFrame, "result dimension exceeds index range");
  }
  require_exact(payload.size(), 16 + n * sizeof(real_t), "solve_result");
  m.x = r.reals(static_cast<std::size_t>(n));
  return m;
}

MetricsResultMsg parse_metrics_result(std::span<const unsigned char> payload) {
  // Fixed layout: the bucket counts are stored but must match this
  // build's compile-time constants (a mismatch means a different protocol
  // revision slipped past the version check — reject it).
  constexpr std::uint64_t kExpected =
      8 + 13 * 8 + 4 + std::uint64_t{kBatchWidthBuckets} * 8 + 4 +
      std::uint64_t{LatencySnapshot::kBuckets} * 8 + 8 * 8 + 3 * 8 + 8;
  require_exact(payload.size(), kExpected, "metrics_result");
  Reader r(payload);
  MetricsResultMsg m;
  ServiceMetrics& s = m.metrics;
  m.request_id = r.u64();
  s.admitted = r.u64();
  s.rejected = r.u64();
  s.queue_depth = r.u64();
  s.queue_depth_peak = r.u64();
  s.queue_capacity = r.u64();
  s.completed = r.u64();
  s.request_errors = r.u64();
  s.sessions_opened = r.u64();
  s.sessions_closed = r.u64();
  s.matrices_uploaded = r.u64();
  s.workloads_opened = r.u64();
  s.batches = r.u64();
  s.max_batch = r.u64();
  if (r.u32() != kBatchWidthBuckets) {
    fail(ServiceErrc::kBadFrame, "batch-width bucket count mismatch");
  }
  for (std::uint64_t& c : s.batch_width_hist) c = r.u64();
  if (r.u32() != LatencySnapshot::kBuckets) {
    fail(ServiceErrc::kBadFrame, "latency bucket count mismatch");
  }
  for (std::uint64_t& c : s.solve_latency.counts) c = r.u64();
  s.cache.hits = r.u64();
  s.cache.misses = r.u64();
  s.cache.evictions = r.u64();
  s.cache.entries = static_cast<std::size_t>(r.u64());
  s.cache.disk_hits = r.u64();
  s.cache.disk_misses = r.u64();
  s.cache.disk_writes = r.u64();
  s.cache.disk_rejects = r.u64();
  s.exec.flag_publishes = r.u64();
  s.exec.steals = r.u64();
  s.exec.barrier_waits = r.u64();
  s.team_size = r.u64();
  return m;
}

ErrorMsg parse_error(std::span<const unsigned char> payload) {
  Reader r(payload);
  ErrorMsg m;
  m.request_id = r.u64();
  const std::uint32_t code = r.u32();
  if (code > static_cast<std::uint32_t>(ServiceErrc::kIoError)) {
    fail(ServiceErrc::kBadFrame, "unknown error code in error reply");
  }
  m.code = static_cast<ServiceErrc>(code);
  const std::uint32_t len = r.u32();
  if (len > kMaxErrorMessageLength) {
    fail(ServiceErrc::kBadFrame, "error message too long");
  }
  require_exact(payload.size(), 16ull + len, "error");
  m.message = r.str(len);
  return m;
}

}  // namespace

const char* service_errc_name(ServiceErrc code) noexcept {
  switch (code) {
    case ServiceErrc::kBadMagic: return "bad_magic";
    case ServiceErrc::kUnsupportedVersion: return "unsupported_version";
    case ServiceErrc::kTruncated: return "truncated";
    case ServiceErrc::kTrailingData: return "trailing_data";
    case ServiceErrc::kOversized: return "oversized";
    case ServiceErrc::kChecksumMismatch: return "checksum_mismatch";
    case ServiceErrc::kBadFrame: return "bad_frame";
    case ServiceErrc::kRejected: return "rejected";
    case ServiceErrc::kShuttingDown: return "shutting_down";
    case ServiceErrc::kUnknownSession: return "unknown_session";
    case ServiceErrc::kUnknownMatrix: return "unknown_matrix";
    case ServiceErrc::kUnknownWorkload: return "unknown_workload";
    case ServiceErrc::kBadRequest: return "bad_request";
    case ServiceErrc::kInternal: return "internal";
    case ServiceErrc::kIoError: return "io_error";
  }
  return "unknown";
}

std::uint64_t message_request_id(const ServiceMessage& msg) {
  return std::visit([](const auto& m) { return m.request_id; }, msg);
}

std::vector<unsigned char> encode_message(const ServiceMessage& msg) {
  std::vector<unsigned char> out;
  // Besides saving the header's regrowth, a non-empty capacity keeps
  // GCC 12's -Wstringop-overflow from misfiring on the inlined inserts.
  out.reserve(kFrameHeaderBytes);
  Writer w(out);
  w.bytes(kServiceMagic, 4);
  w.u32(kServiceProtocolVersion);
  w.u32(static_cast<std::uint32_t>(type_of(msg)));
  w.u64(0);  // payload length back-patched below
  std::visit([&w](const auto& m) { encode_payload(w, m); }, msg);
  const std::uint64_t payload_len = out.size() - kFrameHeaderBytes;
  if (payload_len > kMaxFramePayload) {
    fail(ServiceErrc::kOversized, "encoded payload exceeds the frame limit");
  }
  for (int i = 0; i < 8; ++i) {
    out[12 + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(payload_len >> (8 * i));
  }
  w.u64(hash64(out.data(), out.size()));
  return out;
}

FrameHeader parse_frame_header(std::span<const unsigned char> header) {
  if (header.size() < kFrameHeaderBytes) {
    fail(ServiceErrc::kTruncated, "incomplete frame header");
  }
  if (std::memcmp(header.data(), kServiceMagic, 4) != 0) {
    fail(ServiceErrc::kBadMagic, "not a service frame");
  }
  Reader r(header.subspan(4));
  const std::uint32_t version = r.u32();
  if (version != kServiceProtocolVersion) {
    fail(ServiceErrc::kUnsupportedVersion,
         "protocol version " + std::to_string(version) + " (this build speaks " +
             std::to_string(kServiceProtocolVersion) + ")");
  }
  const std::uint32_t type = r.u32();
  const std::uint64_t payload_len = r.u64();
  switch (static_cast<MessageType>(type)) {
    case MessageType::kUploadMatrix:
    case MessageType::kOpenWorkload:
    case MessageType::kSolve:
    case MessageType::kGetMetrics:
    case MessageType::kAck:
    case MessageType::kSolveResult:
    case MessageType::kMetricsResult:
    case MessageType::kError:
      break;
    default:
      fail(ServiceErrc::kBadFrame,
           "unknown message type " + std::to_string(type));
  }
  if (payload_len > kMaxFramePayload) {
    fail(ServiceErrc::kOversized, "declared payload of " +
                                      std::to_string(payload_len) +
                                      " bytes exceeds the frame limit");
  }
  return {static_cast<MessageType>(type), payload_len};
}

ServiceMessage parse_message(std::span<const unsigned char> frame) {
  const FrameHeader h = parse_frame_header(frame);
  const std::uint64_t expected =
      kFrameHeaderBytes + h.payload_len + kFrameTrailerBytes;
  if (frame.size() < expected) {
    fail(ServiceErrc::kTruncated, "frame shorter than the header declares");
  }
  if (frame.size() > expected) {
    fail(ServiceErrc::kTrailingData, "bytes beyond the frame trailer");
  }
  const std::size_t body = kFrameHeaderBytes + h.payload_len;
  const std::uint64_t computed = hash64(frame.data(), body);
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= std::uint64_t{frame[body + static_cast<std::size_t>(i)]}
              << (8 * i);
  }
  if (stored != computed) {
    fail(ServiceErrc::kChecksumMismatch, "frame checksum mismatch");
  }
  const std::span<const unsigned char> payload =
      frame.subspan(kFrameHeaderBytes, h.payload_len);
  switch (h.type) {
    case MessageType::kUploadMatrix: return parse_upload(payload);
    case MessageType::kOpenWorkload: return parse_open_workload(payload);
    case MessageType::kSolve: return parse_solve(payload);
    case MessageType::kGetMetrics: return parse_get_metrics(payload);
    case MessageType::kAck: return parse_ack(payload);
    case MessageType::kSolveResult: return parse_solve_result(payload);
    case MessageType::kMetricsResult: return parse_metrics_result(payload);
    case MessageType::kError: return parse_error(payload);
  }
  fail(ServiceErrc::kBadFrame, "unreachable message type");
}

}  // namespace rtl
