#include "core/plan_io.hpp"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "core/plan.hpp"
#include "runtime/hash.hpp"

namespace rtl {

namespace detail {

/// The one gateway to Plan's deserialization constructor: load_plan hands
/// fully validated components through here, so the constructor itself can
/// stay private and inspector-free.
struct PlanRestorer {
  static std::shared_ptr<const Plan> restore(DependenceGraph graph,
                                             DoconsiderOptions options,
                                             int nproc,
                                             std::uint64_t fingerprint,
                                             WavefrontInfo wavefronts,
                                             Schedule schedule) {
    return std::shared_ptr<const Plan>(
        new Plan(std::move(graph), options, nproc, fingerprint,
                 std::move(wavefronts), std::move(schedule)));
  }
};

}  // namespace detail

namespace {

/// Sanity ceiling on the processor count: far above any real team, low
/// enough that a corrupted header cannot drive the phase_ptr size past
/// what the size pre-check can reject.
constexpr std::uint32_t kMaxNproc = 1u << 22;

[[noreturn]] void fail(PlanIoErrc code, const std::string& what) {
  throw PlanIoError(code, "plan_io: " + what + " (" +
                              plan_io_errc_name(code) + ")");
}

/// Checksumming little-endian encoder over an ostream.
class Sink {
 public:
  explicit Sink(std::ostream& out) : out_(out) {}

  void bytes(const void* p, std::size_t len) {
    hash_.update(p, len);
    out_.write(static_cast<const char*>(p), static_cast<std::streamsize>(len));
  }
  void u8(std::uint8_t v) { bytes(&v, 1); }
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
  void indices(std::span<const index_t> v) {
    if constexpr (std::endian::native == std::endian::little) {
      bytes(v.data(), v.size() * sizeof(index_t));
    } else {
      for (const index_t x : v) u32(static_cast<std::uint32_t>(x));
    }
  }
  /// Trailer write: the checksum itself is not folded into the hash.
  void trailer(std::uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    out_.write(reinterpret_cast<const char*>(b), 8);
  }
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_.digest(); }

 private:
  std::ostream& out_;
  Hash64 hash_;
};

/// Checksumming little-endian decoder over an istream. Every short read
/// throws kTruncated; nothing is interpreted before it is fully read.
class Source {
 public:
  explicit Source(std::istream& in) : in_(in) {}

  void bytes(void* p, std::size_t len) {
    in_.read(static_cast<char*>(p), static_cast<std::streamsize>(len));
    if (static_cast<std::size_t>(in_.gcount()) != len) {
      fail(PlanIoErrc::kTruncated, "unexpected end of stream");
    }
    hash_.update(p, len);
  }
  std::uint8_t u8() {
    std::uint8_t v = 0;
    bytes(&v, 1);
    return v;
  }
  std::uint32_t u32() {
    unsigned char b[4];
    bytes(b, 4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    unsigned char b[8];
    bytes(b, 8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
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
  /// Trailer read: plain, outside the checksum.
  std::uint64_t trailer() {
    unsigned char b[8];
    in_.read(reinterpret_cast<char*>(b), 8);
    if (in_.gcount() != 8) {
      fail(PlanIoErrc::kTruncated, "unexpected end of stream in trailer");
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_.digest(); }

 private:
  std::istream& in_;
  Hash64 hash_;
};

/// Header fields as read from the stream, before interpretation.
struct Header {
  std::uint32_t nproc = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t n = 0;
  std::uint64_t edges = 0;
  std::uint64_t num_waves = 0;
  std::uint64_t num_phases = 0;
  DoconsiderOptions options;
};

/// Total bytes of the eight index arrays the header announces.
std::uint64_t array_bytes(const Header& h) {
  const std::uint64_t entries = (h.n + 1) + h.edges + h.n + h.n +
                                (h.num_waves + 1) + h.n + (h.nproc + 1) +
                                static_cast<std::uint64_t>(h.nproc) *
                                    (h.num_phases + 1);
  return entries * sizeof(index_t);
}

Header read_and_validate_header(Source& src) {
  unsigned char magic[8];
  src.bytes(magic, 8);
  if (std::memcmp(magic, kPlanMagic, 8) != 0) {
    fail(PlanIoErrc::kBadMagic, "not a plan file");
  }
  const std::uint32_t version = src.u32();
  if (version != kPlanFormatVersion) {
    fail(PlanIoErrc::kUnsupportedVersion,
         "format version " + std::to_string(version) + " (this build reads " +
             std::to_string(kPlanFormatVersion) + ")");
  }
  Header h;
  h.nproc = src.u32();
  h.fingerprint = src.u64();
  h.n = src.u64();
  h.edges = src.u64();
  h.num_waves = src.u64();
  h.num_phases = src.u64();
  const std::uint32_t scheduling = src.u32();
  const std::uint32_t execution = src.u32();
  const std::uint64_t retired_window = src.u64();
  const std::uint64_t retired_panel = src.u64();
  const std::uint8_t instrumented = src.u8();
  const std::uint8_t retired_inspector = src.u8();

  constexpr std::uint64_t kMaxIndex = 0x7fffffffull;  // fits index_t
  if (h.nproc < 1 || h.nproc > kMaxNproc) {
    fail(PlanIoErrc::kBadHeader, "processor count out of range");
  }
  if (h.n > kMaxIndex || h.edges > kMaxIndex || h.num_waves > kMaxIndex ||
      h.num_phases > kMaxIndex) {
    fail(PlanIoErrc::kBadHeader, "count field exceeds index range");
  }
  if (h.num_phases != h.num_waves) {
    fail(PlanIoErrc::kBadHeader, "phase count differs from wavefront count");
  }
  if (h.num_waves > h.n || (h.n > 0 && h.num_waves == 0)) {
    fail(PlanIoErrc::kBadHeader, "wavefront count inconsistent with n");
  }
  if (h.n == 0 && h.edges != 0) {
    fail(PlanIoErrc::kBadHeader, "edges without iterations");
  }
  if (scheduling > static_cast<std::uint32_t>(SchedulingPolicy::kLocalBlock)) {
    fail(PlanIoErrc::kBadHeader, "unknown scheduling policy");
  }
  // 3-5 were the self-scheduled, windowed and pipelined executors.
  if (execution > static_cast<std::uint32_t>(ExecutionPolicy::kDoAcross) &&
      execution !=
          static_cast<std::uint32_t>(ExecutionPolicy::kPointToPoint)) {
    fail(PlanIoErrc::kBadHeader, "unknown execution policy");
  }
  if (retired_window != 0 || retired_panel != 0 || retired_inspector != 0) {
    fail(PlanIoErrc::kBadHeader, "retired window/panel/inspector field not 0");
  }
  if (instrumented > 1) {
    fail(PlanIoErrc::kBadHeader, "boolean field not 0/1");
  }
  h.options.scheduling = static_cast<SchedulingPolicy>(scheduling);
  h.options.execution = static_cast<ExecutionPolicy>(execution);
  h.options.instrumented = instrumented != 0;
  // Plans always carry normalized options (the Plan constructor normalizes
  // on entry); an image that stores anything else was not produced by
  // save_plan or was tampered with.
  if (normalized_options(h.options) != h.options) {
    fail(PlanIoErrc::kBadHeader, "options not in normalized form");
  }
  return h;
}

/// Wavefront levels must be exactly the minimal level assignment the
/// inspector computes: wave[i] == 0 for roots, else 1 + max over deps.
/// This simultaneously proves acyclicity and pins num_waves.
void validate_waves(const DependenceGraph& g, const WavefrontInfo& wf) {
  const index_t n = g.size();
  index_t max_wave = -1;
  for (index_t i = 0; i < n; ++i) {
    index_t expect = 0;
    for (const index_t d : g.deps(i)) {
      const index_t wd = wf.wave[static_cast<std::size_t>(d)];
      expect = std::max(expect, wd + 1);
    }
    if (wf.wave[static_cast<std::size_t>(i)] != expect) {
      fail(PlanIoErrc::kBadStructure,
           "wavefront level inconsistent with dependences");
    }
    max_wave = std::max(max_wave, expect);
  }
  if (wf.num_waves != (n == 0 ? 0 : max_wave + 1)) {
    fail(PlanIoErrc::kBadStructure, "wavefront count mismatch");
  }
  // Membership CSR: monotone pointers covering [0, n), each wavefront's
  // members strictly increasing with the declared level — together with
  // the total count this proves `order` is a permutation of 0..n-1.
  if (wf.wave_ptr.size() != static_cast<std::size_t>(wf.num_waves) + 1 ||
      wf.wave_ptr.front() != 0 || wf.wave_ptr.back() != n) {
    fail(PlanIoErrc::kBadStructure, "wavefront pointer bounds");
  }
  for (index_t w = 0; w < wf.num_waves; ++w) {
    const index_t b = wf.wave_ptr[static_cast<std::size_t>(w)];
    const index_t e = wf.wave_ptr[static_cast<std::size_t>(w) + 1];
    if (b > e) {
      fail(PlanIoErrc::kBadStructure, "wavefront pointers not monotone");
    }
    index_t prev = -1;
    for (index_t k = b; k < e; ++k) {
      const index_t i = wf.order[static_cast<std::size_t>(k)];
      if (i < 0 || i >= n) {
        fail(PlanIoErrc::kBadStructure, "wavefront member out of range");
      }
      if (i <= prev) {
        fail(PlanIoErrc::kBadStructure,
             "wavefront members not strictly increasing");
      }
      if (wf.wave[static_cast<std::size_t>(i)] != w) {
        fail(PlanIoErrc::kBadStructure, "wavefront member in wrong wave");
      }
      prev = i;
    }
  }
}

}  // namespace

const char* plan_io_errc_name(PlanIoErrc code) noexcept {
  switch (code) {
    case PlanIoErrc::kBadMagic: return "bad_magic";
    case PlanIoErrc::kUnsupportedVersion: return "unsupported_version";
    case PlanIoErrc::kTruncated: return "truncated";
    case PlanIoErrc::kTrailingData: return "trailing_data";
    case PlanIoErrc::kBadHeader: return "bad_header";
    case PlanIoErrc::kChecksumMismatch: return "checksum_mismatch";
    case PlanIoErrc::kFingerprintMismatch: return "fingerprint_mismatch";
    case PlanIoErrc::kBadStructure: return "bad_structure";
    case PlanIoErrc::kIoError: return "io_error";
  }
  return "unknown";
}

void save_plan(const Plan& plan, std::ostream& out) {
  const DependenceGraph& g = plan.graph();
  const WavefrontInfo& wf = plan.wavefronts();
  const Schedule& s = plan.schedule();
  const DoconsiderOptions& o = plan.options();

  Sink sink(out);
  sink.bytes(kPlanMagic, 8);
  sink.u32(kPlanFormatVersion);
  sink.u32(static_cast<std::uint32_t>(plan.nproc()));
  sink.u64(plan.fingerprint());
  sink.u64(static_cast<std::uint64_t>(g.size()));
  sink.u64(static_cast<std::uint64_t>(g.num_edges()));
  sink.u64(static_cast<std::uint64_t>(wf.num_waves));
  sink.u64(static_cast<std::uint64_t>(s.num_phases));
  sink.u32(static_cast<std::uint32_t>(o.scheduling));
  sink.u32(static_cast<std::uint32_t>(o.execution));
  sink.u64(0);  // retired window field
  sink.u64(0);  // retired panel field
  sink.u8(o.instrumented ? 1 : 0);
  sink.u8(0);  // retired parallel-inspector field

  sink.indices(g.ptr());
  sink.indices(g.adj());
  sink.indices(wf.wave);
  sink.indices(wf.order);
  sink.indices(wf.wave_ptr);
  sink.indices(s.order);
  sink.indices(s.proc_ptr);
  sink.indices(s.phase_ptr);

  sink.trailer(sink.hash());
  if (!out) {
    fail(PlanIoErrc::kIoError, "stream failure while writing plan");
  }
}

std::shared_ptr<const Plan> load_plan(std::istream& in) {
  Source src(in);
  const Header h = read_and_validate_header(src);

  // Exact-size pre-check on seekable streams: a corrupted count field must
  // be rejected *before* it drives an allocation, and a complete image may
  // carry neither fewer nor extra bytes.
  const std::uint64_t expect_remaining = array_bytes(h) + 8;
  if (const auto cur = in.tellg(); cur != std::istream::pos_type(-1)) {
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    in.seekg(cur);
    if (end != std::istream::pos_type(-1)) {
      const std::uint64_t remaining =
          static_cast<std::uint64_t>(end - cur);
      if (remaining < expect_remaining) {
        fail(PlanIoErrc::kTruncated,
             "payload shorter than the header declares");
      }
      if (remaining > expect_remaining) {
        fail(PlanIoErrc::kTrailingData, "bytes beyond the plan trailer");
      }
    }
  }

  const auto n = static_cast<std::size_t>(h.n);
  const auto nproc = static_cast<std::size_t>(h.nproc);
  std::vector<index_t> gptr = src.indices(n + 1);
  std::vector<index_t> gadj = src.indices(static_cast<std::size_t>(h.edges));
  WavefrontInfo wf;
  wf.num_waves = static_cast<index_t>(h.num_waves);
  wf.wave = src.indices(n);
  wf.order = src.indices(n);
  wf.wave_ptr = src.indices(static_cast<std::size_t>(h.num_waves) + 1);
  Schedule sched;
  sched.nproc = static_cast<int>(h.nproc);
  sched.n = static_cast<index_t>(h.n);
  sched.num_phases = static_cast<index_t>(h.num_phases);
  sched.order = src.indices(n);
  sched.proc_ptr = src.indices(nproc + 1);
  sched.phase_ptr =
      src.indices(nproc * (static_cast<std::size_t>(h.num_phases) + 1));

  const std::uint64_t computed = src.hash();
  const std::uint64_t stored = src.trailer();
  if (stored != computed) {
    fail(PlanIoErrc::kChecksumMismatch, "trailer checksum mismatch");
  }

  // Structural validation, strictest first: the dependence CSR itself,
  // then everything derived from it.
  DependenceGraph graph;
  try {
    graph = DependenceGraph(static_cast<index_t>(h.n), std::move(gptr),
                            std::move(gadj));
  } catch (const std::invalid_argument& e) {
    fail(PlanIoErrc::kBadStructure, e.what());
  }
  if (!graph.is_forward_only()) {
    // Every inspector-built plan comes from a sequential source loop whose
    // dependences point backwards; anything else never came from save_plan.
    fail(PlanIoErrc::kBadStructure, "dependences not forward-only");
  }
  if (graph.fingerprint() != h.fingerprint) {
    fail(PlanIoErrc::kFingerprintMismatch,
         "stored fingerprint does not match the dependence structure");
  }
  validate_waves(graph, wf);
  try {
    validate_schedule(sched, wf);
  } catch (const std::invalid_argument& e) {
    fail(PlanIoErrc::kBadStructure, e.what());
  }

  return detail::PlanRestorer::restore(std::move(graph), h.options,
                                       static_cast<int>(h.nproc),
                                       h.fingerprint, std::move(wf),
                                       std::move(sched));
}

void save_plan_file(const Plan& plan, const std::string& path) {
  namespace fs = std::filesystem;
  // Atomic publish: write a sibling temp image, then rename over the
  // destination. Readers (and concurrent writers racing on the same cache
  // entry) only ever observe complete images. The temp name is unique per
  // process AND per call, so two Runtimes of one process can publish the
  // same cache entry concurrently.
  static std::atomic<std::uint64_t> serial{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(serial.fetch_add(1));
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      fail(PlanIoErrc::kIoError, "cannot open " + tmp + " for writing");
    }
    try {
      save_plan(plan, out);
    } catch (...) {
      out.close();
      fs::remove(tmp, ec);
      throw;
    }
    out.close();
    if (!out) {
      fs::remove(tmp, ec);
      fail(PlanIoErrc::kIoError, "stream failure while writing " + tmp);
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    fail(PlanIoErrc::kIoError, "cannot rename into " + path);
  }
}

std::shared_ptr<const Plan> load_plan_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fail(PlanIoErrc::kIoError, "cannot open " + path + " for reading");
  }
  return load_plan(in);
}

std::string plan_cache_file_name(std::uint64_t fingerprint, index_t n,
                                 index_t edges, int nproc,
                                 const DoconsiderOptions& normalized) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "plan-%016llx-n%d-e%d-p%d-s%d-x%d-w0-c0-i%d.rtlplan",
                static_cast<unsigned long long>(fingerprint),
                static_cast<int>(n), static_cast<int>(edges), nproc,
                static_cast<int>(normalized.scheduling),
                static_cast<int>(normalized.execution),
                normalized.instrumented ? 1 : 0);
  return buf;
}

}  // namespace rtl
