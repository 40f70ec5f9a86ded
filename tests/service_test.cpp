// Solve-service test layer (quick): wire-protocol round-trip and
// corruption rejection, the batching aggregator's width/ordering
// invariants (made deterministic by ServiceConfig::manual_drain), session
// lifecycle and admission control, the service-sane default team size,
// and a basic live server/client exchange over a loopback socket. The
// high-concurrency side lives in service_stress_test.cpp.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <limits>
#include <thread>

#include "runtime/hash.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/solve_service.hpp"
#include "workload/stencil.hpp"

namespace rtl {
namespace {

// --- protocol: round trips -------------------------------------------------

ServiceMessage reparse(const ServiceMessage& msg) {
  return parse_message(encode_message(msg));
}

TEST(ServiceProtocolTest, SolveRoundTrip) {
  SolveMsg msg;
  msg.request_id = 42;
  msg.matrix_id = 7;
  msg.rhs = {1.0, -2.5, 3.25, 0.0};
  const auto out = std::get<SolveMsg>(reparse(msg));
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.matrix_id, 7u);
  EXPECT_EQ(out.rhs, msg.rhs);
}

TEST(ServiceProtocolTest, UploadMatrixRoundTrip) {
  UploadMatrixMsg msg;
  msg.request_id = 1;
  msg.matrix_id = 2;
  msg.ilu_level = 1;
  msg.matrix = five_point(4, 4).a;
  const auto out = std::get<UploadMatrixMsg>(reparse(msg));
  EXPECT_EQ(out.matrix.rows(), msg.matrix.rows());
  EXPECT_EQ(out.matrix.nnz(), msg.matrix.nnz());
  const auto as_vec = [](const auto& span) {
    return std::vector(span.begin(), span.end());
  };
  EXPECT_EQ(as_vec(out.matrix.row_ptr()), as_vec(msg.matrix.row_ptr()));
  EXPECT_EQ(as_vec(out.matrix.col_idx()), as_vec(msg.matrix.col_idx()));
  EXPECT_EQ(as_vec(out.matrix.values()), as_vec(msg.matrix.values()));
  EXPECT_EQ(out.ilu_level, 1u);
}

TEST(ServiceProtocolTest, OpenWorkloadAndControlRoundTrips) {
  OpenWorkloadMsg open;
  open.request_id = 3;
  open.matrix_id = 9;
  open.ilu_level = 2;
  open.name = "5pt:16";
  const auto open_out = std::get<OpenWorkloadMsg>(reparse(open));
  EXPECT_EQ(open_out.name, "5pt:16");
  EXPECT_EQ(open_out.ilu_level, 2u);

  EXPECT_EQ(std::get<GetMetricsMsg>(reparse(GetMetricsMsg{11})).request_id,
            11u);
  EXPECT_EQ(std::get<AckMsg>(reparse(AckMsg{12})).request_id, 12u);

  SolveResultMsg result;
  result.request_id = 13;
  result.x = {0.5, 1.5};
  EXPECT_EQ(std::get<SolveResultMsg>(reparse(result)).x, result.x);

  ErrorMsg error;
  error.request_id = 14;
  error.code = ServiceErrc::kRejected;
  error.message = "queue full";
  const auto error_out = std::get<ErrorMsg>(reparse(error));
  EXPECT_EQ(error_out.code, ServiceErrc::kRejected);
  EXPECT_EQ(error_out.message, "queue full");
}

TEST(ServiceProtocolTest, MetricsResultRoundTrip) {
  MetricsResultMsg msg;
  msg.request_id = 99;
  ServiceMetrics& m = msg.metrics;
  m.admitted = 100;
  m.rejected = 3;
  m.queue_depth_peak = 17;
  m.batches = 20;
  m.batch_width_hist[3] = 5;
  m.solve_latency.counts[10] = 12;
  m.cache.misses = 2;
  m.cache.disk_hits = 4;
  m.exec.flag_publishes = 1234;
  m.team_size = 8;
  const auto out = std::get<MetricsResultMsg>(reparse(msg));
  EXPECT_EQ(out.metrics.admitted, 100u);
  EXPECT_EQ(out.metrics.rejected, 3u);
  EXPECT_EQ(out.metrics.queue_depth_peak, 17u);
  EXPECT_EQ(out.metrics.batch_width_hist[3], 5u);
  EXPECT_EQ(out.metrics.solve_latency.counts[10], 12u);
  EXPECT_EQ(out.metrics.inspector_runs(), 2u);
  EXPECT_EQ(out.metrics.cache.disk_hits, 4u);
  EXPECT_EQ(out.metrics.exec.flag_publishes, 1234u);
  EXPECT_EQ(out.metrics.team_size, 8u);
}

// --- protocol: corruption rejection ---------------------------------------

/// Expect a typed ServiceError with the given code.
template <class Fn>
void expect_errc(ServiceErrc code, Fn&& fn) {
  try {
    fn();
    FAIL() << "expected ServiceError " << service_errc_name(code);
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
}

/// expect_errc for a future the service's solver thread completes. The
/// shared_future keeps the shared state alive until the exception has been
/// inspected: future::get() drops it before the catch, and the solver
/// thread's later release of the last reference then frees the exception
/// through libstdc++'s uninstrumented reference count, which TSan reports
/// as a race with the inspection.
template <class T>
void expect_future_errc(ServiceErrc code, std::future<T>& f) {
  const std::shared_future<T> held = f.share();
  expect_errc(code, [&] { (void)held.get(); });
}

std::vector<unsigned char> sample_frame() {
  SolveMsg msg;
  msg.request_id = 5;
  msg.matrix_id = 1;
  msg.rhs = {1.0, 2.0, 3.0};
  return encode_message(msg);
}

/// Recompute the trailer after deliberately patching frame bytes, so the
/// corruption under test is reached instead of the checksum tripping first.
void reseal(std::vector<unsigned char>& frame) {
  const std::size_t body = frame.size() - kFrameTrailerBytes;
  const std::uint64_t sum = hash64(frame.data(), body);
  for (int i = 0; i < 8; ++i) {
    frame[body + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(sum >> (8 * i));
  }
}

TEST(ServiceProtocolTest, TruncationAtEveryPrefixIsTyped) {
  const std::vector<unsigned char> frame = sample_frame();
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_THROW(
        (void)parse_message(
            std::span<const unsigned char>(frame.data(), len)),
        ServiceError)
        << "prefix length " << len;
  }
  // The full frame parses.
  EXPECT_NO_THROW((void)parse_message(frame));
}

TEST(ServiceProtocolTest, BadMagicRejected) {
  std::vector<unsigned char> frame = sample_frame();
  frame[0] = 'X';
  expect_errc(ServiceErrc::kBadMagic, [&] { (void)parse_message(frame); });
}

TEST(ServiceProtocolTest, WrongVersionRejected) {
  std::vector<unsigned char> frame = sample_frame();
  frame[4] = static_cast<unsigned char>(kServiceProtocolVersion + 1);
  expect_errc(ServiceErrc::kUnsupportedVersion,
              [&] { (void)parse_message(frame); });
}

TEST(ServiceProtocolTest, V1FrameIsRefusedAsUnsupportedVersion) {
  // Protocol 1 sealed frames with FNV-1a. A v1-stamped frame with a
  // coherent trailer is refused by its version, not by its checksum.
  std::vector<unsigned char> frame = sample_frame();
  frame[4] = 1;
  reseal(frame);
  expect_errc(ServiceErrc::kUnsupportedVersion,
              [&] { (void)parse_message(frame); });
}

TEST(ServiceProtocolTest, UnknownTypeRejected) {
  std::vector<unsigned char> frame = sample_frame();
  frame[8] = 0xee;
  expect_errc(ServiceErrc::kBadFrame, [&] { (void)parse_message(frame); });
}

TEST(ServiceProtocolTest, OversizedDeclaredPayloadRejectedBeforeAllocation) {
  // A hostile header declaring a huge payload must die in
  // parse_frame_header — the transport never allocates the buffer.
  std::vector<unsigned char> frame = sample_frame();
  const std::uint64_t huge = kMaxFramePayload + 1;
  for (int i = 0; i < 8; ++i) {
    frame[12 + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(huge >> (8 * i));
  }
  expect_errc(ServiceErrc::kOversized, [&] {
    (void)parse_frame_header(
        std::span<const unsigned char>(frame.data(), kFrameHeaderBytes));
  });
}

TEST(ServiceProtocolTest, OversizedElementCountRejectedBeforeAllocation) {
  // Patch the solve payload's element count to a value far larger than
  // the actual payload (and re-seal the checksum so the count check
  // itself is what trips): the exact-size cross-check must reject it
  // before a count-sized vector is allocated.
  std::vector<unsigned char> frame = sample_frame();
  const std::uint64_t lying_count = 1u << 20;
  for (int i = 0; i < 8; ++i) {
    frame[kFrameHeaderBytes + 12 + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>(lying_count >> (8 * i));
  }
  reseal(frame);
  expect_errc(ServiceErrc::kBadFrame, [&] { (void)parse_message(frame); });
}

TEST(ServiceProtocolTest, NonMonotoneUploadRowPointerRejected) {
  // A sealed upload of a 1,000-row diagonal matrix whose row pointer is
  // {0, 2000, 1000, ..., 1000}: both ends are valid, so only a check of
  // the whole pointer, before any row's columns are read, keeps row 0
  // from reading past the column array.
  constexpr index_t n = 1000;
  std::vector<index_t> ptr(static_cast<std::size_t>(n) + 1);
  std::vector<index_t> col(static_cast<std::size_t>(n));
  for (index_t i = 0; i <= n; ++i) ptr[static_cast<std::size_t>(i)] = i;
  for (index_t i = 0; i < n; ++i) col[static_cast<std::size_t>(i)] = i;
  UploadMatrixMsg msg;
  msg.request_id = 3;
  msg.matrix_id = 4;
  msg.matrix = CsrMatrix(n, n, std::move(ptr), std::move(col),
                         std::vector<real_t>(static_cast<std::size_t>(n), 1.0));
  std::vector<unsigned char> frame = encode_message(msg);
  // The row pointer follows the payload's 32 bytes of ids and counts.
  const auto patch_ptr = [&](index_t i, std::uint32_t value) {
    const std::size_t at =
        kFrameHeaderBytes + 32 + static_cast<std::size_t>(i) * 4;
    for (int b = 0; b < 4; ++b) {
      frame[at + static_cast<std::size_t>(b)] =
          static_cast<unsigned char>(value >> (8 * b));
    }
  };
  patch_ptr(1, 2 * n);
  for (index_t i = 2; i < n; ++i) patch_ptr(i, n);
  reseal(frame);
  expect_errc(ServiceErrc::kBadFrame, [&] { (void)parse_message(frame); });
}

TEST(ServiceProtocolTest, EveryByteFlipIsDetected) {
  const std::vector<unsigned char> reference = sample_frame();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    std::vector<unsigned char> frame = reference;
    frame[i] ^= 0x40;
    EXPECT_THROW((void)parse_message(frame), ServiceError)
        << "flip at byte " << i;
  }
}

TEST(ServiceProtocolTest, TrailingDataRejected) {
  std::vector<unsigned char> frame = sample_frame();
  frame.push_back(0);
  expect_errc(ServiceErrc::kTrailingData,
              [&] { (void)parse_message(frame); });
}

TEST(ServiceProtocolTest, ChecksumFlipRejectedAsMismatch) {
  std::vector<unsigned char> frame = sample_frame();
  frame[kFrameHeaderBytes + 1] ^= 1;  // payload corruption
  expect_errc(ServiceErrc::kChecksumMismatch,
              [&] { (void)parse_message(frame); });
}

TEST(ServiceProtocolTest, BatchWidthBuckets) {
  EXPECT_EQ(batch_width_bucket(1), 0);
  EXPECT_EQ(batch_width_bucket(2), 1);
  EXPECT_EQ(batch_width_bucket(3), 2);
  EXPECT_EQ(batch_width_bucket(4), 2);
  EXPECT_EQ(batch_width_bucket(5), 3);
  EXPECT_EQ(batch_width_bucket(8), 3);
  EXPECT_EQ(batch_width_bucket(16), 4);
  EXPECT_EQ(batch_width_bucket(64), 6);
  EXPECT_EQ(batch_width_bucket(65), 7);
  EXPECT_EQ(batch_width_bucket(1000000), 7);
}

// --- workload resolver -----------------------------------------------------

TEST(ServiceWorkloadTest, ResolvesNamedAndParametricProblems) {
  EXPECT_EQ(service_workload("5pt").a.rows(), 3969);
  EXPECT_EQ(service_workload("spe1").a.rows(), 1000);
  EXPECT_EQ(service_workload("5pt:8").a.rows(), 64);
  EXPECT_EQ(service_workload("9pt:4").a.rows(), 16);
  EXPECT_EQ(service_workload("7pt:3").a.rows(), 27);
  // The entry counts the frame-size bound assumes for an N-wide grid.
  EXPECT_EQ(service_workload("5pt:8").a.nnz(), 5 * 64 - 4 * 8);
  EXPECT_EQ(service_workload("9pt:4").a.nnz(), (3 * 4 - 2) * (3 * 4 - 2));
  EXPECT_EQ(service_workload("7pt:3").a.nnz(), 7 * 27 - 6 * 9);
}

TEST(ServiceWorkloadTest, UnknownNamesAreTypedErrors) {
  for (const char* name : {"nope", "5pt:", "5pt:abc", "5pt:0", "", "7pt:-2"}) {
    expect_errc(ServiceErrc::kUnknownWorkload,
                [&] { (void)service_workload(name); });
  }
}

// --- default team size -----------------------------------------------------

TEST(ServiceTeamSizeTest, RtlProcsOverrides) {
  ::setenv("RTL_PROCS", "5", 1);
  EXPECT_EQ(default_solver_team_size(2), 5);
  ::setenv("RTL_PROCS", "garbage", 1);
  const int fallback = default_solver_team_size(2);
  ::unsetenv("RTL_PROCS");
  EXPECT_EQ(fallback, default_solver_team_size(2));
  EXPECT_GE(fallback, 1);
}

TEST(ServiceTeamSizeTest, ReservesTransportThreadsButNeverBelowOne) {
  ::unsetenv("RTL_PROCS");
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  // Reserving more threads than the machine has still yields a team.
  EXPECT_EQ(default_solver_team_size(hw + 10), 1);
  const int sized = default_solver_team_size(2);
  EXPECT_GE(sized, 1);
  EXPECT_LE(sized, hw > 2 ? hw - 2 : 1);
}

// --- service core: aggregation (deterministic via manual_drain) ------------

ServiceConfig test_config(index_t max_batch = 64,
                          std::size_t queue_capacity = 256) {
  ServiceConfig config;
  config.team_size = 2;
  config.max_batch = max_batch;
  config.queue_capacity = queue_capacity;
  config.plan_cache_dir = "";  // hermetic: no cross-test disk cache
  config.manual_drain = true;
  return config;
}

/// Sequential single-RHS reference: a separate one-thread Runtime, one
/// apply per right-hand side.
std::vector<std::vector<real_t>> reference_solves(
    const LinearSystem& system, int level,
    const std::vector<std::vector<real_t>>& rhs) {
  Runtime rt(1, /*plan_cache_capacity=*/8, /*plan_cache_dir=*/"");
  IluPreconditioner precond(rt, system.a, level);
  precond.factor(rt.team(), system.a);
  std::vector<std::vector<real_t>> out;
  out.reserve(rhs.size());
  for (const auto& r : rhs) {
    std::vector<real_t> x(r.size());
    precond.apply(rt.team(), r, x);
    out.push_back(std::move(x));
  }
  return out;
}

/// `a` with `value` stored as row 0's diagonal entry.
CsrMatrix with_row0_diagonal(CsrMatrix a, real_t value) {
  const auto cols = a.row_cols(0);
  for (std::size_t t = 0; t < cols.size(); ++t) {
    if (cols[t] == 0) a.values()[t] = value;
  }
  return a;
}

constexpr real_t kNaN = std::numeric_limits<real_t>::quiet_NaN();
constexpr real_t kInf = std::numeric_limits<real_t>::infinity();

std::vector<real_t> make_rhs(index_t n, int j) {
  std::vector<real_t> rhs(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    rhs[static_cast<std::size_t>(i)] =
        1.0 + 0.01 * static_cast<real_t>((i + 3 * j) % 17);
  }
  return rhs;
}

TEST(SolveServiceTest, CoalescesConcurrentRequestsIntoOneBatch) {
  SolveService service(test_config());
  const auto session = service.open_session();
  auto ready = service.open_workload(session, 1, "5pt:8", 0);
  ASSERT_EQ(service.drain_once(), 1u);
  ready.get();

  const LinearSystem system = service_workload("5pt:8");
  const index_t n = system.a.rows();
  std::vector<std::vector<real_t>> rhs;
  std::vector<std::future<std::vector<real_t>>> futures;
  for (int j = 0; j < 5; ++j) {
    rhs.push_back(make_rhs(n, j));
    futures.push_back(service.solve(session, 1, rhs.back()));
  }
  // All five sit in the queue; one drain must make ONE batch of width 5.
  EXPECT_EQ(service.drain_once(), 5u);
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.batches, 1u);
  EXPECT_EQ(m.batch_width_hist[batch_width_bucket(5)], 1u);
  EXPECT_EQ(m.multi_request_batches(), 1u);
  EXPECT_EQ(m.completed, 6u);  // 1 control + 5 solves
  EXPECT_EQ(m.solve_latency.total(), 5u);

  // Column j of the batch is request j: bit-for-bit against sequential
  // single-RHS reference solves.
  const auto reference = reference_solves(system, 0, rhs);
  for (std::size_t j = 0; j < futures.size(); ++j) {
    EXPECT_EQ(futures[j].get(), reference[j]) << "request " << j;
  }
}

TEST(SolveServiceTest, WideGroupsChunkAtMaxBatch) {
  SolveService service(test_config(/*max_batch=*/2));
  const auto session = service.open_session();
  auto ready = service.open_workload(session, 1, "5pt:8", 0);
  (void)service.drain_once();
  ready.get();

  const index_t n = service_workload("5pt:8").a.rows();
  std::vector<std::future<std::vector<real_t>>> futures;
  for (int j = 0; j < 5; ++j) {
    futures.push_back(service.solve(session, 1, make_rhs(n, j)));
  }
  EXPECT_EQ(service.drain_once(), 5u);
  for (auto& f : futures) (void)f.get();
  const ServiceMetrics m = service.metrics();
  // 5 requests through max_batch 2: chunks of 2, 2, 1.
  EXPECT_EQ(m.batches, 3u);
  EXPECT_EQ(m.batch_width_hist[batch_width_bucket(2)], 2u);
  EXPECT_EQ(m.batch_width_hist[batch_width_bucket(1)], 1u);
}

TEST(SolveServiceTest, InterleavedEntriesGroupByFactorization) {
  SolveService service(test_config());
  const auto session = service.open_session();
  auto a = service.open_workload(session, 1, "5pt:8", 0);
  auto b = service.open_workload(session, 2, "9pt:6", 0);
  (void)service.drain_once();
  a.get();
  b.get();

  const index_t n1 = service_workload("5pt:8").a.rows();
  const index_t n2 = service_workload("9pt:6").a.rows();
  // Interleaved submission order 1,2,1,2 must still coalesce per entry.
  std::vector<std::future<std::vector<real_t>>> futures;
  futures.push_back(service.solve(session, 1, make_rhs(n1, 0)));
  futures.push_back(service.solve(session, 2, make_rhs(n2, 1)));
  futures.push_back(service.solve(session, 1, make_rhs(n1, 2)));
  futures.push_back(service.solve(session, 2, make_rhs(n2, 3)));
  EXPECT_EQ(service.drain_once(), 4u);
  for (auto& f : futures) (void)f.get();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.batches, 2u);
  EXPECT_EQ(m.batch_width_hist[batch_width_bucket(2)], 2u);
}

TEST(SolveServiceTest, UploadOrdersBeforeDependentSolvesInOneDrain) {
  // An upload and its dependent solve admitted into the SAME drain must
  // still work: control items are processing barriers.
  SolveService service(test_config());
  const auto session = service.open_session();
  const LinearSystem system = five_point(6, 6);
  auto ready = service.upload_matrix(session, 1, system.a, 0);
  auto solved = service.solve(session, 1, make_rhs(system.a.rows(), 0));
  EXPECT_EQ(service.drain_once(), 2u);
  ready.get();
  const auto reference =
      reference_solves(system, 0, {make_rhs(system.a.rows(), 0)});
  EXPECT_EQ(solved.get(), reference[0]);
}

TEST(SolveServiceTest, SingularUploadIsBadRequestAndSolverThreadSurvives) {
  // A zero pivot on row 0 makes the parallel factor's first row body
  // throw. On the real solver thread (not manual_drain) the upload must
  // come back as a typed kBadRequest — not wedge the only thread that
  // runs the team — and the next upload and solve must work.
  ServiceConfig config = test_config();
  config.manual_drain = false;
  SolveService service(config);
  const auto session = service.open_session();
  const LinearSystem system = five_point(6, 6);
  auto rejected = service.upload_matrix(
      session, 1, with_row0_diagonal(system.a, 0.0), 0);
  expect_future_errc(ServiceErrc::kBadRequest, rejected);

  service.upload_matrix(session, 2, system.a, 0).get();
  const std::vector<real_t> rhs = make_rhs(system.a.rows(), 0);
  EXPECT_EQ(service.solve(session, 2, rhs).get(),
            reference_solves(system, 0, {rhs})[0]);
}

TEST(SolveServiceTest, OversizedParametricWorkloadsAreBadRequestsAndSessionSurvives) {
  // Client-chosen grid sizes whose index products overflowed in the
  // stencil generators (5pt:50000 and 9pt:1000009 in n = nx*ny,
  // 7pt:2000 in nx*ny*nz), plus the first size past each frame ceiling.
  // Each must be a typed kBadRequest from the real solver thread, and the
  // same session must then open and solve a normal workload.
  ServiceConfig config = test_config();
  config.manual_drain = false;
  SolveService service(config);
  const auto session = service.open_session();
  std::uint32_t id = 1;
  for (const char* name : {"5pt:50000", "9pt:1000009", "7pt:2000", "5pt:2049",
                           "9pt:1549", "7pt:146"}) {
    auto rejected = service.open_workload(session, id++, name, 0);
    expect_future_errc(ServiceErrc::kBadRequest, rejected);
  }

  service.open_workload(session, id, "5pt", 0).get();
  const LinearSystem system = service_workload("5pt");
  const std::vector<real_t> rhs = make_rhs(system.a.rows(), 0);
  EXPECT_EQ(service.solve(session, id, rhs).get(),
            reference_solves(system, 0, {rhs})[0]);
}

TEST(SolveServiceTest, NonFiniteInputsAreBadRequestsAndSessionSurvives) {
  // A NaN or ±Inf right-hand side must not come back as a "successful"
  // reply of NaNs, nor an upload with +Inf on a diagonal (or a NaN
  // anywhere) factor into a preconditioner that answers with meaningless
  // numbers. Each is refused with kBadRequest when submitted, before it
  // takes a queue slot; the finite requests around it still coalesce
  // into one batch and solve bit-for-bit, and the session keeps working.
  SolveService service(test_config());
  const auto session = service.open_session();
  auto ready = service.open_workload(session, 1, "5pt:16", 0);
  ASSERT_EQ(service.drain_once(), 1u);
  ready.get();
  const LinearSystem system = service_workload("5pt:16");
  const index_t n = system.a.rows();
  const std::vector<std::vector<real_t>> good{make_rhs(n, 0), make_rhs(n, 1)};
  const auto reference = reference_solves(system, 0, good);

  std::vector<real_t> nan_rhs = make_rhs(n, 2);
  nan_rhs[7] = kNaN;
  std::vector<real_t> inf_rhs = make_rhs(n, 3);
  inf_rhs.back() = -kInf;
  auto ok0 = service.solve(session, 1, good[0]);
  expect_errc(ServiceErrc::kBadRequest,
              [&] { (void)service.solve(session, 1, nan_rhs); });
  auto ok1 = service.solve(session, 1, good[1]);
  expect_errc(ServiceErrc::kBadRequest,
              [&] { (void)service.solve(session, 1, inf_rhs); });
  EXPECT_EQ(service.drain_once(), 2u);
  EXPECT_EQ(ok0.get(), reference[0]);
  EXPECT_EQ(ok1.get(), reference[1]);
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.batches, 1u);
  EXPECT_EQ(m.batch_width_hist[batch_width_bucket(2)], 1u);

  CsrMatrix nan_entry = system.a;
  nan_entry.values()[1] = kNaN;
  expect_errc(ServiceErrc::kBadRequest, [&] {
    (void)service.upload_matrix(session, 2,
                                with_row0_diagonal(system.a, kInf), 0);
  });
  expect_errc(ServiceErrc::kBadRequest, [&] {
    (void)service.upload_matrix(session, 3, nan_entry, 0);
  });

  // A refused upload registers nothing; the session still solves.
  auto unregistered = service.solve(session, 2, good[0]);
  auto after = service.solve(session, 1, good[0]);
  EXPECT_EQ(service.drain_once(), 2u);
  expect_errc(ServiceErrc::kUnknownMatrix, [&] { unregistered.get(); });
  EXPECT_EQ(after.get(), reference[0]);
  EXPECT_EQ(service.metrics().request_errors, 5u);
}

// --- service core: sessions, admission, shutdown ---------------------------

TEST(SolveServiceTest, SessionLifecycleErrorsAreTyped) {
  SolveService service(test_config());
  const auto session = service.open_session();
  auto ready = service.open_workload(session, 1, "5pt:8", 0);
  (void)service.drain_once();
  ready.get();
  const index_t n = service_workload("5pt:8").a.rows();

  // Unknown matrix id.
  auto unknown_matrix = service.solve(session, 99, make_rhs(n, 0));
  // Wrong rhs dimension.
  auto bad_dims = service.solve(session, 1, std::vector<real_t>(3, 1.0));
  // Unknown session.
  auto unknown_session = service.solve(session + 100, 1, make_rhs(n, 0));
  // Duplicate matrix id.
  auto duplicate = service.open_workload(session, 1, "5pt:8", 0);
  // Unknown workload name.
  auto unknown_workload = service.open_workload(session, 3, "bogus", 0);
  (void)service.drain_once();

  expect_errc(ServiceErrc::kUnknownMatrix, [&] { unknown_matrix.get(); });
  expect_errc(ServiceErrc::kBadRequest, [&] { bad_dims.get(); });
  expect_errc(ServiceErrc::kUnknownSession, [&] { unknown_session.get(); });
  expect_errc(ServiceErrc::kBadRequest, [&] { duplicate.get(); });
  expect_errc(ServiceErrc::kUnknownWorkload, [&] { unknown_workload.get(); });
  EXPECT_EQ(service.metrics().request_errors, 5u);

  // A queued solve for a session closed before the drain: typed error.
  auto after_close = service.solve(session, 1, make_rhs(n, 0));
  service.close_session(session);
  (void)service.drain_once();
  expect_errc(ServiceErrc::kUnknownSession, [&] { after_close.get(); });
}

TEST(SolveServiceTest, AdmissionControlRejectsAtCapacity) {
  SolveService service(test_config(/*max_batch=*/64, /*queue_capacity=*/2));
  const auto session = service.open_session();
  const std::vector<real_t> rhs(64, 1.0);
  auto f1 = service.solve(session, 1, rhs);
  auto f2 = service.solve(session, 1, rhs);
  // Queue full: the third submission is bounced, typed, synchronous.
  expect_errc(ServiceErrc::kRejected,
              [&] { (void)service.solve(session, 1, rhs); });
  ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.queue_depth, 2u);
  EXPECT_EQ(m.queue_depth_peak, 2u);
  (void)service.drain_once();
  // Capacity is available again after the drain.
  auto f3 = service.solve(session, 1, rhs);
  (void)service.drain_once();
  // (All three completed with kUnknownMatrix — only admission is at test.)
  EXPECT_EQ(service.metrics().queue_depth, 0u);
}

TEST(SolveServiceTest, ShutdownDrainsThenRefuses) {
  SolveService service(test_config());
  const auto session = service.open_session();
  auto ready = service.open_workload(session, 1, "5pt:8", 0);
  const index_t n = service_workload("5pt:8").a.rows();
  auto pending = service.solve(session, 1, make_rhs(n, 0));
  service.shutdown();  // manual_drain: drains inline
  ready.get();
  EXPECT_EQ(pending.get().size(), static_cast<std::size_t>(n));
  expect_errc(ServiceErrc::kShuttingDown,
              [&] { (void)service.solve(session, 1, make_rhs(n, 0)); });
}

TEST(SolveServiceTest, WorkerThreadModeCompletesWithoutManualDrain) {
  ServiceConfig config = test_config();
  config.manual_drain = false;  // real solver thread
  config.batch_window = std::chrono::microseconds(200);
  SolveService service(config);
  const auto session = service.open_session();
  service.open_workload(session, 1, "5pt:8", 0).get();
  const LinearSystem system = service_workload("5pt:8");
  const std::vector<real_t> rhs = make_rhs(system.a.rows(), 1);
  const auto x = service.solve(session, 1, rhs).get();
  EXPECT_EQ(x, reference_solves(system, 0, {rhs})[0]);
}

// --- loopback transport ----------------------------------------------------

TEST(ServiceTransportTest, ServerAndClientExchangeOverLoopback) {
  ServiceConfig config = test_config();
  config.manual_drain = false;
  SolveService service(config);
  const std::string path =
      testing::TempDir() + "/rtl_service_test_" +
      std::to_string(::getpid()) + ".sock";
  ServiceServer server(service, path);

  ServiceClient client(path);
  client.open_workload(1, "5pt:8", 0);
  const LinearSystem system = service_workload("5pt:8");
  std::vector<std::vector<real_t>> rhs;
  for (int j = 0; j < 3; ++j) rhs.push_back(make_rhs(system.a.rows(), j));

  // Sync solve matches the sequential reference bit for bit.
  const auto reference = reference_solves(system, 0, rhs);
  EXPECT_EQ(client.solve(1, rhs[0]), reference[0]);

  // Pipelined burst: every reply arrives exactly once, correctly paired.
  const auto outcomes = client.solve_pipelined(1, rhs);
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t j = 0; j < outcomes.size(); ++j) {
    ASSERT_TRUE(outcomes[j].ok) << outcomes[j].error_message;
    EXPECT_EQ(outcomes[j].x, reference[j]) << "burst request " << j;
  }

  // Typed semantic errors cross the wire as typed errors.
  expect_errc(ServiceErrc::kUnknownMatrix,
              [&] { (void)client.solve(77, rhs[0]); });
  expect_errc(ServiceErrc::kUnknownWorkload,
              [&] { client.open_workload(2, "bogus", 0); });

  const ServiceMetrics m = client.metrics();
  EXPECT_GE(m.admitted, 4u);
  EXPECT_GE(m.completed, 4u);
  EXPECT_EQ(m.sessions_opened, 1u);
  EXPECT_GT(m.inspector_runs(), 0u);  // cold service paid the inspector

  server.stop();
  EXPECT_EQ(service.metrics().sessions_closed, 1u);
}

TEST(ServiceTransportTest, NonFiniteInputsGetTypedErrorRepliesAndSessionSurvives) {
  // The same non-finite rejections over the socket: a NaN rhs and an
  // upload with +Inf on row 0's diagonal come back as typed kBadRequest
  // replies, a pipelined burst fails only its NaN request, and the
  // connection's session then uploads and solves normally.
  ServiceConfig config = test_config();
  config.manual_drain = false;
  SolveService service(config);
  const std::string path =
      testing::TempDir() + "/rtl_service_nonfinite_" +
      std::to_string(::getpid()) + ".sock";
  ServiceServer server(service, path);

  ServiceClient client(path);
  client.open_workload(1, "5pt:16", 0);
  const LinearSystem system = service_workload("5pt:16");
  const index_t n = system.a.rows();
  std::vector<std::vector<real_t>> rhs{make_rhs(n, 0), make_rhs(n, 1),
                                       make_rhs(n, 2)};
  rhs[1][0] = kNaN;
  const auto reference = reference_solves(system, 0, {rhs[0], rhs[2]});

  expect_errc(ServiceErrc::kBadRequest, [&] { (void)client.solve(1, rhs[1]); });
  EXPECT_EQ(client.solve(1, rhs[0]), reference[0]);

  const auto outcomes = client.solve_pipelined(1, rhs);
  ASSERT_EQ(outcomes.size(), 3u);
  ASSERT_TRUE(outcomes[0].ok) << outcomes[0].error_message;
  EXPECT_EQ(outcomes[0].x, reference[0]);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_EQ(outcomes[1].error, ServiceErrc::kBadRequest);
  ASSERT_TRUE(outcomes[2].ok) << outcomes[2].error_message;
  EXPECT_EQ(outcomes[2].x, reference[1]);

  expect_errc(ServiceErrc::kBadRequest, [&] {
    client.upload_matrix(2, with_row0_diagonal(system.a, kInf), 0);
  });
  client.upload_matrix(3, system.a, 0);
  EXPECT_EQ(client.solve(3, rhs[0]), reference[0]);
  server.stop();
}

TEST(ServiceTransportTest, ClosedConnectionsAreReaped) {
  // Each closed connection's reader thread is joined by the listener, so
  // connect/close churn leaves no thread (and no stack) behind.
  ServiceConfig config = test_config();
  config.manual_drain = false;
  SolveService service(config);
  const std::string path =
      testing::TempDir() + "/rtl_service_churn_" +
      std::to_string(::getpid()) + ".sock";
  ServiceServer server(service, path);

  constexpr int kCycles = 200;
  for (int c = 0; c < kCycles; ++c) connect_unix(path).close();
  const auto wait_for = [](auto done, std::chrono::milliseconds limit) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return done();
  };
  ASSERT_TRUE(wait_for(
      [&] { return server.connections_accepted() == kCycles; },
      std::chrono::seconds(10)))
      << server.connections_accepted() << " of " << kCycles << " accepted";
  EXPECT_TRUE(wait_for([&] { return server.live_sessions() == 0; },
                       std::chrono::seconds(1)))
      << server.live_sessions() << " sessions still live";
  EXPECT_EQ(server.connections_accepted(), std::uint64_t{kCycles});

  ServiceClient client(path);
  client.open_workload(1, "5pt:8", 0);
  const LinearSystem system = service_workload("5pt:8");
  const std::vector<real_t> rhs = make_rhs(system.a.rows(), 0);
  EXPECT_EQ(client.solve(1, rhs), reference_solves(system, 0, {rhs})[0]);
  EXPECT_EQ(server.live_sessions(), 1u);
  server.stop();
  EXPECT_EQ(service.metrics().sessions_closed, std::uint64_t{kCycles + 1});
}

TEST(ServiceTransportTest, MalformedFrameGetsTypedErrorReply) {
  ServiceConfig config = test_config();
  config.manual_drain = false;
  SolveService service(config);
  const std::string path =
      testing::TempDir() + "/rtl_service_bad_" +
      std::to_string(::getpid()) + ".sock";
  ServiceServer server(service, path);

  Socket raw = connect_unix(path);
  // Garbage that is not even a header: the server must answer with a
  // typed error frame (request id 0) and close — never crash. (Exactly
  // header-sized: bytes left unread at close would RST the reply away.)
  const unsigned char garbage[kFrameHeaderBytes] = {'X', 'X', 'X', 'X'};
  write_fully(raw, garbage);
  ServiceMessage reply;
  ASSERT_TRUE(recv_frame(raw, reply));
  const auto& error = std::get<ErrorMsg>(reply);
  EXPECT_EQ(error.request_id, 0u);
  EXPECT_EQ(error.code, ServiceErrc::kBadMagic);
  // Connection is closed afterwards.
  EXPECT_FALSE(recv_frame(raw, reply));
  server.stop();
}

}  // namespace
}  // namespace rtl
