// Solve-service client: drive an rtl_serve instance over its socket.
//
//   rtl_client --socket PATH [--workload NAME | --matrix FILE.mtx]
//              [--level K] [--rhs K] [--repeat R] [--metrics]
//
// Opens one session, registers a matrix (a named server-side workload by
// default, or an uploaded Matrix Market file), then runs R repeats of a
// pipelined burst of K single-RHS solve requests — the burst shape is
// what gives the server's aggregator something to coalesce. Prints
// client-observed burst latency percentiles, an XXH64 checksum over every
// solution (bit-for-bit reproducible across runs and server restarts:
// solves are deterministic and the right-hand sides are fixed), and with
// --metrics the server's own metrics snapshot — including
// "inspector runs", the warm-start litmus value.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "runtime/hash.hpp"
#include "runtime/latency_histogram.hpp"
#include "runtime/timer.hpp"
#include "service/client.hpp"
#include "service/solve_service.hpp"
#include "sparse/matrix_market.hpp"

namespace {

using namespace rtl;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--workload NAME | --matrix F.mtx]\n"
               "          [--level K] [--rhs K] [--repeat R] [--metrics]\n"
               "NAME: spe1..spe5, 5pt, 9pt, 7pt, l5pt, l9pt, l7pt, or\n"
               "parametric 5pt:N / 9pt:N / 7pt:N\n",
               argv0);
  return 2;
}

/// Deterministic right-hand side j for an n-row system: a fixed seed
/// makes reruns byte-identical, distinct j keeps the batch columns
/// distinguishable (a column-swap bug changes the checksum).
std::vector<real_t> burst_rhs(index_t n, int j) {
  std::vector<real_t> rhs(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    rhs[static_cast<std::size_t>(i)] =
        1.0 + 0.001 * static_cast<real_t>((i * 31 + j * 17) % 101);
  }
  return rhs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string workload = "5pt:24";
  std::string matrix_file;
  int level = 0;
  int rhs_count = 4;
  int repeats = 1;
  bool want_metrics = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      socket_path = v;
    } else if (arg == "--workload") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      workload = v;
    } else if (arg == "--matrix") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      matrix_file = v;
    } else if (arg == "--level") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      level = std::atoi(v);
    } else if (arg == "--rhs") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      rhs_count = std::atoi(v);
    } else if (arg == "--repeat") {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      repeats = std::atoi(v);
    } else if (arg == "--metrics") {
      want_metrics = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty() || rhs_count < 1 || repeats < 1) {
    return usage(argv[0]);
  }

  try {
    ServiceClient client(socket_path);
    constexpr std::uint32_t kMatrixId = 1;
    index_t n = 0;
    WallTimer setup_timer;
    if (!matrix_file.empty()) {
      const CsrMatrix a = read_matrix_market_file(matrix_file);
      n = a.rows();
      client.upload_matrix(kMatrixId, a, level);
    } else {
      // Resolve locally only for the dimension; the server builds its own.
      n = service_workload(workload).a.rows();
      client.open_workload(kMatrixId, workload, level);
    }
    std::printf("rtl_client: registered %s (n=%lld, ilu level %d) in %.2f ms\n",
                matrix_file.empty() ? workload.c_str() : matrix_file.c_str(),
                static_cast<long long>(n), level, setup_timer.elapsed_ms());

    std::vector<std::vector<real_t>> burst(
        static_cast<std::size_t>(rhs_count));
    for (int j = 0; j < rhs_count; ++j) {
      burst[static_cast<std::size_t>(j)] = burst_rhs(n, j);
    }

    LatencyHistogram burst_latency;
    Hash64 checksum;
    std::uint64_t solved = 0;
    std::uint64_t rejected = 0;
    for (int r = 0; r < repeats; ++r) {
      WallTimer timer;
      const auto outcomes = client.solve_pipelined(kMatrixId, burst);
      burst_latency.record(timer.elapsed_ms());
      for (const auto& outcome : outcomes) {
        if (outcome.ok) {
          ++solved;
          checksum.update(outcome.x.data(),
                          outcome.x.size() * sizeof(real_t));
        } else if (outcome.error == ServiceErrc::kRejected) {
          ++rejected;  // admission backpressure: expected under load
        } else {
          std::fprintf(stderr, "rtl_client: request %llu failed: %s\n",
                       static_cast<unsigned long long>(outcome.request_id),
                       outcome.error_message.c_str());
          return 1;
        }
      }
    }

    const LatencySnapshot lat = burst_latency.snapshot();
    std::printf("rtl_client: %llu solves in %d bursts of %d (%llu rejected)\n",
                static_cast<unsigned long long>(solved), repeats, rhs_count,
                static_cast<unsigned long long>(rejected));
    std::printf("rtl_client: burst latency p50 %.3f ms, p99 %.3f ms\n",
                lat.percentile_ms(50.0), lat.percentile_ms(99.0));
    std::printf("rtl_client: result checksum %016llx\n",
                static_cast<unsigned long long>(checksum.digest()));

    if (want_metrics) {
      const ServiceMetrics m = client.metrics();
      std::printf("rtl_client: server metrics\n");
      std::printf("  admitted       : %llu (%llu rejected)\n",
                  static_cast<unsigned long long>(m.admitted),
                  static_cast<unsigned long long>(m.rejected));
      std::printf("  batches        : %llu (%llu multi-request)\n",
                  static_cast<unsigned long long>(m.batches),
                  static_cast<unsigned long long>(m.multi_request_batches()));
      std::printf("  solve latency  : p50 %.3f ms, p99 %.3f ms\n",
                  m.solve_latency.percentile_ms(50.0),
                  m.solve_latency.percentile_ms(99.0));
      std::printf("  inspector runs : %llu\n",
                  static_cast<unsigned long long>(m.inspector_runs()));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtl_client: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
