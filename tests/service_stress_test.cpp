// Solve-service stress layer (label: stress, so the TSan CI job runs it):
// N concurrent client threads hammer one server over a loopback socket.
// Pinned properties:
//
//   - exactly-once replies: every request gets exactly one reply, every
//     reply pairs with a pending request (solve_pipelined throws on
//     duplicates or unknowns), and the aggregate completed count matches;
//   - bit-for-bit correctness under concurrency: every solution equals a
//     sequential single-RHS reference solve computed on a one-thread
//     Runtime before the stampede starts;
//   - the aggregator demonstrably batches: with concurrent pipelined
//     bursts and a small aggregation window, the width histogram must
//     show multi-request batches;
//   - admission control under pressure: with a tiny queue cap, rejects
//     are typed, client-visible, counted — and never corrupt or drop an
//     accepted request's reply.
//
// Thread count and problem size stay deliberately small: the TSan job
// runs this on whatever CI host it gets (including 1-core), and the
// *interleavings* are the test, not throughput.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/latency_histogram.hpp"
#include "runtime/timer.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/solve_service.hpp"

namespace rtl {
namespace {

constexpr int kClients = 8;
constexpr int kBursts = 4;        // pipelined bursts per client
constexpr int kBurstWidth = 4;    // solve requests per burst
const char* const kWorkload = "5pt:10";  // n = 100: interleavings, not FLOPs

std::vector<real_t> stress_rhs(index_t n, int client, int burst, int j) {
  std::vector<real_t> rhs(static_cast<std::size_t>(n));
  const int seed = client * 1000 + burst * 10 + j;
  for (index_t i = 0; i < n; ++i) {
    rhs[static_cast<std::size_t>(i)] =
        1.0 + 0.01 * static_cast<real_t>((i * 7 + seed) % 113);
  }
  return rhs;
}

std::string temp_socket(const char* tag) {
  return testing::TempDir() + "/rtl_stress_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// All expected solutions, computed sequentially on a one-thread Runtime
/// before any concurrency exists. Keyed by (client, burst, j).
std::map<std::tuple<int, int, int>, std::vector<real_t>> references(
    const LinearSystem& system) {
  Runtime rt(1, /*plan_cache_capacity=*/8, /*plan_cache_dir=*/"");
  IluPreconditioner precond(rt, system.a, 0);
  precond.factor(rt.team(), system.a);
  std::map<std::tuple<int, int, int>, std::vector<real_t>> out;
  for (int c = 0; c < kClients; ++c) {
    for (int b = 0; b < kBursts; ++b) {
      for (int j = 0; j < kBurstWidth; ++j) {
        const auto rhs = stress_rhs(system.a.rows(), c, b, j);
        std::vector<real_t> x(rhs.size());
        precond.apply(rt.team(), rhs, x);
        out.emplace(std::make_tuple(c, b, j), std::move(x));
      }
    }
  }
  return out;
}

TEST(ServiceStressTest, ConcurrentClientsExactlyOnceAndBitForBit) {
  const LinearSystem system = service_workload(kWorkload);
  const auto expected = references(system);

  ServiceConfig config;
  config.team_size = 2;
  config.queue_capacity = 256;  // ample: no rejects in this test
  config.batch_window = std::chrono::microseconds(2000);
  config.plan_cache_capacity = 8;  // hermetic: no RTL_PLAN_CACHE_CAP
  config.plan_cache_dir = "";
  SolveService service(config);
  const std::string path = temp_socket("main");
  ServiceServer server(service, path);

  // Exercised concurrently from every client thread (and itself a
  // TSan-visible surface of the histogram's record path).
  LatencyHistogram burst_latency;
  std::atomic<std::uint64_t> solved{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        ServiceClient client(path);
        // Same named workload in every session: the shared factorization
        // entry is what makes cross-client batching possible.
        client.open_workload(1, kWorkload, 0);
        for (int b = 0; b < kBursts; ++b) {
          std::vector<std::vector<real_t>> burst;
          burst.reserve(kBurstWidth);
          for (int j = 0; j < kBurstWidth; ++j) {
            burst.push_back(stress_rhs(system.a.rows(), c, b, j));
          }
          WallTimer timer;
          const auto outcomes = client.solve_pipelined(1, burst);
          burst_latency.record(timer.elapsed_ms());
          ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kBurstWidth));
          for (int j = 0; j < kBurstWidth; ++j) {
            const auto& outcome = outcomes[static_cast<std::size_t>(j)];
            ASSERT_TRUE(outcome.ok)
                << "client " << c << " burst " << b << " request " << j
                << ": " << outcome.error_message;
            ASSERT_EQ(outcome.x, expected.at(std::make_tuple(c, b, j)))
                << "client " << c << " burst " << b << " request " << j;
            solved.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } catch (const std::exception& e) {
        failures.fetch_add(1, std::memory_order_relaxed);
        ADD_FAILURE() << "client " << c << " died: " << e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kClients) * kBursts * kBurstWidth;
  EXPECT_EQ(solved.load(), kTotal);
  EXPECT_EQ(burst_latency.snapshot().total(),
            static_cast<std::uint64_t>(kClients) * kBursts);

  server.stop();
  const ServiceMetrics m = service.metrics();
  // Exactly-once on the server side too: every admitted request completed,
  // none errored, none rejected, and the latency histogram saw them all.
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.request_errors, 0u);
  EXPECT_EQ(m.completed, kTotal + kClients);  // + one open_workload each
  EXPECT_EQ(m.solve_latency.total(), kTotal);
  EXPECT_EQ(m.sessions_opened, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(m.sessions_closed, static_cast<std::uint64_t>(kClients));
  // The factorization is shared service-wide: one inspector pass per plan,
  // not one per client. Registration plans the single-RHS pair (the factor
  // shares the forward solve's plan) and binds the batched pair.
  EXPECT_EQ(m.inspector_runs(), 4u);
  // The aggregator demonstrably coalesced concurrent requests.
  EXPECT_GT(m.multi_request_batches(), 0u)
      << "no batch ever held more than one request";
  EXPECT_LT(m.batches, kTotal) << "every batch had width 1";
}

TEST(ServiceStressTest, TinyQueueRejectsAreTypedAndLoseNothing) {
  const LinearSystem system = service_workload(kWorkload);
  const auto expected = references(system);

  ServiceConfig config;
  config.team_size = 2;
  config.queue_capacity = 3;  // deliberately starved
  config.batch_window = std::chrono::microseconds(3000);
  config.plan_cache_dir = "";
  SolveService service(config);
  const std::string path = temp_socket("reject");
  ServiceServer server(service, path);

  std::atomic<std::uint64_t> ok_count{0};
  std::atomic<std::uint64_t> rejected_count{0};
  std::atomic<int> failures{0};

  constexpr int kPressureClients = 4;
  // Register sequentially before the stampede: a synchronous
  // open_workload bounced by the starved queue would throw, and this
  // test is about solve-phase pressure, not registration retries.
  std::vector<std::unique_ptr<ServiceClient>> connections;
  for (int c = 0; c < kPressureClients; ++c) {
    connections.push_back(std::make_unique<ServiceClient>(path));
    connections.back()->open_workload(1, kWorkload, 0);
  }

  std::vector<std::thread> clients;
  clients.reserve(kPressureClients);
  for (int c = 0; c < kPressureClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        ServiceClient& client = *connections[static_cast<std::size_t>(c)];
        for (int b = 0; b < kBursts; ++b) {
          std::vector<std::vector<real_t>> burst;
          for (int j = 0; j < kBurstWidth; ++j) {
            burst.push_back(stress_rhs(system.a.rows(), c, b, j));
          }
          const auto outcomes = client.solve_pipelined(1, burst);
          for (int j = 0; j < kBurstWidth; ++j) {
            const auto& outcome = outcomes[static_cast<std::size_t>(j)];
            if (outcome.ok) {
              // An accepted request's reply is still bit-for-bit right,
              // no matter how much rejection churn surrounds it.
              ASSERT_EQ(outcome.x, expected.at(std::make_tuple(c, b, j)));
              ok_count.fetch_add(1, std::memory_order_relaxed);
            } else {
              ASSERT_EQ(outcome.error, ServiceErrc::kRejected)
                  << outcome.error_message;
              rejected_count.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      } catch (const std::exception& e) {
        failures.fetch_add(1, std::memory_order_relaxed);
        ADD_FAILURE() << "client " << c << " died: " << e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kPressureClients) * kBursts * kBurstWidth;
  // Every request resolved exactly once: solved or typed-rejected.
  EXPECT_EQ(ok_count.load() + rejected_count.load(), kTotal);

  server.stop();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.rejected, rejected_count.load());
  EXPECT_EQ(m.solve_latency.total(), ok_count.load());
  EXPECT_EQ(m.request_errors, 0u);
  // 16 pipelined requests racing a 3-deep queue: pressure must have been
  // visible (if this ever flakes, the queue cap is not exercising
  // admission at all and the test should get meaner, not softer).
  EXPECT_GT(rejected_count.load(), 0u);
  EXPECT_EQ(m.queue_depth_peak, 3u);
}

}  // namespace
}  // namespace rtl
