#include "model/calibration.hpp"

#include "runtime/barrier.hpp"
#include "runtime/timer.hpp"

namespace rtl {

double measure_barrier_ms(ThreadTeam& team, int count) {
  WallTimer t;
  team.run([&](int) {
    for (int k = 0; k < count; ++k) team.barrier().arrive_and_wait();
  });
  return t.elapsed_ms();
}

}  // namespace rtl
