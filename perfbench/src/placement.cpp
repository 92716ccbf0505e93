// Fixed, rotating CPU placement of the benchmark's threads.
#include <sched.h>

#include <atomic>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

std::atomic<unsigned> g_round{0};

/// The CPUs this process may use, captured before anything is pinned.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed)) out.push_back(c);
    return out;
  }();
  return cpus;
}

}  // namespace

void set_placement_round(unsigned round) {
  (void)allowed_cpus();
  g_round.store(round, std::memory_order_relaxed);
}

void pin_thread(std::size_t slot) {
  const auto& cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[(slot + g_round.load(std::memory_order_relaxed)) % cpus.size()],
          &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

}  // namespace perfbench
