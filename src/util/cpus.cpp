#include "util/cpus.hpp"

#include <sched.h>

#include <algorithm>
#include <thread>

namespace ptecps::util {

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace ptecps::util
