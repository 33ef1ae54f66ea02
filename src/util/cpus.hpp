// How many CPUs "all of them" means for this process.
#pragma once

#include <cstddef>

namespace ptecps::util {

/// The CPUs in this process's affinity mask (taskset, a cgroup cpuset),
/// falling back to std::thread::hardware_concurrency() when the mask
/// cannot be read; never 0.  Every thread count of 0 resolves to this:
/// hardware_concurrency() counts the host's online CPUs, so a process
/// pinned to one CPU would otherwise start a worker per host CPU and
/// time-slice them.
std::size_t usable_cpus();

}  // namespace ptecps::util
