// Zone-engine microbenchmarks: the packed-DBM primitives the verifier's
// hot path is made of — up/constrain/reset (successor construction),
// subset_of (antichain scans), extrapolate/widen (store admission),
// intersect (full Floyd–Warshall close), copy — plus the passed-list
// insert path itself (signature-pruned antichain with subsumption
// eviction, the same algorithm checker.cpp runs per stored state).
//
// Each row reports ops/s and allocs/op from a whole-binary operator-new
// counter; the header names the active inner-loop clone (avx2 or scalar).
//
// Usage: bench_zone_ops [--clocks 17] [--iters 200000]
// Exit 0 once every op has run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/random.hpp"
#include "util/cli.hpp"
#include "verify/zone.hpp"
#include "verify/zone_kernels.hpp"

using namespace ptecps;
using verify::PackedBound;
using verify::Zone;

#include "alloc_counter.hpp"

namespace {

using steady_clock = std::chrono::steady_clock;

struct Row {
  const char* name;
  double ops_per_sec = 0.0;
  double allocs_per_op = 0.0;
};

/// Run `op` `iters` times, timed and allocation-counted.
template <typename Fn>
Row bench(const char* name, std::size_t iters, Fn&& op) {
  const std::uint64_t a0 = g_allocs.load();
  const auto t0 = steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) op(i);
  const double secs = std::chrono::duration<double>(steady_clock::now() - t0).count();
  const std::uint64_t allocs = g_allocs.load() - a0;
  Row row{name};
  row.ops_per_sec = static_cast<double>(iters) / secs;
  row.allocs_per_op = static_cast<double>(allocs) / static_cast<double>(iters);
  return row;
}

/// A randomized non-trivial canonical zone: delay, a few single-clock
/// constraints, a few resets — the shape the checker produces.
Zone random_zone(std::size_t clocks, sim::Rng& rng) {
  Zone z(clocks);
  z.up();
  const std::size_t n_constraints = 1 + rng.uniform_int(3);
  for (std::size_t c = 0; c < n_constraints; ++c) {
    const std::size_t clock = 1 + rng.uniform_int(clocks);
    const double bound = 1.0 + static_cast<double>(rng.uniform_int(40));
    z.constrain(clock, 0, verify::packed_le(bound));
  }
  const std::size_t n_resets = rng.uniform_int(3);
  for (std::size_t r = 0; r < n_resets; ++r) z.reset(1 + rng.uniform_int(clocks));
  z.up();
  const std::size_t clock = 1 + rng.uniform_int(clocks);
  z.constrain(clock, 0, verify::packed_le(5.0 + static_cast<double>(rng.uniform_int(30))));
  return z;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv, {"clocks", "iters"});
  const std::size_t clocks = static_cast<std::size_t>(args.get_int("clocks", 17));
  const std::size_t iters = static_cast<std::size_t>(args.get_int("iters", 200000));

  sim::Rng rng(42);
  std::vector<Zone> samples;
  for (std::size_t i = 0; i < 256; ++i) samples.push_back(random_zone(clocks, rng));

  std::vector<Row> rows;

  // Successor construction primitives, on a recycled working copy.
  {
    Zone scratch = samples[0];
    rows.push_back(bench("copy", iters,
                         [&](std::size_t i) { scratch = samples[i & 255]; }));
    rows.push_back(bench("up", iters, [&](std::size_t i) {
      scratch = samples[i & 255];
      scratch.up();
    }));
    const PackedBound guard = verify::packed_le(7.5);
    rows.push_back(bench("constrain (incremental close)", iters, [&](std::size_t i) {
      scratch = samples[i & 255];
      scratch.constrain(1 + (i % clocks), 0, guard);
    }));
    rows.push_back(bench("reset", iters, [&](std::size_t i) {
      scratch = samples[i & 255];
      scratch.reset(1 + (i % clocks));
    }));
    rows.push_back(bench("widen (no close)", iters, [&](std::size_t i) {
      scratch = samples[i & 255];
      scratch.widen(48.0);
    }));
    rows.push_back(bench("extrapolate (widen + close)", iters / 4, [&](std::size_t i) {
      scratch = samples[i & 255];
      scratch.extrapolate(48.0);
    }));
    Zone other = samples[1];
    rows.push_back(bench("intersect (full close)", iters / 4, [&](std::size_t i) {
      scratch = samples[i & 255];
      scratch.intersect(other);
    }));
  }

  // Store-side primitives.
  volatile bool sink = false;
  rows.push_back(bench("subset_of", iters, [&](std::size_t i) {
    sink = samples[i & 255].subset_of(samples[(i + 1) & 255]);
  }));
  volatile std::int64_t sig_sink = 0;
  rows.push_back(bench("signature", iters,
                       [&](std::size_t i) { sig_sink = samples[i & 255].signature(); }));

  // The passed-list insert path: signature-sorted antichain with
  // subsumption drop + eviction, exactly as Checker::absorb runs it.
  {
    struct Entry {
      std::int64_t sig;
      Zone z;
    };
    std::vector<Entry> chain;
    sim::Rng insert_rng(7);
    rows.push_back(bench("passed-list insert", iters / 8, [&](std::size_t) {
      Zone z = random_zone(clocks, insert_rng);
      const std::int64_t raw_sig = z.signature();
      auto ge = std::lower_bound(
          chain.begin(), chain.end(), raw_sig,
          [](const Entry& e, std::int64_t s) { return e.sig < s; });
      for (auto it = ge; it != chain.end(); ++it) {
        if (z.subset_of(it->z)) return;  // subsumed: dropped
      }
      z.widen(48.0);
      const std::int64_t sig = z.signature();
      auto le = std::upper_bound(chain.begin(), chain.end(), sig,
                                 [](std::int64_t s, const Entry& e) { return s < e.sig; });
      auto keep = chain.begin();
      for (auto it = chain.begin(); it != le; ++it) {
        if (it->z.subset_of(z)) continue;  // evicted
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
      if (keep != le) chain.erase(std::move(le, chain.end(), keep), chain.end());
      chain.insert(std::upper_bound(chain.begin(), chain.end(), sig,
                                    [](std::int64_t s, const Entry& e) {
                                      return s < e.sig;
                                    }),
                   Entry{sig, std::move(z)});
      if (chain.size() > 512) chain.clear();  // bound the store, like a fresh key
    }));
  }

  std::printf("zone ops, %zu clocks (%zu-dim packed DBM, %zu iters, %s loops):\n", clocks,
              clocks + 1, iters, verify::active_zone_kernels().name);
  std::printf("  %-32s %14s %12s\n", "op", "ops/s", "allocs/op");
  for (const Row& r : rows)
    std::printf("  %-32s %14.0f %12.4f\n", r.name, r.ops_per_sec, r.allocs_per_op);
  std::printf("ZONE OPS BENCH PASSED\n");
  return 0;
}
