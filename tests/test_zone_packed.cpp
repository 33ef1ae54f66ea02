// Property tests for the packed zone engine and the subsumption store:
//
//  * packed-bound arithmetic (bound_min / bound_add / bound_lt, infinity
//    handling) agrees with the double+bool reference representation on
//    randomized inputs drawn from the packable grid;
//  * inclusion signatures are monotone under zone inclusion;
//  * the antichain subsumption store never loses a reachable violation:
//    randomized small timed models are cross-checked against the naive
//    exact-equality store (VerifyOptions::subsumption = false), and both
//    must agree on the verdict;
//  * whole zone operations (constrain, intersect, down, inclusion and
//    the signatures) agree with a naive double+bool DBM written here, on
//    random zones of 1-40 clocks, so every 4-lane tail split of a row
//    and of a matrix occurs in the engine's inner loops;
//  * load_raw rejects words outside the packed range;
//  * partial-order reduction preserves verdicts and counterexamples on
//    randomized models while never storing more states;
//  * parallel exploration is bit-identical across thread counts, and
//    threads = 0 resolves to hardware concurrency.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/scenario.hpp"
#include "core/config.hpp"
#include "scenarios/builder.hpp"
#include "sim/random.hpp"
#include "util/cpus.hpp"
#include "verify/checker.hpp"
#include "verify/model.hpp"
#include "verify/replay.hpp"
#include "verify/zone.hpp"

namespace ptecps::verify {
namespace {

// ---------------------------------------------------------------------------
// Packed-bound arithmetic vs. the double+bool reference
// ---------------------------------------------------------------------------

/// A random bound on the packable grid (value = k * 2^-32 s), sometimes
/// infinite.  Grid values round-trip exactly through pack/unpack, which
/// is what makes exact agreement with the reference well-defined.
Bound random_bound(sim::Rng& rng) {
  if (rng.bernoulli(0.1)) return Bound::inf();
  // Fixed-point numerator in ±2^40 (values up to ~256 s, well inside the
  // packable range) — biased toward small "model-like" magnitudes.
  const std::int64_t fixed = static_cast<std::int64_t>(rng.uniform_int(1ull << 41)) -
                             (std::int64_t{1} << 40);
  const double value = static_cast<double>(fixed) / kPackedScale;
  return rng.bernoulli(0.5) ? Bound::lt(value) : Bound::le(value);
}

TEST(PackedBound, RoundTripsGridValues) {
  sim::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const Bound b = random_bound(rng);
    const PackedBound w = pack(b);
    const Bound back = unpack(w);
    if (b.is_inf()) {
      EXPECT_TRUE(back.is_inf());
      EXPECT_TRUE(packed_is_inf(w));
    } else {
      EXPECT_EQ(back, b) << b.value << (b.strict ? " <" : " <=");
      EXPECT_FALSE(packed_is_inf(w));
      EXPECT_EQ(packed_strict(w), b.strict);
      EXPECT_DOUBLE_EQ(packed_value(w), b.value);
    }
  }
}

TEST(PackedBound, OrderingMatchesReference) {
  sim::Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    const Bound a = random_bound(rng);
    const Bound b = random_bound(rng);
    const PackedBound wa = pack(a), wb = pack(b);
    // Reference bound_lt treats two infinities as equal (both strict);
    // packed infinity is one canonical word, same behavior.
    EXPECT_EQ(packed_tighter(wa, wb), bound_lt(a, b))
        << a.value << "/" << a.strict << " vs " << b.value << "/" << b.strict;
    EXPECT_EQ(packed_min(wa, wb), pack(bound_min(a, b)));
  }
}

TEST(PackedBound, AdditionMatchesReference) {
  sim::Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const Bound a = random_bound(rng);
    const Bound b = random_bound(rng);
    const Bound ref = bound_add(a, b);
    const PackedBound sum = packed_add(pack(a), pack(b));
    if (ref.is_inf()) {
      EXPECT_TRUE(packed_is_inf(sum));
    } else {
      // Grid + grid is exact: the packed sum must equal the packed
      // reference sum bit for bit.
      EXPECT_EQ(sum, pack(ref)) << a.value << " + " << b.value;
    }
  }
}

TEST(PackedBound, InfinityIsAbsorbingAndLoosest) {
  const PackedBound inf = kPackedInf;
  const PackedBound tight = packed_lt(-100.0);
  const PackedBound loose = packed_le(100.0);
  EXPECT_TRUE(packed_is_inf(packed_add(inf, tight)));
  EXPECT_TRUE(packed_is_inf(packed_add(inf, inf)));
  EXPECT_TRUE(packed_tighter(loose, inf));
  EXPECT_TRUE(packed_tighter(tight, loose));
  EXPECT_EQ(packed_min(inf, loose), loose);
}

// ---------------------------------------------------------------------------
// Inclusion signatures
// ---------------------------------------------------------------------------

Zone random_zone(std::size_t clocks, sim::Rng& rng) {
  Zone z(clocks);
  z.up();
  for (std::size_t c = 0; c < 1 + rng.uniform_int(3); ++c)
    z.constrain(1 + rng.uniform_int(clocks), 0,
                packed_le(1.0 + static_cast<double>(rng.uniform_int(50))));
  for (std::size_t r = 0; r < rng.uniform_int(3); ++r)
    z.reset(1 + rng.uniform_int(clocks));
  if (rng.bernoulli(0.5)) z.up();
  return z;
}

TEST(ZoneSignature, MonotoneUnderInclusion) {
  sim::Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t clocks = 2 + rng.uniform_int(6);
    Zone big = random_zone(clocks, rng);
    if (big.is_empty()) continue;
    Zone small = big;
    small.constrain(1 + rng.uniform_int(clocks), 0,
                    packed_le(0.5 + static_cast<double>(rng.uniform_int(20))));
    if (small.is_empty()) continue;
    ASSERT_TRUE(small.subset_of(big));
    EXPECT_LE(small.signature(), big.signature());
    EXPECT_LE(small.lower_signature(), big.lower_signature());
  }
}

TEST(ZoneWiden, RepresentsTheExtrapolatedSet) {
  // probe ⊆ widened(z)  must agree with  probe ⊆ extrapolate(z): the
  // widened matrix is a non-canonical representation of the same set,
  // and inclusion only needs the probe canonical.
  sim::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t clocks = 2 + rng.uniform_int(4);
    const double k = 10.0;
    Zone z = random_zone(clocks, rng);
    if (z.is_empty()) continue;
    Zone widened = z, extrapolated = z;
    widened.widen(k);
    extrapolated.extrapolate(k);
    const Zone probe = random_zone(clocks, rng);
    if (probe.is_empty()) continue;
    EXPECT_EQ(probe.subset_of(widened), probe.subset_of(extrapolated)) << i;
  }
}

// ---------------------------------------------------------------------------
// Whole zone operations vs. a naive double+bool DBM
// ---------------------------------------------------------------------------

/// The reference: Bound entries, a full Floyd–Warshall after every
/// operation, entrywise inclusion and plain shift sums over the packed
/// words.  It shares no loop with the engine.
struct RefZone {
  std::size_t n;
  std::vector<Bound> d;
  bool empty = false;

  explicit RefZone(std::size_t clocks) : n(clocks + 1), d(n * n, Bound::le(0.0)) {}
  Bound& at(std::size_t i, std::size_t j) { return d[i * n + j]; }
  const Bound& at(std::size_t i, std::size_t j) const { return d[i * n + j]; }

  void close() {
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
          at(i, j) = bound_min(at(i, j), bound_add(at(i, k), at(k, j)));
    for (std::size_t i = 0; i < n; ++i)
      if (bound_lt(at(i, i), Bound::le(0.0))) empty = true;
  }
  void up() {
    for (std::size_t i = 1; i < n; ++i) at(i, 0) = Bound::inf();
    close();
  }
  void reset(std::size_t x) {
    for (std::size_t j = 0; j < n; ++j) {
      at(x, j) = at(0, j);
      at(j, x) = at(j, 0);
    }
    at(x, x) = Bound::le(0.0);
    close();
  }
  void constrain(std::size_t i, std::size_t j, const Bound& b) {
    at(i, j) = bound_min(at(i, j), b);
    close();
  }
  void intersect(const RefZone& o) {
    for (std::size_t idx = 0; idx < d.size(); ++idx) d[idx] = bound_min(d[idx], o.d[idx]);
    close();
  }
  void down() {
    for (std::size_t i = 1; i < n; ++i) {
      at(0, i) = Bound::le(0.0);
      for (std::size_t j = 1; j < n; ++j) at(0, i) = bound_min(at(0, i), at(j, i));
    }
    close();
  }
  bool subset_of(const RefZone& o) const {
    for (std::size_t idx = 0; idx < d.size(); ++idx)
      if (bound_lt(o.d[idx], d[idx])) return false;
    return true;
  }
  std::int64_t shift_sum(std::size_t count, int shift) const {
    std::int64_t sum = 0;
    for (std::size_t idx = 0; idx < count; ++idx) sum += pack(d[idx]) >> shift;
    return sum;
  }
};

/// "" when `z` and `ref` hold the same zone, else the first difference.
std::string mismatch(const Zone& z, const RefZone& ref) {
  if (z.is_empty() != ref.empty) return "emptiness differs";
  if (ref.empty) return "";
  for (std::size_t i = 0; i < ref.n; ++i)
    for (std::size_t j = 0; j < ref.n; ++j)
      if (z.at(i, j) != ref.at(i, j))
        return "entry (" + std::to_string(i) + ", " + std::to_string(j) + ")";
  return "";
}

/// A bound on a quarter-second grid, exact in both representations.
Bound grid_bound(sim::Rng& rng, int lo, int hi) {
  const double v = static_cast<double>(lo + static_cast<int>(rng.uniform_int(hi - lo + 1))) / 4;
  return rng.bernoulli(0.5) ? Bound::lt(v) : Bound::le(v);
}

/// One random operation on both representations; an operation that
/// empties the zone is checked, then undone, so the walk stays non-empty.
void random_step(Zone& z, RefZone& ref, sim::Rng& rng) {
  const std::size_t clocks = ref.n - 1;
  const std::size_t x = 1 + rng.uniform_int(clocks);
  const Zone z_before = z;
  const RefZone ref_before = ref;
  switch (rng.uniform_int(6)) {
    case 0:
      z.up();
      ref.up();
      break;
    case 1:
      z.reset(x);
      ref.reset(x);
      break;
    case 2: {  // x <= c
      const Bound b = grid_bound(rng, 0, 80);
      z.constrain(x, 0, b);
      ref.constrain(x, 0, b);
      break;
    }
    case 3: {  // x >= c
      const Bound b = grid_bound(rng, -80, 0);
      z.constrain(0, x, b);
      ref.constrain(0, x, b);
      break;
    }
    case 4: {  // x - y <= c
      const std::size_t y = 1 + rng.uniform_int(clocks);
      if (y == x) return;
      const Bound b = grid_bound(rng, -40, 40);
      z.constrain(x, y, b);
      ref.constrain(x, y, b);
      break;
    }
    default:
      z.down();
      ref.down();
      break;
  }
  ASSERT_EQ(mismatch(z, ref), "") << "clocks=" << clocks;
  if (ref.empty) {
    z = z_before;
    ref = ref_before;
  }
}

TEST(ZoneReference, OperationsMatchANaiveDbm) {
  sim::Rng rng(7);
  for (int trial = 0; trial < 240; ++trial) {
    const std::size_t clocks = 1 + trial % 40;
    Zone a(clocks), b(clocks);
    RefZone ra(clocks), rb(clocks);
    for (int step = 0; step < 8; ++step) {
      ASSERT_NO_FATAL_FAILURE(random_step(a, ra, rng));
      ASSERT_NO_FATAL_FAILURE(random_step(b, rb, rng));
    }
    EXPECT_EQ(a.subset_of(b), ra.subset_of(rb)) << "clocks=" << clocks;
    EXPECT_EQ(b.subset_of(a), rb.subset_of(ra)) << "clocks=" << clocks;
    EXPECT_TRUE(a.subset_of(a));

    Zone meet = a;
    RefZone rmeet = ra;
    meet.intersect(b);
    rmeet.intersect(rb);
    ASSERT_EQ(mismatch(meet, rmeet), "") << "intersect, clocks=" << clocks;
    if (!rmeet.empty) {
      EXPECT_EQ(meet.subset_of(a), rmeet.subset_of(ra));
      EXPECT_EQ(a.subset_of(meet), ra.subset_of(rmeet));
    }

    const std::size_t total = ra.d.size();
    for (const auto& [z, ref] : {std::pair<const Zone&, const RefZone&>{a, ra}, {b, rb}}) {
      EXPECT_EQ(z.signature(), ref.shift_sum(total, 16)) << "clocks=" << clocks;
      EXPECT_EQ(z.lower_signature(), ref.shift_sum(ref.n, 8)) << "clocks=" << clocks;
      const Zone::SigPair both = z.signatures();
      EXPECT_EQ(both.sig, z.signature());
      EXPECT_EQ(both.lower, z.lower_signature());
    }
  }
}

TEST(ZoneLoadRaw, RejectsWordsOutsideThePackedRange) {
  Zone z(3);
  z.up();
  z.constrain(1, 0, packed_le(5.0));
  const std::vector<PackedBound> words(z.raw(), z.raw() + 16);
  Zone loaded(3);
  ASSERT_TRUE(loaded.load_raw(words.data()));
  EXPECT_EQ(loaded, z);

  auto loads = [&words](std::size_t idx, PackedBound w) {
    std::vector<PackedBound> bad = words;
    bad[idx] = w;
    Zone target(3);
    const bool ok = target.load_raw(bad.data());
    if (!ok) {
      EXPECT_EQ(target, Zone(3)) << "a rejected load must leave the zone as it was";
    }
    return ok;
  };
  // Off-diagonal: kPackedInf or strictly inside ±kPackedInfClamp.
  for (const std::size_t idx : {std::size_t{1}, std::size_t{4}, std::size_t{11}}) {
    for (const PackedBound w : {INT64_MAX, INT64_MAX - 1, kPackedInf + 1, kPackedInf - 1,
                                kPackedInfClamp, -kPackedInfClamp, INT64_MIN})
      EXPECT_FALSE(loads(idx, w)) << "idx " << idx << " word " << w;
    EXPECT_TRUE(loads(idx, kPackedInf));
    EXPECT_TRUE(loads(idx, kPackedInfClamp - 1));
    EXPECT_TRUE(loads(idx, -kPackedInfClamp + 1));
  }
  // Diagonal: exactly packed_le(0).
  for (const std::size_t idx : {std::size_t{0}, std::size_t{5}, std::size_t{15}}) {
    EXPECT_FALSE(loads(idx, packed_lt(0.0)));
    EXPECT_FALSE(loads(idx, packed_le(1.0)));
    EXPECT_FALSE(loads(idx, kPackedInf));
  }
}

// ---------------------------------------------------------------------------
// Subsumption store vs. the exact-equality oracle on random timed models
// ---------------------------------------------------------------------------

/// A randomized small pattern system: synthesized configs (always
/// Theorem-1-consistent) judged against either their own dwell bound
/// (expected: proved) or a lowered one (expected: violation).  The
/// generator itself now lives in the scenario library
/// (scenarios::synthesize — same draw sequence as the historical local
/// helper, so the trial mix is unchanged).
campaign::ScenarioSpec random_model(sim::Rng& rng, bool breakable) {
  scenarios::SynthesizeOptions options;
  options.n_remotes = 2;
  options.breakable = breakable;
  options.mode = campaign::RunMode::kVerify;
  return scenarios::synthesize(rng, options);
}

TEST(SubsumptionStore, NeverLosesAReachableViolation) {
  sim::Rng rng(6);
  int violations_seen = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const campaign::ScenarioSpec spec = random_model(rng, true);
    const CompiledModel model = compile_model(spec.verify_input());

    VerifyOptions antichain;
    antichain.max_losses = 1;
    antichain.max_injections = 1;
    antichain.max_states = 400'000;
    VerifyOptions oracle = antichain;
    oracle.subsumption = false;

    const VerifyResult fast = verify_pte(model, antichain);
    const VerifyResult naive = verify_pte(model, oracle);
    ASSERT_NE(naive.status, VerifyStatus::kOutOfBudget) << naive.summary();
    ASSERT_NE(fast.status, VerifyStatus::kOutOfBudget) << fast.summary();
    // The property: the stores agree on the verdict.  (In particular the
    // antichain must not have dropped a state from which the oracle can
    // reach a violation.)
    EXPECT_EQ(fast.status, naive.status)
        << "antichain: " << fast.summary() << "\noracle: " << naive.summary();
    // Subsumption only prunes — it must never store more than the
    // equality-dedup oracle.
    EXPECT_LE(fast.states_stored, naive.states_stored);
    if (fast.status == VerifyStatus::kViolation) {
      ++violations_seen;
      ASSERT_TRUE(fast.counterexample.has_value());
      EXPECT_EQ(fast.counterexample->kind, naive.counterexample->kind);
      // Both counterexamples concretize and replay in the real engine.
      const ReplayResult replay =
          replay_counterexample(spec.verify_input(), *fast.counterexample);
      EXPECT_TRUE(replay.reproduced) << fast.counterexample->str();
    }
  }
  // The trial mix must actually exercise the violating path.
  EXPECT_GE(violations_seen, 1);
}

// ---------------------------------------------------------------------------
// Partial-order reduction vs. the full interleaving exploration
// ---------------------------------------------------------------------------

TEST(PartialOrderReduction, PreservesVerdictsOnRandomModels) {
  sim::Rng rng(8);
  int violations_seen = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const campaign::ScenarioSpec spec = random_model(rng, trial % 2 == 1);
    const CompiledModel model = compile_model(spec.verify_input());

    VerifyOptions reduced_opt;
    reduced_opt.max_losses = 1;
    reduced_opt.max_injections = 1;
    reduced_opt.max_states = 400'000;
    VerifyOptions full_opt = reduced_opt;
    full_opt.por = false;

    const VerifyResult reduced = verify_pte(model, reduced_opt);
    const VerifyResult full = verify_pte(model, full_opt);
    ASSERT_NE(full.status, VerifyStatus::kOutOfBudget) << full.summary();
    ASSERT_NE(reduced.status, VerifyStatus::kOutOfBudget) << reduced.summary();
    // The property: the reduction is exact — same verdict with and
    // without it, and it only ever prunes.
    EXPECT_EQ(reduced.status, full.status)
        << "por: " << reduced.summary() << "\nfull: " << full.summary();
    EXPECT_LE(reduced.states_stored, full.states_stored);
    if (reduced.status == VerifyStatus::kViolation) {
      ++violations_seen;
      ASSERT_TRUE(reduced.counterexample.has_value());
      EXPECT_EQ(reduced.counterexample->kind, full.counterexample->kind);
      // The reduced run's counterexample still concretizes to a replayable
      // concrete schedule (POR must not free a clock the trace reads).
      const ReplayResult replay =
          replay_counterexample(spec.verify_input(), *reduced.counterexample);
      EXPECT_TRUE(replay.reproduced) << reduced.counterexample->str();
    }
  }
  EXPECT_GE(violations_seen, 1);
}

// ---------------------------------------------------------------------------
// Parallel determinism
// ---------------------------------------------------------------------------

std::string fingerprint(const VerifyResult& r) {
  std::string fp = r.summary();
  if (r.counterexample.has_value()) fp += "\n" + r.counterexample->str();
  return fp;
}

TEST(ParallelChecker, BitIdenticalAcrossThreadCounts) {
  for (const bool broken : {false, true}) {
    campaign::ScenarioSpec spec;
    spec.name = "laser";
    spec.config = core::PatternConfig::laser_tracheotomy();
    spec.mode = campaign::RunMode::kVerify;
    if (broken) spec.dwell_bound = 30.0;
    const CompiledModel model = compile_model(spec.verify_input());
    VerifyOptions opt;
    opt.max_losses = 1;
    opt.max_injections = 1;
    std::string reference;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
      opt.threads = threads;
      const VerifyResult r = verify_pte(model, opt);
      if (threads == 1)
        reference = fingerprint(r);
      else
        EXPECT_EQ(fingerprint(r), reference) << "threads=" << threads;
    }
    ASSERT_FALSE(reference.empty());
  }
}

TEST(ParallelChecker, BudgetCutoffIsDeterministicAcrossThreads) {
  // A budget that lands mid-round must truncate the same canonical
  // prefix at every thread count.
  campaign::ScenarioSpec spec;
  spec.name = "laser";
  spec.config = core::PatternConfig::laser_tracheotomy();
  spec.mode = campaign::RunMode::kVerify;
  const CompiledModel model = compile_model(spec.verify_input());
  VerifyOptions opt;
  opt.max_losses = 1;
  opt.max_injections = 1;
  opt.max_states = 137;  // deliberately mid-round
  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    opt.threads = threads;
    const VerifyResult r = verify_pte(model, opt);
    EXPECT_EQ(r.status, VerifyStatus::kOutOfBudget);
    if (threads == 1)
      reference = fingerprint(r);
    else
      EXPECT_EQ(fingerprint(r), reference);
  }
}

TEST(ParallelChecker, ZeroThreadsResolvesToTheUsableCpus) {
  campaign::ScenarioSpec spec;
  spec.name = "laser";
  spec.config = core::PatternConfig::laser_tracheotomy();
  spec.mode = campaign::RunMode::kVerify;
  const CompiledModel model = compile_model(spec.verify_input());
  VerifyOptions opt;
  opt.max_losses = 1;
  opt.max_injections = 1;
  opt.threads = 0;
  const VerifyResult r = verify_pte(model, opt);
  EXPECT_EQ(r.threads_used, util::usable_cpus());
  // Resolution changes nothing but the worker count: same fingerprint as
  // an explicit single-thread run.
  opt.threads = 1;
  const VerifyResult one = verify_pte(model, opt);
  EXPECT_EQ(one.threads_used, 1u);
  EXPECT_EQ(fingerprint(r), fingerprint(one));
}

}  // namespace
}  // namespace ptecps::verify
