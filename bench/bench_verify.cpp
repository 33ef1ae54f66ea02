// Exhaustive-verification bench: proves the PTE rules of a scenario under
// the bounded worst-case adversary (all message loss/delay interleavings,
// surgeon commands at arbitrary instants, ApprovalCondition collapse) and
// demonstrates the counterexample pipeline on a deliberately broken
// variant (dwell ceiling lowered below the worst-case occupancy), whose
// trace must replay to the same violation through hybrid::Engine.
//
// The laser proof is also the verifier's throughput yardstick: the run is
// timed and allocation-counted, swept across thread counts (results must
// be bit-identical at every count), and the numbers land in
// BENCH_verify.json next to the PR-2 baseline so regressions are visible
// in-repo.  The JSON additionally records the active inner-loop clone
// of the zone engine (avx2 or scalar) and the partial-order reduction's
// stored-state shrink on the laser proof and the synthesized three-entity
// chain.
//
// Usage: bench_verify [--scenario laser|quickstart] [--losses 2]
//                     [--injections 2] [--input-changes 1]
//                     [--states 1000000] [--threads 1] [--skip-broken]
//                     [--skip-json]
// Exit 0 iff the clean variant is PROVED, the broken variant's
// counterexample replays (unless --skip-broken), and the thread sweep
// reproduced the single-thread result bit for bit (unless --skip-json).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "campaign/scenario.hpp"
#include "core/synthesis.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/text.hpp"
#include "verify/checker.hpp"
#include "verify/replay.hpp"
#include "verify/zone_kernels.hpp"

using namespace ptecps;

// Global allocation counter (shared across the perf benches), for the
// allocs/zone column.
#include "alloc_counter.hpp"

namespace {

campaign::ScenarioSpec make_spec(const std::string& scenario) {
  campaign::ScenarioSpec spec;
  spec.name = scenario;
  spec.mode = campaign::RunMode::kVerify;
  if (scenario == "laser") {
    spec.config = core::PatternConfig::laser_tracheotomy();
  } else if (scenario == "quickstart") {
    // The quickstart example's synthesized three-entity chain.
    core::SynthesisRequest request;
    request.n_remotes = 3;
    request.t_risky_min = {2.0, 2.0};
    request.t_safe_min = {1.0, 1.0};
    request.initializer_lease = 12.0;
    request.t_wait_max = 1.5;
    request.t_fb_min_0 = 4.0;
    spec.config = core::synthesize(request);
  } else {
    std::fprintf(stderr, "unknown --scenario '%s' (laser|quickstart)\n", scenario.c_str());
    std::exit(2);
  }
  return spec;
}

struct Timed {
  verify::VerifyResult result;
  double seconds = 0.0;
  std::uint64_t allocs = 0;
};

Timed run_verify(const verify::CompiledModel& model, const verify::VerifyOptions& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t a0 = g_allocs.load();
  Timed timed;
  timed.result = verify::verify_pte(model, opt);
  timed.allocs = g_allocs.load() - a0;
  timed.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return timed;
}

/// A result fingerprint that must be bit-identical across thread counts:
/// verdict, state counts, and the full counterexample narrative.
std::string fingerprint(const verify::VerifyResult& r) {
  std::string fp = r.summary();
  if (r.counterexample.has_value()) fp += "\n" + r.counterexample->str();
  return fp;
}

// PR-2 reference for the identical laser proof, measured on this
// container before the packed-DBM / antichain-store / parallel-rounds
// rebuild (heap-allocated Bound{double,bool} DBMs, per-enqueue key
// vectors, serial FIFO exploration).  Future PRs compare against
// "current".
constexpr double kPr2Seconds = 1.94;
constexpr double kPr2States = 44668.0;
constexpr double kPr2AllocsPerState = 55.3;

/// POR on/off on one spec: same verdict required, stored-state shrink
/// reported.  Returns a row for BENCH_verify.json's "por" table.
util::Json por_row(const std::string& name, const verify::CompiledModel& model,
                   verify::VerifyOptions opt, bool* ok) {
  opt.threads = 1;
  opt.por = true;
  const Timed reduced = run_verify(model, opt);
  opt.por = false;
  const Timed full = run_verify(model, opt);
  const bool same = reduced.result.status == full.result.status;
  *ok = *ok && same;
  if (!same)
    std::fprintf(stderr, "bench_verify: POR changed the verdict on %s\n", name.c_str());
  util::Json row = util::Json::object();
  row.set("scenario", name);
  row.set("status", verify::verify_status_str(reduced.result.status));
  row.set("states_stored_por", reduced.result.states_stored);
  row.set("states_stored_full", full.result.states_stored);
  row.set("stored_reduction_x", static_cast<double>(full.result.states_stored) /
                                    static_cast<double>(reduced.result.states_stored));
  row.set("seconds_por", reduced.seconds);
  row.set("seconds_full", full.seconds);
  row.set("identical_verdict", same);
  return row;
}

bool write_verify_json(const campaign::ScenarioSpec& spec,
                       const verify::VerifyInput& input, verify::VerifyOptions opt) {
  const verify::CompiledModel model = verify::compile_model(input);
  // Warm-up (page faults, allocator growth), then best-of-3 — identical
  // deterministic work each pass, the max filters out scheduler noise
  // (single passes on small container hosts swing by ~20%).
  opt.threads = 1;
  run_verify(model, opt);
  Timed single = run_verify(model, opt);
  for (int rep = 1; rep < 3; ++rep) {
    Timed t = run_verify(model, opt);
    if (t.seconds < single.seconds) single = std::move(t);
  }
  const std::string reference = fingerprint(single.result);
  const double states_per_sec =
      static_cast<double>(single.result.states_explored) / single.seconds;
  const double zones_per_sec =
      static_cast<double>(single.result.transitions) / single.seconds;
  const double allocs_per_zone = static_cast<double>(single.allocs) /
                                 static_cast<double>(single.result.states_stored);

  util::Json doc = util::Json::object();
  doc.set("workload",
          util::cat(spec.name, " exhaustive PTE proof: <= ", opt.max_losses,
                    " losses, <= ", opt.max_injections, " injections, <= ",
                    opt.max_input_changes, " input changes"));
  doc.set("hardware_threads", std::thread::hardware_concurrency());
  doc.set("zone_kernels", verify::active_zone_kernels().name);
  util::Json baseline = util::Json::object();
  baseline.set("seconds", kPr2Seconds);
  baseline.set("states_stored", kPr2States);
  baseline.set("states_per_sec", kPr2States / kPr2Seconds);
  baseline.set("allocs_per_state", kPr2AllocsPerState);
  doc.set("pr2_baseline", std::move(baseline));
  util::Json st = util::Json::object();
  st.set("status", verify::verify_status_str(single.result.status));
  st.set("seconds", single.seconds);
  st.set("states_explored", single.result.states_explored);
  st.set("states_stored", single.result.states_stored);
  st.set("transitions", single.result.transitions);
  st.set("states_per_sec", states_per_sec);
  st.set("zones_per_sec", zones_per_sec);
  st.set("allocs_per_zone", allocs_per_zone);
  doc.set("single_thread", std::move(st));
  doc.set("speedup_vs_pr2_x", kPr2Seconds / single.seconds);
  doc.set("alloc_reduction_x", kPr2AllocsPerState / allocs_per_zone);
  // Thread sweep over the same proof; every row must reproduce the
  // single-thread result bit for bit (the determinism guarantee).
  util::Json scaling = util::Json::array();
  const std::size_t thread_counts[] = {1, 2, 4, 8};
  bool identical = true;
  for (std::size_t i = 0; i < 4; ++i) {
    verify::VerifyOptions topt = opt;
    topt.threads = thread_counts[i];
    const Timed t = run_verify(model, topt);
    const bool same = fingerprint(t.result) == reference;
    identical = identical && same;
    util::Json row = util::Json::object();
    row.set("threads", thread_counts[i]);
    row.set("seconds", t.seconds);
    row.set("states_per_sec", static_cast<double>(t.result.states_explored) / t.seconds);
    row.set("identical_result", same);
    scaling.push_back(std::move(row));
    if (!same)
      std::fprintf(stderr, "bench_verify: result at %zu threads DIVERGED\n",
                   thread_counts[i]);
  }
  doc.set("scaling", std::move(scaling));
  if (std::thread::hardware_concurrency() <= 1)
    doc.set("scaling_note",
            "host reports 1 hardware thread: the sweep verifies determinism, "
            "not parallel speedup");

  // Partial-order reduction: stored-state shrink on the reference proof
  // and on the synthesized three-entity chain (where interleaving blowup
  // is worst).  The chain runs at tightened budgets to stay a bench, not
  // a soak test.
  bool por_ok = true;
  util::Json por = util::Json::array();
  por.push_back(por_row(spec.name, model, opt, &por_ok));
  {
    campaign::ScenarioSpec chain = make_spec("quickstart");
    verify::VerifyOptions copt = opt;
    copt.max_losses = 1;
    copt.max_injections = 1;
    const verify::CompiledModel chain_model =
        verify::compile_model(chain.verify_input());
    por.push_back(por_row("three-entity-chain", chain_model, copt, &por_ok));
  }
  doc.set("por", std::move(por));

  std::FILE* f = std::fopen("BENCH_verify.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_verify.json\n");
    return false;
  }
  std::fputs(doc.dump(2).c_str(), f);
  std::fclose(f);
  std::printf("\nwrote BENCH_verify.json (%.3f s single-thread, %.2fx over PR-2 baseline "
              "%.2f s; %.0f zones/s, %.2f allocs/zone, thread sweep %s)\n",
              single.seconds, kPr2Seconds / single.seconds, kPr2Seconds, zones_per_sec,
              allocs_per_zone, identical ? "bit-identical" : "DIVERGED");
  return identical && por_ok && single.result.status == verify::VerifyStatus::kProved;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv, {"injections", "input-changes", "losses", "scenario", "skip-broken", "skip-json", "states", "threads"});
  const std::string scenario = args.get_string("scenario", "laser");
  verify::VerifyOptions opt;
  opt.max_losses = static_cast<std::size_t>(args.get_int("losses", 2));
  opt.max_injections = static_cast<std::size_t>(args.get_int("injections", 2));
  opt.max_input_changes = static_cast<std::size_t>(args.get_int("input-changes", 1));
  opt.max_states = static_cast<std::size_t>(args.get_int("states", 1'000'000));
  opt.threads = static_cast<std::size_t>(args.get_int("threads", 1));

  campaign::ScenarioSpec spec = make_spec(scenario);
  const verify::VerifyInput clean_input = spec.verify_input();
  std::printf("=== exhaustive PTE verification: %s ===\n", scenario.c_str());
  std::printf("adversary: <= %zu losses, <= %zu injections, <= %zu input changes, "
              "delivery window [%.3f, %.3f] s; %zu thread(s)\n\n",
              opt.max_losses, opt.max_injections, opt.max_input_changes,
              clean_input.delivery_min, clean_input.delivery_max, opt.threads);

  // 1. The paper's claim: the synthesized configuration keeps the PTE
  //    rules under every adversary behavior within the budgets.
  const verify::CompiledModel clean_model = verify::compile_model(clean_input);
  const Timed clean = run_verify(clean_model, opt);
  std::printf("clean:  %s\n        %.3f s, %.0f states/s, %.2f allocs/zone\n",
              clean.result.summary().c_str(), clean.seconds,
              static_cast<double>(clean.result.states_explored) / clean.seconds,
              static_cast<double>(clean.allocs) /
                  static_cast<double>(clean.result.states_stored));
  const bool clean_ok = clean.result.status == verify::VerifyStatus::kProved;

  bool broken_ok = true;
  if (!args.has_flag("skip-broken")) {
    // 2. Broken variant: judge the same system against a dwell ceiling
    //    below ξ1's worst-case occupancy — the verifier must find the
    //    excursion and the trace must replay in the simulator.
    campaign::ScenarioSpec broken = make_spec(scenario);
    broken.dwell_bound = broken.config.entity(1).t_run_max * 0.5;
    const verify::VerifyInput broken_input = broken.verify_input();
    verify::VerifyOptions bopt = opt;
    bopt.max_losses = std::min<std::size_t>(opt.max_losses, 1);
    const verify::CompiledModel broken_model = verify::compile_model(broken_input);
    const Timed cx_run = run_verify(broken_model, bopt);
    std::printf("\nbroken (dwell ceiling %.1f s): %s\n        %.3f s\n", broken.dwell_bound,
                cx_run.result.summary().c_str(), cx_run.seconds);
    broken_ok = cx_run.result.status == verify::VerifyStatus::kViolation &&
                cx_run.result.counterexample.has_value();
    if (broken_ok) {
      const verify::ReplayResult replay =
          verify::replay_counterexample(broken_input, *cx_run.result.counterexample);
      std::printf("%s\n", cx_run.result.counterexample->str().c_str());
      std::printf("%s\n", replay.summary().c_str());
      broken_ok = replay.reproduced;
    }
  }

  bool json_ok = true;
  if (!args.has_flag("skip-json")) {
    // The committed pr2_baseline constants were measured for the laser
    // proof at the default adversary budgets; any other workload would
    // make speedup_vs_pr2_x meaningless, so the JSON is only recorded
    // for that exact configuration.
    const bool reference_workload = scenario == "laser" && opt.max_losses == 2 &&
                                    opt.max_injections == 2 &&
                                    opt.max_input_changes == 1 &&
                                    opt.max_states == 1'000'000;
    if (reference_workload) {
      json_ok = write_verify_json(spec, clean_input, opt);
    } else {
      std::printf("\n(BENCH_verify.json is recorded only for --scenario laser at the "
                  "default adversary budgets)\n");
    }
  }

  std::printf("\n%s\n", clean_ok && broken_ok && json_ok ? "VERIFICATION BENCH PASSED"
                                                         : "VERIFICATION BENCH FAILED");
  return clean_ok && broken_ok && json_ok ? 0 : 1;
}
