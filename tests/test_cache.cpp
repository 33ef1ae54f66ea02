// The content-addressed result cache (api/cache.hpp) and its wiring
// through Service::run / run_matrix: hits reproduce cold verdicts
// bit-for-bit, expectations are re-derived per job, out-of-budget
// frontiers warm-resume, a job that changes only its seeds reuses the
// stored proof, and the store degrades (never errors) on corruption and
// stays under its size cap.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/service.hpp"
#include "scenarios/canonical.hpp"
#include "scenarios/registry.hpp"
#include "util/text.hpp"
#include "verify/checker.hpp"

namespace ptecps::api {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("ptecps-" + name);
  fs::remove_all(dir);
  return dir.string();
}

Service cached_service(const std::string& dir, std::uint64_t max_bytes = 0) {
  ServiceOptions options;
  options.cache_dir = dir;
  if (max_bytes > 0) options.cache_max_bytes = max_bytes;
  return Service(options);
}

Job smoke_job(const std::string& name) {
  Job job = Job::for_scenario(name);
  job.smoke = true;
  return job;
}

/// Everything the acceptance bar compares: verdict, state counts, and
/// the counterexample's canonical bytes (never wall clock or counters).
std::string fingerprint(const JobResult& r) {
  std::string out = r.verdict;
  if (r.report.has_value()) {
    for (const campaign::ScenarioOutcome& s : r.report->scenarios) {
      if (!s.verification.has_value()) continue;
      const campaign::VerificationOutcome& v = *s.verification;
      out += util::cat(";", s.name, ":", verify::verify_status_str(v.status), ",",
                       v.states_explored, ",", v.states_stored, ",", v.transitions);
      if (v.counterexample.has_value())
        out += ";" + v.counterexample->to_json().dump_canonical();
    }
  }
  if (r.crossval.has_value())
    for (const scenarios::CrossCheck& c : r.crossval->checks)
      out += util::cat(";xval:", c.scenario, "=", c.consistent);
  return out;
}

/// The JSON a JobResult renders, minus what may differ between a cold
/// run and a cache hit: wall-clock timings and the cache counters.
util::Json untimed(util::Json j) {
  static const std::set<std::string, std::less<>> kMasked = {
      "wall_ms",    "wall_seconds",    "wall_mean_s", "wall_p50_s",
      "wall_p99_s", "runs_per_second", "cache"};
  if (j.is_object()) {
    std::erase_if(j.as_object(), [](const auto& m) { return kMasked.contains(m.first); });
    for (auto& m : j.as_object()) m.second = untimed(std::move(m.second));
  } else if (j.is_array()) {
    for (util::Json& e : j.as_array()) e = untimed(std::move(e));
  }
  return j;
}

/// A deliberately broken registry entry — its cached entry must carry
/// the counterexample byte-for-byte.
std::string violating_scenario() {
  for (const scenarios::RegistryEntry& e : scenarios::registry())
    if (e.expected == verify::VerifyStatus::kViolation) return e.name;
  return scenarios::registry().front().name;
}

TEST(ResultCache, StoreLoadRoundTripAndCorruptionTolerance) {
  ResultCache::Options options;
  options.dir = fresh_dir("roundtrip");
  const ResultCache cache(options);

  util::Json payload = util::Json::object();
  payload.set("verdict", "proved");
  cache.store_result("k1", "some-scenario", payload);
  const auto loaded = cache.load_result("k1");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->dump_canonical(), payload.dump_canonical());
  EXPECT_FALSE(cache.load_result("absent").has_value());

  // An entry of an older schema version is a miss: its JobResult need
  // not have the shape today's pipeline stores.
  const fs::path file = fs::path(options.dir) / "results" / "k1.json";
  {
    std::ifstream in(file);
    util::Json wrapper = util::Json::parse(
        std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>()));
    wrapper.set("version", 1);
    std::ofstream(file, std::ios::trunc) << wrapper.dump(2);
  }
  EXPECT_FALSE(cache.load_result("k1").has_value());

  // A torn / corrupt entry is a miss, never an error.
  {
    std::ofstream out(file, std::ios::trunc);
    out << "{\"schema\": \"ptecps-cache-result\", \"version\"";
  }
  EXPECT_FALSE(cache.load_result("k1").has_value());

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.results, 1u);
  EXPECT_EQ(cache.clear(), 1u);
  EXPECT_EQ(cache.stats().results, 0u);
}

TEST(ResultCache, ConstructionFailsLoudlyOnUnusablePath) {
  const std::string dir = fresh_dir("blocked");
  fs::create_directories(fs::path(dir).parent_path());
  {
    std::ofstream out(dir);  // the cache root exists as a FILE
    out << "not a directory";
  }
  ResultCache::Options options;
  options.dir = dir;
  try {
    const ResultCache cache(options);
    FAIL() << "expected construction to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
        << "diagnostic must name the path: " << e.what();
  }
  fs::remove(dir);
}

TEST(ResultCache, EvictionKeepsTheStoreUnderItsCap) {
  ResultCache::Options options;
  options.dir = fresh_dir("evict");
  options.max_bytes = 64;  // smaller than any single entry
  const ResultCache cache(options);
  util::Json payload = util::Json::object();
  payload.set("verdict", "proved");
  cache.store_result("a", "s", payload);
  cache.store_result("b", "s", payload);
  EXPECT_LE(cache.stats().bytes, options.max_bytes);
}

TEST(ResultCache, EveryStoreLeavesTheStoreUnderItsCap) {
  // Stores count bytes instead of scanning the store each time; the cap
  // must hold after every one of them all the same.
  ResultCache::Options options;
  options.dir = fresh_dir("evict-counted");
  options.max_bytes = 6000;  // about four entries
  const ResultCache cache(options);
  util::Json payload = util::Json::object();
  payload.set("blob", std::string(1200, 'x'));
  for (int i = 0; i < 3 * static_cast<int>(ResultCache::kRescanEvery); ++i) {
    cache.store_result(util::cat("k", i), "s", payload);
    ASSERT_LE(cache.stats().bytes, options.max_bytes) << "after store " << i;
  }
  EXPECT_GE(cache.stats().results, 3u);  // eviction stops at the cap

  // Another writer's entries are counted by this instance's next scans.
  const ResultCache other(options);
  for (int i = 0; i < 8; ++i) other.store_result(util::cat("o", i), "s", payload);
  for (int i = 0; i < static_cast<int>(ResultCache::kRescanEvery); ++i)
    cache.store_result(util::cat("m", i), "s", payload);
  EXPECT_LE(cache.stats().bytes, options.max_bytes);
}

TEST(ServiceCache, SecondRunHitsWithIdenticalVerdict) {
  const std::string dir = fresh_dir("hit");
  const std::string name = violating_scenario();
  const Service service = cached_service(dir);

  const JobResult cold = service.run(smoke_job(name));
  EXPECT_TRUE(cold.cache.enabled);
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_EQ(cold.cache.misses, 1u);

  const JobResult hit = service.run(smoke_job(name));
  EXPECT_EQ(hit.cache.hits, 1u);
  EXPECT_EQ(hit.cache.misses, 0u);
  EXPECT_EQ(fingerprint(hit), fingerprint(cold));
  EXPECT_EQ(hit.ok, cold.ok);

  // A cache-less service reproduces the same verdict (the cache never
  // changes answers, only work).
  const JobResult uncached = Service().run(smoke_job(name));
  EXPECT_FALSE(uncached.cache.enabled);
  EXPECT_EQ(fingerprint(uncached), fingerprint(cold));
}

TEST(ServiceCache, HitRecomputesExpectationForTheJobAtHand) {
  const std::string dir = fresh_dir("expect");
  const std::string name = violating_scenario();
  const Service service = cached_service(dir);
  const JobResult cold = service.run(smoke_job(name));
  ASSERT_EQ(cold.cache.misses, 1u);

  // Same scenario, contradictory assertion: still a hit (the expectation
  // is not part of the key), but judged against THIS job.
  Job wrong = smoke_job(name);
  wrong.expected = verify::VerifyStatus::kProved;
  const JobResult hit = service.run(wrong);
  EXPECT_EQ(hit.cache.hits, 1u);
  EXPECT_FALSE(hit.expected_match);
  EXPECT_FALSE(hit.ok);
  EXPECT_EQ(fingerprint(hit), fingerprint(cold));
}

TEST(ServiceCache, OutOfBudgetFrontierWarmResumesLargerBudgets) {
  const std::string dir = fresh_dir("resume");
  const std::string name = "three-entity-chain";
  const Service service = cached_service(dir);

  Job small = smoke_job(name);
  small.tuning.max_states = 200;
  const JobResult first = service.run(small);
  ASSERT_EQ(first.verdict, "out-of-budget");

  const JobResult warm = service.run(smoke_job(name));
  EXPECT_EQ(warm.cache.misses, 1u);  // different budget → different key
  EXPECT_EQ(warm.cache.resumes, 1u);

  const JobResult cold = Service().run(smoke_job(name));
  EXPECT_EQ(fingerprint(warm), fingerprint(cold));
}

TEST(ServiceCache, MatrixSecondPassIsAllHits) {
  const std::string dir = fresh_dir("matrix");
  const std::string violating = violating_scenario();
  std::vector<Job> jobs = {smoke_job("three-entity-chain"), smoke_job(violating)};
  const Service service = cached_service(dir);

  const MatrixResult cold = service.run_matrix(jobs);
  EXPECT_EQ(cold.cache.hits, 0u);
  EXPECT_EQ(cold.cache.misses, 2u);
  ASSERT_EQ(cold.rows.size(), 2u);

  const MatrixResult warm = service.run_matrix(jobs);
  EXPECT_EQ(warm.cache.hits, 2u);
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_EQ(warm.ok, cold.ok);
  ASSERT_EQ(warm.rows.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(warm.rows[i].scenario, cold.rows[i].scenario);
    EXPECT_EQ(warm.rows[i].status, cold.rows[i].status);
    EXPECT_EQ(warm.rows[i].expected_match, cold.rows[i].expected_match);
    EXPECT_EQ(warm.rows[i].consistent, cold.rows[i].consistent);
  }
  ASSERT_TRUE(warm.report.has_value());
  ASSERT_TRUE(cold.report.has_value());
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& wv = warm.report->scenarios[i].verification;
    const auto& cv = cold.report->scenarios[i].verification;
    ASSERT_EQ(wv.has_value(), cv.has_value());
    if (!wv.has_value()) continue;
    EXPECT_EQ(wv->status, cv->status);
    EXPECT_EQ(wv->states_explored, cv->states_explored);
    EXPECT_EQ(wv->states_stored, cv->states_stored);
    EXPECT_EQ(wv->transitions, cv->transitions);
    ASSERT_EQ(wv->counterexample.has_value(), cv->counterexample.has_value());
    if (wv->counterexample.has_value())
      EXPECT_EQ(wv->counterexample->to_json().dump_canonical(),
                cv->counterexample->to_json().dump_canonical());
  }

  // A solo run of a matrix-cached scenario hits the same entry.
  const JobResult solo = service.run(smoke_job(violating));
  EXPECT_EQ(solo.cache.hits, 1u);
}

TEST(ServiceCache, HitEqualsTheColdRunWhicheverEntryPointStoredIt) {
  // run() and run_matrix() store the one JobResult run() returns, so a
  // hit re-renders the cold answer no matter which call wrote the entry:
  // every mode, cross-validation on and off, solo or beside another job.
  const std::vector<std::string> names = {"three-entity-chain", "laser-tracheotomy",
                                          "adversarial-drop"};
  int dir_id = 0;
  for (std::size_t n = 0; n < names.size(); ++n) {
    for (const campaign::RunMode mode : {campaign::RunMode::kMonteCarlo,
                                         campaign::RunMode::kVerify, campaign::RunMode::kBoth}) {
      for (const bool xval : {true, false}) {
        Job job = smoke_job(names[n]);
        job.mode = mode;
        job.cross_validate = xval;
        Job other = smoke_job(names[(n + 1) % names.size()]);
        other.mode = campaign::RunMode::kBoth;
        const std::string cold = untimed(Service().run(job).to_json()).dump(2);

        const std::vector<std::pair<std::string, std::function<void(const Service&)>>> writers = {
            {"run(job)", [&](const Service& s) { s.run(job); }},
            {"run_matrix({job})", [&](const Service& s) { s.run_matrix({job}); }},
            {"run_matrix({other, job})", [&](const Service& s) { s.run_matrix({other, job}); }}};
        for (const auto& [writer, write] : writers) {
          SCOPED_TRACE(util::cat(names[n], " mode=", scenarios::run_mode_str(mode),
                                 " cross_validate=", xval, " written by ", writer));
          const Service service = cached_service(fresh_dir(util::cat("writer-", dir_id++)));
          write(service);
          const JobResult hit = service.run(job);
          ASSERT_EQ(hit.cache.hits, 1u);
          EXPECT_EQ(untimed(hit.to_json()).dump(2), cold);
        }
      }
    }
  }
}

/// The prover's answer for `params`, straight from the checker.
std::string proof_fingerprint(const scenarios::ScenarioParams& params) {
  const campaign::ScenarioSpec spec = scenarios::build(params);
  verify::VerifyOptions opt;
  opt.max_losses = spec.verify.max_losses;
  opt.max_injections = spec.verify.max_injections;
  opt.max_input_changes = spec.verify.max_input_changes;
  opt.max_states = spec.verify.max_states;
  opt.threads = spec.verify.threads;
  const verify::VerifyResult r =
      verify::verify_pte(verify::compile_model(spec.verify_input()), opt);
  std::string out = util::cat(verify::verify_status_str(r.status), ",", r.states_explored, ",",
                              r.states_stored, ",", r.transitions, ",", r.sketch.bits_hex());
  if (r.counterexample.has_value()) out += ";" + r.counterexample->to_json().dump_canonical();
  return out;
}

TEST(ResultCache, ProofKeyMasksExactlyWhatTheProverNeverReads) {
  ResultCache::Options options;
  options.dir = fresh_dir("proof-key");
  const ResultCache cache(options);
  for (const scenarios::RegistryEntry& entry : scenarios::registry()) {
    SCOPED_TRACE(entry.name);
    scenarios::ScenarioParams base = scenarios::export_document(entry).params;
    scenarios::apply_tuning(base, scenarios::RegistryTuning::smoke());
    const std::string key = cache.proof_key(base);

    // Masked: seeds, thread counts, and verify-vs-both.
    std::vector<scenarios::ScenarioParams> masked(4, base);
    masked[0].seed_base += 7;
    masked[1].seed_count += 3;
    masked[2].verify.threads = 3;
    masked[3].mode = base.mode == campaign::RunMode::kBoth ? campaign::RunMode::kVerify
                                                           : campaign::RunMode::kBoth;
    for (const scenarios::ScenarioParams& p : masked) EXPECT_EQ(cache.proof_key(p), key);
    if (entry.name == "three-entity-chain" || entry.name == "adversarial-drop") {
      const std::string proof = proof_fingerprint(base);
      for (const scenarios::ScenarioParams& p : masked) EXPECT_EQ(proof_fingerprint(p), proof);
    }

    // Every other field the canonical digest covers moves the key.
    scenarios::ScenarioParams p = base;
    p.name += "-renamed";
    EXPECT_NE(cache.proof_key(p), key);
    p = base;
    p.horizon += 1.0;
    EXPECT_NE(cache.proof_key(p), key);
    p = base;
    p.verify.max_losses += 1;
    EXPECT_NE(cache.proof_key(p), key);
    p = base;
    p.verify.max_states += 1;
    EXPECT_NE(cache.proof_key(p), key);
  }

  using attack::AttackerModel;
  using Mutation = std::function<void(AttackerModel&)>;
  const std::vector<std::pair<AttackerModel, std::vector<Mutation>>> families = {
      {AttackerModel::bernoulli(0.3), {[](AttackerModel& a) { a.p += 0.1; }}},
      {AttackerModel::gilbert_elliott(0.05, 0.4, 0.02, 0.8),
       {[](AttackerModel& a) { a.p_gb += 0.01; }, [](AttackerModel& a) { a.p_bg += 0.01; },
        [](AttackerModel& a) { a.loss_good += 0.01; },
        [](AttackerModel& a) { a.loss_bad += 0.01; }}},
      {AttackerModel::interference(2.0, 0.5, 0.9, 0.02, 0.25),
       {[](AttackerModel& a) { a.period += 1.0; }, [](AttackerModel& a) { a.burst += 0.1; },
        [](AttackerModel& a) { a.loss_burst += 0.05; },
        [](AttackerModel& a) { a.loss_idle += 0.01; },
        [](AttackerModel& a) { a.phase += 0.5; }}},
      {AttackerModel::scripted({true, false, true}),
       {[](AttackerModel& a) { a.script.push_back(true); }}},
      {AttackerModel::sustained_jammer(0.8), {[](AttackerModel& a) { a.kill_prob += 0.05; }}},
      {AttackerModel::reactive_jammer(0.8, 1.0, 0.9),
       {[](AttackerModel& a) { a.kill_prob += 0.05; },
        [](AttackerModel& a) { a.sense_prob -= 0.1; },
        [](AttackerModel& a) { a.jam_len += 0.25; }}},
  };
  for (const auto& [family, fields] : families) {
    scenarios::ScenarioParams base;
    base.name = "proof-key-probe";
    base.attacker = family;
    base.attacker.with_intensity(0.5).with_budget(4);
    const std::string key = cache.proof_key(base);
    std::vector<Mutation> all = fields;
    all.push_back([](AttackerModel& a) { a.intensity = 0.75; });
    all.push_back([](AttackerModel& a) { a.budget += 1; });
    all.push_back([](AttackerModel& a) {
      a.kind = a.kind == AttackerModel::Kind::kBernoulli ? AttackerModel::Kind::kSustainedJammer
                                                         : AttackerModel::Kind::kBernoulli;
    });
    for (std::size_t f = 0; f < all.size(); ++f) {
      scenarios::ScenarioParams p = base;
      all[f](p.attacker);
      EXPECT_NE(cache.proof_key(p), key)
          << attack::attacker_kind_str(family.kind) << " mutation " << f;
    }
  }
}

TEST(ServiceCache, ProofHitEqualsTheColdRun) {
  // A job that differs from a stored one only in its seeds misses the
  // result but reuses the proof: only its Monte-Carlo seeds run, and it
  // renders what a cache-less run of it renders.
  const std::vector<std::string> names = {"three-entity-chain", "laser-tracheotomy",
                                          "adversarial-drop"};
  int dir_id = 0;
  for (const std::string& name : names) {
    for (const campaign::RunMode mode : {campaign::RunMode::kVerify, campaign::RunMode::kBoth}) {
      for (const bool xval : {true, false}) {
        SCOPED_TRACE(util::cat(name, " mode=", scenarios::run_mode_str(mode),
                               " cross_validate=", xval));
        Job writer = smoke_job(name);
        writer.mode = mode;
        writer.cross_validate = xval;
        writer.seed_base = 1;
        Job reader = writer;
        reader.seed_base = 2;
        const std::string cold = untimed(Service().run(reader).to_json()).dump(2);

        const Service service = cached_service(fresh_dir(util::cat("proof-", dir_id++)));
        service.run(writer);
        const JobResult hit = service.run(reader);
        EXPECT_EQ(hit.cache.hits, 0u);
        EXPECT_EQ(hit.cache.misses, 1u);
        EXPECT_EQ(hit.cache.proof_hits, 1u);
        EXPECT_EQ(untimed(hit.to_json()).dump(2), cold);
      }
    }
  }
}

TEST(ServiceCache, MatrixDifferingOnlyInSeedsProvesOnce) {
  const std::string dir = fresh_dir("proof-matrix");
  Job first = smoke_job("three-entity-chain");
  first.seed_base = 1;
  Job second = first;
  second.seed_base = 2;
  const Service service = cached_service(dir);

  const MatrixResult m = service.run_matrix({first, second});
  ASSERT_TRUE(m.errors.empty());
  EXPECT_EQ(m.cache.hits, 0u);
  EXPECT_EQ(m.cache.misses, 2u);
  EXPECT_EQ(m.cache.proof_hits, 1u);
  EXPECT_EQ(m.deduped, 0u);
  EXPECT_EQ(service.cache()->stats().proofs, 1u);

  // The shared proof changes no answer.
  const MatrixResult uncached = Service().run_matrix({first, second});
  EXPECT_EQ(untimed(m.report->to_json()).dump(2), untimed(uncached.report->to_json()).dump(2));

  // A later solo run with fresh seeds finds the stored proof.
  Job third = first;
  third.seed_base = 3;
  EXPECT_EQ(service.run(third).cache.proof_hits, 1u);
  const CacheStats stats = service.cache()->stats();
  EXPECT_EQ(stats.proofs, 1u);
  EXPECT_EQ(stats.results, 3u);

  // clear() covers proofs too.
  EXPECT_EQ(service.cache()->clear(), stats.results + stats.proofs + stats.checkpoints);
  EXPECT_EQ(service.cache()->stats().proofs, 0u);
}

}  // namespace
}  // namespace ptecps::api
