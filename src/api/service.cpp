#include "api/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <set>
#include <span>
#include <utility>

#include "scenarios/canonical.hpp"
#include "util/require.hpp"
#include "util/text.hpp"

namespace ptecps::api {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A row's compute wall, derived from the outcome's recorded timings so
/// fresh and cached answers report the same number.
double outcome_wall_ms(const campaign::ScenarioOutcome& outcome) {
  double ms = outcome.wall_mean_s * static_cast<double>(outcome.runs.size()) * 1000.0;
  if (outcome.verification.has_value()) ms += outcome.verification->wall_seconds * 1000.0;
  return ms;
}

/// Re-derive the expectation-dependent half of a JobResult.  The
/// asserted expectation is deliberately NOT part of the cache key, so a
/// cache hit recomputes it against the job at hand; the cold path uses
/// the same function so both agree by construction.  An asserted
/// expectation is about the PROVER's verdict: when the prover never ran
/// (Monte-Carlo-only job), the assertion is unmet, not vacuously true.
void finalize_verdict(JobResult& result, const std::optional<verify::VerifyStatus>& expected) {
  result.expected = expected;
  result.expected_match =
      !expected.has_value() ||
      (result.proof_status.has_value() && *expected == *result.proof_status);
  result.ok = result.report.has_value() && result.report->ok() && result.expected_match &&
              (!result.crossval.has_value() || result.crossval->ok());
}

/// A job's answer out of the campaign slot that ran it, filled into
/// `result` (which already names the scenario and the expectation) — the
/// ONE shape Service::run returns, the cache stores, and run_matrix
/// derives its row from.  The report is the one a campaign of this job
/// alone would produce: threads clamped to the job's own runs, and only
/// the errors the runner prefixed with this scenario's "name[".  The
/// fresh campaign's wall numbers stand in for a solo run's: timing is
/// metadata, not part of the cached contract.  cross_validation is
/// present iff the job asked for it, empty when the prover did not run.
void answer(JobResult& result, campaign::ScenarioOutcome outcome,
            const campaign::CampaignReport& fresh, bool cross_validate) {
  campaign::CampaignReport report;
  const std::size_t runs = outcome.runs.size() + outcome.failed_runs;
  report.threads = std::max<std::size_t>(1, std::min(fresh.threads, runs));
  report.wall_seconds = fresh.wall_seconds;
  report.runs_per_second = fresh.runs_per_second;
  report.total_runs = runs;
  report.total_violations = outcome.total_violations;
  report.failed_runs = outcome.failed_runs;
  report.censored_sessions = outcome.censored_sessions;
  const std::string prefix = outcome.name + "[";
  for (const std::string& e : fresh.errors)
    if (e.starts_with(prefix)) report.errors.push_back(e);
  if (outcome.verification.has_value()) {
    result.proof_status = outcome.verification->status;
    result.verdict = verify::verify_status_str(*result.proof_status);
    if (*result.proof_status == verify::VerifyStatus::kProved) report.specs_proved = 1;
    if (outcome.verification->counterexample.has_value()) report.specs_with_counterexample = 1;
  } else {
    result.verdict = outcome.total_violations > 0 ? "sampled-violations" : "sampled-clean";
  }
  report.scenarios.push_back(std::move(outcome));
  result.report = std::move(report);
  if (cross_validate) result.crossval = scenarios::cross_validate(*result.report);
  finalize_verdict(result, result.expected);
}

/// A stored answer in the shape answer() writes, or nullopt (miss,
/// corrupt or foreign entry — a cold run then overwrites it).
std::optional<JobResult> load_hit(const ResultCache& cache, const std::string& key) {
  std::optional<util::Json> stored = cache.load_result(key);
  if (!stored.has_value()) return std::nullopt;
  try {
    JobResult hit = JobResult::from_json(*stored);
    if (hit.report.has_value() && hit.report->scenarios.size() == 1) return hit;
  } catch (const std::exception&) {
    // Corrupt entry: a miss.
  }
  return std::nullopt;
}

/// One pass of the job pipeline over a batch.
struct Batch {
  /// One answer per job, in job order.  Until its answer exists a job
  /// holds an error result (verdict "error") carrying what went wrong.
  std::vector<JobResult> results;
  /// Preparation or campaign failures; any entry means the batch
  /// produced no answers for its misses.
  std::vector<std::string> errors;
  /// Row i ran its campaign slot (neither a cache hit nor a duplicate).
  std::vector<bool> executed;
  /// The one campaign the misses ran as.
  campaign::CampaignReport campaign;
  std::size_t deduped = 0;
};

/// resolve → cache lookup → collapse duplicate misses → one campaign
/// with resume/capture/proof slots → answer() per job → store.
/// Preparation is all-or-nothing: the first job that cannot be prepared
/// stops the batch before anything runs.
Batch run_jobs(std::span<const Job> jobs, const ResultCache* cache) {
  Batch batch;
  batch.results.resize(jobs.size());
  batch.executed.assign(jobs.size(), false);
  for (JobResult& r : batch.results) {
    r.verdict = "error";
    r.cache.enabled = cache != nullptr;
  }

  struct Prepared {
    scenarios::ScenarioParams params;
    campaign::ScenarioSpec spec;
    std::string result_key;
    bool hit = false;
  };
  std::vector<Prepared> prep(jobs.size());
  std::size_t threads = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    Prepared& p = prep[i];
    JobResult& result = batch.results[i];
    try {
      const scenarios::ScenarioDocument doc = resolve_scenario(job);
      result.scenario = doc.params.name;
      result.expected = job.expected.has_value() ? job.expected : doc.expected;
      p.params = resolved_params(job, doc);
      p.spec = scenarios::build(p.params);
    } catch (const std::exception& e) {
      result.errors.push_back(e.what());
      batch.errors.push_back(e.what());
      return batch;
    }
    threads = std::max(threads, job.threads);
    if (cache == nullptr) continue;
    p.result_key = cache->result_key(p.params, job.cross_validate);
    if (std::optional<JobResult> hit = load_hit(*cache, p.result_key)) {
      hit->cache.enabled = true;
      hit->cache.hits = 1;
      // The asserted expectation is not part of the key: re-judge the
      // stored answer against THIS job.
      finalize_verdict(*hit, result.expected);
      result = std::move(*hit);
      p.hit = true;
    }
  }

  // Hits are answered from storage; the misses run as ONE campaign.
  // Sound because per-scenario outcomes are independent of how a
  // campaign is split — each run derives everything from its own seed
  // and each spec is verified in isolation.  Identical jobs (same
  // canonical params digest — name, budgets, seeds, everything
  // semantic) collapse onto one campaign slot: the proof runs once and
  // the answer fans out to every duplicate in job order.
  std::vector<std::size_t> owner;  // first job of each campaign slot
  std::vector<std::size_t> slot_of(jobs.size());
  std::vector<campaign::ScenarioSpec> specs;
  std::map<std::string, std::size_t> slot_by_digest;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (prep[i].hit) continue;
    const auto [it, inserted] =
        slot_by_digest.try_emplace(scenarios::params_digest(prep[i].params), specs.size());
    slot_of[i] = it->second;
    if (!inserted) {
      ++batch.deduped;
      continue;
    }
    owner.push_back(i);
    specs.push_back(std::move(prep[i].spec));
    batch.executed[i] = true;
    if (cache != nullptr) batch.results[i].cache.misses = 1;
  }

  // A result miss that proves looks up its proof: a proof reads the
  // model and the adversary budgets, never the seeds, so a stored proof
  // (or one an earlier slot runs in this campaign) answers the prover's
  // half and the slot runs only its Monte-Carlo seeds.  Only the slot
  // that proves a key loads its checkpoint and captures a frontier.
  campaign::CampaignOptions options;
  options.threads = threads;  // 0 = every usable CPU
  std::vector<std::string> proof_keys;
  std::map<std::string, std::optional<campaign::VerificationOutcome>> proofs;
  std::vector<std::size_t> provers;  // slots that run their proof
  std::vector<std::string> checkpoint_keys(owner.size());
  std::vector<verify::Checkpoint> resumes(owner.size());
  std::vector<verify::Checkpoint> captures(owner.size());
  if (cache != nullptr) {
    options.resume.assign(owner.size(), nullptr);
    options.capture.assign(owner.size(), nullptr);
    options.proof.assign(owner.size(), nullptr);
    proof_keys.resize(owner.size());
    for (std::size_t s = 0; s < owner.size(); ++s) {
      const scenarios::ScenarioParams& params = prep[owner[s]].params;
      if (params.mode == campaign::RunMode::kMonteCarlo) continue;
      proof_keys[s] = cache->proof_key(params);
      const auto [it, first] = proofs.try_emplace(proof_keys[s]);
      if (first) it->second = cache->load_proof(proof_keys[s]);
      options.proof[s] = &it->second;
      if (!first || it->second.has_value()) {
        batch.results[owner[s]].cache.proof_hits = 1;
        continue;
      }
      provers.push_back(s);
      checkpoint_keys[s] = cache->checkpoint_key(params);
      if (std::optional<verify::Checkpoint> ck = cache->load_checkpoint(checkpoint_keys[s])) {
        resumes[s] = std::move(*ck);
        options.resume[s] = &resumes[s];
      }
      options.capture[s] = &captures[s];
    }
  }

  batch.campaign.threads = std::max<std::size_t>(threads, 1);
  if (!specs.empty()) {
    try {
      batch.campaign = campaign::CampaignRunner(options).run(specs);
    } catch (const std::exception& e) {
      for (std::size_t i = 0; i < jobs.size(); ++i)
        if (!prep[i].hit) batch.results[i].errors.push_back(e.what());
      batch.errors.push_back(e.what());
      return batch;
    }
  }

  // Walked backwards so each slot's owner — its first job, visited last
  // — takes the outcome and only duplicates copy it.
  for (std::size_t i = jobs.size(); i-- > 0;) {
    if (prep[i].hit) continue;
    campaign::ScenarioOutcome& outcome = batch.campaign.scenarios[slot_of[i]];
    JobResult& result = batch.results[i];
    if (batch.executed[i] && outcome.verification.has_value() && outcome.verification->resumed)
      result.cache.resumes = 1;
    answer(result,
           batch.executed[i] ? std::move(outcome) : campaign::ScenarioOutcome(outcome),
           batch.campaign, jobs[i].cross_validate);
  }

  if (cache == nullptr) return batch;
  for (std::size_t s = 0; s < owner.size(); ++s)
    if (!captures[s].empty()) cache->store_checkpoint(checkpoint_keys[s], captures[s]);
  // Only a clean campaign's answers are facts about their scenarios (a
  // run or proof error is neither deterministic nor attributable with
  // certainty); kOutOfBudget IS deterministic and cacheable — with its
  // frontier stored above.  Duplicates can still carry a distinct
  // result_key (cross_validate is part of the key, not of the digest),
  // so every non-hit job stores its key once.
  if (!batch.campaign.errors.empty() || batch.campaign.failed_runs != 0) return batch;
  for (const std::size_t s : provers) {
    const std::optional<campaign::VerificationOutcome>& ran = proofs.at(proof_keys[s]);
    if (ran.has_value()) cache->store_proof(proof_keys[s], batch.results[owner[s]].scenario, *ran);
  }
  std::set<std::string> stored_keys;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (prep[i].hit || !stored_keys.insert(prep[i].result_key).second) continue;
    JobResult& result = batch.results[i];
    // The stored form carries no "cache" key.
    const CacheCounters counters = std::exchange(result.cache, CacheCounters{});
    cache->store_result(prep[i].result_key, result.scenario, result.to_json());
    result.cache = counters;
  }
  return batch;
}

/// A matrix's rows and merged report in job order, each derived from
/// its job's answer.  No rows at all when the batch failed.
MatrixResult merge(Batch batch) {
  MatrixResult result;
  result.deduped = batch.deduped;
  result.errors = std::move(batch.errors);
  if (!result.errors.empty()) return result;

  campaign::CampaignReport merged;
  merged.threads = batch.campaign.threads;
  merged.wall_seconds = batch.campaign.wall_seconds;
  merged.runs_per_second = batch.campaign.runs_per_second;
  merged.errors = std::move(batch.campaign.errors);
  scenarios::CrossValidationReport merged_xval;
  bool all_ok = true;
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    JobResult& r = batch.results[i];
    campaign::CampaignReport& report = *r.report;
    MatrixRow row;
    row.scenario = r.scenario;
    row.expected = r.expected;
    row.status = r.proof_status;
    row.expected_match = r.expected_match;
    row.consistent = !r.crossval.has_value() || r.crossval->ok();
    // Only the row that ran its campaign slot reports the compute wall;
    // cache hits AND dedup copies report 0 (see MatrixRow::wall_ms).
    if (batch.executed[i]) row.wall_ms = outcome_wall_ms(report.scenarios[0]);
    all_ok = all_ok && row.expected_match && row.consistent;
    result.rows.push_back(std::move(row));

    merged.total_runs += report.total_runs;
    merged.total_violations += report.total_violations;
    merged.failed_runs += report.failed_runs;
    merged.censored_sessions += report.censored_sessions;
    merged.specs_proved += report.specs_proved;
    merged.specs_with_counterexample += report.specs_with_counterexample;
    merged.scenarios.push_back(std::move(report.scenarios[0]));
    if (r.crossval.has_value())
      for (scenarios::CrossCheck& c : r.crossval->checks)
        merged_xval.checks.push_back(std::move(c));
    result.cache += r.cache;
  }
  result.report = std::move(merged);
  result.crossval = std::move(merged_xval);
  result.ok = result.report->ok() && all_ok;
  return result;
}

}  // namespace

scenarios::ScenarioDocument resolve_scenario(const Job& job) {
  PTE_REQUIRE(!(job.scenario.has_value() && !job.scenario_ref.empty()),
              "job carries both a scenario reference and an inline scenario");
  if (job.scenario.has_value()) return *job.scenario;
  PTE_REQUIRE(!job.scenario_ref.empty(),
              "job carries neither a scenario reference nor an inline scenario");
  const scenarios::RegistryEntry* entry = scenarios::find_scenario(job.scenario_ref);
  PTE_REQUIRE(entry != nullptr,
              util::cat("unknown scenario '", job.scenario_ref, "' (try `pte list`)"));
  return scenarios::export_document(*entry);
}

scenarios::ScenarioParams resolved_params(const Job& job,
                                          const scenarios::ScenarioDocument& doc) {
  scenarios::ScenarioParams params = doc.params;
  if (job.mode.has_value()) params.mode = *job.mode;
  if (job.smoke) scenarios::apply_tuning(params, scenarios::RegistryTuning::smoke());
  scenarios::apply_tuning(params, job.tuning);
  if (job.seed_base.has_value()) params.seed_base = *job.seed_base;
  if (job.attacker_intensity.has_value()) {
    PTE_REQUIRE(*job.attacker_intensity >= 0.0 && *job.attacker_intensity <= 1.0,
                util::cat("attacker intensity out of [0,1]: ", *job.attacker_intensity));
    params.attacker.intensity = *job.attacker_intensity;
  }
  return params;
}

Service::Service(ServiceOptions options) : options_(std::move(options)) {
  if (!options_.cache_dir.empty()) {
    ResultCache::Options copt;
    copt.dir = options_.cache_dir;
    copt.max_bytes = options_.cache_max_bytes;
    cache_ = std::make_unique<ResultCache>(std::move(copt));
  }
}

JobResult Service::run(const Job& job) const {
  const auto t0 = std::chrono::steady_clock::now();
  JobResult result = std::move(run_jobs({&job, 1}, cache_.get()).results[0]);
  // Timing is observed here, never stored: a hit reports its own wall.
  result.wall_ms = ms_since(t0);
  return result;
}

MatrixResult Service::run_matrix(const std::vector<Job>& jobs) const {
  const auto t0 = std::chrono::steady_clock::now();
  MatrixResult result;
  if (jobs.empty())
    result.errors.push_back("matrix needs at least one job");
  else
    result = merge(run_jobs(jobs, cache_.get()));
  result.cache.enabled = cache_ != nullptr;
  result.wall_ms = ms_since(t0);
  return result;
}

}  // namespace ptecps::api
