// The entry points of the public API: Service::run(Job) → JobResult and
// Service::run_matrix(jobs) → MatrixResult, one job pipeline under both.
//
// The service resolves each job's scenario (registry name or inline
// document), applies mode/tuning/seed overrides, looks the job up in
// the result cache, runs the misses as ONE campaign (Monte-Carlo,
// exhaustive proof, or both — a proof stored for the same deployment
// and budgets is reused, not re-run), cross-validates the two sides, and
// assembles one JobResult per job.  run(job) is the one-job matrix:
// whichever entry point stored an answer, a cache hit equals the cold
// run.  The service NEVER throws: resolution failures, inconsistent
// parameters, and runtime errors all come back as a result with
// ok == false and the error text in `errors` — a server loop or the CLI
// can serialize any outcome.
#pragma once

#include <memory>
#include <vector>

#include "api/cache.hpp"
#include "api/job.hpp"

namespace ptecps::api {

/// The job's scenario as a document: registry lookup for a ref, the
/// inline document otherwise.  Throws on an ill-formed job.
scenarios::ScenarioDocument resolve_scenario(const Job& job);

/// The job's overrides folded into the document's parameters — mode,
/// smoke profile, explicit tuning, seed base, attacker intensity, in
/// that order.  The ONE code path run(), run_matrix() and the frontier
/// planner all go through, so cache keys and campaign lowering agree by
/// construction.
scenarios::ScenarioParams resolved_params(const Job& job,
                                          const scenarios::ScenarioDocument& doc);

struct ServiceOptions {
  /// Root of the content-addressed result cache (api/cache.hpp); empty
  /// (the default) disables caching entirely.  Created when missing;
  /// Service construction throws with a path diagnostic when unusable.
  std::string cache_dir;
  /// Cache size cap, enforced by LRU eviction at store time.
  std::uint64_t cache_max_bytes = ResultCache::kDefaultMaxBytes;
};

/// Safe for concurrent use: run()/run_matrix() are const, keep all
/// mutable state on the stack, and the shared ResultCache publishes
/// atomically (tmp + rename) — the daemon's worker pool calls one
/// Service instance from many threads.
class Service {
 public:
  explicit Service(ServiceOptions options = {});

  /// Execute one job end to end — run_matrix of that one job, answered
  /// as a JobResult.  `cross_validation` is present iff
  /// job.cross_validate is set, and empty when the prover did not run.
  /// With a cache configured: a stored result for the job's canonical
  /// scenario is returned directly (the expectation and ok flag
  /// re-derived against THIS job, since the asserted expectation is not
  /// part of the key); a miss whose deployment and budgets were proved
  /// before — under any seeds or mode — reuses the stored proof and runs
  /// only its Monte-Carlo seeds (cache.proof_hits); on a miss an
  /// out-of-budget verification's frontier is stored, and a later run
  /// with a strictly larger state budget warm-resumes it.  A hit or a
  /// proof hit renders the same JobResult as a cold run, timing and the
  /// `cache` counters aside; a resumed run's verdict, counterexample and
  /// state counts equal a cold run's.
  JobResult run(const Job& job) const;

  /// Execute several jobs as ONE campaign: every Monte-Carlo run shares
  /// the thread pool (the largest job.threads; 0 = every usable
  /// CPU) and the report merges deterministically.  Row i
  /// answers job i and is derived from the JobResult run() would return
  /// for it — the value the cache stores.  With a cache, jobs whose
  /// scenarios hit are answered from storage and only the misses run
  /// (sound: per-scenario outcomes are independent of how a campaign is
  /// split); the merged report lists every scenario in job order either
  /// way.  All or nothing: a job that cannot be prepared fails the whole
  /// matrix with no rows.
  MatrixResult run_matrix(const std::vector<Job>& jobs) const;

  /// The configured cache, or nullptr (the `pte cache` subcommands).
  const ResultCache* cache() const { return cache_.get(); }

 private:
  ServiceOptions options_;
  std::unique_ptr<ResultCache> cache_;
};

}  // namespace ptecps::api
