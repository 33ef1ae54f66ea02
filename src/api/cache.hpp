// Content-addressed result cache with warm-resume checkpoint storage.
//
// A cache entry answers "this exact deployment, under these exact
// budgets, on this exact engine" — the key is a SHA-256 over the
// scenario's canonical form (scenarios/canonical.hpp), so two scenario
// files that differ only in key order, whitespace, float rendering, or
// notes address the same entry, while any semantic change (a budget, a
// timing constant, a topology edge) misses.  Worker-thread counts are
// masked out of the key: the engine's results are bit-identical at
// every thread count, so a laptop and a 64-core CI box share entries.
//
// Three kinds of entry in two stores under one root:
//   results/<key>.json      wrapped api::JobResult JSON (final verdicts)
//   results/<key>.proof     a wrapped campaign::VerificationOutcome: the
//                           prover's answer for a deployment, keyed with
//                           what the prover never reads ALSO masked
//                           (Monte-Carlo seeds, run mode) — a job that
//                           changes only its seeds misses its result but
//                           reuses the proof and runs only its samples.
//   checkpoints/<key>.ckpt  verify::Checkpoint flat binary, keyed like a
//                           proof with the state budget masked too — a
//                           run with a larger budget finds the
//                           out-of-budget frontier any smaller run left
//                           behind and resumes instead of re-exploring.
// Proofs share the results directory, so a cache root is still exactly
// two directories.
//
// The cache is advisory, never authoritative: every load re-validates
// (schema wrapper, engine tag, checkpoint magic/version) and any
// mismatch or I/O failure degrades to a miss / cold run.  Eviction is
// size-capped LRU on file mtimes (loads touch), enforced by gc(): on
// demand, and by a store that may have crossed the cap.  A gc stats
// every entry, so a store does not run one each time: the instance
// counts the bytes it has seen (the last gc's total plus its own
// stores since) and a store runs gc when that count passes the cap, on
// the instance's first store, and every kRescanEvery stores, which
// picks up other writers' entries.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "campaign/runner.hpp"
#include "scenarios/builder.hpp"
#include "util/json.hpp"
#include "verify/checkpoint.hpp"

namespace ptecps::api {

/// What stats() reports (and `pte cache stats` prints).
struct CacheStats {
  std::size_t results = 0;
  std::size_t proofs = 0;
  std::size_t checkpoints = 0;
  std::uint64_t bytes = 0;
  std::uint64_t max_bytes = 0;
  std::string dir;

  util::Json to_json() const;
};

class ResultCache {
 public:
  /// Default size cap (every entry together).
  static constexpr std::uint64_t kDefaultMaxBytes = 256ull << 20;
  /// A store runs gc() at least once per this many stores.
  static constexpr std::uint64_t kRescanEvery = 64;

  struct Options {
    std::string dir;
    std::uint64_t max_bytes = kDefaultMaxBytes;
  };

  /// Creates `dir` (and the two stores under it) when missing; throws
  /// std::runtime_error naming the offending path when the location is
  /// unusable (exists as a file, permission denied, ...).
  explicit ResultCache(Options options);

  /// Key for a finished JobResult: canonical scenario params (thread
  /// counts masked) + engine tag + the cross-validation flag.
  std::string result_key(const scenarios::ScenarioParams& params, bool cross_validate) const;
  /// Key for a stored proof: canonical params with every field the
  /// prover never reads masked — thread counts, seed_base, seed_count,
  /// and the mode (verify and both prove alike) — plus the engine tag.
  /// No cross-validation dimension: that is judged per job, afterwards.
  std::string proof_key(const scenarios::ScenarioParams& params) const;
  /// Key for a warm-resume checkpoint: as proof_key but with the state
  /// budget masked too (any smaller-budget frontier dominates).
  std::string checkpoint_key(const scenarios::ScenarioParams& params) const;

  /// The stored JobResult JSON, or nullopt on miss / wrapper mismatch /
  /// unreadable file.  A hit touches the entry's mtime (LRU recency).
  std::optional<util::Json> load_result(const std::string& key) const;
  /// Store (atomically: tmp + rename) and enforce the size cap.
  void store_result(const std::string& key, const std::string& scenario,
                    const util::Json& result_json) const;

  /// The stored proof, or nullopt on miss / wrapper mismatch / corrupt
  /// entry.  A hit touches the entry's mtime.
  std::optional<campaign::VerificationOutcome> load_proof(const std::string& key) const;
  /// Store (atomically) and enforce the size cap.
  void store_proof(const std::string& key, const std::string& scenario,
                   const campaign::VerificationOutcome& proof) const;

  /// nullopt on miss or any deserialization failure (stale format,
  /// foreign byte order, truncation) — the caller runs cold.
  std::optional<verify::Checkpoint> load_checkpoint(const std::string& key) const;
  void store_checkpoint(const std::string& key, const verify::Checkpoint& ck) const;

  CacheStats stats() const;
  /// Remove every entry; returns how many files were deleted.
  std::size_t clear() const;
  /// Evict least-recently-used entries until the cap holds; returns how
  /// many files were evicted.
  std::size_t gc() const;

  const std::string& dir() const { return options_.dir; }

 private:
  std::string result_path(const std::string& key) const;
  std::string proof_path(const std::string& key) const;
  std::string checkpoint_path(const std::string& key) const;
  /// Count a published entry of `bytes`; run gc() when due.
  void stored(std::uint64_t bytes) const;

  Options options_;
  /// The last gc()'s total plus the bytes stored since; starts above any
  /// cap, so the first store runs gc().
  mutable std::atomic<std::uint64_t> bytes_seen_{std::uint64_t{1} << 62};
  mutable std::atomic<std::uint64_t> stores_since_gc_{0};
};

}  // namespace ptecps::api
