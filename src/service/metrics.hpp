// Operational counters for the verification daemon, served at /metrics.
//
// Counters are lock-free atomics on the hot path; latency percentiles
// come from a fixed-size ring of the most recent completions (a bounded
// window is the honest choice for a long-running daemon — an all-time
// percentile goes stale, a window tracks the current regime).  The
// snapshot is one JSON object so `curl /metrics | jq` is the whole
// monitoring story.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "api/job.hpp"
#include "util/json.hpp"

namespace ptecps::service {

class ServiceMetrics {
 public:
  /// How many recent job latencies feed p50/p95.
  static constexpr std::size_t kLatencyWindow = 4096;

  ServiceMetrics() : start_(std::chrono::steady_clock::now()) {
    latencies_.reserve(kLatencyWindow);
  }

  void record_admitted() { admitted_.fetch_add(1, std::memory_order_relaxed); }
  void record_rejected_full() { rejected_full_.fetch_add(1, std::memory_order_relaxed); }
  void record_rejected_draining() {
    rejected_draining_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_protocol_error() {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_connection() { connections_.fetch_add(1, std::memory_order_relaxed); }
  void record_http_request() { http_requests_.fetch_add(1, std::memory_order_relaxed); }

  /// One finished job: end-to-end wall and its cache accounting.
  void record_completed(double wall_ms, const api::JobResult& result) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (!result.ok) failed_.fetch_add(1, std::memory_order_relaxed);
    cache_hits_.fetch_add(result.cache.hits, std::memory_order_relaxed);
    cache_misses_.fetch_add(result.cache.misses, std::memory_order_relaxed);
    cache_proof_hits_.fetch_add(result.cache.proof_hits, std::memory_order_relaxed);
    cache_resumes_.fetch_add(result.cache.resumes, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(latency_mu_);
    if (latencies_.size() < kLatencyWindow) {
      latencies_.push_back(wall_ms);
    } else {
      latencies_[latency_cursor_ % kLatencyWindow] = wall_ms;
    }
    ++latency_cursor_;
  }

  double uptime_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }
  std::uint64_t completed() const { return completed_.load(std::memory_order_relaxed); }
  std::uint64_t admitted() const { return admitted_.load(std::memory_order_relaxed); }
  std::uint64_t rejected() const {
    return rejected_full_.load(std::memory_order_relaxed) +
           rejected_draining_.load(std::memory_order_relaxed);
  }

  /// The /metrics document.  Queue and cache state live elsewhere, so the
  /// server passes them in; `cache_stats` may be null (caching off).
  util::Json to_json(std::size_t queue_depth, std::size_t queue_capacity,
                     std::size_t workers, bool draining,
                     const util::Json* cache_stats) const;

 private:
  const std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> rejected_draining_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> http_requests_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> cache_proof_hits_{0};
  std::atomic<std::uint64_t> cache_resumes_{0};

  mutable std::mutex latency_mu_;
  std::vector<double> latencies_;
  std::size_t latency_cursor_ = 0;
};

}  // namespace ptecps::service
