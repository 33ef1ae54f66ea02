// ptebench — the repository's benchmark program.
//
// Four workloads, each a different path through the verifier:
//
//   prove   one closed-loop client, in-process api::Service::run, no cache:
//           verify-only documents with raised adversary budgets, so each
//           proof is a zone exploration of about a second.
//   sample  in-process Service::run in monte-carlo mode over every registry
//           deployment: the simulation engine and the runner, prover idle.
//   fuzz    fuzz::Fuzzer campaigns (guided, batch 16, no minimisation),
//           each against a fresh cache directory: many small proofs
//           through run_matrix, cache written but never read.
//   serve   a pted subprocess with nproc workers and a fresh cache; one
//           framed PTEJ connection, closed loop, over a fixed mix of cache
//           hits (registry smoke jobs primed at set-up) and misses (the
//           same jobs with a salted seed_base).
//
// Untraced runs (--trace 0) measure end-to-end numbers for --seconds (fuzz:
// a campaign count set by --seconds, see kFuzzCampaignSeconds), on one
// pinned CPU with one worker thread (see kTimedThreads).  A
// traced run (--trace 1) drives one fixed round of the workload's inputs
// twice: once through the program's public entry point without spans, and
// once re-driven through the layers' public functions in the order
// Service::run_job and CampaignRunner::run call them, with a span around
// every call.  It adds 1-thread legs for the parallel-efficiency numbers
// and writes the spans plus a per-layer self-time rollup under
// --workdir.  Two steps live inside the program and are re-driven by an
// equivalent seeded batch: the fuzzer's guided scheduler, and pted's
// queueing (an in-process worker pool of the same width).
//
// Every run checks its outputs (see the gate() calls) and prints, as the
// last line of stdout, {"correct", "attempted", "failed", "metrics"}; the
// line before it is a detail object with the host fingerprint, sample
// counts and the per-workload metric names.  Exit status is 0 iff every
// correctness gate held.
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/cache.hpp"
#include "api/service.hpp"
#include "campaign/context.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/grammar.hpp"
#include "scenarios/canonical.hpp"
#include "scenarios/crossval.hpp"
#include "scenarios/registry.hpp"
#include "scenarios/serialize.hpp"
#include "util/json.hpp"
#include "util/sockio.hpp"
#include "util/text.hpp"
#include "verify/checkpoint.hpp"
#include "verify/model.hpp"
#include "verify/replay.hpp"
#include "verify/zone_kernels.hpp"

namespace fs = std::filesystem;
using namespace ptecps;
using util::Json;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::size_t nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  sim::Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.uniform_int(i)]);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// VmHWM of another process, in MiB (0 when unreadable).
double proc_peak_rss_mb(pid_t pid) {
  std::ifstream in(util::cat("/proc/", pid, "/status"));
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

// --- host fingerprint -------------------------------------------------------

/// (steal, total) jiffies of the whole machine from /proc/stat; steal is
/// time the hypervisor ran something else while a virtual CPU was ready.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[10] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  double total = 0.0;
  for (int i = 0; i < 8; ++i) total += v[i];  // guest time is already in user
  return {v[7], total};
}

Json fingerprint() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  Json fp = Json::object();
  fp.set("cpu", cpu);
  fp.set("nproc", nproc());
  fp.set("zone_kernels", verify::active_zone_kernels().name);
  fp.set("compiler", PTEBENCH_COMPILER);
  fp.set("build_type", PTEBENCH_BUILD_TYPE);
  fp.set("release", std::string(PTEBENCH_BUILD_TYPE) == "Release");
  return fp;
}

// --- spans ------------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index in the same buffer, -1 for a root
  std::uint64_t job;
};

/// One thread's spans; only that thread touches it while tracing.
struct SpanBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;
};

/// Spans stay in memory until the run ends.  A leg is one traced pass.
class Tracer {
 public:
  explicit Tracer(std::string leg) : leg_(std::move(leg)) {}

  SpanBuffer* new_buffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.emplace_back();
    buffers_.back().thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    return &buffers_.back();
  }
  const std::deque<SpanBuffer>& buffers() const { return buffers_; }
  const std::string& leg() const { return leg_; }

 private:
  std::string leg_;
  std::mutex mu_;
  std::deque<SpanBuffer> buffers_;
};

/// RAII span; a null buffer makes it free (the untraced path).
class Scope {
 public:
  Scope(SpanBuffer* b, const char* name, std::uint64_t job = 0) : b_(b) {
    if (b_ == nullptr) return;
    idx_ = static_cast<std::int32_t>(b_->spans.size());
    b_->spans.push_back({name, now_ns(), 0, b_->open.empty() ? -1 : b_->open.back(), job});
    b_->open.push_back(idx_);
  }
  ~Scope() {
    if (b_ == nullptr) return;
    b_->spans[static_cast<std::size_t>(idx_)].end_ns = now_ns();
    b_->open.pop_back();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanBuffer* b_;
  std::int32_t idx_ = -1;
};

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

/// Per-layer self time: a span's duration minus the time its children
/// cover.  Root spans ("root") frame a thread's traced work; their self
/// time is the benchmark's own glue.
struct Rollup {
  std::map<std::string, std::vector<double>> durations_s;  // inclusive, per span name
  std::map<std::string, double> self_s;                    // per layer
  double root_s = 0.0;
  double root_self_s = 0.0;

  double layer_frac() const {
    return root_s > 0.0 ? (root_s - root_self_s) / root_s : 0.0;
  }
  double self_frac(const std::string& layer) const {
    const auto it = self_s.find(layer);
    return it == self_s.end() || root_s <= 0.0 ? 0.0 : it->second / root_s;
  }
  std::size_t count(const std::string& name) const {
    const auto it = durations_s.find(name);
    return it == durations_s.end() ? 0 : it->second.size();
  }
  /// Median inclusive duration of `name` in ms (0 when it never ran).
  double median_ms(const std::string& name) const {
    const auto it = durations_s.find(name);
    return it == durations_s.end() ? 0.0 : median(it->second) * 1000.0;
  }
  double total_s(const std::string& name) const {
    const auto it = durations_s.find(name);
    double sum = 0.0;
    if (it != durations_s.end())
      for (double d : it->second) sum += d;
    return sum;
  }

  Json to_json() const {
    Json layers = Json::object();
    for (const auto& [layer, s] : self_s) {
      Json l = Json::object();
      l.set("self_s", s);
      l.set("self_frac", self_frac(layer));
      layers.set(layer, std::move(l));
    }
    Json spans = Json::object();
    for (const auto& [name, d] : durations_s) {
      Json one = Json::object();
      one.set("count", d.size());
      one.set("total_s", total_s(name));
      one.set("median_ms", median_ms(name));
      one.set("p90_ms", quantile(d, 0.9) * 1000.0);
      spans.set(name, std::move(one));
    }
    Json out = Json::object();
    out.set("root_s", root_s);
    out.set("bench_self_s", root_self_s);
    out.set("layer_frac", layer_frac());
    out.set("layers", std::move(layers));
    out.set("spans", std::move(spans));
    return out;
  }
};

Rollup roll_up(const Tracer& tracer) {
  Rollup r;
  for (const SpanBuffer& b : tracer.buffers()) {
    std::vector<std::int64_t> covered(b.spans.size(), 0);
    for (const Span& s : b.spans)
      if (s.parent >= 0) covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      const double self = static_cast<double>(s.end_ns - s.start_ns - covered[i]) * 1e-9;
      if (s.parent < 0) {
        r.root_s += dur;
        r.root_self_s += self;
        continue;
      }
      r.durations_s[s.name].push_back(dur);
      r.self_s[layer_of(s.name)] += self;
    }
  }
  return r;
}

void write_spans(std::ofstream& out, const Tracer& tracer) {
  for (const SpanBuffer& b : tracer.buffers())
    for (std::size_t i = 0; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      Json line = Json::object();
      line.set("leg", tracer.leg());
      line.set("thread", b.thread);
      line.set("id", i);
      line.set("parent", s.parent);
      line.set("name", s.name);
      line.set("job", s.job);
      line.set("start_ns", s.start_ns);
      line.set("end_ns", s.end_ns);
      out << line.dump() << "\n";
    }
}

// --- the re-driven job path -------------------------------------------------

/// What one job produced — the fields the gates compare.
struct Row {
  std::string scenario;
  std::string verdict;
  bool ok = false;
  bool hit = false;
  std::optional<verify::VerifyStatus> status;
  std::size_t states_stored = 0;
  std::size_t states_explored = 0;
  std::size_t transitions = 0;
  std::uint64_t sketch = 0;
  std::size_t runs = 0;
  std::size_t violations = 0;
  std::size_t failed_runs = 0;
  bool consistent = true;
  bool replay_attempted = false;
  bool replay_reproduced = false;
  double explore_s = 0.0;

  bool same_outcome(const Row& o) const {
    return scenario == o.scenario && verdict == o.verdict && status == o.status &&
           states_stored == o.states_stored && states_explored == o.states_explored &&
           transitions == o.transitions && sketch == o.sketch && runs == o.runs &&
           violations == o.violations && consistent == o.consistent &&
           replay_reproduced == o.replay_reproduced;
  }
};

Row row_of(const api::JobResult& r) {
  Row row;
  row.scenario = r.scenario;
  row.verdict = r.verdict;
  row.ok = r.ok;
  row.hit = r.cache.hits > 0;
  row.status = r.proof_status;
  row.consistent = !r.crossval.has_value() || r.crossval->ok();
  if (r.report.has_value()) {
    row.runs = r.report->total_runs;
    row.violations = r.report->total_violations;
    row.failed_runs = r.report->failed_runs;
    if (!r.report->scenarios.empty() && r.report->scenarios[0].verification.has_value()) {
      const campaign::VerificationOutcome& v = *r.report->scenarios[0].verification;
      row.states_stored = v.states_stored;
      row.states_explored = v.states_explored;
      row.transitions = v.transitions;
      row.sketch = v.sketch.signature();
      row.replay_attempted = v.replay_attempted;
      row.replay_reproduced = v.replay_reproduced;
      row.explore_s = v.wall_seconds;
    }
  }
  return row;
}

/// Cache accounting of a re-driven pass.
struct DriveCounters {
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::vector<double> run_walls_s;  // per SimulationContext::execute, 1-thread passes only
  double mc_wall_s = 0.0;
  std::size_t mc_runs = 0;
  std::size_t result_bytes = 0;  // rendered JobResult JSON
};

struct RunSlot {
  campaign::RunResult result;
  bool ok = false;
  std::string error;
};

/// One batch of jobs through the layers' public calls, in the order
/// Service::run_job (a batch of one) and Service::run_matrix_jobs with
/// CampaignRunner::run (larger batches) make them: resolve, build, cache
/// lookup; prototypes and Monte-Carlo runs over every miss; one proof per
/// miss (compile, explore, replay); cross-validation; result JSON and
/// cache store.  `tb` null = no spans.
std::vector<Row> redrive(SpanBuffer* tb, const std::vector<api::Job>& jobs,
                         const api::ResultCache* cache, DriveCounters& counters,
                         std::uint64_t job_id0 = 0) {
  struct Prep {
    std::optional<verify::VerifyStatus> expected;
    bool cross_validate = true;
    scenarios::ScenarioParams params;
    campaign::ScenarioSpec spec;
    std::string key;
    std::string ck_key;
    std::optional<api::JobResult> hit;
    verify::Checkpoint resume;
    bool has_resume = false;
    verify::Checkpoint capture;
    std::uint64_t id = 0;
  };
  std::vector<Prep> prep(jobs.size());
  std::size_t threads = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Prep& p = prep[i];
    p.id = job_id0 + i;
    p.cross_validate = jobs[i].cross_validate;
    {
      Scope s(tb, "api.resolve", p.id);
      const scenarios::ScenarioDocument doc = api::resolve_scenario(jobs[i]);
      p.expected = jobs[i].expected.has_value() ? jobs[i].expected : doc.expected;
      p.params = api::resolved_params(jobs[i], doc);
    }
    {
      Scope s(tb, "scenarios.build", p.id);
      p.spec = scenarios::build(p.params);
    }
    threads = std::max(threads, jobs[i].threads);
    if (cache == nullptr) continue;
    const bool proves = p.params.mode != campaign::RunMode::kMonteCarlo;
    {
      Scope s(tb, "api.cache_key", p.id);
      p.key = cache->result_key(p.params, p.cross_validate);
      if (proves) p.ck_key = cache->checkpoint_key(p.params);
    }
    Scope s(tb, "api.cache_load", p.id);
    ++counters.lookups;
    if (std::optional<Json> stored = cache->load_result(p.key)) {
      p.hit = api::JobResult::from_json(*stored);
      p.hit->cache.enabled = true;
      p.hit->cache.hits = 1;
      ++counters.hits;
    } else if (proves) {
      if (std::optional<verify::Checkpoint> ck = cache->load_checkpoint(p.ck_key)) {
        p.resume = std::move(*ck);
        p.has_resume = true;
      }
    }
  }
  if (threads == 0) threads = nproc();

  std::vector<std::size_t> miss;
  for (std::size_t i = 0; i < prep.size(); ++i)
    if (!prep[i].hit.has_value()) miss.push_back(i);

  // Monte-Carlo phase over every miss, as CampaignRunner::run schedules it.
  campaign::CampaignReport report;
  report.scenarios.resize(miss.size());
  if (!miss.empty()) {
    std::vector<std::shared_ptr<const campaign::ScenarioPrototype>> protos(miss.size());
    struct Item {
      std::size_t slot;
      std::size_t seed_index;
    };
    std::vector<Item> items;
    for (std::size_t m = 0; m < miss.size(); ++m) {
      const campaign::ScenarioSpec& spec = prep[miss[m]].spec;
      if (spec.mode == campaign::RunMode::kVerify) continue;
      if (!spec.custom_run) {
        Scope s(tb, "campaign.prototype", prep[miss[m]].id);
        protos[m] = campaign::ScenarioPrototype::build(spec);
      }
      for (std::size_t k = 0; k < spec.seeds.size(); ++k) items.push_back({m, k});
    }
    std::vector<RunSlot> slots(items.size());
    if (!items.empty()) {
      Scope s(tb, "campaign.runs", job_id0);
      const std::size_t workers = std::max<std::size_t>(1, std::min(threads, items.size()));
      const std::size_t chunk =
          std::clamp<std::size_t>(items.size() / (workers * 16), 1, 64);
      std::atomic<std::size_t> next{0};
      const bool time_runs = workers == 1;
      auto worker = [&] {
        while (true) {
          const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
          if (begin >= items.size()) return;
          for (std::size_t i = begin; i < std::min(begin + chunk, items.size()); ++i) {
            const campaign::ScenarioSpec& spec = prep[miss[items[i].slot]].spec;
            const std::uint64_t seed = spec.seeds[items[i].seed_index];
            const auto t0 = Clock::now();
            try {
              if (spec.custom_run) {
                slots[i].result = spec.custom_run(spec, seed);
              } else {
                campaign::SimulationContext ctx(spec, seed, protos[items[i].slot].get());
                slots[i].result = ctx.execute();
              }
              slots[i].result.seed = seed;
              slots[i].result.wall_seconds = seconds_since(t0);
              slots[i].ok = true;
            } catch (const std::exception& e) {
              slots[i].error = e.what();
            }
          }
        }
      };
      const auto t0 = Clock::now();
      if (workers == 1) {
        worker();
      } else {
        std::vector<std::thread> pool;
        for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
        for (std::thread& t : pool) t.join();
      }
      counters.mc_wall_s += seconds_since(t0);
      counters.mc_runs += items.size();
      if (time_runs)
        for (const RunSlot& slot : slots)
          if (slot.ok) counters.run_walls_s.push_back(slot.result.wall_seconds);
    }

    // Proofs, one after another, as the runner's verification loop does.
    for (std::size_t m = 0; m < miss.size(); ++m) {
      Prep& p = prep[miss[m]];
      if (p.spec.mode == campaign::RunMode::kMonteCarlo) continue;
      campaign::VerificationOutcome vo;
      const auto t0 = Clock::now();
      try {
        verify::VerifyInput input;
        std::optional<verify::CompiledModel> model;
        {
          Scope s(tb, "verify.compile", p.id);
          input = p.spec.verify_input();
          model.emplace(verify::compile_model(input));
        }
        verify::VerifyOptions vopt;
        vopt.max_losses = p.spec.verify.max_losses;
        vopt.max_injections = p.spec.verify.max_injections;
        vopt.max_input_changes = p.spec.verify.max_input_changes;
        vopt.max_states = p.spec.verify.max_states;
        vopt.threads = p.spec.verify.threads;
        verify::VerifyResult vr;
        {
          Scope s(tb, "verify.explore", p.id);
          vr = verify::verify_pte(*model, vopt, p.has_resume ? &p.resume : nullptr,
                                  cache != nullptr ? &p.capture : nullptr);
        }
        vo.status = vr.status;
        vo.states_explored = vr.states_explored;
        vo.states_stored = vr.states_stored;
        vo.transitions = vr.transitions;
        vo.threads_used = vr.threads_used;
        vo.resumed = vr.resumed;
        vo.sketch = vr.sketch;
        vo.counterexample = vr.counterexample;
        if (vo.counterexample.has_value() && p.spec.verify.replay) {
          Scope s(tb, "verify.replay", p.id);
          vo.replay_attempted = true;
          const verify::ReplayResult rr = verify::replay_counterexample(input, *vo.counterexample);
          vo.replay_reproduced = rr.reproduced;
          vo.replay_detail = rr.summary();
        }
      } catch (const std::exception& e) {
        report.errors.push_back(util::cat(p.spec.name, "[verify]: ", e.what()));
        vo.status = verify::VerifyStatus::kOutOfBudget;
      }
      vo.wall_seconds = seconds_since(t0);
      report.scenarios[m].verification = std::move(vo);
    }

    // Deterministic merge in (spec, seed) order.
    Scope s(tb, "campaign.merge", job_id0);
    for (std::size_t m = 0; m < miss.size(); ++m)
      report.scenarios[m].name = prep[miss[m]].spec.name;
    std::vector<std::vector<double>> walls(miss.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      campaign::ScenarioOutcome& out = report.scenarios[items[i].slot];
      RunSlot& slot = slots[i];
      if (!slot.ok) {
        ++out.failed_runs;
        ++report.failed_runs;
        report.errors.push_back(util::cat(out.name, ": ", slot.error));
        continue;
      }
      campaign::RunResult& r = slot.result;
      out.total_violations += r.violations;
      out.total_sessions += r.session.sessions;
      out.censored_sessions += r.session.censored_sessions;
      out.network.sent += r.network.sent;
      out.network.delivered += r.network.delivered;
      out.network.lost += r.network.lost;
      out.network.corrupted += r.network.corrupted;
      out.network.rejected_late += r.network.rejected_late;
      out.network.duplicated += r.network.duplicated;
      walls[items[i].slot].push_back(r.wall_seconds);
      out.runs.push_back(std::move(r));
    }
    for (std::size_t m = 0; m < miss.size(); ++m) {
      campaign::ScenarioOutcome& out = report.scenarios[m];
      report.total_runs += out.runs.size() + out.failed_runs;
      report.total_violations += out.total_violations;
      report.censored_sessions += out.censored_sessions;
      if (walls[m].empty()) continue;
      double sum = 0.0;
      for (double w : walls[m]) sum += w;
      out.wall_mean_s = sum / static_cast<double>(walls[m].size());
      out.wall_p50_s = quantile(walls[m], 0.5);
      out.wall_p99_s = quantile(walls[m], 0.99);
    }
  }

  scenarios::CrossValidationReport xval;
  if (!miss.empty()) {
    Scope s(tb, "scenarios.crossval", job_id0);
    xval = scenarios::cross_validate(report);
  }

  // One JobResult per job, rendered and (misses) stored.
  std::vector<Row> rows(jobs.size());
  std::size_t next_check = 0;
  std::size_t m = 0;
  for (std::size_t i = 0; i < prep.size(); ++i) {
    Prep& p = prep[i];
    api::JobResult jr;
    if (p.hit.has_value()) {
      jr = std::move(*p.hit);
    } else {
      campaign::ScenarioOutcome& outcome = report.scenarios[m++];
      jr.scenario = outcome.name;
      campaign::CampaignReport sub;
      sub.threads = threads;
      sub.total_runs = outcome.runs.size() + outcome.failed_runs;
      sub.total_violations = outcome.total_violations;
      sub.failed_runs = outcome.failed_runs;
      sub.censored_sessions = outcome.censored_sessions;
      sub.errors = report.errors;
      if (outcome.verification.has_value()) {
        jr.proof_status = outcome.verification->status;
        jr.verdict = verify::verify_status_str(*jr.proof_status);
        if (*jr.proof_status == verify::VerifyStatus::kProved) sub.specs_proved = 1;
        if (outcome.verification->counterexample.has_value()) sub.specs_with_counterexample = 1;
        if (p.cross_validate && next_check < xval.checks.size()) {
          scenarios::CrossValidationReport one;
          one.checks.push_back(xval.checks[next_check]);
          jr.crossval = std::move(one);
        }
        ++next_check;
      } else {
        jr.verdict = outcome.total_violations > 0 ? "sampled-violations" : "sampled-clean";
        if (p.cross_validate) jr.crossval = scenarios::CrossValidationReport{};
      }
      sub.scenarios.push_back(std::move(outcome));
      jr.report = std::move(sub);
    }
    jr.expected = p.expected;
    jr.expected_match =
        !p.expected.has_value() || (jr.proof_status.has_value() && *p.expected == *jr.proof_status);
    jr.ok = jr.report.has_value() && jr.report->ok() && jr.expected_match &&
            (!jr.crossval.has_value() || jr.crossval->ok());
    Json rendered;
    {
      Scope s(tb, "api.result_json", p.id);
      rendered = jr.to_json();
      counters.result_bytes += rendered.dump().size();
    }
    if (cache != nullptr && !p.hit.has_value()) {
      Scope s(tb, "api.cache_store", p.id);
      if (!p.capture.empty()) cache->store_checkpoint(p.ck_key, p.capture);
      if (jr.errors.empty() && jr.report->failed_runs == 0 && jr.report->errors.empty())
        cache->store_result(p.key, jr.scenario, rendered);
    }
    rows[i] = row_of(jr);
  }
  return rows;
}

// --- result assembly --------------------------------------------------------

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> gate_failures;
  Json metrics = Json::object();
  Json detail = Json::object();

  void metric(const std::string& name, double value, const std::string& unit) {
    Json m = Json::object();
    m.set("value", value);
    m.set("unit", unit);
    metrics.set(name, std::move(m));
  }
  void gate(bool ok, const std::string& what) {
    if (!ok && gate_failures.size() < 20) gate_failures.push_back(what);
  }
};

/// A timing with its sample count, for the detail line.
Json timing(double value, const std::string& unit, std::size_t samples) {
  Json t = Json::object();
  t.set("value", value);
  t.set("unit", unit);
  t.set("samples", samples);
  return t;
}

/// Worker threads of the timed (--trace 0) runs: prover, Monte-Carlo and
/// fuzz threads, and serve's client connections.  A timed run is also
/// pinned to one CPU (pin_to_one_cpu), so the threads it cannot set (the
/// prover's inside a fuzz campaign, pted's workers) share that CPU.  On a
/// shared host of a few virtual CPUs, runs at nproc threads lost 2-8% of
/// the machine to steal and their rates spread by a quarter between runs;
/// the same fuzz campaign took 0.7-2.1 s unpinned and 1.0-1.2 s pinned.
/// The traced runs measure scaling at nproc.
constexpr std::size_t kTimedThreads = 1;

/// The CPUs this process could use before pin_to_one_cpu narrowed them.
std::optional<cpu_set_t> g_unpinned;

/// Restrict this process, and every thread and child it starts later, to
/// the last CPU it may run on.  Returns that CPU, or -1 if it could not.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) last = c;
  if (last < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) return -1;
  g_unpinned = allowed;
  return last;
}

/// Give threads started from here on every CPU again: for untimed checks.
void unpin() {
  if (g_unpinned.has_value()) sched_setaffinity(0, sizeof *g_unpinned, &*g_unpinned);
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 201;
constexpr int kServeSetups = 15;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pted;
  std::string workdir;
};

/// Client-side latencies, keyed by what was called: a document for prove
/// and sample, one key for fuzz and serve.
using Latencies = std::map<std::string, std::vector<double>>;

/// The geometric mean of each key's median.  Documents of very different
/// cost make a multi-mode mix whose pooled median would sit between modes.
double mix_latency_ms(const Latencies& lat) {
  if (lat.empty()) return 0.0;
  double log_sum = 0.0;
  for (const auto& [key, v] : lat) log_sum += std::log(median(v));
  return std::exp(log_sum / static_cast<double>(lat.size()));
}

/// The end-to-end block shared by every untraced workload.  Throughput is
/// the median over the run's units of fixed work (a round of documents, a
/// campaign, the whole serve run) of each unit's op rate, so a short stall
/// on a shared host moves one unit, not the run.
void end_to_end(Result& res, const std::vector<double>& setup_s, double ops, double elapsed_s,
                const std::vector<double>& unit_rates, const Latencies& latency_ms,
                double rss_mb, const std::string& op, const std::string& throughput_name,
                Json named = Json::object()) {
  const double throughput = median(unit_rates);
  const double latency = mix_latency_ms(latency_ms);
  std::size_t latency_samples = 0;
  for (const auto& [key, v] : latency_ms) latency_samples += v.size();
  res.metric("setup_s", median(setup_s), "s");
  res.metric("ops_per_s", throughput, "ops/s");
  res.metric("latency_ms_p50", latency, "ms");
  res.metric("peak_rss_mb", rss_mb, "MB");
  named.set("setup_s", timing(median(setup_s), "s", setup_s.size()));
  named.set(throughput_name, timing(throughput, util::cat(op, "/s"), unit_rates.size()));
  named.set("fail_frac", timing(res.attempted > 0 ? static_cast<double>(res.failed) /
                                                         static_cast<double>(res.attempted)
                                                   : 0.0,
                                "share", res.attempted));
  named.set("peak_rss_mb", timing(rss_mb, "MB", 1));
  named.set("latency_ms_p50", timing(latency, "ms", latency_samples));
  if (latency_ms.size() == 1) {
    const std::vector<double>& v = latency_ms.begin()->second;
    named.set("latency_ms_p90", timing(quantile(v, 0.9), "ms", v.size()));
  } else {
    for (const auto& [key, v] : latency_ms)
      named.set(util::cat("latency_ms_p50.", key), timing(median(v), "ms", v.size()));
  }
  res.detail.set("metrics", std::move(named));
  Json setups = Json::array();
  for (double t : setup_s) setups.push_back(t);
  res.detail.set("setup_samples_s", std::move(setups));
  Json units = Json::array();
  for (double r : unit_rates) units.push_back(r);
  res.detail.set("unit_rates", std::move(units));
  res.detail.set("op", op);
  res.detail.set("ops", ops);
  res.detail.set("elapsed_s", elapsed_s);
  res.detail.set("mean_rate", elapsed_s > 0.0 ? ops / elapsed_s : 0.0);
}

// --- per-layer numbers of a traced run --------------------------------------

struct LayerNumbers {
  Rollup rollup;  // the nproc traced leg
  DriveCounters counters;
  std::vector<double> run_walls_s;  // 1-thread leg
  double runs_per_s_n = 0.0, runs_per_s_1 = 0.0;
  double explore_n_s = 0.0, explore_1_s = 0.0;
  std::size_t proofs = 0, out_of_budget = 0, replays = 0, replays_ok = 0;
  std::size_t stored = 0, explored = 0, transitions = 0;
  std::size_t candidates = 0, dedup_skipped = 0;
  double execs_per_s_n = 0.0, execs_per_s_1 = 0.0;
  std::vector<double> service_overhead_ms, job_ms_hit, job_ms_miss;
  std::size_t requests = 0, rejected = 0;
  double traced_wall_s = 0.0, untraced_wall_s = 0.0;

  void add_proofs(const std::vector<Row>& rows) {
    for (const Row& r : rows) {
      if (!r.status.has_value() || r.hit) continue;
      ++proofs;
      if (*r.status == verify::VerifyStatus::kOutOfBudget) ++out_of_budget;
      if (r.replay_attempted) ++replays;
      if (r.replay_attempted && r.replay_reproduced) ++replays_ok;
      stored += r.states_stored;
      explored += r.states_explored;
      transitions += r.transitions;
    }
  }
};

double frac(std::size_t a, std::size_t b) {
  return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

void per_layer(Result& res, const LayerNumbers& n) {
  const Rollup& r = n.rollup;
  res.metric("api.resolve_ms", r.median_ms("api.resolve"), "ms");
  res.metric("api.cache_key_ms", r.median_ms("api.cache_key"), "ms");
  res.metric("api.cache_load_ms", r.median_ms("api.cache_load"), "ms");
  res.metric("api.cache_store_ms", r.median_ms("api.cache_store"), "ms");
  res.metric("api.cache_hit_frac", frac(n.counters.hits, n.counters.lookups), "share");
  res.metric("api.result_json_ms", r.median_ms("api.result_json"), "ms");
  res.metric("scenarios.build_ms", r.median_ms("scenarios.build"), "ms");
  res.metric("scenarios.crossval_ms", r.median_ms("scenarios.crossval"), "ms");
  res.metric("campaign.prototype_ms", r.median_ms("campaign.prototype"), "ms");
  res.metric("campaign.run_us_p50", quantile(n.run_walls_s, 0.5) * 1e6, "us");
  res.metric("campaign.run_us_p99", quantile(n.run_walls_s, 0.99) * 1e6, "us");
  res.metric("campaign.parallel_eff",
             n.runs_per_s_1 > 0.0 ? n.runs_per_s_n / (static_cast<double>(nproc()) * n.runs_per_s_1)
                                  : 0.0,
             "share");
  res.metric("verify.compile_ms", r.median_ms("verify.compile"), "ms");
  const std::size_t explores = r.count("verify.explore");
  res.metric("verify.explore_s",
             explores > 0 ? r.total_s("verify.explore") / static_cast<double>(explores) : 0.0, "s");
  res.metric("verify.states_stored", static_cast<double>(n.stored), "count");
  res.metric("verify.states_explored", static_cast<double>(n.explored), "count");
  res.metric("verify.transitions", static_cast<double>(n.transitions), "count");
  const double explore_total = r.total_s("verify.explore");
  res.metric("verify.zones_per_s",
             explore_total > 0.0 ? static_cast<double>(n.stored) / explore_total : 0.0, "zones/s");
  res.metric("verify.parallel_eff",
             n.explore_n_s > 0.0 && n.explore_1_s > 0.0
                 ? n.explore_1_s / (static_cast<double>(nproc()) * n.explore_n_s)
                 : 0.0,
             "share");
  res.metric("verify.replay_ms", r.median_ms("verify.replay"), "ms");
  res.metric("verify.replay_ok_frac", frac(n.replays_ok, n.replays), "share");
  res.metric("verify.out_of_budget_frac", frac(n.out_of_budget, n.proofs), "share");
  res.metric("fuzz.generate_ms", r.median_ms("fuzz.generate"), "ms");
  res.metric("fuzz.projection_ms", r.median_ms("fuzz.projection"), "ms");
  res.metric("fuzz.dedup_frac", frac(n.dedup_skipped, n.candidates), "share");
  res.metric("fuzz.parallel_eff",
             n.execs_per_s_1 > 0.0 ? n.execs_per_s_n / n.execs_per_s_1 : 0.0, "ratio");
  res.metric("service.overhead_ms_p50", median(n.service_overhead_ms), "ms");
  res.metric("service.job_ms_p50_hit", median(n.job_ms_hit), "ms");
  res.metric("service.job_ms_p50_miss", median(n.job_ms_miss), "ms");
  res.metric("service.rejected_frac", frac(n.rejected, n.requests), "share");
  res.metric("trace.overhead_frac",
             n.untraced_wall_s > 0.0 ? n.traced_wall_s / n.untraced_wall_s - 1.0 : 0.0, "share");
  res.metric("trace.layer_frac", r.layer_frac(), "share");
  for (const char* layer : {"api", "scenarios", "campaign", "verify", "fuzz", "service"})
    res.metric(util::cat(layer, ".self_frac"), r.self_frac(layer), "share");

  Json samples = Json::object();
  for (const auto& [name, d] : r.durations_s) samples.set(name, d.size());
  samples.set("campaign.run_us", n.run_walls_s.size());
  samples.set("service.requests", n.requests);
  res.detail.set("span_samples", std::move(samples));
  res.detail.set("result_json_bytes", n.counters.result_bytes);
}

/// Spans and rollup files for a traced run, under the work directory.
void dump_trace(const Options& opt, const std::vector<const Tracer*>& legs, const Rollup& rollup,
                Result& res) {
  const fs::path dir = fs::path(opt.workdir) / "trace";
  fs::create_directories(dir);
  const std::string stem = util::cat(opt.workload, "-seed", opt.seed);
  const fs::path spans = dir / (stem + ".spans.jsonl");
  std::ofstream out(spans);
  for (const Tracer* t : legs) write_spans(out, *t);
  const fs::path roll = dir / (stem + ".rollup.json");
  std::ofstream(roll) << rollup.to_json().dump(2) << "\n";
  res.detail.set("span_file", spans.string());
  res.detail.set("rollup_file", roll.string());
  res.detail.set("rollup", rollup.to_json());
}

// === prove ===================================================================

struct ProveExpectation {
  std::string name;
  std::size_t losses, injections, input_changes;
  std::string verdict;
  std::size_t states_stored;
};

/// The recorded prove outcomes, read from the checkout root ptebench runs in.
constexpr const char* kExpectedPath = "perfbench/expected.json";

std::vector<ProveExpectation> load_prove_expectations() {
  std::ifstream in(kExpectedPath);
  if (!in)
    throw std::runtime_error(util::cat("cannot read expectations file '", kExpectedPath, "'"));
  std::stringstream ss;
  ss << in.rdbuf();
  const Json j = Json::parse(ss.str());
  std::vector<ProveExpectation> out;
  for (const Json& e : j.at("prove").as_array()) {
    ProveExpectation x;
    x.name = e.at("scenario").as_string();
    x.losses = e.at("max_losses").as_uint();
    x.injections = e.at("max_injections").as_uint();
    x.input_changes = e.at("max_input_changes").as_uint();
    x.verdict = e.at("verdict").as_string();
    x.states_stored = e.at("states_stored").as_uint();
    out.push_back(std::move(x));
  }
  return out;
}

/// Inline verify-only documents derived from registry exports with the
/// adversary budgets raised; each asserts its recorded verdict.  The seed
/// sets seed_base (which a verify-only proof never reads) and the order.
std::vector<api::Job> prove_jobs(const std::vector<ProveExpectation>& exp, std::uint64_t seed,
                                 std::size_t verify_threads) {
  std::vector<api::Job> jobs;
  for (std::size_t i = 0; i < exp.size(); ++i) {
    const scenarios::RegistryEntry* entry = scenarios::find_scenario(exp[i].name);
    if (entry == nullptr) throw std::runtime_error(util::cat("no registry entry ", exp[i].name));
    scenarios::ScenarioDocument doc = scenarios::export_document(*entry);
    doc.params.mode = campaign::RunMode::kVerify;
    doc.params.verify.max_losses = exp[i].losses;
    doc.params.verify.max_injections = exp[i].injections;
    doc.params.verify.max_input_changes = exp[i].input_changes;
    doc.params.verify.max_states = 20'000'000;
    doc.params.verify.threads = 0;
    doc.params.seed_base = mix64(seed, i) >> 16;
    doc.expected = scenarios::verify_status_from_str(exp[i].verdict);
    // The document goes through its file form, as a user's would.
    api::Job job = api::Job::for_document(
        scenarios::document_from_text(scenarios::to_json(doc).dump(2)));
    job.tuning.threads = verify_threads;
    job.threads = 1;
    jobs.push_back(std::move(job));
  }
  shuffle(jobs, mix64(seed, 0x9e37));
  return jobs;
}

void check_prove_row(Result& res, const Row& row, const std::vector<ProveExpectation>& exp,
                     const char* where) {
  for (const ProveExpectation& e : exp) {
    if (e.name != row.scenario) continue;
    const bool ok = row.ok && row.verdict == e.verdict && row.states_stored == e.states_stored;
    res.gate(ok, util::cat(where, " ", row.scenario, ": verdict ", row.verdict, " states_stored ",
                           row.states_stored, " (recorded ", e.verdict, " / ", e.states_stored,
                           ", ok ", row.ok ? "true" : "false", ")"));
    return;
  }
  res.gate(false, util::cat(where, ": unexpected scenario ", row.scenario));
}

void prove_untraced(const Options& opt, Result& res) {
  const std::vector<ProveExpectation> exp = load_prove_expectations();
  std::vector<double> setup;
  std::vector<api::Job> jobs;
  std::optional<api::Service> service;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    jobs = prove_jobs(exp, opt.seed, kTimedThreads);
    service.emplace();
    setup.push_back(seconds_since(t0));
  }
  Latencies lat;
  std::vector<double> rates;
  std::size_t proofs = 0;
  const auto t0 = Clock::now();
  while (proofs == 0 || seconds_since(t0) < opt.seconds) {
    const auto r0 = Clock::now();
    for (const api::Job& job : jobs) {
      const auto j0 = Clock::now();
      const api::JobResult r = service->run(job);
      lat[r.scenario].push_back(seconds_since(j0) * 1000.0);
      ++proofs;
      ++res.attempted;
      const Row row = row_of(r);
      if (!row.ok) ++res.failed;
      check_prove_row(res, row, exp, "prove");
    }
    rates.push_back(static_cast<double>(jobs.size()) / seconds_since(r0));
  }
  end_to_end(res, setup, static_cast<double>(proofs), seconds_since(t0), rates, lat,
             self_peak_rss_mb(), "proofs", "proofs_per_s");
}

void prove_traced(const Options& opt, Result& res) {
  const std::vector<ProveExpectation> exp = load_prove_expectations();
  const api::Service service;
  LayerNumbers n;

  const std::vector<api::Job> jobs = prove_jobs(exp, opt.seed, 0);
  auto t0 = Clock::now();
  for (const api::Job& job : jobs) {
    const Row row = row_of(service.run(job));
    ++res.attempted;
    if (!row.ok) ++res.failed;
    check_prove_row(res, row, exp, "untraced");
  }
  n.untraced_wall_s = seconds_since(t0);

  Tracer traced("nproc");
  t0 = Clock::now();
  {
    SpanBuffer* tb = traced.new_buffer();
    Scope root(tb, "root");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::vector<Row> rows = redrive(tb, {jobs[i]}, nullptr, n.counters, i);
      check_prove_row(res, rows[0], exp, "traced");
      n.add_proofs(rows);
    }
  }
  n.traced_wall_s = seconds_since(t0);
  n.rollup = roll_up(traced);
  n.explore_n_s = n.rollup.total_s("verify.explore");

  // 1-thread leg: the same proofs with one prover thread.
  Tracer single("1-thread");
  {
    SpanBuffer* tb = single.new_buffer();
    Scope root(tb, "root");
    const std::vector<api::Job> jobs1 = prove_jobs(exp, opt.seed, 1);
    DriveCounters c;
    for (std::size_t i = 0; i < jobs1.size(); ++i) {
      const std::vector<Row> rows = redrive(tb, {jobs1[i]}, nullptr, c, i);
      check_prove_row(res, rows[0], exp, "1-thread");
    }
  }
  n.explore_1_s = roll_up(single).total_s("verify.explore");
  per_layer(res, n);
  dump_trace(opt, {&traced, &single}, n.rollup, res);
}

// === sample ==================================================================

constexpr std::size_t kSampleSeeds = 500;

/// Round `round` of the mix: every registry deployment in monte-carlo
/// mode with its own seed_base, expectation stripped (a Monte-Carlo-only
/// job cannot meet a prover expectation).
std::vector<api::Job> sample_jobs(std::uint64_t seed, std::size_t round, std::size_t threads) {
  const std::uint64_t round_seed = mix64(seed, round);
  std::vector<api::Job> jobs;
  const auto& reg = scenarios::registry();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    scenarios::ScenarioDocument doc = scenarios::export_document(reg[i]);
    doc.params.mode = campaign::RunMode::kMonteCarlo;
    doc.params.seed_count = kSampleSeeds;
    doc.params.seed_base = mix64(round_seed, i) >> 16;
    doc.expected.reset();
    api::Job job = api::Job::for_document(std::move(doc));
    job.threads = threads;
    jobs.push_back(std::move(job));
  }
  shuffle(jobs, mix64(round_seed, 0x5a));
  return jobs;
}

std::map<std::string, std::size_t> violation_totals(const std::vector<Row>& rows) {
  std::map<std::string, std::size_t> t;
  for (const Row& r : rows) t[r.scenario] = r.violations;
  return t;
}

void check_sample_rows(Result& res, const std::vector<Row>& rows, const char* where) {
  for (const Row& r : rows) {
    const bool ok = r.ok && r.failed_runs == 0 && r.runs == kSampleSeeds &&
                    (r.verdict == "sampled-clean" || r.verdict == "sampled-violations");
    res.gate(ok, util::cat(where, " ", r.scenario, ": verdict ", r.verdict, ", runs ", r.runs,
                           ", failed runs ", r.failed_runs));
  }
}

void sample_untraced(const Options& opt, Result& res) {
  std::vector<double> setup;
  std::vector<api::Job> jobs;
  std::optional<api::Service> service;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    jobs = sample_jobs(opt.seed, 0, kTimedThreads);
    service.emplace();
    setup.push_back(seconds_since(t0));
  }
  Latencies lat;
  std::vector<double> rates;
  std::size_t runs = 0;
  // Round 0 twice (the determinism gate), then new seed_bases each round,
  // so a run's rate does not hang on one draw of kSampleSeeds seeds.
  std::optional<std::map<std::string, std::size_t>> first;
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < 2 || seconds_since(t0) < opt.seconds; ++k) {
    if (k >= 2) jobs = sample_jobs(opt.seed, k - 1, kTimedThreads);
    const auto r0 = Clock::now();
    std::size_t round_runs = 0;
    std::vector<Row> rows;
    for (const api::Job& job : jobs) {
      const auto j0 = Clock::now();
      const Row row = row_of(service->run(job));
      lat[row.scenario].push_back(seconds_since(j0) * 1000.0);
      runs += row.runs;
      round_runs += row.runs;
      res.attempted += row.runs;
      res.failed += row.failed_runs + (row.ok ? 0 : 1);
      rows.push_back(row);
    }
    rates.push_back(static_cast<double>(round_runs) / seconds_since(r0));
    check_sample_rows(res, rows, "sample");
    const auto totals = violation_totals(rows);
    if (k == 0) first = totals;
    if (k == 1)
      res.gate(totals == *first, "sample: a repeated round changed its violation totals");
  }
  end_to_end(res, setup, static_cast<double>(runs), seconds_since(t0), rates, lat,
             self_peak_rss_mb(), "runs", "sim_runs_per_s");
  Json totals = Json::object();
  for (const auto& [name, v] : *first) totals.set(name, v);
  res.detail.set("violation_totals", std::move(totals));
}

void sample_traced(const Options& opt, Result& res) {
  const api::Service service;
  LayerNumbers n;
  const std::vector<api::Job> jobs = sample_jobs(opt.seed, 0, nproc());

  std::vector<Row> untraced;
  auto t0 = Clock::now();
  for (const api::Job& job : jobs) untraced.push_back(row_of(service.run(job)));
  n.untraced_wall_s = seconds_since(t0);
  check_sample_rows(res, untraced, "untraced");
  for (const Row& r : untraced) {
    res.attempted += r.runs;
    res.failed += r.failed_runs + (r.ok ? 0 : 1);
  }

  Tracer traced("nproc");
  std::vector<Row> rows;
  t0 = Clock::now();
  {
    SpanBuffer* tb = traced.new_buffer();
    Scope root(tb, "root");
    for (std::size_t i = 0; i < jobs.size(); ++i)
      rows.push_back(redrive(tb, {jobs[i]}, nullptr, n.counters, i)[0]);
  }
  n.traced_wall_s = seconds_since(t0);
  n.rollup = roll_up(traced);
  n.runs_per_s_n = static_cast<double>(n.counters.mc_runs) / n.counters.mc_wall_s;
  check_sample_rows(res, rows, "traced");

  Tracer single("1-thread");
  std::vector<Row> rows1;
  DriveCounters c1;
  {
    SpanBuffer* tb = single.new_buffer();
    Scope root(tb, "root");
    const std::vector<api::Job> jobs1 = sample_jobs(opt.seed, 0, 1);
    for (std::size_t i = 0; i < jobs1.size(); ++i)
      rows1.push_back(redrive(tb, {jobs1[i]}, nullptr, c1, i)[0]);
  }
  n.runs_per_s_1 = static_cast<double>(c1.mc_runs) / c1.mc_wall_s;
  n.run_walls_s = c1.run_walls_s;
  check_sample_rows(res, rows1, "1-thread");

  const auto totals = violation_totals(untraced);
  res.gate(violation_totals(rows) == totals,
           "sample: traced re-drive violation totals differ from Service::run");
  res.gate(violation_totals(rows1) == totals,
           "sample: violation totals differ between 1 thread and nproc threads");
  per_layer(res, n);
  dump_trace(opt, {&traced, &single}, n.rollup, res);
}

// === fuzz ====================================================================

constexpr std::size_t kFuzzExecs = 64;
constexpr std::size_t kFuzzBatch = 16;
// Deployments of two remotes (`pte fuzz --max-remotes 2`) at the grammar's
// default state cap: proofs of about 10 ms that finish in budget.  With the
// default three, a few proofs per campaign run for seconds or end out of
// budget with checkpoints of 40-120 MB, and their count sets a run's cost.
constexpr std::size_t kFuzzMaxRemotes = 2;
/// A fuzz run takes a pool of ceil(--seconds / kFuzzCampaignSeconds)
/// campaigns, whatever the clock says, and runs the first one twice; a
/// campaign takes about 1.3 s on one pinned CPU, so a run outlasts
/// --seconds by half or so.  The pool is fixed and the workload seed only
/// orders it: a tenth of the execs hold two thirds of the proof time, so
/// runs over seed-drawn campaigns spread 0.13 between seeds on composition
/// alone.  The pool makes every run the same work, with the same findings
/// (the known replay disagreement counts as failed).
constexpr double kFuzzCampaignSeconds = 1.0;
constexpr std::uint64_t kFuzzPoolSeed = 0xf022;

fuzz::FuzzOptions fuzz_options(std::uint64_t seed) {
  fuzz::FuzzOptions o;
  o.seed = seed;
  o.max_execs = kFuzzExecs;
  o.batch = kFuzzBatch;
  o.guided = true;
  o.minimize = false;
  o.threads = kTimedThreads;
  o.grammar.max_remotes = kFuzzMaxRemotes;
  return o;
}

/// The counters a campaign must reproduce exactly.
Json fuzz_signature(const fuzz::FuzzReport& r) {
  Json s = Json::object();
  s.set("execs", r.stats.execs);
  s.set("dedup_skipped", r.stats.dedup_skipped);
  s.set("distinct_sketches", r.stats.distinct_sketches);
  s.set("coverage_bits", r.stats.coverage_bits);
  s.set("flip_regions", r.stats.flip_regions);
  s.set("proved", r.stats.proved);
  s.set("violated", r.stats.violated);
  s.set("out_of_budget", r.stats.out_of_budget);
  s.set("row_errors", r.stats.row_errors);
  Json findings = Json::array();
  for (const fuzz::FuzzFinding& f : r.findings) findings.push_back(f.digest);
  s.set("findings", std::move(findings));
  return s;
}

/// Bytes of the regular files under a directory.
std::uintmax_t dir_bytes(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file()) bytes += e.file_size();
  return bytes;
}

std::string fresh_dir(const Options& opt, const std::string& name) {
  const fs::path p = fs::path(opt.workdir) / name;
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

void fuzz_untraced(const Options& opt, Result& res) {
  std::vector<double> setup;
  // Set-up is the Service and Fuzzer construction over an existing cache
  // directory: directory metadata on a shared disk swings 3x between runs,
  // and each campaign below makes its fresh directory inside its own timing.
  for (int k = 0; k < kSetups; ++k) {
    const fs::path dir = fs::path(opt.workdir) / util::cat("fuzz-setup-", k);
    fs::create_directories(dir / "results");
    fs::create_directories(dir / "checkpoints");
    const auto t0 = Clock::now();
    api::ServiceOptions so;
    so.cache_dir = dir.string();
    const api::Service service(so);
    const fuzz::Fuzzer fuzzer(service, fuzz_options(opt.seed));
    setup.push_back(seconds_since(t0));
  }
  for (int k = 0; k < kSetups; ++k)
    fs::remove_all(fs::path(opt.workdir) / util::cat("fuzz-setup-", k));
  // Pool campaign 0 twice (the determinism gate), then the rest of the pool
  // in seeded order, each against a fresh cache.
  const std::size_t pool = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(opt.seconds / kFuzzCampaignSeconds)));
  std::vector<std::uint64_t> rest;
  for (std::size_t k = 1; k < pool; ++k) rest.push_back(mix64(kFuzzPoolSeed, k));
  shuffle(rest, opt.seed);
  std::vector<std::uint64_t> order(2, mix64(kFuzzPoolSeed, 0));
  order.insert(order.end(), rest.begin(), rest.end());
  std::vector<double> lat, rates;
  std::size_t execs = 0, out_of_budget = 0;
  std::uintmax_t checkpoint_bytes = 0;
  double busy_s = 0.0;  // campaign walls; deleting a spent cache is not timed
  std::optional<Json> first;
  Json campaigns = Json::array();
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::uint64_t seed = order[k];
    const auto c0 = Clock::now();
    api::ServiceOptions so;
    so.cache_dir = fresh_dir(opt, util::cat("fuzz-cache-", k));
    const api::Service service(so);
    fuzz::Fuzzer fuzzer(service, fuzz_options(seed));
    const fuzz::FuzzReport report = fuzzer.run();
    lat.push_back(seconds_since(c0) * 1000.0);
    busy_s += lat.back() / 1000.0;
    rates.push_back(static_cast<double>(report.stats.execs) * 1000.0 / lat.back());
    const std::uintmax_t ckpt = dir_bytes(fs::path(so.cache_dir) / "checkpoints");
    checkpoint_bytes += ckpt;
    fs::remove_all(so.cache_dir);
    execs += report.stats.execs;
    out_of_budget += report.stats.out_of_budget;
    res.attempted += report.stats.execs;
    res.failed += report.findings.size();
    res.gate(report.errors.empty(), util::cat("fuzz campaign ", k, ": campaign errors"));
    res.gate(report.stats.cache.hits == 0, util::cat("fuzz campaign ", k, ": cache hits"));
    const Json sig = fuzz_signature(report);
    if (k == 0) first = sig;
    if (k == 1) res.gate(sig == *first, "fuzz: a repeated campaign changed its counters");
    Json entry = sig;
    entry.set("wall_ms", lat.back());
    entry.set("checkpoint_bytes", ckpt);
    campaigns.push_back(std::move(entry));
  }
  end_to_end(res, setup, static_cast<double>(execs), busy_s, rates, {{"campaign", lat}},
             self_peak_rss_mb(), "execs", "execs_per_s");
  // Out-of-budget proofs write warm-resume checkpoints; their share says
  // how much of the cache write path a run exercised.
  res.detail.set("out_of_budget_frac", frac(out_of_budget, execs));
  res.detail.set("checkpoint_bytes", checkpoint_bytes);
  res.detail.set("campaigns", std::move(campaigns));
}

/// The guided scheduler re-driven through fuzz/grammar.hpp's public calls:
/// fresh generation, one draw in six a flip probe at an edge-tier entry
/// whose bucket has seen one verdict, content and projection dedup.
struct Scheduler {
  sim::Rng rng;
  std::map<std::string, unsigned> bucket_verdicts;
  std::map<std::string, std::size_t> probes;
  std::vector<std::pair<scenarios::ScenarioDocument, std::string>> edge;  // doc, bucket
  std::set<std::string> digests, projections;
  std::size_t candidates = 0, skipped = 0;
  fuzz::GrammarOptions grammar = fuzz_options(0).grammar;

  explicit Scheduler(std::uint64_t seed) : rng(seed) {}

  static bool is_edge(const std::string& bucket) {
    return bucket.size() >= 5 && bucket.compare(bucket.size() - 5, 5, "|edge") == 0;
  }

  scenarios::ScenarioDocument draw(SpanBuffer* tb) {
    Scope s(tb, "fuzz.generate");
    if (!edge.empty() && rng.uniform_int(6) == 0) {
      const std::pair<scenarios::ScenarioDocument, std::string>* target = nullptr;
      std::size_t seen = 0;
      for (const auto& e : edge) {
        const unsigned v = bucket_verdicts[e.second];
        if (v == 0 || v == 3 || probes[e.second] >= 2) continue;
        if (rng.uniform_int(++seen) == 0) target = &e;
      }
      if (target != nullptr) {
        ++probes[target->second];
        return fuzz::flip_probe(rng, target->first, grammar);
      }
    }
    return fuzz::generate(rng, grammar);
  }

  std::vector<scenarios::ScenarioDocument> batch(SpanBuffer* tb, std::size_t size) {
    std::vector<scenarios::ScenarioDocument> out;
    std::size_t rejects = 0;
    while (out.size() < size && rejects < 48 * size) {
      scenarios::ScenarioDocument doc = draw(tb);
      ++candidates;
      Scope s(tb, "fuzz.projection");
      const std::string digest = scenarios::params_digest(doc.params);
      const std::string projection = fuzz::prover_projection(doc.params);
      if (digests.count(digest) > 0 || projections.count(projection) > 0) {
        ++rejects;
        ++skipped;
        continue;
      }
      digests.insert(digest);
      projections.insert(projection);
      out.push_back(std::move(doc));
    }
    return out;
  }

  void observe(SpanBuffer* tb, const scenarios::ScenarioDocument& doc, const Row& row) {
    Scope s(tb, "fuzz.projection");
    const std::string bucket = fuzz::structure_bucket(doc.params);
    if (row.status == verify::VerifyStatus::kProved) bucket_verdicts[bucket] |= 1u;
    if (row.status == verify::VerifyStatus::kViolation) bucket_verdicts[bucket] |= 2u;
    if (is_edge(bucket)) edge.emplace_back(doc, bucket);
  }
};

std::vector<api::Job> fuzz_jobs(const std::vector<scenarios::ScenarioDocument>& docs,
                                std::size_t threads) {
  std::vector<api::Job> jobs;
  for (const scenarios::ScenarioDocument& doc : docs) {
    api::Job job = api::Job::for_document(doc);
    job.threads = threads;
    job.tuning.threads = threads;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

bool fuzz_failed(const Row& r) {
  return !r.status.has_value() ||
         (!r.consistent && r.status != verify::VerifyStatus::kOutOfBudget);
}

void fuzz_traced(const Options& opt, Result& res) {
  LayerNumbers n;
  const std::size_t execs = 96;

  // Traced pass: the scheduler draws, the layers execute, nproc threads.
  Tracer traced("nproc");
  std::vector<std::vector<scenarios::ScenarioDocument>> batches;
  std::vector<Row> rows;
  auto t0 = Clock::now();
  {
    api::ServiceOptions so;
    so.cache_dir = fresh_dir(opt, "fuzz-traced-cache");
    const api::ResultCache cache(api::ResultCache::Options{so.cache_dir, so.cache_max_bytes});
    SpanBuffer* tb = traced.new_buffer();
    Scope root(tb, "root");
    Scheduler sched(mix64(opt.seed, 0));
    std::size_t done = 0;
    while (done < execs) {
      std::vector<scenarios::ScenarioDocument> docs =
          sched.batch(tb, std::min(kFuzzBatch, execs - done));
      if (docs.empty()) break;
      const std::vector<Row> out = redrive(tb, fuzz_jobs(docs, nproc()), &cache, n.counters, done);
      for (std::size_t i = 0; i < docs.size(); ++i) sched.observe(tb, docs[i], out[i]);
      rows.insert(rows.end(), out.begin(), out.end());
      done += docs.size();
      batches.push_back(std::move(docs));
    }
    n.candidates = sched.candidates;
    n.dedup_skipped = sched.skipped;
  }
  n.traced_wall_s = seconds_since(t0);
  n.rollup = roll_up(traced);
  n.explore_n_s = n.rollup.total_s("verify.explore");
  n.execs_per_s_n = static_cast<double>(rows.size()) / n.traced_wall_s;
  n.add_proofs(rows);
  for (const Row& r : rows) {
    ++res.attempted;
    if (fuzz_failed(r)) ++res.failed;
  }

  // Untraced pass: the same batches through Service::run_matrix.
  {
    api::ServiceOptions so;
    so.cache_dir = fresh_dir(opt, "fuzz-untraced-cache");
    const api::Service service(so);
    std::size_t i = 0;
    t0 = Clock::now();
    std::vector<api::MatrixResult> results;
    for (const auto& docs : batches)
      results.push_back(service.run_matrix(fuzz_jobs(docs, nproc())));
    n.untraced_wall_s = seconds_since(t0);
    for (const api::MatrixResult& mr : results)
      for (const api::MatrixRow& mrow : mr.rows) {
        const Row& r = rows[i++];
        res.gate(mrow.scenario == r.scenario && mrow.status == r.status,
                 util::cat("fuzz: run_matrix verdict differs from the re-drive on ", r.scenario));
      }
  }

  // 1-thread leg: the same batches, one Monte-Carlo and one prover thread.
  Tracer single("1-thread");
  {
    api::ServiceOptions so;
    so.cache_dir = fresh_dir(opt, "fuzz-1thread-cache");
    const api::ResultCache cache(api::ResultCache::Options{so.cache_dir, so.cache_max_bytes});
    SpanBuffer* tb = single.new_buffer();
    Scope root(tb, "root");
    DriveCounters c;
    std::size_t i = 0;
    t0 = Clock::now();
    for (const auto& docs : batches) {
      for (const Row& r : redrive(tb, fuzz_jobs(docs, 1), &cache, c, i)) {
        res.gate(r.same_outcome(rows[i]),
                 util::cat("fuzz: 1-thread outcome differs from nproc on ", r.scenario));
        ++i;
      }
    }
    n.execs_per_s_1 = static_cast<double>(i) / seconds_since(t0);
    n.run_walls_s = c.run_walls_s;
  }
  n.explore_1_s = roll_up(single).total_s("verify.explore");
  per_layer(res, n);
  dump_trace(opt, {&traced, &single}, n.rollup, res);
  res.detail.set("execs", rows.size());
}

// === serve ===================================================================

/// A pted child process; the destructor stops it and waits.
class Daemon {
 public:
  Daemon(const std::string& pted, const std::string& dir, std::size_t workers) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string port_file = (fs::path(dir) / "port").string();
    std::vector<std::string> args = {pted,          "--port",      "0",
                                     "--port-file", port_file,     "--cache-dir",
                                     (fs::path(dir) / "cache").string(),
                                     "--workers",   util::cat(workers)};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log = (fs::path(dir) / "pted.log").string();
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      if (FILE* f = std::freopen(log.c_str(), "w", stderr)) (void)f;
      execv(pted.c_str(), argv.data());
      _exit(127);
    }
    const auto t0 = Clock::now();
    while (seconds_since(t0) < 20.0) {
      std::ifstream in(port_file);
      if (in >> port_ && port_ > 0) return;
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error(util::cat("pted exited before listening (see ", log, ")"));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    throw std::runtime_error("pted never wrote its port file");
  }
  ~Daemon() {
    if (pid_ > 0) stop();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM, wait for the drain; true iff pted exited with status 0.
  bool stop() {
    kill(pid_, SIGTERM);
    int status = 0;
    const auto t0 = Clock::now();
    while (waitpid(pid_, &status, WNOHANG) != pid_) {
      if (seconds_since(t0) > 30.0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

constexpr std::uint64_t kPrimedSeedBase = 1;
constexpr std::size_t kHitsPerMiss = 4;

/// A registry smoke job (both modes, 2 seeds); the daemon pins 1 thread.
api::Job serve_job(const std::string& scenario, std::uint64_t seed_base) {
  api::Job job = api::Job::for_scenario(scenario);
  job.smoke = true;
  job.seed_base = seed_base;
  return job;
}

struct Request {
  std::string scenario;
  std::uint64_t seed_base;
  bool miss;
};

/// Round r of the mix: every registry entry kHitsPerMiss times as a hit
/// and once as a miss with a salted seed_base, in seeded order.
std::vector<Request> serve_round(std::uint64_t seed, std::size_t r) {
  std::vector<Request> out;
  const auto& reg = scenarios::registry();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    for (std::size_t h = 0; h < kHitsPerMiss; ++h)
      out.push_back({reg[i].name, kPrimedSeedBase, false});
    out.push_back({reg[i].name, 2 + (mix64(seed, r * reg.size() + i) >> 20), true});
  }
  shuffle(out, mix64(seed, 0x7000 + r));
  return out;
}

struct Reply {
  Request request;
  double latency_ms = 0.0;
  double job_ms = 0.0;
  bool rejected = false;
  bool hit = false;
  Row row;
};

Reply roundtrip(util::Socket& sock, const Request& rq) {
  Json envelope = Json::object();
  envelope.set("job", serve_job(rq.scenario, rq.seed_base).to_json());
  const std::string payload = envelope.dump();
  const auto t0 = Clock::now();
  util::write_frame(sock, payload);
  const std::optional<std::string> frame = util::read_frame(sock);
  Reply rep;
  rep.latency_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (!frame.has_value()) throw std::runtime_error("pted closed the connection");
  const Json resp = Json::parse(*frame);
  if (const Json* rj = resp.find("rejected")) rep.rejected = rj->as_bool();
  if (const Json* result = resp.find("result")) {
    const api::JobResult jr = api::JobResult::from_json(*result);
    rep.row = row_of(jr);
    if (const Json* c = result->find("cache"))
      if (const Json* h = c->find("hits")) rep.hit = h->as_uint() > 0;
    rep.row.hit = rep.hit;
    rep.job_ms = jr.wall_ms;
  }
  return rep;
}

Json http_get(int port, const std::string& path) {
  util::Socket sock = util::tcp_connect("127.0.0.1", port);
  const std::string req = util::cat("GET ", path, " HTTP/1.1\r\nHost: ptebench\r\n\r\n");
  sock.write_all(req.data(), req.size());
  std::string response;
  char buf[8192];
  for (std::size_t got; (got = sock.read_some(buf, sizeof buf)) > 0;) response.append(buf, got);
  const std::size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) throw std::runtime_error("malformed HTTP response");
  return Json::parse(response.substr(body + 4));
}

using RequestSource = std::function<std::optional<Request>(std::size_t)>;

/// Closed loop: `clients` connections each take the next request until
/// `next_req(i)` returns nothing.
std::vector<Reply> drive_requests(int port, std::size_t clients, const RequestSource& next_req) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Reply>> per(clients);
  std::vector<std::string> errors(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      try {
        util::Socket sock = util::tcp_connect("127.0.0.1", port);
        util::write_frame_magic(sock);
        while (true) {
          const std::optional<Request> rq = next_req(next.fetch_add(1));
          if (!rq.has_value()) return;
          Reply rep = roundtrip(sock, *rq);
          rep.request = *rq;
          per[c].push_back(std::move(rep));
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error(util::cat("client: ", e));
  std::vector<Reply> all;
  for (auto& v : per)
    for (Reply& r : v) all.push_back(std::move(r));
  return all;
}

/// Each reply must come from where the mix planned it (a primed job from
/// the cache, a salted one computed) and equal in-process Service::run on
/// the same job: verdict, state counts, sketch, runs and violations.
void check_serve_replies(Result& res, const std::vector<Reply>& replies) {
  using Key = std::pair<std::string, std::uint64_t>;
  std::map<Key, Row> reference;
  for (const Reply& r : replies) reference[{r.request.scenario, r.request.seed_base}];
  std::vector<std::pair<const Key, Row>*> todo;
  for (auto& entry : reference) todo.push_back(&entry);
  const api::Service service;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < nproc(); ++w)
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < todo.size();) {
        api::Job job = serve_job(todo[i]->first.first, todo[i]->first.second);
        job.threads = 1;
        job.tuning.threads = 1;
        try {
          todo[i]->second = row_of(service.run(job));
        } catch (const std::exception& e) {
          todo[i]->second.verdict = util::cat("in-process error: ", e.what());
        }
      }
    });
  for (std::thread& t : pool) t.join();
  for (const Reply& r : replies) {
    ++res.attempted;
    const Request& rq = r.request;
    const Row& want = reference.at({rq.scenario, rq.seed_base});
    const bool ok = !r.rejected && r.row.ok && r.hit == !rq.miss && r.row.same_outcome(want);
    if (!ok) ++res.failed;
    res.gate(ok, util::cat("serve ", rq.scenario, " seed_base ", rq.seed_base,
                           rq.miss ? " (planned miss)" : " (planned hit)", ": daemon ",
                           r.row.verdict, r.rejected ? " (rejected)" : "",
                           r.hit ? " from cache, " : " computed, ", r.row.runs, " runs, ",
                           r.row.violations, " violations; in-process ", want.verdict, ", ",
                           want.runs, " runs, ", want.violations, " violations"));
  }
}

void check_serve_metrics(Result& res, int port) {
  const Json m = http_get(port, "/metrics");
  const std::uint64_t admitted = m.at("jobs").at("admitted").as_uint();
  const std::uint64_t completed = m.at("jobs").at("completed").as_uint();
  res.gate(admitted == completed,
           util::cat("serve: /metrics admitted ", admitted, " != completed ", completed));
}

/// Spawn pted and prime its cache with the hit jobs.
std::unique_ptr<Daemon> serve_setup(const Options& opt, const std::string& name) {
  auto d = std::make_unique<Daemon>(opt.pted, (fs::path(opt.workdir) / name).string(), nproc());
  std::vector<Request> prime;
  for (const auto& e : scenarios::registry()) prime.push_back({e.name, kPrimedSeedBase, false});
  const std::vector<Reply> replies = drive_requests(
      d->port(), kTimedThreads,
      [&](std::size_t i) {
        return i < prime.size() ? std::optional<Request>(prime[i]) : std::nullopt;
      });
  for (const Reply& r : replies)
    if (!r.row.ok) throw std::runtime_error(util::cat("priming ", r.request.scenario, " failed"));
  return d;
}

/// Hits and misses apart: the mix is bimodal.
Json split_latency(const std::vector<Reply>& replies) {
  std::vector<double> hit, miss;
  for (const Reply& r : replies) (r.hit ? hit : miss).push_back(r.latency_ms);
  Json m = Json::object();
  m.set("hit_ms_p50", timing(median(hit), "ms", hit.size()));
  m.set("hit_ms_p90", timing(quantile(hit, 0.9), "ms", hit.size()));
  m.set("miss_ms_p50", timing(median(miss), "ms", miss.size()));
  m.set("miss_ms_p90", timing(quantile(miss, 0.9), "ms", miss.size()));
  return m;
}

void serve_untraced(const Options& opt, Result& res) {
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < kServeSetups; ++k) {
    if (daemon) res.gate(daemon->stop(), "serve: pted did not drain to exit 0");
    const auto t0 = Clock::now();
    daemon = serve_setup(opt, util::cat("pted-", k));
    setup.push_back(seconds_since(t0));
  }
  std::vector<std::vector<Request>> rounds;
  std::mutex mu;
  Clock::time_point t0;
  std::atomic<bool> open{true};
  const RequestSource next_req = [&](std::size_t i) {
    if (!open.load() || (i > 0 && seconds_since(t0) >= opt.seconds)) {
      open.store(false);
      return std::optional<Request>();
    }
    std::lock_guard<std::mutex> lock(mu);
    const std::size_t per = scenarios::registry().size() * (kHitsPerMiss + 1);
    while (rounds.size() <= i / per) rounds.push_back(serve_round(opt.seed, rounds.size()));
    return std::optional<Request>(rounds[i / per][i % per]);
  };
  t0 = Clock::now();
  const std::vector<Reply> replies = drive_requests(daemon->port(), kTimedThreads, next_req);
  const double elapsed = seconds_since(t0);
  const double rss = proc_peak_rss_mb(daemon->pid());
  check_serve_metrics(res, daemon->port());
  res.gate(daemon->stop(), "serve: pted did not drain to exit 0");
  unpin();  // the in-process references below are not timed
  check_serve_replies(res, replies);
  // The whole run is the one unit of work: a block of completions has a
  // rate that hangs on how many slow misses it holds, and the median of 20
  // such blocks spread twice as much across seeds as the run's own rate.
  const std::vector<double> rates = {static_cast<double>(replies.size()) / elapsed};
  std::vector<double> lat;
  for (const Reply& r : replies) lat.push_back(r.latency_ms);
  end_to_end(res, setup, static_cast<double>(replies.size()), elapsed, rates, {{"request", lat}},
             rss, "req", "requests_per_s", split_latency(replies));
}

void serve_traced(const Options& opt, Result& res) {
  LayerNumbers n;
  const std::size_t rounds = 6;
  std::vector<Request> requests;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::vector<Request> round = serve_round(opt.seed, r);
    requests.insert(requests.end(), round.begin(), round.end());
  }

  // Untraced pass through the daemon.
  std::unique_ptr<Daemon> daemon = serve_setup(opt, "pted-traced");
  auto t0 = Clock::now();
  const std::vector<Reply> replies = drive_requests(daemon->port(), nproc(), [&](std::size_t i) {
    return i < requests.size() ? std::optional<Request>(requests[i]) : std::nullopt;
  });
  n.untraced_wall_s = seconds_since(t0);
  check_serve_metrics(res, daemon->port());
  res.gate(daemon->stop(), "serve: pted did not drain to exit 0");
  check_serve_replies(res, replies);
  for (const Reply& r : replies) {
    ++n.requests;
    if (r.rejected) ++n.rejected;
    n.service_overhead_ms.push_back(r.latency_ms - r.job_ms);
    (r.hit ? n.job_ms_hit : n.job_ms_miss).push_back(r.job_ms);
  }

  // Traced pass: the same requests in-process, nproc workers pulling from
  // one shared queue (pted's worker pool, re-driven), against a cache
  // primed the same way.
  api::ServiceOptions so;
  so.cache_dir = fresh_dir(opt, "serve-traced-cache");
  {
    const api::Service primer(so);
    for (const auto& e : scenarios::registry()) {
      api::Job job = serve_job(e.name, kPrimedSeedBase);
      job.threads = 1;
      job.tuning.threads = 1;
      primer.run(job);
    }
  }
  const api::ResultCache cache(api::ResultCache::Options{so.cache_dir, so.cache_max_bytes});
  Tracer traced("nproc");
  std::atomic<std::size_t> next{0};
  std::vector<DriveCounters> counters(nproc());
  std::vector<std::vector<Row>> rows(nproc());
  t0 = Clock::now();
  {
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < nproc(); ++w)
      workers.emplace_back([&, w] {
        SpanBuffer* tb = traced.new_buffer();
        Scope root(tb, "root");
        for (std::size_t i; (i = next.fetch_add(1)) < requests.size();) {
          Scope request(tb, "service.request", i);
          api::Job job = serve_job(requests[i].scenario, requests[i].seed_base);
          job.threads = 1;
          job.tuning.threads = 1;
          rows[w].push_back(redrive(tb, {job}, &cache, counters[w], i)[0]);
        }
      });
    for (std::thread& t : workers) t.join();
  }
  n.traced_wall_s = seconds_since(t0);
  n.rollup = roll_up(traced);
  for (std::size_t w = 0; w < nproc(); ++w) {
    n.counters.lookups += counters[w].lookups;
    n.counters.hits += counters[w].hits;
    n.counters.result_bytes += counters[w].result_bytes;
    n.add_proofs(rows[w]);
    for (const Row& r : rows[w])
      res.gate(r.ok, util::cat("serve re-drive ", r.scenario, " not ok"));
  }
  per_layer(res, n);
  dump_trace(opt, {&traced}, n.rollup, res);
}

// --- entry --------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: ptebench --workload prove|sample|fuzz|serve --seed N --seconds S\n"
               "                --trace 0|1 --pted PATH --workdir DIR\n"
               "(run from the checkout root: it reads perfbench/expected.json)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::stoull(v);
    else if (k == "--seconds") opt.seconds = std::stod(v);
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--pted") opt.pted = v;
    else if (k == "--workdir") opt.workdir = v;
    else return usage();
  }
  if (argc % 2 == 0 || opt.workdir.empty() || opt.seconds <= 0.0) return usage();
  signal(SIGPIPE, SIG_IGN);

  // Before any thread exists, so all of them inherit it.
  const int pinned_cpu = opt.trace ? -1 : pin_to_one_cpu();
  Result res;
  const auto [steal0, total0] = cpu_jiffies();
  try {
    fs::create_directories(opt.workdir);
    using Run = void (*)(const Options&, Result&);
    const std::map<std::string, std::pair<Run, Run>> workloads = {
        {"prove", {prove_untraced, prove_traced}},
        {"sample", {sample_untraced, sample_traced}},
        {"fuzz", {fuzz_untraced, fuzz_traced}},
        {"serve", {serve_untraced, serve_traced}}};
    const auto it = workloads.find(opt.workload);
    if (it == workloads.end()) return usage();
    (opt.trace ? it->second.second : it->second.first)(opt, res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ptebench: %s\n", e.what());
    return 2;
  }

  const bool correct = res.gate_failures.empty();
  const auto [steal1, total1] = cpu_jiffies();
  const double steal = total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0;
  Json detail = std::move(res.detail);
  // Timings are not comparable across runs with very different steal.
  detail.set("host_steal_frac", steal);
  detail.set("pinned_cpu", pinned_cpu);
  detail.set("workload", opt.workload);
  detail.set("seed", opt.seed);
  detail.set("trace", opt.trace);
  detail.set("fingerprint", fingerprint());
  Json failures = Json::array();
  for (const std::string& f : res.gate_failures) failures.push_back(f);
  detail.set("gate_failures", std::move(failures));
  Json wrapped = Json::object();
  wrapped.set("detail", std::move(detail));
  std::printf("%s\n", wrapped.dump().c_str());
  if (!fingerprint().at("release").as_bool())
    std::fprintf(stderr, "ptebench: WARNING: not a Release build — numbers are not comparable\n");
  for (const std::string& f : res.gate_failures)
    std::fprintf(stderr, "ptebench: GATE: %s\n", f.c_str());

  Json out = Json::object();
  out.set("correct", correct);
  out.set("attempted", res.attempted);
  out.set("failed", res.failed);
  out.set("metrics", std::move(res.metrics));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
