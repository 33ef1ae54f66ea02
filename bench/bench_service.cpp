// Load model of the verification daemon: spawns a real `pted` (fork +
// exec, fresh cache dir, ephemeral port), drives it over the scenario
// registry at increasing connection concurrency, and records sustained
// jobs/s and tail latency for a cold-cache and a warm-cache phase into
// BENCH_service.json — throughput, saturation point, and the cache's
// effect on a serving workload, measured end to end through the socket.
//
// Phases per concurrency level (each client thread owns one framed
// connection and pulls jobs from a shared counter):
//   cold: every submission inlines its registry scenario under a name of
//         its own; the name is part of every key, so neither a stored
//         result nor a stored proof answers it and the daemon must run
//         the proof (a fresh seed_base alone would reuse the proof);
//   warm: a fixed seed_base the bench primed beforehand — every
//         submission is answered from the shared result cache.
//
// The acceptance bar (exit status, not just numbers in the JSON):
//   - every response parses and reports ok;
//   - warm throughput is >= --min-warm-speedup x cold (default 10x) at
//     the best level of each;
//   - under --smoke additionally: daemon verdicts and state counts match
//     an in-process Service run bit for bit, a repeat pass is answered
//     entirely from the cache (daemon /metrics hit delta == jobs), and
//     SIGTERM drains the daemon to a clean exit 0.
//
// Usage: bench_service [--pted PATH] [--jobs N] [--levels 1,2,4,8]
//                      [--workers N] [--min-warm-speedup 10]
//                      [--smoke] [--skip-json]
// CI runs: bench_service --smoke
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/service.hpp"
#include "scenarios/registry.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/sockio.hpp"
#include "util/text.hpp"

namespace fs = std::filesystem;
using namespace ptecps;

namespace {

using steady_clock = std::chrono::steady_clock;

double seconds_since(steady_clock::time_point t0) {
  return std::chrono::duration<double>(steady_clock::now() - t0).count();
}

// --- daemon lifecycle ------------------------------------------------------

struct Daemon {
  pid_t pid = -1;
  int port = 0;
  std::string cache_dir;
};

std::string sibling_binary(const char* name) {
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (ec) return name;
  return (self.parent_path() / name).string();
}

Daemon spawn_pted(const std::string& pted_path, std::size_t workers) {
  Daemon d;
  const fs::path base = fs::temp_directory_path() / "ptecps-bench-service";
  fs::remove_all(base);
  fs::create_directories(base);
  d.cache_dir = (base / "cache").string();
  const std::string port_file = (base / "port.txt").string();

  std::vector<std::string> argv_s = {pted_path,    "--port",      "0",
                                     "--port-file", port_file,    "--cache-dir",
                                     d.cache_dir,  "--queue-depth", "256"};
  if (workers > 0) {
    argv_s.push_back("--workers");
    argv_s.push_back(util::cat(workers));
  }
  std::vector<char*> argv_c;
  for (std::string& s : argv_s) argv_c.push_back(s.data());
  argv_c.push_back(nullptr);

  d.pid = fork();
  if (d.pid < 0) {
    std::perror("bench_service: fork");
    std::exit(2);
  }
  if (d.pid == 0) {
    execv(pted_path.c_str(), argv_c.data());
    std::fprintf(stderr, "bench_service: cannot exec '%s'\n", pted_path.c_str());
    _exit(127);
  }

  const auto t0 = steady_clock::now();
  while (seconds_since(t0) < 15.0) {
    std::ifstream in(port_file);
    if (in >> d.port && d.port > 0) return d;
    int status = 0;
    if (waitpid(d.pid, &status, WNOHANG) == d.pid) {
      std::fprintf(stderr, "bench_service: pted exited before listening\n");
      std::exit(2);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "bench_service: pted never wrote its port file\n");
  kill(d.pid, SIGKILL);
  std::exit(2);
}

// --- wire helpers ----------------------------------------------------------

util::Json job_json(const std::string& scenario, std::uint64_t seed_base) {
  util::Json job = util::Json::object();
  job.set("scenario", scenario);
  job.set("mode", "verify");
  job.set("smoke", true);
  job.set("seed_base", seed_base);
  return job;
}

/// A job no stored result or proof answers: registry entry `scenario`
/// inlined under the name "<scenario>-cold-<n>".
util::Json cold_job_json(const std::string& scenario, std::uint64_t n) {
  scenarios::ScenarioDocument doc =
      scenarios::export_document(*scenarios::find_scenario(scenario));
  doc.params.name = util::cat(scenario, "-cold-", n);
  util::Json job = job_json(scenario, n);
  job.set("scenario", scenarios::to_json(doc));
  return job;
}

util::Json framed_roundtrip(util::Socket& sock, const util::Json& job) {
  util::Json envelope = util::Json::object();
  envelope.set("job", job);
  util::write_frame(sock, envelope.dump_canonical());
  const std::optional<std::string> reply = util::read_frame(sock);
  if (!reply.has_value())
    throw util::SockError("daemon closed the connection without a response");
  return util::Json::parse(*reply);
}

util::Json http_metrics(int port) {
  util::Socket sock = util::tcp_connect("127.0.0.1", port);
  const std::string req = "GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n";
  sock.write_all(req.data(), req.size());
  std::string response;
  char buf[8192];
  for (std::size_t n; (n = sock.read_some(buf, sizeof buf)) > 0;)
    response.append(buf, n);
  const std::size_t body_at = response.find("\r\n\r\n");
  if (body_at == std::string::npos)
    throw util::SockError("malformed /metrics response");
  return util::Json::parse(response.substr(body_at + 4));
}

// --- one measured phase ----------------------------------------------------

struct PhaseResult {
  double wall_s = 0.0;
  double jobs_per_s = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double max_ms = 0.0;
  std::size_t failures = 0;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// Run `total` jobs through `concurrency` client connections.  Each
/// submission's scenario rotates through the registry; `job_of(name)`
/// renders it (a fresh inline document = guaranteed cold, a fixed
/// registry job = cacheable).
PhaseResult run_phase(int port, std::size_t concurrency, std::size_t total,
                      const std::vector<std::string>& names,
                      const std::function<util::Json(const std::string&)>& job_of) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failures{0};
  std::vector<std::vector<double>> latencies(concurrency);

  const auto t0 = steady_clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < concurrency; ++c)
    clients.emplace_back([&, c] {
      try {
        util::Socket sock = util::tcp_connect("127.0.0.1", port);
        util::write_frame_magic(sock);
        for (std::size_t i; (i = next.fetch_add(1)) < total;) {
          const auto j0 = steady_clock::now();
          const util::Json resp = framed_roundtrip(sock, job_of(names[i % names.size()]));
          latencies[c].push_back(seconds_since(j0) * 1000.0);
          if (!resp.at("ok").as_bool()) ++failures;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_service: client %zu: %s\n", c, e.what());
        ++failures;
      }
    });
  for (std::thread& t : clients) t.join();

  PhaseResult r;
  r.wall_s = seconds_since(t0);
  r.jobs_per_s = r.wall_s > 0 ? static_cast<double>(total) / r.wall_s : 0.0;
  r.failures = failures.load();
  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  r.p50_ms = percentile(all, 0.50);
  r.p95_ms = percentile(all, 0.95);
  r.max_ms = all.empty() ? 0.0 : all.back();
  return r;
}

util::Json phase_json(const PhaseResult& r) {
  util::Json j = util::Json::object();
  j.set("jobs_per_s", r.jobs_per_s);
  j.set("wall_s", r.wall_s);
  j.set("p50_ms", r.p50_ms);
  j.set("p95_ms", r.p95_ms);
  j.set("max_ms", r.max_ms);
  return j;
}

/// The deterministic fields the smoke check compares between the daemon
/// and an in-process run (mirrors bench_cache's acceptance bar).
std::string fingerprint(const api::JobResult& r) {
  std::string out = r.verdict;
  if (!r.report.has_value()) return out;
  for (const campaign::ScenarioOutcome& s : r.report->scenarios) {
    if (!s.verification.has_value()) continue;
    const campaign::VerificationOutcome& v = *s.verification;
    out += util::cat(";", s.name, ":", verify::verify_status_str(v.status), ",",
                     v.states_explored, ",", v.states_stored, ",", v.transitions);
    if (v.counterexample.has_value())
      out += ";" + v.counterexample->to_json().dump_canonical();
  }
  return out;
}

std::vector<std::size_t> parse_levels(const std::string& text) {
  std::vector<std::size_t> levels;
  std::size_t value = 0;
  bool have = false;
  for (const char ch : text) {
    if (ch >= '0' && ch <= '9') {
      value = value * 10 + static_cast<std::size_t>(ch - '0');
      have = true;
    } else if (have) {
      levels.push_back(value);
      value = 0;
      have = false;
    }
  }
  if (have) levels.push_back(value);
  return levels;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv,
                       {"pted", "jobs", "levels", "workers", "min-warm-speedup",
                        "smoke", "skip-json"});
  const bool smoke = args.has_flag("smoke");
  const std::string pted_path = args.get_string("pted", sibling_binary("pted"));
  const std::size_t jobs = args.get_u64("jobs", smoke ? 24 : 96);
  const std::size_t workers = args.get_u64("workers", 0);
  const double min_warm_speedup = args.get_double("min-warm-speedup", 10.0);
  const std::vector<std::size_t> levels =
      parse_levels(args.get_string("levels", smoke ? "1,2" : "1,2,4,8"));
  if (levels.size() < 2) {
    std::fprintf(stderr, "bench_service: need at least 2 --levels\n");
    return 2;
  }

  std::vector<std::string> names;
  for (const auto& e : scenarios::registry()) names.push_back(e.name);

  Daemon daemon = spawn_pted(pted_path, workers);
  std::printf("=== pted load model: %zu scenarios, %zu jobs/phase, port %d ===\n\n",
              names.size(), jobs, daemon.port);
  bool ok = true;

  // A unique document for every cold submission, one fixed job for warm.
  std::atomic<std::uint64_t> cold_id{1000};
  constexpr std::uint64_t kWarmSeed = 7;

  // Prime the warm set: one pass over the registry at the warm seed, so
  // warm phases measure pure cache-hit serving.
  {
    util::Socket sock = util::tcp_connect("127.0.0.1", daemon.port);
    util::write_frame_magic(sock);
    for (const std::string& name : names) {
      const util::Json resp = framed_roundtrip(sock, job_json(name, kWarmSeed));
      if (!resp.at("ok").as_bool()) {
        std::fprintf(stderr, "bench_service: priming %s failed: %s\n", name.c_str(),
                     resp.dump(2).c_str());
        ok = false;
      }
    }
  }

  struct LevelRow {
    std::size_t concurrency;
    PhaseResult cold, warm;
  };
  std::vector<LevelRow> rows;
  for (const std::size_t level : levels) {
    LevelRow row{level, {}, {}};
    row.cold = run_phase(daemon.port, level, jobs, names, [&](const std::string& name) {
      return cold_job_json(name, cold_id.fetch_add(1));
    });
    row.warm = run_phase(daemon.port, level, jobs, names,
                         [&](const std::string& name) { return job_json(name, kWarmSeed); });
    ok = ok && row.cold.failures == 0 && row.warm.failures == 0;
    std::printf("c=%-3zu cold %8.1f jobs/s (p95 %7.1f ms)   warm %8.1f jobs/s "
                "(p95 %6.2f ms)\n",
                level, row.cold.jobs_per_s, row.cold.p95_ms, row.warm.jobs_per_s,
                row.warm.p95_ms);
    rows.push_back(row);
  }

  double best_cold = 0.0, best_warm = 0.0;
  std::size_t saturation = rows.front().concurrency;
  for (const LevelRow& row : rows) {
    best_cold = std::max(best_cold, row.cold.jobs_per_s);
    if (row.warm.jobs_per_s > best_warm) {
      best_warm = row.warm.jobs_per_s;
      saturation = row.concurrency;
    }
  }
  const double warm_speedup = best_cold > 0 ? best_warm / best_cold : 0.0;
  std::printf("\nbest cold %.1f jobs/s, best warm %.1f jobs/s (%.0fx, saturates at "
              "c=%zu)\n",
              best_cold, best_warm, warm_speedup, saturation);
  if (warm_speedup < min_warm_speedup) {
    std::fprintf(stderr, "bench_service: warm/cold %.1fx below the %.1fx bar\n",
                 warm_speedup, min_warm_speedup);
    ok = false;
  }

  // --- smoke checks: correctness of the serving path itself ----------------
  util::Json smoke_j = util::Json::object();
  if (smoke) {
    // 1. Daemon answers == in-process answers, bit for bit on every
    //    deterministic field (the daemon's per-job thread policy applied).
    bool identical = true;
    util::Socket sock = util::tcp_connect("127.0.0.1", daemon.port);
    util::write_frame_magic(sock);
    for (const std::string& name : names) {
      const util::Json resp = framed_roundtrip(sock, job_json(name, kWarmSeed));
      const api::JobResult remote = api::JobResult::from_json(resp.at("result"));
      api::Job job = api::Job::from_json(job_json(name, kWarmSeed));
      job.tuning.threads = 1;
      job.threads = 1;
      const api::JobResult local = api::Service().run(job);
      if (fingerprint(remote) != fingerprint(local)) {
        std::fprintf(stderr, "bench_service: %s diverged from in-process run\n",
                     name.c_str());
        identical = false;
      }
    }
    ok = ok && identical;
    smoke_j.set("verdicts_match_in_process", identical);

    // 2. A repeat pass is answered entirely from the cache.
    const std::uint64_t hits_before =
        http_metrics(daemon.port).at("cache").at("hits").as_uint();
    for (const std::string& name : names)
      framed_roundtrip(sock, job_json(name, kWarmSeed));
    const std::uint64_t hits_after =
        http_metrics(daemon.port).at("cache").at("hits").as_uint();
    const bool all_hits = hits_after - hits_before >= names.size();
    if (!all_hits)
      std::fprintf(stderr, "bench_service: repeat pass hit %llu of %zu\n",
                   static_cast<unsigned long long>(hits_after - hits_before),
                   names.size());
    ok = ok && all_hits;
    smoke_j.set("repeat_pass_all_hits", all_hits);
    std::printf("smoke: verdicts %s, repeat pass %s\n",
                identical ? "bit-identical" : "DIVERGED",
                all_hits ? "all cache hits" : "MISSED");
  }

  // Final daemon metrics (served over HTTP, like an operator would see).
  const util::Json metrics = http_metrics(daemon.port);

  // --- graceful drain: SIGTERM must exit 0 after finishing everything ------
  kill(daemon.pid, SIGTERM);
  int status = 0;
  waitpid(daemon.pid, &status, 0);
  const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!clean_exit) {
    std::fprintf(stderr, "bench_service: pted did not drain cleanly (status %d)\n",
                 status);
    ok = false;
  }
  std::printf("drain: SIGTERM -> %s\n", clean_exit ? "clean exit 0" : "FAILED");

  if (!args.has_flag("skip-json")) {
    util::Json doc = util::Json::object();
    doc.set("scenarios", names.size());
    doc.set("jobs_per_phase", jobs);
    util::Json level_list = util::Json::array();
    for (const LevelRow& row : rows) {
      util::Json one = util::Json::object();
      one.set("concurrency", row.concurrency);
      one.set("cold", phase_json(row.cold));
      one.set("warm", phase_json(row.warm));
      level_list.push_back(std::move(one));
    }
    doc.set("levels", std::move(level_list));
    doc.set("best_cold_jobs_per_s", best_cold);
    doc.set("best_warm_jobs_per_s", best_warm);
    doc.set("warm_over_cold_x", warm_speedup);
    doc.set("min_warm_over_cold_x", min_warm_speedup);
    doc.set("saturation_concurrency", saturation);
    if (smoke) doc.set("smoke", std::move(smoke_j));
    doc.set("clean_drain", clean_exit);
    doc.set("daemon_metrics", metrics);
    std::FILE* f = std::fopen("BENCH_service.json", "w");
    if (!f) {
      std::fprintf(stderr, "cannot write BENCH_service.json\n");
      return 2;
    }
    std::fputs(doc.dump(2).c_str(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_service.json (warm %.0fx cold, saturation c=%zu)\n",
                warm_speedup, saturation);
  }
  fs::remove_all(fs::temp_directory_path() / "ptecps-bench-service");
  return ok ? 0 : 1;
}
