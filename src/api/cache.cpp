#include "api/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <fstream>
#include <vector>

#include "scenarios/canonical.hpp"
#include "util/binio.hpp"
#include "util/digest.hpp"
#include "util/text.hpp"

namespace ptecps::api {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kResultSchema = "ptecps-cache-result";
// 2: an entry is the JobResult Service::run returns, whichever entry
// point stored it.
constexpr std::int64_t kResultSchemaVersion = 2;
constexpr std::string_view kProofSchema = "ptecps-cache-proof";
constexpr std::int64_t kProofSchemaVersion = 1;
constexpr std::string_view kProofExtension = ".proof";

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) return std::nullopt;
  return bytes;
}

/// A writer's in-flight file; stats() and gc() leave these alone.
bool is_temp(const fs::path& path) { return path.native().ends_with(".tmp"); }

/// Atomic publish: readers see the old entry or the new one, never a
/// torn write.  Each store writes its own temp file (pid + per-process
/// counter), so concurrent same-key writers — threads or processes —
/// never share an inode.  Returns false on any I/O failure (the cache
/// is advisory; a failed store is just a future miss).
bool write_file_atomic(const fs::path& path, const void* data, std::size_t size) {
  static std::atomic<std::uint64_t> counter{0};
  const fs::path tmp = util::cat(path.string(), ".", ::getpid(), ".", counter++, ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
    if (!out.good()) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
  return !ec;
}

void touch(const fs::path& path) {
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
}

/// The params as the prover sees them: thread counts, the Monte-Carlo
/// seeds and the mode (verify and both prove alike) fixed, since
/// ScenarioSpec::verify_input and the checker read none of them.
scenarios::ScenarioParams prover_view(const scenarios::ScenarioParams& params) {
  scenarios::ScenarioParams masked = params;
  masked.verify.threads = 0;
  masked.seed_base = 0;
  masked.seed_count = 0;
  masked.mode = campaign::RunMode::kVerify;
  return masked;
}

/// SHA-256 hex over the canonical params, the engine tag and `suffix`.
std::string key_of(const scenarios::ScenarioParams& masked, std::string_view suffix) {
  util::Sha256 h;
  h.update(scenarios::canonical_text(masked));
  h.update("\n");
  h.update(verify::kEngineTag);
  h.update(suffix);
  const auto sum = h.finish();
  return util::Sha256::to_hex(sum.data(), sum.size());
}

/// The payload of a wrapped JSON entry, or nullopt when the file is
/// missing, torn, or of another schema, version or engine.
std::optional<util::Json> load_wrapped(const fs::path& path, std::string_view schema,
                                       std::int64_t version, std::string_view payload) {
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes.has_value()) return std::nullopt;
  try {
    util::Json wrapper = util::Json::parse(*bytes);
    util::JsonReader r(wrapper, "cache-entry");
    if (r.string("schema", "") != schema) return std::nullopt;
    if (r.uinteger("version", 0) != static_cast<std::uint64_t>(version)) return std::nullopt;
    if (r.string("engine", "") != verify::kEngineTag) return std::nullopt;
    r.string("scenario", "");  // informational (pte cache stats greps it)
    const util::Json* body = r.optional(payload);
    if (body == nullptr) return std::nullopt;
    util::Json out = *body;
    touch(path);
    return out;
  } catch (const std::exception&) {
    return std::nullopt;  // torn/corrupt entry: a miss, never an error
  }
}

/// Bytes published, 0 when the write failed.
std::uint64_t store_wrapped(const fs::path& path, std::string_view schema, std::int64_t version,
                            const std::string& scenario, std::string_view payload,
                            util::Json body) {
  util::Json wrapper = util::Json::object();
  wrapper.set("schema", std::string(schema));
  wrapper.set("version", version);
  wrapper.set("engine", std::string(verify::kEngineTag));
  wrapper.set("scenario", scenario);
  wrapper.set(std::string(payload), std::move(body));
  const std::string text = wrapper.dump(2);
  return write_file_atomic(path, text.data(), text.size()) ? text.size() : 0;
}

}  // namespace

util::Json CacheStats::to_json() const {
  util::Json out = util::Json::object();
  out.set("dir", dir);
  out.set("results", results);
  out.set("proofs", proofs);
  out.set("checkpoints", checkpoints);
  out.set("bytes", bytes);
  out.set("max_bytes", max_bytes);
  return out;
}

ResultCache::ResultCache(Options options) : options_(std::move(options)) {
  for (const char* sub : {"", "results", "checkpoints"}) {
    const fs::path dir = fs::path(options_.dir) / sub;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec || !fs::is_directory(dir))
      throw std::runtime_error(util::cat("cache: cannot create directory '", dir.string(),
                                         "'", ec ? util::cat(": ", ec.message()) : ""));
  }
}

std::string ResultCache::result_path(const std::string& key) const {
  return (fs::path(options_.dir) / "results" / (key + ".json")).string();
}

std::string ResultCache::proof_path(const std::string& key) const {
  return (fs::path(options_.dir) / "results" / (key + std::string(kProofExtension))).string();
}

std::string ResultCache::checkpoint_path(const std::string& key) const {
  return (fs::path(options_.dir) / "checkpoints" / (key + ".ckpt")).string();
}

std::string ResultCache::result_key(const scenarios::ScenarioParams& params,
                                    bool cross_validate) const {
  // Thread counts are masked: results are bit-identical at every count.
  scenarios::ScenarioParams masked = params;
  masked.verify.threads = 0;
  return key_of(masked, cross_validate ? "\nxval=1" : "\nxval=0");
}

std::string ResultCache::proof_key(const scenarios::ScenarioParams& params) const {
  return key_of(prover_view(params), "\nproof");
}

std::string ResultCache::checkpoint_key(const scenarios::ScenarioParams& params) const {
  // The state budget is masked too: any out-of-budget frontier resumes
  // any strictly larger budget (Checkpoint::can_resume re-checks).
  scenarios::ScenarioParams masked = prover_view(params);
  masked.verify.max_states = 0;
  return key_of(masked, "\nckpt");
}

std::optional<util::Json> ResultCache::load_result(const std::string& key) const {
  return load_wrapped(result_path(key), kResultSchema, kResultSchemaVersion, "result");
}

void ResultCache::store_result(const std::string& key, const std::string& scenario,
                               const util::Json& result_json) const {
  stored(store_wrapped(result_path(key), kResultSchema, kResultSchemaVersion, scenario,
                       "result", result_json));
}

std::optional<campaign::VerificationOutcome> ResultCache::load_proof(
    const std::string& key) const {
  const std::optional<util::Json> body =
      load_wrapped(proof_path(key), kProofSchema, kProofSchemaVersion, "proof");
  if (!body.has_value()) return std::nullopt;
  try {
    return campaign::VerificationOutcome::from_json(*body, "cache-proof");
  } catch (const std::exception&) {
    return std::nullopt;  // a proof of another shape: prove again
  }
}

void ResultCache::store_proof(const std::string& key, const std::string& scenario,
                              const campaign::VerificationOutcome& proof) const {
  stored(store_wrapped(proof_path(key), kProofSchema, kProofSchemaVersion, scenario, "proof",
                       proof.to_json()));
}

std::optional<verify::Checkpoint> ResultCache::load_checkpoint(const std::string& key) const {
  const fs::path path = checkpoint_path(key);
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes.has_value()) return std::nullopt;
  try {
    verify::Checkpoint ck = verify::Checkpoint::deserialize(
        reinterpret_cast<const std::uint8_t*>(bytes->data()), bytes->size());
    touch(path);
    return ck;
  } catch (const util::BinError&) {
    return std::nullopt;  // stale format / foreign byte order: run cold
  }
}

void ResultCache::store_checkpoint(const std::string& key, const verify::Checkpoint& ck) const {
  const std::vector<std::uint8_t> bytes = ck.serialize();
  stored(write_file_atomic(checkpoint_path(key), bytes.data(), bytes.size()) ? bytes.size()
                                                                            : 0);
}

void ResultCache::stored(std::uint64_t bytes) const {
  const std::uint64_t seen = bytes_seen_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  const std::uint64_t stores = stores_since_gc_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (seen > options_.max_bytes || stores >= kRescanEvery) gc();
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.dir = options_.dir;
  s.max_bytes = options_.max_bytes;
  std::error_code ec;
  for (const char* sub : {"results", "checkpoints"}) {
    for (const auto& entry : fs::directory_iterator(fs::path(options_.dir) / sub, ec)) {
      if (!entry.is_regular_file(ec) || is_temp(entry.path())) continue;
      if (sub[0] == 'c')
        ++s.checkpoints;
      else if (entry.path().extension() == kProofExtension)
        ++s.proofs;
      else
        ++s.results;
      s.bytes += entry.file_size(ec);
    }
  }
  return s;
}

std::size_t ResultCache::clear() const {
  std::size_t removed = 0;
  std::error_code ec;
  for (const char* sub : {"results", "checkpoints"}) {
    for (const auto& entry : fs::directory_iterator(fs::path(options_.dir) / sub, ec)) {
      if (!entry.is_regular_file(ec)) continue;
      if (fs::remove(entry.path(), ec)) ++removed;
    }
  }
  return removed;
}

std::size_t ResultCache::gc() const {
  struct Entry {
    fs::path path;
    std::uint64_t size = 0;
    fs::file_time_type mtime;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const char* sub : {"results", "checkpoints"}) {
    for (const auto& it : fs::directory_iterator(fs::path(options_.dir) / sub, ec)) {
      if (!it.is_regular_file(ec) || is_temp(it.path())) continue;
      Entry e;
      e.path = it.path();
      e.size = it.file_size(ec);
      e.mtime = it.last_write_time(ec);
      total += e.size;
      entries.push_back(std::move(e));
    }
  }
  std::size_t evicted = 0;
  if (total > options_.max_bytes) {
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
    for (const Entry& e : entries) {
      if (total <= options_.max_bytes) break;
      if (fs::remove(e.path, ec)) {
        total -= e.size;
        ++evicted;
      }
    }
  }
  bytes_seen_.store(total, std::memory_order_relaxed);
  stores_since_gc_.store(0, std::memory_order_relaxed);
  return evicted;
}

}  // namespace ptecps::api
