#include "hssta/cache/model_cache.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "hssta/util/error.hpp"
#include "hssta/util/hash.hpp"
#include "hssta/util/publish.hpp"
#include "hssta/util/strings.hpp"

namespace hssta::cache {

namespace fs = std::filesystem;

namespace {

std::string header_line(uint64_t fingerprint) {
  return "# hstm-cache v1 fingerprint " + util::Fnv1a::hex(fingerprint);
}

/// Remove temp files orphaned by a crashed writer. Publishing is
/// write-temp-then-rename, so a process killed mid-store leaves a
/// `.tmp-*` behind that nothing would ever delete; sweep the ones old
/// enough (one hour) that no live writer can still own them. Best effort:
/// sweep failures are ignored, a later open retries.
void sweep_stale_temp_files(const fs::path& dir) {
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!starts_with(it->path().filename().string(), ".tmp-")) continue;
    const auto mtime = fs::last_write_time(it->path(), ec);
    if (ec) continue;
    if (now - mtime > std::chrono::hours(1)) fs::remove(it->path(), ec);
  }
}

}  // namespace

CacheStats& CacheStats::operator+=(const CacheStats& o) {
  hits += o.hits;
  misses += o.misses;
  stores += o.stores;
  evictions += o.evictions;
  return *this;
}

ModelCache::ModelCache(std::string dir) : dir_(std::move(dir)) {
  HSSTA_REQUIRE(!dir_.empty(), "model cache needs a directory");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_))
    throw Error("cannot create model cache directory '" + dir_ +
                "': " + (ec ? ec.message() : "not a directory"));
  sweep_stale_temp_files(dir_);
}

std::string ModelCache::entry_path(uint64_t fingerprint) const {
  return (fs::path(dir_) / (util::Fnv1a::hex(fingerprint) + ".hstm"))
      .string();
}

std::optional<model::TimingModel> ModelCache::load(uint64_t fingerprint) {
  const std::string path = entry_path(fingerprint);
  std::ifstream is(path);
  if (!is) {
    account({.misses = 1});
    return std::nullopt;
  }
  std::string header;
  std::getline(is, header);
  if (header == header_line(fingerprint)) {
    try {
      model::TimingModel m = model::TimingModel::load(is);
      account({.hits = 1});
      return m;
    } catch (const Error&) {
      // fall through to eviction: truncated write, bit rot, or a file
      // produced by an incompatible serializer version.
    }
  }
  is.close();
  // Best-effort eviction. There is a deliberate benign race here: if a
  // concurrent store() republished a valid entry between our failed read
  // and this remove, we delete that fresh entry — the next lookup simply
  // misses and re-extracts, so results are never affected; closing the
  // window would need fd-conditional deletion POSIX does not offer.
  std::error_code ec;
  fs::remove(path, ec);
  account({.misses = 1, .evictions = 1});
  return std::nullopt;
}

void ModelCache::store(uint64_t fingerprint, const model::TimingModel& m) {
  // publish_file's per-call temp name keeps concurrent writers (threads
  // here, or other processes sharing the directory) apart; the rename is
  // atomic, last writer wins with identical bytes.
  util::publish_file(entry_path(fingerprint), [&](std::ostream& os) {
    os << header_line(fingerprint) << '\n';
    m.save(os);  // flushes and throws on stream failure
  });
  account({.stores = 1});
}

CacheStats ModelCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ModelCache::account(const CacheStats& delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  stats_ += delta;
}

}  // namespace hssta::cache
