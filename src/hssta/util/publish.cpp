#include "hssta/util/publish.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "hssta/util/error.hpp"

namespace hssta::util {

namespace fs = std::filesystem;

void publish_file(const std::string& target,
                  const std::function<void(std::ostream&)>& write) {
  static std::atomic<uint64_t> counter{0};
  const fs::path path(target);
  const fs::path tmp =
      path.parent_path() /
      (".tmp-" + path.filename().string() + "-" + std::to_string(::getpid()) +
       "-" + std::to_string(counter.fetch_add(1)));
  try {
    std::ofstream os(tmp);
    if (!os) throw Error("cannot open for writing: " + tmp.string());
    write(os);
    os.close();
    if (!os) throw Error("write failed: " + tmp.string());
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) throw Error("cannot publish " + target + ": " + ec.message());
  } catch (...) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw;
  }
}

}  // namespace hssta::util
