// Host calibration and fingerprint. A fixed CPU-bound loop timed at one and
// two threads before and after each workload series records what the host
// could deliver during the run, so a noisy host shows in the result instead
// of posing as a regression.

#pragma once

#include <string>

#include "hssta/util/json.hpp"

namespace perfbench {

struct Calibration {
  double one_thread_ms = 0.0;   ///< the loop on one thread
  double two_thread_ms = 0.0;   ///< the same loop on each of two threads
  /// Parallel speed-up the host delivered: 2 * one_thread / two_thread.
  [[nodiscard]] double speedup() const;
};

[[nodiscard]] Calibration calibrate();

/// Cores, affinity mask, load average, compiler and build type.
void write_host_fingerprint(hssta::util::JsonWriter& w);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
