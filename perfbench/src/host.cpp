#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <cstdint>
#include <fstream>
#include <thread>
#include <vector>

#include "hssta/util/timer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/// A fixed amount of dependent integer and floating-point work; returns a
/// value so the compiler keeps it.
double spin(uint64_t seed, int iterations) {
  uint64_t x = seed | 1;
  double acc = 0.0;
  for (int i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xffff) * 1e-9;
  }
  return acc;
}

volatile double g_sink = 0.0;

/// Wall time of `threads` threads each running the loop once.
double timed_spin(size_t threads, int iterations) {
  std::vector<double> sink(threads, 0.0);
  hssta::WallTimer t;
  std::vector<std::thread> pool;
  for (size_t k = 1; k < threads; ++k)
    pool.emplace_back(
        [&sink, k, iterations] { sink[k] = spin(k + 1, iterations); });
  sink[0] = spin(1, iterations);
  for (std::thread& th : pool) th.join();
  const double ms = t.millis();
  for (const double v : sink) g_sink = g_sink + v;
  return ms;
}

constexpr int kIterations = 50'000'000;  // about 0.15 s on one core

}  // namespace

double Calibration::speedup() const {
  return two_thread_ms > 0.0 ? 2.0 * one_thread_ms / two_thread_ms : 0.0;
}

Calibration calibrate() {
  Calibration c;
  (void)timed_spin(2, kIterations / 10);  // wake both cores first
  c.one_thread_ms = timed_spin(1, kIterations);
  c.two_thread_ms = timed_spin(2, kIterations);
  return c;
}

void write_host_fingerprint(hssta::util::JsonWriter& w) {
  w.begin_object();
  w.key("hardware_concurrency").value(
      static_cast<uint64_t>(std::thread::hardware_concurrency()));
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string mask;
  size_t allowed = 0;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE && c < 256; ++c)
      if (CPU_ISSET(c, &set)) {
        ++allowed;
        mask += (mask.empty() ? "" : ",") + std::to_string(c);
      }
  }
  w.key("affinity_cpus").value(allowed);
  w.key("affinity_mask").value(mask);
  std::string load;
  std::ifstream("/proc/loadavg") >> load;
  w.key("loadavg_1m").value(load);
  w.key("compiler").value(__VERSION__);
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.end_object();
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
