// Outside-in tracing for the benchmark: RAII spans around the benchmark's
// own calls into each hssta layer, plus named counters. Spans are kept in
// memory and written out once at the end, as Chrome Trace Event JSON and as
// a per-name self-time summary (a span's duration minus the part of it its
// child spans cover).
//
// Tracing is off unless Tracer::set_enabled(true) was called; a disabled
// Span costs one branch, so the untraced runs that produce the end-to-end
// metrics pay nothing measurable.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Which part of a run a span belongs to. Per-layer metrics are taken from
/// the op phase when the layer is called there, else from set-up, else from
/// the reference probe.
enum class Phase : uint8_t { kSetup, kProbe, kOp };

struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t thread = 0;  ///< small per-thread index
  Phase phase = Phase::kOp;
  double start_us = 0.0;  ///< since the tracer's epoch
  double end_us = 0.0;
};

class Tracer {
 public:
  static Tracer& instance();

  /// Switched only between ops, while no helper thread opens spans.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// The phase new root spans are tagged with (children inherit it).
  void set_phase(Phase p);

  /// Add `v` to a named counter (no-op when tracing is off).
  void count(const std::string& name, double v);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  [[nodiscard]] std::map<std::string, double> counters() const;

  /// Chrome Trace Event Format: one complete ("ph":"X") event per span.
  void write_chrome_trace(std::ostream& os) const;

  // Used by Span, and directly for a span that ends on another thread.
  uint64_t begin(const std::string& name, uint64_t parent);
  void end(uint64_t id);

 private:
  Tracer();
  [[nodiscard]] double now_us() const;

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards everything below
  Phase phase_ = Phase::kSetup;
  uint64_t next_id_ = 1;
  uint64_t next_thread_ = 0;
  std::vector<SpanRecord> spans_;          // index = id - 1
  std::map<std::string, double> counters_;
};

/// RAII span. Nesting follows the calling thread's stack of open spans; a
/// span opened on a helper thread names its parent explicitly.
class Span {
 public:
  explicit Span(const std::string& name);
  Span(const std::string& name, uint64_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// 0 when tracing is off.
  [[nodiscard]] uint64_t id() const { return id_; }

 private:
  uint64_t id_ = 0;
};

/// The innermost open span of the calling thread (0 if none): the parent
/// to hand to spans opened on helper threads.
[[nodiscard]] uint64_t current_span();

/// Self time (seconds) summed per span name over spans of one phase, and
/// the number of such spans.
struct SelfTime {
  double seconds = 0.0;
  uint64_t calls = 0;
};
[[nodiscard]] std::map<std::string, SelfTime> self_times(
    const std::vector<SpanRecord>& spans, Phase phase);

}  // namespace perfbench
