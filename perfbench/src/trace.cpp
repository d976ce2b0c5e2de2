#include "trace.hpp"

#include <algorithm>

#include "hssta/util/json.hpp"

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<uint64_t> t_stack;
/// Small per-thread index for the trace's "tid" (0 = not yet assigned).
thread_local uint64_t t_thread = 0;

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kSetup:
      return "setup";
    case Phase::kProbe:
      return "probe";
    case Phase::kOp:
      break;
  }
  return "op";
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::set_phase(Phase p) {
  std::lock_guard<std::mutex> lock(mu_);
  phase_ = p;
}

void Tracer::count(const std::string& name, double v) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += v;
}

uint64_t Tracer::begin(const std::string& name, uint64_t parent) {
  const double start = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  if (t_thread == 0) t_thread = ++next_thread_;
  SpanRecord r;
  r.name = name;
  r.id = next_id_++;
  r.parent = parent;
  r.thread = t_thread;
  r.phase = parent != 0 ? spans_[parent - 1].phase : phase_;
  r.start_us = start;
  r.end_us = start;
  spans_.push_back(std::move(r));
  return next_id_ - 1;
}

void Tracer::end(uint64_t id) {
  const double end = now_us();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_us = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const std::vector<SpanRecord> all = spans();
  hssta::util::JsonWriter w(os);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const SpanRecord& s : all) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value(phase_name(s.phase));
    w.key("ph").value("X");
    w.key("ts").value(s.start_us);
    w.key("dur").value(s.end_us - s.start_us);
    w.key("pid").value(1);
    w.key("tid").value(s.thread);
    w.key("args").begin_object();
    w.key("id").value(s.id);
    w.key("parent").value(s.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
}

Span::Span(const std::string& name) : Span(name, current_span()) {}

Span::Span(const std::string& name, uint64_t parent) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  id_ = t.begin(name, parent);
  t_stack.push_back(id_);
}

Span::~Span() {
  if (id_ == 0) return;
  Tracer::instance().end(id_);
  // Spans close in LIFO order on their own thread.
  if (!t_stack.empty() && t_stack.back() == id_) t_stack.pop_back();
}

uint64_t current_span() { return t_stack.empty() ? 0 : t_stack.back(); }

std::map<std::string, SelfTime> self_times(
    const std::vector<SpanRecord>& spans, Phase phase) {
  // Children of each span as [start, end) intervals; children on several
  // threads may overlap, so the covered part is their union.
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans)
    if (s.parent != 0)
      children[s.parent - 1].emplace_back(s.start_us, s.end_us);

  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.phase != phase) continue;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double lo = 0.0, hi = -1.0;
    for (const auto& [a0, b0] : iv) {
      const double a = std::max(a0, s.start_us);
      const double b = std::min(b0, s.end_us);
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    SelfTime& st = out[s.name];
    st.seconds += 1e-6 * std::max(0.0, (s.end_us - s.start_us) - covered);
    ++st.calls;
  }
  return out;
}

}  // namespace perfbench
