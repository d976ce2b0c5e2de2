// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --workdir DIR --worker-cmd HSSTA_CLI --report FILE
//             [--chrome-trace FILE]
//
// One run: host calibration, set-up, the Fig. 7 accuracy reference once,
// then closed-loop ops until they have taken S seconds (at least kMinOps),
// with set-up repeated halfway and after the last op (median of the three
// reported), then calibration again. Every op
// is checked against its set-up reference; a failed op is counted and left
// out of the timing series. The last stdout line is the result object:
// end-to-end metrics when untraced, per-layer metrics when traced. The full
// report (host fingerprint, calibration, every op time, the per-layer
// self-time summary) goes to --report.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hssta/util/argparse.hpp"
#include "hssta/util/hash.hpp"
#include "hssta/util/json.hpp"
#include "hssta/util/timer.hpp"
#include "host.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

constexpr size_t kSetupReps = 3;
constexpr size_t kMinOps = 3;
/// Threads of the accuracy reference's Monte Carlo, on every workload.
constexpr size_t kReferenceThreads = 2;

struct Metric {
  double value = 0.0;
  std::string unit;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

void write_calibration(hssta::util::JsonWriter& w, const Calibration& c) {
  w.begin_object();
  w.key("one_thread_ms").value(c.one_thread_ms);
  w.key("two_thread_ms").value(c.two_thread_ms);
  w.key("speedup_2t").value(c.speedup());
  w.end_object();
}

/// Per-layer metrics from the traced run. A time is the layer's self time
/// per op when the ops call it (its share of op_ms), else its mean self
/// time per call in set-up, else per call in the probes; a layer the
/// workload never calls reads 0.
std::map<std::string, Metric> layer_metrics(
    const std::vector<SpanRecord>& spans,
    const std::map<std::string, double>& counters, const Workload& wl,
    const PaperReference& ref, size_t traced_ops, double traced_op_ms,
    double untraced_op_ms) {
  static const char* kTimes[] = {
      "netlist.parse_s",     "placement.place_s",  "variation.space_s",
      "timing.build_s",      "timing.forward_s",   "timing.required_s",
      "core.ssta_s",         "core.slack_s",       "core.criticality_s",
      "core.paths_s",        "model.extract_s",    "model.save_s",
      "model.load_s",        "hier.design_grid_s", "hier.design_space_s",
      "hier.stitch_s",       "hier.analyze_s",     "mc.flat_mc_s",
      "incr.build_s",        "incr.cone_s.sigma",  "incr.cone_s.move",
      "incr.cone_s.swap",    "incr.cone_s.rewire", "campaign.run_s",
      "campaign.serial_s",   "campaign.merge_s"};
  const auto op = self_times(spans, Phase::kOp);
  const auto setup = self_times(spans, Phase::kSetup);
  const auto probe = self_times(spans, Phase::kProbe);
  std::map<std::string, Metric> out;
  for (const char* name : kTimes) {
    double v = 0.0;
    if (const auto it = op.find(name); it != op.end())
      v = it->second.seconds /
          static_cast<double>(std::max<size_t>(1, traced_ops));
    else if (const auto is = setup.find(name); is != setup.end())
      v = is->second.seconds / static_cast<double>(is->second.calls);
    else if (const auto ip = probe.find(name); ip != probe.end())
      v = ip->second.seconds / static_cast<double>(ip->second.calls);
    out[name] = {v, "s"};
  }
  for (const char* verb : {"analyze", "sweep"}) {
    const std::string name = std::string("serve.req_ms.") + verb;
    const auto it = op.find(name);
    out[name] = {it == op.end() ? 0.0
                                : 1e3 * it->second.seconds /
                                      static_cast<double>(it->second.calls),
                 "ms"};
  }
  auto ratio = [&](const char* num, const char* den) {
    const auto n = counters.find(num);
    const auto d = counters.find(den);
    return n == counters.end() || d == counters.end() || d->second == 0.0
               ? 0.0
               : n->second / d->second;
  };
  auto total = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  out["core.paths_returned"] = {ratio("core.paths_returned", "core.paths_asked"),
                                "ratio"};
  out["model.edge_ratio"] = {ratio("model.model_edges", "model.original_edges"),
                             "ratio"};
  out["model.hstm_bytes"] = {ratio("model.hstm_bytes", "model.saves"),
                             "bytes"};
  out["hier.grids"] = {ratio("hier.grids", "hier.grid_calls"), "count"};
  out["incr.recompute_ratio"] = {
      ratio("incr.vertices_recomputed", "incr.vertices_live"), "ratio"};
  out["campaign.redispatched"] = {total("campaign.redispatched"), "count"};
  out["mc.samples_per_s"] = {
      static_cast<double>(ref.mc_samples) / ref.mc_seconds, "1/s"};
  out["serve.batch_fill"] = {0.0, "ratio"};
  out["serve.errors"] = {0.0, "count"};
  out["campaign.speedup_vs_serial"] = {0.0, "ratio"};
  std::map<std::string, double> own;
  wl.layer_values(own);
  for (const auto& [k, v] : own) out[k].value = v;
  out["trace.op_ms"] = {traced_op_ms, "ms"};
  out["trace.untraced_op_ms"] = {untraced_op_ms, "ms"};
  out["trace.overhead_pct"] = {
      untraced_op_ms > 0 ? 100.0 * (traced_op_ms / untraced_op_ms - 1.0) : 0.0,
      "%"};
  return out;
}

void write_metrics(hssta::util::JsonWriter& w,
                   const std::map<std::string, Metric>& metrics) {
  w.begin_object();
  for (const auto& [name, m] : metrics) {
    w.key(name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir, worker_cmd, report, chrome_trace;
  uint64_t seed = 1;
  uint64_t seconds = 10;
  uint64_t trace = 0;
  hssta::util::ArgParser p("perfbench", "hssta repository benchmark");
  p.option("--workload", &workload, "NAME", "workload to run");
  p.option("--seed", &seed, "N", "input seed");
  p.option("--seconds", &seconds, "S", "measuring time");
  p.option("--trace", &trace, "0|1", "1 = traced run (per-layer metrics)");
  p.option("--workdir", &workdir, "DIR", "scratch directory");
  p.option("--worker-cmd", &worker_cmd, "FILE", "hssta_cli for workers");
  p.option("--report", &report, "FILE", "full JSON report");
  p.option("--chrome-trace", &chrome_trace, "FILE",
           "traced runs: Chrome Trace Event JSON");
  try {
    if (!p.parse(argc, argv)) return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (trace > 1 || workdir.empty() || report.empty()) {
    std::fprintf(stderr, "perfbench: --trace 0|1, --workdir and --report are "
                         "required\n");
    return 2;
  }
  const RunParams params{seed, workdir, worker_cmd};
  std::unique_ptr<Workload> wl = make_workload(workload, params);
  if (!wl) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  const bool traced = trace == 1;
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(traced);

  try {
    const Calibration before = calibrate();

    // Set-up runs kSetupReps times: before the first op, halfway through
    // the measuring window and after the last op. The host's speed drifts
    // over seconds, so reps spread over the run sample it at three moments
    // where back-to-back reps sampled one.
    // Every set-up must reproduce the first one's digest, since the ops
    // after it are checked against its reference.
    std::vector<double> setup_s;
    uint64_t setup_digest = 0;
    auto set_up = [&] {
      tracer.set_enabled(traced);
      tracer.set_phase(Phase::kSetup);
      hssta::WallTimer t;
      {
        const Span s("setup");
        wl->setup();
      }
      setup_s.push_back(t.seconds());
      tracer.set_phase(Phase::kOp);
      if (setup_s.size() > 1 && wl->digest() != setup_digest)
        throw std::runtime_error("set-up " + std::to_string(setup_s.size()) +
                                 " gave another digest than the first");
      setup_digest = wl->digest();
    };
    set_up();

    tracer.set_phase(Phase::kProbe);
    PaperReference ref;
    {
      const Span s("probe.paper_reference");
      ref = paper_reference(kReferenceThreads);
    }
    const double setup_rss_mb = peak_rss_mb();

    // Closed loop over `seconds` of op time (set-up excluded). In a traced
    // run every other op runs with tracing off; the two medians give the
    // tracing overhead.
    tracer.set_phase(Phase::kOp);
    std::vector<double> op_ms, traced_ms, untraced_ms, request_ms;
    size_t attempted = 0, failed = 0, traced_ops = 0;
    std::vector<std::string> errors;
    double busy_s = 0.0;
    while (busy_s < static_cast<double>(seconds) || attempted < kMinOps) {
      if (setup_s.size() < kSetupReps - 1 &&
          busy_s >= static_cast<double>(seconds * setup_s.size()) /
                        static_cast<double>(kSetupReps - 1))
        set_up();
      const bool trace_this = traced && attempted % 2 == 0;
      tracer.set_enabled(trace_this);
      ++attempted;
      hssta::WallTimer t;
      std::vector<double> lat;
      bool ok = true;
      try {
        const Span s("op");
        lat = wl->op();
      } catch (const std::exception& e) {
        ok = false;
        ++failed;
        if (errors.size() < 8) errors.push_back(e.what());
        std::fprintf(stderr, "perfbench: op %zu failed: %s\n", attempted,
                     e.what());
      }
      const double ms = t.millis();
      busy_s += ms / 1e3;
      if (!ok) continue;
      op_ms.push_back(ms);
      (trace_this ? traced_ms : untraced_ms).push_back(ms);
      traced_ops += trace_this ? 1 : 0;
      if (lat.empty()) lat.push_back(ms);
      request_ms.insert(request_ms.end(), lat.begin(), lat.end());
    }
    while (setup_s.size() < kSetupReps) set_up();

    if (traced) {
      tracer.set_phase(Phase::kProbe);
      const Span s("probe.attribution");
      wl->attribution_probe();
    }
    const Calibration after = calibrate();

    // The workload's own models, or the reference's c6288 when the
    // workload extracts none.
    const EdgeTally own = wl->edges();
    const EdgeTally edges = own.original > 0 ? own : ref.edges;
    const double edge_ratio = static_cast<double>(edges.model) /
                              static_cast<double>(edges.original);
    std::map<std::string, Metric> metrics;
    if (traced) {
      metrics = layer_metrics(tracer.spans(), tracer.counters(), *wl, ref,
                              traced_ops, median(traced_ms),
                              median(untraced_ms));
    } else {
      metrics["setup_s"] = {median(setup_s), "s"};
      metrics["op_ms"] = {median(op_ms), "ms"};
      metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
      metrics["req_p50_ms"] = {percentile(request_ms, 0.50), "ms"};
      metrics["req_p99_ms"] = {percentile(request_ms, 0.99), "ms"};
      metrics["req_per_s"] = {static_cast<double>(request_ms.size()) / busy_s,
                              "1/s"};
      metrics["model_edge_ratio"] = {edge_ratio, "ratio"};
      metrics["sigma_err_pct"] = {ref.sigma_err_pct, "%"};
      metrics["ks_vs_mc"] = {ref.ks_vs_mc, "ratio"};
    }

    {
      std::ofstream os(report);
      hssta::util::JsonWriter w(os);
      w.begin_object();
      w.key("workload").value(workload);
      w.key("seed").value(seed);
      w.key("seconds").value(seconds);
      w.key("traced").value(traced);
      w.key("threads").value(wl->threads());
      w.key("host");
      write_host_fingerprint(w);
      w.key("calibration_before");
      write_calibration(w, before);
      w.key("calibration_after");
      write_calibration(w, after);
      w.key("setup_s").begin_array();
      for (const double v : setup_s) w.value(v);
      w.end_array();
      w.key("op_ms").begin_array();
      for (const double v : op_ms) w.value(v);
      w.end_array();
      w.key("peak_rss_mb_before_ops").value(setup_rss_mb);
      w.key("requests").value(request_ms.size());
      w.key("attempted").value(attempted);
      w.key("failed").value(failed);
      w.key("errors").begin_array();
      for (const std::string& e : errors) w.value(e);
      w.end_array();
      w.key("digest").value(hssta::util::Fnv1a::hex(wl->digest()));
      w.key("accuracy").begin_object();
      w.key("model_edge_ratio").value(edge_ratio);
      w.key("sigma_err_pct").value(ref.sigma_err_pct);
      w.key("ks_vs_mc").value(ref.ks_vs_mc);
      w.end_object();
      w.key("reference_mc").begin_object();
      w.key("samples").value(ref.mc_samples);
      w.key("seconds").value(ref.mc_seconds);
      w.end_object();
      w.key("metrics");
      write_metrics(w, metrics);
      if (traced) {
        const std::vector<SpanRecord> spans = tracer.spans();
        w.key("self_time_s").begin_object();
        for (const auto& [phase, label] :
             {std::pair{Phase::kSetup, "setup"}, std::pair{Phase::kProbe, "probe"},
              std::pair{Phase::kOp, "op"}}) {
          w.key(label).begin_object();
          for (const auto& [name, st] : self_times(spans, phase)) {
            w.key(name).begin_object();
            w.key("seconds").value(st.seconds);
            w.key("calls").value(st.calls);
            w.end_object();
          }
          w.end_object();
        }
        w.end_object();
      }
      w.end_object();
      os << "\n";
    }
    if (traced && !chrome_trace.empty()) {
      std::ofstream os(chrome_trace);
      tracer.write_chrome_trace(os);
    }

    std::printf("perfbench %s seed=%llu: %zu ops (%zu failed), %zu requests, "
                "set-up median %.3f s, calibration 2t speed-up %.2f -> %.2f\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                attempted, failed, request_ms.size(), median(setup_s),
                before.speedup(), after.speedup());
    std::ostringstream line;
    hssta::util::JsonWriter w(line);
    w.begin_object();
    w.key("correct").value(failed == 0);
    w.key("attempted").value(attempted);
    w.key("failed").value(failed);
    w.key("metrics");
    write_metrics(w, metrics);
    w.end_object();
    std::printf("%s\n", line.str().c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
