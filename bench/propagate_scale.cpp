// Propagation-at-scale bench: wall time of the level-synchronous forward
// (arrivals) and backward (required-time) sweeps on (a) the synthetic
// c7552 module and (b) a generated stacked-DAG design large enough that
// per-level parallel chunks dominate scheduling overhead (default 500k
// gates; --gates scales it, --quick caps it for smoke runs). Both graphs
// are wide (mean level width >= 16), so every multi-thread sweep takes
// the level schedule.
//
// Every timed configuration is also a correctness gate, asserted in the
// bench itself before any number is written:
//  * the flat (FormBank) serial sweep must be BIT-identical to the legacy
//    per-vertex engine (timing::legacy_propagate_*), and
//  * every multi-thread level-parallel sweep must be BIT-identical to the
//    flat serial sweep.
// A mismatch prints the offending vertex and exits non-zero.
//
// The 4-thread speedup gate (--min-speedup, default 1.5; 0 disables) is
// only enforced when the host actually has >= 4 hardware threads — on
// smaller hosts the run still writes timings and identity-checks, and the
// JSON records host_cores so downstream consumers can tell the difference.
// Output: bench_out/BENCH_propagate.json.

#include <cstdio>
#include <fstream>
#include <thread>

#include "common.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/library/cell_library.hpp"
#include "hssta/netlist/generate.hpp"
#include "hssta/timing/builder.hpp"
#include "hssta/timing/propagate.hpp"
#include "hssta/util/timer.hpp"

namespace {

using namespace hssta;

bool forms_match(timing::ConstFormView a, timing::ConstFormView b) {
  return timing::form_equal(a, b);
}

/// Flat-vs-legacy identity gate.
bool check_vs_legacy(const timing::LegacyPropagation& ref,
                     const timing::PropagationResult& flat,
                     const char* what) {
  if (ref.valid != flat.valid || ref.time.size() != flat.time.rows()) {
    std::fprintf(stderr, "FAIL: %s: valid-set mismatch vs legacy\n", what);
    return false;
  }
  for (size_t v = 0; v < ref.time.size(); ++v) {
    if (ref.valid[v] && !forms_match(ref.time[v].view(), flat.time.row(v))) {
      std::fprintf(stderr, "FAIL: %s: vertex %zu differs from legacy\n",
                   what, v);
      return false;
    }
  }
  return true;
}

/// Serial-vs-parallel identity gate.
bool check_vs_serial(const timing::PropagationResult& ref,
                     const timing::PropagationResult& par, const char* what) {
  if (ref.valid != par.valid || ref.time.rows() != par.time.rows()) {
    std::fprintf(stderr, "FAIL: %s: valid-set mismatch vs serial\n", what);
    return false;
  }
  for (size_t v = 0; v < ref.time.rows(); ++v) {
    if (ref.valid[v] && !forms_match(ref.time.row(v), par.time.row(v))) {
      std::fprintf(stderr, "FAIL: %s: vertex %zu differs from serial\n",
                   what, v);
      return false;
    }
  }
  return true;
}

template <typename Fn>
double best_of(size_t reps, Fn&& fn) {
  double best = 0.0;
  for (size_t rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    fn();
    const double t = timer.seconds();
    if (rep == 0 || t < best) best = t;
  }
  return best;
}

struct JsonWriter {
  std::ofstream os;
  bool first = true;
  explicit JsonWriter(const std::string& path) : os(path) { os << "[\n"; }
  void record(const std::string& fields) {
    os << (first ? "" : ",\n") << "  {" << fields << "}";
    first = false;
  }
  ~JsonWriter() { os << "\n]\n"; }
};

struct SweepFns {
  const char* name;
  void (*serial)(const timing::TimingGraph&, timing::PropagationResult&);
  void (*parallel)(const timing::TimingGraph&, timing::PropagationResult&,
                   exec::Executor&);
  timing::LegacyPropagation (*legacy)(const timing::TimingGraph&);
};

const SweepFns kSweeps[] = {
    {"propagate_arrivals",
     [](const timing::TimingGraph& g, timing::PropagationResult& r) {
       timing::propagate_arrivals_into(g, {}, r);
     },
     [](const timing::TimingGraph& g, timing::PropagationResult& r,
        exec::Executor& ex) {
       timing::propagate_arrivals_into(g, {}, r, ex);
     },
     [](const timing::TimingGraph& g) {
       return timing::legacy_propagate_arrivals(g);
     }},
    {"propagate_required",
     [](const timing::TimingGraph& g, timing::PropagationResult& r) {
       timing::propagate_required_into(g, {}, r);
     },
     [](const timing::TimingGraph& g, timing::PropagationResult& r,
        exec::Executor& ex) {
       timing::propagate_required_into(g, {}, r, ex);
     },
     [](const timing::TimingGraph& g) {
       return timing::legacy_propagate_required(g, {});
     }},
};

/// Runs both sweeps on one graph: legacy serial, flat serial, flat
/// parallel at 2/4/8 threads, with identity gates between each pair.
/// Returns the flat 4-thread speedup of the forward sweep (0 when the
/// identity gates failed; caller exits non-zero).
double bench_graph(JsonWriter& json, const std::string& section,
                   const timing::TimingGraph& g, size_t reps, bool& ok) {
  (void)g.levels();  // levelization is shared; measure sweeps only
  double fwd_speedup4 = 0.0;

  for (const SweepFns& sweep : kSweeps) {
    char buf[256];

    // Legacy per-vertex engine, serial (the pre-refactor baseline).
    timing::LegacyPropagation legacy;
    const double t_legacy =
        best_of(reps, [&] { legacy = sweep.legacy(g); });

    // Flat bank engine, serial.
    timing::PropagationResult serial;
    const double t_serial = best_of(reps, [&] { sweep.serial(g, serial); });
    ok = check_vs_legacy(legacy, serial, sweep.name) && ok;

    std::snprintf(buf, sizeof(buf),
                  "\"section\": \"%s\", \"op\": \"%s\", \"engine\": "
                  "\"legacy\", \"threads\": 1, \"seconds\": %g",
                  section.c_str(), sweep.name, t_legacy);
    json.record(buf);
    std::snprintf(buf, sizeof(buf),
                  "\"section\": \"%s\", \"op\": \"%s\", \"engine\": "
                  "\"flat\", \"threads\": 1, \"seconds\": %g, "
                  "\"speedup_vs_legacy\": %g",
                  section.c_str(), sweep.name, t_serial,
                  t_serial > 0.0 ? t_legacy / t_serial : 0.0);
    json.record(buf);

    for (const size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
      const auto ex = exec::make_executor(threads);
      timing::PropagationResult par;
      const double t_par =
          best_of(reps, [&] { sweep.parallel(g, par, *ex); });
      ok = check_vs_serial(serial, par, sweep.name) && ok;
      const double speedup = t_par > 0.0 ? t_serial / t_par : 0.0;
      if (threads == 4 && &sweep == &kSweeps[0]) fwd_speedup4 = speedup;
      std::snprintf(buf, sizeof(buf),
                    "\"section\": \"%s\", \"op\": \"%s\", \"engine\": "
                    "\"flat\", \"threads\": %zu, \"seconds\": %g, "
                    "\"speedup_vs_serial\": %g, \"bit_identical\": %s",
                    section.c_str(), sweep.name, threads, t_par, speedup,
                    ok ? "true" : "false");
      json.record(buf);
    }
  }
  return fwd_speedup4;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t gates = 500000;
  uint64_t dim = 6;
  uint64_t reps = 5;
  uint64_t seed = 2009;
  double min_speedup = 1.5;
  bool quick = false;
  util::ArgParser p("propagate_scale",
                    "level-sweep scaling bench with bit-identity gates");
  p.option("--gates", &gates, "N", "generated design size in gates");
  p.option("--dim", &dim, "D", "canonical dimension of generated delays");
  p.option("--reps", &reps, "N", "repetitions per timing (best-of)");
  p.option("--seed", &seed, "S", "generator seed");
  p.option("--min-speedup", &min_speedup, "X",
           "fail when 4-thread speedup on the generated design is below X "
           "(enforced only on hosts with >= 4 hardware threads; 0 disables)");
  p.flag("--quick", &quick, "cap the generated design for a fast smoke run");
  if (!p.parse(argc, argv)) return 0;
  if (quick) {
    gates = std::min<uint64_t>(gates, 50000);
    reps = std::min<uint64_t>(reps, 2);
  }

  const unsigned host_cores = std::thread::hardware_concurrency();
  bool ok = true;
  JsonWriter json(bench::out_path("BENCH_propagate.json"));

  // Section 1: the synthetic c7552 module (full physical pipeline).
  {
    const flow::Module module = bench::module_for_iscas("c7552");
    (void)bench_graph(json, "c7552", module.graph(), reps, ok);
  }

  // Section 2: generated stacked-DAG design at --gates scale, built via
  // the O(V+E) synthetic-delay path (no placement / PCA).
  double fwd_speedup4 = 0.0;
  {
    netlist::StackedDagSpec spec;
    spec.tile.num_inputs = 64;
    spec.tile.num_outputs = 64;
    spec.tile.num_gates = 4000;
    spec.tile.num_pins = 7200;
    spec.tile.depth = 25;
    spec.num_tiles =
        std::max<uint64_t>(1, gates / spec.tile.num_gates);
    spec.seed = seed;
    netlist::RandomDagStats stats;
    const netlist::Netlist nl = netlist::make_stacked_dag(
        spec, library::default_90nm(), &stats);
    const timing::BuiltGraph built =
        timing::synthetic_delay_graph(nl, dim, seed);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"meta\": \"generated\", \"gates\": %zu, \"pins\": %zu, "
                  "\"dim\": %llu, \"host_cores\": %u, \"quick\": %s",
                  stats.gates, stats.pins,
                  static_cast<unsigned long long>(dim), host_cores,
                  quick ? "true" : "false");
    json.record(buf);
    fwd_speedup4 = bench_graph(json, "generated", built.graph, reps, ok);
  }

  std::printf("propagate sweep JSON: %s\n",
              bench::out_path("BENCH_propagate.json").c_str());
  if (!ok) {
    std::fprintf(stderr, "FAIL: bit-identity gate violated\n");
    return 1;
  }
  if (min_speedup > 0.0 && host_cores >= 4) {
    std::printf("generated 4-thread forward speedup: %.2fx (gate: %.2fx)\n",
                fwd_speedup4, min_speedup);
    if (fwd_speedup4 < min_speedup) {
      std::fprintf(stderr,
                   "FAIL: 4-thread speedup %.2fx below gate %.2fx\n",
                   fwd_speedup4, min_speedup);
      return 1;
    }
  } else if (min_speedup > 0.0) {
    std::printf(
        "host has %u hardware threads; skipping the %.2fx speedup gate\n",
        host_cores, min_speedup);
  }
  return 0;
}
