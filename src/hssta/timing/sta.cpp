#include "hssta/timing/sta.hpp"

#include <algorithm>
#include <memory>

#include "hssta/timing/propagate.hpp"
#include "hssta/util/error.hpp"

namespace hssta::timing {

namespace {

/// Forward scalar relax: arrival[v] = max over fanin of arrival[from] +
/// delay.
inline void relax_scalar_fanin(const TimingGraph& g, VertexId v,
                               std::span<const double> edge_delays,
                               ScalarArrivals& r) {
  bool has = r.valid[v] != 0;
  double best = r.time[v];
  for (EdgeId e : g.vertex(v).fanin) {
    const TimingEdge& te = g.edge(e);
    if (!r.valid[te.from]) continue;
    const double cand = r.time[te.from] + edge_delays[e];
    best = has ? std::max(best, cand) : cand;
    has = true;
  }
  r.time[v] = best;
  r.valid[v] = has ? 1 : 0;
}

/// Backward scalar relax: required[v] = min over fanout of required[to] -
/// delay, clamped at the output deadline when v is itself an output port.
inline void relax_scalar_fanout(const TimingGraph& g, VertexId v,
                                std::span<const double> edge_delays,
                                ScalarArrivals& r) {
  bool has = r.valid[v] != 0;  // output ports are seeded at the deadline
  double best = r.time[v];
  for (EdgeId e : g.vertex(v).fanout) {
    const TimingEdge& te = g.edge(e);
    if (!r.valid[te.to]) continue;
    const double cand = r.time[te.to] - edge_delays[e];
    best = has ? std::min(best, cand) : cand;
    has = true;
  }
  r.time[v] = best;
  r.valid[v] = has ? 1 : 0;
}

void reset_scalar(const TimingGraph& g, ScalarArrivals& r) {
  r.time.assign(g.num_vertex_slots(), 0.0);
  r.valid.assign(g.num_vertex_slots(), 0);
}

void seed_sources(const TimingGraph& g, std::span<const VertexId> sources,
                  ScalarArrivals& r) {
  if (sources.empty()) {
    for (VertexId v : g.inputs()) r.valid[v] = 1;
  } else {
    for (VertexId v : sources) {
      HSSTA_REQUIRE(g.vertex_alive(v), "longest-path source is dead");
      r.valid[v] = 1;
    }
  }
}

void seed_outputs(const TimingGraph& g, double required_at_outputs,
                  ScalarArrivals& r) {
  for (VertexId v : g.outputs()) {
    r.time[v] = required_at_outputs;
    r.valid[v] = 1;
  }
}

}  // namespace

double ScalarArrivals::max_over_outputs(const TimingGraph& g) const {
  bool has = false;
  double best = 0.0;
  for (VertexId v : g.outputs()) {
    if (!valid[v]) continue;
    best = has ? std::max(best, time[v]) : time[v];
    has = true;
  }
  HSSTA_REQUIRE(has, "no output port was reached");
  return best;
}

ScalarArrivals longest_path(const TimingGraph& g,
                            std::span<const double> edge_delays,
                            std::span<const VertexId> sources,
                            exec::Executor& ex) {
  HSSTA_REQUIRE(edge_delays.size() == g.num_edge_slots(),
                "need one delay per edge slot");
  const std::shared_ptr<const LevelStructure> ls = g.levels();
  ScalarArrivals r;
  reset_scalar(g, r);
  seed_sources(g, sources, r);
  const exec::Executor::Exclusive scope(ex);
  for_each_level(*ls, ex, /*front_to_back=*/true,
                 [&](VertexId v) { return 1 + g.vertex(v).fanin.size(); },
                 [&](exec::Workspace&) {
                   return [&](VertexId v) {
                     relax_scalar_fanin(g, v, edge_delays, r);
                   };
                 });
  return r;
}

ScalarArrivals longest_path(const TimingGraph& g,
                            std::span<const double> edge_delays,
                            std::span<const VertexId> sources) {
  exec::SerialExecutor ex;
  return longest_path(g, edge_delays, sources, ex);
}

ScalarArrivals required_times(const TimingGraph& g,
                              std::span<const double> edge_delays,
                              double required_at_outputs, exec::Executor& ex) {
  HSSTA_REQUIRE(edge_delays.size() == g.num_edge_slots(),
                "need one delay per edge slot");
  const std::shared_ptr<const LevelStructure> ls = g.levels();
  ScalarArrivals r;
  reset_scalar(g, r);
  seed_outputs(g, required_at_outputs, r);
  const exec::Executor::Exclusive scope(ex);
  for_each_level(*ls, ex, /*front_to_back=*/false,
                 [&](VertexId v) { return 1 + g.vertex(v).fanout.size(); },
                 [&](exec::Workspace&) {
                   return [&](VertexId v) {
                     relax_scalar_fanout(g, v, edge_delays, r);
                   };
                 });
  return r;
}

ScalarArrivals required_times(const TimingGraph& g,
                              std::span<const double> edge_delays,
                              double required_at_outputs) {
  exec::SerialExecutor ex;
  return required_times(g, edge_delays, required_at_outputs, ex);
}

std::vector<double> corner_edge_delays(const TimingGraph& g, double k_sigma) {
  std::vector<double> d(g.num_edge_slots(), 0.0);
  for (EdgeId e = 0; e < g.num_edge_slots(); ++e) {
    if (!g.edge_alive(e)) continue;
    const CanonicalForm& c = g.edge(e).delay;
    d[e] = c.nominal() + k_sigma * c.sigma();
  }
  return d;
}

double corner_delay(const TimingGraph& g, double k_sigma) {
  const auto delays = corner_edge_delays(g, k_sigma);
  return longest_path(g, delays).max_over_outputs(g);
}

}  // namespace hssta::timing
