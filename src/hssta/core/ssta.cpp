#include "hssta/core/ssta.hpp"

#include <algorithm>
#include <cmath>

#include "hssta/timing/statops.hpp"
#include "hssta/util/error.hpp"

namespace hssta::core {

using timing::CanonicalForm;
using timing::PropagationResult;
using timing::TimingGraph;
using timing::VertexId;

namespace {

/// slack(v) = required - (arrival(v) + remaining(v)); the variability
/// coefficients flip sign, the private random magnitude is unchanged.
/// Assembled straight from the two bank rows — the through-path sum is
/// never materialized, so this allocates nothing (the slack entry's buffer
/// is recycled by the caller's assign).
inline void assemble_slack(const TimingGraph& g, VertexId v,
                           const PropagationResult& arrivals,
                           const PropagationResult& remaining,
                           double required_at_outputs, SlackResult& out) {
  if (!g.vertex_alive(v) || !arrivals.valid[v] || !remaining.valid[v]) return;
  const timing::ConstFormView at = arrivals.time.row(v);
  const timing::ConstFormView rt = remaining.time.row(v);
  CanonicalForm& s = out.slack[v];
  s.set_nominal(required_at_outputs - (*at.nominal + *rt.nominal));
  const std::span<double> sc = s.corr();
  for (size_t k = 0; k < g.dim(); ++k) sc[k] = -(at.corr[k] + rt.corr[k]);
  s.set_random(
      std::sqrt(*at.random * *at.random + *rt.random * *rt.random));
  out.valid[v] = 1;
}

}  // namespace

SstaResult run_ssta(const TimingGraph& g, exec::Executor& ex) {
  SstaResult r{PropagationResult{}, CanonicalForm(g.dim())};
  timing::propagate_arrivals_into(g, {}, r.arrivals, ex);
  r.delay = timing::circuit_delay(g, r.arrivals, &r.arrivals.diagnostics);
  return r;
}

SstaResult run_ssta(const TimingGraph& g) {
  exec::SerialExecutor ex;
  return run_ssta(g, ex);
}

SlackResult compute_slack(const TimingGraph& g, double required_at_outputs,
                          exec::Executor& ex) {
  PropagationResult arrivals;
  timing::propagate_arrivals_into(g, {}, arrivals, ex);
  // Backward sweep from all output ports at remaining time 0: remaining[v]
  // is the statistical max delay from v to any output.
  PropagationResult remaining;
  timing::propagate_required_into(g, {}, remaining, ex);

  SlackResult out;
  out.slack.assign(g.num_vertex_slots(), CanonicalForm(g.dim()));
  out.valid.assign(g.num_vertex_slots(), 0);
  // Per-slot writes are disjoint, so the assembly is a flat parallel loop.
  const exec::Executor::Exclusive scope(ex);
  exec::run_maybe_parallel(ex, g.num_vertex_slots(),
                           timing::kMinLevelFanOut,
                           [&](size_t v, exec::Workspace&) {
                             assemble_slack(g, static_cast<VertexId>(v),
                                            arrivals, remaining,
                                            required_at_outputs, out);
                           });
  return out;
}

SlackResult compute_slack(const TimingGraph& g, double required_at_outputs) {
  exec::SerialExecutor ex;
  return compute_slack(g, required_at_outputs, ex);
}

}  // namespace hssta::core
