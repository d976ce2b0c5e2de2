#include "hssta/timing/propagate.hpp"

#include <algorithm>
#include <cmath>

#include "hssta/stats/normal.hpp"
#include "hssta/util/error.hpp"

namespace hssta::timing {

namespace {

/// Per-worker scratch of the sweeps: the fold candidate plus this worker's
/// share of the diagnostics counters (merged by integer sum after the
/// sweep, so totals are independent of the thread count).
struct SweepScratch {
  CanonicalForm candidate;
  MaxDiagnostics diag;
};

/// Fold the fanin of `v` into row v of r.time / r.valid[v], entirely on
/// bank rows (see fold_fanin). No allocation: `candidate` is caller-owned
/// reusable scratch.
inline void relax_fanin(const TimingGraph& g, VertexId v, PropagationResult& r,
                        FormView candidate, MaxDiagnostics& diag) {
  const bool reached = fold_fanin(g, v, r, r.time.row(v), candidate,
                                  r.valid[v] != 0,  // sources carry arrival 0
                                  &diag);
  r.valid[v] = reached ? 1 : 0;
}

/// Backward twin: fold the fanout of `v` (remaining delay to the seeded
/// sinks) into row v of r.time / r.valid[v].
inline void relax_fanout(const TimingGraph& g, VertexId v,
                         PropagationResult& r, FormView candidate,
                         MaxDiagnostics& diag) {
  bool has = r.valid[v] != 0;  // sinks carry remaining delay 0
  const FormView dst = r.time.row(v);
  for (EdgeId e : g.vertex(v).fanout) {
    const TimingEdge& te = g.edge(e);
    if (!r.valid[te.to]) continue;
    add_into(candidate, r.time.row(te.to), te.delay.view());
    if (!has) {
      form_copy(dst, candidate);
      has = true;
    } else {
      statistical_max_into(dst, dst, candidate, &diag);
    }
  }
  r.valid[v] = has ? 1 : 0;
}

/// Shared initialization: recycle r's buffers, seed `seeds` (or `ports`
/// when the span is empty) at time 0. FormBank::reset zero-fills in place,
/// so a reused result does not reallocate.
void reset_result(const TimingGraph& g, PropagationResult& r,
                  std::span<const VertexId> seeds,
                  const std::vector<VertexId>& ports, const char* what) {
  r.diagnostics = MaxDiagnostics{};
  r.time.reset(g.num_vertex_slots(), g.dim());
  r.valid.assign(g.num_vertex_slots(), 0);
  if (seeds.empty()) {
    for (VertexId v : ports) r.valid[v] = 1;
  } else {
    for (VertexId v : seeds) {
      HSSTA_REQUIRE(g.vertex_alive(v), what);
      r.valid[v] = 1;
    }
  }
}

/// The body of the forward and backward canonical sweeps: walk g.levels()
/// through for_each_level (chunked by canonical-op cost: folded-edge count
/// times the coefficient dimension), then merge the per-worker diagnostics.
template <typename Relax>
void sweep(const TimingGraph& g, PropagationResult& r, exec::Executor& ex,
           bool front_to_back, Relax&& relax) {
  const std::shared_ptr<const LevelStructure> ls = g.levels();
  const exec::Executor::Exclusive scope(ex);
  for (size_t w = 0; w < ex.num_workspaces(); ++w) {
    SweepScratch& sc = ex.workspace(w).get<SweepScratch>();
    sc.diag = MaxDiagnostics{};
    if (sc.candidate.dim() != g.dim()) sc.candidate = CanonicalForm(g.dim());
  }
  const auto cost = [&](VertexId v) {
    const TimingVertex& tv = g.vertex(v);
    return 1 + (front_to_back ? tv.fanin.size() : tv.fanout.size()) * g.dim();
  };
  for_each_level(*ls, ex, front_to_back, cost, [&](exec::Workspace& ws) {
    SweepScratch& sc = ws.get<SweepScratch>();
    return [&relax, &sc](VertexId v) {
      relax(v, sc.candidate.view(), sc.diag);
    };
  });
  for (size_t w = 0; w < ex.num_workspaces(); ++w)
    r.diagnostics += ex.workspace(w).get<SweepScratch>().diag;
}

}  // namespace

bool fold_fanin(const TimingGraph& g, VertexId v,
                const PropagationResult& arrivals, FormView dst,
                FormView candidate, bool reached, MaxDiagnostics* diag) {
  for (EdgeId e : g.vertex(v).fanin) {
    const TimingEdge& te = g.edge(e);
    if (!arrivals.valid[te.from]) continue;
    add_into(candidate, arrivals.time.row(te.from), te.delay.view());
    if (!reached) {
      form_copy(dst, candidate);
      reached = true;
    } else {
      statistical_max_into(dst, dst, candidate, diag);
    }
  }
  return reached;
}

CanonicalForm PropagationResult::at(VertexId v) const {
  HSSTA_REQUIRE(v < time.rows() && valid[v], "time of unreached vertex");
  return time.form(v);
}

PropagationResult propagate_arrivals(const TimingGraph& g,
                                     std::span<const VertexId> sources) {
  PropagationResult r;
  propagate_arrivals_into(g, sources, r);
  return r;
}

void propagate_arrivals_into(const TimingGraph& g,
                             std::span<const VertexId> sources,
                             PropagationResult& r, exec::Executor& ex) {
  reset_result(g, r, sources, g.inputs(), "propagation source is dead");
  sweep(g, r, ex, /*front_to_back=*/true,
        [&](VertexId v, FormView candidate, MaxDiagnostics& diag) {
          relax_fanin(g, v, r, candidate, diag);
        });
}

void propagate_arrivals_into(const TimingGraph& g,
                             std::span<const VertexId> sources,
                             PropagationResult& r) {
  exec::SerialExecutor ex;
  propagate_arrivals_into(g, sources, r, ex);
}

void propagate_required_into(const TimingGraph& g,
                             std::span<const VertexId> sinks,
                             PropagationResult& r, exec::Executor& ex) {
  reset_result(g, r, sinks, g.outputs(), "propagation sink is dead");
  sweep(g, r, ex, /*front_to_back=*/false,
        [&](VertexId v, FormView candidate, MaxDiagnostics& diag) {
          relax_fanout(g, v, r, candidate, diag);
        });
}

void propagate_required_into(const TimingGraph& g,
                             std::span<const VertexId> sinks,
                             PropagationResult& r) {
  exec::SerialExecutor ex;
  propagate_required_into(g, sinks, r, ex);
}

PropagationResult propagate_to_sink(const TimingGraph& g, VertexId sink) {
  const VertexId sinks[] = {sink};
  PropagationResult r;
  propagate_required_into(g, sinks, r);
  return r;
}

CanonicalForm circuit_delay(const TimingGraph& g,
                            const PropagationResult& arrivals,
                            MaxDiagnostics* diag) {
  bool has = false;
  CanonicalForm acc(g.dim());
  for (VertexId v : g.outputs()) {
    if (!arrivals.valid[v]) continue;
    if (!has) {
      form_copy(acc.view(), arrivals.time.row(v));
      has = true;
    } else {
      statistical_max_into(acc.view(), acc.view(), arrivals.time.row(v), diag);
    }
  }
  HSSTA_REQUIRE(has, "no output port was reached");
  return acc;
}

// --- legacy per-vertex reference engine ------------------------------------

namespace {

/// The pre-FormBank pairwise max, byte-for-byte: allocates a fresh
/// CanonicalForm per call and goes through the owning-type accessors. This
/// deliberately does NOT delegate to statistical_max_into — it preserves
/// the retired implementation so the differential harness pins the flat
/// kernel against the original arithmetic, not against itself.
CanonicalForm legacy_statistical_max(const CanonicalForm& a,
                                     const CanonicalForm& b,
                                     MaxDiagnostics* diag) {
  constexpr double kDegenerateFrac = 1e-14;
  HSSTA_REQUIRE(a.dim() == b.dim(), "max across different spaces");
  if (diag) ++diag->ops;

  const double va = a.variance();
  const double vb = b.variance();
  const double cov = a.covariance(b);
  const double theta2 = va + vb - 2.0 * cov;
  const double scale = std::max(va, vb);
  const bool degenerate = theta2 <= kDegenerateFrac * scale || theta2 <= 0.0;
  if (degenerate) {
    if (diag) ++diag->degenerate_theta;
    return a.nominal() >= b.nominal() ? a : b;
  }
  const double theta = std::sqrt(theta2);

  const double a0 = a.nominal();
  const double b0 = b.nominal();
  const double alpha = (a0 - b0) / theta;
  const double tp = stats::normal_cdf(alpha);
  const double pdf = stats::normal_pdf(alpha);

  const double mu = tp * a0 + (1.0 - tp) * b0 + theta * pdf;
  const double second =
      tp * (va + a0 * a0) + (1.0 - tp) * (vb + b0 * b0) + (a0 + b0) * theta * pdf;
  const double var = second - mu * mu;

  CanonicalForm out(a.dim());
  out.set_nominal(mu);
  const std::span<const double> ca = a.corr();
  const std::span<const double> cb = b.corr();
  const std::span<double> co = out.corr();
  double corr_var = 0.0;
  for (size_t i = 0; i < co.size(); ++i) {
    co[i] = tp * ca[i] + (1.0 - tp) * cb[i];
    corr_var += co[i] * co[i];
  }
  const double resid = var - corr_var;
  if (resid > 0.0) {
    out.set_random(std::sqrt(resid));
  } else {
    out.set_random(0.0);
    if (diag) ++diag->variance_clamped;
  }
  return out;
}

void legacy_reset(const TimingGraph& g, LegacyPropagation& r,
                  std::span<const VertexId> seeds,
                  const std::vector<VertexId>& ports, const char* what) {
  r.diagnostics = MaxDiagnostics{};
  r.time.assign(g.num_vertex_slots(), CanonicalForm(g.dim()));
  r.valid.assign(g.num_vertex_slots(), 0);
  if (seeds.empty()) {
    for (VertexId v : ports) r.valid[v] = 1;
  } else {
    for (VertexId v : seeds) {
      HSSTA_REQUIRE(g.vertex_alive(v), what);
      r.valid[v] = 1;
    }
  }
}

}  // namespace

LegacyPropagation legacy_propagate_arrivals(const TimingGraph& g,
                                            std::span<const VertexId> sources) {
  LegacyPropagation r;
  legacy_reset(g, r, sources, g.inputs(), "propagation source is dead");
  CanonicalForm candidate(g.dim());
  for (VertexId v : g.topo_order()) {
    bool has = r.valid[v] != 0;
    for (EdgeId e : g.vertex(v).fanin) {
      const TimingEdge& te = g.edge(e);
      if (!r.valid[te.from]) continue;
      candidate = r.time[te.from];
      candidate += te.delay;
      if (!has) {
        r.time[v] = candidate;
        has = true;
      } else {
        r.time[v] =
            legacy_statistical_max(r.time[v], candidate, &r.diagnostics);
      }
    }
    r.valid[v] = has ? 1 : 0;
  }
  return r;
}

LegacyPropagation legacy_propagate_required(const TimingGraph& g,
                                            std::span<const VertexId> sinks) {
  LegacyPropagation r;
  legacy_reset(g, r, sinks, g.outputs(), "propagation sink is dead");
  std::vector<VertexId> order = g.topo_order();
  std::reverse(order.begin(), order.end());
  CanonicalForm candidate(g.dim());
  for (VertexId v : order) {
    bool has = r.valid[v] != 0;
    for (EdgeId e : g.vertex(v).fanout) {
      const TimingEdge& te = g.edge(e);
      if (!r.valid[te.to]) continue;
      candidate = r.time[te.to];
      candidate += te.delay;
      if (!has) {
        r.time[v] = candidate;
        has = true;
      } else {
        r.time[v] =
            legacy_statistical_max(r.time[v], candidate, &r.diagnostics);
      }
    }
    r.valid[v] = has ? 1 : 0;
  }
  return r;
}

}  // namespace hssta::timing
