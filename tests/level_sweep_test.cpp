// Differential fuzz harness for the sweep driver: across ~50 random DAG
// shapes (varying width / depth / fanin, seeded via stats::Rng) every sweep
// at 1 / 2 / 4 threads — inline on narrow graphs, level-parallel on wide
// ones — must be BIT-identical to its single-threaded call: arrivals,
// requireds, slacks, scalar longest-path / required-time passes, IO delay
// matrices, and criticalities. The criticality oracle is the per-(i, j)
// scalar scatter pass (pair_criticalities), which the batched gather pass
// replaces in production; any rounding difference between the two is a
// bug, not noise.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <span>
#include <vector>

#include "fixtures.hpp"
#include "hssta/core/criticality.hpp"
#include "hssta/core/io_delays.hpp"
#include "hssta/core/ssta.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/netlist/generate.hpp"
#include "hssta/timing/builder.hpp"
#include "hssta/timing/propagate.hpp"
#include "hssta/timing/sta.hpp"
#include "synthetic_graphs.hpp"

namespace hssta {
namespace {

using core::CriticalityOptions;
using core::CriticalityResult;
using core::DelayMatrix;
using timing::CanonicalForm;
using timing::EdgeId;
using timing::MaxDiagnostics;
using timing::PropagationResult;
using timing::TimingGraph;
using timing::VertexId;

void expect_same_diag(const MaxDiagnostics& a, const MaxDiagnostics& b) {
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.variance_clamped, b.variance_clamped);
  EXPECT_EQ(a.degenerate_theta, b.degenerate_theta);
}

void expect_same_propagation(const PropagationResult& a,
                             const PropagationResult& b) {
  EXPECT_EQ(a.valid, b.valid);
  ASSERT_EQ(a.time.rows(), b.time.rows());
  for (size_t v = 0; v < a.time.rows(); ++v)
    if (a.valid[v])
      EXPECT_TRUE(timing::form_equal(a.time.row(v), b.time.row(v)))
          << "vertex " << v;
  expect_same_diag(a.diagnostics, b.diagnostics);
}

void expect_same_matrix(const DelayMatrix& a, const DelayMatrix& b) {
  ASSERT_EQ(a.num_inputs(), b.num_inputs());
  ASSERT_EQ(a.num_outputs(), b.num_outputs());
  for (size_t i = 0; i < a.num_inputs(); ++i) {
    for (size_t j = 0; j < a.num_outputs(); ++j) {
      ASSERT_EQ(a.is_valid(i, j), b.is_valid(i, j)) << i << "," << j;
      if (a.is_valid(i, j)) EXPECT_EQ(a.at(i, j), b.at(i, j)) << i << "," << j;
    }
  }
}

/// The legacy criticality oracle: cm(e) = max over all (i, j) pairs of the
/// reference scalar scatter pass, clamped at 1 like the production fold.
std::vector<double> scatter_reference_cm(const TimingGraph& g) {
  std::vector<double> cm(g.num_edge_slots(), 0.0);
  for (size_t i = 0; i < g.inputs().size(); ++i) {
    for (size_t j = 0; j < g.outputs().size(); ++j) {
      const std::vector<double> c = core::pair_criticalities(g, i, j);
      for (size_t e = 0; e < cm.size(); ++e) cm[e] = std::max(cm[e], c[e]);
    }
  }
  for (double& c : cm) c = std::min(c, 1.0);
  return cm;
}

TEST(LevelSweepDifferential, BitIdenticalAcrossSchedulesAndThreads) {
  stats::Rng rng(0x5557A5EEDull);
  const size_t kGraphs = 50;
  size_t wide_graphs = 0;

  for (size_t t = 0; t < kGraphs; ++t) {
    const testing::SyntheticGraphSpec spec = testing::random_spec(rng);
    const TimingGraph g = testing::make_synthetic_graph(spec, rng);
    SCOPED_TRACE("graph " + std::to_string(t) + ": inputs=" +
                 std::to_string(spec.num_inputs) + " outputs=" +
                 std::to_string(spec.num_outputs) + " width=" +
                 std::to_string(spec.width) + " depth=" +
                 std::to_string(spec.depth) + " fanin=" +
                 std::to_string(spec.max_fanin) + " dim=" +
                 std::to_string(spec.dim));
    // The graphs whose sweeps fan their levels out at > 1 thread.
    if (g.levels()->mean_width() >= timing::kMinLevelFanOut) ++wide_graphs;

    // Single-threaded references.
    const PropagationResult arrivals_ref = timing::propagate_arrivals(g);
    PropagationResult required_ref;
    timing::propagate_required_into(g, {}, required_ref);
    const double deadline = 10.0;
    const core::SlackResult slack_ref = core::compute_slack(g, deadline);
    const std::vector<double> delays = timing::corner_edge_delays(g, 0.0);
    const timing::ScalarArrivals lp_ref = timing::longest_path(g, delays);
    const timing::ScalarArrivals rt_ref =
        timing::required_times(g, delays, deadline);
    const std::vector<double> cm_ref = scatter_reference_cm(g);
    const DelayMatrix io_ref = core::all_pairs_io_delays(g);

    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const std::shared_ptr<exec::Executor> ex = exec::make_executor(threads);

      PropagationResult arr;
      timing::propagate_arrivals_into(g, {}, arr, *ex);
      expect_same_propagation(arrivals_ref, arr);

      PropagationResult req;
      timing::propagate_required_into(g, {}, req, *ex);
      expect_same_propagation(required_ref, req);

      const core::SlackResult slack = core::compute_slack(g, deadline, *ex);
      EXPECT_EQ(slack_ref.valid, slack.valid);
      for (size_t v = 0; v < slack.slack.size(); ++v)
        if (slack.valid[v]) EXPECT_EQ(slack_ref.slack[v], slack.slack[v]);

      const timing::ScalarArrivals lp =
          timing::longest_path(g, delays, {}, *ex);
      EXPECT_EQ(lp_ref.valid, lp.valid);
      EXPECT_EQ(lp_ref.time, lp.time);

      const timing::ScalarArrivals rt =
          timing::required_times(g, delays, deadline, *ex);
      EXPECT_EQ(rt_ref.valid, rt.valid);
      EXPECT_EQ(rt_ref.time, rt.time);

      expect_same_matrix(io_ref, core::all_pairs_io_delays(g, *ex));

      // Criticality against the scatter oracle. prune_epsilon 0 matches
      // the oracle's.
      CriticalityOptions opts;
      opts.prune_epsilon = 0.0;
      const CriticalityResult crit = core::compute_criticality(g, *ex, opts);
      EXPECT_EQ(crit.max_criticality, cm_ref);
      expect_same_matrix(io_ref, crit.io_delays);
    }
  }
  // The fuzz corpus must actually exercise the level-parallel schedule, not
  // only the inline walk of narrow graphs.
  EXPECT_GE(wide_graphs, kGraphs / 4);
}

void expect_same_vs_legacy(const timing::LegacyPropagation& ref,
                           const PropagationResult& flat) {
  EXPECT_EQ(ref.valid, flat.valid);
  ASSERT_EQ(ref.time.size(), flat.time.rows());
  for (size_t v = 0; v < ref.time.size(); ++v)
    if (ref.valid[v])
      EXPECT_TRUE(timing::form_equal(ref.time[v].view(), flat.time.row(v)))
          << "vertex " << v;
  expect_same_diag(ref.diagnostics, flat.diagnostics);
}

// The flat bank engine against the retired per-vertex engine (kept verbatim
// as timing::legacy_propagate_*): across the same 50-DAG corpus, forward
// and backward sweeps must be BIT-identical at every thread count, and the
// flat tightness split (the criticality kernel) must match the legacy
// span-based split at every multi-fanin vertex. This pins the SoA kernels
// against the original arithmetic, not against themselves.
TEST(LevelSweepDifferential, FlatBankMatchesLegacyPerVertexEngine) {
  stats::Rng rng(0xF1A7BA22ull);
  const size_t kGraphs = 50;

  for (size_t t = 0; t < kGraphs; ++t) {
    const testing::SyntheticGraphSpec spec = testing::random_spec(rng);
    const TimingGraph g = testing::make_synthetic_graph(spec, rng);
    SCOPED_TRACE("graph " + std::to_string(t) + ": width=" +
                 std::to_string(spec.width) + " depth=" +
                 std::to_string(spec.depth) + " dim=" +
                 std::to_string(spec.dim));

    const timing::LegacyPropagation arr_ref =
        timing::legacy_propagate_arrivals(g);
    const timing::LegacyPropagation req_ref =
        timing::legacy_propagate_required(g, {});

    const PropagationResult arr = timing::propagate_arrivals(g);
    expect_same_vs_legacy(arr_ref, arr);
    PropagationResult req;
    timing::propagate_required_into(g, {}, req);
    expect_same_vs_legacy(req_ref, req);

    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const std::shared_ptr<exec::Executor> ex = exec::make_executor(threads);
      PropagationResult pa;
      timing::propagate_arrivals_into(g, {}, pa, *ex);
      expect_same_vs_legacy(arr_ref, pa);
      PropagationResult pr;
      timing::propagate_required_into(g, {}, pr, *ex);
      expect_same_vs_legacy(req_ref, pr);
    }

    // Criticality kernel: the bank-based tightness split against the
    // legacy allocating split on identical candidate sets.
    MaxDiagnostics diag_legacy, diag_flat;
    timing::FormBank cand, scratch;
    std::vector<double> tp_flat;
    for (VertexId v = 0; v < g.num_vertex_slots(); ++v) {
      if (!g.vertex_alive(v)) continue;
      const auto& fanin = g.vertex(v).fanin;
      if (fanin.size() < 2) continue;
      if (cand.rows() < fanin.size() || cand.dim() != g.dim())
        cand.reset(fanin.size(), g.dim());
      std::vector<CanonicalForm> legacy_cands;
      size_t n = 0;
      for (EdgeId e : fanin) {
        const timing::TimingEdge& te = g.edge(e);
        if (!arr_ref.valid[te.from]) continue;
        CanonicalForm c = arr_ref.time[te.from];
        c += te.delay;
        legacy_cands.push_back(std::move(c));
        timing::add_into(cand.row(n), arr.time.row(te.from), te.delay.view());
        ++n;
      }
      if (n < 2) continue;
      const std::vector<double> tp_legacy = timing::tightness_split(
          std::span<const CanonicalForm>(legacy_cands), &diag_legacy);
      timing::tightness_split_into(cand, n, tp_flat, scratch, &diag_flat);
      ASSERT_EQ(tp_legacy.size(), tp_flat.size());
      for (size_t k = 0; k < n; ++k)
        EXPECT_EQ(tp_legacy[k], tp_flat[k]) << "vertex " << v << " pin " << k;
    }
    expect_same_diag(diag_legacy, diag_flat);
  }
}

// Size-gated large-design smoke: a generated stacked-DAG netlist (default
// ~20k gates; HSSTA_FLAT_SMOKE_GATES scales it up, e.g. the CI release job
// runs >= 100k) through the synthetic-delay graph builder, with flat vs
// legacy and serial vs parallel bit-identity on the forward sweep.
TEST(LevelSweepDifferential, LargeGeneratedDesignSmoke) {
  size_t gates = 20000;
  if (const char* env = std::getenv("HSSTA_FLAT_SMOKE_GATES"))
    if (const size_t n = std::strtoull(env, nullptr, 10)) gates = n;

  netlist::StackedDagSpec spec;
  spec.tile.num_inputs = 64;
  spec.tile.num_outputs = 64;
  spec.tile.num_gates = 2000;
  spec.tile.num_pins = 3600;
  spec.tile.depth = 20;
  spec.num_tiles = std::max<size_t>(1, gates / spec.tile.num_gates);
  spec.seed = 1;
  const netlist::Netlist nl =
      netlist::make_stacked_dag(spec, testing::default_lib());
  const timing::BuiltGraph built =
      timing::synthetic_delay_graph(nl, /*dim=*/6, /*seed=*/42);
  const TimingGraph& g = built.graph;

  const timing::LegacyPropagation ref = timing::legacy_propagate_arrivals(g);
  const PropagationResult serial = timing::propagate_arrivals(g);
  expect_same_vs_legacy(ref, serial);

  for (const size_t threads : {size_t{2}, size_t{4}}) {
    const std::shared_ptr<exec::Executor> ex = exec::make_executor(threads);
    PropagationResult par;
    timing::propagate_arrivals_into(g, {}, par, *ex);
    expect_same_vs_legacy(ref, par);
  }
}

TEST(LevelSweepDifferential, CriticalityDiagnosticsMatchAcrossSchedules) {
  stats::Rng rng(99);
  testing::SyntheticGraphSpec spec;
  spec.num_inputs = 3;
  spec.num_outputs = 4;
  spec.width = 24;
  spec.depth = 5;
  const TimingGraph g = testing::make_synthetic_graph(spec, rng);

  // 3 inputs over 2 and 4 workers: per-worker diagnostics counters from
  // uneven (and, at 4 threads, empty) input chunks must merge to the
  // single-threaded totals.
  const CriticalityResult serial = core::compute_criticality(g);
  for (const size_t threads : {size_t{2}, size_t{4}}) {
    const std::shared_ptr<exec::Executor> ex = exec::make_executor(threads);
    const CriticalityResult crit = core::compute_criticality(g, *ex);
    EXPECT_EQ(serial.max_criticality, crit.max_criticality);
    expect_same_diag(serial.diagnostics, crit.diagnostics);
  }
}

TEST(LevelSweepDifferential, ScalarRequiredTimesAreConsistent) {
  // With deadline = the longest-path delay, every reached vertex has
  // non-negative scalar slack and some input-to-output chain sits at 0.
  stats::Rng rng(5);
  testing::SyntheticGraphSpec spec;
  spec.width = 12;
  spec.depth = 6;
  const TimingGraph g = testing::make_synthetic_graph(spec, rng);
  const std::vector<double> delays = timing::corner_edge_delays(g, 0.0);
  const timing::ScalarArrivals arr = timing::longest_path(g, delays);
  const double deadline = arr.max_over_outputs(g);
  const timing::ScalarArrivals req =
      timing::required_times(g, delays, deadline);
  double min_slack = 1e30;
  for (VertexId v = 0; v < g.num_vertex_slots(); ++v) {
    if (!arr.valid[v] || !req.valid[v]) continue;
    const double slack = req.time[v] - arr.time[v];
    EXPECT_GE(slack, -1e-12);
    min_slack = std::min(min_slack, slack);
  }
  EXPECT_NEAR(min_slack, 0.0, 1e-12);
}

}  // namespace
}  // namespace hssta
