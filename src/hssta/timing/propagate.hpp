/// \file propagate.hpp
/// Block-based arrival-time propagation (paper Section II): a single
/// topological sweep folding statistical sum along edges and statistical
/// max at multi-fanin vertices. The backward variant computes, for one
/// sink, the maximum remaining delay from every vertex to that sink — the
/// "required time" ingredient of the criticality computation (Section IV.B).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hssta/exec/executor.hpp"
#include "hssta/timing/graph.hpp"
#include "hssta/timing/statops.hpp"

namespace hssta::timing {

/// Levels narrower than this run inline on the calling thread even in a
/// fanned-out sweep (see exec::run_maybe_parallel) — identical results,
/// no pool round-trip for the long skinny head/tail of a circuit. A graph
/// whose *mean* level is narrower than this never fans out at all.
inline constexpr size_t kMinLevelFanOut = 16;

/// The one driver of every sweep: visit each live vertex of `ls` once, in
/// level order front to back (forward sweeps) or back to front (backward
/// sweeps). Within-level vertices share no edges, so `visit(v)` may run
/// concurrently for one level as long as it only writes state owned by v.
///
/// Schedule (never a result choice): the levels fan out across `ex` only
/// when it has more than one thread and the graph is wide enough to
/// amortize per-level barriers (mean level width >= kMinLevelFanOut).
/// Otherwise the sweep walks `ls.order` (== topo_order()) inline on the
/// calling thread — one pass with no per-vertex std::function and no
/// per-level region. Either way every vertex runs the same arithmetic, so
/// results are bit-identical at every thread count.
///
/// `bind(ws)` returns the per-vertex visitor for one worker slot's
/// Workspace — the place a sweep fetches its per-worker scratch; the inline
/// walk binds slot 0 once. In a fanned-out sweep `cost_of(v)` estimates
/// the canonical-op cost of one vertex (a sweep typically charges fanin-or-
/// fanout count x coefficient dimension); wide levels are chunked by that
/// cost via exec::parallel_for_costed instead of by vertex count, so one
/// heavy multi-fanin vertex no longer straggles its level. Callers sharing
/// `ex` across threads hold an Executor::Exclusive around the surrounding
/// reset -> sweep -> merge sequence.
template <typename Cost, typename Bind>
void for_each_level(const LevelStructure& ls, exec::Executor& ex,
                    bool front_to_back, Cost&& cost_of, Bind&& bind) {
  if (ex.concurrency() <= 1 ||
      ls.mean_width() < static_cast<double>(kMinLevelFanOut)) {
    // One inline region (min_parallel SIZE_MAX never fans out) around the
    // whole walk: slot 0's workspace, and nested submission still throws.
    exec::run_maybe_parallel(
        ex, 1, SIZE_MAX, [&](size_t, exec::Workspace& ws) {
          auto visit = bind(ws);
          if (front_to_back) {
            for (const VertexId v : ls.order) visit(v);
          } else {
            for (auto it = ls.order.rbegin(); it != ls.order.rend(); ++it)
              visit(*it);
          }
        });
    return;
  }
  const size_t num_levels = ls.num_levels();
  std::vector<uint64_t> costs;  // recycled across levels
  for (size_t step = 0; step < num_levels; ++step) {
    const std::span<const VertexId> bucket =
        ls.bucket(front_to_back ? step : num_levels - 1 - step);
    const auto task = [&](size_t k, exec::Workspace& ws) {
      bind(ws)(bucket[k]);
    };
    if (bucket.size() >= kMinLevelFanOut) {
      costs.clear();
      costs.reserve(bucket.size());
      for (const VertexId v : bucket)
        costs.push_back(static_cast<uint64_t>(cost_of(v)));
      exec::parallel_for_costed(ex, costs, task);
    } else {
      exec::run_maybe_parallel(ex, bucket.size(), kMinLevelFanOut, task);
    }
  }
}

/// Per-vertex canonical times as a FormBank — one contiguous
/// [num_vertex_slots x (dim+2)] row-major matrix, row v holding vertex v's
/// form — so sweeps walk memory linearly and fold rows in place with the
/// span kernels of statops.hpp (no allocation per folded edge). `valid[v]`
/// is false for vertices that no source reaches (forward) or that cannot
/// reach the sink (backward); the row of an invalid vertex is a zero form.
struct PropagationResult {
  FormBank time;  ///< rows indexed by VertexId slot
  std::vector<uint8_t> valid;
  MaxDiagnostics diagnostics;

  [[nodiscard]] bool is_valid(VertexId v) const { return valid[v] != 0; }
  /// Raw row view of vertex v's time (no validity check; hot-path access).
  [[nodiscard]] ConstFormView view(VertexId v) const { return time.row(v); }
  /// Vertex v's time materialized as a boundary CanonicalForm; throws when
  /// v is unreached.
  [[nodiscard]] CanonicalForm at(VertexId v) const;
};

/// Forward arrival propagation from `sources` (each injected at arrival 0).
/// An empty span means "all input ports" — the ordinary full-circuit case.
[[nodiscard]] PropagationResult propagate_arrivals(
    const TimingGraph& g, std::span<const VertexId> sources = {});

/// Workspace-reuse variant: overwrites `r` in place, recycling its vertex
/// and coefficient buffers, and sweeps g.levels() through for_each_level
/// on `ex` (the diagnostics counters merge by integer sum, so they equal a
/// single-threaded sweep's exactly). The per-input loops of the compute
/// layer (all-pairs IO delays, criticality) keep one PropagationResult per
/// worker thread so repeated propagations allocate nothing after warm-up.
/// Results are identical to propagate_arrivals at every thread count.
void propagate_arrivals_into(const TimingGraph& g,
                             std::span<const VertexId> sources,
                             PropagationResult& r, exec::Executor& ex);

/// Single-threaded call of the same sweep (a call-local SerialExecutor).
void propagate_arrivals_into(const TimingGraph& g,
                             std::span<const VertexId> sources,
                             PropagationResult& r);

/// Backward "required time" ingredient: time[v] = statistical max delay
/// from v to any of `sinks` over all live paths (an empty span means "all
/// output ports"); time[sink] = 0, valid[v] false when v reaches no sink.
/// This is the remaining-delay pass of compute_slack and of the per-sink
/// criticality machinery. Sweeps the levels back to front on `ex`, with
/// the forward sweep's bit-identity contract.
void propagate_required_into(const TimingGraph& g,
                             std::span<const VertexId> sinks,
                             PropagationResult& r, exec::Executor& ex);

/// Single-threaded call of the same sweep (a call-local SerialExecutor).
void propagate_required_into(const TimingGraph& g,
                             std::span<const VertexId> sinks,
                             PropagationResult& r);

/// The per-vertex fold of the forward sweep: fold the live fanin of `v`
/// (time[from] + delay, read from `arrivals`) into `dst` by statistical max.
/// `reached` says whether `dst` already holds a live time to fold against
/// (a seeded source's arrival 0); otherwise the first live fanin overwrites
/// it. Returns whether v is reached. `candidate` is caller-owned scratch of
/// the graph's dimension, so the fold allocates nothing. Exposed so the
/// incremental cone update recomputes a vertex with exactly this
/// arithmetic.
bool fold_fanin(const TimingGraph& g, VertexId v,
                const PropagationResult& arrivals, FormView dst,
                FormView candidate, bool reached, MaxDiagnostics* diag);

/// Backward propagation: time[v] = statistical max delay from v to `sink`
/// over all live paths; time[sink] = 0.
[[nodiscard]] PropagationResult propagate_to_sink(const TimingGraph& g,
                                                  VertexId sink);

/// Statistical max of the arrival times over all output ports (the module /
/// design delay distribution). Throws if no output is reached.
[[nodiscard]] CanonicalForm circuit_delay(const TimingGraph& g,
                                          const PropagationResult& arrivals,
                                          MaxDiagnostics* diag = nullptr);

/// --- legacy per-vertex reference engine ----------------------------------
/// The pre-FormBank storage and fold: one heap CanonicalForm per vertex, a
/// fresh coefficient vector allocated by every pairwise max. Kept (serial
/// only) as the oracle the flat engine is pinned against — the differential
/// fuzz harness and the propagate bench both assert bit-identity between
/// the two, so a kernel or layout regression in the flat path cannot land
/// silently. Not for production use: this is exactly the allocation-bound
/// code path the FormBank rewrite retired.
struct LegacyPropagation {
  std::vector<CanonicalForm> time;  ///< indexed by VertexId slot
  std::vector<uint8_t> valid;
  MaxDiagnostics diagnostics;
};

[[nodiscard]] LegacyPropagation legacy_propagate_arrivals(
    const TimingGraph& g, std::span<const VertexId> sources = {});

[[nodiscard]] LegacyPropagation legacy_propagate_required(
    const TimingGraph& g, std::span<const VertexId> sinks = {});

}  // namespace hssta::timing
