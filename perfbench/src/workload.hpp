// The benchmark's workloads. Each generates its inputs from the seed in
// setup(), computes reference results there, and runs one closed-loop op
// per op() call, checking the op's output against the reference.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// An op whose output did not match its reference.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct RunParams {
  uint64_t seed = 1;
  std::string workdir;     ///< scratch files (models, shards) go here
  std::string worker_cmd;  ///< hssta_cli binary for campaign workers
};

/// Model and original edge counts summed over the modules a run extracted.
struct EdgeTally {
  size_t model = 0;
  size_t original = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Compute threads (or worker processes) the workload's timed work uses.
  [[nodiscard]] virtual size_t threads() const = 0;

  /// Generate the inputs from the seed, characterize, and compute the
  /// reference results. Called several times per run; each call starts
  /// over, so the set-up time is measured more than once.
  virtual void setup() = 0;

  /// Run one op and check its output; throws on a failed check. Returns
  /// the round-trip latencies (ms) of the op's requests when the workload
  /// serves requests, otherwise nothing (the op is the request).
  virtual std::vector<double> op() = 0;

  /// Traced runs only: direct calls into layer functions that the op
  /// reaches only inside a wrapper (criticality inside extraction, the
  /// design-space PCA inside stitching, the bare propagation sweeps inside
  /// SSTA and slack), so each layer gets a span of its own.
  virtual void attribution_probe() {}

  /// Digest of the generated inputs and the set-up reference results:
  /// equal for equal seeds, different for different seeds.
  [[nodiscard]] virtual uint64_t digest() const = 0;

  /// Edge counts of the models the workload extracted ({} if none).
  [[nodiscard]] virtual EdgeTally edges() const { return {}; }

  /// Per-layer counts and ratios the workload measures itself.
  virtual void layer_values(std::map<std::string, double>& out) const {
    (void)out;
  }
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const RunParams& p);

/// The paper's Fig. 7 accuracy reference: hierarchical SSTA of 2 x 2
/// c6288 against flat Monte Carlo at a fixed seed and sample count.
/// Deterministic; independent of workload and seed.
struct PaperReference {
  double sigma_err_pct = 0.0;  ///< |sigma_SSTA - sigma_MC| / sigma_MC, %
  double ks_vs_mc = 0.0;       ///< KS distance of the SSTA CDF to MC
  EdgeTally edges;             ///< the c6288 model's edge counts
  double mc_seconds = 0.0;
  size_t mc_samples = 0;
};

[[nodiscard]] PaperReference paper_reference(size_t threads);

}  // namespace perfbench
