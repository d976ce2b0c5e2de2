// The five workloads. Every call into an hssta layer that a per-layer metric
// names is wrapped in a Span of that metric's name, so the traced run can
// attribute time layer by layer from the outside in.

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <optional>
#include <set>
#include <sstream>

#include "hssta/campaign/campaign.hpp"
#include "hssta/core/criticality.hpp"
#include "hssta/core/paths.hpp"
#include "hssta/core/ssta.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/flow/chain.hpp"
#include "hssta/flow/flow.hpp"
#include "hssta/flow/report.hpp"
#include "hssta/hier/design_grid.hpp"
#include "hssta/hier/hier_ssta.hpp"
#include "hssta/hier/stitch.hpp"
#include "hssta/incr/design_state.hpp"
#include "hssta/incr/scenario.hpp"
#include "hssta/mc/hier_mc.hpp"
#include "hssta/model/extract.hpp"
#include "hssta/model/timing_model.hpp"
#include "hssta/netlist/bench_io.hpp"
#include "hssta/netlist/generate.hpp"
#include "hssta/netlist/iscas.hpp"
#include "hssta/placement/placement.hpp"
#include "hssta/serve/engine.hpp"
#include "hssta/serve/protocol.hpp"
#include "hssta/stats/rng.hpp"
#include "hssta/timing/builder.hpp"
#include "hssta/timing/propagate.hpp"
#include "hssta/util/hash.hpp"
#include "hssta/util/json.hpp"
#include "hssta/util/timer.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace hssta;
namespace fs = std::filesystem;

// --- shared helpers ---------------------------------------------------------

/// A tracer counter; every per-layer count is a sum over the run.
void count(const std::string& name, double v) {
  Tracer::instance().count(name, v);
}

flow::Config config_with_threads(size_t threads) {
  flow::Config cfg;
  cfg.threads = threads;
  return cfg;
}

void hash_form(util::Fnv1a& h, const timing::CanonicalForm& f) {
  h.f64(f.nominal());
  for (const double c : f.corr()) h.f64(c);
  h.f64(f.random());
}

std::string delay_block(const timing::CanonicalForm& d) {
  std::ostringstream os;
  util::JsonWriter w(os);
  flow::delay_json(w, d);
  return os.str();
}

void write_text(const fs::path& p, const std::string& text) {
  std::ofstream os(p, std::ios::binary);
  os << text;
  if (!os) throw std::runtime_error("cannot write " + p.string());
}

/// The .bench text of `nl` with its internal nets renamed from `seed`; ports
/// and line order are kept. Every seed gives the parser other text but the
/// same circuit in the same order, so the work — and with it the timing —
/// does not swing with the seed the way it does across independently
/// generated circuits (or across shuffled gate orders, which also change
/// memory locality).
std::string seeded_bench(const netlist::Netlist& nl, uint64_t seed) {
  std::vector<std::string> lines;
  std::set<std::string> ports;
  std::map<std::string, std::string> rename;  // internal net -> new name
  std::istringstream in(netlist::write_bench_string(nl));
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("INPUT(", 0) == 0 || line.rfind("OUTPUT(", 0) == 0) {
      const size_t open = line.find('(');
      ports.insert(line.substr(open + 1, line.find(')') - open - 1));
    } else if (const size_t eq = line.find(" = "); eq != std::string::npos) {
      rename.emplace(line.substr(0, eq), "");
    } else {
      continue;
    }
    lines.push_back(line);
  }
  for (const std::string& p : ports) rename.erase(p);

  stats::Rng rng(seed);
  std::vector<size_t> ids(rename.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  for (size_t i = ids.size(); i > 1; --i)
    std::swap(ids[i - 1], ids[rng.uniform_index(i)]);
  size_t next = 0;
  for (auto& [from, to] : rename) {
    to = "s" + std::to_string(ids[next++]);
    while (ports.count(to)) to += "_";
  }
  auto net = [&](const std::string& name) {
    const auto it = rename.find(name);
    return it == rename.end() ? name : it->second;
  };

  std::string text;
  for (const std::string& l : lines) {
    const size_t eq = l.find(" = ");
    if (eq == std::string::npos) {
      text += l + "\n";
      continue;
    }
    const size_t open = l.find('(', eq);
    text += net(l.substr(0, eq)) + l.substr(eq, open + 1 - eq);
    std::istringstream args(l.substr(open + 1, l.rfind(')') - open - 1));
    bool first = true;
    for (std::string a; std::getline(args, a, ',');) {
      text += (first ? "" : ", ") + net(a.substr(a.find_first_not_of(' ')));
      first = false;
    }
    text += ")\n";
  }
  return text;
}

/// One module of the paper's synthetic ISCAS85 suite (the library's fixed
/// generator seed) as seeded .bench text.
std::string suite_bench(const char* name, uint64_t seed) {
  return seeded_bench(netlist::make_iscas85(name, *flow::default_library()),
                      seed);
}

/// One module taken through the characterization pipeline from .bench
/// text: parse -> place -> variation -> graph -> SSTA -> extraction ->
/// .hstm save and reload.
struct Characterized {
  timing::BuiltGraph built;
  std::shared_ptr<const model::TimingModel> model{};  ///< the reloaded model
  std::string hstm{};
  EdgeTally edges{};
  uint64_t digest = 0;  ///< .hstm bytes + module and reloaded-model delays
};

Characterized characterize(const std::string& name, const std::string& text,
                           const flow::Config& cfg, exec::Executor& ex) {
  const std::shared_ptr<const library::CellLibrary> lib =
      flow::default_library();
  netlist::Netlist nl = [&] {
    Span s("netlist.parse_s");
    return netlist::read_bench_string(text, *lib, name);
  }();
  const placement::Placement pl = [&] {
    Span s("placement.place_s");
    return placement::place_rows(nl, cfg.place);
  }();
  const variation::ModuleVariation mv = [&] {
    Span s("variation.space_s");
    return variation::make_module_variation(pl, nl.num_gates(), cfg.parameters,
                                            cfg.correlation,
                                            cfg.max_cells_per_grid, cfg.pca);
  }();
  Characterized out{[&] {
    Span s("timing.build_s");
    return timing::build_timing_graph(nl, pl, mv, cfg.build);
  }()};
  util::Fnv1a h;
  {
    Span s("core.ssta_s");
    hash_form(h, core::run_ssta(out.built.graph, ex).delay);
  }
  model::Extraction extraction = [&] {
    Span s("model.extract_s");
    return model::extract_timing_model(out.built, mv, nl.name(),
                                       model::compute_boundary(nl), ex,
                                       cfg.extract);
  }();
  out.edges = {extraction.stats.model_edges, extraction.stats.original_edges};
  count("model.model_edges", static_cast<double>(out.edges.model));
  count("model.original_edges", static_cast<double>(out.edges.original));
  {
    Span s("model.save_s");
    std::ostringstream os;
    extraction.model.save(os);
    out.hstm = os.str();
  }
  count("model.hstm_bytes", static_cast<double>(out.hstm.size()));
  count("model.saves", 1);
  {
    Span s("model.load_s");
    std::istringstream is(out.hstm);
    out.model = std::make_shared<const model::TimingModel>(
        model::TimingModel::load(is));
  }
  h.str(out.hstm);
  hash_form(h, core::run_ssta(out.model->graph(), ex).delay);
  out.digest = h.value();
  return out;
}

/// A geometry-identical drop-in variant of a model (same ports, die, grids
/// and boundary) with every edge delay scaled: an IP respin.
std::string scaled_variant_hstm(const model::TimingModel& base, double factor) {
  timing::TimingGraph g = base.graph();
  for (timing::EdgeId e = 0; e < g.num_edge_slots(); ++e)
    if (g.edge_alive(e)) g.edge(e).delay.scale(factor);
  const model::TimingModel v(base.name() + "_respin", std::move(g),
                             base.variation(), base.boundary());
  std::ostringstream os;
  v.save(os);
  return os.str();
}

/// The paper's Fig. 7 topology: four instances in two columns in
/// abutment, first-column outputs cross-connected to second-column inputs.
template <typename Inst>
flow::Design fig7_design(const Inst& inst, const placement::Die& mdie,
                         const flow::Config& cfg) {
  flow::Design d("fig7", placement::Die{2 * mdie.width, 2 * mdie.height},
                 cfg);
  const size_t a = d.add_instance(inst, 0, 0, "A");
  const size_t b = d.add_instance(inst, 0, mdie.height, "B");
  const size_t c = d.add_instance(inst, mdie.width, 0, "C");
  const size_t e = d.add_instance(inst, mdie.width, mdie.height, "D");
  const size_t ni = d.num_inputs(a);
  const size_t no = d.num_outputs(a);
  const size_t half = ni / 2;
  for (size_t k = 0; k < ni; ++k) {
    d.connect(k < half ? a : b, (k < half ? k : k - half) % no, c, k);
    d.connect(k < half ? b : a, (k < half ? k + half : k) % no, e, k);
  }
  for (size_t k = 0; k < ni; ++k) {
    d.primary_input("pa" + std::to_string(k), a, k);
    d.primary_input("pb" + std::to_string(k), b, k);
  }
  for (size_t k = 0; k < no; ++k) {
    d.primary_output("qc" + std::to_string(k), c, k);
    d.primary_output("qd" + std::to_string(k), e, k);
  }
  return d;
}

// --- characterize -------------------------------------------------------------

/// The IP hand-off of paper Section IV: four modules of the paper's suite
/// characterized serially from seeded .bench text to a reloaded .hstm
/// model.
class Characterize final : public Workload {
 public:
  explicit Characterize(const RunParams& p)
      : p_(p), cfg_(config_with_threads(1)), ex_(exec::make_executor(1)) {}

  size_t threads() const override { return 1; }

  void setup() override {
    texts_.clear();
    for (const char* name : kModules)
      texts_.push_back(suite_bench(name, p_.seed));
    reference_ = run_all();
  }

  std::vector<double> op() override {
    const std::vector<uint64_t> got = run_all();
    for (size_t i = 0; i < got.size(); ++i)
      if (got[i] != reference_[i])
        throw CheckFailed(std::string("characterize: digest of ") +
                          kModules[i] + " differs from set-up");
    return {};
  }

  void attribution_probe() override {
    for (const timing::BuiltGraph& b : last_graphs_) {
      Span s("core.criticality_s");
      (void)core::compute_criticality(b.graph, *ex_);
    }
  }

  EdgeTally edges() const override { return edges_; }

  uint64_t digest() const override {
    util::Fnv1a h;
    for (const uint64_t d : reference_) h.u64(d);
    return h.value();
  }

 private:
  static constexpr const char* kModules[] = {"c3540", "c5315", "c6288",
                                             "c7552"};

  std::vector<uint64_t> run_all() {
    std::vector<uint64_t> digests;
    last_graphs_.clear();
    edges_ = {};
    for (size_t i = 0; i < texts_.size(); ++i) {
      Characterized c = characterize(kModules[i], texts_[i], cfg_, *ex_);
      digests.push_back(c.digest);
      edges_.model += c.edges.model;
      edges_.original += c.edges.original;
      last_graphs_.push_back(std::move(c.built));
    }
    return digests;
  }

  RunParams p_;
  flow::Config cfg_;
  std::shared_ptr<exec::Executor> ex_;
  std::vector<std::string> texts_;
  std::vector<uint64_t> reference_;
  std::vector<timing::BuiltGraph> last_graphs_;
  EdgeTally edges_;
};

// --- soc_signoff --------------------------------------------------------------

/// Paper Section V: an integrator's one-shot sign-off from a
/// pre-characterized c6288 .hstm — Fig. 7 plus a seeded-wiring grid SoC,
/// each in the proposed (variable replacement) and global-only modes, with
/// slack.
class SocSignoff final : public Workload {
 public:
  static constexpr size_t kSide = 3;  ///< SoC is kSide x kSide instances

  explicit SocSignoff(const RunParams& p)
      : p_(p), cfg_(config_with_threads(2)), ex_(exec::make_executor(2)) {}

  size_t threads() const override { return 2; }

  void setup() override {
    Characterized c =
        characterize("c6288", suite_bench("c6288", p_.seed), cfg_, *ex_);
    hstm_ = std::move(c.hstm);
    edges_ = c.edges;
    reference_ = run_once();
  }

  std::vector<double> op() override {
    if (run_once() != reference_)
      throw CheckFailed("soc_signoff: delays differ from set-up");
    return {};
  }

  void attribution_probe() override {
    if (!last_soc_) return;
    const hier::HierDesign& h = last_soc_->hier();
    const hier::DesignGrid grid = [&] {
      Span s("hier.design_grid_s");
      return hier::build_design_grid(h);
    }();
    count("hier.grids", static_cast<double>(grid.geometry.size()));
    count("hier.grid_calls", 1);
    Span s("hier.design_space_s");
    (void)hier::build_design_space(h, grid, cfg_.hier.pca);
  }

  EdgeTally edges() const override { return edges_; }

  uint64_t digest() const override { return reference_; }

 private:
  /// kSide x kSide instances; each input of column c > 0 is driven by a
  /// seeded output of a seeded instance in column c - 1.
  flow::Design soc_design(
      const std::shared_ptr<const model::TimingModel>& m) const {
    const placement::Die mdie = m->die();
    flow::Design d("soc", placement::Die{kSide * mdie.width,
                                         kSide * mdie.height},
                   cfg_);
    for (size_t col = 0; col < kSide; ++col)
      for (size_t row = 0; row < kSide; ++row)
        d.add_instance(m, static_cast<double>(col) * mdie.width,
                       static_cast<double>(row) * mdie.height,
                       "u" + std::to_string(col) + "_" + std::to_string(row));
    stats::Rng rng(p_.seed ^ 0x50C5u);
    const size_t ni = d.num_inputs(0);
    const size_t no = d.num_outputs(0);
    for (size_t col = 1; col < kSide; ++col)
      for (size_t row = 0; row < kSide; ++row)
        for (size_t k = 0; k < ni; ++k) {
          const size_t src_row = rng.uniform_index(kSide);
          d.connect((col - 1) * kSide + src_row, rng.uniform_index(no),
                    col * kSide + row, k);
        }
    d.expose_unconnected_ports();
    return d;
  }

  /// Replacement-mode stitch + SSTA + slack, then the global-only
  /// baseline; returns a digest over every delay and slack.
  void analyze(const flow::Design& d, util::Fnv1a& h) {
    hier::HierOptions opts = cfg_.hier;
    opts.mode = hier::CorrelationMode::kReplacement;
    const hier::StitchedDesign st = [&] {
      Span s("hier.stitch_s");
      return hier::stitch_design(d.hier(), opts);
    }();
    const core::SstaResult r = [&] {
      Span s("core.ssta_s");
      return core::run_ssta(st.graph, *ex_);
    }();
    hash_form(h, r.delay);
    {
      Span s("core.slack_s");
      const core::SlackResult sl =
          core::compute_slack(st.graph, r.delay.nominal(), *ex_);
      for (size_t v = 0; v < sl.slack.size(); ++v)
        if (sl.valid[v]) hash_form(h, sl.slack[v]);
    }
    opts.mode = hier::CorrelationMode::kGlobalOnly;
    Span s("hier.analyze_s");
    hash_form(h, hier::analyze_hierarchical(d.hier(), opts).delay());
  }

  uint64_t run_once() {
    std::shared_ptr<const model::TimingModel> m;
    {
      Span s("model.load_s");
      std::istringstream is(hstm_);
      m = std::make_shared<const model::TimingModel>(
          model::TimingModel::load(is));
    }
    util::Fnv1a h;
    const flow::Design fig7 = fig7_design(m, m->die(), cfg_);
    analyze(fig7, h);
    last_soc_ = std::make_unique<flow::Design>(soc_design(m));
    analyze(*last_soc_, h);
    return h.value();
  }

  RunParams p_;
  flow::Config cfg_;
  std::shared_ptr<exec::Executor> ex_;
  std::string hstm_;
  EdgeTally edges_;
  uint64_t reference_ = 0;
  std::unique_ptr<flow::Design> last_soc_;
};

// --- flat_block ---------------------------------------------------------------

/// A large flat generated block: full-chip SSTA, slack and path reporting
/// at scale, where timing propagation and path search dominate. The block
/// is one fixed generated circuit (depth 100; a 750-deep stacked block made
/// report_critical_paths exhaust memory), presented as seeded .bench text.
class FlatBlock final : public Workload {
 public:
  static constexpr size_t kGates = 80000;
  static constexpr size_t kPaths = 5;
  static constexpr uint64_t kBlockSeed = 2009;

  explicit FlatBlock(const RunParams& p)
      : p_(p), cfg_(config_with_threads(2)), ex_(exec::make_executor(2)) {
    cfg_.max_cells_per_grid = 2000;  // the default pitch takes minutes here
  }

  size_t threads() const override { return 2; }

  void setup() override {
    const std::shared_ptr<const library::CellLibrary> lib =
        flow::default_library();
    netlist::RandomDagSpec spec;
    spec.name = "block";
    spec.num_inputs = 512;
    spec.num_outputs = 512;
    spec.num_gates = kGates;
    spec.num_pins = kGates * 9 / 5;
    spec.depth = 100;
    spec.seed = kBlockSeed;
    const std::string text =
        seeded_bench(netlist::make_random_dag(spec, *lib), p_.seed);
    input_digest_ = util::Fnv1a().str(text).value();
    const netlist::Netlist nl = [&] {
      Span s("netlist.parse_s");
      return netlist::read_bench_string(text, *lib, "block");
    }();
    const placement::Placement pl = [&] {
      Span s("placement.place_s");
      return placement::place_rows(nl, cfg_.place);
    }();
    const variation::ModuleVariation mv = [&] {
      Span s("variation.space_s");
      return variation::make_module_variation(
          pl, nl.num_gates(), cfg_.parameters, cfg_.correlation,
          cfg_.max_cells_per_grid, cfg_.pca);
    }();
    {
      Span s("timing.build_s");
      built_.emplace(timing::build_timing_graph(nl, pl, mv, cfg_.build));
    }
    exec::SerialExecutor serial;
    reference_ = run_once(serial);
  }

  std::vector<double> op() override {
    if (run_once(*ex_) != reference_)
      throw CheckFailed("flat_block: result differs from the serial reference");
    return {};
  }

  void attribution_probe() override {
    const timing::TimingGraph& g = built_->graph;
    timing::PropagationResult r;
    {
      Span s("timing.forward_s");
      timing::propagate_arrivals_into(g, {}, r, *ex_);
    }
    Span s("timing.required_s");
    timing::propagate_required_into(g, {}, r, *ex_);
  }

  // The seed only renames nets here, so the results alone would not tell
  // two seeds apart; the input text does.
  uint64_t digest() const override {
    return util::Fnv1a().u64(input_digest_).u64(reference_).value();
  }

 private:
  uint64_t run_once(exec::Executor& ex) {
    const timing::TimingGraph& g = built_->graph;
    util::Fnv1a h;
    const core::SstaResult r = [&] {
      Span s("core.ssta_s");
      return core::run_ssta(g, ex);
    }();
    hash_form(h, r.delay);
    {
      Span s("core.slack_s");
      const core::SlackResult sl =
          core::compute_slack(g, r.delay.quantile(0.99), ex);
      for (size_t v = 0; v < sl.slack.size(); ++v)
        if (sl.valid[v]) hash_form(h, sl.slack[v]);
    }
    const std::vector<core::CriticalPath> paths = [&] {
      Span s("core.paths_s");
      return core::report_critical_paths(g, kPaths);
    }();
    count("core.paths_asked", kPaths);
    count("core.paths_returned", static_cast<double>(paths.size()));
    for (const core::CriticalPath& p : paths) {
      for (const timing::EdgeId e : p.edges) h.u64(e);
      hash_form(h, p.delay);
      h.f64(p.criticality);
    }
    return h.value();
  }

  RunParams p_;
  flow::Config cfg_;
  std::shared_ptr<exec::Executor> ex_;
  std::optional<timing::BuiltGraph> built_;
  uint64_t input_digest_ = 0;
  uint64_t reference_ = 0;
};

// --- eco_serve ----------------------------------------------------------------

/// The latency-bound ECO user: an in-process serve::Engine over a chain of
/// .hstm models characterized in set-up. A closed-loop client runs one
/// session script per op on two sessions in lockstep: each request goes to
/// both sessions at once, and the next waits for both replies.
class EcoServe final : public Workload {
 public:
  static constexpr size_t kStages = 4;
  static constexpr size_t kSessions = 2;
  static constexpr size_t kEngineThreads = 2;
  static constexpr const char* kModule = "c3540";

  explicit EcoServe(const RunParams& p)
      : p_(p), cfg_(config_with_threads(1)), dir_(fs::path(p.workdir)) {}

  size_t threads() const override { return kEngineThreads; }

  void setup() override {
    if (engine_) {
      tally_.add(engine_->stats_snapshot());
      engine_.reset();
    }
    exec::SerialExecutor serial;
    const Characterized c =
        characterize(kModule, suite_bench(kModule, p_.seed), cfg_, serial);
    edges_ = c.edges;
    fs::create_directories(dir_);
    write_text(dir_ / "m.hstm", c.hstm);
    write_text(dir_ / "v.hstm", scaled_variant_hstm(*c.model, 0.95));
    files_.assign(kStages, (dir_ / "m.hstm").string());

    serve::EngineOptions opts;
    opts.threads = kEngineThreads;
    opts.config = cfg_;
    engine_ = std::make_unique<serve::Engine>(opts);
    std::ostringstream os;
    util::JsonWriter w(os);
    w.begin_object();
    w.key("verb").value("load_design");
    w.key("name").value("eco");
    w.key("files").begin_array();
    for (const std::string& f : files_) w.value(f);
    w.end_array();
    w.end_object();
    const std::string load = engine_->request(os.str());
    if (load.find("\"ok\":true") == std::string::npos)
      throw CheckFailed("eco_serve: load_design failed: " + load);

    make_script();
    replay();
  }

  std::vector<double> op() override {
    const uint64_t parent = current_span();
    std::vector<double> lat;
    std::array<std::string, kSessions> lines, sessions;
    lines.fill("{\"verb\":\"open_session\",\"design\":\"eco\"}");
    const auto opened = round(lines, "open", parent, lat);
    for (size_t c = 0; c < kSessions; ++c) {
      const size_t at = opened[c].find("\"session\":");
      if (at == std::string::npos)
        throw CheckFailed("eco_serve: no session id: " + opened[c]);
      sessions[c] = std::to_string(std::stoull(opened[c].substr(at + 10)));
    }
    for (const Step& step : script_) {
      for (size_t c = 0; c < kSessions; ++c)
        lines[c] = "{\"verb\":\"" + step.kind + "\",\"session\":" +
                   sessions[c] + step.payload;
      for (const std::string& r : round(lines, step.kind, parent, lat)) {
        size_t pos = 0;
        for (const std::string& block : step.expected) {
          pos = r.find("\"delay\":" + block, pos);
          if (pos == std::string::npos)
            throw CheckFailed("eco_serve: " + step.kind +
                              " delay differs from the replay: " +
                              r.substr(0, 200));
          pos += block.size();
        }
      }
    }
    for (size_t c = 0; c < kSessions; ++c)
      lines[c] =
          "{\"verb\":\"close_session\",\"session\":" + sessions[c] + "}";
    (void)round(lines, "close", parent, lat);
    return lat;
  }

  EdgeTally edges() const override { return edges_; }

  uint64_t digest() const override {
    util::Fnv1a h;  // payloads name files in the run's work directory
    for (const Step& step : script_)
      for (const std::string& block : step.expected) h.str(block);
    return h.value();
  }

  /// Over every engine of the run: set-up replaces the engine.
  void layer_values(std::map<std::string, double>& out) const override {
    Tally t = tally_;
    if (engine_) t.add(engine_->stats_snapshot());
    out["serve.batch_fill"] = t.batches > 0 ? t.requests / t.batches : 0.0;
    out["serve.errors"] = t.errors;
  }

 private:
  struct Tally {
    double requests = 0.0, batches = 0.0, errors = 0.0;
    void add(const serve::EngineStats& s) {
      requests += static_cast<double>(s.requests);
      batches += static_cast<double>(s.batches);
      errors += static_cast<double>(s.responses_error +
                                    s.rejected_backpressure +
                                    s.rejected_shutdown);
    }
  };

  struct Step {
    std::string kind;     ///< "analyze" or "sweep"
    std::string change;   ///< analyze: sigma / move / swap / rewire
    std::string payload;  ///< the request's member after "session":N
    std::vector<std::string> expected;  ///< delay blocks, in order
  };

  /// One sweep, then one balanced cycle of changes, each followed by its
  /// undo so the session returns to its base state: four sigma scales, four
  /// swaps per stage, two rewires into each downstream stage and one move
  /// per downstream stage. The seed picks the sigma values, the rewired
  /// connections and the order; the mix of kinds and stages, and so the
  /// work, is fixed.
  ///
  /// Swaps (about 10 ms: a .hstm load and a restitch) are the bulk, so the
  /// median falls inside their cluster. With sigma requests (2-4 ms) as the
  /// bulk, thread hand-offs were a large share of each request and the
  /// median swung 25-30% from run to run.
  void make_script() {
    const flow::Design base = flow::build_chain_design("eco", files_, cfg_);
    const hier::HierDesign& h = base.hier();
    const placement::Die mdie = base.instance_model(0).die();
    const size_t no = base.num_outputs(0);
    stats::Rng rng(p_.seed ^ 0xEC0u);
    const std::string m = (dir_ / "m.hstm").string();
    const std::string v = (dir_ / "v.hstm").string();

    // (kind, change, undo) with each change in the wire schema.
    std::vector<std::array<std::string, 3>> pairs;
    auto add = [&](const std::string& kind,
                   const std::function<void(util::JsonWriter&, bool)>& body) {
      std::array<std::string, 3> p{kind, "", ""};
      for (int undo = 0; undo < 2; ++undo) {
        std::ostringstream os;
        util::JsonWriter w(os);
        w.begin_object();
        w.key("op").value(kind);
        body(w, undo == 1);
        w.end_object();
        p[1 + undo] = os.str();
      }
      pairs.push_back(std::move(p));
    };
    for (size_t k = 0; k < 4; ++k) {
      const double scale =
          0.8 + 0.05 * static_cast<double>(1 + rng.uniform_index(8));
      add("sigma", [&](util::JsonWriter& w, bool undo) {
        w.key("param").value(k % 3);
        w.key("scale").value(undo ? 1.0 : scale);
      });
    }
    for (size_t k = 0; k < 4 * kStages; ++k)
      add("swap", [&](util::JsonWriter& w, bool undo) {
        w.key("inst").value(k % kStages);
        w.key("file").value(undo ? m : v);
      });
    for (size_t stage = 1; stage < kStages; ++stage) {
      // A fixed offset: how a move cuts the design grid sets the size of
      // the design-space PCA it triggers, so a seeded offset would make the
      // work swing with the seed.
      const placement::Point o = h.instances()[stage].origin;
      add("move", [&](util::JsonWriter& w, bool undo) {
        w.key("inst").value(stage);
        w.key("x").value(o.x);
        w.key("y").value(undo ? o.y : o.y + 0.5 * mdie.height);
      });
      std::vector<size_t> into;
      for (size_t c = 0; c < h.connections().size(); ++c)
        if (h.connections()[c].to_input.instance == stage) into.push_back(c);
      for (int r = 0; r < 2; ++r) {
        const size_t conn = into[rng.uniform_index(into.size())];
        const hier::Connection c = h.connections()[conn];
        const size_t port =
            (c.from_output.port + 1 + rng.uniform_index(no - 1)) % no;
        add("rewire", [&](util::JsonWriter& w, bool undo) {
          w.key("conn").value(conn);
          w.key("from_inst").value(c.from_output.instance);
          w.key("from_port").value(undo ? c.from_output.port : port);
          w.key("to_inst").value(c.to_input.instance);
          w.key("to_port").value(c.to_input.port);
        });
      }
    }
    // One sweep: four sigma corners and a swap of every stage.
    std::ostringstream sw;
    util::JsonWriter w(sw);
    w.begin_array();
    for (size_t k = 0; k < 2 * kStages; ++k) {
      w.begin_object();
      w.key("label").value("s" + std::to_string(k));
      w.key("changes").begin_array();
      w.begin_object();
      if (k < kStages) {
        w.key("op").value("sigma");
        w.key("param").value(k % 3);
        w.key("scale").value(
            0.8 + 0.05 * static_cast<double>(1 + rng.uniform_index(8)));
      } else {
        w.key("op").value("swap");
        w.key("inst").value(k - kStages);
        w.key("file").value(v);
      }
      w.end_object();
      w.end_array();
      w.end_object();
    }
    w.end_array();

    for (size_t i = pairs.size(); i > 1; --i)
      std::swap(pairs[i - 1], pairs[rng.uniform_index(i)]);
    script_.assign(
        1, Step{"sweep", "", ",\"scenarios\":" + sw.str() + "}", {}});
    for (const auto& [kind, change, undo] : pairs)
      for (const std::string& json : {change, undo})
        script_.push_back(
            Step{"analyze", kind, ",\"changes\":[" + json + "]}", {}});
  }

  /// Serial incr::DesignState replay of the script: the expected delay
  /// block of every response, and the incremental layer's spans.
  void replay() {
    const flow::Design base = flow::build_chain_design("eco", files_, cfg_);
    incr::DesignState state = base.incremental();
    {
      Span s("incr.build_s");
      (void)state.analyze();
    }
    for (Step& step : script_) {
      step.expected.clear();
      const serve::Request req =
          serve::parse_request("{\"verb\":\"" + step.kind +
                               "\",\"session\":1" + step.payload);
      if (step.kind == "analyze") {
        Span s("incr.cone_s." + step.change);
        for (const serve::ChangeSpec& spec : req.changes)
          incr::apply_change(state, serve::resolve_change(spec, cfg_));
        (void)state.analyze();
        count("incr.vertices_recomputed",
              static_cast<double>(state.stats().vertices_recomputed));
        count("incr.vertices_live",
              static_cast<double>(state.stats().vertices_live));
        step.expected.push_back(delay_block(state.delay()));
      } else {
        std::vector<incr::Scenario> scenarios;
        for (const serve::ScenarioSpec& sc : req.scenarios) {
          incr::Scenario s;
          s.label = sc.label;
          for (const serve::ChangeSpec& c : sc.changes)
            s.changes.push_back(serve::resolve_change(c, cfg_));
          scenarios.push_back(std::move(s));
        }
        const incr::ScenarioRunner runner(state);
        for (const incr::ScenarioResult& r : runner.run(scenarios)) {
          if (!r.ok())
            throw CheckFailed("eco_serve: replay scenario failed: " + r.error);
          step.expected.push_back(delay_block(r.delay));
        }
      }
    }
  }

  /// One request per session, submitted back to back so that they share
  /// an engine batch; waits for every reply and throws if one is not ok.
  /// Each request is timed, and traced, from its submission to its reply.
  ///
  /// Lockstep makes each batch's content a function of the script. With a
  /// client thread per session, thread wake-ups decided which requests
  /// shared a batch, and run-level req_p99_ms spread 21-26% (IQR / median
  /// over five to ten seeds) and req_p50_ms 10-19%; in lockstep, 7% and 4%.
  std::array<std::string, kSessions> round(
      const std::array<std::string, kSessions>& lines, const std::string& verb,
      uint64_t parent, std::vector<double>& lat) {
    Tracer& tracer = Tracer::instance();
    std::array<std::promise<std::string>, kSessions> replies;
    std::array<double, kSessions> ms{};
    for (size_t c = 0; c < kSessions; ++c) {
      const uint64_t span =
          tracer.enabled() ? tracer.begin("serve.req_ms." + verb, parent) : 0;
      engine_->submit(lines[c], [&, c, span, t = WallTimer()](std::string r) {
        ms[c] = t.millis();
        if (span != 0) tracer.end(span);
        replies[c].set_value(std::move(r));
      });
    }
    std::array<std::string, kSessions> out;
    for (size_t c = 0; c < kSessions; ++c) {
      out[c] = replies[c].get_future().get();
      lat.push_back(ms[c]);
    }
    for (const std::string& r : out)
      if (r.find("\"ok\":true") == std::string::npos)
        throw CheckFailed("eco_serve: " + verb + " failed: " + r);
    return out;
  }

  RunParams p_;
  flow::Config cfg_;
  fs::path dir_;
  std::vector<std::string> files_;
  std::unique_ptr<serve::Engine> engine_;
  Tally tally_;  ///< engines replaced by a later set-up
  std::vector<Step> script_;
  EdgeTally edges_;
};

// --- campaign_grid --------------------------------------------------------------

/// A sigma x swap x move campaign over a star of .hstm models, sharded over
/// campaign-worker subprocesses and merged; the only workload that measures
/// the campaign layer (worker prepare, one round trip per scenario).
class CampaignGrid final : public Workload {
 public:
  static constexpr size_t kWorkers = 2;
  static constexpr size_t kInstances = 8;
  static constexpr size_t kMoves = 8;  ///< 4 x 3 x 8 = 96 scenarios
  static constexpr const char* kModule = "c1908";

  explicit CampaignGrid(const RunParams& p)
      : p_(p), cfg_(config_with_threads(1)), dir_(fs::path(p.workdir)) {}

  size_t threads() const override { return kWorkers; }

  void setup() override {
    exec::SerialExecutor serial;
    const Characterized c =
        characterize(kModule, suite_bench(kModule, p_.seed), cfg_, serial);
    edges_ = c.edges;
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    write_text(dir_ / "m.hstm", c.hstm);
    write_text(dir_ / "v95.hstm", scaled_variant_hstm(*c.model, 0.95));
    write_text(dir_ / "v105.hstm", scaled_variant_hstm(*c.model, 1.05));
    write_spec(c.model->die());

    campaign::CampaignOptions ref = options("ref", 0);
    {
      Span s("campaign.serial_s");
      WallTimer t;
      (void)campaign::run_campaign(spec_, ref);
      serial_s_ = t.seconds();
    }
    reference_ = campaign::merge_campaign(spec_, ref);
    fs::remove_all(ref.out_dir);
  }

  std::vector<double> op() override {
    const campaign::CampaignOptions o =
        options("op" + std::to_string(ops_++), kWorkers);
    campaign::RunStats st;
    {
      Span s("campaign.run_s");
      WallTimer t;
      st = campaign::run_campaign(spec_, o);
      run_s_.push_back(t.seconds());
    }
    count("campaign.redispatched", static_cast<double>(st.redispatched));
    std::string merged;
    {
      Span s("campaign.merge_s");
      merged = campaign::merge_campaign(spec_, o);
    }
    fs::remove_all(o.out_dir);
    if (st.failed != 0 || merged != reference_)
      throw CheckFailed("campaign_grid: merged report differs from the "
                        "in-process reference");
    return {};
  }

  EdgeTally edges() const override { return edges_; }

  uint64_t digest() const override {
    return util::Fnv1a().str(reference_).value();
  }

  void layer_values(std::map<std::string, double>& out) const override {
    if (run_s_.empty()) return;
    std::vector<double> r = run_s_;
    std::sort(r.begin(), r.end());
    out["campaign.speedup_vs_serial"] = serial_s_ / r[r.size() / 2];
  }

 private:
  campaign::CampaignOptions options(const std::string& sub,
                                    size_t workers) const {
    campaign::CampaignOptions o;
    o.out_dir = (dir_ / sub).string();
    o.workers = workers;
    o.worker_cmd = p_.worker_cmd;
    o.config = cfg_;
    return o;
  }

  /// 4 sigma scales x 3 models on instance 0 x kMoves positions of leaf 1.
  /// The seed picks the varied parameter and its scales; the positions are
  /// fixed, because where a move cuts the design grid sets the size of the
  /// PCA each scenario runs.
  void write_spec(const placement::Die& mdie) {
    stats::Rng rng(p_.seed ^ 0xCA4Bu);
    std::ostringstream os;
    util::JsonWriter w(os);
    w.begin_object();
    w.key("name").value("campaign_grid");
    w.key("base").begin_object();
    w.key("topology").value("star");
    w.key("files").begin_array();
    for (size_t i = 0; i < kInstances; ++i) w.value("m.hstm");
    w.end_array();
    w.end_object();
    w.key("axes").begin_array();
    w.begin_object();
    w.key("type").value("sigma");
    w.key("param").value(rng.uniform_index(3));
    w.key("scales").begin_array();
    for (int k = 0; k < 4; ++k)
      w.value(0.85 + 0.1 * k + 0.01 * static_cast<double>(rng.uniform_index(5)));
    w.end_array();
    w.end_object();
    w.begin_object();
    w.key("type").value("swap");
    w.key("inst").value(0);
    w.key("files").begin_array();
    w.value("m.hstm").value("v95.hstm").value("v105.hstm");
    w.end_array();
    w.end_object();
    w.begin_object();
    w.key("type").value("move");
    w.key("inst").value(1);
    w.key("points").begin_array();
    for (size_t k = 0; k < kMoves; ++k) {
      w.begin_array();
      w.value(mdie.width);
      w.value(mdie.height * 0.05 * static_cast<double>(k));
      w.end_array();
    }
    w.end_array();
    w.end_object();
    w.end_array();
    w.end_object();
    spec_ = (dir_ / "spec.json").string();
    write_text(spec_, os.str() + "\n");
  }

  RunParams p_;
  flow::Config cfg_;
  fs::path dir_;
  std::string spec_;
  std::string reference_;
  EdgeTally edges_;
  double serial_s_ = 0.0;
  std::vector<double> run_s_;
  size_t ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunParams& p) {
  if (name == "characterize") return std::make_unique<Characterize>(p);
  if (name == "soc_signoff") return std::make_unique<SocSignoff>(p);
  if (name == "flat_block") return std::make_unique<FlatBlock>(p);
  if (name == "eco_serve") return std::make_unique<EcoServe>(p);
  if (name == "campaign_grid") return std::make_unique<CampaignGrid>(p);
  return nullptr;
}

PaperReference paper_reference(size_t threads) {
  constexpr size_t kSamples = 2000;
  constexpr uint64_t kMcSeed = 2009;
  const flow::Config cfg = config_with_threads(threads);
  const std::shared_ptr<exec::Executor> ex = exec::make_executor(threads);
  const flow::Module m = flow::Module::from_iscas("c6288", cfg);
  PaperReference out;
  {
    Span s("model.extract_s");
    const model::Extraction& x = m.extract_model();
    out.edges = {x.stats.model_edges, x.stats.original_edges};
  }
  const flow::Design d = fig7_design(m, m.model().die(), cfg);
  const hier::HierResult proposed = [&] {
    Span s("hier.analyze_s");
    return hier::analyze_hierarchical(d.hier(), cfg.hier);
  }();
  WallTimer t;
  const stats::EmpiricalDistribution mc = [&] {
    Span s("mc.flat_mc_s");
    return mc::hier_flat_mc(d.hier(), kSamples, kMcSeed, *ex);
  }();
  out.mc_seconds = t.seconds();
  out.mc_samples = kSamples;
  const timing::CanonicalForm& delay = proposed.delay();
  out.sigma_err_pct =
      100.0 * std::fabs(delay.sigma() - mc.stddev()) / mc.stddev();
  out.ks_vs_mc = mc.ks_distance([&](double x) { return delay.cdf(x); });
  return out;
}

}  // namespace perfbench
