#include "hssta/campaign/campaign.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <poll.h>
#include <set>
#include <sstream>
#include <utility>

#include "hssta/campaign/process.hpp"
#include "hssta/check/check.hpp"
#include "hssta/exec/executor.hpp"
#include "hssta/flow/report.hpp"
#include "hssta/incr/scenario.hpp"
#include "hssta/util/error.hpp"
#include "hssta/util/hash.hpp"
#include "hssta/util/publish.hpp"

namespace hssta::campaign {

namespace fs = std::filesystem;

namespace {

constexpr size_t kNone = std::numeric_limits<size_t>::max();

uint64_t parse_fp(const std::string& hex) {
  // strtoull alone would accept a leading sign; fingerprints from shards
  // and handshakes are externally supplied, so insist on pure hex digits.
  bool all_hex = hex.size() == 16;
  for (const char c : hex)
    all_hex = all_hex && std::isxdigit(static_cast<unsigned char>(c));
  HSSTA_REQUIRE(all_hex, "fingerprint must be 16 hex digits, got '" + hex +
                             "'");
  return std::strtoull(hex.c_str(), nullptr, 16);
}

/// Ignore SIGPIPE only for the coordinator's lifetime — a dead worker's
/// stdin write must raise EPIPE, but an embedding process keeps its own
/// disposition once run_campaign returns.
struct SigpipeIgnore {
  void (*prev)(int);
  SigpipeIgnore() : prev(std::signal(SIGPIPE, SIG_IGN)) {}
  ~SigpipeIgnore() {
    if (prev != SIG_ERR) std::signal(SIGPIPE, prev);
  }
};

/// Everything a campaign derives from (spec_path, config): the analyzed
/// base design, its fingerprint, and the expanded scenario list with
/// resolved changes and content fingerprints. A pure function of its
/// inputs, so run, status, merge and every resumed run agree; workers
/// never see the spec, only the base this value publishes.
struct Prepared {
  CampaignSpec spec;
  flow::Design design;
  uint64_t base_fp = 0;
  std::vector<CampaignScenario> scenarios;
  std::vector<incr::Scenario> resolved;  ///< same order as `scenarios`
  std::vector<uint64_t> fps;

  Prepared(CampaignSpec s, flow::Design d)
      : spec(std::move(s)), design(std::move(d)) {}
};

Prepared prepare(const std::string& spec_path, const flow::Config& cfg) {
  CampaignSpec spec = parse_campaign_file(spec_path);
  flow::Design design = build_base_design(spec, cfg);
  Prepared p(std::move(spec), std::move(design));

  // Lint the base design before the first (expensive) full analysis: the
  // defect would otherwise surface as a deep exception mid-campaign, so
  // reject it once, up front, with the named diagnostics.
  const check::Report lint = p.design.check();
  if (lint.worst() == check::Severity::kError)
    throw Error("campaign: base design failed static checks:\n" +
                lint.summary());

  (void)p.design.analyze_incremental();  // first full build, warm base
  p.base_fp = incr::state_fingerprint(p.design.incremental());
  p.scenarios = expand(p.spec);

  // Resolve wire changes into engine changes, loading each variant model
  // once (shared across every scenario that swaps it in).
  std::map<std::string, std::shared_ptr<const model::TimingModel>> models;
  p.resolved.reserve(p.scenarios.size());
  p.fps.reserve(p.scenarios.size());
  for (const CampaignScenario& sc : p.scenarios) {
    incr::Scenario s;
    s.label = sc.label;
    s.changes.reserve(sc.changes.size());
    for (const serve::ChangeSpec& c : sc.changes) {
      if (c.op == serve::ChangeSpec::Op::kSwap) {
        std::shared_ptr<const model::TimingModel>& m = models[c.file];
        if (!m) m = flow::load_variant_model(c.file, cfg);
        s.changes.push_back(incr::ReplaceModule{c.inst, m});
      } else {
        s.changes.push_back(serve::resolve_change(c, cfg));
      }
    }
    p.fps.push_back(incr::scenario_fingerprint(p.base_fp, s.changes));
    p.resolved.push_back(std::move(s));
  }

  // The spec parser rejects structurally identical scenarios; two paths
  // to byte-identical variant files still collide here, by content.
  std::set<uint64_t> unique(p.fps.begin(), p.fps.end());
  HSSTA_REQUIRE(unique.size() == p.fps.size(),
                "campaign: two scenarios share a content fingerprint (swap "
                "axes listing byte-identical variant files?)");
  return p;
}

/// The five delay statistics of a shard (delay_json's members), from an
/// analyzed form or from a delay_json block — bit-exact either way, since
/// JsonWriter prints doubles with %.17g.
using DelayStats = std::array<double, 5>;

DelayStats delay_stats(const timing::CanonicalForm& d) {
  return {d.nominal(), d.sigma(), d.quantile(0.90), d.quantile(0.99),
          d.quantile(0.9987)};
}

DelayStats delay_stats(const util::JsonValue& d) {
  return {d.at("mean").as_number(), d.at("sigma").as_number(),
          d.at("q90").as_number(), d.at("q99").as_number(),
          d.at("q9987").as_number()};
}

void set_delay(ShardData& s, const DelayStats& d) {
  s.mean = d[0];
  s.sigma = d[1];
  s.q90 = d[2];
  s.q99 = d[3];
  s.q9987 = d[4];
}

ShardData make_shard(const CampaignScenario& sc, uint64_t fp, uint64_t base_fp,
                     const incr::ScenarioResult& r) {
  ShardData s;
  s.index = sc.index;
  s.label = sc.label;
  s.fingerprint = fp;
  s.base_fingerprint = base_fp;
  s.changes = r.changes;
  s.error = r.error;
  s.seconds = r.seconds;
  if (r.ok()) set_delay(s, delay_stats(r.delay));
  return s;
}

void write_shard(const std::string& out_dir, const ShardData& s) {
  const fs::path dir = fs::path(out_dir) / "shards";
  fs::create_directories(dir);
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("index").value(s.index);
  w.key("label").value(s.label);
  w.key("fingerprint").value(util::Fnv1a::hex(s.fingerprint));
  w.key("base_fingerprint").value(util::Fnv1a::hex(s.base_fingerprint));
  w.key("changes").value(s.changes);
  w.key("ok").value(s.ok());
  if (s.ok()) {
    w.key("delay").begin_object();
    w.key("mean").value(s.mean);
    w.key("sigma").value(s.sigma);
    w.key("q90").value(s.q90);
    w.key("q99").value(s.q99);
    w.key("q9987").value(s.q9987);
    w.end_object();
  } else {
    w.key("error").value(s.error);
  }
  w.key("seconds").value(s.seconds);
  w.end_object();
  util::publish_file(shard_path(out_dir, s.fingerprint),
                     [&](std::ostream& out) { out << os.str() << '\n'; });
}

/// One scenario's serve request: a single-scenario sweep on `session`.
std::string sweep_line(uint64_t session, const CampaignScenario& sc) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("verb").value("sweep");
  w.key("session").value(session);
  w.key("scenarios").begin_array();
  w.begin_object();
  w.key("label").value(sc.label);
  w.key("changes").begin_array();
  for (const serve::ChangeSpec& c : sc.changes) serve::write_change_spec(w, c);
  w.end_array();
  w.end_object();
  w.end_array();
  w.end_object();
  return os.str();
}

}  // namespace

std::string shard_path(const std::string& out_dir, uint64_t fingerprint) {
  return (fs::path(out_dir) / "shards" /
          (util::Fnv1a::hex(fingerprint) + ".json"))
      .string();
}

std::optional<ShardData> read_shard(const std::string& path,
                                    uint64_t fingerprint,
                                    uint64_t base_fingerprint) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  std::ostringstream text;
  text << is.rdbuf();
  try {
    const util::JsonValue doc = util::JsonReader::parse(text.str());
    ShardData s;
    s.index = doc.at("index").as_count("index");
    s.label = doc.at("label").as_string();
    s.fingerprint = parse_fp(doc.at("fingerprint").as_string());
    s.base_fingerprint = parse_fp(doc.at("base_fingerprint").as_string());
    if (s.fingerprint != fingerprint ||
        s.base_fingerprint != base_fingerprint)
      return std::nullopt;  // stale: different spec/base wrote this shard
    s.changes = doc.at("changes").as_string();
    if (doc.at("ok").as_bool()) {
      set_delay(s, delay_stats(doc.at("delay")));
    } else {
      s.error = doc.at("error").as_string();
      HSSTA_REQUIRE(!s.error.empty(), "error shard with empty error");
    }
    s.seconds = doc.at("seconds").as_number();
    return s;
  } catch (const std::exception&) {
    // Truncated/corrupt shards read as "not done": the scenario simply
    // re-runs and atomically replaces the bad file.
    return std::nullopt;
  }
}

std::string default_worker_cmd() {
  std::error_code ec;
  const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  if (!ec) {
    const fs::path dir = exe.parent_path();
    for (const fs::path& cand :
         {dir / "hssta_cli", dir.parent_path() / "hssta_cli"})
      if (fs::exists(cand, ec)) return cand.string();
  }
  return "hssta_cli";
}

RunStats run_campaign(const std::string& spec_path,
                      const CampaignOptions& opts) {
  HSSTA_REQUIRE(!opts.out_dir.empty(), "campaign needs an output directory");
  const Prepared p = prepare(spec_path, opts.config);
  fs::create_directories(fs::path(opts.out_dir) / "shards");

  RunStats stats;
  stats.total = p.scenarios.size();
  std::deque<size_t> queue;
  for (size_t i = 0; i < p.scenarios.size(); ++i) {
    if (read_shard(shard_path(opts.out_dir, p.fps[i]), p.fps[i], p.base_fp))
      ++stats.skipped;
    else
      queue.push_back(i);
  }
  const size_t budget =
      opts.limit == 0 ? queue.size() : std::min(opts.limit, queue.size());

  auto completed = [&](bool ok) {
    ++stats.executed;
    if (!ok) ++stats.failed;
  };

  if (budget == 0) {
    stats.remaining = queue.size();
    return stats;
  }

  if (opts.workers == 0) {
    // In-process reference path: the pending set as ONE ScenarioRunner
    // batch (bit-identical at any thread count by the runner's contract).
    std::vector<size_t> todo(queue.begin(), queue.begin() + budget);
    std::vector<incr::Scenario> batch;
    batch.reserve(todo.size());
    for (const size_t i : todo) batch.push_back(p.resolved[i]);
    const incr::ScenarioRunner runner(p.design.incremental());
    const std::shared_ptr<exec::Executor> ex =
        exec::make_executor(opts.config.threads);
    const std::vector<incr::ScenarioResult> rs = runner.run(batch, *ex);
    for (size_t k = 0; k < todo.size(); ++k) {
      const size_t i = todo[k];
      write_shard(opts.out_dir,
                  make_shard(p.scenarios[i], p.fps[i], p.base_fp, rs[k]));
      completed(rs[k].ok());
    }
    stats.remaining = stats.total - stats.skipped - stats.executed;
    return stats;
  }

  // Publish the analyzed base once; every worker restores it instead of
  // rebuilding it from the spec ("hsds 1" loads bit-identically).
  const std::string base_file =
      fs::absolute(fs::path(opts.out_dir) / "base.hsds").string();
  util::publish_file(base_file, [&](std::ostream& os) {
    p.design.incremental().save(os);
  });
  const DelayStats base_delay = delay_stats(p.design.incremental().delay());

  // Coordinator: single-threaded poll(2) loop over worker pipes. A dead
  // worker's stdin write raises EPIPE, not SIGPIPE.
  const SigpipeIgnore sigpipe_guard;

  std::vector<std::string> argv{
      opts.worker_cmd.empty() ? default_worker_cmd() : opts.worker_cmd,
      "campaign-worker"};
  argv.insert(argv.end(), opts.worker_args.begin(), opts.worker_args.end());

  struct WorkerState {
    std::unique_ptr<Subprocess> proc;
    enum class St { kStarting, kIdle, kBusy, kDead } st = St::kStarting;
    uint64_t session = 0;     ///< the worker's session on the base
    size_t scenario = kNone;  ///< expansion index in flight
  };
  using St = WorkerState::St;

  size_t started = 0;  // dispatched-or-completed executions this run

  auto on_death = [&](WorkerState& w) {
    if (w.st == St::kDead) return;
    w.st = St::kDead;
    w.proc->close_stdin();
    if (w.scenario == kNone) return;
    // Shards are written by this process only, so an in-flight scenario
    // of a dead worker has not completed: run it elsewhere.
    queue.push_front(w.scenario);
    w.scenario = kNone;
    --started;
    ++stats.redispatched;
  };

  const std::string restore = R"({"verb":"restore_session","file":)" +
                              util::JsonWriter::escape(base_file) + "}";
  std::vector<WorkerState> workers(std::min(opts.workers, budget));
  for (WorkerState& w : workers) {
    w.proc = std::make_unique<Subprocess>(argv);
    if (!w.proc->write_line(restore)) on_death(w);
  }

  auto dispatch = [&](WorkerState& w) {
    if (started >= budget || queue.empty()) return;
    const size_t i = queue.front();
    queue.pop_front();
    w.scenario = i;
    w.st = St::kBusy;
    ++started;
    if (!w.proc->write_line(sweep_line(w.session, p.scenarios[i]))) {
      // Died before we could hand it work; its EOF will follow.
      queue.push_front(i);
      --started;
      w.scenario = kNone;
      w.st = St::kDead;
    }
  };

  auto handle_line = [&](WorkerState& w, const std::string& line) {
    util::JsonValue doc;
    bool ok = false;
    try {
      doc = util::JsonReader::parse(line);
      ok = doc.at("ok").as_bool();
    } catch (const std::exception&) {
      on_death(w);  // stray output = protocol violation; redispatch
      return;
    }
    if (w.st == St::kStarting) {
      // The restore handshake. A refusal or a different base delay means
      // the worker cannot reproduce the coordinator's base (unreadable
      // file, other binary) — fatal, nothing was dispatched.
      if (!ok)
        throw Error("campaign worker failed to start: " +
                    doc.at("error").as_string());
      if (delay_stats(doc.at("delay")) != base_delay)
        throw Error("campaign worker handshake mismatch: the restored base "
                    "delay differs from the coordinator's — coordinator and "
                    "worker binaries disagree");
      w.session = doc.at("session").as_count("session");
      w.st = St::kIdle;
      dispatch(w);
      return;
    }
    if (w.st != St::kBusy || !ok) {
      // Unsolicited chatter, or a refused sweep: retire the worker and
      // redispatch its scenario elsewhere.
      on_death(w);
      return;
    }
    const size_t i = w.scenario;
    const std::vector<util::JsonValue>& results = doc.at("scenarios").items();
    if (results.size() != 1 ||
        parse_fp(results[0].at("fingerprint").as_string()) != p.fps[i])
      throw Error("campaign worker answered scenario " + std::to_string(i) +
                  " (" + p.scenarios[i].label +
                  ") with another fingerprint — it resolves the campaign's "
                  "changes differently (other config or binary)");
    const util::JsonValue& r = results[0];
    ShardData s;
    s.index = p.scenarios[i].index;
    s.label = p.scenarios[i].label;
    s.fingerprint = p.fps[i];
    s.base_fingerprint = p.base_fp;
    s.changes = r.at("changes").as_string();
    if (r.at("ok").as_bool())
      set_delay(s, delay_stats(r.at("delay")));
    else
      s.error = r.at("error").as_string();
    s.seconds = r.at("seconds").as_number();
    write_shard(opts.out_dir, s);
    w.scenario = kNone;
    w.st = St::kIdle;
    completed(s.ok());
    dispatch(w);
  };

  for (;;) {
    // Scenarios requeued by a worker death (or a failed dispatch write)
    // must reach whoever is idle BEFORE we block in poll: at the campaign
    // tail every survivor may be idle, and an idle worker never writes,
    // so poll alone would wait forever.
    for (WorkerState& w : workers)
      if (w.st == St::kIdle) dispatch(w);

    const bool work_left = started < budget && !queue.empty();
    bool any_busy = false, any_alive = false;
    for (const WorkerState& w : workers) {
      any_busy = any_busy || w.st == St::kBusy || w.st == St::kStarting;
      any_alive = any_alive || w.st != St::kDead;
    }
    if (!any_busy && (!work_left || !any_alive)) {
      if (work_left)
        throw Error("all campaign workers died with " +
                    std::to_string(queue.size()) + " scenarios outstanding");
      break;
    }

    std::vector<pollfd> fds;
    std::vector<size_t> owner;
    for (size_t wi = 0; wi < workers.size(); ++wi) {
      if (workers[wi].st == St::kDead) continue;
      fds.push_back(pollfd{workers[wi].proc->out_fd(), POLLIN, 0});
      owner.push_back(wi);
    }
    int rc;
    while ((rc = ::poll(fds.data(), fds.size(), -1)) < 0 && errno == EINTR) {
    }
    if (rc < 0)
      throw Error(std::string("campaign poll failed: ") +
                  std::strerror(errno));

    for (size_t k = 0; k < fds.size(); ++k) {
      if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      WorkerState& w = workers[owner[k]];
      std::vector<std::string> lines;
      const bool open = w.proc->read_available(lines);
      for (const std::string& l : lines) {
        if (w.st == St::kDead) break;
        handle_line(w, l);
      }
      if (!open) on_death(w);
    }
  }

  // Graceful drain: ask the survivors to stop, close their stdin, reap.
  for (WorkerState& w : workers) {
    if (w.st != St::kDead) {
      (void)w.proc->write_line("{\"verb\":\"shutdown\"}");
      w.proc->close_stdin();
    }
    (void)w.proc->wait();
  }

  stats.remaining = stats.total - stats.skipped - stats.executed;
  return stats;
}

StatusReport campaign_status(const std::string& spec_path,
                             const CampaignOptions& opts) {
  HSSTA_REQUIRE(!opts.out_dir.empty(), "campaign needs an output directory");
  const Prepared p = prepare(spec_path, opts.config);
  StatusReport r;
  r.name = p.spec.name;
  r.base_fingerprint = util::Fnv1a::hex(p.base_fp);
  r.total = p.scenarios.size();
  for (size_t i = 0; i < p.scenarios.size(); ++i) {
    const std::optional<ShardData> s =
        read_shard(shard_path(opts.out_dir, p.fps[i]), p.fps[i], p.base_fp);
    if (!s) continue;
    ++r.done;
    if (!s->ok()) ++r.failed;
  }
  return r;
}

std::string merge_campaign(const std::string& spec_path,
                           const CampaignOptions& opts) {
  HSSTA_REQUIRE(!opts.out_dir.empty(), "campaign needs an output directory");
  const Prepared p = prepare(spec_path, opts.config);

  std::vector<ShardData> shards;
  shards.reserve(p.scenarios.size());
  size_t missing = 0;
  for (size_t i = 0; i < p.scenarios.size(); ++i) {
    std::optional<ShardData> s =
        read_shard(shard_path(opts.out_dir, p.fps[i]), p.fps[i], p.base_fp);
    if (!s) {
      ++missing;
      continue;
    }
    shards.push_back(std::move(*s));
  }
  if (missing > 0)
    throw Error("campaign incomplete: " + std::to_string(missing) + " of " +
                std::to_string(p.scenarios.size()) +
                " scenarios have no shard yet; finish the run first "
                "(campaign status shows progress)");

  // The report is a pure function of (expansion order, shard contents):
  // shard arrival order, worker count and resume history cannot show.
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("campaign").value(p.spec.name);
  w.key("topology").value(p.spec.topology);
  w.key("base").begin_object();
  w.key("fingerprint").value(util::Fnv1a::hex(p.base_fp));
  w.key("instances").value(p.design.num_instances());
  w.key("delay");
  flow::delay_json(w, p.design.incremental().delay());
  w.end_object();

  w.key("scenarios").begin_array();
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardData& s = shards[i];
    w.begin_object();
    // Position/label from the deterministic expansion (authoritative);
    // results + provenance from the shard.
    w.key("label").value(p.scenarios[i].label);
    w.key("index").value(i);
    w.key("fingerprint").value(util::Fnv1a::hex(s.fingerprint));
    w.key("changes").value(s.changes);
    w.key("ok").value(s.ok());
    if (s.ok()) {
      w.key("delay").begin_object();
      w.key("mean").value(s.mean);
      w.key("sigma").value(s.sigma);
      w.key("q90").value(s.q90);
      w.key("q99").value(s.q99);
      w.key("q9987").value(s.q9987);
      w.end_object();
    } else {
      w.key("error").value(s.error);
    }
    w.end_object();
  }
  w.end_array();

  std::vector<const ShardData*> ok_shards;
  for (const ShardData& s : shards)
    if (s.ok()) ok_shards.push_back(&s);

  w.key("aggregate").begin_object();
  w.key("count").value(shards.size());
  w.key("ok").value(ok_shards.size());
  w.key("failed").value(shards.size() - ok_shards.size());
  if (!ok_shards.empty()) {
    // Fixed index-order folds, so the aggregates are bit-stable too.
    const auto stat = [&](const char* key, double ShardData::* field) {
      double lo = ok_shards.front()->*field, hi = lo, sum = 0.0;
      for (const ShardData* s : ok_shards) {
        lo = std::min(lo, s->*field);
        hi = std::max(hi, s->*field);
        sum += s->*field;
      }
      w.key(key).begin_object();
      w.key("min").value(lo);
      w.key("max").value(hi);
      w.key("mean").value(sum / static_cast<double>(ok_shards.size()));
      w.end_object();
    };
    w.key("delay").begin_object();
    stat("mean", &ShardData::mean);
    stat("sigma", &ShardData::sigma);
    stat("q90", &ShardData::q90);
    stat("q99", &ShardData::q99);
    stat("q9987", &ShardData::q9987);
    w.end_object();
  }
  w.end_object();

  // Worst-scenario ranking: q99 descending, index ascending on ties.
  std::vector<const ShardData*> ranked = ok_shards;
  std::sort(ranked.begin(), ranked.end(),
            [](const ShardData* a, const ShardData* b) {
              if (a->q99 != b->q99) return a->q99 > b->q99;
              return a->index < b->index;
            });
  if (ranked.size() > 10) ranked.resize(10);
  w.key("worst").begin_array();
  for (const ShardData* s : ranked) {
    w.begin_object();
    w.key("index").value(s->index);
    w.key("label").value(s->label);
    w.key("fingerprint").value(util::Fnv1a::hex(s->fingerprint));
    w.key("q99").value(s->q99);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  const std::string json = os.str() + "\n";
  util::publish_file((fs::path(opts.out_dir) / "campaign.json").string(),
                     [&](std::ostream& out) { out << json; });
  return json;
}

}  // namespace hssta::campaign
