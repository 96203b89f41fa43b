#include "cli/commands.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>

#include "baseline/bf_apsp.hpp"
#include "congest/engine.hpp"
#include "congest/faults.hpp"
#include "core/approx_apsp.hpp"
#include "core/blocker_apsp.hpp"
#include "core/bounds.hpp"
#include "core/pipelined_ssp.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "obs/critpath.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "serve/snapshot_manager.hpp"
#include "serve/wire.hpp"
#include "service/query_service.hpp"

namespace dapsp::cli {

namespace {

using graph::Graph;
using graph::kInfDist;
using graph::NodeId;
using graph::Weight;

/// Distance matrix + provenance shared by all APSP-ish commands.
struct DistOutput {
  std::vector<NodeId> sources;
  std::vector<std::vector<Weight>> dist;
  congest::RunStats stats;
  std::uint64_t bound = 0;
  std::string algo;
};

void write_table(const DistOutput& r, bool quiet, std::ostream& out) {
  out << "algorithm: " << r.algo << "\n"
      << "rounds: " << r.stats.rounds << " (bound " << r.bound << ")\n"
      << "messages: " << r.stats.total_messages
      << "  bytes: " << r.stats.message_bytes
      << "  max-link-congestion: " << r.stats.max_link_congestion << "\n"
      << "round-msgs: " << r.stats.round_messages_hist.summary() << "\n";
  if (r.stats.faults.any()) {
    const congest::FaultStats& f = r.stats.faults;
    out << "faults: dropped=" << f.dropped << " dup=" << f.duplicated
        << " delayed=" << f.delayed << " deferred=" << f.deferred
        << " crash-dropped=" << f.crash_dropped
        << " delivered=" << f.delivered << " max-backlog=" << f.max_backlog
        << "\n";
  }
  if (quiet) return;
  const std::size_t n = r.dist.empty() ? 0 : r.dist[0].size();
  out << "dist:\n     ";
  for (std::size_t v = 0; v < n; ++v) out << std::setw(5) << v;
  out << "\n";
  for (std::size_t i = 0; i < r.dist.size(); ++i) {
    out << std::setw(4) << r.sources[i] << " ";
    for (std::size_t v = 0; v < n; ++v) {
      if (r.dist[i][v] == kInfDist) {
        out << std::setw(5) << "inf";
      } else {
        out << std::setw(5) << r.dist[i][v];
      }
    }
    out << "\n";
  }
}

void write_json(const DistOutput& r, bool quiet, std::ostream& out) {
  // Through obs::JsonWriter so the algorithm label (which carries commas,
  // parens, and whatever a future solver puts in its name) is escaped and
  // the document always parses.
  obs::JsonWriter w(out);
  w.begin_object()
      .field("algorithm", r.algo)
      .field("rounds", static_cast<std::uint64_t>(r.stats.rounds))
      .field("bound", r.bound)
      .field("messages", r.stats.total_messages)
      .field("message_bytes", r.stats.message_bytes)
      .field("max_link_congestion", r.stats.max_link_congestion)
      .field("max_link_total", r.stats.max_link_total)
      .field("skipped_rounds", static_cast<std::uint64_t>(r.stats.skipped_rounds));
  w.key("round_messages");
  r.stats.round_messages_hist.write_json(w);
  if (r.stats.faults.any()) {
    const congest::FaultStats& f = r.stats.faults;
    w.key("faults")
        .begin_object()
        .field("dropped", f.dropped)
        .field("duplicated", f.duplicated)
        .field("delayed", f.delayed)
        .field("deferred", f.deferred)
        .field("crash_dropped", f.crash_dropped)
        .field("delivered", f.delivered)
        .field("max_backlog", f.max_backlog)
        .end_object();
  }
  if (!quiet) {
    w.key("sources").begin_array();
    for (const NodeId s : r.sources) w.value(static_cast<std::uint64_t>(s));
    w.end_array();
    w.key("dist").begin_array();
    for (const auto& row : r.dist) {
      w.begin_array();
      for (const Weight d : row) {
        if (d == kInfDist) {
          w.null();
        } else {
          w.value(static_cast<std::int64_t>(d));
        }
      }
      w.end_array();
    }
    w.end_array();
  }
  w.end_object();
  out << "\n";
}

void write_csv(const DistOutput& r, std::ostream& out) {
  // Header comment rows, then source,target,dist rows (inf omitted).
  out << "# algorithm," << r.algo << "\n# rounds," << r.stats.rounds
      << "\n# messages," << r.stats.total_messages << "\n";
  out << "source,target,dist\n";
  for (std::size_t i = 0; i < r.dist.size(); ++i) {
    for (std::size_t v = 0; v < r.dist[i].size(); ++v) {
      if (r.dist[i][v] == kInfDist) continue;
      out << r.sources[i] << ',' << v << ',' << r.dist[i][v] << "\n";
    }
  }
}

void emit(const Options& opt, const DistOutput& r, std::ostream& out) {
  std::ostringstream buffer;
  if (opt.format == Format::kJson) {
    write_json(r, opt.quiet, buffer);
  } else if (opt.format == Format::kCsv) {
    write_csv(r, buffer);
  } else {
    write_table(r, opt.quiet, buffer);
  }
  if (opt.out_file) {
    std::ofstream file(*opt.out_file);
    if (!file) throw std::runtime_error("cannot open " + *opt.out_file);
    file << buffer.str();
  } else {
    out << buffer.str();
  }
}

DistOutput run_apsp(const Options& opt, const Graph& g) {
  DistOutput r;
  r.sources.resize(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) r.sources[v] = v;
  switch (opt.algo) {
    case Algo::kPipelined: {
      const Weight delta = graph::max_finite_distance(g);
      auto res = core::pipelined_apsp(g, delta);
      r.dist = std::move(res.dist);
      r.stats = res.stats;
      r.bound = res.theoretical_bound;
      r.algo = "pipelined (Algorithm 1, Thm I.1 ii)";
      break;
    }
    case Algo::kBlocker: {
      core::BlockerApspParams p;
      p.h = opt.h;
      auto res = core::blocker_apsp(g, p);
      r.dist = std::move(res.dist);
      r.stats = res.stats;
      r.bound = res.theoretical_bound;
      r.algo = "blocker (Algorithm 3, Thm I.2, h=" + std::to_string(res.h) + ")";
      break;
    }
    case Algo::kBellmanFord: {
      auto res = baseline::bf_apsp(g);
      r.dist = std::move(res.dist);
      r.stats = res.stats;
      r.bound = static_cast<std::uint64_t>(g.node_count()) *
                (g.node_count() + 2ULL);
      r.algo = "bellman-ford baseline (n sequential SSSPs)";
      break;
    }
  }
  return r;
}

DistOutput run_kssp(const Options& opt, const Graph& g) {
  DistOutput r;
  const Weight delta = graph::max_finite_distance(g);
  if (opt.algo == Algo::kBlocker) {
    core::BlockerApspParams p;
    p.sources = opt.sources;
    p.h = opt.h;
    auto res = core::blocker_apsp(g, p);
    r.sources = res.sources;
    r.dist = std::move(res.dist);
    r.stats = res.stats;
    r.bound = res.theoretical_bound;
    r.algo = "blocker k-SSP (Algorithm 3)";
  } else {
    auto res = core::pipelined_kssp_full(g, opt.sources, delta);
    r.sources = res.sources;
    r.dist = std::move(res.dist);
    r.stats = res.stats;
    r.bound = res.theoretical_bound;
    r.algo = "pipelined k-SSP (Thm I.1 iii)";
  }
  return r;
}

DistOutput run_approx(const Options& opt, const Graph& g) {
  core::ApproxApspParams p;
  p.eps = opt.eps;
  auto res = core::approx_apsp(g, p);
  DistOutput r;
  r.sources.resize(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) r.sources[v] = v;
  r.dist = std::move(res.dist);
  r.stats = res.stats;
  r.bound = res.implementation_bound;
  std::ostringstream name;
  name << "approx APSP (Thm I.5, eps=" << opt.eps << ", " << res.scales
       << " scales)";
  r.algo = name.str();
  return r;
}

int cmd_info(const Options& opt, const Graph& g, std::ostream& out) {
  const Weight delta = graph::max_finite_distance(g);
  out << "nodes: " << g.node_count() << "\n"
      << "edges: " << g.comm_edge_count()
      << (g.directed() ? " (directed arcs: " + std::to_string(g.edge_count()) + ")"
                       : "")
      << "\n"
      << "max weight W: " << g.max_weight() << "\n"
      << "max finite distance Delta: " << delta << "\n"
      << "comm diameter: " << graph::comm_diameter(g) << "\n"
      << "strongly connected: "
      << (graph::strongly_connected(g) ? "yes" : "no") << "\n"
      << "Thm I.1(ii) APSP bound: "
      << core::bounds::apsp_pipelined(g.node_count(),
                                      static_cast<std::uint64_t>(delta))
      << " rounds\n";
  if (opt.dot_file) {
    std::ofstream dot(*opt.dot_file);
    if (!dot) throw std::runtime_error("cannot open " + *opt.dot_file);
    graph::write_dot(dot, g);
  }
  return 0;
}

int cmd_gen(const Options& opt, const Graph& g, std::ostream& out) {
  if (opt.out_file) {
    graph::save_graph(*opt.out_file, g);
  } else {
    graph::write_graph(out, g);
  }
  if (opt.dot_file) {
    std::ofstream dot(*opt.dot_file);
    if (!dot) throw std::runtime_error("cannot open " + *opt.dot_file);
    graph::write_dot(dot, g);
  }
  return 0;
}

service::OracleBuildOptions make_build_options(const Options& opt) {
  service::OracleBuildOptions b;
  b.solver = service::parse_solver(opt.solver);
  b.h = opt.h;
  b.eps = opt.eps;
  // With --critpath but no trace/profile recorder of its own, the build
  // profiles itself and the summary surfaces through the stats paths (text
  // `stats`, binary STATS opcode).  When a TraceScope recorder is active it
  // owns the observation and build_oracle skips this (see oracle.hpp).
  b.critpath = opt.critpath;
  return b;
}

/// Builds the oracle + query service for serve/query from the options.
/// --shards splits the closure into that many source-row shards
/// (bit-identical answers for every count); the human-readable header is
/// suppressed by --quiet and for json (machine-readable stream) and binary
/// (framed stream) output.
service::QueryService make_service(const Options& opt, const Graph& g,
                                   std::ostream& out, double* build_ms) {
  const auto t0 = std::chrono::steady_clock::now();
  service::DistanceOracle oracle =
      service::build_oracle(g, make_build_options(opt), opt.shards);
  *build_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  if (!opt.quiet &&
      (opt.format == Format::kTable || opt.format == Format::kCsv)) {
    out << "oracle: n=" << oracle.node_count() << " solver=["
        << oracle.solver_label() << "]"
        << " exact=" << (oracle.exact() ? "yes" : "no")
        << " paths=" << (oracle.has_paths() ? "yes" : "no")
        << " shards=" << oracle.shard_count()
        << " mem=" << (oracle.memory_bytes() / 1024) << "KiB"
        << " build=" << std::fixed << std::setprecision(1) << *build_ms
        << "ms rounds=" << oracle.build_stats().rounds << "\n";
    out.unsetf(std::ios::fixed);
  }
  service::QueryServiceConfig cfg;
  cfg.threads = opt.threads;
  cfg.path_cache_capacity = opt.cache_capacity;
  cfg.max_batch = opt.max_batch;
  return service::QueryService(std::move(oracle), cfg);
}

int cmd_serve(const Options& opt, const Graph& g, std::ostream& out) {
  double build_ms = 0;
  service::QueryService svc = make_service(opt, g, out, &build_ms);
  // Attach the input graph so the analytics families (kpath/route/report/bc)
  // answer instead of erroring.  Non-owning alias: `g` outlives the service
  // (both live in run_command's scope).
  svc.enable_analytics(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>{}, &g));
  // The manager gives the session's "rebuild" directive a real hot swap:
  // same graph + build options, fresh snapshot, published atomically under
  // whatever traffic the serve loop is carrying.
  serve::SnapshotManager manager(svc, g, make_build_options(opt), opt.shards);
  service::ServeOptions serve_opts;
  serve_opts.json = opt.format == Format::kJson;
  serve_opts.on_rebuild = [&manager] { return manager.rebuild_now(); };
  std::ifstream file;
  if (opt.queries_file) {
    const auto mode = opt.format == Format::kBinary
                          ? std::ios::in | std::ios::binary
                          : std::ios::in;
    file.open(*opt.queries_file, mode);
    if (!file) throw std::runtime_error("cannot open " + *opt.queries_file);
  }
  std::istream& in = opt.queries_file ? static_cast<std::istream&>(file)
                                      : std::cin;
  const int malformed =
      opt.format == Format::kBinary
          ? serve::wire::serve_binary(svc, in, out, serve_opts)
          : svc.serve_stream(in, out, serve_opts);
  if (!opt.quiet && opt.format == Format::kTable) {
    out << svc.stats().summary() << "\n";
  }
  return malformed == 0 ? 0 : 1;
}

int cmd_query(const Options& opt, const Graph& g, std::ostream& out) {
  double build_ms = 0;
  service::QueryService svc = make_service(opt, g, out, &build_ms);
  svc.enable_analytics(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>{}, &g));
  // Collect the batch: every --q, then every line of --queries.
  std::vector<std::string> lines = opt.query_strings;
  if (opt.queries_file) {
    std::ifstream file(*opt.queries_file);
    if (!file) throw std::runtime_error("cannot open " + *opt.queries_file);
    std::string line;
    while (std::getline(file, line)) {
      if (line.empty() || line[0] == '#') continue;
      lines.push_back(line);
    }
  }
  std::vector<service::Query> batch;
  batch.reserve(lines.size());
  for (const std::string& line : lines) {
    std::string error;
    const auto q = service::QueryService::parse_query(line, &error);
    if (!q) throw std::invalid_argument("bad query '" + line + "': " + error);
    batch.push_back(*q);
  }
  const auto results = svc.query_batch(batch);
  for (const auto& r : results) {
    if (opt.format == Format::kJson) {
      service::QueryService::write_result_json(r, out);
    } else {
      service::QueryService::write_result_text(r, out);
    }
  }
  if (!opt.quiet && opt.format != Format::kJson) {
    out << svc.stats().summary() << "\n";
  }
  return 0;
}

/// Process-wide trace recording for the duration of one command.  The
/// recorder is installed via Engine::set_global_recorder so it reaches the
/// engines the solvers construct internally (including oracle builds for
/// serve/query); RAII guarantees the global pointer never outlives the
/// recorder, even when the command throws.  File export is an explicit step
/// so open failures surface as command errors, not silent destructor noise.
///
/// --critpath (and the profile command, which implies it) additionally
/// turns on work-item recording so the recorder can feed the critical-path
/// analyzer; --trace-capacity overrides both ring capacities, which is how
/// the overflow warning below becomes testable on small runs.
class TraceScope {
 public:
  explicit TraceScope(const Options& opt) : opt_(opt) {
    const bool wants_items =
        opt_.critpath || opt_.command == Command::kProfile;
    // --critpath alone (no trace files, not the profile command) installs
    // nothing here: the oracle builder then profiles its own build and the
    // summary reaches the serve/query stats paths instead.
    if (opt_.trace_file || opt_.trace_jsonl_file ||
        opt_.command == Command::kProfile) {
      obs::TraceRecorder::Options ropt;
      if (opt_.trace_capacity) ropt.capacity = *opt_.trace_capacity;
      if (wants_items) {
        ropt.work_item_capacity =
            opt_.trace_capacity.value_or(std::size_t{1} << 20);
      }
      recorder_ = std::make_unique<obs::TraceRecorder>(ropt);
      congest::Engine::set_global_recorder(recorder_.get());
    }
  }
  ~TraceScope() {
    if (recorder_) congest::Engine::set_global_recorder(nullptr);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  const obs::TraceRecorder* recorder() const { return recorder_.get(); }

  void export_files() const {
    if (!recorder_) return;
    if (opt_.trace_file) {
      std::ofstream f(*opt_.trace_file);
      if (!f) throw std::runtime_error("cannot open " + *opt_.trace_file);
      recorder_->write_chrome_trace(f);
    }
    if (opt_.trace_jsonl_file) {
      std::ofstream f(*opt_.trace_jsonl_file);
      if (!f) throw std::runtime_error("cannot open " + *opt_.trace_jsonl_file);
      recorder_->write_run_record(f);
    }
  }

  /// Ring overflow is a first-class warning, not a buried counter: a
  /// silently truncated trace reads exactly like a complete one.  The same
  /// counts are stamped into the run-record meta line; this is the
  /// human-facing copy.
  void warn_drops(std::ostream& err) const {
    if (!recorder_) return;
    const std::uint64_t ev = recorder_->dropped_events();
    const std::uint64_t wi = recorder_->dropped_work_items();
    if (ev == 0 && wi == 0) return;
    err << "warning: trace ring overflow: " << ev << " round events and "
        << wi
        << " work items overwritten; the record is incomplete (raise "
           "--trace-capacity)\n";
  }

 private:
  const Options& opt_;
  std::unique_ptr<obs::TraceRecorder> recorder_;
};

/// `dapsp profile`: run a solver under the critical-path profiler and
/// report where its wall-clock went.  With --sources the target is a k-SSP
/// run (respecting --algo); otherwise an oracle build for --solver -- the
/// same builds serve/query time, now explained.  The two check lines are
/// the analyzer's self-consistency invariants (chain-span wall-clock can
/// never exceed the command's wall-clock, and a real critical path must
/// cover at least the largest single phase); CI's profile-smoke step
/// asserts them from the json form.
int cmd_profile(const Options& opt, const Graph& g,
                const obs::TraceRecorder& rec, std::ostream& out) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string target;
  congest::RunStats run_stats;
  if (!opt.sources.empty()) {
    DistOutput r = run_kssp(opt, g);
    target = std::move(r.algo);
    run_stats = std::move(r.stats);
  } else {
    const auto oracle = service::build_oracle(g, make_build_options(opt));
    target = oracle.solver_label();
    run_stats = oracle.build_stats();
  }
  const auto wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());

  obs::CritPathOptions copt;
  copt.top_k_segments = opt.top_k;
  const obs::CritPathReport rep = obs::analyze_critical_path(rec, copt);
  const bool chain_le_wall = rep.total_ns <= wall_ns;
  const bool chain_ge_max_phase = rep.total_ns >= rep.max_phase_ns;

  std::ostringstream buffer;
  if (opt.format == Format::kJson) {
    obs::JsonWriter w(buffer);
    w.begin_object()
        .field("type", "profile")
        .field("target", target)
        .field("n", static_cast<std::uint64_t>(g.node_count()))
        .field("m", static_cast<std::uint64_t>(g.comm_edge_count()))
        .field("wall_ns", wall_ns)
        .field("messages", run_stats.total_messages)
        .field("message_bytes", run_stats.message_bytes)
        .field("deliver_s", run_stats.deliver_seconds)
        .field("chain_le_wall", chain_le_wall)
        .field("chain_ge_max_phase", chain_ge_max_phase);
    w.key("critpath");
    obs::write_critpath_json(rep, w);
    w.end_object();
    buffer << "\n";
  } else {
    buffer << "profile: " << target << "\n"
           << "graph: n=" << g.node_count() << " m=" << g.comm_edge_count()
           << "\n"
           << "wall: " << std::fixed << std::setprecision(2)
           << (static_cast<double>(wall_ns) / 1e6) << "ms\n"
           << "deliver: messages=" << run_stats.total_messages
           << " bytes=" << run_stats.message_bytes << " ("
           << (run_stats.deliver_seconds * 1e3) << "ms)\n";
    buffer.unsetf(std::ios::fixed);
    obs::write_critpath_table(rep, buffer);
    buffer << "check: chain<=wall " << (chain_le_wall ? "yes" : "NO")
           << "  chain>=max-phase " << (chain_ge_max_phase ? "yes" : "NO")
           << "\n";
  }
  if (opt.out_file) {
    std::ofstream file(*opt.out_file);
    if (!file) throw std::runtime_error("cannot open " + *opt.out_file);
    file << buffer.str();
  } else {
    out << buffer.str();
  }
  return chain_le_wall ? 0 : 1;
}

/// Process-wide fault injection for the duration of one command.  Parses
/// --faults into a FaultPlan (applying the --fault-seed override) and
/// installs it via Engine::set_global_fault_plan so every engine the
/// command constructs -- including oracle builds for serve/query -- runs
/// under the same plan.  RAII clears the global even when the command
/// throws, so a failed faulted run cannot leak faults into a later one.
class FaultScope {
 public:
  explicit FaultScope(const Options& opt) {
    if (!opt.faults_spec) return;
    plan_ = congest::FaultPlan::parse(*opt.faults_spec);
    if (opt.fault_seed) plan_.seed = *opt.fault_seed;
    congest::Engine::set_global_fault_plan(&plan_);
    installed_ = true;
  }
  ~FaultScope() {
    if (installed_) congest::Engine::set_global_fault_plan(nullptr);
  }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  congest::FaultPlan plan_;
  bool installed_ = false;
};

/// Process-wide worker pinning for the duration of one command (--pin):
/// every engine the command constructs pins its resolved pool's workers.
/// RAII clears the override so library callers never inherit it.
class PinScope {
 public:
  explicit PinScope(const Options& opt) : installed_(opt.pin) {
    if (installed_) congest::Engine::set_force_pin(true);
  }
  ~PinScope() {
    if (installed_) congest::Engine::set_force_pin(false);
  }
  PinScope(const PinScope&) = delete;
  PinScope& operator=(const PinScope&) = delete;

 private:
  bool installed_;
};

}  // namespace

Graph make_input_graph(const Options& opt) {
  if (opt.graph_file) return graph::load_graph(*opt.graph_file);
  const graph::WeightSpec w{opt.wmin, opt.wmax, opt.zero_fraction};
  if (opt.gen == "erdos_renyi") {
    return graph::erdos_renyi(opt.n, opt.p, w, opt.seed, opt.directed);
  }
  if (opt.gen == "grid") {
    const auto side = static_cast<NodeId>(std::max<NodeId>(
        2, static_cast<NodeId>(std::sqrt(static_cast<double>(opt.n)))));
    return graph::grid(side, (opt.n + side - 1) / side, w, opt.seed);
  }
  if (opt.gen == "cycle") return graph::cycle(opt.n, w, opt.seed, opt.directed);
  if (opt.gen == "path") return graph::path(opt.n, w, opt.seed, opt.directed);
  if (opt.gen == "tree") return graph::random_tree(opt.n, w, opt.seed);
  if (opt.gen == "ba") return graph::barabasi_albert(opt.n, 2, w, opt.seed);
  if (opt.gen == "rmat") {
    return graph::rmat(opt.scale, opt.edgefactor, w, opt.seed, opt.directed,
                       /*connect=*/true, opt.threads);
  }
  throw std::invalid_argument("unknown generator '" + opt.gen + "'");
}

int run_command(const Options& opt, std::ostream& out, std::ostream& err) {
  try {
    if (opt.command == Command::kHelp) {
      out << usage();
      return 0;
    }
    const Graph g = make_input_graph(opt);
    const TraceScope trace(opt);
    const FaultScope faults(opt);
    const PinScope pin(opt);
    int rc = 0;
    switch (opt.command) {
      case Command::kGen:
        rc = cmd_gen(opt, g, out);
        break;
      case Command::kInfo:
        rc = cmd_info(opt, g, out);
        break;
      case Command::kApsp:
        emit(opt, run_apsp(opt, g), out);
        break;
      case Command::kKssp:
        emit(opt, run_kssp(opt, g), out);
        break;
      case Command::kApprox:
        emit(opt, run_approx(opt, g), out);
        break;
      case Command::kServe:
        rc = cmd_serve(opt, g, out);
        break;
      case Command::kQuery:
        rc = cmd_query(opt, g, out);
        break;
      case Command::kProfile:
        rc = cmd_profile(opt, g, *trace.recorder(), out);
        break;
      case Command::kHelp:
        break;
    }
    trace.export_files();
    trace.warn_drops(err);
    return rc;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace dapsp::cli
