#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <string_view>

#include "congest/engine.hpp"
#include "core/pipelined_ssp.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "query/analytics.hpp"
#include "reference.hpp"
#include "seq/constrained.hpp"
#include "seq/dijkstra.hpp"
#include "seq/yen.hpp"
#include "serve/sharded_oracle.hpp"
#include "serve/snapshot_manager.hpp"
#include "service/oracle.hpp"
#include "service/query_service.hpp"

namespace perfbench {

void RunResult::fail(const std::string& what) {
  if (errors.size() < 5) errors.push_back(what);
}

namespace {

using dapsp::graph::Graph;
using dapsp::graph::kInfDist;
using dapsp::graph::kNoNode;
using dapsp::graph::NodeId;
using dapsp::graph::Weight;
using dapsp::service::Query;
using dapsp::service::QueryResult;
using dapsp::service::QueryService;
using dapsp::service::QueryType;
namespace graph = dapsp::graph;
namespace service = dapsp::service;

const graph::WeightSpec kWeights{0, 8, 0.0};

// Graphs (and the grid-paths hot-pair set) are pinned per workload; --seed
// drives the query streams.  A fixed
// graph keeps build work identical across runs, and on grid-apsp it pins
// the paper's counts: Algorithm 1 on the 16x16 grid of seed 2 takes exactly
// these many rounds and messages, and any drift is a wrong answer.
constexpr std::uint64_t kGridApspGraphSeed = 2;
constexpr std::uint64_t kRmatGraphSeed = 1;
constexpr std::uint64_t kGridPathsGraphSeed = 1;
constexpr std::uint64_t kHotPairsSeed = 1;  // which grid-paths pairs are hot
constexpr std::uint64_t kGridApspRounds = 3136;
constexpr std::uint64_t kGridApspMessages = 444394;

constexpr std::size_t kPointLines = std::size_t{1} << 18;
constexpr std::size_t kSampleSources = 16;
constexpr std::size_t kAnswerLogCap = std::size_t{1} << 17;
constexpr std::size_t kProbeOps = std::size_t{1} << 16;
constexpr std::size_t kPathOps = std::size_t{1} << 17;
constexpr double kQpsWindowS = 0.25;
constexpr int kRmatBuilds = 3;
constexpr double kRmatQueryShare = 0.4;  // of --seconds, over all segments
constexpr std::size_t kShards = 4;
constexpr std::uint32_t kKPaths = 4;
constexpr std::uint32_t kRouteHops = 64;
constexpr int kDecompositions = 5;  // traced grid-apsp build probes
// grid-paths hot-pair skew: YCSB's default Zipfian constant (Cooper et al.,
// "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010), the usual
// stand-in for skewed key popularity in serving benchmarks.
constexpr double kZipfExponent = 0.99;
// Path-cache warm-up on that stream: after a swap, the hit rate over the
// last 1000 path queries first reaches 95% of its steady value (~0.49 with
// the default 4096-entry cache) about 5000 path queries in.  Rebuilding
// every two warm-ups gives the refilling cache and the warm one equal
// shares of each segment.
constexpr std::uint64_t kCacheWarmupPaths = 5000;
constexpr std::uint64_t kRebuildEveryPaths = 2 * kCacheWarmupPaths;
// Analytics answers compared with the sequential references after the loop.
// seq::k_shortest_paths takes about 1.5 s per pair on the 32x32 grid.
constexpr std::size_t kKPathChecks = 2;
constexpr std::size_t kRouteChecks = 64;

// Seed streams, so each input family draws independently from one --seed.
constexpr std::uint64_t kMixStream = 0x6d6978;
constexpr std::uint64_t kPairStream = 0x70616972;
constexpr std::uint64_t kFreshStream = 0x6672657368;
constexpr std::uint64_t kSampleStream = 0x73616d70;
constexpr std::uint64_t kProbeStream = 0x70726f6265;
constexpr std::uint64_t kAvoidStream = 0x61766f6964;

const char* query_span(QueryType t) {
  switch (t) {
    case QueryType::kDist: return "service.query.dist";
    case QueryType::kNextHop: return "service.query.next";
    case QueryType::kPath: return "service.query.path";
    case QueryType::kKPaths: return "service.query.kpath";
    case QueryType::kRoute: return "service.query.route";
    default: return "service.query.other";
  }
}

service::QueryServiceConfig service_config() {
  service::QueryServiceConfig c;
  c.threads = 1;  // one client thread, no query_batch pool
  return c;
}

/// Times the workload's set-up, graph generation.  It is repeated between
/// the timed phases as well as before them, so its median samples the same
/// stretch of host load as the other metrics.
template <class Gen>
class Setup {
 public:
  explicit Setup(Gen gen) : gen_(std::move(gen)) {}
  Graph run(int reps) {
    Graph g;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = Clock::now();
      Graph fresh = gen_();
      times_.push_back(static_cast<double>(ns_since(t0, Clock::now())) * 1e-9);
      g = std::move(fresh);
    }
    return g;
  }
  double median_s() const { return median(times_); }

 private:
  Gen gen_;
  std::vector<double> times_;
};

std::vector<NodeId> sample_sources(NodeId n, std::uint64_t seed) {
  Rng rng(seed ^ kSampleStream);
  std::vector<NodeId> out;
  while (out.size() < std::min<std::size_t>(kSampleSources, n)) {
    const auto s = static_cast<NodeId>(rng.below(n));
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  return out;
}

std::uint64_t path_hash(const std::vector<NodeId>& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const NodeId x : p) h = (h ^ x) * 0x100000001b3ULL;
  return h;
}

NodeId first_hop(const std::vector<NodeId>& path) {
  return path.size() >= 2 ? path[1] : kNoNode;
}

// ------------------------------------------------------------ point loop

/// Text-protocol lines with an exact 80/10/10 dist/next/path mix over
/// uniform pairs, stored contiguously (fixed memory, generated up front).
class Lines {
 public:
  void add(std::string_view s) {
    off_.push_back(static_cast<std::uint32_t>(buf_.size()));
    buf_.append(s);
  }
  std::string_view at(std::size_t i) const {
    const std::size_t end = i + 1 < off_.size() ? off_[i + 1] : buf_.size();
    return std::string_view(buf_).substr(off_[i], end - off_[i]);
  }
  std::size_t size() const { return off_.size(); }

 private:
  std::string buf_;
  std::vector<std::uint32_t> off_;
};

Lines point_lines(NodeId n, std::size_t count, std::uint64_t seed) {
  static const char* kWord[] = {"dist", "next", "path"};
  OpMix mix({80, 10, 10}, seed ^ kMixStream);
  UniformPairs pairs(n, seed ^ kPairStream);
  Lines lines;
  for (std::size_t i = 0; i < count; ++i) {
    const auto [u, v] = pairs.next();
    lines.add(std::string(kWord[mix.next()]) + " " + std::to_string(u) + " " +
              std::to_string(v));
  }
  return lines;
}

/// Answers for a fixed sample of sources, recorded during the timed loop
/// (bounded, so memory does not grow with throughput) and checked against
/// the benchmark's own reference afterwards.
class AnswerLog {
 public:
  AnswerLog(NodeId n, const std::vector<NodeId>& sources)
      : sources_(sources), in_sample_(n, 0) {
    for (const NodeId s : sources) in_sample_[s] = 1;
    log_.reserve(kAnswerLogCap);
  }
  void record(const QueryResult& r) {
    if (!in_sample_[r.u] || log_.size() == kAnswerLogCap) return;
    log_.push_back({r.u, r.v, r.type, r.dist, r.next_hop,
                    r.path.size(), path_hash(r.path)});
  }
  void check(const Graph& g, RunResult& res) const {
    for (const NodeId s : sources_) {
      const ReferenceRow row = reference_sssp(g, s);
      for (const Entry& e : log_) {
        if (e.u != s) continue;
        const std::vector<NodeId> want = reference_path(row, s, e.v);
        const bool ok =
            e.type == QueryType::kNextHop
                ? e.next == first_hop(want)
                : e.dist == row.dist[e.v] &&
                      (e.type != QueryType::kPath ||
                       (e.path_len == want.size() &&
                        e.path_hash == path_hash(want)));
        if (!ok) {
          res.tally.fail_late();
          res.fail(std::string("answer differs from the reference: ") +
                   service::query_type_name(e.type) + " " +
                   std::to_string(e.u) + " " + std::to_string(e.v));
        }
      }
    }
  }
 private:
  struct Entry {
    NodeId u, v;
    QueryType type;
    Weight dist;
    NodeId next;
    std::size_t path_len;
    std::uint64_t path_hash;
  };
  std::vector<NodeId> sources_;
  std::vector<char> in_sample_;
  std::vector<Entry> log_;
};

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// The single closed-loop client of the point-query workloads: parse ->
/// query -> render one line at a time.  Latency covers the three calls.
/// The loop runs in segments interleaved with builds, so both see the same
/// stretch of host load.  qps is the median, over stretches of at most
/// kQpsWindowS, of queries per second spent inside the calls (the client's
/// own checking is excluded); the median keeps a burst of neighbour load on
/// a shared host from moving it.
class PointClient {
 public:
  PointClient(const Lines& lines, AnswerLog& log, const RunConfig& cfg,
              RunResult& res)
      : lines_(lines), log_(log), tr_(cfg.tracer), cpu_(cfg.cpu), res_(res),
        out_(&sink_) {}

  void segment(const QueryService& svc, double secs) {
    const auto deadline = Clock::now() + seconds(secs);
    auto window_end = Clock::now() + seconds(kQpsWindowS);
    std::uint64_t busy_ns = 0;
    std::uint64_t queries = 0;
    for (;; ++cursor_) {
      const std::string_view line = lines_.at(cursor_ % lines_.size());
      Tracer* otr = tr_ != nullptr && tr_->sample_op() ? tr_ : nullptr;
      const std::uint64_t bytes_before = sink_.bytes;
      std::optional<Query> q;
      QueryResult r;
      const auto t0 = Clock::now();
      {
        Scope op(otr, "op");
        {
          Scope s(otr, "service.parse");
          q = QueryService::parse_query(line, &err_);
        }
        if (q) {
          {
            Scope s(otr, query_span(q->type));
            r = svc.query(*q);
          }
          Scope s(otr, "service.render");
          QueryService::write_result_text(r, out_);
        }
      }
      const auto t1 = Clock::now();
      const std::uint64_t ns = ns_since(t0, t1);
      res_.latency.record(ns);
      busy_ns += ns;
      ++queries;
      const bool ok = q && r.ok && sink_.bytes > bytes_before;
      res_.tally.record(ok);
      if (ok) {
        log_.record(r);
      } else {
        res_.fail("query '" + std::string(line) + "' failed: " +
                  (q ? r.error : err_));
      }
      if (t1 >= window_end || t1 >= deadline) {
        window_qps_.push_back(static_cast<double>(queries) /
                              (static_cast<double>(busy_ns) * 1e-9));
        busy_ns = 0;
        queries = 0;
        if (t1 >= deadline) break;
        cpu_->repin();
        window_end = Clock::now() + seconds(kQpsWindowS);
      }
    }
    ++cursor_;
  }

  double qps() const { return median(window_qps_); }

 private:
  const Lines& lines_;
  AnswerLog& log_;
  Tracer* tr_;
  CpuPicker* cpu_;
  RunResult& res_;
  CountingBuf sink_;
  std::ostream out_;
  std::string err_;
  std::size_t cursor_ = 0;
  std::vector<double> window_qps_;
};

// ------------------------------------------------------------ grid-apsp

/// RunStats of a real build, as counters on its span.
void trace_run_stats(Tracer* tr, const dapsp::congest::RunStats& st) {
  tr->counter("congest.rounds", static_cast<double>(st.rounds));
  tr->counter("congest.messages", static_cast<double>(st.total_messages));
  tr->counter("congest.send_s", st.send_seconds);
  tr->counter("congest.receive_s", st.receive_seconds);
  tr->counter("congest.deliver_s", st.deliver_seconds);
  tr->counter("congest.skipped_rounds", static_cast<double>(st.skipped_rounds));
  tr->counter("congest.message_bytes", static_cast<double>(st.message_bytes));
  tr->counter("congest.max_link_congestion",
              static_cast<double>(st.max_link_congestion));
}

// The traced run times the real build_oracle calls as `build` spans, like
// the untraced run.  Its layers are timed by the probes below, which replay
// the public calls build_oracle makes one by one, after the timed phase.

/// build_oracle(kPipelined) step by step: max_finite_distance,
/// pipelined_apsp, make_oracle.
std::size_t probe_pipelined_build(const Graph& g, Tracer* tr) {
  Scope build(tr, "probe.build");
  Weight delta = 0;
  {
    Scope s(tr, "graph.max_finite_distance");
    delta = graph::max_finite_distance(g);
  }
  dapsp::core::KsspResult r;
  {
    Scope s(tr, "core.solve");
    r = dapsp::core::pipelined_apsp(g, delta);
  }
  tr->counter("core.max_list_size", static_cast<double>(r.max_list_size));
  tr->counter("core.max_entries_per_source",
              static_cast<double>(r.max_entries_per_source));
  tr->counter("core.late_fires", static_cast<double>(r.late_fires));
  tr->counter("core.settle_round", static_cast<double>(r.settle_round));
  tr->counter("core.round_bound", static_cast<double>(r.theoretical_bound));
  Scope s(tr, "service.flatten");
  return service::make_oracle(
             r.dist, r.parent,
             {"pipelined APSP (Algorithm 1, Thm I.1 ii)", true, r.stats, {}})
      .node_count();
}

/// build_oracle(kReference) step by step: the seq::dijkstra sweep and
/// make_oracle, then next_hops_from_parents over every row timed alone.
std::uint64_t probe_reference_build(const Graph& g, Tracer* tr) {
  const NodeId n = g.node_count();
  Scope build(tr, "probe.build");
  std::vector<std::vector<Weight>> dist(n);
  std::vector<std::vector<NodeId>> parent(n);
  {
    Scope s(tr, "seq.sweep");
    tr->counter("seq.arcs_x_sources", static_cast<double>(g.edge_count()) * n);
    for (NodeId src = 0; src < n; ++src) {
      auto r = dapsp::seq::dijkstra(g, src);
      dist[src] = std::move(r.dist);
      parent[src] = std::move(r.parent);
    }
  }
  std::uint64_t keep = 0;
  {
    Scope s(tr, "service.flatten");
    keep += service::make_oracle(
                dist, parent,
                {"reference (sequential Dijkstra sweep)", true, {}, {}})
                .node_count();
  }
  Scope s(tr, "service.nexthop_fill", n);
  std::vector<NodeId> row(n);
  for (NodeId src = 0; src < n; ++src) {
    std::fill(row.begin(), row.end(), kNoNode);
    service::next_hops_from_parents(src, n, dist[src], parent[src], row.data());
    keep += row[(src + 1) % n];
  }
  return keep;
}

}  // namespace

RunResult run_grid_apsp(const RunConfig& cfg) {
  RunResult res;
  Tracer* tr = cfg.tracer;
  // One engine thread: results stay bit-identical and the OS scheduler
  // stays out of the number.
  dapsp::congest::Engine::set_force_threads(1);
  Setup setup([] { return graph::grid(16, 16, kWeights, kGridApspGraphSeed); });
  const Graph g = setup.run(5);
  const NodeId n = g.node_count();

  // Reference closure: distances and canonical first hops.
  std::vector<Weight> ref_dist(std::size_t{n} * n);
  std::vector<NodeId> ref_next(std::size_t{n} * n);
  for (NodeId s = 0; s < n; ++s) {
    const ReferenceRow row = reference_sssp(g, s);
    for (NodeId v = 0; v < n; ++v) {
      ref_dist[std::size_t{s} * n + v] = row.dist[v];
      ref_next[std::size_t{s} * n + v] = first_hop(reference_path(row, s, v));
    }
  }
  const auto check_build = [&](const service::OracleSnapshot& o) {
    const auto& st = o.build_stats();
    res.rounds = st.rounds;
    res.messages = st.total_messages;
    bool ok = o.node_count() == n && st.rounds == kGridApspRounds &&
              st.total_messages == kGridApspMessages;
    for (NodeId s = 0; ok && s < n; ++s) {
      for (NodeId v = 0; ok && v < n; ++v) {
        ok = o.dist(s, v) == ref_dist[std::size_t{s} * n + v] &&
             o.next_hop(s, v) == ref_next[std::size_t{s} * n + v];
      }
    }
    res.tally.record(ok);
    if (!ok) {
      res.fail("closure differs from the reference or counts drifted: rounds=" +
               std::to_string(st.rounds) +
               " messages=" + std::to_string(st.total_messages));
    }
  };
  const auto build = [&] {
    Scope s(tr, "build");
    service::DistanceOracle o =
        service::build_oracle(g, {.solver = service::Solver::kPipelined});
    if (tr != nullptr) trace_run_stats(tr, o.build_stats());
    return o;
  };

  // Warm-up build, untimed (first-touch allocations); its closure starts
  // the service.  Each timed op is one build plus its publish.
  QueryService svc(build(), service_config());
  check_build(*svc.snapshot());

  // Many short builds give build_s a real median.  The query tier is idle:
  // an op here is a build, so qps counts builds per second and the latency
  // percentiles are over builds.
  const auto deadline = Clock::now() + seconds(cfg.seconds);
  std::vector<double> times;
  std::uint64_t busy_ns = 0;
  do {
    cfg.cpu->repin();
    const auto t0 = Clock::now();
    svc.swap_snapshot(service::make_flat_snapshot(build()));
    const std::uint64_t ns = ns_since(t0, Clock::now());
    times.push_back(static_cast<double>(ns) * 1e-9);
    res.latency.record(ns);
    busy_ns += ns;
    check_build(*svc.snapshot());
    setup.run(3);
  } while (Clock::now() < deadline || times.size() < 3);
  res.setup_s = setup.median_s();
  res.build_s = median(times);
  res.builds = times.size();
  res.qps = static_cast<double>(times.size()) /
            (static_cast<double>(busy_ns) * 1e-9);
  if (tr != nullptr) {
    std::size_t keep = 0;
    for (int i = 0; i < kDecompositions; ++i) {
      cfg.cpu->repin();
      keep += probe_pipelined_build(g, tr);
    }
    tr->counter("probe.keep", static_cast<double>(keep));
  }
  return res;
}

// ------------------------------------------------------------ rmat-serve

RunResult run_rmat_serve(const RunConfig& cfg) {
  RunResult res;
  Tracer* tr = cfg.tracer;
  Setup setup([] {
    return graph::rmat(11, 8, kWeights, kRmatGraphSeed, /*directed=*/false,
                       /*connect=*/true, /*threads=*/1);
  });
  const Graph g = setup.run(5);
  const NodeId n = g.node_count();
  const Lines lines = point_lines(n, kPointLines, cfg.seed);

  // Three flat serial reference builds, the `serve --shards 1` path, each
  // followed by a segment of the query loop.  The segments take 40% of
  // --seconds; the builds (7-8.5 s each) come on top of that.
  std::unique_ptr<QueryService> svc;
  AnswerLog log(n, sample_sources(n, cfg.seed));
  PointClient client(lines, log, cfg, res);
  std::vector<double> times;
  for (int b = 0; b < kRmatBuilds; ++b) {
    cfg.cpu->repin();
    const auto t0 = Clock::now();
    {
      Scope build(tr, "build");
      service::DistanceOracle o =
          service::build_oracle(g, {.solver = service::Solver::kReference});
      Scope s(tr, "service.publish");
      if (!svc) {
        svc = std::make_unique<QueryService>(std::move(o), service_config());
      } else {
        svc->swap_snapshot(service::make_flat_snapshot(std::move(o)));
      }
    }
    times.push_back(static_cast<double>(ns_since(t0, Clock::now())) * 1e-9);
    client.segment(*svc, kRmatQueryShare * cfg.seconds / kRmatBuilds);
    setup.run(5);
  }
  res.setup_s = setup.median_s();
  res.build_s = median(times);
  res.builds = times.size();
  res.qps = client.qps();

  if (tr != nullptr) {
    // Batched probes: one span per batch of kProbeOps calls, so the clock's
    // own cost does not swamp nanosecond-scale operations.
    const auto snap = svc->snapshot();
    tr->counter("service.closure_mb",
                static_cast<double>(snap->memory_bytes()) / (1 << 20));
    UniformPairs pairs(n, cfg.seed ^ kProbeStream);
    std::vector<Pair> probe(kProbeOps);
    Lines dist_lines;
    for (auto& p : probe) {
      p = pairs.next();
      dist_lines.add("dist " + std::to_string(p.first) + " " +
                     std::to_string(p.second));
    }
    std::uint64_t keep = 0;
    std::string err;
    const auto point = [&](const char* span, QueryType t, std::size_t count) {
      Scope s(tr, span, count);
      for (std::size_t i = 0; i < count; ++i) {
        Query q;
        q.type = t;
        q.u = probe[i].first;
        q.v = probe[i].second;
        const QueryResult r = svc->query(q);
        keep += static_cast<std::uint64_t>(r.dist) + r.next_hop + r.path.size();
      }
    };
    {
      Scope s(tr, "probe.parse", kProbeOps);
      for (std::size_t i = 0; i < kProbeOps; ++i) {
        keep += QueryService::parse_query(dist_lines.at(i), &err)->v;
      }
    }
    {
      Scope s(tr, "probe.pin", kProbeOps);
      for (std::size_t i = 0; i < kProbeOps; ++i) {
        keep += svc->snapshot()->node_count();
      }
    }
    {
      Scope s(tr, "probe.raw_read", kProbeOps);
      for (const auto& [u, v] : probe) {
        keep += static_cast<std::uint64_t>(snap->dist(u, v));
      }
    }
    point("probe.dist", QueryType::kDist, kProbeOps);
    point("probe.next", QueryType::kNextHop, kProbeOps);
    point("probe.path", QueryType::kPath, kProbeOps / 8);
    std::vector<QueryResult> rendered(kProbeOps);
    for (std::size_t i = 0; i < kProbeOps; ++i) {
      Query q;
      q.u = probe[i].first;
      q.v = probe[i].second;
      rendered[i] = svc->query(q);
    }
    CountingBuf sink;
    std::ostream out(&sink);
    {
      Scope s(tr, "probe.render", kProbeOps);
      for (const auto& r : rendered) QueryService::write_result_text(r, out);
    }
    cfg.cpu->repin();
    keep += probe_reference_build(g, tr);
    tr->counter("probe.keep", static_cast<double>(keep + sink.bytes));
  }
  log.check(g, res);
  return res;
}

// ------------------------------------------------------------ grid-paths

namespace {

/// Re-walks `nodes` edge by edge: it must run u -> v over existing arcs,
/// visit no node twice, weigh `weight`, and honour `c` when given.
bool walk_ok(const Graph& g, const std::vector<NodeId>& nodes, NodeId u,
             NodeId v, Weight weight,
             const dapsp::query::RouteConstraints* c) {
  if (nodes.empty() || nodes.front() != u || nodes.back() != v) return false;
  std::vector<NodeId> seen(nodes);
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) return false;
  Weight sum = 0;
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const auto w = g.arc_weight(nodes[i], nodes[i + 1]);
    if (!w) return false;
    sum += *w;
    if (c != nullptr) {
      for (const auto& [a, b] : c->avoid_edges) {
        if ((a == nodes[i] && b == nodes[i + 1]) ||
            (b == nodes[i] && a == nodes[i + 1])) {
          return false;
        }
      }
    }
  }
  if (c != nullptr) {
    for (const NodeId x : c->avoid_nodes) {
      if (std::binary_search(seen.begin(), seen.end(), x)) return false;
    }
    if (c->max_hops != 0 && nodes.size() - 1 > c->max_hops) return false;
  }
  return sum == weight;
}

bool answer_ok(const Graph& g, const service::OracleSnapshot& snap,
               const Query& q, const QueryResult& r) {
  if (!r.ok) return false;
  const Weight d = snap.dist(q.u, q.v);
  switch (q.type) {
    case QueryType::kPath:
      return r.dist == d && walk_ok(g, r.path, q.u, q.v, d, nullptr);
    case QueryType::kKPaths: {
      if (r.routes.empty() || r.routes.size() > q.k ||
          r.routes.front().weight != d ||
          r.routes.front().nodes != snap.path(q.u, q.v)) {
        return false;
      }
      // Yen's guarantee: distinct loopless routes in nondecreasing weight.
      // (Equal-weight routes come in extraction order, which need not be
      // route_less order: the first is the canonical path.)
      for (std::size_t i = 0; i < r.routes.size(); ++i) {
        const auto& rt = r.routes[i];
        if (!walk_ok(g, rt.nodes, q.u, q.v, rt.weight, nullptr)) return false;
        for (std::size_t j = 0; j < i; ++j) {
          if (r.routes[j].nodes == rt.nodes) return false;
        }
        if (i > 0 && r.routes[i - 1].weight > rt.weight) return false;
      }
      return true;
    }
    case QueryType::kRoute:
      if (!r.feasible) return r.routes.empty();
      return r.routes.size() == 1 && r.routes[0].weight >= d &&
             walk_ok(g, r.routes[0].nodes, q.u, q.v, r.routes[0].weight,
                     &q.constraints);
    default:
      return false;
  }
}

/// The first kKPathChecks kpath and kRouteChecks route answers of the
/// seeded op stream, compared after the loop with the sequential
/// references: kpath weights with seq::k_shortest_paths, routes (whether
/// feasible, weight and nodes) with seq::constrained_route.  The re-walk in
/// answer_ok cannot tell a well-formed answer from the shortest one.
class AnalyticsLog {
 public:
  void record(const Query& q, const QueryResult& r) {
    const bool kpath = q.type == QueryType::kKPaths;
    std::size_t& taken = kpath ? kpaths_ : routes_;
    if (q.type == QueryType::kPath ||
        taken == (kpath ? kKPathChecks : kRouteChecks)) {
      return;
    }
    ++taken;
    log_.push_back({q, r});
  }
  void check(const Graph& g, RunResult& res) const {
    for (const auto& [q, r] : log_) {
      bool ok = false;
      if (q.type == QueryType::kKPaths) {
        const auto want = dapsp::seq::k_shortest_paths(g, q.u, q.v, q.k);
        ok = want.size() == r.routes.size();
        for (std::size_t i = 0; ok && i < want.size(); ++i) {
          ok = want[i].weight == r.routes[i].weight;
        }
      } else {
        const auto want =
            dapsp::seq::constrained_route(g, q.u, q.v, q.constraints);
        ok = r.feasible == want.has_value() &&
             (!want || (r.routes.size() == 1 &&
                        r.routes[0].weight == want->weight &&
                        r.routes[0].nodes == want->nodes));
      }
      if (!ok) {
        res.tally.fail_late();
        res.fail(std::string(service::query_type_name(q.type)) + " " +
                 std::to_string(q.u) + " " + std::to_string(q.v) +
                 " differs from the sequential reference");
      }
    }
  }

 private:
  std::vector<std::pair<Query, QueryResult>> log_;
  std::size_t kpaths_ = 0;
  std::size_t routes_ = 0;
};

}  // namespace

RunResult run_grid_paths(const RunConfig& cfg) {
  RunResult res;
  Tracer* tr = cfg.tracer;
  Setup setup([] { return graph::grid(32, 32, kWeights, kGridPathsGraphSeed); });
  const Graph g = setup.run(5);
  const NodeId n = g.node_count();
  const auto shared_g = std::make_shared<const Graph>(g);

  // 96% path on Zipf pairs; 2% kpath and 2% route on fresh uniform pairs.
  std::vector<Query> ops(kPathOps);
  {
    OpMix mix({96, 2, 2}, cfg.seed ^ kMixStream);
    ZipfPairs hot(n, kZipfExponent, kHotPairsSeed, cfg.seed ^ kPairStream);
    UniformPairs fresh(n, cfg.seed ^ kFreshStream);
    Rng rng(cfg.seed ^ kAvoidStream);
    for (Query& q : ops) {
      const std::uint32_t kind = mix.next();
      std::tie(q.u, q.v) = kind == 0 ? hot.next() : fresh.next();
      if (kind == 0) {
        q.type = QueryType::kPath;
      } else if (kind == 1) {
        q.type = QueryType::kKPaths;
        q.k = kKPaths;
      } else {
        q.type = QueryType::kRoute;
        q.constraints.max_hops = kRouteHops;
        while (q.constraints.avoid_nodes.size() < 2) {
          const auto x = static_cast<NodeId>(rng.below(n));
          if (x != q.u && x != q.v) q.constraints.avoid_nodes.push_back(x);
        }
      }
    }
  }

  // The `serve --shards 4` path: reference shards filled on the pool.
  const service::OracleBuildOptions opts{.solver = service::Solver::kReference};
  std::vector<double> build_times;
  std::unique_ptr<QueryService> svc;
  {
    const auto t0 = Clock::now();
    Scope build(tr, "build");
    std::shared_ptr<dapsp::serve::ShardedOracle> snap;
    {
      Scope s(tr, "serve.build_sharded");
      snap = dapsp::serve::build_sharded_oracle(g, opts, kShards);
    }
    Scope s(tr, "service.publish");
    svc = std::make_unique<QueryService>(std::move(snap), service_config());
    svc->enable_analytics(shared_g);
    build_times.push_back(static_cast<double>(ns_since(t0, Clock::now())) *
                          1e-9);
  }
  // Independent check of the served closure on a sample of sources.
  {
    const auto snap = svc->snapshot();
    for (const NodeId s : sample_sources(n, cfg.seed)) {
      const ReferenceRow row = reference_sssp(g, s);
      bool ok = true;
      for (NodeId v = 0; v < n; ++v) {
        ok = ok && snap->dist(s, v) == row.dist[v] &&
             snap->next_hop(s, v) == first_hop(reference_path(row, s, v));
      }
      res.tally.record(ok);
      if (!ok) res.fail("sharded closure row " + std::to_string(s) + " wrong");
    }
  }
  // The manager's worker thread runs the rebuilds' share of the pool work;
  // it must not inherit the client's single-CPU pin.
  cfg.cpu->unpin();
  dapsp::serve::SnapshotManager manager(*svc, g, opts, kShards);
  cfg.cpu->repin();

  const auto deadline = Clock::now() + seconds(cfg.seconds);
  // qps is the median over the segments between rebuilds.
  std::vector<double> segment_qps;
  std::uint64_t busy_ns = 0;
  std::uint64_t seg_queries = 0;
  std::uint64_t seg_paths = 0;
  std::uint64_t a_hits = 0;
  std::uint64_t a_probes = 0;
  AnalyticsLog alog;
  for (std::size_t i = 0;; ++i) {
    if (seg_paths == kRebuildEveryPaths) {
      segment_qps.push_back(static_cast<double>(seg_queries) /
                            (static_cast<double>(busy_ns) * 1e-9));
      busy_ns = 0;
      seg_queries = 0;
      seg_paths = 0;
      // The write beside the reads: rebuild and swap, which invalidates the
      // epoch-stamped path and analytics caches.  Not a query.
      cfg.cpu->repin();
      const auto t0 = Clock::now();
      service::RebuildOutcome out;
      {
        Scope s(tr, "serve.rebuild_now");
        out = manager.rebuild_now();
      }
      build_times.push_back(static_cast<double>(ns_since(t0, Clock::now())) *
                            1e-9);
      res.tally.record(out.ok);
      if (!out.ok) res.fail("rebuild failed: " + out.error);
      setup.run(5);
    }
    const Query& q = ops[i % ops.size()];
    Tracer* otr = tr != nullptr && tr->sample_op() ? tr : nullptr;
    const bool analytics = q.type != QueryType::kPath;
    service::ServiceStats before;
    if (tr != nullptr && analytics) before = svc->stats();
    QueryResult r;
    const auto t0 = Clock::now();
    {
      Scope op(otr, "op");
      Scope s(otr, query_span(q.type));
      r = svc->query(q);
    }
    const auto t1 = Clock::now();
    const std::uint64_t ns = ns_since(t0, t1);
    res.latency.record(ns);
    busy_ns += ns;
    ++seg_queries;
    if (!analytics) ++seg_paths;
    if (tr != nullptr && analytics) {
      const auto after = svc->stats();
      a_hits += after.cache_hits - before.cache_hits;
      a_probes += after.cache_hits + after.cache_misses - before.cache_hits -
                  before.cache_misses;
    }
    const bool ok = answer_ok(g, *svc->snapshot(), q, r);
    res.tally.record(ok);
    if (ok) {
      alog.record(q, r);
    } else {
      res.fail(std::string(service::query_type_name(q.type)) + " " +
               std::to_string(q.u) + " " + std::to_string(q.v) +
               " failed the re-walk: " + r.error);
    }
    if (t1 >= deadline) break;
  }
  if (segment_qps.empty() || seg_paths >= kRebuildEveryPaths / 2) {
    segment_qps.push_back(static_cast<double>(seg_queries) /
                          (static_cast<double>(busy_ns) * 1e-9));
  }
  res.qps = median(segment_qps);
  res.build_s = median(build_times);
  res.builds = build_times.size();
  res.setup_s = setup.median_s();

  if (tr != nullptr) {
    const auto st = svc->stats();
    tr->counter("service.path_cache_hits",
                static_cast<double>(st.cache_hits - a_hits));
    tr->counter("service.path_cache_probes",
                static_cast<double>(st.cache_hits + st.cache_misses - a_probes));
    tr->counter("query.analytics_cache_hits", static_cast<double>(a_hits));
    tr->counter("query.analytics_cache_probes", static_cast<double>(a_probes));
    tr->counter("service.swap_p50_ns", static_cast<double>(st.swap_ns.p50()));
    const auto snap = svc->snapshot();
    tr->counter("service.closure_mb",
                static_cast<double>(snap->memory_bytes()) / (1 << 20));
    std::uint64_t keep = 0;
    {
      // Raw next-hop walks over the Zipf pairs: the floor under query(path).
      const std::size_t walks = kProbeOps / 4;
      Scope s(tr, "probe.path_walk", walks);
      for (std::size_t i = 0, done = 0; done < walks; ++i) {
        const Query& q = ops[i % ops.size()];
        if (q.type != QueryType::kPath) continue;
        ++done;
        for (NodeId cur = q.u; cur != q.v && cur != kNoNode;
             cur = snap->next_hop(cur, q.v)) {
          ++keep;
        }
      }
    }
    // Spur searches as Yen issues them: the kpath pairs with the canonical
    // first edge banned.
    const dapsp::query::Analytics analytics(shared_g);
    std::size_t spurs = 0;
    for (const Query& q : ops) {
      if (q.type != QueryType::kKPaths || q.u == q.v) continue;
      if (++spurs > 64) break;
      dapsp::query::RouteConstraints c;
      c.avoid_edges.push_back({q.u, snap->next_hop(q.u, q.v)});
      Scope s(tr, "query.constrained_route");
      const auto route = analytics.constrained_route(*snap, q.u, q.v, c);
      keep += route ? route->nodes.size() : 0;
    }
    {
      Scope s(tr, "seq.sweep");
      tr->counter("seq.arcs_x_sources",
                  static_cast<double>(g.edge_count()) * n);
      for (NodeId src = 0; src < n; ++src) {
        keep += dapsp::seq::dijkstra(g, src).dist[(src + 1) % n] >= 0;
      }
    }
    tr->counter("probe.keep", static_cast<double>(keep));
  }
  alog.check(g, res);
  return res;
}

}  // namespace perfbench
