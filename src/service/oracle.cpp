#include "service/oracle.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "congest/engine.hpp"
#include "congest/faults.hpp"
#include "core/approx_apsp.hpp"
#include "core/blocker_apsp.hpp"
#include "core/pipelined_ssp.hpp"
#include "core/scaled_apsp.hpp"
#include "graph/properties.hpp"
#include "obs/trace.hpp"
#include "seq/dijkstra.hpp"
#include "util/int_math.hpp"
#include "util/thread_pool.hpp"

namespace dapsp::service {

using graph::Graph;
using graph::kInfDist;
using graph::kNoNode;

const char* solver_name(Solver s) {
  switch (s) {
    case Solver::kPipelined: return "pipelined";
    case Solver::kBlocker: return "blocker";
    case Solver::kScaled: return "scaled";
    case Solver::kApprox: return "approx";
    case Solver::kReference: return "reference";
  }
  return "?";
}

Solver parse_solver(const std::string& word) {
  if (word == "pipelined") return Solver::kPipelined;
  if (word == "blocker") return Solver::kBlocker;
  if (word == "scaled") return Solver::kScaled;
  if (word == "approx") return Solver::kApprox;
  if (word == "reference") return Solver::kReference;
  throw std::invalid_argument(
      "unknown solver '" + word +
      "' (pipelined|blocker|scaled|approx|reference)");
}

DistanceOracle::DistanceOracle(NodeId n, std::size_t shards, OracleMeta meta)
    : n_(n), meta_(std::move(meta)) {
  const std::size_t s =
      std::clamp<std::size_t>(shards, 1, static_cast<std::size_t>(n));
  rows_per_shard_ = static_cast<NodeId>((n + s - 1) / s);
  // ceil(n / rows_per_shard) shards cover [0, n); the last may be short.
  shards_.resize((n + rows_per_shard_ - 1) / rows_per_shard_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].row_begin = static_cast<NodeId>(i * rows_per_shard_);
    shards_[i].row_end = static_cast<NodeId>(
        std::min<std::size_t>(n, (i + 1) * rows_per_shard_));
  }
}

std::size_t DistanceOracle::memory_bytes() const noexcept {
  std::size_t total = 0;
  for (const Shard& s : shards_) total += s.bytes();
  return total;
}

ShardInfo DistanceOracle::shard_info(std::size_t shard) const noexcept {
  const Shard& s = shards_[shard];
  return {s.row_begin, s.row_end, s.bytes()};
}

std::vector<ShardInfo> DistanceOracle::shard_layout() const {
  std::vector<ShardInfo> out(shards_.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = shard_info(i);
  return out;
}

std::optional<std::vector<NodeId>> DistanceOracle::path(NodeId u,
                                                        NodeId v) const {
  if (u >= n_ || v >= n_ || !has_paths()) return std::nullopt;
  if (u == v) return std::vector<NodeId>{u};
  if (dist(u, v) == kInfDist) return std::nullopt;
  std::vector<NodeId> out;
  out.reserve(8);
  out.push_back(u);
  NodeId cur = u;
  while (cur != v) {
    // Each hop strictly shrinks the remaining hop count, so a walk longer
    // than n means the table is corrupt, not slow.
    if (out.size() > n_) return std::nullopt;
    const NodeId hop = next_hop(cur, v);
    if (hop == kNoNode) return std::nullopt;
    out.push_back(hop);
    cur = hop;
  }
  return out;
}

namespace {

void check_square(const std::vector<std::vector<Weight>>& dist) {
  const std::size_t n = dist.size();
  util::check(n > 0, "make_oracle: empty distance matrix");
  for (const auto& row : dist) {
    util::check(row.size() == n, "make_oracle: distance matrix not square");
  }
}

/// Rows [begin, end) of a square matrix, concatenated: one shard's table.
std::vector<Weight> copy_rows(const std::vector<std::vector<Weight>>& dist,
                              NodeId begin, NodeId end) {
  std::vector<Weight> out;
  out.reserve((end - begin) * dist.size());
  for (NodeId u = begin; u < end; ++u) {
    out.insert(out.end(), dist[u].begin(), dist[u].end());
  }
  return out;
}

/// Fault-plan safety net for engine-backed builds: when the process-global
/// fault plan is active, an unreachable entry in the result may mean the
/// faults (a crashed cut vertex, unrecovered losses) severed pairs that the
/// real graph connects -- silently serving kInfDist for them would be a
/// wrong answer wearing an honest face.  Compare the oracle's infinite
/// entries against plain BFS reachability on g and fail loudly on mismatch.
void check_fault_partition(const Graph& g, const DistanceOracle& o) {
  const congest::FaultPlan* plan = congest::Engine::global_fault_plan();
  if (plan == nullptr || !plan->enabled()) return;
  const NodeId n = g.node_count();
  std::vector<std::uint8_t> seen(n);
  std::vector<NodeId> queue;
  for (NodeId s = 0; s < n; ++s) {
    std::fill(seen.begin(), seen.end(), 0);
    queue.assign(1, s);
    seen[s] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const auto& e : g.out_edges(queue[head])) {
        if (!seen[e.to]) {
          seen[e.to] = 1;
          queue.push_back(e.to);
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (seen[v] && o.dist(s, v) == kInfDist) {
        throw std::runtime_error(
            "build_oracle: fault plan \"" + plan->spec() +
            "\" partitioned the run: " + std::to_string(v) +
            " is reachable from " + std::to_string(s) +
            " in the graph but the solver found no distance (crashed node "
            "on every path, or losses the protocol could not recover)");
      }
    }
  }
}

/// The reference build: runs seq::dijkstra from every source on
/// util::ThreadPool::global() and writes source s's distances to
/// dist_rows[s][0, n) and its first hops to next_rows[s][0, n), straight
/// into the oracle's shards.  Returns the meta of a reference oracle, with
/// the sweep's wall seconds and arcs x sources.  A throw in any source's
/// work (a corrupt parent chain) propagates once the pool has drained.
OracleMeta reference_sweep(const Graph& g, std::span<Weight* const> dist_rows,
                           std::span<NodeId* const> next_rows) {
  const NodeId n = g.node_count();
  const auto t0 = std::chrono::steady_clock::now();
  util::ThreadPool::global().parallel_for(n, [&](std::size_t src) {
    const NodeId s = static_cast<NodeId>(src);
    const seq::SsspResult r = seq::dijkstra(g, s);
    std::copy(r.dist.begin(), r.dist.end(), dist_rows[s]);
    std::fill_n(next_rows[s], n, kNoNode);
    next_hops_from_parents(s, n, r.dist, r.parent, next_rows[s]);
  });
  OracleMeta meta{kReferenceLabel, true, {}, {}};
  meta.build_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  meta.build_arcs = static_cast<std::uint64_t>(g.edge_count()) * n;
  return meta;
}

DistanceOracle build_oracle_impl(const Graph& g,
                                 const OracleBuildOptions& opts,
                                 std::size_t shards);

/// Installs a work-item-recording trace recorder as the process-global
/// recorder for the duration of one oracle build, so the engines the solver
/// constructs internally feed the critical-path analyzer.  Only engaged
/// when no global recorder exists -- an already-installed one (the CLI's
/// --trace flags) owns the observation and its own export carries the
/// analysis.  Engine ctors latch the global under the same single-threaded
/// setup contract as set_global_recorder itself.
class ScopedBuildRecorder {
 public:
  explicit ScopedBuildRecorder(bool enabled) {
    if (!enabled || congest::Engine::global_recorder() != nullptr) return;
    obs::TraceRecorder::Options ropt;
    ropt.work_item_capacity = std::size_t{1} << 20;
    rec_ = std::make_unique<obs::TraceRecorder>(ropt);
    congest::Engine::set_global_recorder(rec_.get());
  }
  ~ScopedBuildRecorder() {
    if (rec_) congest::Engine::set_global_recorder(nullptr);
  }
  ScopedBuildRecorder(const ScopedBuildRecorder&) = delete;
  ScopedBuildRecorder& operator=(const ScopedBuildRecorder&) = delete;

  const obs::TraceRecorder* recorder() const noexcept { return rec_.get(); }

 private:
  std::unique_ptr<obs::TraceRecorder> rec_;
};

}  // namespace

// All nodes on the shortest path s -> v share the same first hop, so one
// backward walk per unresolved node resolves its whole parent chain at once.
void next_hops_from_parents(NodeId s, NodeId n,
                            std::span<const Weight> dist_row,
                            std::span<const NodeId> parent_row,
                            NodeId* next_row) {
  std::vector<NodeId> stack;
  for (NodeId v = 0; v < n; ++v) {
    if (v == s || dist_row[v] == kInfDist || next_row[v] != kNoNode) continue;
    stack.clear();
    NodeId cur = v;
    // Walk toward s until we hit a node whose first hop is known or whose
    // parent is s itself.
    while (true) {
      util::check(stack.size() <= n, "make_oracle: parent chain has a cycle");
      const NodeId p = parent_row[cur];
      util::check(p != kNoNode && p < n,
                  "make_oracle: parent chain does not reach its source");
      if (p == s || next_row[p] != kNoNode) break;
      stack.push_back(cur);
      cur = p;
    }
    const NodeId hop = parent_row[cur] == s ? cur : next_row[parent_row[cur]];
    next_row[cur] = hop;
    for (const NodeId w : stack) next_row[w] = hop;
  }
}

DistanceOracle make_oracle(const std::vector<std::vector<Weight>>& dist,
                           const std::vector<std::vector<NodeId>>& parent,
                           OracleMeta meta, std::size_t shards) {
  check_square(dist);
  if (!parent.empty()) {
    util::check(parent.size() == dist.size(),
                "make_oracle: parent matrix shape mismatch");
    for (const auto& row : parent) {
      util::check(row.size() == dist.size(),
                  "make_oracle: parent matrix shape mismatch");
    }
  }
  const NodeId n = static_cast<NodeId>(dist.size());
  DistanceOracle o(n, shards, std::move(meta));
  for (auto& sh : o.shards_) {
    sh.dist = copy_rows(dist, sh.row_begin, sh.row_end);
    if (parent.empty()) continue;
    sh.next.assign(sh.dist.size(), kNoNode);
    for (NodeId s = sh.row_begin; s < sh.row_end; ++s) {
      next_hops_from_parents(s, n, dist[s], parent[s],
                             sh.next.data() + sh.cell(s, 0, n));
    }
  }
  return o;
}

DistanceOracle make_oracle_from_distances(
    const Graph& g, const std::vector<std::vector<Weight>>& dist,
    const std::vector<std::vector<std::uint32_t>>& hops, OracleMeta meta,
    std::size_t shards) {
  check_square(dist);
  util::check(g.node_count() == dist.size(),
              "make_oracle_from_distances: matrix does not match graph");
  util::check(hops.size() == dist.size(),
              "make_oracle_from_distances: hops matrix shape mismatch");
  for (const auto& row : hops) {
    util::check(row.size() == dist.size(),
                "make_oracle_from_distances: hops matrix shape mismatch");
  }
  const NodeId n = static_cast<NodeId>(dist.size());
  DistanceOracle o(n, shards, std::move(meta));
  for (auto& sh : o.shards_) {
    sh.dist = copy_rows(dist, sh.row_begin, sh.row_end);
    sh.next.assign(sh.dist.size(), kNoNode);
    for (NodeId u = sh.row_begin; u < sh.row_end; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (u == v || dist[u][v] == kInfDist) continue;
        NodeId best = kNoNode;
        std::uint32_t best_h = 0;
        for (const auto& e : g.out_edges(u)) {
          const Weight dw = dist[e.to][v];
          if (dw == kInfDist || e.weight + dw != dist[u][v]) continue;
          const std::uint32_t hw = hops[e.to][v];
          if (best == kNoNode || hw < best_h ||
              (hw == best_h && e.to < best)) {
            best = e.to;
            best_h = hw;
          }
        }
        util::check(best != kNoNode,
                    "make_oracle_from_distances: no edge realizes dist(u,v)");
        sh.next[sh.cell(u, v, n)] = best;
      }
    }
  }
  return o;
}

DistanceOracle build_oracle(const Graph& g, const OracleBuildOptions& opts,
                            std::size_t shards) {
  util::check(g.node_count() > 0, "build_oracle: empty graph");
  // kReference never touches the engine: no fault plan can have bent it,
  // and there is no round structure for the profiler to observe.  The
  // sweep writes its rows straight into the oracle's shards.
  if (opts.solver == Solver::kReference) {
    const NodeId n = g.node_count();
    DistanceOracle o(n, shards, {});
    std::vector<Weight*> dist_rows;
    std::vector<NodeId*> next_rows;
    dist_rows.reserve(n);
    next_rows.reserve(n);
    for (auto& sh : o.shards_) {
      const std::size_t cells =
          static_cast<std::size_t>(sh.row_end - sh.row_begin) * n;
      sh.dist.resize(cells);
      sh.next.resize(cells);
      for (NodeId s = sh.row_begin; s < sh.row_end; ++s) {
        dist_rows.push_back(sh.dist.data() + sh.cell(s, 0, n));
        next_rows.push_back(sh.next.data() + sh.cell(s, 0, n));
      }
    }
    o.meta_ = reference_sweep(g, dist_rows, next_rows);
    return o;
  }
  const ScopedBuildRecorder profile(opts.critpath);
  DistanceOracle o = build_oracle_impl(g, opts, shards);
  // Checked on the finished shards, exactly as they will be served.
  check_fault_partition(g, o);
  if (profile.recorder() != nullptr) {
    o.meta_.critpath =
        obs::summarize(obs::analyze_critical_path(*profile.recorder()));
  }
  return o;
}

namespace {

DistanceOracle build_oracle_impl(const Graph& g,
                                 const OracleBuildOptions& opts,
                                 std::size_t shards) {
  const NodeId n = g.node_count();
  switch (opts.solver) {
    case Solver::kPipelined: {
      const Weight delta = graph::max_finite_distance(g);
      auto res = core::pipelined_apsp(g, delta);
      return make_oracle(res.dist, res.parent,
                         {"pipelined APSP (Algorithm 1, Thm I.1 ii)", true,
                          res.stats, {}},
                         shards);
    }
    case Solver::kBlocker: {
      core::BlockerApspParams p;
      p.h = opts.h;
      auto res = core::blocker_apsp(g, p);
      return make_oracle(res.dist, res.parent,
                         {"blocker APSP (Algorithm 3, h=" +
                              std::to_string(res.h) + ")",
                          true, res.stats, {}},
                         shards);
    }
    case Solver::kScaled: {
      core::ScaledApspParams p;
      p.h = n > 1 ? n - 1 : 1;
      p.delta = graph::max_finite_distance(g);
      auto res = core::scaled_hhop_apsp(g, p);
      return make_oracle_from_distances(
          g, res.dist, res.hops,
          {"scaled per-source APSP (Sec. II-C)", true, res.stats, {}},
          shards);
    }
    case Solver::kApprox: {
      core::ApproxApspParams p;
      p.eps = opts.eps;
      auto res = core::approx_apsp(g, p);
      std::ostringstream label;
      label << "approx APSP (Thm I.5, eps=" << opts.eps << ", " << res.scales
            << " scales); distance-only";
      return make_oracle(res.dist, {}, {label.str(), false, res.stats, {}},
                         shards);
    }
    case Solver::kReference:
      break;  // build_oracle fills the reference tables itself
  }
  throw std::logic_error("build_oracle: unhandled solver");
}

}  // namespace

}  // namespace dapsp::service
