// Immutable in-memory distance oracle built from a finished APSP run.
//
// The paper's algorithms end with every node holding its own source row of
// distances and last-edge (parent) pointers -- the closure is row-sharded by
// construction.  `DistanceOracle` keeps that partition: it holds the
// distance and next-hop tables as S contiguous source-row shards, shard i
// owning rows [i*ceil(n/S), min(n, (i+1)*ceil(n/S))) as its own
// allocations, and S = 1 is the flat n x n table.  dist / next-hop / full
// path queries cost O(1) / O(1) / O(path length) with no graph traversal:
// a query routes to its shard by one integer division, so answers are
// bit-identical for every shard count (differential-tested across S in
// {1, 2, 4, 8} for all five solvers).
//
// Sharding buys the serving tier three things:
//   * build locality -- every builder writes each source row straight into
//     its shard (the reference sweep from its source's Dijkstra run), so no
//     second n x n copy ever exists;
//   * allocation granularity -- S allocations of ~n^2/S cells instead of
//     one n^2 block, the shape a NUMA-aware or multi-process tier needs;
//   * occupancy observability -- per-shard row ranges and byte counts are
//     reported through ServiceStats ("shards" in the stats JSONL).
//
// An oracle is immutable once published: any number of threads may query
// it concurrently without synchronization.  The query service
// (service/query_service.hpp) swaps whole oracles atomically under live
// traffic and stamps each with a publication epoch; every cache entry
// derived from an oracle carries that epoch, so nothing computed against an
// old oracle is served after a swap.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "congest/metrics.hpp"
#include "graph/graph.hpp"
#include "obs/critpath.hpp"
#include "service/stats.hpp"

namespace dapsp::service {

using graph::NodeId;
using graph::Weight;

/// Which algorithm the enum-dispatched factory runs to populate the oracle.
enum class Solver {
  kPipelined,  ///< Algorithm 1 APSP (Thm I.1 ii)
  kBlocker,    ///< Algorithm 3 APSP (Thm I.2/I.3)
  kScaled,     ///< multiplexed per-source Algorithm 2 (Sec. II-C)
  kApprox,     ///< (1+eps)-approx APSP (Thm I.5); distance-only oracle
  kReference,  ///< seq::dijkstra from every source, pooled across the
               ///< global thread pool -- not a CONGEST run; the fast local
               ///< builder for serving large graphs and for tests
};

const char* solver_name(Solver s);

/// Parses "pipelined"/"blocker"/"scaled"/"approx"/"reference"; throws
/// std::invalid_argument otherwise.
Solver parse_solver(const std::string& word);

struct OracleBuildOptions {
  Solver solver = Solver::kPipelined;
  std::uint32_t h = 0;  ///< blocker hop parameter (0 = theorem balance)
  double eps = 0.5;     ///< approx quality
  /// Profile the build: record per-(node, round) work items and stamp the
  /// critical-path summary into the oracle's meta (surfaced through
  /// ServiceStats as `critpath`).  Ignored for kReference (no engine run)
  /// and when a process-global recorder is already installed -- that
  /// recorder owns the observation and its own export carries the analysis.
  bool critpath = false;
};

/// Provenance attached by the builders.
struct OracleMeta {
  std::string label;         ///< human-readable solver description
  bool exact = true;         ///< false for (1+eps)-approximate distances
  congest::RunStats stats;   ///< the producing run (zeroed for kReference)
  /// Critical-path summary of the producing build; empty() unless the
  /// build ran with OracleBuildOptions::critpath.
  obs::CritPathSummary critpath;
  /// Reference sweep only (0 for engine builds): its wall seconds and the
  /// arcs it scanned, arcs x sources, as Graph500 counts traversed edges.
  double build_s = 0;
  std::uint64_t build_arcs = 0;

  /// Millions of traversed arcs per second of the reference sweep; 0 when
  /// no sweep was timed.
  double build_mteps() const noexcept {
    return build_s > 0 ? static_cast<double>(build_arcs) / build_s * 1e-6 : 0;
  }
};

/// Label of every reference-built oracle, whatever its shard count.
inline constexpr const char* kReferenceLabel =
    "reference (pooled Dijkstra sweep)";

class DistanceOracle {
 public:
  DistanceOracle() = default;

  NodeId node_count() const noexcept { return n_; }
  /// False when distances are (1+eps)-approximate.
  bool exact() const noexcept { return meta_.exact; }
  /// True when a next-hop table exists (every exact solver).  Approximate
  /// distances cannot certify which edges lie on shortest paths, so the
  /// approx oracle is distance-only.
  bool has_paths() const noexcept {
    return !shards_.empty() && !shards_.front().next.empty();
  }
  const OracleMeta& meta() const noexcept { return meta_; }
  const std::string& solver_label() const noexcept { return meta_.label; }
  /// Stats of the CONGEST run that produced the tables (zeroed for
  /// kReference).
  const congest::RunStats& build_stats() const noexcept { return meta_.stats; }
  /// Critical-path summary of the producing build; nullptr when the build
  /// was not profiled (OracleBuildOptions::critpath off, reference solver,
  /// or a process-global recorder owned the observation).
  const obs::CritPathSummary* build_critpath() const noexcept {
    return meta_.critpath.empty() ? nullptr : &meta_.critpath;
  }
  /// Bytes held by the distance + next-hop tables across all shards.
  std::size_t memory_bytes() const noexcept;

  /// Distance u -> v (kInfDist when unreachable).  Unchecked hot path: ids
  /// must be < node_count(); the query service validates untrusted input.
  Weight dist(NodeId u, NodeId v) const noexcept {
    const Shard& s = shard_of(u);
    return s.dist[s.cell(u, v, n_)];
  }

  /// First hop on a shortest path u -> v; kNoNode when u == v, v is
  /// unreachable, or the oracle is distance-only.  Unchecked ids.
  NodeId next_hop(NodeId u, NodeId v) const noexcept {
    const Shard& s = shard_of(u);
    return s.next.empty() ? graph::kNoNode : s.next[s.cell(u, v, n_)];
  }

  /// Full node sequence u ... v following next hops; nullopt when v is
  /// unreachable, the oracle is distance-only, or ids are out of range.
  /// For u == v returns {u}.
  std::optional<std::vector<NodeId>> path(NodeId u, NodeId v) const;

  /// Shard layout for occupancy reporting; the ranges partition [0, n) in
  /// order.
  std::size_t shard_count() const noexcept { return shards_.size(); }
  ShardInfo shard_info(std::size_t shard) const noexcept;
  std::vector<ShardInfo> shard_layout() const;

  /// Publication epoch; 0 until the query service assigns one at swap time.
  std::uint64_t epoch() const noexcept { return epoch_; }
  /// Pre-publication only: the service stamps the epoch while it still holds
  /// the sole reference, then releases the oracle to readers.
  void set_epoch(std::uint64_t e) noexcept { epoch_ = e; }

 private:
  friend DistanceOracle build_oracle(const graph::Graph& g,
                                     const OracleBuildOptions& opts,
                                     std::size_t shards);
  friend DistanceOracle make_oracle(
      const std::vector<std::vector<Weight>>& dist,
      const std::vector<std::vector<NodeId>>& parent, OracleMeta meta,
      std::size_t shards);
  friend DistanceOracle make_oracle_from_distances(
      const graph::Graph& g, const std::vector<std::vector<Weight>>& dist,
      const std::vector<std::vector<std::uint32_t>>& hops, OracleMeta meta,
      std::size_t shards);

  struct Shard {
    NodeId row_begin = 0;
    NodeId row_end = 0;
    std::vector<Weight> dist;  // row-major [(u - row_begin)*n + v]
    std::vector<NodeId> next;  // same layout; empty for distance-only

    std::size_t cell(NodeId u, NodeId v, NodeId n) const noexcept {
      return static_cast<std::size_t>(u - row_begin) * n + v;
    }
    std::size_t bytes() const noexcept {
      return dist.size() * sizeof(Weight) + next.size() * sizeof(NodeId);
    }
  };

  /// Lays out min(shards, n) (at least one) equal row ranges, the last
  /// possibly short, with empty tables.
  DistanceOracle(NodeId n, std::size_t shards, OracleMeta meta);

  const Shard& shard_of(NodeId u) const noexcept {
    return shards_[u / rows_per_shard_];
  }

  NodeId n_ = 0;
  NodeId rows_per_shard_ = 1;
  std::uint64_t epoch_ = 0;
  OracleMeta meta_;
  std::vector<Shard> shards_;
};

/// Builds an oracle of `shards` row shards (clamped to [1, n]) from a full
/// APSP result (dist[s][v] with sources 0..n-1 in order), appending each
/// row straight into its shard.  `parent` (parent[s][v] = predecessor of v
/// on the s-path) supplies the next-hop table; pass an empty vector for a
/// distance-only oracle.  Throws std::logic_error on non-square input or
/// parent chains that do not reach their source (corrupt run).
DistanceOracle make_oracle(const std::vector<std::vector<Weight>>& dist,
                           const std::vector<std::vector<NodeId>>& parent,
                           OracleMeta meta, std::size_t shards = 1);

/// Fills next_row[v] (first hop s -> v) for one source from its distance and
/// parent rows; `next_row` must hold n entries initialized to kNoNode.  This
/// is the per-source routine make_oracle runs for every row and the
/// reference sweep runs on every Dijkstra result.  Throws std::logic_error
/// on parent chains that cycle or fail to reach their source.
void next_hops_from_parents(NodeId s, NodeId n,
                            std::span<const Weight> dist_row,
                            std::span<const NodeId> parent_row,
                            NodeId* next_row);

/// Same, deriving next hops from the distance matrix over g's arcs: the
/// first hop toward v is the out-neighbor w with w(u,w) + dist(w,v) =
/// dist(u,v), ties broken by fewer remaining hops (progress across
/// zero-weight plateaus) then smaller id.  Used for solvers that report
/// distances + hop counts but no parent pointers (scaled).
DistanceOracle make_oracle_from_distances(
    const graph::Graph& g, const std::vector<std::vector<Weight>>& dist,
    const std::vector<std::vector<std::uint32_t>>& hops, OracleMeta meta,
    std::size_t shards = 1);

/// Enum-dispatched factory: runs the chosen solver on g and builds an
/// oracle of `shards` row shards (clamped to [1, n]) from its output.
/// kReference runs seq::dijkstra from every source on
/// util::ThreadPool::global() and writes each source's row straight into
/// its shard.
///
/// Fault safety: when a process-global fault plan is active
/// (congest::Engine::set_global_fault_plan) and the solver ran on the
/// engine, the builder cross-checks the result against BFS reachability on
/// g and throws std::runtime_error if any truly reachable pair came out
/// unreachable -- e.g. a crash-stopped cut vertex partitioned the run.  A
/// faulted build either serves correct reachability or fails loudly; it
/// never silently serves kInfDist for a connected pair.
DistanceOracle build_oracle(const graph::Graph& g,
                            const OracleBuildOptions& opts = {},
                            std::size_t shards = 1);

/// Former name of DistanceOracle and its shared_ptr factory, kept only for
/// the perfbench harness (perfbench/src/workloads.cpp); delete both once
/// perfbench spells DistanceOracle.
using OracleSnapshot = DistanceOracle;
inline std::shared_ptr<DistanceOracle> make_flat_snapshot(DistanceOracle o) {
  return std::make_shared<DistanceOracle>(std::move(o));
}

}  // namespace dapsp::service
