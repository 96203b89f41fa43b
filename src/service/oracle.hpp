// Immutable in-memory distance oracle built from a finished APSP run.
//
// The paper's algorithms end with every node holding per-source distances
// and last-edge (parent) pointers; until now the library printed those and
// threw them away.  `DistanceOracle` is the consumer-facing half: it
// flattens a full n-source run into a row-major distance matrix plus a
// next-hop table and answers dist / next-hop / full-path queries in O(1) /
// O(1) / O(path length) with no further graph traversal.  Oracles are
// immutable after construction, so any number of threads may query one
// concurrently without synchronization (the query service layers caching
// and metrics on top, see service/query_service.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "congest/metrics.hpp"
#include "graph/graph.hpp"
#include "obs/critpath.hpp"

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

/// Label of every reference-built oracle, flat or sharded.
inline constexpr const char* kReferenceLabel =
    "reference (pooled Dijkstra sweep)";

class DistanceOracle {
 public:
  DistanceOracle() = default;

  NodeId node_count() const noexcept { return n_; }
  /// False when distances are (1+eps)-approximate.
  bool exact() const noexcept { return exact_; }
  /// True when a next-hop table exists (every exact solver).  Approximate
  /// distances cannot certify which edges lie on shortest paths, so the
  /// approx oracle is distance-only.
  bool has_paths() const noexcept { return !next_.empty(); }
  const std::string& solver_label() const noexcept { return meta_.label; }
  /// Stats of the CONGEST run that produced the matrices (rounds, messages).
  const congest::RunStats& build_stats() const noexcept { return meta_.stats; }
  /// Bytes held by the distance + next-hop tables.
  std::size_t memory_bytes() const noexcept;

  /// Distance u -> v (kInfDist when unreachable).  Unchecked hot path: ids
  /// must be < node_count(); the query service validates untrusted input.
  Weight dist(NodeId u, NodeId v) const noexcept {
    return dist_[flat(u, v)];
  }

  /// First hop on a shortest path u -> v; kNoNode when u == v, v is
  /// unreachable, or the oracle is distance-only.  Unchecked ids.
  NodeId next_hop(NodeId u, NodeId v) const noexcept {
    return next_.empty() ? graph::kNoNode : next_[flat(u, v)];
  }

  /// Full node sequence u ... v following next hops; nullopt when v is
  /// unreachable, the oracle is distance-only, or ids are out of range.
  /// For u == v returns {u}.
  std::optional<std::vector<NodeId>> path(NodeId u, NodeId v) const;

  /// Row u of the distance table (all targets of one source).  The serving
  /// tier partitions oracles into vertex-range shards by copying/moving
  /// whole rows; exposing them avoids recomputing the closure per shard.
  std::span<const Weight> dist_row(NodeId u) const noexcept {
    return {dist_.data() + flat(u, 0), static_cast<std::size_t>(n_)};
  }
  /// Row u of the next-hop table; empty span for distance-only oracles.
  std::span<const NodeId> next_row(NodeId u) const noexcept {
    if (next_.empty()) return {};
    return {next_.data() + flat(u, 0), static_cast<std::size_t>(n_)};
  }
  const OracleMeta& meta() const noexcept { return meta_; }

 private:
  friend DistanceOracle build_oracle(const graph::Graph& g,
                                     const OracleBuildOptions& opts);
  friend DistanceOracle make_oracle(
      const std::vector<std::vector<Weight>>& dist,
      const std::vector<std::vector<NodeId>>& parent, OracleMeta meta);
  friend DistanceOracle make_oracle_from_distances(
      const graph::Graph& g, const std::vector<std::vector<Weight>>& dist,
      const std::vector<std::vector<std::uint32_t>>& hops, OracleMeta meta);

  std::size_t flat(NodeId u, NodeId v) const noexcept {
    return static_cast<std::size_t>(u) * n_ + v;
  }

  NodeId n_ = 0;
  bool exact_ = true;
  OracleMeta meta_;
  std::vector<Weight> dist_;  // row-major [u*n + v]
  std::vector<NodeId> next_;  // row-major; empty for distance-only oracles
};

/// Flattens a full APSP result (dist[s][v] with sources 0..n-1 in order)
/// into an oracle.  `parent` (parent[s][v] = predecessor of v on the s-path)
/// supplies the next-hop table; pass an empty vector for a distance-only
/// oracle.  Throws std::logic_error on non-square input or parent chains
/// that do not reach their source (corrupt run).
DistanceOracle make_oracle(const std::vector<std::vector<Weight>>& dist,
                           const std::vector<std::vector<NodeId>>& parent,
                           OracleMeta meta);

/// Fills next_row[v] (first hop s -> v) for one source from its distance and
/// parent rows; `next_row` must hold n entries initialized to kNoNode.  This
/// is the per-source routine make_oracle runs for every row and the
/// reference sweep runs on every Dijkstra result.  Throws std::logic_error
/// on parent chains that cycle or fail to reach their source.
void next_hops_from_parents(NodeId s, NodeId n,
                            std::span<const Weight> dist_row,
                            std::span<const NodeId> parent_row,
                            NodeId* next_row);

/// The reference build, shared by the flat and the sharded oracle: runs
/// seq::dijkstra from every source on util::ThreadPool::global() and writes
/// source s's distances to dist_rows[s][0, n) and its first hops
/// (next_hops_from_parents) to next_rows[s][0, n), straight into the
/// caller's final storage.  Both spans hold g.node_count() row pointers.
/// Returns the meta of a reference oracle, with the sweep's wall seconds and
/// arcs x sources.  A throw in any source's work (a corrupt parent chain)
/// propagates to the caller once the pool has drained.
OracleMeta reference_sweep(const graph::Graph& g,
                           std::span<Weight* const> dist_rows,
                           std::span<NodeId* const> next_rows);

/// Same, deriving next hops from the distance matrix over g's arcs: the
/// first hop toward v is the out-neighbor w with w(u,w) + dist(w,v) =
/// dist(u,v), ties broken by fewer remaining hops (progress across
/// zero-weight plateaus) then smaller id.  Used for solvers that report
/// distances + hop counts but no parent pointers (scaled).
DistanceOracle make_oracle_from_distances(
    const graph::Graph& g, const std::vector<std::vector<Weight>>& dist,
    const std::vector<std::vector<std::uint32_t>>& hops, OracleMeta meta);

/// Enum-dispatched factory: runs the chosen solver on g and builds the
/// oracle from its output.
///
/// Fault safety: when a process-global fault plan is active
/// (congest::Engine::set_global_fault_plan) and the solver ran on the
/// engine, the builder cross-checks the result against BFS reachability on
/// g and throws std::runtime_error if any truly reachable pair came out
/// unreachable -- e.g. a crash-stopped cut vertex partitioned the run.  A
/// faulted build either serves correct reachability or fails loudly; it
/// never silently serves kInfDist for a connected pair.
DistanceOracle build_oracle(const graph::Graph& g,
                            const OracleBuildOptions& opts = {});

}  // namespace dapsp::service
