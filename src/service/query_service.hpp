// Thread-safe query front-end over hot-swappable oracle snapshots.
//
// The service answers three query types (dist, next-hop, full path) for
// untrusted callers: ids are validated, unsupported queries are reported as
// errors instead of UB, and every query is counted in service/stats.hpp.
// Queries execute against a `DistanceOracle` snapshot (any shard count, see
// service/oracle.hpp) behind a shared_ptr slot: `swap_snapshot` publishes
// a replacement under live traffic, and each query pins the snapshot it
// started on by copying the shared_ptr (a mutex held only for the pointer
// copy -- never for the duration of a query, and never for a rebuild).  The
// old snapshot is retired when the last in-flight query drops its
// reference.  Batched
// queries fan out over a private util::ThreadPool and answer from a single
// snapshot, so results[i] always answers queries[i] bit-identically
// regardless of thread count and a batch never mixes epochs.
//
// Reconstructed paths go through a sharded LRU cache whose entries are
// stamped with the snapshot epoch: after a swap a stale cached path can
// never be served (point lookups never touch the cache -- a matrix read is
// cheaper than any cache).  A line-oriented text protocol ("dist 0 5",
// "batch 3", ...) with text or JSONL responses makes the service scriptable
// from the CLI; serve/wire.hpp adds a length-prefixed binary protocol on
// the same service.
#pragma once

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "query/types.hpp"
#include "service/oracle.hpp"
#include "service/stats.hpp"
#include "util/thread_pool.hpp"

namespace dapsp::query {
class Analytics;
}  // namespace dapsp::query

namespace dapsp::service {

struct Query {
  QueryType type = QueryType::kDist;
  NodeId u = 0;
  NodeId v = 0;
  // Analytics parameters (ignored by the point-lookup types).
  std::uint32_t k = 1;        ///< kKPaths: number of paths requested
  std::uint32_t samples = 0;  ///< kBetweenness: source sample (0 = all)
  query::RouteConstraints constraints{};  ///< kRoute

  friend bool operator==(const Query&, const Query&) = default;
};

struct QueryResult {
  QueryType type = QueryType::kDist;
  NodeId u = 0;
  NodeId v = 0;
  bool ok = false;            ///< false = invalid ids / unsupported query
  std::string error;          ///< set when !ok
  Weight dist = graph::kInfDist;  ///< kInfDist when unreachable
  NodeId next_hop = graph::kNoNode;
  std::vector<NodeId> path;   ///< filled for kPath when reachable
  // Analytics payloads.
  bool feasible = true;       ///< kRoute: false when no route satisfies
  std::vector<query::Route> routes;      ///< kKPaths (route_less order)
  query::GraphReport report;             ///< kReport
  std::vector<double> centrality;        ///< kBetweenness

  friend bool operator==(const QueryResult&, const QueryResult&) = default;
};

struct QueryServiceConfig {
  /// Worker threads for query_batch; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Total reconstructed paths kept across all cache shards; 0 disables the
  /// cache entirely (every path query reconstructs).
  std::size_t path_cache_capacity = 4096;
  /// Shards for the path cache (each shard has its own lock); clamped to at
  /// least 1.
  std::size_t cache_shards = 8;
  /// Largest batch the serve loops accept (text "batch N" directive and
  /// binary batch frames).  Oversized batches are rejected whole with a
  /// structured error, never served partially.
  std::size_t max_batch = 1 << 16;
  /// Analytics limits, enforced at parse/decode time with stable errors:
  /// k must be in [1, max_k], each avoid set holds at most max_avoid
  /// entries, and a hop budget that is neither vacuous (>= n-1) nor within
  /// max_hops is refused (it would force an O(max_hops * n) layered
  /// search).
  std::uint32_t max_k = 64;
  std::uint32_t max_avoid = 4096;
  std::uint32_t max_hops = 4096;
  /// Entries kept in the epoch-stamped analytics result cache (keyed by the
  /// full query, so identical kpath/route/report/bc requests replay from
  /// memory until the snapshot swaps); 0 disables it.
  std::size_t analytics_cache_capacity = 256;
};

/// Result of a serve-loop "rebuild" directive (text or binary): the hook is
/// provided by the owner of the SnapshotManager (see
/// serve/snapshot_manager.hpp) and reports the newly published epoch.
struct RebuildOutcome {
  bool ok = false;
  std::uint64_t epoch = 0;
  std::uint64_t build_ns = 0;
  std::string error;
};

/// Serve-loop configuration shared by the text/JSONL and binary protocols.
struct ServeOptions {
  bool json = false;  ///< JSONL responses instead of text (text loop only)
  /// Handler for the "rebuild" directive; when absent the directive is
  /// answered with a structured rebuild_unavailable error.
  std::function<RebuildOutcome()> on_rebuild;
};

class QueryService {
 public:
  /// Serves a finished oracle as the snapshot of epoch 0.
  explicit QueryService(DistanceOracle oracle, QueryServiceConfig cfg = {});
  /// Serves an already shared oracle, which must not be mutated after this
  /// call.
  explicit QueryService(std::shared_ptr<DistanceOracle> snapshot,
                        QueryServiceConfig cfg = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// The snapshot currently serving; pins it against retirement while held.
  std::shared_ptr<const DistanceOracle> snapshot() const {
    std::lock_guard lock(snap_mu_);
    return snap_;
  }
  const QueryServiceConfig& config() const noexcept { return cfg_; }

  /// Attaches the graph the snapshots were built from, enabling the four
  /// analytics query families (kpath/route/report/bc).  Without it they are
  /// answered with a structured "analytics unavailable" error.  Call before
  /// serving; the graph must outlive the service and match every snapshot's
  /// node count.
  void enable_analytics(std::shared_ptr<const graph::Graph> g);
  bool analytics_enabled() const noexcept { return analytics_ != nullptr; }

  /// Atomically publishes `next` as the serving snapshot and returns its
  /// freshly assigned epoch.  Never blocks readers: in-flight queries finish
  /// on the snapshot they started with, and the old snapshot is destroyed
  /// when its last reference drops.  `next` must be exclusively owned by the
  /// caller (its epoch is stamped here, pre-publication).  `rebuild_ns`, when
  /// nonzero, records the background build duration that produced `next` in
  /// the rebuild-latency histogram.
  std::uint64_t swap_snapshot(std::shared_ptr<DistanceOracle> next,
                              std::uint64_t rebuild_ns = 0);

  /// Executes one query.  Thread-safe; any number of callers may query
  /// concurrently, including concurrently with swap_snapshot.
  QueryResult query(const Query& q) const;

  /// Executes a batch on the service's thread pool.  results[i] always
  /// answers queries[i]; output is bit-identical regardless of thread count,
  /// and the whole batch answers from one snapshot (never a mix of epochs).
  std::vector<QueryResult> query_batch(std::span<const Query> queries) const;

  /// Snapshot of the counters accumulated since construction / last reset,
  /// plus the current snapshot's epoch and per-shard occupancy.
  ServiceStats stats() const;
  void reset_stats();

  /// Parses one protocol line:
  ///   "dist U V" | "next U V" | "path U V"
  ///   "kpath U V K"
  ///   "route U V [hops=H] [avoid=a,b,...] [avoidedge=a-b,c-d,...]"
  ///   "report"
  ///   "bc [SAMPLES]"
  /// Returns nullopt and fills *error on malformed input.  Limits (max_k,
  /// max_avoid) are enforced later, at execution, where the config lives.
  static std::optional<Query> parse_query(std::string_view line,
                                          std::string* error);

  static void write_result_text(const QueryResult& r, std::ostream& out);
  /// One JSON object per result (JSONL); kInfDist renders as null.
  static void write_result_json(const QueryResult& r, std::ostream& out);

  /// Reads protocol lines from `in` until EOF or "quit", answering each on
  /// `out` (text or JSONL).  Blank lines and '#' comments are skipped.
  /// Directives: "stats" prints a counters snapshot, "batch N" executes the
  /// next N query lines as one pipelined batch (rejected whole with a
  /// structured error when N exceeds config().max_batch), "rebuild" invokes
  /// opts.on_rebuild.  Returns the number of malformed lines (the CLI turns
  /// nonzero into a nonzero exit code).
  int serve_stream(std::istream& in, std::ostream& out,
                   const ServeOptions& opts) const;
  int serve_stream(std::istream& in, std::ostream& out, bool json) const {
    ServeOptions opts;
    opts.json = json;
    return serve_stream(in, out, opts);
  }

 private:
  class PathCache;
  class AnalyticsCache;
  struct Recorder;

  QueryResult execute(const DistanceOracle& snap, const Query& q) const;
  QueryResult execute_analytics(const DistanceOracle& snap,
                                const Query& q) const;
  QueryResult timed_execute(const DistanceOracle& snap, const Query& q) const;
  void serve_batch_directive(std::istream& in, std::ostream& out,
                             const ServeOptions& opts, std::uint64_t count,
                             int* malformed) const;

  QueryServiceConfig cfg_;
  mutable std::mutex snap_mu_;  ///< guards snap_ -- pointer copies only
  std::shared_ptr<const DistanceOracle> snap_;
  std::atomic<std::uint64_t> epoch_{0};  ///< last assigned epoch
  std::unique_ptr<PathCache> cache_;     // null when capacity == 0
  std::unique_ptr<Recorder> recorder_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<query::Analytics> analytics_;  // null until enabled
  std::unique_ptr<AnalyticsCache> acache_;       // null when disabled
};

}  // namespace dapsp::service
