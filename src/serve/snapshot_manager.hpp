// Background oracle rebuilds with atomic hot swap.
//
// A SnapshotManager owns one worker thread and a latest-wins rebuild slot.
// `rebuild_async` (or the blocking `rebuild_now`) constructs a replacement
// DistanceOracle on the worker from the manager's current graph, build
// options and shard count, and publishes it through
// QueryService::swap_snapshot -- readers never block; queries in flight
// when the swap lands finish on the snapshot they started with, and the
// old snapshot is destroyed when its last in-flight reference drops
// (epoch/shared_ptr retirement).  Rebuild durations are recorded into the
// service's rebuild-latency histogram and surface in the stats JSONL next
// to per-shard occupancy.
//
// `set_graph` swaps the input the next rebuild runs on (e.g. re-weighted
// edges), which is how the sustained-load bench alternates snapshots under
// traffic.  Build failures (a fault plan partitioning the run, a solver
// throw) leave the serving snapshot untouched and are reported in stats()
// -- a failed rebuild never degrades live traffic.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "graph/graph.hpp"
#include "service/oracle.hpp"
#include "service/query_service.hpp"

namespace dapsp::serve {

class SnapshotManager {
 public:
  struct Stats {
    std::uint64_t rebuilds_ok = 0;
    std::uint64_t rebuilds_failed = 0;
    std::uint64_t last_build_ns = 0;
    std::uint64_t last_epoch = 0;
    std::string last_error;  ///< most recent failure, empty when none
  };

  /// The service must outlive the manager.  `shards` is the shard count for
  /// every snapshot this manager builds.
  SnapshotManager(service::QueryService& svc, graph::Graph g,
                  service::OracleBuildOptions opts, std::size_t shards);
  ~SnapshotManager();  ///< drains the pending slot, then joins the worker

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// Replaces the graph the next rebuild runs on (the serving snapshot is
  /// unaffected until that rebuild publishes).
  void set_graph(graph::Graph g);

  /// Requests a rebuild and returns immediately.  Requests made while a
  /// build is running coalesce into one pending slot (latest wins): the
  /// worker always builds from the newest graph, so queueing cannot fall
  /// behind a fast mutation stream.
  void rebuild_async();

  /// Blocks until no rebuild is running or pending.
  void wait_idle();

  /// Requests a rebuild and waits until a build that *covers this request*
  /// completes, returning that build's outcome.  "Covers" is tracked with a
  /// generation counter: each request stamps a generation, the worker claims
  /// the newest generation when it dequeues, and completion publishes it --
  /// so a caller returns as soon as any build submitted at-or-after its
  /// request finishes, even while other threads keep flooding
  /// rebuild_async.  (The old wait-for-idle implementation could starve
  /// under that flood and, worse, report a different caller's outcome.)
  service::RebuildOutcome rebuild_now();

  Stats stats() const;

 private:
  void worker_loop();
  void run_one_rebuild(std::uint64_t claimed_gen);

  service::QueryService& svc_;
  const service::OracleBuildOptions opts_;
  const std::size_t shards_;

  mutable std::mutex mu_;
  std::condition_variable cv_;       // wakes the worker
  std::condition_variable idle_cv_;  // wakes wait_idle
  graph::Graph graph_;               // input of the next rebuild
  bool pending_ = false;
  bool building_ = false;
  bool stop_ = false;
  Stats stats_;

  // Rebuild generations (all under mu_): a request bumps submitted_gen_;
  // the worker claims submitted_gen_ at dequeue and stores it into
  // done_gen_ (with the outcome in last_outcome_) when that build lands.
  // rebuild_now(gen g) waits for done_gen_ >= g.
  std::uint64_t submitted_gen_ = 0;
  std::uint64_t done_gen_ = 0;
  service::RebuildOutcome last_outcome_;
  std::condition_variable done_cv_;  // wakes rebuild_now waiters

  std::thread worker_;
};

}  // namespace dapsp::serve
