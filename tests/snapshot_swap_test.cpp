// Hot-swap correctness under concurrency: queries racing swap_snapshot must
// always answer from exactly one snapshot (old or new, never a mix within a
// batch), the epoch-stamped path cache must never serve a stale path after a
// swap, and a failed background rebuild must leave the serving snapshot
// untouched.  This binary is the `service` tier's ThreadSanitizer target --
// the CI tsan job runs it with 4 reader threads against a rebuild loop.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "serve/snapshot_manager.hpp"
#include "service/query_service.hpp"

namespace dapsp::serve {
namespace {

using graph::Graph;
using graph::kInfDist;
using graph::Weight;
using service::Query;
using service::QueryResult;
using service::QueryService;
using service::QueryType;

constexpr service::OracleBuildOptions kRef{service::Solver::kReference, 0,
                                           0.5};

/// A reference oracle of `shards` row shards, ready for swap_snapshot.
std::shared_ptr<service::DistanceOracle> shared_ref(const Graph& g,
                                                    std::size_t shards) {
  return std::make_shared<service::DistanceOracle>(
      service::build_oracle(g, kRef, shards));
}

TEST(SnapshotSwap, EpochAdvancesAndRetiresOldSnapshot) {
  const Graph g = graph::erdos_renyi(16, 0.3, {1, 7, 0.0}, 50);
  QueryService svc(service::build_oracle(g, kRef));
  auto first = svc.snapshot();
  EXPECT_EQ(first->epoch(), 0u);

  std::weak_ptr<const service::DistanceOracle> retired = first;
  EXPECT_EQ(svc.swap_snapshot(shared_ref(g, 2)), 1u);
  EXPECT_EQ(svc.swap_snapshot(shared_ref(g, 4)), 2u);
  EXPECT_EQ(svc.snapshot()->epoch(), 2u);
  EXPECT_EQ(svc.stats().snapshot_epoch, 2u);
  EXPECT_EQ(svc.stats().swaps, 2u);
  EXPECT_EQ(svc.stats().shards.size(), 4u);

  // The original snapshot stays alive exactly as long as someone pins it.
  EXPECT_FALSE(retired.expired());
  EXPECT_EQ(first->dist(0, 1), svc.snapshot()->dist(0, 1));
  first.reset();
  EXPECT_TRUE(retired.expired());
}

TEST(SnapshotSwap, PathCacheNeverServesStaleEntriesAcrossSwaps) {
  // Two graphs over the same nodes with different shortest 0 -> 3 paths:
  // A routes 0-1-3 (cost 2), B routes 0-2-3 (cost 2 via different nodes).
  graph::GraphBuilder a(4, /*directed=*/false);
  a.add_edge(0, 1, 1);
  a.add_edge(1, 3, 1);
  a.add_edge(0, 2, 5);
  a.add_edge(2, 3, 5);
  graph::GraphBuilder b(4, /*directed=*/false);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 3, 5);
  b.add_edge(0, 2, 1);
  b.add_edge(2, 3, 1);
  const Graph ga = std::move(a).build();
  const Graph gb = std::move(b).build();

  service::QueryServiceConfig cfg;
  cfg.path_cache_capacity = 64;
  QueryService svc(service::build_oracle(ga, kRef), cfg);
  const Query q{QueryType::kPath, 0, 3};

  const QueryResult before = svc.query(q);
  ASSERT_TRUE(before.ok);
  EXPECT_EQ(before.path, (std::vector<graph::NodeId>{0, 1, 3}));
  // Second hit comes from the cache (same epoch).
  EXPECT_EQ(svc.query(q).path, before.path);
  EXPECT_EQ(svc.stats().cache_hits, 1u);

  svc.swap_snapshot(shared_ref(gb, 2));
  const QueryResult after = svc.query(q);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.path, (std::vector<graph::NodeId>{0, 2, 3}))
      << "stale cached path served after a swap";
  // The stale entry was overwritten in place; the new epoch now hits.
  EXPECT_EQ(svc.query(q).path, after.path);
  EXPECT_EQ(svc.stats().cache_hits, 2u);
}

TEST(SnapshotSwap, FailedRebuildLeavesServingSnapshotUntouched) {
  const Graph g = graph::erdos_renyi(12, 0.3, {1, 6, 0.0}, 51);
  QueryService svc(service::build_oracle(g, kRef));
  SnapshotManager manager(svc, g, kRef, 2);

  ASSERT_TRUE(manager.rebuild_now().ok);
  EXPECT_EQ(svc.snapshot()->epoch(), 1u);

  manager.set_graph(Graph{});  // empty graph: the builder throws
  const service::RebuildOutcome failed = manager.rebuild_now();
  EXPECT_FALSE(failed.ok);
  EXPECT_FALSE(failed.error.empty());
  EXPECT_EQ(manager.stats().rebuilds_failed, 1u);
  // Still serving the last good snapshot at the last good epoch.
  EXPECT_EQ(svc.snapshot()->epoch(), 1u);
  EXPECT_TRUE(svc.query({QueryType::kDist, 0, 1}).ok);

  manager.set_graph(g);
  EXPECT_TRUE(manager.rebuild_now().ok);
  EXPECT_EQ(manager.stats().rebuilds_ok, 2u);
  EXPECT_EQ(svc.snapshot()->epoch(), 2u);
}

TEST(SnapshotSwap, RebuildAsyncCoalescesToLatestGraph) {
  const Graph g = graph::erdos_renyi(10, 0.3, {1, 5, 0.0}, 52);
  QueryService svc(service::build_oracle(g, kRef));
  SnapshotManager manager(svc, g, kRef, 2);
  for (int i = 0; i < 32; ++i) manager.rebuild_async();
  manager.wait_idle();
  const SnapshotManager::Stats st = manager.stats();
  // At least one rebuild ran; bursts coalesce instead of queueing 32 deep.
  EXPECT_GE(st.rebuilds_ok, 1u);
  EXPECT_LE(st.rebuilds_ok, 32u);
  EXPECT_EQ(st.rebuilds_failed, 0u);
  EXPECT_EQ(svc.snapshot()->epoch(), st.last_epoch);
}

// Regression: rebuild_now used to be rebuild_async + wait_idle + "read the
// latest stats", which has two failure modes under concurrency.  First,
// wait_idle never returns while other threads keep the pending slot full,
// so a flooded rebuild_now starves.  Second, the stats it finally read
// could describe a build that finished *before* this caller's request was
// ever dequeued -- another caller's outcome.  The generation counter fixes
// both: each rebuild_now returns as soon as a build that covers its own
// request lands, and returns that build's outcome.
TEST(SnapshotSwap, RebuildNowReturnsOwnOutcomeUnderConcurrentRequests) {
  const Graph g = graph::erdos_renyi(10, 0.3, {1, 5, 0.0}, 53);
  QueryService svc(service::build_oracle(g, kRef));
  SnapshotManager manager(svc, g, kRef, 2);

  std::atomic<bool> stop{false};
  std::vector<std::thread> flooders;
  for (int t = 0; t < 2; ++t) {
    flooders.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        manager.rebuild_async();
        std::this_thread::yield();
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t last_epoch = 0;
  for (int i = 0; i < 8; ++i) {
    const service::RebuildOutcome out = manager.rebuild_now();
    // The covering build really ran and published: a real epoch, a real
    // duration, and monotone progress across our calls.
    EXPECT_TRUE(out.ok) << out.error;
    EXPECT_GT(out.epoch, 0u);
    EXPECT_GE(out.epoch, last_epoch);
    EXPECT_GT(out.build_ns, 0u);
    EXPECT_TRUE(out.error.empty());
    last_epoch = out.epoch;
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  stop.store(true, std::memory_order_release);
  for (std::thread& t : flooders) t.join();

  // Starvation guard: with the flooders keeping pending_ permanently set,
  // the old wait_idle-based implementation never gets past its predicate;
  // eight blocking rebuilds of a 10-node oracle must finish promptly.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
  manager.wait_idle();
  EXPECT_EQ(manager.stats().rebuilds_failed, 0u);
  EXPECT_GE(svc.snapshot()->epoch(), last_epoch);
}

// The headline race test: N threads issue single queries and batches while
// the snapshot manager alternates between two graphs, rebuilding and
// swapping continuously.  Every single-query response must match one of the
// two closures, and every batch must match ONE of them on every query --
// a batch straddling a swap must never mix answers from both.
TEST(SnapshotSwap, ConcurrentQueriesNeverObserveMixedSnapshots) {
  constexpr graph::NodeId kN = 24;
  const Graph ga = graph::erdos_renyi(kN, 0.25, {1, 9, 0.0}, 42);
  const Graph gb = graph::erdos_renyi(kN, 0.25, {1, 9, 0.0}, 43);
  const service::DistanceOracle refA = service::build_oracle(ga, kRef);
  const service::DistanceOracle refB = service::build_oracle(gb, kRef);

  // Query pairs where the two closures disagree, so a mixed batch cannot
  // masquerade as a consistent one.
  std::vector<Query> probes;
  for (graph::NodeId u = 0; u < kN && probes.size() < 16; ++u) {
    for (graph::NodeId v = 0; v < kN && probes.size() < 16; ++v) {
      if (refA.dist(u, v) != refB.dist(u, v)) {
        probes.push_back({QueryType::kDist, u, v});
      }
    }
  }
  ASSERT_GE(probes.size(), 8u) << "seeds produced near-identical closures";

  service::QueryServiceConfig cfg;
  cfg.threads = 2;
  cfg.path_cache_capacity = 128;
  QueryService svc(service::build_oracle(ga, kRef), cfg);
  SnapshotManager manager(svc, ga, kRef, 4);

  const auto matches = [](const std::vector<QueryResult>& results,
                          const std::vector<Query>& qs,
                          const service::DistanceOracle& ref) {
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (!results[i].ok || results[i].dist != ref.dist(qs[i].u, qs[i].v)) {
        return false;
      }
    }
    return true;
  };

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> batches_checked{0};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::vector<QueryResult> res = svc.query_batch(probes);
        if (!matches(res, probes, refA) && !matches(res, probes, refB)) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        const QueryResult one = svc.query(probes[0]);
        if (!one.ok ||
            (one.dist != refA.dist(probes[0].u, probes[0].v) &&
             one.dist != refB.dist(probes[0].u, probes[0].v))) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        batches_checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Alternate the serving graph under the readers' feet.
  for (int cycle = 0; cycle < 12; ++cycle) {
    manager.set_graph(cycle % 2 == 0 ? gb : ga);
    const service::RebuildOutcome rc = manager.rebuild_now();
    ASSERT_TRUE(rc.ok) << rc.error;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(batches_checked.load(), 0u);
  EXPECT_EQ(svc.snapshot()->epoch(), 12u);
  const service::ServiceStats st = svc.stats();
  EXPECT_EQ(st.swaps, 12u);
  EXPECT_EQ(st.of(QueryType::kDist).errors, 0u);
}

}  // namespace
}  // namespace dapsp::serve
