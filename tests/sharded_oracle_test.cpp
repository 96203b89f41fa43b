// Differential tests for the row-sharded DistanceOracle: for every solver
// and shard count, the oracle must answer bit-identically to the one-shard
// (flat) oracle built from the same graph -- distances, next hops, and full
// reconstructed paths.  Sharding is a representation change, never a
// semantics change.
#include <gtest/gtest.h>

#include <numeric>

#include "graph/generators.hpp"
#include "seq/dijkstra.hpp"
#include "service/oracle.hpp"

namespace dapsp::service {
namespace {

using graph::Graph;
using graph::kInfDist;
using graph::kNoNode;
using graph::Weight;

const std::size_t kShardCounts[] = {1, 2, 4, 8};

void expect_identical(const DistanceOracle& flat,
                      const DistanceOracle& sharded) {
  const NodeId n = flat.node_count();
  ASSERT_EQ(sharded.node_count(), n);
  EXPECT_EQ(sharded.exact(), flat.exact());
  EXPECT_EQ(sharded.has_paths(), flat.has_paths());
  EXPECT_EQ(sharded.solver_label(), flat.solver_label());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(sharded.dist(u, v), flat.dist(u, v)) << u << "->" << v;
      ASSERT_EQ(sharded.next_hop(u, v), flat.next_hop(u, v))
          << u << "->" << v;
      const auto pf = flat.path(u, v);
      const auto ps = sharded.path(u, v);
      ASSERT_EQ(ps.has_value(), pf.has_value()) << u << "->" << v;
      if (pf) {
        ASSERT_EQ(*ps, *pf) << u << "->" << v;
      }
    }
  }
}

/// Shard ranges must partition [0, n) in order with no gaps or overlaps,
/// and byte counts must sum to the reported total.
void expect_valid_layout(const DistanceOracle& snap) {
  const auto layout = snap.shard_layout();
  ASSERT_FALSE(layout.empty());
  std::uint32_t expect_begin = 0;
  std::size_t bytes = 0;
  for (const ShardInfo& s : layout) {
    EXPECT_EQ(s.row_begin, expect_begin);
    EXPECT_LT(s.row_begin, s.row_end);
    expect_begin = s.row_end;
    bytes += s.bytes;
  }
  EXPECT_EQ(expect_begin, snap.node_count());
  EXPECT_EQ(bytes, snap.memory_bytes());
}

TEST(ShardedOracle, BitIdenticalToFlatAcrossSolversAndShardCounts) {
  const Graph g = graph::erdos_renyi(18, 0.2, {0, 7, 0.3}, 901);
  for (const Solver s : {Solver::kPipelined, Solver::kBlocker,
                         Solver::kScaled, Solver::kApprox,
                         Solver::kReference}) {
    const OracleBuildOptions opts{s, 0, 0.5};
    const DistanceOracle flat = build_oracle(g, opts);
    for (const std::size_t shards : kShardCounts) {
      SCOPED_TRACE(std::string("solver=") + solver_name(s) +
                   " shards=" + std::to_string(shards));
      const DistanceOracle sharded = build_oracle(g, opts, shards);
      expect_identical(flat, sharded);
      expect_valid_layout(sharded);
      // Equal rows-per-shard partitioning: ceil(n / ceil(n/S)) shards.
      const std::size_t n = g.node_count();
      const std::size_t rows =
          (n + std::min(shards, n) - 1) / std::min(shards, n);
      EXPECT_EQ(sharded.shard_count(), (n + rows - 1) / rows);
    }
  }
}

/// The reference closure built the slow, obvious way: one serial
/// seq::dijkstra per source into the vector-of-rows make_oracle.
DistanceOracle serial_reference(const Graph& g) {
  std::vector<std::vector<Weight>> dist;
  std::vector<std::vector<NodeId>> parent;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    seq::SsspResult r = seq::dijkstra(g, s);
    dist.push_back(std::move(r.dist));
    parent.push_back(std::move(r.parent));
  }
  return make_oracle(dist, parent, {kReferenceLabel, true, {}, {}});
}

TEST(ShardedOracle, PooledReferenceSweepMatchesSerialBuild) {
  const Graph rmat = graph::rmat(8, 8, {0, 8, 0.0}, 11);
  const Graph zero_grid = graph::grid(12, 12, {0, 2, 0.7}, 12);
  const OracleBuildOptions opts{Solver::kReference, 0, 0.5};
  for (const Graph* g : {&rmat, &zero_grid}) {
    SCOPED_TRACE("n=" + std::to_string(g->node_count()));
    const DistanceOracle serial = serial_reference(*g);
    const DistanceOracle flat = build_oracle(*g, opts);
    expect_identical(serial, flat);
    // The sweep's provenance: arcs x sources over its own wall time.
    const std::uint64_t arcs =
        static_cast<std::uint64_t>(g->edge_count()) * g->node_count();
    EXPECT_EQ(flat.meta().build_arcs, arcs);
    EXPECT_GT(flat.meta().build_s, 0.0);
    EXPECT_GT(flat.meta().build_mteps(), 0.0);
    for (const std::size_t shards : {1u, 3u, 8u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      const DistanceOracle sharded = build_oracle(*g, opts, shards);
      expect_identical(serial, sharded);
      expect_valid_layout(sharded);
      EXPECT_EQ(sharded.meta().build_arcs, arcs);
      EXPECT_GT(sharded.meta().build_s, 0.0);
    }
  }
}

TEST(ShardedOracle, ShardCountClampedToNodeCount) {
  const Graph g = graph::path(3, {1, 4, 0.0}, 903);
  const DistanceOracle o = build_oracle(g, {Solver::kReference, 0, 0.5}, 64);
  EXPECT_EQ(o.shard_count(), 3u);
  expect_valid_layout(o);
}

TEST(ShardedOracle, SingleNodeGraph) {
  const Graph g = graph::path(1, {1, 1, 0.0}, 904);
  const DistanceOracle o = build_oracle(g, {Solver::kReference, 0, 0.5}, 4);
  EXPECT_EQ(o.shard_count(), 1u);
  EXPECT_EQ(o.dist(0, 0), 0);
  const auto p = o.path(0, 0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, std::vector<NodeId>{0});
}

TEST(ShardedOracle, UnevenLastShard) {
  // n = 10, shards = 4 -> rows-per-shard 3 and a final shard of one row;
  // every row must still be owned exactly once.
  const Graph g = graph::erdos_renyi(10, 0.3, {0, 5, 0.2}, 905);
  const OracleBuildOptions opts{Solver::kReference, 0, 0.5};
  const DistanceOracle flat = build_oracle(g, opts);
  const DistanceOracle o = build_oracle(g, opts, 4);
  EXPECT_EQ(o.shard_count(), 4u);
  EXPECT_EQ(o.shard_info(3).row_end - o.shard_info(3).row_begin, 1u);
  expect_identical(flat, o);
  expect_valid_layout(o);
}

TEST(ShardedOracle, ApproxShardsAreDistanceOnly) {
  const Graph g = graph::erdos_renyi(14, 0.3, {1, 6, 0.0}, 906);
  const DistanceOracle o = build_oracle(g, {Solver::kApprox, 0, 0.5}, 4);
  EXPECT_FALSE(o.has_paths());
  EXPECT_FALSE(o.exact());
  EXPECT_EQ(o.next_hop(0, 1), kNoNode);
  EXPECT_FALSE(o.path(0, 1).has_value());
}

TEST(ShardedOracle, OneShardCoversEveryRow) {
  // S = 1 is the flat table: one shard spanning every source row, holding
  // n^2 distance and next-hop cells.
  const Graph g = graph::erdos_renyi(12, 0.3, {0, 6, 0.2}, 907);
  const DistanceOracle o = build_oracle(g, {Solver::kReference, 0, 0.5});
  EXPECT_EQ(o.shard_count(), 1u);
  EXPECT_EQ(o.shard_info(0).row_begin, 0u);
  EXPECT_EQ(o.shard_info(0).row_end, 12u);
  EXPECT_EQ(o.shard_info(0).bytes, 144 * (sizeof(Weight) + sizeof(NodeId)));
  expect_valid_layout(o);
}

}  // namespace
}  // namespace dapsp::service
