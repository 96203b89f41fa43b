#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "seq/bellman_ford.hpp"
#include "seq/dijkstra.hpp"
#include "seq/hop_limited.hpp"
#include "seq/zero_reach.hpp"

namespace dapsp::seq {
namespace {

using graph::Edge;
using graph::Graph;
using graph::GraphBuilder;
using graph::kInfDist;
using graph::kNoNode;
using graph::NodeId;
using graph::Weight;

Graph diamond() {
  // 0 -> 1 -> 3 (weight 1+1) and 0 -> 2 -> 3 (weight 0+0), plus 0 -> 3 (5).
  GraphBuilder b(4, /*directed=*/true);
  b.add_edge(0, 1, 1).add_edge(1, 3, 1);
  b.add_edge(0, 2, 0).add_edge(2, 3, 0);
  b.add_edge(0, 3, 5);
  return std::move(b).build();
}

TEST(Dijkstra, ZeroWeightPathPreferred) {
  const auto r = dijkstra(diamond(), 0);
  EXPECT_EQ(r.dist[3], 0);
  EXPECT_EQ(r.hops[3], 2u);
  EXPECT_EQ(r.parent[3], 2u);
}

TEST(Dijkstra, UnreachableIsInf) {
  GraphBuilder b(3, /*directed=*/true);
  b.add_edge(0, 1, 2);
  const auto r = dijkstra(std::move(b).build(), 0);
  EXPECT_EQ(r.dist[2], kInfDist);
  EXPECT_EQ(r.parent[2], kNoNode);
}

TEST(Dijkstra, HopTieBreaking) {
  // Two zero-weight routes 0->3: via 1 (2 hops) and via 1->2 (3 hops).
  GraphBuilder b(4, /*directed=*/true);
  b.add_edge(0, 1, 0).add_edge(1, 3, 0);
  b.add_edge(1, 2, 0).add_edge(2, 3, 0);
  const auto r = dijkstra(std::move(b).build(), 0);
  EXPECT_EQ(r.dist[3], 0);
  EXPECT_EQ(r.hops[3], 2u);
}

TEST(Dijkstra, ReverseMatchesForwardOnReversedGraph) {
  const Graph g = graph::erdos_renyi(25, 0.15, {0, 6, 0.2}, 31,
                                     /*directed=*/true);
  for (NodeId t = 0; t < 5; ++t) {
    const auto rev = dijkstra_reverse(g, t);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto fwd = dijkstra(g, v);
      EXPECT_EQ(rev.dist[v], fwd.dist[t]) << "v=" << v << " t=" << t;
    }
  }
}

/// Independent (d, l, min-parent) reference: label-correct (dist, hops) to
/// a fixpoint over every arc, then pick each node's parent as the smallest
/// id among the in-neighbours that realize its label.  `reverse` follows
/// arcs backwards (labels are distances into `root`).
SsspResult label_correcting(const Graph& g, NodeId root, bool reverse) {
  const NodeId n = g.node_count();
  SsspResult r{std::vector<Weight>(n, kInfDist),
               std::vector<std::uint32_t>(n, 0),
               std::vector<NodeId>(n, kNoNode)};
  r.dist[root] = 0;
  const auto tail = [&](const Edge& e) { return reverse ? e.to : e.from; };
  const auto head = [&](const Edge& e) { return reverse ? e.from : e.to; };
  for (bool changed = true; changed;) {
    changed = false;
    for (const Edge& e : g.edges()) {
      const NodeId u = tail(e);
      const NodeId v = head(e);
      if (r.dist[u] == kInfDist) continue;
      const Weight d = r.dist[u] + e.weight;
      const std::uint32_t h = r.hops[u] + 1;
      if (d < r.dist[v] || (d == r.dist[v] && h < r.hops[v])) {
        r.dist[v] = d;
        r.hops[v] = h;
        changed = true;
      }
    }
  }
  for (const Edge& e : g.edges()) {
    const NodeId u = tail(e);
    const NodeId v = head(e);
    if (v == root || r.dist[u] == kInfDist) continue;
    if (r.dist[u] + e.weight == r.dist[v] && r.hops[u] + 1 == r.hops[v]) {
      r.parent[v] = std::min(r.parent[v], u);
    }
  }
  return r;
}

void expect_same_labels(const SsspResult& got, const SsspResult& want,
                        const std::string& where) {
  ASSERT_EQ(got.dist.size(), want.dist.size()) << where;
  for (std::size_t v = 0; v < want.dist.size(); ++v) {
    ASSERT_EQ(got.dist[v], want.dist[v]) << where << " v=" << v;
    ASSERT_EQ(got.hops[v], want.hops[v]) << where << " v=" << v;
    ASSERT_EQ(got.parent[v], want.parent[v]) << where << " v=" << v;
  }
}

TEST(Dijkstra, MatchesLabelCorrectingReferenceOnRandomGraphs) {
  // Weights 0..2 with extra zero coin flips give many zero arcs and many
  // equal-(d, l) ties; connect=false leaves disconnected parts.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const bool directed = seed % 2 == 0;
    const double zeros = seed % 3 == 0 ? 0.6 : 0.3;
    const Graph g = graph::erdos_renyi(40, 0.06, {0, 2, zeros}, 500 + seed,
                                       directed, /*connect=*/false);
    for (NodeId s = 0; s < g.node_count(); s += 3) {
      const std::string where = "seed=" + std::to_string(seed) +
                                " s=" + std::to_string(s);
      expect_same_labels(dijkstra(g, s), label_correcting(g, s, false),
                         "forward " + where);
      expect_same_labels(dijkstra_reverse(g, s), label_correcting(g, s, true),
                         "reverse " + where);
    }
  }
}

TEST(Dijkstra, WorkspaceReuseAcrossGraphSizes) {
  // One thread, so every call shares one heap and settled array: a large
  // graph, then a tiny one, then the large one again must each come out
  // exactly as the reference says.
  const Graph big = graph::erdos_renyi(500, 0.01, {0, 3, 0.3}, 61,
                                       /*directed=*/true, /*connect=*/false);
  const Graph tiny = graph::path(3, {0, 1, 0.5}, 62);
  for (const Graph* g : {&big, &tiny, &big}) {
    const NodeId n = g->node_count();
    for (const NodeId s : {NodeId{0}, NodeId{1}, static_cast<NodeId>(n - 1)}) {
      const std::string where = "n=" + std::to_string(n) +
                                " s=" + std::to_string(s);
      expect_same_labels(dijkstra(*g, s), label_correcting(*g, s, false),
                         "forward " + where);
      expect_same_labels(dijkstra_reverse(*g, s),
                         label_correcting(*g, s, true), "reverse " + where);
    }
  }
}

TEST(BellmanFord, AgreesWithDijkstraRandom) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Graph g = graph::erdos_renyi(30, 0.12, {0, 9, 0.25}, 100 + seed,
                                       seed % 2 == 0);
    for (NodeId s = 0; s < 4; ++s) {
      const auto bf = bellman_ford(g, s);
      const auto dj = dijkstra(g, s);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_EQ(bf.dist[v], dj.dist[v]) << "seed=" << seed << " v=" << v;
        EXPECT_EQ(bf.hops[v], dj.hops[v]) << "seed=" << seed << " v=" << v;
      }
    }
  }
}

TEST(HopLimited, RespectsHopBudget) {
  const Graph g = graph::path(6, {1, 1, 0.0}, 3);
  const auto r2 = hop_limited_sssp(g, 0, 2);
  EXPECT_EQ(r2.dist[2], 2);
  EXPECT_EQ(r2.dist[3], kInfDist);
  const auto r5 = hop_limited_sssp(g, 0, 5);
  EXPECT_EQ(r5.dist[5], 5);
}

TEST(HopLimited, TradeoffBetweenHopsAndWeight) {
  // 0->1->2 has weight 0 but 2 hops; 0->2 direct costs 7.
  GraphBuilder b(3, /*directed=*/true);
  b.add_edge(0, 1, 0).add_edge(1, 2, 0).add_edge(0, 2, 7);
  const Graph g = std::move(b).build();
  EXPECT_EQ(hop_limited_sssp(g, 0, 1).dist[2], 7);
  EXPECT_EQ(hop_limited_sssp(g, 0, 2).dist[2], 0);
}

TEST(HopLimited, FullBudgetMatchesDijkstra) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Graph g = graph::erdos_renyi(24, 0.15, {0, 7, 0.3}, 200 + seed,
                                       seed % 2 == 1);
    const auto h = static_cast<std::uint32_t>(g.node_count() - 1);
    for (NodeId s = 0; s < 3; ++s) {
      const auto hl = hop_limited_sssp(g, s, h);
      const auto dj = dijkstra(g, s);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_EQ(hl.dist[v], dj.dist[v]);
        if (hl.dist[v] != kInfDist) {
          EXPECT_EQ(hl.hops[v], dj.hops[v]);
        }
      }
    }
  }
}

TEST(HopLimited, MonotoneInHops) {
  const Graph g = graph::erdos_renyi(20, 0.2, {0, 5, 0.3}, 300);
  const NodeId s = 0;
  auto prev = hop_limited_sssp(g, s, 1);
  for (std::uint32_t h = 2; h <= 8; ++h) {
    const auto cur = hop_limited_sssp(g, s, h);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_LE(cur.dist[v], prev.dist[v]);
    }
    prev = cur;
  }
}

TEST(HopLimited, KsspRunsAllSources) {
  const Graph g = graph::cycle(8, {1, 1, 0.0}, 4);
  const auto rs = hop_limited_ksssp(g, {0, 3, 5}, 3);
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(rs[0].dist[3], 3);
  EXPECT_EQ(rs[1].dist[0], 3);
}

TEST(ZeroReach, FindsZeroPathsOnly) {
  GraphBuilder b(5, /*directed=*/true);
  b.add_edge(0, 1, 0).add_edge(1, 2, 0).add_edge(2, 3, 1).add_edge(3, 4, 0);
  const auto reach = zero_reachability(std::move(b).build());
  EXPECT_TRUE(reach[0][0]);
  EXPECT_TRUE(reach[0][2]);
  EXPECT_FALSE(reach[0][3]);
  EXPECT_TRUE(reach[3][4]);
  EXPECT_FALSE(reach[1][0]);
}

TEST(ZeroReach, MatchesDijkstraZeroDistance) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Graph g = graph::erdos_renyi(22, 0.15, {0, 4, 0.4}, 400 + seed,
                                       /*directed=*/true);
    const auto reach = zero_reachability(g);
    for (NodeId s = 0; s < g.node_count(); ++s) {
      const auto dj = dijkstra(g, s);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_EQ(reach[s][v], dj.dist[v] == 0) << s << "->" << v;
      }
    }
  }
}

}  // namespace
}  // namespace dapsp::seq
