// Tests for Algorithm 1, the pipelined (h,k)-SSP algorithm.  The oracle is
// the sequential hop-limited DP; every sweep checks distances, hop counts,
// the Lemma II.14 round bound, and the Invariant-2 list occupancy bound.
#include <gtest/gtest.h>

#include <string>

#include "core/bounds.hpp"
#include "core/pipelined_ssp.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "seq/dijkstra.hpp"
#include "seq/hop_limited.hpp"
#include "util/int_math.hpp"

namespace dapsp::core {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::kInfDist;
using graph::kNoNode;
using graph::NodeId;
using graph::WeightSpec;

/// Validates one Algorithm-1 run against the paper's guarantee
/// (Lemma II.13): for every pair whose *true* shortest path is achievable
/// within h hops ("in scope" -- the CSSSP tree-membership condition), the
/// exact distance and min-hop count must be computed; for other pairs the
/// value is only required to be a sound over-estimate (the weight of some
/// <= h-hop walk, hence >= the h-hop optimum) or infinity.
void check_against_oracle(const Graph& g, const KsspResult& res,
                          std::uint32_t h, const std::string& label) {
  SCOPED_TRACE(label);
  // Note: the run may stop at the Lemma II.14 round budget with non-SP
  // stragglers still scheduled -- that is the algorithm's designed
  // termination, so hit_round_limit is not an error here.
  for (std::size_t i = 0; i < res.sources.size(); ++i) {
    const auto dj = seq::dijkstra(g, res.sources[i]);
    const auto hop = seq::hop_limited_sssp(g, res.sources[i], h);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const bool in_scope = dj.dist[v] != kInfDist && dj.hops[v] <= h;
      if (in_scope) {
        ASSERT_EQ(res.dist[i][v], dj.dist[v])
            << "source " << res.sources[i] << " node " << v;
        EXPECT_EQ(res.hops[i][v], dj.hops[v])
            << "source " << res.sources[i] << " node " << v;
        if (v != res.sources[i]) {
          // Parent must be a real predecessor over an existing arc.
          const NodeId p = res.parent[i][v];
          ASSERT_NE(p, kNoNode);
          EXPECT_TRUE(g.arc_weight(p, v).has_value());
        }
      } else {
        // Sound over-estimate: never below the h-hop optimum.
        EXPECT_TRUE(res.dist[i][v] == kInfDist ||
                    res.dist[i][v] >= hop.dist[v])
            << "source " << res.sources[i] << " node " << v;
      }
    }
  }
  // Lemma II.14: everything settles within the theoretical bound.
  EXPECT_LE(res.settle_round, res.theoretical_bound) << label;
}

/// Invariant 2 (Lemma II.11): per-source list occupancy <= h/gamma + 1.
/// The literal INSERT policy respects the cap exactly; the delivery-safe
/// dominance default keeps extra non-dominated entries and is held to a 2x
/// envelope (measured; see DESIGN.md note 3).
void check_invariant2(const KsspResult& res, std::uint32_t h,
                      std::uint64_t k, Weight delta, ListPolicy policy) {
  const GammaSq gamma = GammaSq::paper(k, h, static_cast<std::uint64_t>(delta));
  const std::uint64_t cap =
      gamma.num == 0
          ? h + 1
          : util::ceil_mul_sqrt(h, gamma.den, gamma.num) + 1;
  if (policy == ListPolicy::kLiteral) {
    EXPECT_LE(res.max_entries_per_source, cap);
  } else {
    EXPECT_LE(res.max_entries_per_source, 2 * cap + 2);
  }
}

struct SweepCase {
  NodeId n;
  double p;
  WeightSpec w;
  bool directed;
  std::uint32_t h;
  std::uint32_t k;
  std::uint64_t seed;
};

class PipelinedSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PipelinedSweep, MatchesHopLimitedOracle) {
  const SweepCase& c = GetParam();
  const Graph g = graph::erdos_renyi(c.n, c.p, c.w, c.seed, c.directed);

  PipelinedParams params;
  for (std::uint32_t i = 0; i < c.k; ++i) {
    params.sources.push_back((i * 7) % c.n);
  }
  params.h = c.h;
  params.delta = graph::max_finite_hop_distance(g, c.h);

  for (const ListPolicy policy :
       {ListPolicy::kDominance, ListPolicy::kLiteral}) {
    params.policy = policy;
    const KsspResult res = pipelined_kssp(g, params);
    check_against_oracle(g, res, c.h,
                         policy == ListPolicy::kLiteral ? "literal" : "dom");
    check_invariant2(res, c.h, res.sources.size(), params.delta, policy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, PipelinedSweep,
    ::testing::Values(
        // Undirected, small weights.
        SweepCase{20, 0.15, {0, 4, 0.0}, false, 5, 4, 1},
        SweepCase{24, 0.12, {0, 8, 0.0}, false, 8, 6, 2},
        // Zero-heavy weights (the regime prior work could not handle).
        SweepCase{20, 0.2, {0, 3, 0.5}, false, 6, 5, 3},
        SweepCase{26, 0.15, {0, 1, 0.8}, false, 10, 8, 4},
        SweepCase{22, 0.2, {0, 0, 0.0}, false, 6, 5, 5},  // all-zero weights
        // Directed.
        SweepCase{20, 0.15, {0, 5, 0.2}, true, 6, 5, 6},
        SweepCase{24, 0.1, {0, 6, 0.3}, true, 9, 7, 7},
        SweepCase{18, 0.25, {0, 7, 0.1}, true, 4, 18, 8},  // k = n
        // Larger weights.
        SweepCase{20, 0.15, {1, 30, 0.0}, false, 6, 5, 9},
        SweepCase{20, 0.15, {0, 50, 0.3}, true, 7, 6, 10},
        // Single source.
        SweepCase{28, 0.12, {0, 6, 0.3}, false, 8, 1, 11},
        // h = 1 edge case.
        SweepCase{16, 0.3, {0, 5, 0.2}, false, 1, 4, 12},
        // h larger than any path.
        SweepCase{14, 0.25, {0, 4, 0.2}, false, 40, 5, 13}),
    [](const ::testing::TestParamInfo<SweepCase>& param_info) {
      const SweepCase& c = param_info.param;
      return "n" + std::to_string(c.n) + (c.directed ? "d" : "u") + "h" +
             std::to_string(c.h) + "k" + std::to_string(c.k) + "s" +
             std::to_string(c.seed);
    });

TEST(Pipelined, StructuredTopologies) {
  const WeightSpec w{0, 5, 0.3};
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    check_against_oracle(
        graph::grid(4, 5, w, seed),
        [&] {
          const Graph g = graph::grid(4, 5, w, seed);
          PipelinedParams p;
          p.sources = {0, 7, 19};
          p.h = 6;
          p.delta = graph::max_finite_hop_distance(g, 6);
          return pipelined_kssp(g, p);
        }(),
        6, "grid seed " + std::to_string(seed));
  }
  {
    const Graph g = graph::cycle(12, w, 3);
    PipelinedParams p;
    p.sources = {0, 5};
    p.h = 11;
    p.delta = graph::max_finite_hop_distance(g, 11);
    check_against_oracle(g, pipelined_kssp(g, p), 11, "cycle");
  }
  {
    const Graph g = graph::star(10, w, 4);
    PipelinedParams p;
    p.sources = {0, 1, 9};
    p.h = 2;
    p.delta = graph::max_finite_hop_distance(g, 2);
    check_against_oracle(g, pipelined_kssp(g, p), 2, "star");
  }
}

TEST(Pipelined, Fig1GadgetZeroChains) {
  // The gadget that defeats naive h-hop tree constructions; Algorithm 1 must
  // still produce correct h-hop distances on it.
  for (const std::uint32_t h : {2u, 3u, 4u, 6u}) {
    const Graph g = graph::fig1_gadget(4);
    PipelinedParams p;
    for (NodeId v = 0; v < g.node_count(); ++v) p.sources.push_back(v);
    p.h = h;
    p.delta = graph::max_finite_hop_distance(g, h);
    check_against_oracle(g, pipelined_kssp(g, p), h,
                         "fig1 h=" + std::to_string(h));
  }
}

TEST(Pipelined, ApspDriverMatchesDijkstra) {
  for (std::uint64_t seed = 20; seed < 24; ++seed) {
    const Graph g = graph::erdos_renyi(18, 0.2, {0, 6, 0.3}, seed,
                                       seed % 2 == 0);
    const Weight delta = graph::max_finite_distance(g);
    const KsspResult res = pipelined_apsp(g, delta);
    for (NodeId s = 0; s < g.node_count(); ++s) {
      const auto dj = seq::dijkstra(g, s);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_EQ(res.dist[s][v], dj.dist[v])
            << "seed " << seed << " pair " << s << "->" << v;
      }
    }
    // Theorem I.1(ii): within 2n*sqrt(Delta) + 2n rounds.
    EXPECT_LE(res.settle_round,
              bounds::apsp_pipelined(g.node_count(),
                                     static_cast<std::uint64_t>(delta)));
  }
}

TEST(Pipelined, UnreachableNodesStayInfinite) {
  GraphBuilder b(6, /*directed=*/true);
  b.add_edge(0, 1, 2).add_edge(1, 2, 0).add_edge(3, 4, 1);
  const Graph g = std::move(b).build();
  PipelinedParams p;
  p.sources = {0, 3};
  p.h = 5;
  p.delta = 3;
  const KsspResult res = pipelined_kssp(g, p);
  EXPECT_EQ(res.dist[0][2], 2);
  EXPECT_EQ(res.dist[0][3], kInfDist);
  EXPECT_EQ(res.dist[0][5], kInfDist);
  EXPECT_EQ(res.dist[1][4], 1);
  EXPECT_EQ(res.dist[1][0], kInfDist);
}

TEST(Pipelined, OutOfScopePairsAreSoundOverestimates) {
  // 0 -> 1 -> 2 -> 3 all weight 0 (3 hops), plus a direct 0 -> 3 of weight 9.
  // With h = 1 only the expensive edge is in budget; with h = 3 the zero
  // route wins.  The h=1 value for (0,3) is a sound over-estimate of the
  // true distance 0 (whose min-hop path needs 3 hops -- out of scope).
  GraphBuilder b(4, /*directed=*/true);
  b.add_edge(0, 1, 0).add_edge(1, 2, 0).add_edge(2, 3, 0).add_edge(0, 3, 9);
  const Graph g = std::move(b).build();
  for (const std::uint32_t h : {1u, 3u}) {
    PipelinedParams p;
    p.sources = {0};
    p.h = h;
    p.delta = 9;
    const KsspResult res = pipelined_kssp(g, p);
    if (h == 1) {
      EXPECT_EQ(res.dist[0][3], 9);  // only the direct edge fits one hop
    } else {
      EXPECT_EQ(res.dist[0][3], 0);
      EXPECT_EQ(res.hops[0][3], 3u);
    }
  }
}

TEST(Pipelined, LiteralPolicySweep) {
  // The word-for-word INSERT transcription must satisfy the same guarantee.
  for (std::uint64_t seed = 70; seed < 76; ++seed) {
    const Graph g = graph::erdos_renyi(20, 0.18, {0, 5, 0.3}, seed,
                                       seed % 2 == 0);
    PipelinedParams p;
    p.sources = {0, 3, 6, 9, 12};
    p.h = 6;
    p.delta = graph::max_finite_hop_distance(g, 6);
    p.policy = ListPolicy::kLiteral;
    check_against_oracle(g, pipelined_kssp(g, p), 6,
                         "literal seed " + std::to_string(seed));
  }
}

TEST(Pipelined, DirectedArcsOnlyUsedInArcDirection) {
  // 0 -> 1 -> 2 directed path: node 0 must not be reachable from 2 even
  // though communication links are bidirectional.
  GraphBuilder b(3, /*directed=*/true);
  b.add_edge(0, 1, 1).add_edge(1, 2, 1);
  const Graph g = std::move(b).build();
  PipelinedParams p;
  p.sources = {2};
  p.h = 2;
  p.delta = 2;
  const KsspResult res = pipelined_kssp(g, p);
  EXPECT_EQ(res.dist[0][0], kInfDist);
  EXPECT_EQ(res.dist[0][1], kInfDist);
  EXPECT_EQ(res.dist[0][2], 0);
}

TEST(Pipelined, GammaAblationsStillExact) {
  // The paper's gamma choice only affects the round bound, never
  // correctness; unit-gamma keys must give identical distances.
  const Graph g = graph::erdos_renyi(18, 0.18, {0, 5, 0.3}, 42);
  const std::uint32_t h = 6;
  const Weight delta = graph::max_finite_hop_distance(g, h);

  for (const GammaSq gamma : {GammaSq::unit(), GammaSq{4, 1}, GammaSq{1, 9}}) {
    PipelinedParams p;
    p.sources = {0, 3, 6, 9};
    p.h = h;
    p.delta = delta;
    p.gamma = gamma;
    const KsspResult res = pipelined_kssp(g, p);
    SCOPED_TRACE("gamma^2 = " + std::to_string(gamma.num) + "/" +
                 std::to_string(gamma.den));
    for (std::size_t i = 0; i < res.sources.size(); ++i) {
      const auto dj = seq::dijkstra(g, res.sources[i]);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (dj.dist[v] != kInfDist && dj.hops[v] <= h) {
          ASSERT_EQ(res.dist[i][v], dj.dist[v]);
        }
      }
    }
  }
}

TEST(Pipelined, SelfSourceTrivia) {
  const Graph g = graph::path(4, {2, 2, 0.0}, 50);
  PipelinedParams p;
  p.sources = {1};
  p.h = 3;
  p.delta = 4;
  const KsspResult res = pipelined_kssp(g, p);
  EXPECT_EQ(res.dist[0][1], 0);
  EXPECT_EQ(res.hops[0][1], 0u);
  EXPECT_EQ(res.parent[0][1], kNoNode);
}

TEST(Pipelined, KsspFullMatchesDijkstra) {
  // Theorem I.1(iii): full k-SSP (h = n-1) is exact for every pair.
  for (std::uint64_t seed = 80; seed < 83; ++seed) {
    const Graph g = graph::erdos_renyi(20, 0.18, {0, 6, 0.3}, seed,
                                       seed % 2 == 1);
    const Weight delta = graph::max_finite_distance(g);
    const KsspResult res = pipelined_kssp_full(g, {1, 5, 9, 13}, delta);
    for (std::size_t i = 0; i < res.sources.size(); ++i) {
      const auto dj = seq::dijkstra(g, res.sources[i]);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        ASSERT_EQ(res.dist[i][v], dj.dist[v]) << "seed " << seed;
      }
    }
    // Theorem I.1(iii) bound: 2*sqrt(n*k*Delta) + n + k.
    EXPECT_LE(res.settle_round,
              bounds::k_ssp_pipelined(g.node_count(), 4,
                                      static_cast<std::uint64_t>(delta)));
  }
}

TEST(Pipelined, ParamValidation) {
  const Graph g = graph::path(4, {1, 1, 0.0}, 51);
  PipelinedParams p;
  p.h = 2;
  EXPECT_THROW(pipelined_kssp(g, p), std::logic_error);  // no sources
  p.sources = {9};
  EXPECT_THROW(pipelined_kssp(g, p), std::logic_error);  // out of range
  p.sources = {0};
  p.h = 0;
  EXPECT_THROW(pipelined_kssp(g, p), std::logic_error);  // h == 0
}

TEST(Pipelined, DuplicateSourcesDeduplicated) {
  const Graph g = graph::path(5, {1, 1, 0.0}, 52);
  PipelinedParams p;
  p.sources = {2, 2, 0, 2};
  p.h = 4;
  p.delta = 4;
  const KsspResult res = pipelined_kssp(g, p);
  ASSERT_EQ(res.sources.size(), 2u);
  EXPECT_EQ(res.sources[0], 0u);
  EXPECT_EQ(res.sources[1], 2u);
}

TEST(Pipelined, PerSourceSendsTrackListOccupancy) {
  // A node emits at most one message per list entry per schedule value, so
  // per-source sends stay near the per-source occupancy bound.
  const Graph g = graph::erdos_renyi(24, 0.15, {0, 6, 0.3}, 61);
  PipelinedParams p;
  for (NodeId v = 0; v < 24; v += 2) p.sources.push_back(v);
  p.h = 8;
  p.delta = graph::max_finite_hop_distance(g, 8);
  const KsspResult res = pipelined_kssp(g, p);
  EXPECT_GT(res.max_sends_per_source, 0u);
  // Refires (schedule shifts) can add a constant factor; 4x occupancy is a
  // conservative ceiling that catches runaway resend loops.
  EXPECT_LE(res.max_sends_per_source, 4 * (res.max_entries_per_source + 1));
}

TEST(Pipelined, MessageCongestionIsModest) {
  // At most one entry fires per node per round (schedules strictly
  // increase), so per-link congestion should be exactly 1.
  const Graph g = graph::erdos_renyi(24, 0.15, {0, 6, 0.3}, 60);
  PipelinedParams p;
  p.sources = {0, 4, 8, 12, 16, 20};
  p.h = 8;
  p.delta = graph::max_finite_hop_distance(g, 8);
  const KsspResult res = pipelined_kssp(g, p);
  EXPECT_EQ(res.stats.max_link_congestion, 1u);
}

/// Every counter Algorithm 1 reports, plus an FNV-1a hash of the result
/// matrices.  Pinned to the values of the scan-the-whole-list
/// implementation so a change to list maintenance that drifts from the
/// (kappa, d, x) order, the ck + pos schedule or the INSERT rules shows up
/// even when distances stay correct.
struct Golden {
  std::uint64_t rounds, messages, message_bytes, max_list, max_per_source,
      late_fires, total_sends, max_sends_per_source, settle_round, hash;

  static Golden of(const KsspResult& r) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t x) {
      for (int b = 0; b < 8; ++b, x >>= 8) {
        h = (h ^ (x & 0xffU)) * 0x100000001b3ULL;
      }
    };
    for (std::size_t i = 0; i < r.sources.size(); ++i) {
      for (std::size_t v = 0; v < r.dist[i].size(); ++v) {
        mix(static_cast<std::uint64_t>(r.dist[i][v]));
        mix(r.hops[i][v]);
        mix(r.parent[i][v]);
      }
    }
    return {r.stats.rounds,         r.stats.total_messages,
            r.stats.message_bytes,  r.max_list_size,
            r.max_entries_per_source, r.late_fires,
            r.total_sends,          r.max_sends_per_source,
            r.settle_round,         h};
  }
};

void expect_golden(const Graph& g, PipelinedParams p, ListPolicy policy,
                   const Golden& want) {
  SCOPED_TRACE(policy == ListPolicy::kLiteral ? "literal" : "dominance");
  p.policy = policy;
  const Golden got = Golden::of(pipelined_kssp(g, std::move(p)));
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.message_bytes, want.message_bytes);
  EXPECT_EQ(got.max_list, want.max_list);
  EXPECT_EQ(got.max_per_source, want.max_per_source);
  EXPECT_EQ(got.late_fires, want.late_fires);
  EXPECT_EQ(got.total_sends, want.total_sends);
  EXPECT_EQ(got.max_sends_per_source, want.max_sends_per_source);
  EXPECT_EQ(got.settle_round, want.settle_round);
  EXPECT_EQ(got.hash, want.hash) << std::hex << got.hash;
}

PipelinedParams all_sources(const Graph& g, std::uint32_t h, Weight delta) {
  PipelinedParams p;
  for (NodeId v = 0; v < g.node_count(); ++v) p.sources.push_back(v);
  p.h = h;
  p.delta = delta;
  return p;
}

TEST(PipelinedGolden, Grid16x16Seed2) {
  // The perfbench grid-apsp input: APSP with h = n - 1.
  const Graph g = graph::grid(16, 16, {0, 8, 0.0}, 2);
  const PipelinedParams p =
      all_sources(g, g.node_count() - 1, graph::max_finite_distance(g));
  expect_golden(g, p, ListPolicy::kDominance, Golden{3136, 444394, 21330912, 615, 5, 24542, 118020, 21, 2433, 0x84c465e27124052aULL});
  expect_golden(g, p, ListPolicy::kLiteral, Golden{2647, 495929, 23804592, 512, 2, 3235, 132223, 5, 2491, 0x84c465e27124052aULL});
}

TEST(PipelinedGolden, DirectedZeroHeavyErdosRenyi) {
  // Directed zero-weight chains churn the list the most (entries move
  // past their schedule and fire late).
  const Graph g = graph::erdos_renyi(40, 0.1, {0, 3, 0.6}, 17, true);
  const PipelinedParams p =
      all_sources(g, 12, graph::max_finite_hop_distance(g, 12));
  expect_golden(g, p, ListPolicy::kDominance, Golden{94, 18777, 901296, 83, 4, 111, 2112, 5, 51, 0x53074e89c412a52ULL});
  expect_golden(g, p, ListPolicy::kLiteral, Golden{90, 28526, 1369248, 80, 2, 258, 3226, 4, 78, 0x53074e89c412a52ULL});
}

TEST(PipelinedGolden, LiteralSweepGraph) {
  // The first LiteralPolicySweep input.
  const Graph g = graph::erdos_renyi(20, 0.18, {0, 5, 0.3}, 70, true);
  PipelinedParams p;
  p.sources = {0, 3, 6, 9, 12};
  p.h = 6;
  p.delta = graph::max_finite_hop_distance(g, 6);
  expect_golden(g, p, ListPolicy::kDominance, Golden{37, 1191, 57168, 11, 4, 1, 165, 4, 18, 0x2badd8cb81fceb45ULL});
  expect_golden(g, p, ListPolicy::kLiteral, Golden{32, 1459, 70032, 10, 2, 11, 202, 3, 18, 0x2badd8cb81fceb45ULL});
}

}  // namespace
}  // namespace dapsp::core
