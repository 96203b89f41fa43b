// Tests of the benchmark's own helpers: the tail-percentile rule, the seeded
// pair generators, exact op-mix shares, failure accounting, span nesting and
// the shortest-path reference the answer checks use.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "graph/generators.hpp"
#include "harness.hpp"
#include "reference.hpp"
#include "seq/dijkstra.hpp"

namespace perfbench {
namespace {

std::uint64_t beyond(std::uint64_t n, double p) {
  return n - static_cast<std::uint64_t>(
                 std::ceil(p / 100.0 * static_cast<double>(n)));
}

TEST(TailPercentile, CappedAt99WhenTheSampleSupportsIt) {
  EXPECT_DOUBLE_EQ(tail_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(tail_percentile(10'000'000), 99.0);
}

TEST(TailPercentile, LeavesAtLeastTenSamplesBeyond) {
  for (std::uint64_t n : {20u, 21u, 37u, 45u, 100u, 250u, 999u}) {
    const double p = tail_percentile(n);
    EXPECT_GE(beyond(n, p), 10u) << "n=" << n;
    // The next step up (0.1) would leave fewer than ten, unless capped.
    if (p < 99.0) EXPECT_LT(beyond(n, p + 0.1), 10u) << "n=" << n;
  }
  EXPECT_NEAR(tail_percentile(100), 90.0, 1e-9);
  EXPECT_NEAR(tail_percentile(20), 50.0, 1e-9);
}

TEST(TailPercentile, MedianWhenTooFewSamplesForATail) {
  EXPECT_DOUBLE_EQ(tail_percentile(0), 50.0);
  EXPECT_DOUBLE_EQ(tail_percentile(10), 50.0);
  EXPECT_DOUBLE_EQ(tail_percentile(19), 50.0);
}

TEST(LatencyHistogram, ExactBelowOneMicrosecondAndCloseAbove) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_DOUBLE_EQ(h.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  LatencyHistogram big;
  for (std::uint64_t v : {5'000u, 70'000u, 3'000'000u}) {
    big.record(v);
    const double got = big.percentile(100);
    EXPECT_NEAR(got, static_cast<double>(v), 0.008 * static_cast<double>(v));
  }
  EXPECT_EQ(big.count(), 3u);
}

TEST(PairGenerators, UniformRepeatsForASeedAndDiffersAcrossSeeds) {
  UniformPairs a(1000, 7), b(1000, 7), c(1000, 8);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    const Pair pa = a.next();
    EXPECT_EQ(pa, b.next());
    EXPECT_LT(pa.first, 1000u);
    EXPECT_LT(pa.second, 1000u);
    differs = differs || pa != c.next();
  }
  EXPECT_TRUE(differs);
}

TEST(PairGenerators, ZipfRepeatsForASeedAndIsSkewed) {
  ZipfPairs a(64, 0.99, 1, 3), b(64, 0.99, 1, 3), c(64, 0.99, 1, 4);
  std::map<Pair, int> freq;
  bool differs = false;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const Pair pa = a.next();
    EXPECT_EQ(pa, b.next());
    EXPECT_LT(pa.first, 64u);
    EXPECT_LT(pa.second, 64u);
    differs = differs || pa != c.next();
    ++freq[pa];
  }
  EXPECT_TRUE(differs);
  int top = 0;
  for (const auto& [p, f] : freq) top = std::max(top, f);
  // Uniform over 4096 pairs would give ~5 draws per pair; the rank-1 pair
  // of a Zipf(0.99) over 4096 ranks takes ~11% of all draws.
  EXPECT_GT(top, draws / 20);
}

TEST(PairGenerators, ZipfHotSetFollowsTheHotSeedOnly) {
  const auto hottest = [](ZipfPairs z) {
    std::map<Pair, int> freq;
    for (int i = 0; i < 20000; ++i) ++freq[z.next()];
    return std::max_element(freq.begin(), freq.end(),
                            [](const auto& x, const auto& y) {
                              return x.second < y.second;
                            })->first;
  };
  EXPECT_EQ(hottest(ZipfPairs(64, 0.99, 1, 3)),
            hottest(ZipfPairs(64, 0.99, 1, 4)));
  EXPECT_NE(hottest(ZipfPairs(64, 0.99, 1, 3)),
            hottest(ZipfPairs(64, 0.99, 2, 3)));
}

TEST(OpMix, EveryBlockHasExactShares) {
  OpMix mix({80, 10, 10}, 11);
  ASSERT_EQ(mix.block_size(), 100u);
  for (int block = 0; block < 50; ++block) {
    std::vector<int> count(3, 0);
    for (int i = 0; i < 100; ++i) ++count[mix.next()];
    EXPECT_EQ(count, (std::vector<int>{80, 10, 10})) << "block " << block;
  }
}

TEST(OpMix, OrderRepeatsForASeedAndDiffersAcrossSeeds) {
  OpMix a({96, 2, 2}, 5), b({96, 2, 2}, 5), c({96, 2, 2}, 6);
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    const auto x = a.next();
    EXPECT_EQ(x, b.next());
    differs = differs || x != c.next();
  }
  EXPECT_TRUE(differs);
}

TEST(Tally, FailuresCountAgainstAttempts) {
  Tally t;
  EXPECT_FALSE(t.all_ok());  // nothing attempted is not a pass
  t.record(true);
  t.record(true);
  EXPECT_TRUE(t.all_ok());
  t.record(false);
  EXPECT_EQ(t.attempted, 3u);
  EXPECT_EQ(t.failed, 1u);
  // A wrong answer found after the timed phase fails an op already counted.
  t.fail_late();
  EXPECT_EQ(t.attempted, 3u);
  EXPECT_EQ(t.failed, 2u);
  EXPECT_FALSE(t.all_ok());
}

TEST(Tracer, SpansNestAndSampleOps) {
  Tracer tr(2, 100);
  {
    Scope root(&tr, "build");
    Scope child(&tr, "core.solve");
    tr.counter("congest.rounds", 3);
  }
  int sampled = 0;
  for (int i = 0; i < 10; ++i) {
    if (tr.sample_op()) {
      ++sampled;
      Scope op(&tr, "op");
    }
  }
  EXPECT_EQ(sampled, 5);
  EXPECT_EQ(tr.span_count(), 7u);
}

// The reference must follow the library's canonical contract, which
// seq::dijkstra defines: same distances and same parents, zero-weight arcs
// and unreachable nodes included.
TEST(Reference, MatchesTheCanonicalDijkstraParents) {
  using namespace dapsp::graph;
  const Graph graphs[] = {
      grid(9, 7, {0, 3, 0.3}, 4),
      rmat(7, 4, {0, 8, 0.2}, 3, /*directed=*/true, /*connect=*/false, 1),
  };
  for (const Graph& g : graphs) {
    for (NodeId s = 0; s < g.node_count(); ++s) {
      const ReferenceRow got = reference_sssp(g, s);
      const auto want = dapsp::seq::dijkstra(g, s);
      ASSERT_EQ(got.dist, want.dist) << "source " << s;
      ASSERT_EQ(got.parent, want.parent) << "source " << s;
    }
  }
}

TEST(Reference, PathFollowsParentsAndIsEmptyWhenUnreachable) {
  ReferenceRow row;
  row.dist = {0, 2, 5, dapsp::graph::kInfDist};
  row.parent = {dapsp::graph::kNoNode, 0, 1, dapsp::graph::kNoNode};
  EXPECT_EQ(reference_path(row, 0, 2),
            (std::vector<dapsp::graph::NodeId>{0, 1, 2}));
  EXPECT_EQ(reference_path(row, 0, 0), (std::vector<dapsp::graph::NodeId>{0}));
  EXPECT_TRUE(reference_path(row, 0, 3).empty());
}

}  // namespace
}  // namespace perfbench
