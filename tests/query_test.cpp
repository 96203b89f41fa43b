// Unit tests for the analytics query layer: the closure-backed engine
// (query::Analytics), the service wiring (parse / execute / stats / cache),
// and the deterministic RMAT generator that feeds the differential suite.
//
// The exhaustive engine-vs-reference comparisons live in property_test.cpp
// (QueryDifferential); this file covers the pieces a differential sweep
// cannot see -- error paths, limit enforcement, cache epoch behavior,
// thread-count determinism, and the stats surface growing new query types
// with zeroed (never sentinel) histograms.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "obs/json.hpp"
#include "query/analytics.hpp"
#include "query/types.hpp"
#include "seq/centrality.hpp"
#include "seq/constrained.hpp"
#include "seq/yen.hpp"
#include "service/query_service.hpp"
#include "util/thread_pool.hpp"

namespace dapsp::service {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::kInfDist;
using graph::kNoNode;
using graph::NodeId;
using graph::Weight;

Graph diamond() {
  // 0 -> {1, 2} -> 3, with 0-1-3 cheaper than 0-2-3, plus a direct 0-3.
  GraphBuilder b(4, /*directed=*/false);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 3, 1);
  b.add_edge(0, 2, 2);
  b.add_edge(2, 3, 2);
  b.add_edge(0, 3, 5);
  return std::move(b).build();
}

/// QueryService is pinned in place (mutexes, atomics), so tests wrap it:
/// construct + enable_analytics in one shot.
struct AnalyticsService {
  QueryService svc;
  explicit AnalyticsService(const Graph& g, QueryServiceConfig cfg = {})
      : svc(build_oracle(g, {Solver::kReference, 0, 0.5}), cfg) {
    svc.enable_analytics(std::make_shared<const Graph>(g));
  }
};

// ---------------------------------------------------------------------------
// Engine basics on a hand-checkable graph.

TEST(Analytics, KShortestOnDiamondInCanonicalOrder) {
  const Graph g = diamond();
  const AnalyticsService as(g);
  const QueryService& svc = as.svc;
  Query q;
  q.type = QueryType::kKPaths;
  q.u = 0;
  q.v = 3;
  q.k = 5;
  const QueryResult r = svc.query(q);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.routes.size(), 3u);  // only three simple paths exist
  EXPECT_EQ(r.routes[0].nodes, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(r.routes[0].weight, 2u);
  EXPECT_EQ(r.routes[1].nodes, (std::vector<NodeId>{0, 2, 3}));
  EXPECT_EQ(r.routes[1].weight, 4u);
  EXPECT_EQ(r.routes[2].nodes, (std::vector<NodeId>{0, 3}));
  EXPECT_EQ(r.routes[2].weight, 5u);
  EXPECT_EQ(r.dist, 2u);  // dist mirrors the best route
}

TEST(Analytics, ConstrainedRouteFallsBackWhenClosurePathBanned) {
  const Graph g = diamond();
  const AnalyticsService as(g);
  const QueryService& svc = as.svc;
  Query q;
  q.type = QueryType::kRoute;
  q.u = 0;
  q.v = 3;
  q.constraints.avoid_nodes = {1};  // bans the canonical 0-1-3
  const QueryResult r = svc.query(q);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.path, (std::vector<NodeId>{0, 2, 3}));
  EXPECT_EQ(r.dist, 4u);

  q.constraints.avoid_nodes = {1, 2};
  q.constraints.max_hops = 1;
  const QueryResult direct = svc.query(q);
  ASSERT_TRUE(direct.ok) << direct.error;
  ASSERT_TRUE(direct.feasible);
  EXPECT_EQ(direct.path, (std::vector<NodeId>{0, 3}));
  EXPECT_EQ(direct.dist, 5u);
}

TEST(Analytics, InfeasibleRouteReportedInBand) {
  const Graph g = diamond();
  const AnalyticsService as(g);
  const QueryService& svc = as.svc;
  Query q;
  q.type = QueryType::kRoute;
  q.u = 0;
  q.v = 3;
  // Every 0->3 route starts at 0; banning the target is cleanly infeasible.
  q.constraints.avoid_nodes = {3};
  const QueryResult r = svc.query(q);
  ASSERT_TRUE(r.ok) << r.error;  // the query succeeded; the answer is "no"
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.dist, kInfDist);
  EXPECT_TRUE(r.routes.empty());
}

TEST(Analytics, AvoidIdsBeyondRangeAreIgnoredNotErrors) {
  // Constraint sets may name nodes the graph doesn't have (e.g. built for a
  // larger epoch); they cannot ban anything, and must not crash.
  const Graph g = diamond();
  const AnalyticsService as(g);
  const QueryService& svc = as.svc;
  Query q;
  q.type = QueryType::kRoute;
  q.u = 0;
  q.v = 3;
  q.constraints.avoid_nodes = {99};
  q.constraints.avoid_edges = {{7, 99}};
  const QueryResult r = svc.query(q);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.path, (std::vector<NodeId>{0, 1, 3}));
}

TEST(Analytics, BetweennessBitIdenticalAcrossThreadCounts) {
  const Graph g = graph::erdos_renyi(40, 0.15, {0, 6, 0.2}, 777);
  const query::Analytics an(std::make_shared<const Graph>(g));
  const DistanceOracle o = build_oracle(g, {Solver::kReference, 0, 0.5});
  util::ThreadPool pool1(1);
  util::ThreadPool pool8(8);
  const auto a = an.betweenness(o, 0, pool1);
  const auto b = an.betweenness(o, 0, pool8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Chunked reduction in chunk order: not merely close -- identical bits.
    EXPECT_EQ(a[i], b[i]) << "node " << i;
  }
}

TEST(Analytics, ReportIdenticalAcrossThreadCounts) {
  const Graph g = graph::erdos_renyi(40, 0.15, {0, 6, 0.2}, 778);
  const query::Analytics an(std::make_shared<const Graph>(g));
  const DistanceOracle o = build_oracle(g, {Solver::kReference, 0, 0.5});
  util::ThreadPool pool1(1);
  util::ThreadPool pool8(8);
  EXPECT_TRUE(an.report(o, pool1) == an.report(o, pool8));
}

TEST(Analytics, BetweennessSamplerIsSharedStride) {
  using query::betweenness_sources;
  EXPECT_TRUE(betweenness_sources(0, 5).empty());
  EXPECT_EQ(betweenness_sources(4, 0).size(), 4u);   // 0 = all
  EXPECT_EQ(betweenness_sources(4, 9).size(), 4u);   // >= n = all
  const auto s = betweenness_sources(10, 3);
  EXPECT_EQ(s, (std::vector<NodeId>{0, 3, 6}));
}

// ---------------------------------------------------------------------------
// Service-level limits and error paths (in-band errors, typed, stable).

TEST(QueryServiceAnalytics, UnavailableWithoutGraph) {
  const Graph g = diamond();
  const QueryService svc(build_oracle(g, {Solver::kReference, 0, 0.5}));
  EXPECT_FALSE(svc.analytics_enabled());
  for (const QueryType t : {QueryType::kKPaths, QueryType::kRoute,
                            QueryType::kReport, QueryType::kBetweenness}) {
    Query q;
    q.type = t;
    q.v = 3;
    const QueryResult r = svc.query(q);
    EXPECT_FALSE(r.ok) << query_type_name(t);
    EXPECT_NE(r.error.find("analytics unavailable"), std::string::npos)
        << query_type_name(t);
  }
}

TEST(QueryServiceAnalytics, EnforcesKAndAvoidAndHopLimits) {
  const Graph g = graph::erdos_renyi(64, 0.1, {1, 5, 0.0}, 12);
  QueryServiceConfig cfg;
  cfg.max_k = 4;
  cfg.max_avoid = 2;
  cfg.max_hops = 8;
  const AnalyticsService as(g, cfg);
  const QueryService& svc = as.svc;

  Query kq;
  kq.type = QueryType::kKPaths;
  kq.v = 5;
  kq.k = 0;
  EXPECT_NE(svc.query(kq).error.find("k must be"), std::string::npos);
  kq.k = 5;
  EXPECT_NE(svc.query(kq).error.find("k must be"), std::string::npos);
  kq.k = 4;
  EXPECT_TRUE(svc.query(kq).ok);

  Query rq;
  rq.type = QueryType::kRoute;
  rq.v = 5;
  rq.constraints.avoid_nodes = {1, 2, 3};
  EXPECT_NE(svc.query(rq).error.find("max_avoid"), std::string::npos);
  rq.constraints.avoid_nodes.clear();
  // Between the limit and the vacuous region (>= n-1 = 63): refused.
  rq.constraints.max_hops = 20;
  EXPECT_NE(svc.query(rq).error.find("max_hops"), std::string::npos);
  // Vacuous budgets are free no matter how large.
  rq.constraints.max_hops = 63;
  EXPECT_TRUE(svc.query(rq).ok);
  rq.constraints.max_hops = 1000;
  EXPECT_TRUE(svc.query(rq).ok);
  rq.constraints.max_hops = 8;
  EXPECT_TRUE(svc.query(rq).ok);
}

TEST(QueryServiceAnalytics, RequiresCapableSnapshot) {
  const Graph g = graph::erdos_renyi(12, 0.3, {1, 4, 0.0}, 9);
  QueryService svc(build_oracle(g, {Solver::kApprox, 0, 0.5}));
  svc.enable_analytics(std::make_shared<const Graph>(g));
  Query q;
  q.type = QueryType::kReport;
  EXPECT_NE(svc.query(q).error.find("exact"), std::string::npos);
  q.type = QueryType::kKPaths;
  q.v = 5;
  EXPECT_NE(svc.query(q).error.find("distance-only"), std::string::npos);
}

TEST(QueryServiceAnalytics, RejectsOutOfRangeIds) {
  const AnalyticsService as(diamond());
  const QueryService& svc = as.svc;
  Query q;
  q.type = QueryType::kKPaths;
  q.u = 0;
  q.v = 99;
  const QueryResult r = svc.query(q);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("out of range"), std::string::npos);
}

TEST(QueryServiceAnalytics, BatchMixesPointAndAnalyticsTypes) {
  // The text/batch path accepts every query type; results stay 1:1 and
  // bit-identical regardless of thread count.
  const Graph g = graph::erdos_renyi(16, 0.3, {0, 5, 0.2}, 31);
  std::vector<Query> batch(60);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].type = static_cast<QueryType>(i % kQueryTypeCount);
    batch[i].u = static_cast<NodeId>(i % 16);
    batch[i].v = static_cast<NodeId>((i * 5 + 2) % 16);
    batch[i].k = 2;
  }
  QueryServiceConfig one;
  one.threads = 1;
  QueryServiceConfig four;
  four.threads = 4;
  const AnalyticsService as1(g, one), as4(g, four);
  const QueryService& s1 = as1.svc;
  const QueryService& s4 = as4.svc;
  const auto r1 = s1.query_batch(batch);
  const auto r4 = s4.query_batch(batch);
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_TRUE(r1[i].ok) << i << ": " << r1[i].error;
    EXPECT_EQ(r1[i], r4[i]) << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Per-type stats: new families appear zeroed, never as UINT64_MAX sentinels.

TEST(QueryServiceAnalytics, NewTypesZeroInitializedBeforeFirstQuery) {
  const AnalyticsService as(diamond());
  const QueryService& svc = as.svc;
  const ServiceStats st = svc.stats();
  for (const QueryType t : {QueryType::kKPaths, QueryType::kRoute,
                            QueryType::kReport, QueryType::kBetweenness}) {
    const auto& s = st.of(t);
    EXPECT_EQ(s.count(), 0u) << query_type_name(t);
    EXPECT_EQ(s.min_ns(), 0u) << query_type_name(t);
    EXPECT_EQ(s.max_ns(), 0u) << query_type_name(t);
    EXPECT_EQ(s.p99_ns(), 0u) << query_type_name(t);
  }
  const std::string summary = st.summary();
  for (const char* name : {"kpath[n=0", "route[n=0", "report[n=0", "bc[n=0"}) {
    EXPECT_NE(summary.find(name), std::string::npos) << name;
  }
  EXPECT_EQ(summary.find("18446744073709551615"), std::string::npos);
  // The JSON stats document lists them too (what binary STATS serves).
  std::ostringstream os;
  obs::JsonWriter w(os);
  st.write_json(w);
  for (const char* name : {"\"kpath\"", "\"route\"", "\"report\"", "\"bc\""}) {
    EXPECT_NE(os.str().find(name), std::string::npos) << name;
  }
}

TEST(QueryServiceAnalytics, PerTypeCountersTrackEachFamily) {
  const AnalyticsService as(diamond());
  const QueryService& svc = as.svc;
  Query q;
  q.type = QueryType::kKPaths;
  q.v = 3;
  q.k = 2;
  (void)svc.query(q);
  q.type = QueryType::kRoute;
  (void)svc.query(q);
  q.type = QueryType::kReport;
  (void)svc.query(q);
  q.type = QueryType::kBetweenness;
  (void)svc.query(q);
  (void)svc.query(q);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.of(QueryType::kKPaths).count(), 1u);
  EXPECT_EQ(st.of(QueryType::kRoute).count(), 1u);
  EXPECT_EQ(st.of(QueryType::kReport).count(), 1u);
  EXPECT_EQ(st.of(QueryType::kBetweenness).count(), 2u);
  EXPECT_EQ(st.total_errors(), 0u);
}

// ---------------------------------------------------------------------------
// Analytics result cache: epoch-stamped, full-query keyed.

TEST(QueryServiceAnalytics, CacheHitsOnRepeatMissesAfterSwap) {
  const Graph g = graph::erdos_renyi(20, 0.25, {0, 5, 0.1}, 55);
  QueryServiceConfig cfg;
  cfg.path_cache_capacity = 0;  // isolate the analytics cache counters
  QueryService svc(build_oracle(g, {Solver::kReference, 0, 0.5}), cfg);
  svc.enable_analytics(std::make_shared<const Graph>(g));

  Query q;
  q.type = QueryType::kReport;
  const QueryResult first = svc.query(q);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(svc.stats().cache_hits, 0u);
  EXPECT_EQ(svc.stats().cache_misses, 1u);
  const QueryResult again = svc.query(q);
  EXPECT_EQ(svc.stats().cache_hits, 1u);
  EXPECT_TRUE(first == again);

  // Same query text, different parameters: a different cache key.
  Query bc;
  bc.type = QueryType::kBetweenness;
  bc.samples = 4;
  (void)svc.query(bc);
  bc.samples = 5;
  (void)svc.query(bc);
  EXPECT_EQ(svc.stats().cache_misses, 3u);

  // A snapshot swap invalidates every entry implicitly.
  svc.swap_snapshot(std::make_shared<DistanceOracle>(
      build_oracle(g, {Solver::kReference, 0, 0.5})));
  const QueryResult after = svc.query(q);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(svc.stats().cache_misses, 4u);
  EXPECT_EQ(svc.stats().cache_hits, 1u);
  EXPECT_TRUE(first.report == after.report);  // same graph, same answer
}

TEST(QueryServiceAnalytics, CacheDisabledByConfig) {
  QueryServiceConfig cfg;
  cfg.path_cache_capacity = 0;
  cfg.analytics_cache_capacity = 0;
  const AnalyticsService as(diamond(), cfg);
  const QueryService& svc = as.svc;
  Query q;
  q.type = QueryType::kReport;
  (void)svc.query(q);
  (void)svc.query(q);
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.cache_misses, 0u);
}

TEST(QueryServiceAnalytics, ResetStatsClearsCacheCounters) {
  QueryServiceConfig cfg;
  cfg.path_cache_capacity = 0;
  AnalyticsService as(diamond(), cfg);
  QueryService& svc = as.svc;
  Query q;
  q.type = QueryType::kReport;
  (void)svc.query(q);
  (void)svc.query(q);
  ASSERT_GT(svc.stats().cache_hits + svc.stats().cache_misses, 0u);
  svc.reset_stats();
  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.cache_misses, 0u);
  EXPECT_EQ(st.total_queries(), 0u);
}

// ---------------------------------------------------------------------------
// Text protocol: parsing the new forms and rendering their results.

TEST(QueryParse, AnalyticsForms) {
  std::string err;
  auto q = QueryService::parse_query("kpath 2 7 4", &err);
  ASSERT_TRUE(q) << err;
  EXPECT_EQ(q->type, QueryType::kKPaths);
  EXPECT_EQ(q->u, 2u);
  EXPECT_EQ(q->v, 7u);
  EXPECT_EQ(q->k, 4u);

  q = QueryService::parse_query(
      "route 1 9 hops=3 avoid=2,5 avoidedge=0-1,4-6", &err);
  ASSERT_TRUE(q) << err;
  EXPECT_EQ(q->type, QueryType::kRoute);
  EXPECT_EQ(q->constraints.max_hops, 3u);
  EXPECT_EQ(q->constraints.avoid_nodes, (std::vector<NodeId>{2, 5}));
  ASSERT_EQ(q->constraints.avoid_edges.size(), 2u);
  EXPECT_EQ(q->constraints.avoid_edges[0], (std::pair<NodeId, NodeId>{0, 1}));
  EXPECT_EQ(q->constraints.avoid_edges[1], (std::pair<NodeId, NodeId>{4, 6}));

  q = QueryService::parse_query("route 1 9", &err);
  ASSERT_TRUE(q) << err;
  EXPECT_TRUE(q->constraints.unconstrained());

  q = QueryService::parse_query("report", &err);
  ASSERT_TRUE(q) << err;
  EXPECT_EQ(q->type, QueryType::kReport);

  q = QueryService::parse_query("bc", &err);
  ASSERT_TRUE(q) << err;
  EXPECT_EQ(q->type, QueryType::kBetweenness);
  EXPECT_EQ(q->samples, 0u);
  q = QueryService::parse_query("bc 16", &err);
  ASSERT_TRUE(q) << err;
  EXPECT_EQ(q->samples, 16u);
}

TEST(QueryParse, AnalyticsFormErrors) {
  std::string err;
  EXPECT_FALSE(QueryService::parse_query("kpath 2 7", &err));
  EXPECT_FALSE(QueryService::parse_query("kpath 2 7 0", &err));
  EXPECT_NE(err.find("positive"), std::string::npos);
  EXPECT_FALSE(QueryService::parse_query("route 1 9 hops=x", &err));
  EXPECT_FALSE(QueryService::parse_query("route 1 9 avoid=a,b", &err));
  EXPECT_FALSE(QueryService::parse_query("route 1 9 avoidedge=3", &err));
  EXPECT_FALSE(QueryService::parse_query("route 1 9 frobnicate=1", &err));
  EXPECT_NE(err.find("unknown route option"), std::string::npos);
  EXPECT_FALSE(QueryService::parse_query("report 3", &err));
  EXPECT_FALSE(QueryService::parse_query("bc 1 2", &err));
  EXPECT_FALSE(QueryService::parse_query("dist 1 2 3", &err));
}

TEST(QueryRender, AnalyticsTextAndJson) {
  const AnalyticsService as(diamond());
  const QueryService& svc = as.svc;
  Query q;
  q.type = QueryType::kRoute;
  q.v = 3;
  q.constraints.avoid_nodes = {3};
  std::ostringstream text;
  QueryService::write_result_text(svc.query(q), text);
  EXPECT_NE(text.str().find("infeasible"), std::string::npos);

  q.constraints.avoid_nodes.clear();
  std::ostringstream json;
  QueryService::write_result_json(svc.query(q), json);
  EXPECT_NE(json.str().find("\"feasible\":true"), std::string::npos);
  EXPECT_NE(json.str().find("\"path\":[0,1,3]"), std::string::npos);
  EXPECT_TRUE(obs::json_valid(json.str()));

  Query kq;
  kq.type = QueryType::kKPaths;
  kq.v = 3;
  kq.k = 2;
  std::ostringstream kjson;
  QueryService::write_result_json(svc.query(kq), kjson);
  EXPECT_NE(kjson.str().find("\"routes\":["), std::string::npos);
  EXPECT_TRUE(obs::json_valid(kjson.str()));

  Query rq;
  rq.type = QueryType::kReport;
  std::ostringstream rjson;
  QueryService::write_result_json(svc.query(rq), rjson);
  EXPECT_NE(rjson.str().find("\"radius\":"), std::string::npos);
  EXPECT_TRUE(obs::json_valid(rjson.str()));

  Query bq;
  bq.type = QueryType::kBetweenness;
  std::ostringstream bjson;
  QueryService::write_result_json(svc.query(bq), bjson);
  EXPECT_NE(bjson.str().find("\"centrality\":["), std::string::npos);
  EXPECT_TRUE(obs::json_valid(bjson.str()));
}

TEST(QueryServe, AnalyticsLinesThroughServeStream) {
  const AnalyticsService as(diamond());
  const QueryService& svc = as.svc;
  std::istringstream in(
      "kpath 0 3 2\n"
      "route 0 3 avoid=1\n"
      "report\n"
      "bc 2\n"
      "stats\n");
  std::ostringstream out;
  const int malformed = svc.serve_stream(in, out, /*json=*/false);
  EXPECT_EQ(malformed, 0);
  const std::string s = out.str();
  EXPECT_NE(s.find("2 paths"), std::string::npos);
  EXPECT_NE(s.find("0 2 3"), std::string::npos);
  EXPECT_NE(s.find("radius"), std::string::npos);
  EXPECT_NE(s.find("bc = "), std::string::npos);
  EXPECT_NE(s.find("kpath[n=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// RMAT generator: determinism, skew, round-trips.

TEST(Rmat, BitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {1ull, 42ull, 9001ull}) {
    const Graph a = graph::rmat(8, 8, {1, 16, 0.0}, seed, false, true, 1);
    const Graph b = graph::rmat(8, 8, {1, 16, 0.0}, seed, false, true, 8);
    std::ostringstream sa, sb;
    graph::write_graph(sa, a);
    graph::write_graph(sb, b);
    EXPECT_EQ(sa.str(), sb.str()) << "seed " << seed;
  }
}

TEST(Rmat, SeedChangesGraph) {
  const Graph a = graph::rmat(7, 4, {1, 8, 0.0}, 1);
  const Graph b = graph::rmat(7, 4, {1, 8, 0.0}, 2);
  std::ostringstream sa, sb;
  graph::write_graph(sa, a);
  graph::write_graph(sb, b);
  EXPECT_NE(sa.str(), sb.str());
}

TEST(Rmat, DegreeSkewGrowsWithScale) {
  // R-MAT's defining property: a heavy-tailed degree distribution.  The
  // max/mean degree ratio must clearly exceed an Erdos-Renyi graph of the
  // same size and density, and grow with scale.
  double prev_ratio = 0;
  for (const std::uint32_t scale : {7u, 9u}) {
    const Graph g = graph::rmat(scale, 8, {1, 4, 0.0}, 5);
    const NodeId n = g.node_count();
    std::size_t max_deg = 0, total = 0;
    for (NodeId v = 0; v < n; ++v) {
      max_deg = std::max(max_deg, g.out_edges(v).size());
      total += g.out_edges(v).size();
    }
    const double mean = static_cast<double>(total) / n;
    const double ratio = static_cast<double>(max_deg) / mean;
    EXPECT_GT(ratio, 3.0) << "scale " << scale;
    EXPECT_GT(ratio, prev_ratio) << "scale " << scale;
    prev_ratio = ratio;
  }
}

TEST(Rmat, ConnectedBackboneAndIoRoundTrip) {
  const Graph g = graph::rmat(6, 2, {0, 9, 0.2}, 33);
  EXPECT_EQ(g.node_count(), 64u);
  // The backbone permutation guarantees no isolated nodes.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_FALSE(g.out_edges(v).empty()) << v;
  }
  std::ostringstream os;
  graph::write_graph(os, g);
  std::istringstream is(os.str());
  const Graph back = graph::read_graph(is);
  ASSERT_EQ(back.node_count(), g.node_count());
  ASSERT_EQ(back.edge_count(), g.edge_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto a = g.out_edges(v);
    const auto b = back.out_edges(v);
    ASSERT_EQ(a.size(), b.size()) << v;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].to, b[i].to) << v;
      EXPECT_EQ(a[i].weight, b[i].weight) << v;
    }
  }
}

TEST(Rmat, DirectedRespectsFlagAndRejectsBadScale) {
  const Graph d = graph::rmat(5, 2, {1, 3, 0.0}, 7, /*directed=*/true);
  EXPECT_TRUE(d.directed());
  const Graph u = graph::rmat(5, 2, {1, 3, 0.0}, 7, /*directed=*/false);
  EXPECT_FALSE(u.directed());
  // Scale is validated, not silently clamped: 0 would underflow the
  // quadrant descent and 27+ would allocate 2^27+ rows.
  EXPECT_THROW(graph::rmat(0, 2, {1, 3, 0.0}, 7), std::logic_error);
  EXPECT_THROW(graph::rmat(27, 2, {1, 3, 0.0}, 7), std::logic_error);
}

}  // namespace
}  // namespace dapsp::service
