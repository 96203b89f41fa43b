// Query-service throughput (google-benchmark): the serving-side numbers the
// distance-oracle subsystem exists for.  Reports queries/sec
// (items_per_second) for
//   * raw oracle point lookups (the flat-matrix floor),
//   * batched point lookups through the full service (1 vs 8 threads,
//     including id validation and metrics),
//   * full-path reconstruction, cold cache (capacity 0, every query
//     reconstructs) vs warm cache (pairs repeat, LRU serves them),
//   * end-to-end oracle builds per solver (the amortized cost of standing a
//     service up).
// The n=256 oracle is built from the sequential reference sweep so the
// binary is fast from a cold build; the build benches run the CONGEST
// solvers themselves at small n.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "serve/snapshot_manager.hpp"
#include "serve/wire.hpp"
#include "service/query_service.hpp"
#include "util/rng.hpp"

namespace {

using namespace dapsp;
using service::DistanceOracle;
using service::Query;
using service::QueryService;
using service::QueryServiceConfig;
using service::QueryType;

constexpr graph::NodeId kServeN = 256;

const graph::Graph& serve_graph() {
  static const graph::Graph g =
      graph::erdos_renyi(kServeN, 6.0 / kServeN, {0, 8, 0.2}, 42);
  return g;
}

const DistanceOracle& serve_oracle() {
  static const DistanceOracle o = service::build_oracle(
      serve_graph(), {service::Solver::kReference, 0, 0.5});
  return o;
}

std::vector<Query> random_queries(QueryType type, std::size_t count,
                                  std::size_t distinct_pairs,
                                  std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<Query> pool(distinct_pairs);
  for (auto& q : pool) {
    q.type = type;
    q.u = static_cast<graph::NodeId>(rng.below(kServeN));
    q.v = static_cast<graph::NodeId>(rng.below(kServeN));
  }
  std::vector<Query> out(count);
  for (auto& q : out) q = pool[rng.below(pool.size())];
  return out;
}

/// Raw oracle reads: the floor every service-layer number is compared to.
void BM_OracleDistRaw(benchmark::State& state) {
  const DistanceOracle& o = serve_oracle();
  util::Xoshiro256 rng(1);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs(4096);
  for (auto& [u, v] : pairs) {
    u = static_cast<graph::NodeId>(rng.below(kServeN));
    v = static_cast<graph::NodeId>(rng.below(kServeN));
  }
  graph::Weight acc = 0;
  for (auto _ : state) {
    for (const auto& [u, v] : pairs) acc += o.dist(u, v);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_OracleDistRaw);

/// Batched point lookups through the service; Arg = thread count.
void BM_ServicePointLookup(benchmark::State& state) {
  QueryServiceConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  const QueryService svc(serve_oracle(), cfg);
  const auto batch = random_queries(QueryType::kDist, 1 << 16, 1 << 16, 2);
  for (auto _ : state) {
    auto results = svc.query_batch(batch);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_ServicePointLookup)->Arg(1)->Arg(8);

/// Path reconstruction with the cache disabled: every query walks next hops.
void BM_ServicePathCold(benchmark::State& state) {
  QueryServiceConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  cfg.path_cache_capacity = 0;
  const QueryService svc(serve_oracle(), cfg);
  const auto batch = random_queries(QueryType::kPath, 1 << 14, 1 << 14, 3);
  for (auto _ : state) {
    auto results = svc.query_batch(batch);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_ServicePathCold)->Arg(1)->Arg(8);

/// Path reconstruction when queries repeat over 1k pairs and the LRU holds
/// them all: steady state is pure cache hits.
void BM_ServicePathWarm(benchmark::State& state) {
  QueryServiceConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  cfg.path_cache_capacity = 1 << 12;
  const QueryService svc(serve_oracle(), cfg);
  const auto batch = random_queries(QueryType::kPath, 1 << 14, 1 << 10, 4);
  for (auto _ : state) {
    auto results = svc.query_batch(batch);
    benchmark::DoNotOptimize(results.data());
  }
  const auto st = svc.stats();
  state.counters["hit_rate"] = st.cache_hit_rate();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_ServicePathWarm)->Arg(1)->Arg(8);

/// End-to-end oracle builds: solver run + matrix flatten + next-hop table.
void BM_OracleBuild(benchmark::State& state) {
  const auto solver = static_cast<service::Solver>(state.range(0));
  const graph::Graph g = graph::erdos_renyi(32, 0.15, {0, 6, 0.2}, 7);
  for (auto _ : state) {
    auto oracle = service::build_oracle(g, {solver, 0, 0.5});
    benchmark::DoNotOptimize(oracle.node_count());
    state.counters["rounds"] =
        static_cast<double>(oracle.build_stats().rounds);
  }
}
BENCHMARK(BM_OracleBuild)
    ->Arg(static_cast<int>(service::Solver::kPipelined))
    ->Arg(static_cast<int>(service::Solver::kBlocker))
    ->Arg(static_cast<int>(service::Solver::kScaled))
    ->Arg(static_cast<int>(service::Solver::kApprox))
    ->Arg(static_cast<int>(service::Solver::kReference));

// ---------------------------------------------------------------------------
// Serving-tier load scenarios (sharded snapshots, hot swap, wire protocols).

constexpr service::OracleBuildOptions kRefBuild{service::Solver::kReference,
                                                0, 0.5};

/// Sustained many-client load with continuous background rebuild + swap:
/// Arg = client thread count.  Each iteration runs every client through
/// 8 batches of 4096 point queries while the main thread alternates the
/// serving graph and hot-swaps freshly built 4-shard snapshots.  Every
/// response is verified against the two reference closures -- a batch that
/// matches neither (a dropped, wrong, or epoch-mixed answer) aborts the
/// bench with SkipWithError, so the reported QPS is certified-correct
/// throughput under swap pressure, not just survivable traffic.
void BM_ServeSustainedQPS(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  const graph::Graph ga = serve_graph();
  const graph::Graph gb =
      graph::erdos_renyi(kServeN, 6.0 / kServeN, {0, 8, 0.2}, 43);
  const DistanceOracle& refA = serve_oracle();
  static const DistanceOracle refB = service::build_oracle(gb, kRefBuild);

  QueryServiceConfig cfg;
  cfg.threads = 2;
  QueryService svc(service::build_oracle(ga, kRefBuild, 4), cfg);
  serve::SnapshotManager manager(svc, ga, kRefBuild, 4);

  const auto batch = random_queries(QueryType::kDist, 4096, 4096, 11);
  constexpr int kBatchesPerClient = 8;
  std::atomic<std::uint64_t> violations{0};
  const auto client = [&] {
    for (int b = 0; b < kBatchesPerClient; ++b) {
      const auto results = svc.query_batch(batch);
      bool all_a = true, all_b = true;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!results[i].ok) {
          all_a = all_b = false;
          break;
        }
        all_a = all_a && results[i].dist == refA.dist(batch[i].u, batch[i].v);
        all_b = all_b && results[i].dist == refB.dist(batch[i].u, batch[i].v);
      }
      if (!all_a && !all_b) violations.fetch_add(1);
    }
  };

  int cycle = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client);
    // Two full rebuild+swap cycles land while this iteration's traffic runs.
    for (int swaps = 0; swaps < 2; ++swaps) {
      manager.set_graph(++cycle % 2 ? gb : ga);
      manager.rebuild_now();
    }
    for (auto& t : threads) t.join();
  }
  if (violations.load() != 0) {
    state.SkipWithError("response matched neither snapshot (dropped or "
                        "epoch-mixed answer under swap)");
    return;
  }
  const auto st = svc.stats();
  state.counters["swaps"] = static_cast<double>(st.swaps);
  state.counters["errors"] = static_cast<double>(st.total_errors());
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(clients * kBatchesPerClient * batch.size()));
}
BENCHMARK(BM_ServeSustainedQPS)->Arg(2)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Mixed analytics + point traffic (kpath / route / report / bc / dist)
/// against a live service while the snapshot manager rebuilds and hot-swaps
/// underneath.  Per-family ok counters are exported; an iteration where any
/// analytics family fails to produce a single in-band answer aborts the
/// bench, so the reported QPS is all-four-families-live throughput during
/// rebuild, not a survivor average.
void BM_ServeAnalyticsUnderRebuild(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  static const std::shared_ptr<const graph::Graph> g =
      std::make_shared<const graph::Graph>(
          graph::rmat(/*scale=*/7, /*edgefactor=*/8, {0, 8, 0.2}, 21));
  const graph::NodeId n = g->node_count();

  QueryServiceConfig cfg;
  cfg.threads = 2;
  QueryService svc(service::build_oracle(*g, kRefBuild, 4), cfg);
  svc.enable_analytics(g);
  serve::SnapshotManager manager(svc, *g, kRefBuild, 4);

  util::Xoshiro256 rng(31);
  std::vector<Query> batch;
  for (int i = 0; i < 64; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.below(n));
    const auto v = static_cast<graph::NodeId>(rng.below(n));
    Query kq;
    kq.type = QueryType::kKPaths;
    kq.u = u;
    kq.v = v;
    kq.k = 4;
    batch.push_back(kq);
    Query rq;
    rq.type = QueryType::kRoute;
    rq.u = u;
    rq.v = v;
    rq.constraints.avoid_nodes = {static_cast<graph::NodeId>((u + v) % n)};
    batch.push_back(rq);
    Query dq;
    dq.type = QueryType::kDist;
    dq.u = u;
    dq.v = v;
    batch.push_back(dq);
  }
  Query gq;
  gq.type = QueryType::kReport;
  batch.push_back(gq);
  Query bq;
  bq.type = QueryType::kBetweenness;
  bq.samples = 8;
  batch.push_back(bq);

  std::array<std::atomic<std::uint64_t>, service::kQueryTypeCount> ok{};
  const auto client = [&] {
    const auto results = svc.query_batch(batch);
    for (const auto& r : results) {
      if (r.ok) ok[static_cast<std::size_t>(r.type)].fetch_add(1);
    }
  };

  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client);
    // A full rebuild+swap cycle lands while this iteration's traffic runs.
    manager.rebuild_now();
    for (auto& t : threads) t.join();
  }

  const auto count = [&ok](QueryType t) {
    return static_cast<double>(ok[static_cast<std::size_t>(t)].load());
  };
  state.counters["kpath_ok"] = count(QueryType::kKPaths);
  state.counters["route_ok"] = count(QueryType::kRoute);
  state.counters["report_ok"] = count(QueryType::kReport);
  state.counters["bc_ok"] = count(QueryType::kBetweenness);
  state.counters["dist_ok"] = count(QueryType::kDist);
  state.counters["swaps"] = static_cast<double>(svc.stats().swaps);
  for (const QueryType t : {QueryType::kKPaths, QueryType::kRoute,
                            QueryType::kReport, QueryType::kBetweenness}) {
    if (count(t) == 0.0) {
      state.SkipWithError("an analytics family produced no ok answer under "
                          "rebuild");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(clients * batch.size()));
}
BENCHMARK(BM_ServeAnalyticsUnderRebuild)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Per-line text protocol: the baseline the batch+binary path is measured
/// against.  One "dist U V" line per query, parsed and answered one at a
/// time through serve_stream.
void BM_ServeTextProtocol(benchmark::State& state) {
  const QueryService svc(serve_oracle());
  const auto queries = random_queries(QueryType::kDist, 1 << 14, 1 << 14, 12);
  std::string request;
  for (const Query& q : queries) {
    request += "dist " + std::to_string(q.u) + " " + std::to_string(q.v) +
               "\n";
  }
  for (auto _ : state) {
    std::istringstream in(request);
    std::ostringstream out;
    const int malformed = svc.serve_stream(in, out, /*json=*/false);
    if (malformed != 0) state.SkipWithError("malformed text request");
    benchmark::DoNotOptimize(out.str().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_ServeTextProtocol);

/// Text protocol with the "batch N" directive: same line format, but the
/// body executes as one pipelined query_batch.
void BM_ServeTextBatchDirective(benchmark::State& state) {
  const QueryService svc(serve_oracle());
  const auto queries = random_queries(QueryType::kDist, 1 << 14, 1 << 14, 12);
  std::string request = "batch " + std::to_string(queries.size()) + "\n";
  for (const Query& q : queries) {
    request += "dist " + std::to_string(q.u) + " " + std::to_string(q.v) +
               "\n";
  }
  for (auto _ : state) {
    std::istringstream in(request);
    std::ostringstream out;
    const int malformed = svc.serve_stream(in, out, /*json=*/false);
    if (malformed != 0) state.SkipWithError("malformed batch request");
    benchmark::DoNotOptimize(out.str().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_ServeTextBatchDirective);

/// Length-prefixed binary batch frames through serve_binary: no per-query
/// tokenizing or decimal formatting, one frame per 16k queries.
void BM_ServeBinaryBatch(benchmark::State& state) {
  const QueryService svc(serve_oracle());
  const auto queries = random_queries(QueryType::kDist, 1 << 14, 1 << 14, 12);
  std::string request;
  serve::wire::append_batch_request(request, queries);
  for (auto _ : state) {
    std::istringstream in(request);
    std::ostringstream out;
    const int errors = serve::wire::serve_binary(svc, in, out);
    if (errors != 0) state.SkipWithError("binary request rejected");
    benchmark::DoNotOptimize(out.str().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_ServeBinaryBatch);

}  // namespace

BENCHMARK_MAIN();
