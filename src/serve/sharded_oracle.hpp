// Former names of the row-sharded closure, kept only for the perfbench
// harness (perfbench/src/workloads.cpp).  The closure is
// service::DistanceOracle (service/oracle.hpp), whose shard count is the
// last argument of service::build_oracle; delete this header once
// perfbench spells that directly.
#pragma once

#include <memory>

#include "service/oracle.hpp"

namespace dapsp::serve {

using ShardedOracle = service::DistanceOracle;

inline std::shared_ptr<ShardedOracle> build_sharded_oracle(
    const graph::Graph& g, const service::OracleBuildOptions& opts,
    std::size_t shards) {
  return std::make_shared<ShardedOracle>(
      service::build_oracle(g, opts, shards));
}

}  // namespace dapsp::serve
