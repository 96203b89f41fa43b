// Shortest-path reference for the benchmark's answer checks.  It shares no
// code with the library's seq::dijkstra, which builds the closures that
// rmat-serve and grid-paths serve, so a fault in that kernel cannot agree
// with itself and pass the check.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace perfbench {

/// One source's shortest paths under the library's canonical contract:
/// minimum weight, then fewest hops, then the smallest-id predecessor.
struct ReferenceRow {
  std::vector<dapsp::graph::Weight> dist;    ///< kInfDist when unreachable
  std::vector<dapsp::graph::NodeId> parent;  ///< kNoNode for source/unreachable
};

ReferenceRow reference_sssp(const dapsp::graph::Graph& g,
                            dapsp::graph::NodeId source);

/// Canonical path source -> v from a reference row; empty if unreachable.
std::vector<dapsp::graph::NodeId> reference_path(const ReferenceRow& row,
                                                 dapsp::graph::NodeId source,
                                                 dapsp::graph::NodeId v);

}  // namespace perfbench
