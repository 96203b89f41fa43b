// Sequential Dijkstra oracle (non-negative weights, zero allowed).
//
// Serves as ground truth for every distributed algorithm's distances, and
// supplies the (distance, hop) lexicographic tie-breaking the paper's
// algorithms use: among equal-distance paths the fewest-hop one wins, and
// among equal (d, l) the smaller parent id wins, making parents unique.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace dapsp::seq {

struct SsspResult {
  std::vector<graph::Weight> dist;   ///< kInfDist when unreachable
  std::vector<std::uint32_t> hops;   ///< hop count of the (d,l)-minimal path
  std::vector<graph::NodeId> parent; ///< kNoNode for source/unreachable
};

/// Shortest paths from `source` following out-edges.  Thread-safe; each
/// thread reuses one heap and settled array across calls, so a call
/// allocates only its result.
SsspResult dijkstra(const graph::Graph& g, graph::NodeId source);

/// Shortest paths *into* `target` following in-edges (distances v -> target).
SsspResult dijkstra_reverse(const graph::Graph& g, graph::NodeId target);

/// All-pairs matrix: result[s][v] = dist(s, v).  Runs n Dijkstras.
std::vector<std::vector<graph::Weight>> apsp(const graph::Graph& g);

}  // namespace dapsp::seq
