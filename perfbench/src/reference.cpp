#include "reference.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>

namespace perfbench {

using dapsp::graph::kInfDist;
using dapsp::graph::kNoNode;
using dapsp::graph::NodeId;
using dapsp::graph::Weight;

ReferenceRow reference_sssp(const dapsp::graph::Graph& g, NodeId source) {
  const NodeId n = g.node_count();
  ReferenceRow row;
  row.dist.assign(n, kInfDist);
  row.parent.assign(n, kNoNode);
  std::vector<std::uint32_t> hops(n, 0);
  // Lazy label-setting search on (dist, hops).  Every arc adds a hop, so a
  // predecessor on a tight arc has a strictly smaller key and is expanded
  // before its successor: keeping the smallest id among the tight arcs seen
  // yields the canonical parent.
  using Key = std::tuple<Weight, std::uint32_t, NodeId>;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> heap;
  row.dist[source] = 0;
  heap.emplace(0, 0, source);
  while (!heap.empty()) {
    const auto [d, h, u] = heap.top();
    heap.pop();
    if (d != row.dist[u] || h != hops[u]) continue;  // stale entry
    for (const auto& e : g.out_edges(u)) {
      const Weight nd = d + e.weight;
      const std::uint32_t nh = h + 1;
      const NodeId v = e.to;
      if (std::tie(nd, nh) < std::tie(row.dist[v], hops[v])) {
        row.dist[v] = nd;
        hops[v] = nh;
        row.parent[v] = u;
        heap.emplace(nd, nh, v);
      } else if (nd == row.dist[v] && nh == hops[v] && u < row.parent[v]) {
        row.parent[v] = u;
      }
    }
  }
  return row;
}

std::vector<NodeId> reference_path(const ReferenceRow& row, NodeId source,
                                   NodeId v) {
  std::vector<NodeId> p;
  if (row.dist[v] >= kInfDist) return p;
  for (NodeId cur = v; p.size() <= row.dist.size(); cur = row.parent[cur]) {
    p.push_back(cur);
    if (cur == source) break;
    if (row.parent[cur] == kNoNode) return {};
  }
  std::reverse(p.begin(), p.end());
  return p;
}

}  // namespace perfbench
