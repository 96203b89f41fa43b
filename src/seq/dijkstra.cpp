#include "seq/dijkstra.hpp"

#include <algorithm>
#include <functional>
#include <tuple>

namespace dapsp::seq {

using graph::Edge;
using graph::Graph;
using graph::kInfDist;
using graph::kNoNode;
using graph::NodeId;
using graph::Weight;

namespace {

/// Heap entry: a tentative (dist, hops, via) label for `node`.  Popping in
/// (dist, hops, via, node) order settles every node under the paper's
/// (d, l, min-parent) rule deterministically.
struct QEntry {
  Weight dist;
  std::uint32_t hops;
  NodeId via;   // parent candidate
  NodeId node;

  bool operator>(const QEntry& o) const {
    return std::tie(dist, hops, via, node) >
           std::tie(o.dist, o.hops, o.via, o.node);
  }
};

/// Per-thread scratch reused by every call on that thread: the heap keeps
/// its capacity and `settled` is re-zeroed in place, so a call allocates
/// nothing beyond its result once the thread has seen a graph this large.
struct Workspace {
  std::vector<QEntry> heap;
  std::vector<std::uint8_t> settled;
};

thread_local Workspace ws;

/// One kernel for both directions: `Adj` is out_edges or in_edges and
/// `Head` the arc end a relaxation reaches (Edge::to or Edge::from).  A
/// relaxation from settled x to y runs only when admit(x, y) holds, and the
/// search stops once `target` settles (kNoNode: never); every candidate
/// parent of a node settles before it, so the target's parent chain is
/// final by then.
///
/// A neighbour is pushed only when its (dist, hops, parent) triple strictly
/// improves lexicographically, so the first pop of a node carries its
/// current -- and, with non-negative weights, final -- label; later pops of
/// it are stale and skipped.  A settled node can never be improved (every
/// later candidate has more hops at no smaller distance), so the labels and
/// the settle order equal those of a queue that pushed every relaxation.
template <std::span<const Edge> (Graph::*Adj)(NodeId) const noexcept,
          NodeId Edge::*Head, class Admit>
SsspResult run(const Graph& g, NodeId source, NodeId target,
               const Admit& admit) {
  const NodeId n = g.node_count();
  SsspResult r;
  r.dist.assign(n, kInfDist);
  r.hops.assign(n, 0);
  r.parent.assign(n, kNoNode);

  std::vector<QEntry>& heap = ws.heap;
  std::vector<std::uint8_t>& settled = ws.settled;
  heap.clear();
  settled.assign(n, 0);
  const std::greater<> later;

  r.dist[source] = 0;
  heap.push_back({0, 0, kNoNode, source});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const QEntry top = heap.back();
    heap.pop_back();
    if (settled[top.node]) continue;
    settled[top.node] = 1;
    if (top.node == target) break;
    const Weight d = top.dist;
    const std::uint32_t h = top.hops + 1;
    for (const Edge& e : (g.*Adj)(top.node)) {
      const NodeId v = e.*Head;
      if (!admit(top.node, v)) continue;
      const Weight dv = d + e.weight;
      if (std::tie(dv, h, top.node) <
          std::tie(r.dist[v], r.hops[v], r.parent[v])) {
        r.dist[v] = dv;
        r.hops[v] = h;
        r.parent[v] = top.node;
        heap.push_back({dv, h, top.node, v});
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
  return r;
}

constexpr auto kAdmitAll = [](NodeId, NodeId) { return true; };

}  // namespace

SsspResult dijkstra(const Graph& g, NodeId source) {
  return run<&Graph::out_edges, &Edge::to>(g, source, kNoNode, kAdmitAll);
}

SsspResult dijkstra_reverse(const Graph& g, NodeId target) {
  return run<&Graph::in_edges, &Edge::from>(g, target, kNoNode, kAdmitAll);
}

SsspResult dijkstra_to(const Graph& g, NodeId source, NodeId target,
                       const std::function<bool(NodeId, NodeId)>& admit) {
  return run<&Graph::out_edges, &Edge::to>(g, source, target, admit);
}

std::vector<std::vector<Weight>> apsp(const Graph& g) {
  std::vector<std::vector<Weight>> d;
  d.reserve(g.node_count());
  for (NodeId s = 0; s < g.node_count(); ++s) {
    d.push_back(dijkstra(g, s).dist);
  }
  return d;
}

}  // namespace dapsp::seq
