// Algorithm 1: the pipelined (h,k)-SSP algorithm (Section II of the paper).
//
// Every node maintains a list of entries Z = (kappa, d, l, x) sorted by
// (kappa, d, x), where kappa = d*gamma + l and gamma = sqrt(k*h/Delta).  In
// round r a node sends the entry whose ceil(kappa + pos) equals r (positions
// are 1-based; since ceil(kappa)+pos is strictly increasing along the list,
// at most one entry fires per round).  Receivers relax the entry across the
// incoming arc and insert it subject to the paper's SP / non-SP rules, which
// keep at most h/gamma + 1 entries per source on any list (Invariant 2) and
// guarantee every entry is added before round ceil(kappa + pos)
// (Invariant 1).  All h-hop shortest distances from the k sources arrive
// within 2*sqrt(h*k*Delta) + h + k rounds (Theorem I.1).
#pragma once

#include <cstdint>
#include <vector>

#include "congest/engine.hpp"
#include "congest/metrics.hpp"
#include "core/key.hpp"
#include "graph/graph.hpp"

namespace dapsp::core {

/// List maintenance policy (see DESIGN.md).  The conference listing of
/// INSERT is ambiguous about removal/tie-break corner cases; kDominance is
/// the delivery-safe reading this library defaults to (drop an entry only
/// when another entry for the same source matches or beats it in both
/// distance and hops), kLiteral is the word-for-word transcription (remove
/// the closest non-SP entry above every insertion).  Both satisfy the
/// paper's guarantee; the ablation bench compares their list occupancy and
/// settle rounds.
enum class ListPolicy { kDominance, kLiteral };

struct PipelinedParams {
  std::vector<NodeId> sources;  ///< the k sources (deduplicated, nonempty)
  std::uint32_t h = 0;          ///< hop bound
  Weight delta = 0;             ///< bound on h-hop shortest path distances
  /// Key schedule; defaults to the paper's gamma at `finalize()`.
  GammaSq gamma{0, 0};
  ListPolicy policy = ListPolicy::kDominance;
  /// Extra safety factor on the engine's round budget (tests use 1 to assert
  /// the theory bound is respected).
  double round_budget_factor = 1.0;
  /// Deterministically permute message arrival order within each round (the
  /// CONGEST model promises delivery, not order); distances must not change.
  bool scramble_inbox = false;
  /// Record per-round message counts into stats.per_round_messages (the
  /// "pipeline wave"; used by the E4 bench).
  bool record_per_round = false;

  /// Fills gamma with the paper's value if unset and validates ranges.
  void finalize(const graph::Graph& g);
};

struct KsspResult {
  std::vector<NodeId> sources;
  /// dist[i][v]: h-hop shortest distance from sources[i] to v (kInfDist if
  /// no path with <= h hops exists).
  std::vector<std::vector<Weight>> dist;
  std::vector<std::vector<std::uint32_t>> hops;
  std::vector<std::vector<NodeId>> parent;
  congest::RunStats stats;
  std::uint64_t theoretical_bound = 0;  ///< Lemma II.14 round bound
  /// Last round in which any node's best distance/hop/parent improved; the
  /// measured "all shortest paths have arrived" round compared against the
  /// bound by the benches.
  congest::Round settle_round = 0;
  /// Measured Invariant-2 quantities.
  std::uint64_t max_entries_per_source = 0;
  std::uint64_t max_list_size = 0;
  /// Sends that fired after their scheduled round (the Invariant-1 schedule
  /// was missed and caught up).  Not 0 in general: APSP on the 16x16 grid
  /// with weights 0-8 (graph seed 2) counts 24542 while the round and
  /// message counts stay exact; monitored, not asserted.
  std::uint64_t late_fires = 0;
  std::uint64_t total_sends = 0;
  /// Largest number of messages any node emitted for one source (per-source
  /// congestion; tracks the per-source list occupancy).
  std::uint64_t max_sends_per_source = 0;
};

/// Runs Algorithm 1 for the given sources/hop bound.
KsspResult pipelined_kssp(const graph::Graph& g, PipelinedParams params);

/// Theorem I.1(ii): APSP via Algorithm 1 with all n sources and h = n-1.
/// `delta` is the max shortest-path distance (pass the graph's true Delta,
/// e.g. from graph::max_finite_distance).
KsspResult pipelined_apsp(const graph::Graph& g, Weight delta);

/// Theorem I.1(iii): full (unbounded-hop) k-SSP via Algorithm 1 with
/// h = n-1, in 2*sqrt(n*k*Delta) + n + k rounds.
KsspResult pipelined_kssp_full(const graph::Graph& g,
                               std::vector<NodeId> sources, Weight delta);

}  // namespace dapsp::core
