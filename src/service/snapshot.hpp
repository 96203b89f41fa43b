// Swappable oracle snapshots: the abstraction that turns "query a matrix"
// into "operate a serving tier".
//
// `OracleSnapshot` is the read-side interface the query service executes
// against.  A snapshot is immutable once published: any number of reader
// threads may call dist/next_hop/path concurrently with no synchronization,
// and the service swaps entire snapshots atomically (epoch + shared_ptr)
// under live traffic instead of ever mutating one in place.  Implementations:
//
//   * `FlatSnapshot` (here)             -- wraps the classic single-matrix
//     DistanceOracle; reports itself as one shard covering every row.
//   * `serve::ShardedOracle`            -- partitions the dist/next-hop
//     closure across S vertex-range shards (src/serve/sharded_oracle.hpp).
//
// The epoch is assigned by the query service at publication time and stamps
// every cache entry derived from the snapshot, so nothing computed against
// an old snapshot can be served after a swap.  `set_epoch` may only be
// called while the snapshot is exclusively owned (before the atomic store
// publishes it); after publication the snapshot is logically const.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/oracle.hpp"
#include "service/stats.hpp"

namespace dapsp::service {

class OracleSnapshot {
 public:
  virtual ~OracleSnapshot() = default;

  virtual NodeId node_count() const noexcept = 0;
  /// True when a next-hop table exists (approx oracles are distance-only).
  virtual bool has_paths() const noexcept = 0;
  /// Provenance of the build that produced the matrices.
  virtual const OracleMeta& meta() const noexcept = 0;
  /// False when distances are (1+eps)-approximate.
  bool exact() const noexcept { return meta().exact; }
  const std::string& solver_label() const noexcept { return meta().label; }
  /// Stats of the run that produced the matrices (zeroed for kReference).
  const congest::RunStats& build_stats() const noexcept {
    return meta().stats;
  }
  /// Critical-path summary of the producing build; nullptr when the build
  /// was not profiled (OracleBuildOptions::critpath off, reference solver,
  /// or a process-global recorder owned the observation).
  const obs::CritPathSummary* build_critpath() const noexcept {
    return meta().critpath.empty() ? nullptr : &meta().critpath;
  }
  /// Bytes held by the distance + next-hop tables across all shards.
  virtual std::size_t memory_bytes() const noexcept = 0;

  /// Distance u -> v (kInfDist when unreachable).  Unchecked hot path: ids
  /// must be < node_count(); the query service validates untrusted input.
  virtual Weight dist(NodeId u, NodeId v) const noexcept = 0;
  /// First hop on a shortest path u -> v; kNoNode when u == v, v is
  /// unreachable, or the snapshot is distance-only.  Unchecked ids.
  virtual NodeId next_hop(NodeId u, NodeId v) const noexcept = 0;

  /// Shard layout for occupancy reporting; ranges partition [0, n).
  virtual std::size_t shard_count() const noexcept = 0;
  virtual ShardInfo shard_info(std::size_t shard) const noexcept = 0;

  /// Full node sequence u ... v following next hops; nullopt when v is
  /// unreachable, the snapshot is distance-only, or ids are out of range.
  /// For u == v returns {u}.  Identical semantics (and bit-identical output)
  /// to DistanceOracle::path for every implementation.
  std::optional<std::vector<NodeId>> path(NodeId u, NodeId v) const;

  /// Publication epoch; 0 until the query service assigns one at swap time.
  std::uint64_t epoch() const noexcept { return epoch_; }
  /// Pre-publication only: the service stamps the epoch while it still holds
  /// the sole reference, then releases the snapshot to readers.
  void set_epoch(std::uint64_t e) noexcept { epoch_ = e; }

  std::vector<ShardInfo> shard_layout() const {
    std::vector<ShardInfo> out(shard_count());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = shard_info(i);
    return out;
  }

 private:
  std::uint64_t epoch_ = 0;
};

/// The single-matrix snapshot: a DistanceOracle behind the swappable
/// interface, reported as one shard spanning every source row.
class FlatSnapshot final : public OracleSnapshot {
 public:
  explicit FlatSnapshot(DistanceOracle oracle) : oracle_(std::move(oracle)) {}

  const DistanceOracle& oracle() const noexcept { return oracle_; }

  NodeId node_count() const noexcept override { return oracle_.node_count(); }
  bool has_paths() const noexcept override { return oracle_.has_paths(); }
  const OracleMeta& meta() const noexcept override { return oracle_.meta(); }
  std::size_t memory_bytes() const noexcept override {
    return oracle_.memory_bytes();
  }
  Weight dist(NodeId u, NodeId v) const noexcept override {
    return oracle_.dist(u, v);
  }
  NodeId next_hop(NodeId u, NodeId v) const noexcept override {
    return oracle_.next_hop(u, v);
  }
  std::size_t shard_count() const noexcept override { return 1; }
  ShardInfo shard_info(std::size_t) const noexcept override {
    return {0, oracle_.node_count(), oracle_.memory_bytes()};
  }

 private:
  DistanceOracle oracle_;
};

/// Convenience: build a flat snapshot from a finished oracle.
inline std::shared_ptr<FlatSnapshot> make_flat_snapshot(DistanceOracle o) {
  return std::make_shared<FlatSnapshot>(std::move(o));
}

}  // namespace dapsp::service
