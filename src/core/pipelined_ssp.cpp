#include "core/pipelined_ssp.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "core/bounds.hpp"
#include "util/int_math.hpp"

namespace dapsp::core {

using congest::Context;
using congest::Engine;
using congest::EngineOptions;
using congest::Envelope;
using congest::Message;
using congest::Protocol;
using congest::Round;
using graph::Graph;
using graph::kInfDist;
using graph::kNoNode;

namespace {

constexpr std::uint32_t kTagEntry = 10;  // {x, d, l, nu, flag}

/// Run-wide read-only configuration shared by all node protocols.
struct SharedConfig {
  const Graph* g = nullptr;
  std::uint32_t h = 0;
  Weight delta = 0;
  GammaSq gamma;
  KappaKernel kernel;  // batched/fast-path kappa arithmetic for this gamma
  ListPolicy policy = ListPolicy::kDominance;
  std::vector<NodeId> sources;
  std::vector<std::int32_t> source_index;  // node -> index in sources, or -1
};

constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

/// One list entry Z (Table II of the paper), held in a node's slot pool.
struct Entry {
  Key key;                   // (d, l)
  NodeId source = 0;         // x
  std::uint32_t next = kNil;  // next slot for the same source in list order
  std::uint64_t ck = 0;      // cached ceil(kappa); send round = ck + pos
  /// Schedule value (ck + pos) at the last firing; 0 = never fired.  An
  /// entry is due when its current schedule is <= the round and differs
  /// from this value: list churn can move an entry to a position whose
  /// schedule already passed, and the literal "fire on equality" rule would
  /// silently drop it (observed on directed zero-weight graphs).
  std::uint64_t fired_sched = 0;
  bool sp = false;  // flag-d*
};

class PipelinedProtocol final : public Protocol {
 public:
  PipelinedProtocol(const SharedConfig& cfg, NodeId self)
      : cfg_(cfg), self_(self) {
    const auto k = cfg.sources.size();
    best_d_.assign(k, kInfDist);
    best_l_.assign(k, 0);
    best_p_.assign(k, kNoNode);
    sends_per_source_.assign(k, 0);
    head_.assign(k, kNil);
    // Incoming arc weights keyed by sender (directed graphs: a neighbor may
    // be connected only by an outgoing arc, in which case its messages do
    // not extend any path into this node).
    for (const auto& e : cfg.g->in_edges(self)) {
      in_weight_.emplace_back(e.from, e.weight);
    }
    // in_edges is sorted by (from); keep the min-weight arc per sender.
    in_weight_.erase(
        std::unique(in_weight_.begin(), in_weight_.end(),
                    [](const auto& a, const auto& b) { return a.first == b.first; }),
        in_weight_.end());
  }

  void init(Context& /*ctx*/) override {
    const std::int32_t idx = cfg_.source_index[self_];
    if (idx >= 0) {
      const auto si = static_cast<std::size_t>(idx);
      best_d_[si] = 0;
      best_l_[si] = 0;
      best_p_[si] = kNoNode;
      Entry z;
      z.key = Key{0, 0};
      z.source = self_;
      z.sp = true;
      z.ck = cfg_.kernel.ceil_kappa(z.key);
      head_[si] = alloc(z);
      order_.push_back(head_[si]);
    }
  }

  bool quiescent() const override {
    if (order_.empty()) return true;
    // Future work pending?  The last entry holds the max schedule.
    if (pool_[order_.back()].ck + order_.size() > last_round_seen_) {
      return false;
    }
    // Past-due but unfired entries still owe a send.
    for (std::size_t i = scan_floor_; i < order_.size(); ++i) {
      if (at(i).fired_sched != at(i).ck + i + 1) return false;
    }
    return true;
  }

  /// Sparse-engine hint: the schedule of the first entry send_phase would
  /// fire (schedules ck_i + (i+1) increase strictly along the list, so the
  /// first unsettled entry at or past scan_floor_ is the next to act; if its
  /// schedule already passed -- list churn moved it -- it fires next round).
  Round next_send_round(Round now) const override {
    for (std::size_t i = scan_floor_; i < order_.size(); ++i) {
      const std::uint64_t sched = at(i).ck + i + 1;
      if (at(i).fired_sched != sched) {
        return sched <= now ? now + 1 : static_cast<Round>(sched);
      }
    }
    return kNeverSends;
  }

  // --- results ---
  const std::vector<Weight>& best_d() const { return best_d_; }
  const std::vector<std::uint32_t>& best_l() const { return best_l_; }
  const std::vector<NodeId>& best_p() const { return best_p_; }
  Round settle_round() const { return settle_round_; }
  std::uint64_t max_entries_per_source() const { return max_per_source_; }
  std::uint64_t max_list_size() const { return max_list_; }
  std::uint64_t late_fires() const { return late_fires_; }
  std::uint64_t sends() const { return sends_; }
  /// Max messages this node emitted for any single source (the per-source
  /// congestion Algorithm 1 keeps low: at most the per-source list
  /// occupancy plus schedule-shift refires).
  std::uint64_t max_sends_one_source() const {
    std::uint64_t m = 0;
    for (const auto c : sends_per_source_) m = std::max(m, c);
    return m;
  }

  void send_phase(Context& ctx) override {
    last_round_seen_ = ctx.round();
    const Round r = ctx.round();
    // Schedules ck_i + (i+1) increase strictly along the list, so entries
    // with schedule <= r form a prefix.  Fire the first due entry (schedule
    // reached and not already fired at this exact schedule); scan_floor_
    // skips the settled part of the prefix and resets on list mutation.
    std::size_t i = scan_floor_;
    while (i < order_.size()) {
      const std::uint64_t sched = at(i).ck + i + 1;
      if (sched > r) break;
      if (at(i).fired_sched != sched) {
        if (sched < r) ++late_fires_;
        fire(ctx, i, sched);
        return;
      }
      scan_floor_ = ++i;
    }
  }

  void fire(Context& ctx, std::size_t idx, std::uint64_t sched) {
    const std::uint32_t slot = order_[idx];
    Entry& z = pool_[slot];
    z.fired_sched = sched;
    const auto si = static_cast<std::size_t>(cfg_.source_index[z.source]);
    ++sends_per_source_[si];
    // Z.nu: entries for Z's source at or below Z, i.e. Z's rank on the
    // source chain (which runs in list order).
    std::int64_t nu = 1;
    for (std::uint32_t s = head_[si]; s != slot; s = pool_[s].next) ++nu;
    ctx.broadcast(Message(kTagEntry, {static_cast<std::int64_t>(z.source),
                                      z.key.d, z.key.l, nu,
                                      z.sp ? 1 : 0}));
    ++sends_;
  }

  void receive_phase(Context& ctx) override {
    // Parse-then-batch: the admission filters (tag, arc, source, hop
    // budget) and the ceil(kappa) of each surviving candidate depend only
    // on message content, so they run first and the kappa ceilings go
    // through the kernel's span routine in one pass.  List examination
    // stays in arrival order below, exactly as before.
    pending_.clear();
    pkeys_.clear();
    for (const Envelope& env : ctx.inbox()) {
      if (env.msg.tag != kTagEntry) continue;
      const auto w = arc_weight_from(env.from);
      if (!w) continue;  // no directed arc sender -> self
      const auto x = static_cast<NodeId>(env.msg.f[0]);
      const std::int32_t sidx = cfg_.source_index[x];
      if (sidx < 0) continue;
      const Weight d = env.msg.f[1] + *w;
      const auto l = static_cast<std::uint32_t>(env.msg.f[2]) + 1;
      if (l > cfg_.h) continue;  // hop budget exhausted
      pending_.push_back(Pending{
          env.from, x, sidx, static_cast<std::uint64_t>(env.msg.f[3])});
      pkeys_.push_back(Key{d, l});
    }
    pck_.resize(pkeys_.size());
    cfg_.kernel.ceil_kappa_span(pkeys_, pck_);

    for (std::size_t pi = 0; pi < pending_.size(); ++pi) {
      const Pending& pd = pending_[pi];
      const NodeId x = pd.source;
      const Weight d = pkeys_[pi].d;
      const std::uint32_t l = pkeys_[pi].l;
      const std::uint64_t nu = pd.nu;

      Entry z;
      z.key = pkeys_[pi];
      z.source = x;
      z.ck = pck_[pi];

      const auto si = static_cast<std::size_t>(pd.sidx);
      if (d == best_d_[si] && l == best_l_[si] && pd.from < best_p_[si]) {
        // Step 9's parent tie-break: same (d, l), smaller sender id.  The
        // key is identical to the current SP entry's, so only the recorded
        // parent changes; no twin is inserted.
        best_p_[si] = pd.from;
        settle_round_ = ctx.round();
        continue;
      }
      // An entry dominated by existing information (some entry with both
      // distance and hops no worse) can never improve any downstream h-hop
      // distance; dropping it is always delivery-safe and keeps duplicate
      // churn from evicting hop-efficient entries.
      if (cfg_.policy == ListPolicy::kDominance && dominated(z, si)) continue;
      const bool better =
          d < best_d_[si] || (d == best_d_[si] && l < best_l_[si]);
      if (better) {
        best_d_[si] = d;
        best_l_[si] = l;
        best_p_[si] = pd.from;
        settle_round_ = ctx.round();
        z.sp = true;
        const std::uint32_t slot = insert_entry(z, si);
        for (std::uint32_t s = head_[si]; s != kNil; s = pool_[s].next) {
          if (s != slot) pool_[s].sp = false;
        }
      } else {
        // Step 13: insert the non-SP entry only if fewer than nu entries for
        // x have key <= Z's key (Observation II.4's accounting; the counts
        // are load-bearing for Lemma II.6's position argument).  The literal
        // policy compares with strict <, as printed in the paper.
        std::uint64_t gate_count = 0;
        for (std::uint32_t s = head_[si]; s != kNil; s = pool_[s].next) {
          const int c = cfg_.kernel.compare(pool_[s].key, z.key);
          if (c < 0 || (c == 0 && cfg_.policy == ListPolicy::kDominance)) {
            ++gate_count;
          }
        }
        if (gate_count < nu) insert_entry(z, si);
      }
    }
  }

 private:
  std::optional<Weight> arc_weight_from(NodeId y) const {
    const auto it = std::lower_bound(
        in_weight_.begin(), in_weight_.end(), y,
        [](const auto& p, NodeId v) { return p.first < v; });
    if (it == in_weight_.end() || it->first != y) return std::nullopt;
    return it->second;
  }

  const Entry& at(std::size_t pos) const { return pool_[order_[pos]]; }

  /// True if list slot a sorts before slot b in (kappa, d, x) order.
  bool before(std::uint32_t a, std::uint32_t b) const {
    return list_order(pool_[a].key, pool_[a].source, pool_[b].key,
                      pool_[b].source, cfg_.kernel) < 0;
  }

  /// First list position whose entry does not sort before slot's.
  std::vector<std::uint32_t>::iterator lower_bound(std::uint32_t slot) {
    return std::lower_bound(
        order_.begin(), order_.end(), slot,
        [this](std::uint32_t a, std::uint32_t b) { return before(a, b); });
  }

  /// True if some listed entry for source index si matches or beats z in
  /// both distance and hops.
  bool dominated(const Entry& z, std::size_t si) const {
    for (std::uint32_t s = head_[si]; s != kNil; s = pool_[s].next) {
      if (pool_[s].key.d <= z.key.d && pool_[s].key.l <= z.key.l) return true;
    }
    return false;
  }

  std::uint32_t alloc(const Entry& z) {
    if (free_.empty()) {
      pool_.push_back(z);
      return static_cast<std::uint32_t>(pool_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    pool_[slot] = z;
    return slot;
  }

  /// Removes slot from the list; prev is its predecessor on the source
  /// chain (kNil if slot is the chain head).
  void erase_entry(std::size_t si, std::uint32_t prev, std::uint32_t slot) {
    (prev == kNil ? head_[si] : pool_[prev].next) = pool_[slot].next;
    // slot lies in the run of entries sorting equal to it (only the literal
    // policy admits same-key twins).
    auto it = lower_bound(slot);
    while (*it != slot) ++it;
    order_.erase(it);
    free_.push_back(slot);
  }

  /// INSERT procedure for an entry of source index si; returns Z's slot.
  ///
  /// Deviation from the conference listing (documented in DESIGN.md): the
  /// removal step drops entries for x that Z *dominates* (distance and hops
  /// both no better) rather than unconditionally the closest non-SP entry
  /// above Z.  Unconditional removal can evict a dethroned SP entry whose
  /// fewer-hops path is the only way some h-hop shortest distance reaches a
  /// later node; dominance-based removal is delivery-safe by construction
  /// and the Lemma II.14 round bound is asserted by tests/benches instead.
  std::uint32_t insert_entry(const Entry& z, std::size_t si) {
    const std::uint32_t slot = alloc(z);
    // Position by (kappa, d, x); Z lands before entries that sort equal.
    const auto it = lower_bound(slot);
    scan_floor_ = std::min(
        scan_floor_, static_cast<std::size_t>(it - order_.begin()));
    order_.insert(it, slot);

    // Link Z into its source chain after the entries listed below it.
    std::uint32_t prev = kNil;
    for (std::uint32_t s = head_[si]; s != kNil && before(s, slot);
         s = pool_[s].next) {
      prev = s;
    }
    std::uint32_t& link = prev == kNil ? head_[si] : pool_[prev].next;
    pool_[slot].next = link;
    link = slot;

    // The chain past Z holds exactly the entries for x listed above it.
    prev = slot;
    for (std::uint32_t s = pool_[slot].next; s != kNil;) {
      const Entry& e = pool_[s];
      const std::uint32_t next = e.next;
      if (e.sp) {
        prev = s;
      } else if (cfg_.policy == ListPolicy::kLiteral) {
        // Literal INSERT steps 2-4: drop the closest non-SP entry for x
        // above Z, whatever it holds.
        erase_entry(si, prev, s);
        break;
      } else if (z.key.d <= e.key.d && z.key.l <= e.key.l) {
        // Remove every non-SP entry for x that Z dominates.
        erase_entry(si, prev, s);
      } else {
        prev = s;
      }
      s = next;
    }

    max_list_ = std::max(max_list_, static_cast<std::uint64_t>(order_.size()));
    std::uint64_t cnt = 0;
    for (std::uint32_t s = head_[si]; s != kNil; s = pool_[s].next) ++cnt;
    max_per_source_ = std::max(max_per_source_, cnt);
    return slot;
  }

  /// One inbox envelope that survived the cheap filters, staged so the
  /// kappa ceilings of a whole round's arrivals are computed in one
  /// batched kernel pass before list maintenance touches any of them.
  struct Pending {
    NodeId from;
    NodeId source;
    std::int32_t sidx;
    std::uint64_t nu;
  };

  const SharedConfig& cfg_;
  NodeId self_;
  // The list: entries live in pool_ slots (freed slots are recycled via
  // free_), order_ holds the slots sorted by (kappa, d, x), and head_[si]
  // starts the chain of source si's slots, linked by Entry::next in list
  // order.
  std::vector<Entry> pool_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> head_;
  std::vector<Pending> pending_;        // per-round scratch, grow-only
  std::vector<Key> pkeys_;              // keys of pending_ (same order)
  std::vector<std::uint64_t> pck_;      // batched ceil_kappa of pkeys_
  std::vector<std::pair<NodeId, Weight>> in_weight_;  // sorted by sender
  std::vector<Weight> best_d_;
  std::vector<std::uint32_t> best_l_;
  std::vector<NodeId> best_p_;
  Round settle_round_ = 0;
  Round last_round_seen_ = 0;
  std::size_t scan_floor_ = 0;
  std::uint64_t max_per_source_ = 0;
  std::uint64_t max_list_ = 0;
  std::uint64_t late_fires_ = 0;
  std::uint64_t sends_ = 0;
  std::vector<std::uint64_t> sends_per_source_;
};

}  // namespace

void PipelinedParams::finalize(const Graph& g) {
  util::check(!sources.empty(), "PipelinedParams: need at least one source");
  util::check(h >= 1, "PipelinedParams: need h >= 1");
  util::check(delta >= 0, "PipelinedParams: delta must be non-negative");
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  util::check(sources.back() < g.node_count(),
              "PipelinedParams: source id out of range");
  if (gamma.num == 0 && gamma.den == 0) {
    gamma = GammaSq::paper(sources.size(), h,
                           static_cast<std::uint64_t>(delta));
  }
}

KsspResult pipelined_kssp(const Graph& g, PipelinedParams params) {
  params.finalize(g);
  const NodeId n = g.node_count();
  const std::uint64_t k = params.sources.size();

  SharedConfig cfg;
  cfg.g = &g;
  cfg.h = params.h;
  cfg.delta = params.delta;
  cfg.gamma = params.gamma;
  cfg.kernel = KappaKernel(cfg.gamma);
  cfg.policy = params.policy;
  cfg.sources = params.sources;
  cfg.source_index.assign(n, -1);
  for (std::size_t i = 0; i < cfg.sources.size(); ++i) {
    cfg.source_index[cfg.sources[i]] = static_cast<std::int32_t>(i);
  }

  const std::uint64_t bound = bounds::hk_ssp_custom_gamma(
      params.h, k, static_cast<std::uint64_t>(params.delta), params.gamma);

  std::vector<std::unique_ptr<Protocol>> procs;
  procs.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    procs.push_back(std::make_unique<PipelinedProtocol>(cfg, v));
  }
  EngineOptions opt;
  opt.max_rounds = static_cast<Round>(
      static_cast<double>(bound) * std::max(1.0, params.round_budget_factor));
  opt.scramble_inbox = params.scramble_inbox;
  opt.record_per_round = params.record_per_round;
  Engine engine(g, std::move(procs), opt);

  KsspResult res;
  res.stats = engine.run();
  res.sources = cfg.sources;
  res.theoretical_bound = bound;
  res.dist.assign(k, std::vector<Weight>(n, kInfDist));
  res.hops.assign(k, std::vector<std::uint32_t>(n, 0));
  res.parent.assign(k, std::vector<NodeId>(n, kNoNode));
  for (NodeId v = 0; v < n; ++v) {
    const auto& p = static_cast<const PipelinedProtocol&>(engine.protocol(v));
    for (std::size_t i = 0; i < k; ++i) {
      res.dist[i][v] = p.best_d()[i];
      res.hops[i][v] = p.best_l()[i];
      res.parent[i][v] = p.best_p()[i];
    }
    res.max_entries_per_source =
        std::max(res.max_entries_per_source, p.max_entries_per_source());
    res.max_list_size = std::max(res.max_list_size, p.max_list_size());
    res.settle_round = std::max(res.settle_round, p.settle_round());
    res.late_fires += p.late_fires();
    res.total_sends += p.sends();
    res.max_sends_per_source =
        std::max(res.max_sends_per_source, p.max_sends_one_source());
  }
  return res;
}

KsspResult pipelined_apsp(const Graph& g, Weight delta) {
  PipelinedParams params;
  params.sources.resize(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) params.sources[v] = v;
  params.h = g.node_count() > 1 ? g.node_count() - 1 : 1;
  params.delta = delta;
  return pipelined_kssp(g, std::move(params));
}

KsspResult pipelined_kssp_full(const Graph& g, std::vector<NodeId> sources,
                               Weight delta) {
  PipelinedParams params;
  params.sources = std::move(sources);
  params.h = g.node_count() > 1 ? g.node_count() - 1 : 1;
  params.delta = delta;
  return pipelined_kssp(g, std::move(params));
}

}  // namespace dapsp::core
