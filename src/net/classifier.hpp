// Differentiated-services edge functions: classification, marking, and
// policing (paper §2).
//
// A FlowMatch selects packets by any subset of the 5-tuple (unset fields
// are wildcards). The DsPolicy holds an ordered rule list; the first
// matching rule wins. Premium rules carry a token bucket: in-profile
// packets are marked EF, out-of-profile packets are dropped (policing —
// the premium service guarantee requires it) or optionally demoted to
// best effort. Interior routers trust the EF marking and need no rules,
// exactly as in the DS architecture.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "net/token_bucket.hpp"

namespace mgq::net {

/// Wildcard-able match over the flow 5-tuple.
struct FlowMatch {
  std::optional<NodeId> src;
  std::optional<NodeId> dst;
  std::optional<PortId> src_port;
  std::optional<PortId> dst_port;
  std::optional<Protocol> proto;

  bool matches(const FlowKey& key) const {
    return (!src || *src == key.src) && (!dst || *dst == key.dst) &&
           (!src_port || *src_port == key.src_port) &&
           (!dst_port || *dst_port == key.dst_port) &&
           (!proto || *proto == key.proto);
  }

  /// Exact match for one direction of a flow.
  static FlowMatch exact(const FlowKey& key) {
    return FlowMatch{key.src, key.dst, key.src_port, key.dst_port, key.proto};
  }
};

/// What to do with out-of-profile traffic of a premium rule.
enum class OutOfProfileAction {
  kDrop,    // premium service: police hard (default, paper behaviour)
  kDemote,  // mark down to best effort instead (ablation)
};

struct MarkingRule {
  FlowMatch match;
  Dscp mark = Dscp::kExpedited;
  /// Policer; null means mark unconditionally (e.g. low-latency class).
  std::shared_ptr<TokenBucket> bucket;
  OutOfProfileAction out_action = OutOfProfileAction::kDrop;
  /// Identifier so reservations can later remove their rules.
  std::uint64_t rule_id = 0;
};

struct DsPolicyStats {
  std::uint64_t classified = 0;
  std::uint64_t marked = 0;
  std::uint64_t policed_drops = 0;
  std::uint64_t demoted = 0;
  // Flow-table fast path (not exported to BENCH documents).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Per-ingress-interface DS edge policy.
///
/// Classification is cached per FlowKey: the first packet of a flow walks
/// the ordered rule list, then the winning rule index (or "no rule") is
/// remembered so later packets of the same flow skip the scan. Policing
/// stays per-packet — only the *match* is cached, the token bucket is
/// still consulted for every packet. Any rule mutation invalidates the
/// whole table, so the cache is behaviourally invisible.
class DsPolicy {
 public:
  /// Adds a rule; returns its id for later removal.
  std::uint64_t addRule(MarkingRule rule);
  bool removeRule(std::uint64_t rule_id);

  /// Applies classification/marking/policing. Returns the (possibly
  /// re-marked) packet, or nullopt when it was policed away.
  std::optional<Packet> process(Packet p);

  /// Fast-path support: callers on the forwarding hot path skip process()
  /// (and its two Packet moves) for rule-less policies, recording the
  /// classification with countBypass() so exported stats are unchanged.
  bool hasRules() const { return !rules_.empty(); }
  void countBypass() { ++stats_.classified; }

  const DsPolicyStats& stats() const { return stats_; }
  std::size_t ruleCount() const { return rules_.size(); }
  /// Read-only rule view (invariant monitors watch the rule buckets).
  const std::vector<MarkingRule>& rules() const { return rules_; }

 private:
  /// Bound on cached flows; reaching it clears the table (simple and
  /// deterministic — steady state re-fills with the active flows).
  static constexpr std::size_t kMaxCachedFlows = 4096;
  static constexpr std::size_t kNoRule = static_cast<std::size_t>(-1);

  std::optional<Packet> applyRule(std::size_t index, Packet p);

  std::vector<MarkingRule> rules_;
  std::unordered_map<FlowKey, std::size_t, FlowKeyHash> flow_cache_;
  DsPolicyStats stats_;
  std::uint64_t next_rule_id_ = 1;
};

}  // namespace mgq::net
