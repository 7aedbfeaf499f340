#include "net/classifier.hpp"

#include <algorithm>

namespace mgq::net {

std::uint64_t DsPolicy::addRule(MarkingRule rule) {
  rule.rule_id = next_rule_id_++;
  rules_.push_back(std::move(rule));
  flow_cache_.clear();
  return rules_.back().rule_id;
}

bool DsPolicy::removeRule(std::uint64_t rule_id) {
  const auto before = rules_.size();
  std::erase_if(rules_,
                [rule_id](const MarkingRule& r) { return r.rule_id == rule_id; });
  if (rules_.size() != before) {
    flow_cache_.clear();
    return true;
  }
  return false;
}

std::optional<Packet> DsPolicy::applyRule(std::size_t index, Packet p) {
  auto& rule = rules_[index];
  if (!rule.bucket || rule.bucket->tryConsume(p.size_bytes)) {
    p.dscp = rule.mark;
    ++stats_.marked;
    return p;
  }
  // Out of profile.
  if (rule.out_action == OutOfProfileAction::kDemote) {
    p.dscp = Dscp::kBestEffort;
    ++stats_.demoted;
    return p;
  }
  ++stats_.policed_drops;
  return std::nullopt;
}

std::optional<Packet> DsPolicy::process(Packet p) {
  ++stats_.classified;
  // No rules (hosts without marking, interior routers): nothing to match
  // and nothing worth caching.
  if (rules_.empty()) return p;

  if (const auto it = flow_cache_.find(p.flow); it != flow_cache_.end()) {
    ++stats_.cache_hits;
    if (it->second == kNoRule) return p;
    return applyRule(it->second, std::move(p));
  }

  ++stats_.cache_misses;
  if (flow_cache_.size() >= kMaxCachedFlows) flow_cache_.clear();
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (!rules_[i].match.matches(p.flow)) continue;
    flow_cache_.emplace(p.flow, i);
    return applyRule(i, std::move(p));
  }
  // No rule: leave marking untouched (interior routers trust edges; hosts
  // send best-effort unless their own policy marks).
  flow_cache_.emplace(p.flow, kNoRule);
  return p;
}

}  // namespace mgq::net
