#include "net/classifier.hpp"

#include <gtest/gtest.h>

#include "sim/simulator.hpp"

namespace mgq::net {
namespace {

FlowKey makeFlow(NodeId src = 1, NodeId dst = 2, PortId sp = 100,
                 PortId dp = 200, Protocol proto = Protocol::kTcp) {
  return FlowKey{src, dst, sp, dp, proto};
}

Packet makePacket(const FlowKey& flow, std::int32_t size = 1000) {
  Packet p;
  p.flow = flow;
  p.size_bytes = size;
  return p;
}

TEST(FlowMatchTest, EmptyMatchIsWildcard) {
  FlowMatch m;
  EXPECT_TRUE(m.matches(makeFlow()));
  EXPECT_TRUE(m.matches(makeFlow(9, 9, 9, 9, Protocol::kUdp)));
}

TEST(FlowMatchTest, ExactMatch) {
  const auto flow = makeFlow();
  const auto m = FlowMatch::exact(flow);
  EXPECT_TRUE(m.matches(flow));
  EXPECT_FALSE(m.matches(makeFlow(1, 2, 100, 201)));
  EXPECT_FALSE(m.matches(makeFlow(1, 3, 100, 200)));
}

TEST(FlowMatchTest, PartialFields) {
  FlowMatch m;
  m.dst = 2;
  m.proto = Protocol::kTcp;
  EXPECT_TRUE(m.matches(makeFlow(1, 2)));
  EXPECT_TRUE(m.matches(makeFlow(7, 2, 9, 9)));
  EXPECT_FALSE(m.matches(makeFlow(1, 3)));
  EXPECT_FALSE(m.matches(makeFlow(1, 2, 100, 200, Protocol::kUdp)));
}

TEST(FlowKeyTest, ReversedSwapsEndpoints) {
  const auto f = makeFlow(1, 2, 10, 20);
  const auto r = f.reversed();
  EXPECT_EQ(r.src, 2u);
  EXPECT_EQ(r.dst, 1u);
  EXPECT_EQ(r.src_port, 20);
  EXPECT_EQ(r.dst_port, 10);
  EXPECT_EQ(r.reversed(), f);
}

TEST(DsPolicyTest, NoRulesPassesThroughUnchanged) {
  DsPolicy policy;
  auto out = policy.process(makePacket(makeFlow()));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->dscp, Dscp::kBestEffort);
}

TEST(DsPolicyTest, MarksUnconditionallyWithoutBucket) {
  DsPolicy policy;
  policy.addRule(MarkingRule{FlowMatch{}, Dscp::kLowLatency, nullptr,
                             OutOfProfileAction::kDrop});
  auto out = policy.process(makePacket(makeFlow()));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->dscp, Dscp::kLowLatency);
  EXPECT_EQ(policy.stats().marked, 1u);
}

TEST(DsPolicyTest, InProfileMarkedEf) {
  sim::Simulator s;
  DsPolicy policy;
  auto bucket = std::make_shared<TokenBucket>(s, 8000.0, 2000);
  policy.addRule(MarkingRule{FlowMatch::exact(makeFlow()), Dscp::kExpedited,
                             bucket, OutOfProfileAction::kDrop});
  auto out = policy.process(makePacket(makeFlow(), 1500));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->dscp, Dscp::kExpedited);
}

TEST(DsPolicyTest, OutOfProfileDropped) {
  sim::Simulator s;
  DsPolicy policy;
  auto bucket = std::make_shared<TokenBucket>(s, 8000.0, 2000);
  policy.addRule(MarkingRule{FlowMatch::exact(makeFlow()), Dscp::kExpedited,
                             bucket, OutOfProfileAction::kDrop});
  EXPECT_TRUE(policy.process(makePacket(makeFlow(), 1500)).has_value());
  EXPECT_FALSE(policy.process(makePacket(makeFlow(), 1500)).has_value());
  EXPECT_EQ(policy.stats().policed_drops, 1u);
}

TEST(DsPolicyTest, OutOfProfileDemoted) {
  sim::Simulator s;
  DsPolicy policy;
  auto bucket = std::make_shared<TokenBucket>(s, 8000.0, 2000);
  policy.addRule(MarkingRule{FlowMatch::exact(makeFlow()), Dscp::kExpedited,
                             bucket, OutOfProfileAction::kDemote});
  policy.process(makePacket(makeFlow(), 1500));
  auto out = policy.process(makePacket(makeFlow(), 1500));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->dscp, Dscp::kBestEffort);
  EXPECT_EQ(policy.stats().demoted, 1u);
}

TEST(DsPolicyTest, NonMatchingFlowUnaffectedByBucket) {
  sim::Simulator s;
  DsPolicy policy;
  auto bucket = std::make_shared<TokenBucket>(s, 8000.0, 2000);
  policy.addRule(MarkingRule{FlowMatch::exact(makeFlow()), Dscp::kExpedited,
                             bucket, OutOfProfileAction::kDrop});
  // Different flow: passes as best effort, bucket untouched.
  auto out = policy.process(makePacket(makeFlow(5, 6), 1500));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->dscp, Dscp::kBestEffort);
  EXPECT_NEAR(bucket->tokens(), 2000.0, 1e-9);
}

TEST(DsPolicyTest, FirstMatchWins) {
  DsPolicy policy;
  FlowMatch narrow;
  narrow.dst = 2;
  policy.addRule(MarkingRule{narrow, Dscp::kExpedited, nullptr,
                             OutOfProfileAction::kDrop});
  policy.addRule(MarkingRule{FlowMatch{}, Dscp::kLowLatency, nullptr,
                             OutOfProfileAction::kDrop});
  EXPECT_EQ(policy.process(makePacket(makeFlow(1, 2)))->dscp,
            Dscp::kExpedited);
  EXPECT_EQ(policy.process(makePacket(makeFlow(1, 3)))->dscp,
            Dscp::kLowLatency);
}

TEST(DsPolicyTest, RemoveRuleRestoresPassThrough) {
  DsPolicy policy;
  const auto id = policy.addRule(MarkingRule{FlowMatch{}, Dscp::kExpedited,
                                             nullptr,
                                             OutOfProfileAction::kDrop});
  EXPECT_EQ(policy.ruleCount(), 1u);
  EXPECT_TRUE(policy.removeRule(id));
  EXPECT_FALSE(policy.removeRule(id));
  EXPECT_EQ(policy.ruleCount(), 0u);
  EXPECT_EQ(policy.process(makePacket(makeFlow()))->dscp, Dscp::kBestEffort);
}

// --- flow-table fast path ------------------------------------------------

TEST(DsPolicyCacheTest, RepeatFlowHitsTheCache) {
  DsPolicy policy;
  policy.addRule(MarkingRule{FlowMatch::exact(makeFlow()), Dscp::kExpedited,
                             nullptr, OutOfProfileAction::kDrop});
  policy.process(makePacket(makeFlow()));
  EXPECT_EQ(policy.stats().cache_misses, 1u);
  EXPECT_EQ(policy.stats().cache_hits, 0u);
  for (int i = 0; i < 5; ++i) policy.process(makePacket(makeFlow()));
  EXPECT_EQ(policy.stats().cache_misses, 1u);
  EXPECT_EQ(policy.stats().cache_hits, 5u);
  // A no-rule verdict is cached too.
  policy.process(makePacket(makeFlow(8, 9)));
  policy.process(makePacket(makeFlow(8, 9)));
  EXPECT_EQ(policy.stats().cache_misses, 2u);
  EXPECT_EQ(policy.stats().cache_hits, 6u);
}

TEST(DsPolicyCacheTest, RuleMutationInvalidatesCachedVerdicts) {
  DsPolicy policy;
  const auto flow = makeFlow();
  // Cached "no rule" must not survive a rule that now matches the flow.
  EXPECT_EQ(policy.process(makePacket(flow))->dscp, Dscp::kBestEffort);
  const auto id = policy.addRule(MarkingRule{
      FlowMatch::exact(flow), Dscp::kExpedited, nullptr,
      OutOfProfileAction::kDrop});
  EXPECT_EQ(policy.process(makePacket(flow))->dscp, Dscp::kExpedited);
  // And a cached match must not survive that rule's removal.
  EXPECT_TRUE(policy.removeRule(id));
  EXPECT_EQ(policy.process(makePacket(flow))->dscp, Dscp::kBestEffort);
}

TEST(DsPolicyCacheTest, CachedAndUncachedClassificationAgree) {
  // Same rule list, one policy fed each flow once (every packet a miss),
  // the other fed repeats (mostly hits): verdicts must be identical.
  const auto buildRules = [](DsPolicy& p) {
    FlowMatch premium;
    premium.dst_port = 200;
    p.addRule(MarkingRule{premium, Dscp::kExpedited, nullptr,
                          OutOfProfileAction::kDrop});
    FlowMatch low;
    low.proto = Protocol::kUdp;
    p.addRule(MarkingRule{low, Dscp::kLowLatency, nullptr,
                          OutOfProfileAction::kDrop});
  };
  DsPolicy cached;
  DsPolicy fresh;
  buildRules(cached);
  for (int round = 0; round < 3; ++round) {
    for (int f = 0; f < 8; ++f) {
      const auto flow =
          makeFlow(1, 2, 100, static_cast<PortId>(197 + f),
                   f % 2 == 0 ? Protocol::kTcp : Protocol::kUdp);
      DsPolicy fresh_policy;
      buildRules(fresh_policy);
      const auto a = cached.process(makePacket(flow));
      const auto b = fresh_policy.process(makePacket(flow));
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        EXPECT_EQ(a->dscp, b->dscp);
      }
    }
  }
  EXPECT_GT(cached.stats().cache_hits, 0u);
}

TEST(DsPolicyCacheTest, PolicingStaysPerPacketDespiteCachedMatch) {
  sim::Simulator s;
  DsPolicy policy;
  auto bucket = std::make_shared<TokenBucket>(s, 8000.0, 2000);
  policy.addRule(MarkingRule{FlowMatch::exact(makeFlow()), Dscp::kExpedited,
                             bucket, OutOfProfileAction::kDrop});
  // First packet conforms (and populates the cache); the second exceeds
  // the bucket and must still be policed on the cached path.
  EXPECT_TRUE(policy.process(makePacket(makeFlow(), 1500)).has_value());
  EXPECT_FALSE(policy.process(makePacket(makeFlow(), 1500)).has_value());
  EXPECT_EQ(policy.stats().cache_hits, 1u);
  EXPECT_EQ(policy.stats().policed_drops, 1u);
}

TEST(DsPolicyCacheTest, TableClearsAtCapacityAndRefills) {
  DsPolicy policy;
  policy.addRule(MarkingRule{FlowMatch{}, Dscp::kLowLatency, nullptr,
                             OutOfProfileAction::kDrop});
  // 4096 distinct flows fill the table; the 4097th triggers the clear.
  for (int i = 0; i < 4097; ++i) {
    policy.process(makePacket(makeFlow(3, 4, static_cast<PortId>(i), 80)));
  }
  EXPECT_EQ(policy.stats().cache_hits, 0u);
  // The first flow was evicted by the clear: reprocessing it is a miss,
  // then it caches again.
  policy.process(makePacket(makeFlow(3, 4, 0, 80)));
  EXPECT_EQ(policy.stats().cache_misses, 4098u);
  policy.process(makePacket(makeFlow(3, 4, 0, 80)));
  EXPECT_EQ(policy.stats().cache_hits, 1u);
}

}  // namespace
}  // namespace mgq::net
