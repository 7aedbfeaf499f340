#include "apps/garnet_rig.hpp"

namespace mgq::apps {

namespace {

mpi::World::Config worldConfig(net::GarnetTopology& garnet,
                               const tcp::TcpConfig& tcp, int ranks_per_host) {
  mpi::World::Config config;
  config.hosts.assign(static_cast<std::size_t>(ranks_per_host),
                      garnet.premium_src);
  config.hosts.insert(config.hosts.end(),
                      static_cast<std::size_t>(ranks_per_host),
                      garnet.premium_dst);
  config.tcp = tcp;
  return config;
}

gq::QosAgent::Config agentConfig(net::GarnetTopology& garnet, bool recovery) {
  gq::QosAgent::Config config;
  config.default_network_resource = "net-forward";
  config.recovery = recovery;
  const auto src_id = garnet.premium_src->id();
  const auto dst_id = garnet.premium_dst->id();
  config.resource_resolver = [src_id, dst_id](const net::FlowKey& flow) {
    if (flow.src == src_id) return std::string("net-forward");
    if (flow.src == dst_id) return std::string("net-reverse");
    return std::string();
  };
  return config;
}

}  // namespace

GarnetRig::GarnetRig() : GarnetRig(Config{}) {}

GarnetRig::GarnetRig(const Config& config, int ranks_per_host)
    : sim(config.seed),
      garnet(sim),
      sender_cpu(sim, "sender-cpu"),
      receiver_cpu(sim, "receiver-cpu"),
      net_forward(net::GarnetTopology::kCoreRateBps * kPremiumCapacityFraction,
                  *garnet.ingressEdgeInterface()),
      net_reverse(net::GarnetTopology::kCoreRateBps * kPremiumCapacityFraction,
                  *garnet.egressEdgeInterface()),
      cpu_sender_rm(sender_cpu),
      cpu_receiver_rm(receiver_cpu),
      gara(sim),
      world(sim, worldConfig(garnet, config.tcp, ranks_per_host)),
      agent(world, gara, agentConfig(garnet, config.recovery)),
      contention_sink(*garnet.competitive_dst, 9),
      ranks_per_host_(ranks_per_host) {
  gara.registerManager("net-forward", net_forward);
  gara.registerManager("net-reverse", net_reverse);
  gara.registerManager("cpu-sender", cpu_sender_rm);
  gara.registerManager("cpu-receiver", cpu_receiver_rm);
  garnet.premium_src->attachCpu(&sender_cpu);
  garnet.premium_dst->attachCpu(&receiver_cpu);
}

void GarnetRig::startContention(double rate_bps) {
  if (contention == nullptr) {
    net::UdpTrafficGenerator::Config blast;
    blast.rate_bps =
        rate_bps > 0.0 ? rate_bps : net::GarnetTopology::kCoreRateBps * 1.5;
    contention = std::make_unique<net::UdpTrafficGenerator>(
        *garnet.competitive_src, garnet.competitive_dst->id(), 9, blast);
  }
  contention->start();
}

sim::Task<bool> GarnetRig::requestPremium(mpi::Comm& comm,
                                          double bandwidth_kbps,
                                          int max_message_size,
                                          double bucket_divisor) {
  premium_attr.qosclass = gq::QosClass::kPremium;
  premium_attr.bandwidth_kbps = bandwidth_kbps;
  premium_attr.max_message_size = max_message_size;
  premium_attr.bucket_divisor = bucket_divisor;
  comm.attrPut(agent.keyval(), &premium_attr);
  co_await agent.awaitSettled(comm);
  co_return agent.status(comm).state == gq::QosRequestState::kGranted;
}

}  // namespace mgq::apps
