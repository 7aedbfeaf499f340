// The complete experimental rig used by the paper's evaluation: GARNET
// topology + DS network resource managers on both edges + DSRT CPU
// managers on the premium hosts + GARA + an MPI world with the same
// number of ranks on each premium host (ranks [0, n) on premium-src,
// [n, 2n) on premium-dst; n = 1 for every experiment but the §3
// finite-difference code) + the MPI QoS agent + the UDP contention
// generator.
//
// Every figure/table scenario and the end-to-end tests build one of
// these and differ only in workload and reservation parameters.
#pragma once

#include <memory>

#include "apps/workloads.hpp"
#include "cpu/cpu_scheduler.hpp"
#include "gara/gara.hpp"
#include "gq/qos_agent.hpp"
#include "mpi/world.hpp"
#include "net/network.hpp"
#include "net/udp.hpp"
#include "sim/simulator.hpp"

namespace mgq::apps {

class GarnetRig {
 public:
  /// Premium (EF) traffic may use at most this fraction of the core
  /// link — EF must stay bounded to avoid starving best effort (§2).
  static constexpr double kPremiumCapacityFraction = 0.8;

  struct Config {
    Config() {
      // Period-accurate TCP timers (RFC 2988): the paper-era stacks
      // stalled a full second on a retransmission timeout, which is what
      // makes an undersized premium reservation so catastrophic (§5.3).
      tcp.min_rto = sim::Duration::millis(500);
      tcp.initial_rto = sim::Duration::seconds(1.0);
      // Cap exponential backoff well below RFC 1122's 60 s: after a long
      // starvation phase ends (a reservation is finally granted), the
      // flow should probe again within seconds, as the paper's Figure 9
      // recovery implies.
      tcp.max_rto = sim::Duration::seconds(4.0);
    }
    tcp::TcpConfig tcp;
    /// QoS-agent failure recovery (gq::QosAgent::Config::recovery; off:
    /// a lost reservation degrades to best effort and stays there).
    bool recovery = false;
    std::uint64_t seed = 1;
  };

  GarnetRig();
  explicit GarnetRig(const Config& config, int ranks_per_host = 1);

  /// The premium flow: the MPI connection across the core from the source
  /// host's last rank to the destination host's first (world ranks 0 -> 1,
  /// or the finite-difference critical link 7 -> 8). The flow probes, the
  /// end-of-run counters and Figure 7's sequence tracer all watch it.
  int premiumSrcRank() const { return ranks_per_host_ - 1; }
  int premiumDstRank() const { return ranks_per_host_; }
  /// The premium flow's socket, or null until it connects.
  tcp::TcpSocket* premiumSocket() {
    return world.connectionSocket(premiumSrcRank(), premiumDstRank());
  }

  // --- experiment controls ------------------------------------------------
  /// Starts best-effort UDP contention across the core at `rate_bps`
  /// (default comfortably saturates it).
  void startContention(double rate_bps = 0.0);

  /// Convenience: a premium QoS attribute put on `comm` by the calling
  /// rank (both ranks of a pair should put it for bidirectional QoS).
  /// Returns after the agent settles; true if granted.
  sim::Task<bool> requestPremium(mpi::Comm& comm, double bandwidth_kbps,
                                 int max_message_size,
                                 double bucket_divisor =
                                     net::TokenBucket::kNormalDivisor);

  // --- components -----------------------------------------------------------
  sim::Simulator sim;
  net::GarnetTopology garnet;
  cpu::CpuScheduler sender_cpu;
  cpu::CpuScheduler receiver_cpu;
  gara::NetworkResourceManager net_forward;
  gara::NetworkResourceManager net_reverse;
  gara::CpuResourceManager cpu_sender_rm;
  gara::CpuResourceManager cpu_receiver_rm;
  gara::Gara gara;
  mpi::World world;
  gq::QosAgent agent;
  net::UdpSink contention_sink;
  std::unique_ptr<net::UdpTrafficGenerator> contention;

  /// Attribute storage for requestPremium (must outlive the put).
  gq::QosAttribute premium_attr;

 private:
  int ranks_per_host_;
};

}  // namespace mgq::apps
