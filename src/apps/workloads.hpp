// The paper's benchmark applications as reusable MPI workloads:
//  * ping-pong (§5.2) — two processes exchanging fixed-size messages;
//  * distance visualization (§5.3-5.5) — a fixed-rate frame stream with
//    adjustable rate, frame size, and per-frame CPU work;
//  * a finite-difference halo-exchange kernel (the §3 motivating
//    example, run by the fd_critical_link scenario); it computes a real
//    Jacobi iteration, checked against a single-process reference;
//  * a phase-shifting bulk stream (bulk → idle → bulk) — the demand
//    signal the adaptive QoS control plane (src/adapt/) tracks.
#pragma once

#include <cstdint>

#include "cpu/cpu_scheduler.hpp"
#include "gq/shaper.hpp"
#include "mpi/comm.hpp"
#include "sim/task.hpp"

namespace mgq::apps {

// --------------------------------------------------------------------------
// Ping-pong (paper §5.2)
// --------------------------------------------------------------------------

struct PingPongStats {
  std::int64_t round_trips = 0;
  std::int64_t bytes_received = 0;  // grows monotonically; samplable

  /// One-way application throughput in kb/s over `seconds`.
  double oneWayThroughputKbps(double seconds) const {
    return static_cast<double>(bytes_received) * 8.0 / seconds / 1000.0;
  }
};

/// Runs the ping-pong on a two-party communicator until the simulated
/// deadline. Rank 0 sends ping and awaits pong; rank 1 echoes. Both ranks
/// call this; rank 1 returns after rank 0's stop marker.
sim::Task<> runPingPong(mpi::Comm comm, std::int32_t message_bytes,
                        sim::TimePoint until, PingPongStats* stats);

// --------------------------------------------------------------------------
// Distance visualization (paper §5.3)
// --------------------------------------------------------------------------

struct VisualizationConfig {
  double frames_per_second = 10.0;
  std::int64_t frame_bytes = 5'000;
  /// Optional CPU work per frame on the sending host (paper §5.5: "do
  /// some 'work' between sending frames").
  cpu::CpuScheduler* cpu = nullptr;
  cpu::JobId cpu_job = 0;
  double cpu_seconds_per_frame = 0.0;
};

struct VisualizationStats {
  std::int64_t frames_sent = 0;
  std::int64_t frames_delivered = 0;
  std::int64_t bytes_delivered = 0;  // receiver side; samplable

  double deliveredKbps(double seconds) const {
    return static_cast<double>(bytes_delivered) * 8.0 / seconds / 1000.0;
  }
};

/// Sender half (rank 0 of the communicator): emits frames at the target
/// rate until the deadline, then a stop marker. If TCP back-pressure makes
/// a frame late, the next frame goes out immediately (no catch-up bursts
/// beyond the natural queue) — matching the paper's blocking sender.
sim::Task<> visualizationSender(mpi::Comm comm, VisualizationConfig config,
                                sim::TimePoint until,
                                VisualizationStats* stats);
/// Receiver half (rank 1): drains frames until the stop marker.
sim::Task<> visualizationReceiver(mpi::Comm comm, VisualizationStats* stats);

// --------------------------------------------------------------------------
// Finite-difference stencil (paper §3's motivating application)
// --------------------------------------------------------------------------

struct FiniteDifferenceConfig {
  int global_rows = 64;
  int cols = 64;
  int iterations = 50;
};

struct FiniteDifferenceResult {
  int iterations = 0;
  double checksum = 0.0;          // sum over the final local block
  std::int64_t halo_bytes = 0;    // halo traffic sent by this rank
};

/// Jacobi iteration on a 1-D row-decomposed grid with halo exchange.
/// Boundary condition: top edge = 1, other edges = 0. All ranks call it;
/// each returns its local result (checksums are combined via allreduce so
/// every rank reports the same global checksum).
sim::Task<FiniteDifferenceResult> runFiniteDifference(
    mpi::Comm comm, FiniteDifferenceConfig config);

/// Single-process reference for the same problem (test oracle).
double finiteDifferenceReferenceChecksum(int rows, int cols, int iterations);

// --------------------------------------------------------------------------
// Phase-shifting bulk stream (adaptive QoS workload, DESIGN.md §15)
// --------------------------------------------------------------------------

/// A bulk TCP stream that alternates bulk and idle phases on a fixed
/// schedule: bulk for `bulk_seconds`, idle for `idle_seconds`, repeat,
/// starting at t = 0. bulk_seconds <= 0 means always bulk (a steady
/// hungry tenant).
struct PhasedBulkConfig {
  double offered_bps = 0.0;
  /// Bytes per send; 0 derives offered_bps ÷ 8 × chunk_interval.
  std::int64_t chunk_bytes = 0;
  double chunk_interval_seconds = 0.010;
  double bulk_seconds = 0.0;
  double idle_seconds = 0.0;
};

/// Seconds of bulk phase elapsed by simulated time `t_seconds` — the
/// integral of the on/off schedule, independent of whether the sender
/// kept up.
double phasedBulkActiveSeconds(const PhasedBulkConfig& config,
                               double t_seconds);

/// Cumulative bytes the schedule *intended* to have sent by `t_seconds`
/// (offered_bps over the active phases). The adaptive controller's
/// demand estimator reads this instead of the sender's sent-byte count,
/// so a sender blocked by an undersized reservation still shows its true
/// demand.
std::int64_t phasedBulkOfferedBytesAt(const PhasedBulkConfig& config,
                                      double t_seconds);

/// Sends chunks through `socket` on the phase schedule until `until`.
/// Chunks hold an absolute schedule (like OfferedLoadTcpWorkload's
/// pace_absolute): a chunk delayed by back-pressure does not push the
/// following phases later, and idle phases skip straight to the next
/// bulk start.
sim::Task<> phasedBulkSender(sim::Simulator& sim, gq::ShapedSocket& socket,
                             PhasedBulkConfig config, sim::TimePoint until);

}  // namespace mgq::apps
