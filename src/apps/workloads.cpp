#include "apps/workloads.hpp"

#include "mpi/world.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <vector>

namespace mgq::apps {

namespace {
constexpr int kTagData = 0;
constexpr int kTagStop = 1;
}  // namespace

// ---------------------------------------------------------------------------
// Ping-pong
// ---------------------------------------------------------------------------

sim::Task<> runPingPong(mpi::Comm comm, std::int32_t message_bytes,
                        sim::TimePoint until, PingPongStats* stats) {
  assert(comm.size() == 2);
  auto& sim = comm.world().simulator();
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(message_bytes),
                                    0xab);
  if (comm.rank() == 0) {
    while (sim.now() < until) {
      co_await comm.send(1, kTagData, payload);
      mpi::Message pong = co_await comm.recv(1, kTagData);
      if (stats != nullptr) {
        ++stats->round_trips;
        stats->bytes_received += static_cast<std::int64_t>(pong.size());
      }
    }
    co_await comm.send(1, kTagStop, std::vector<std::uint8_t>());
  } else {
    for (;;) {
      mpi::Message ping = co_await comm.recv(0, mpi::kAnyTag);
      if (ping.tag == kTagStop) co_return;
      if (stats != nullptr) {
        stats->bytes_received += static_cast<std::int64_t>(ping.size());
      }
      co_await comm.send(0, kTagData, ping.data);
    }
  }
}

// ---------------------------------------------------------------------------
// Visualization
// ---------------------------------------------------------------------------

sim::Task<> visualizationSender(mpi::Comm comm, VisualizationConfig config,
                                sim::TimePoint until,
                                VisualizationStats* stats) {
  assert(comm.rank() == 0);
  auto& sim = comm.world().simulator();
  const auto period = sim::Duration::seconds(1.0 / config.frames_per_second);
  std::vector<std::uint8_t> frame(
      static_cast<std::size_t>(config.frame_bytes), 0x5a);
  auto next_frame_at = sim.now();
  while (sim.now() < until) {
    if (config.cpu != nullptr && config.cpu_seconds_per_frame > 0.0) {
      co_await config.cpu->compute(
          config.cpu_job, sim::Duration::seconds(config.cpu_seconds_per_frame));
    }
    co_await comm.send(1, kTagData, frame);
    if (stats != nullptr) ++stats->frames_sent;
    next_frame_at += period;
    if (next_frame_at > sim.now()) {
      co_await sim.delayUntil(next_frame_at);
    } else {
      next_frame_at = sim.now();  // running late: no artificial catch-up
    }
  }
  co_await comm.send(1, kTagStop, std::vector<std::uint8_t>());
}

sim::Task<> visualizationReceiver(mpi::Comm comm, VisualizationStats* stats) {
  assert(comm.rank() == 1);
  for (;;) {
    mpi::Message frame = co_await comm.recv(0, mpi::kAnyTag);
    if (frame.tag == kTagStop) co_return;
    if (stats != nullptr) {
      ++stats->frames_delivered;
      stats->bytes_delivered += static_cast<std::int64_t>(frame.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Finite difference (Jacobi)
// ---------------------------------------------------------------------------

namespace {

/// One Jacobi sweep over rows [1, rows-2] of a (rows x cols) block with
/// halo rows at 0 and rows-1. Interior columns only; the outer columns are
/// fixed boundary.
void jacobiSweep(const std::vector<double>& in, std::vector<double>& out,
                 int rows, int cols) {
  for (int r = 1; r < rows - 1; ++r) {
    for (int c = 1; c < cols - 1; ++c) {
      out[static_cast<std::size_t>(r * cols + c)] =
          0.25 * (in[static_cast<std::size_t>((r - 1) * cols + c)] +
                  in[static_cast<std::size_t>((r + 1) * cols + c)] +
                  in[static_cast<std::size_t>(r * cols + c - 1)] +
                  in[static_cast<std::size_t>(r * cols + c + 1)]);
    }
  }
}

}  // namespace

double finiteDifferenceReferenceChecksum(int rows, int cols, int iterations) {
  // Full grid with boundary: top row = 1.
  std::vector<double> grid(static_cast<std::size_t>(rows * cols), 0.0);
  for (int c = 0; c < cols; ++c) grid[static_cast<std::size_t>(c)] = 1.0;
  std::vector<double> next = grid;
  for (int it = 0; it < iterations; ++it) {
    jacobiSweep(grid, next, rows, cols);
    grid.swap(next);
  }
  double sum = 0;
  for (double v : grid) sum += v;
  return sum;
}

sim::Task<FiniteDifferenceResult> runFiniteDifference(
    mpi::Comm comm, FiniteDifferenceConfig config) {
  const int size = comm.size();
  const int rank = comm.rank();
  const int cols = config.cols;
  assert(config.global_rows % size == 0 &&
         "global_rows must divide evenly across ranks");
  const int my_rows = config.global_rows / size;
  const int padded = my_rows + 2;  // halo rows above and below

  // Local block with halos; global row of local row r (1-based inside
  // padding) = rank*my_rows + (r-1).
  std::vector<double> grid(static_cast<std::size_t>(padded * cols), 0.0);
  std::vector<double> next(static_cast<std::size_t>(padded * cols), 0.0);
  if (rank == 0) {
    for (int c = 0; c < cols; ++c) {
      grid[static_cast<std::size_t>(cols + c)] = 1.0;  // global top row = 1
      next[static_cast<std::size_t>(cols + c)] = 1.0;
    }
  }

  FiniteDifferenceResult result;
  const auto row_bytes = static_cast<std::size_t>(cols) * sizeof(double);
  constexpr int kTagUp = 10;    // to rank-1 (my first interior row)
  constexpr int kTagDown = 11;  // to rank+1 (my last interior row)

  for (int it = 0; it < config.iterations; ++it) {
    // Halo exchange with neighbours (nonblocking to avoid deadlock).
    std::vector<mpi::Request> pending;
    if (rank > 0) {
      std::vector<std::uint8_t> top(row_bytes);
      std::memcpy(top.data(), grid.data() + cols, row_bytes);
      pending.push_back(comm.isend(rank - 1, kTagUp, std::move(top)));
      pending.push_back(comm.irecv(rank - 1, kTagDown));
      result.halo_bytes += static_cast<std::int64_t>(row_bytes);
    }
    if (rank < size - 1) {
      std::vector<std::uint8_t> bottom(row_bytes);
      std::memcpy(bottom.data(), grid.data() + (my_rows * cols), row_bytes);
      pending.push_back(comm.isend(rank + 1, kTagDown, std::move(bottom)));
      pending.push_back(comm.irecv(rank + 1, kTagUp));
      result.halo_bytes += static_cast<std::int64_t>(row_bytes);
    }
    // Collect receives into the halo rows.
    for (auto& req : pending) {
      mpi::Message m = co_await comm.wait(std::move(req));
      if (m.size() == 0) continue;  // completed isend
      if (m.source == rank - 1) {
        std::memcpy(grid.data(), m.data.data(), row_bytes);  // upper halo
      } else {
        std::memcpy(grid.data() + ((padded - 1) * cols), m.data.data(),
                    row_bytes);  // lower halo
      }
    }

    // Sweep interior rows. Edge ranks must not update the global boundary
    // rows (global row 0 and global_rows-1), which stay fixed.
    const int first = (rank == 0) ? 2 : 1;
    const int last = (rank == size - 1) ? padded - 3 : padded - 2;
    std::copy(grid.begin(), grid.end(), next.begin());
    for (int r = first; r <= last; ++r) {
      for (int c = 1; c < cols - 1; ++c) {
        next[static_cast<std::size_t>(r * cols + c)] =
            0.25 * (grid[static_cast<std::size_t>((r - 1) * cols + c)] +
                    grid[static_cast<std::size_t>((r + 1) * cols + c)] +
                    grid[static_cast<std::size_t>(r * cols + c - 1)] +
                    grid[static_cast<std::size_t>(r * cols + c + 1)]);
      }
    }
    grid.swap(next);
    ++result.iterations;
  }

  // Global checksum over interior blocks (excluding halos).
  double local = 0;
  for (int r = 1; r <= my_rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      local += grid[static_cast<std::size_t>(r * cols + c)];
    }
  }
  std::vector<double> mine(1, local);
  auto total = co_await comm.allreduce(mine);
  result.checksum = total[0];
  co_return result;
}

// ---------------------------------------------------------------------------
// Phase-shifting bulk stream
// ---------------------------------------------------------------------------

double phasedBulkActiveSeconds(const PhasedBulkConfig& config,
                               double t_seconds) {
  if (t_seconds <= 0.0) return 0.0;
  if (config.bulk_seconds <= 0.0) return t_seconds;
  const double period = config.bulk_seconds + config.idle_seconds;
  if (period <= 0.0) return t_seconds;
  const double full_periods = std::floor(t_seconds / period);
  const double pos = t_seconds - full_periods * period;
  return full_periods * config.bulk_seconds +
         std::min(pos, config.bulk_seconds);
}

std::int64_t phasedBulkOfferedBytesAt(const PhasedBulkConfig& config,
                                      double t_seconds) {
  return static_cast<std::int64_t>(
      config.offered_bps / 8.0 * phasedBulkActiveSeconds(config, t_seconds));
}

sim::Task<> phasedBulkSender(sim::Simulator& sim, gq::ShapedSocket& socket,
                             PhasedBulkConfig config, sim::TimePoint until) {
  const double interval = config.chunk_interval_seconds > 0.0
                              ? config.chunk_interval_seconds
                              : 0.010;
  const std::int64_t chunk =
      config.chunk_bytes > 0
          ? config.chunk_bytes
          : static_cast<std::int64_t>(config.offered_bps / 8.0 * interval);
  if (chunk <= 0) co_return;

  const double period = config.bulk_seconds + config.idle_seconds;
  const double deadline = until.toSeconds();
  double t = 0.0;
  while (t < deadline) {
    if (config.bulk_seconds > 0.0 && period > 0.0) {
      const double full_periods = std::floor(t / period);
      if (t - full_periods * period >= config.bulk_seconds) {
        // Idle phase: jump to the next bulk start.
        t = (full_periods + 1.0) * period;
        continue;
      }
    }
    if (sim.now().toSeconds() < t) {
      co_await sim.delayUntil(sim::TimePoint::fromSeconds(t));
    }
    co_await socket.sendBulk(chunk);
    t += interval;
  }
}

}  // namespace mgq::apps
