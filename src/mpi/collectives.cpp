// Collective operations over point-to-point messaging (binomial trees and
// dissemination patterns, as in MPICH's TCP device). All collective
// traffic uses the communicator's internal (shadow) context, so user
// wildcard receives can never intercept it; per-pair TCP FIFO plus exact
// (source, tag) matching makes consecutive collectives safe without
// sequence numbers.
#include <cassert>
#include <stdexcept>

#include "mpi/comm.hpp"
#include "mpi/world.hpp"

namespace mgq::mpi {

namespace {
// Tag layout for internal traffic: op * 64 + round.
constexpr int kTagBarrier = 1 * 64;
constexpr int kTagBcast = 2 * 64;
constexpr int kTagReduce = 3 * 64;
}  // namespace

sim::Task<> Comm::barrier() {
  assert(valid());
  // Dissemination barrier: log2(size) rounds of shifted exchanges.
  const std::vector<std::uint8_t> empty;
  int round = 0;
  for (int dist = 1; dist < size(); dist <<= 1, ++round) {
    const int to = (my_rank_ + dist) % size();
    const int from = (my_rank_ - dist + size()) % size();
    const int tag = kTagBarrier + round;
    auto req = isendOnContext(internalContext(), to, tag, empty);
    (void)co_await recvOnContext(internalContext(), from, tag);
    co_await wait(std::move(req));
  }
}

sim::Task<> Comm::bcast(std::vector<std::uint8_t>& data, int root) {
  assert(valid());
  assert(root >= 0 && root < size());
  const int vrank = (my_rank_ - root + size()) % size();
  // Receive from the parent (the lowest set bit determines it).
  int mask = 1;
  while (mask < size()) {
    if (vrank & mask) {
      const int vsrc = vrank - mask;
      const int src = (vsrc + root) % size();
      Message m = co_await recvOnContext(internalContext(), src, kTagBcast);
      data = std::move(m.data);
      break;
    }
    mask <<= 1;
  }
  // Forward to children: all offsets below my lowest set bit (for the
  // root, below the first power of two >= size).
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < size()) {
      const int vdst = vrank + mask;
      const int dst = (vdst + root) % size();
      co_await sendOnContext(internalContext(), dst, kTagBcast, data);
    }
    mask >>= 1;
  }
}

sim::Task<std::vector<double>> Comm::reduce(
    std::span<const double> contribution, int root) {
  assert(valid());
  std::vector<double> acc(contribution.begin(), contribution.end());
  const int vrank = (my_rank_ - root + size()) % size();
  for (int mask = 1; mask < size(); mask <<= 1) {
    if (vrank & mask) {
      const int vdst = vrank - mask;
      const int dst = (vdst + root) % size();
      co_await sendOnContext(internalContext(), dst, kTagReduce,
                             packDoubles(acc));
      break;
    }
    if (vrank + mask < size()) {
      const int vsrc = vrank + mask;
      const int src = (vsrc + root) % size();
      Message m = co_await recvOnContext(internalContext(), src, kTagReduce);
      const auto in = unpackDoubles(m.data);
      if (in.size() != acc.size()) {
        throw std::runtime_error("reduce: contribution size mismatch");
      }
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += in[i];
    }
  }
  if (my_rank_ != root) acc.clear();
  co_return acc;
}

sim::Task<std::vector<double>> Comm::allreduce(
    std::span<const double> contribution) {
  auto result = co_await reduce(contribution, 0);
  auto bytes = packDoubles(result);
  co_await bcast(bytes, 0);
  co_return unpackDoubles(bytes);
}

}  // namespace mgq::mpi
