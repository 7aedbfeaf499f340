#include "mpi/comm.hpp"

#include <algorithm>
#include <cassert>

#include "mpi/world.hpp"

namespace mgq::mpi {

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

sim::Task<> Comm::sendOnContext(std::int32_t ctx, int dst, int tag,
                                std::span<const std::uint8_t> data) {
  assert(valid());
  assert(dst >= 0 && dst < size());
  return world_->sendBytes(worldRank(my_rank_), worldRank(dst), ctx,
                           my_rank_, tag, data);
}

sim::Task<Message> Comm::recvOnContext(std::int32_t ctx, int src, int tag) {
  assert(valid());
  assert(src == kAnySource || (src >= 0 && src < size()));
  return world_->matchingOf(worldRank(my_rank_)).receive(ctx, src, tag);
}

sim::Task<> Comm::send(int dst, int tag, std::span<const std::uint8_t> data) {
  assert(tag >= 0 && "user tags must be non-negative");
  return sendOnContext(context_, dst, tag, data);
}

sim::Task<Message> Comm::recv(int src, int tag) {
  return recvOnContext(context_, src, tag);
}

Request Comm::irecv(int src, int tag) {
  auto state = std::make_shared<RequestState>();
  state->cond = std::make_unique<sim::Condition>(world_->simulator());
  auto task = [](Comm comm, int s, int t, Request st) -> sim::Task<> {
    st->message = co_await comm.recv(s, t);
    st->done = true;
    st->cond->notifyAll();
  };
  world_->simulator().spawn(task(*this, src, tag, state));
  return state;
}

Request Comm::isendOnContext(std::int32_t ctx, int dst, int tag,
                             std::vector<std::uint8_t> data) {
  auto state = std::make_shared<RequestState>();
  state->cond = std::make_unique<sim::Condition>(world_->simulator());
  auto task = [](Comm comm, std::int32_t c, int d, int t,
                 std::vector<std::uint8_t> payload,
                 Request st) -> sim::Task<> {
    co_await comm.sendOnContext(c, d, t, payload);
    st->done = true;
    st->cond->notifyAll();
  };
  world_->simulator().spawn(
      task(*this, ctx, dst, tag, std::move(data), state));
  return state;
}

sim::Task<Message> Comm::wait(Request request) {
  assert(request != nullptr);
  co_await awaitUntil(*request->cond, [&request] { return request->done; });
  co_return std::move(request->message);
}

// ---------------------------------------------------------------------------
// Attributes
// ---------------------------------------------------------------------------

bool Comm::attrPut(Keyval k, void* value) {
  if (!world_->attributes().exists(k)) return false;
  attrs_[k] = value;
  // The MPICH-GQ trigger (paper §4.1): putting the attribute initiates the
  // QoS request.
  world_->attributes().firePut(*this, k, value);
  return true;
}

bool Comm::attrGet(Keyval k, void** value) const {
  const auto it = attrs_.find(k);
  if (it == attrs_.end()) return false;
  if (value != nullptr) *value = it->second;
  return true;
}

// ---------------------------------------------------------------------------
// Derivation
// ---------------------------------------------------------------------------

sim::Task<Comm> Comm::createPair(int other) {
  assert(valid());
  assert(other != my_rank_ && other >= 0 && other < size());
  const int lo = std::min(my_rank_, other);
  const int hi = std::max(my_rank_, other);
  // Handshake on the internal context so both sides rendezvous.
  static constexpr int kTagPair = 0x7fff0000;
  std::vector<std::uint8_t> empty;
  if (my_rank_ == lo) {
    co_await sendOnContext(internalContext(), hi, kTagPair, empty);
    (void)co_await recvOnContext(internalContext(), hi, kTagPair);
  } else {
    (void)co_await recvOnContext(internalContext(), lo, kTagPair);
    co_await sendOnContext(internalContext(), lo, kTagPair, empty);
  }
  const int n = world_->nextPairDerivation(worldRank(my_rank_), context_,
                                           worldRank(other));
  const auto salt =
      0x100000000LL + static_cast<std::int64_t>(lo) * 65536 + hi;
  const auto ctx = world_->allocContext(context_, salt, n);
  std::vector<int> members{worldRank(lo), worldRank(hi)};
  co_return Comm(*world_, ctx, std::move(members), my_rank_ == lo ? 0 : 1);
}

// ---------------------------------------------------------------------------
// QoS support
// ---------------------------------------------------------------------------

sim::Task<std::vector<net::FlowKey>> Comm::establishOutgoingFlows() {
  std::vector<net::FlowKey> flows;
  for (int r = 0; r < size(); ++r) {
    if (r == my_rank_) continue;
    const int my_world = worldRank(my_rank_);
    const int dst_world = worldRank(r);
    if (&world_->hostOf(my_world) == &world_->hostOf(dst_world)) {
      continue;  // same host: no network flow to reserve
    }
    flows.push_back(
        co_await world_->establishConnection(my_world, dst_world));
  }
  co_return flows;
}

}  // namespace mgq::mpi
