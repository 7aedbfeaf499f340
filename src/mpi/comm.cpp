#include "mpi/comm.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "mpi/world.hpp"

namespace mgq::mpi {

net::Host& Comm::hostOfRank(int r) const {
  return world_->hostOf(worldRank(r));
}

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

sim::Task<> Comm::sendSliceOnContext(std::int32_t ctx, int dst, int tag,
                                     net::BufSlice data) {
  assert(valid());
  assert(dst >= 0 && dst < size());
  return world_->sendBytes(worldRank(my_rank_), worldRank(dst), ctx,
                           my_rank_, tag, std::move(data));
}

sim::Task<> Comm::send(int dst, int tag, std::span<const std::uint8_t> data) {
  assert(tag >= 0 && "user tags must be non-negative");
  return sendOnContext(context_, dst, tag, data);
}

sim::Task<> Comm::sendZeros(int dst, int tag, std::int64_t bytes) {
  // The payload content is irrelevant for benchmark traffic; a pooled
  // zero-filled slice is written once and adopted by the TCP send ring by
  // reference. Allocated per call (not cached) so pool-leak assertions
  // (BufferPool::totalLive() == 0 after teardown) stay meaningful.
  net::BufSlice block;
  if (bytes > 0) {
    block = net::BufSlice::fill(static_cast<std::size_t>(bytes), 0);
  }
  co_await sendSliceOnContext(context_, dst, tag, std::move(block));
}

sim::Task<Message> Comm::recv(int src, int tag) {
  return recvOnContext(context_, src, tag);
}

sim::Task<Message> Comm::recvExpect(int src, int tag, std::size_t bytes) {
  Message m = co_await recv(src, tag);
  if (m.size() != bytes) {
    throw std::runtime_error("recvExpect: message size mismatch");
  }
  co_return m;
}

sim::Task<Message> Comm::sendrecv(int dst, int send_tag,
                                  std::span<const std::uint8_t> data,
                                  int src, int recv_tag) {
  // Nonblocking send + blocking receive = deadlock-free exchange.
  auto req = isend(dst, send_tag,
                   std::vector<std::uint8_t>(data.begin(), data.end()));
  Message m = co_await recv(src, recv_tag);
  co_await wait(std::move(req));
  co_return m;
}

bool Comm::iprobe(int src, int tag) const {
  return world_->matchingOf(worldRank(my_rank_))
      .probe(context_, src, tag);
}

Request Comm::isend(int dst, int tag, std::vector<std::uint8_t> data) {
  auto state = std::make_shared<RequestState>();
  state->cond = std::make_unique<sim::Condition>(world_->simulator());
  auto task = [](Comm comm, int d, int t, std::vector<std::uint8_t> payload,
                 Request st) -> sim::Task<> {
    co_await comm.send(d, t, payload);
    st->done = true;
    st->cond->notifyAll();
  };
  world_->simulator().spawn(task(*this, dst, tag, std::move(data), state));
  return state;
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

Request Comm::isendInternal(int dst, int tag,
                            std::vector<std::uint8_t> data) {
  auto state = std::make_shared<RequestState>();
  state->cond = std::make_unique<sim::Condition>(world_->simulator());
  auto task = [](Comm comm, int d, int t, std::vector<std::uint8_t> payload,
                 Request st) -> sim::Task<> {
    co_await comm.sendOnContext(comm.internalContext(), d, t, payload);
    st->done = true;
    st->cond->notifyAll();
  };
  world_->simulator().spawn(task(*this, dst, tag, std::move(data), state));
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

bool Comm::attrDelete(Keyval k) {
  const auto it = attrs_.find(k);
  if (it == attrs_.end()) return false;
  world_->attributes().fireDelete(*this, k, it->second);
  attrs_.erase(it);
  return true;
}

// ---------------------------------------------------------------------------
// Derivation
// ---------------------------------------------------------------------------

sim::Task<Comm> Comm::dup() {
  assert(valid());
  co_await barrier();  // collective semantics
  const int n = world_->nextDerivation(worldRank(my_rank_), context_);
  const auto ctx = world_->allocContext(context_, /*salt=*/-1, n);
  Comm copy(*world_, ctx, members_, my_rank_);
  // Propagate attributes through their copy callbacks.
  for (const auto& [k, v] : attrs_) {
    void* out = nullptr;
    if (world_->attributes().fireCopy(*this, k, v, &out)) {
      copy.attrs_[k] = out;
    }
  }
  co_return copy;
}

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
