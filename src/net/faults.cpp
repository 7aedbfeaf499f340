#include "net/faults.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "net/buffer.hpp"

namespace mgq::net {

LinkFault::LinkFault(Interface& a) : a_(&a), b_(a.peer()) {
  assert(b_ != nullptr && "LinkFault needs a connected interface");
}

void LinkFault::fail() {
  a_->setUp(false);
  b_->setUp(false);
}

void LinkFault::restore() {
  a_->setUp(true);
  b_->setUp(true);
}

namespace {
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
}  // namespace

WireFaults::WireFaults(Interface& iface, std::uint64_t seed,
                       sim::Duration reorder_bound)
    : iface_(&iface),
      episodes_{Episode{sim::Rng(seed)}, Episode{sim::Rng(seed + kGolden)},
                Episode{sim::Rng(seed + 2 * kGolden)},
                Episode{sim::Rng(seed + 3 * kGolden)}},
      reorder_bound_(reorder_bound) {
  assert(reorder_bound_ > sim::Duration::zero() &&
         "reorder needs a positive delay bound");
  assert(iface.faults_ == nullptr && "one WireFaults per interface");
  iface.faults_ = this;
}

WireFaults::~WireFaults() { iface_->faults_ = nullptr; }

std::size_t WireFaults::slot(Kind kind) {
  if (kind == Kind::kPartition) [[unlikely]] {
    std::fputs("WireFaults: partition is not a Bernoulli episode\n", stderr);
    std::abort();
  }
  return static_cast<std::size_t>(kind);
}

void WireFaults::start(Kind kind, double p) {
  auto& e = episodes_[slot(kind)];
  e.probability = p;
  e.active = true;
}

void WireFaults::stop(Kind kind) { episodes_[slot(kind)].active = false; }

bool WireFaults::active(Kind kind) const {
  return episodes_[slot(kind)].active;
}

bool WireFaults::corrupt(Packet& p) {
  auto& rng = episodes_[static_cast<std::size_t>(Kind::kCorrupt)].rng;
  auto* h = p.tcp();
  if (h == nullptr) return false;  // no integrity cover: leave it intact
  if (!h->payload.empty()) {
    // Copy-on-corrupt: the original buffer may back retransmission-queue
    // slices and duplicate clones, whose visible windows are immutable.
    // A tagged payload's pattern is written straight into the clone, so
    // the clone holds real bytes and fails the checksum the tag stamped.
    auto copy = BufferPool::local().tryAllocate(h->payload.size());
    if (!copy) return false;  // pool at its ceiling: degrade, not force
    if (h->payload.isPattern()) {
      writePattern(copy->data(), h->payload.size(),
                   h->payload.patternPhase());
    } else {
      std::memcpy(copy->data(), h->payload.data(), h->payload.size());
    }
    const auto bit = rng.uniformInt(
        0, static_cast<std::int64_t>(h->payload.size()) * 8 - 1);
    copy->data()[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    h->payload.buffer = std::move(copy);
    h->payload.offset = 0;  // length unchanged: same bytes, one bit off
    return true;
  }
  // Pure ACK / SYN / FIN: flip a checksummed header field instead.
  switch (rng.uniformInt(0, 2)) {
    case 0:
      h->seq ^= 1ull << rng.uniformInt(0, 63);
      break;
    case 1:
      h->ack ^= 1ull << rng.uniformInt(0, 63);
      break;
    default:
      h->window ^= 1u << rng.uniformInt(0, 31);
      break;
  }
  return true;
}

sim::Duration WireFaults::reorderHold() {
  auto& rng = episodes_[static_cast<std::size_t>(Kind::kReorder)].rng;
  return sim::Duration::nanos(rng.uniformInt(1, reorder_bound_.ns()));
}

sim::FaultTarget linkFaultTarget(LinkFault& link) {
  sim::FaultTarget target;
  target.down = [&link] { link.fail(); };
  target.up = [&link] { link.restore(); };
  return target;
}

sim::FaultTarget wireFaultTarget(WireFaults& faults, WireFaults::Kind kind) {
  sim::FaultTarget target;
  if (kind == WireFaults::Kind::kPartition) {
    target.down = [&faults] { faults.partition(); };
    target.up = [&faults] { faults.heal(); };
  } else {
    target.loss_start = [&faults, kind](double p) { faults.start(kind, p); };
    target.loss_stop = [&faults, kind] { faults.stop(kind); };
  }
  return target;
}

}  // namespace mgq::net
