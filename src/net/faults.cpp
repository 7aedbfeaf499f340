#include "net/faults.hpp"

#include <cassert>
#include <cstring>

#include "net/buffer.hpp"

namespace mgq::net {

LinkFault::LinkFault(Interface& a) : a_(&a), b_(a.peer()) {
  assert(b_ != nullptr && "LinkFault needs a connected interface");
}

LinkFault::LinkFault(Interface& a, Interface& b) : a_(&a), b_(&b) {
  assert(a.peer() == &b && b.peer() == &a &&
         "LinkFault endpoints must be peers");
}

void LinkFault::fail() {
  a_->setUp(false);
  b_->setUp(false);
}

void LinkFault::restore() {
  a_->setUp(true);
  b_->setUp(true);
}

LossInjector::LossInjector(Interface& iface, std::uint64_t seed)
    : iface_(&iface), rng_(seed) {}

LossInjector::~LossInjector() { stop(); }

void LossInjector::start(double drop_probability) {
  probability_ = drop_probability;
  if (active_) return;  // keep the hook; only the probability changed
  active_ = true;
  iface_->setLossHook([this](const Packet&) {
    if (!rng_.bernoulli(probability_)) return false;
    ++dropped_;
    return true;
  });
}

void LossInjector::stop() {
  if (!active_) return;
  active_ = false;
  iface_->setLossHook(nullptr);
}

CorruptionInjector::CorruptionInjector(Interface& iface, std::uint64_t seed)
    : iface_(&iface), rng_(seed) {}

CorruptionInjector::~CorruptionInjector() { stop(); }

void CorruptionInjector::start(double corrupt_probability) {
  probability_ = corrupt_probability;
  if (active_) return;  // keep the hook; only the probability changed
  active_ = true;
  iface_->setCorruptHook([this](Packet& p) {
    if (!rng_.bernoulli(probability_)) return false;
    return corrupt(p);
  });
}

void CorruptionInjector::stop() {
  if (!active_) return;
  active_ = false;
  iface_->setCorruptHook(nullptr);
}

bool CorruptionInjector::corrupt(Packet& p) {
  auto* h = p.tcp();
  if (h == nullptr) {
    ++skipped_;  // no integrity cover on this protocol: leave it intact
    return false;
  }
  if (!h->payload.empty()) {
    // Copy-on-corrupt: the original buffer may back retransmission-queue
    // slices and duplicate clones, whose visible windows are immutable.
    // A tagged payload's pattern is written straight into the clone, so
    // the clone holds real bytes and fails the checksum the tag stamped.
    auto copy = BufferPool::local().tryAllocate(h->payload.size());
    if (!copy) {
      ++skipped_;  // pool at its ceiling: degrade rather than force
      return false;
    }
    if (h->payload.isPattern()) {
      writePattern(copy->data(), h->payload.size(),
                   h->payload.patternPhase());
    } else {
      std::memcpy(copy->data(), h->payload.data(), h->payload.size());
    }
    const auto bit = rng_.uniformInt(
        0, static_cast<std::int64_t>(h->payload.size()) * 8 - 1);
    copy->data()[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    h->payload.buffer = std::move(copy);
    h->payload.offset = 0;  // length unchanged: same bytes, one bit off
  } else {
    // Pure ACK / SYN / FIN: flip a checksummed header field instead.
    switch (rng_.uniformInt(0, 2)) {
      case 0:
        h->seq ^= 1ull << rng_.uniformInt(0, 63);
        break;
      case 1:
        h->ack ^= 1ull << rng_.uniformInt(0, 63);
        break;
      default:
        h->window ^= 1u << rng_.uniformInt(0, 31);
        break;
    }
  }
  ++corrupted_;
  return true;
}

DuplicateInjector::DuplicateInjector(Interface& iface, std::uint64_t seed)
    : iface_(&iface), rng_(seed) {}

DuplicateInjector::~DuplicateInjector() { stop(); }

void DuplicateInjector::start(double duplicate_probability) {
  probability_ = duplicate_probability;
  if (active_) return;
  active_ = true;
  iface_->setDuplicateHook([this](const Packet&) {
    if (!rng_.bernoulli(probability_)) return false;
    ++duplicated_;
    return true;
  });
}

void DuplicateInjector::stop() {
  if (!active_) return;
  active_ = false;
  iface_->setDuplicateHook(nullptr);
}

ReorderInjector::ReorderInjector(Interface& iface, std::uint64_t seed,
                                 sim::Duration max_extra)
    : iface_(&iface), rng_(seed), max_extra_(max_extra) {
  assert(max_extra_ > sim::Duration::zero() &&
         "reorder needs a positive delay bound");
}

ReorderInjector::~ReorderInjector() { stop(); }

void ReorderInjector::start(double reorder_probability) {
  probability_ = reorder_probability;
  if (active_) return;
  active_ = true;
  iface_->setReorderHook([this](const Packet&) {
    if (!rng_.bernoulli(probability_)) return sim::Duration::zero();
    ++reordered_;
    return sim::Duration::nanos(rng_.uniformInt(1, max_extra_.ns()));
  });
}

void ReorderInjector::stop() {
  if (!active_) return;
  active_ = false;
  iface_->setReorderHook(nullptr);
}

sim::FaultTarget linkFaultTarget(LinkFault& link) {
  sim::FaultTarget target;
  target.down = [&link] { link.fail(); };
  target.up = [&link] { link.restore(); };
  return target;
}

sim::FaultTarget lossFaultTarget(LossInjector& loss) {
  sim::FaultTarget target;
  target.loss_start = [&loss](double p) { loss.start(p); };
  target.loss_stop = [&loss] { loss.stop(); };
  return target;
}

sim::FaultTarget corruptionFaultTarget(CorruptionInjector& corruption) {
  sim::FaultTarget target;
  target.loss_start = [&corruption](double p) { corruption.start(p); };
  target.loss_stop = [&corruption] { corruption.stop(); };
  return target;
}

sim::FaultTarget duplicateFaultTarget(DuplicateInjector& dup) {
  sim::FaultTarget target;
  target.loss_start = [&dup](double p) { dup.start(p); };
  target.loss_stop = [&dup] { dup.stop(); };
  return target;
}

sim::FaultTarget reorderFaultTarget(ReorderInjector& reorder) {
  sim::FaultTarget target;
  target.loss_start = [&reorder](double p) { reorder.start(p); };
  target.loss_stop = [&reorder] { reorder.stop(); };
  return target;
}

sim::FaultTarget partitionFaultTarget(PartitionFault& partition) {
  sim::FaultTarget target;
  target.down = [&partition] { partition.partition(); };
  target.up = [&partition] { partition.heal(); };
  return target;
}

}  // namespace mgq::net
