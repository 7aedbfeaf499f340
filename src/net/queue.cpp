#include "net/queue.hpp"

#include <utility>

namespace mgq::net {

bool DropTailQueue::enqueue(Packet&& p) {
  if (p.size_bytes > capacity_bytes_) {
    ++stats_.dropped_oversize;
    stats_.bytes_dropped += p.size_bytes;
    return false;
  }
  if (bytes_ + p.size_bytes > capacity_bytes_) {
    ++stats_.dropped_overflow;
    stats_.bytes_dropped += p.size_bytes;
    return false;
  }
  bytes_ += p.size_bytes;
  ++stats_.enqueued;
  items_.push_back(std::move(p));
  return true;
}

std::optional<Packet> DropTailQueue::dequeue() {
  if (items_.empty()) return std::nullopt;
  bytes_ -= items_.front().size_bytes;
  return items_.takeFront();
}

bool DropTailQueue::passThrough(const Packet& p) {
  // With the queue empty the overflow check degenerates to the oversize
  // check, so one comparison decides both drop counters.
  if (p.size_bytes > capacity_bytes_) {
    ++stats_.dropped_oversize;
    stats_.bytes_dropped += p.size_bytes;
    return false;
  }
  ++stats_.enqueued;
  return true;
}

std::string DropTailQueue::invariantError() const {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < items_.size(); ++i) sum += items_[i].size_bytes;
  if (bytes_ < 0) return "queue byte counter negative";
  if (bytes_ > capacity_bytes_) return "queue bytes exceed capacity";
  if (bytes_ != sum) return "queue byte counter out of sync with contents";
  return {};
}

DsQdisc::DsQdisc(std::int64_t ef_capacity, std::int64_t ll_capacity,
                 std::int64_t be_capacity)
    : queues_{DropTailQueue(be_capacity), DropTailQueue(ll_capacity),
              DropTailQueue(ef_capacity)} {}

DropTailQueue& DsQdisc::classQueueMutable(Dscp d) {
  return queues_[static_cast<std::size_t>(d)];
}

const DropTailQueue& DsQdisc::classQueue(Dscp d) const {
  return queues_[static_cast<std::size_t>(d)];
}

bool DsQdisc::enqueue(Packet p) {
  return classQueueMutable(p.dscp).enqueue(std::move(p));
}

bool DsQdisc::passThrough(const Packet& p) {
  return classQueueMutable(p.dscp).passThrough(p);
}

std::optional<Packet> DsQdisc::dequeue() {
  // Strict priority: EF, then LL, then BE. The empty() guard keeps idle
  // bands from constructing (and the caller from destroying) a disengaged
  // optional<Packet> apiece on every poll of the transmitter.
  for (Dscp d : {Dscp::kExpedited, Dscp::kLowLatency, Dscp::kBestEffort}) {
    auto& q = classQueueMutable(d);
    if (!q.empty()) return q.dequeue();
  }
  return std::nullopt;
}

bool DsQdisc::empty() const {
  return classQueue(Dscp::kExpedited).empty() &&
         classQueue(Dscp::kLowLatency).empty() &&
         classQueue(Dscp::kBestEffort).empty();
}

}  // namespace mgq::net
