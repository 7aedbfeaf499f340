#include "obs/trace.hpp"

namespace mgq::obs {

void TraceBuffer::record(std::string category, std::string event,
                         std::uint64_t id, double value, std::string detail) {
  if (events_.size() >= capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  TraceEvent e;
  e.t_seconds = clock_ ? clock_() : 0.0;
  e.category = std::move(category);
  e.event = std::move(event);
  e.id = id;
  e.value = value;
  e.detail = std::move(detail);
  events_.push_back(std::move(e));
}

}  // namespace mgq::obs
