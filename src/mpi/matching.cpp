#include "mpi/matching.hpp"

namespace mgq::mpi {

sim::Task<Message> MatchingEngine::receive(std::int32_t context, int source,
                                           int tag) {
  // Check the unexpected queue first (earliest arrival wins).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (it->context == context &&
        (source == kAnySource || source == it->source) &&
        (tag == kAnyTag || tag == it->tag)) {
      Message m{it->source, it->tag, std::move(it->data)};
      unexpected_.erase(it);
      co_return m;
    }
  }
  // Post and wait.
  posted_.push_back(PostedRecv{context, source, tag, false, {},
                               std::make_unique<sim::Condition>(sim_)});
  auto it = std::prev(posted_.end());
  co_await awaitUntil(*it->arrived, [it] { return it->fulfilled; });
  Message m = std::move(it->message);
  posted_.erase(it);
  co_return m;
}

void MatchingEngine::deliver(Envelope envelope) {
  for (auto& recv : posted_) {
    if (!recv.fulfilled && matches(recv, envelope)) {
      recv.fulfilled = true;
      recv.message =
          Message{envelope.source, envelope.tag, std::move(envelope.data)};
      recv.arrived->notifyAll();
      return;
    }
  }
  unexpected_.push_back(std::move(envelope));
}

}  // namespace mgq::mpi
