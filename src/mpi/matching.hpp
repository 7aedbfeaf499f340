// MPI envelope matching: posted receives vs. unexpected messages.
//
// Semantics follow the MPI standard: a receive with (source, tag, context)
// — source/tag possibly wildcards — matches the earliest-arrived
// unexpected message with that envelope; an arriving message matches the
// earliest-posted compatible receive. Per-(source, context) arrival order
// is preserved (non-overtaking).
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <memory>

#include "mpi/message.hpp"
#include "sim/condition.hpp"
#include "sim/simulator.hpp"

namespace mgq::mpi {

class MatchingEngine {
 public:
  explicit MatchingEngine(sim::Simulator& sim) : sim_(sim) {}

  /// Blocks (cooperatively) until a message matching (context, source,
  /// tag) arrives; removes and returns it.
  sim::Task<Message> receive(std::int32_t context, int source, int tag);

  /// Delivers an arriving envelope to a posted receive or queues it.
  void deliver(Envelope envelope);

  std::size_t unexpectedCount() const { return unexpected_.size(); }
  std::size_t postedCount() const { return posted_.size(); }

 private:
  struct PostedRecv {
    std::int32_t context;
    int source;
    int tag;
    bool fulfilled = false;
    Message message;
    std::unique_ptr<sim::Condition> arrived;
  };

  static bool matches(const PostedRecv& recv, const Envelope& env) {
    return recv.context == env.context &&
           (recv.source == kAnySource || recv.source == env.source) &&
           (recv.tag == kAnyTag || recv.tag == env.tag);
  }

  sim::Simulator& sim_;
  std::list<PostedRecv> posted_;        // in post order
  std::deque<Envelope> unexpected_;     // in arrival order
};

}  // namespace mgq::mpi
