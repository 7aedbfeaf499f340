// Untraced build: no boundary is wrapped and nothing is recorded.
#include "trace.hpp"

namespace perfbench::trace {

bool enabled() { return false; }

const std::vector<Boundary>& boundaries() {
  static const std::vector<Boundary> none;
  return none;
}

std::vector<RunRecord> take() { return {}; }

}  // namespace perfbench::trace
