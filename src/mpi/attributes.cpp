#include "mpi/attributes.hpp"

#include <cassert>

namespace mgq::mpi {

Keyval AttributeRegistry::create() {
  const Keyval k = next_++;
  put_hooks_.emplace(k, PutHook{});
  return k;
}

void AttributeRegistry::setPutHook(Keyval k, PutHook hook) {
  const auto it = put_hooks_.find(k);
  assert(it != put_hooks_.end());
  it->second = std::move(hook);
}

void AttributeRegistry::firePut(Comm& comm, Keyval k, void* value) {
  const auto it = put_hooks_.find(k);
  if (it != put_hooks_.end() && it->second) it->second(comm, k, value);
}

}  // namespace mgq::mpi
