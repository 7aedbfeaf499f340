// Communicator attribute machinery (MPI-1 keyvals), the paper's chosen
// standards-compliant hook for QoS (§4.1).
//
// A keyval is created once (MPI_Keyval_create); values are opaque pointers
// stored per communicator.
// The MPICH-GQ extension point is the *put hook*: registering a hook on a
// keyval makes every attrPut of that keyval trigger an action — "the
// action of putting the attribute actually triggers the request".
#pragma once

#include <functional>
#include <map>

namespace mgq::mpi {

class Comm;

using Keyval = int;
inline constexpr Keyval kInvalidKeyval = -1;

class AttributeRegistry {
 public:
  /// MPICH-GQ extension: fired synchronously on every attrPut.
  using PutHook = std::function<void(Comm&, Keyval, void*)>;

  Keyval create();
  bool exists(Keyval k) const { return put_hooks_.count(k) != 0; }

  void setPutHook(Keyval k, PutHook hook);

  // Used by Comm.
  void firePut(Comm& comm, Keyval k, void* value);

 private:
  std::map<Keyval, PutHook> put_hooks_;  // every keyval; hook may be empty
  Keyval next_ = 1;
};

}  // namespace mgq::mpi
