#include "net/router.hpp"

namespace mgq::net {

void Router::deliver(Packet&& p, Interface& in) {
  (void)in;
  Interface* out =
      p.flow.dst < routes_.size() ? routes_[p.flow.dst] : nullptr;
  if (out == nullptr) {
    ++stats_.no_route_drops;
    return;
  }
  ++stats_.forwarded;
  out->send(std::move(p));
}

}  // namespace mgq::net
