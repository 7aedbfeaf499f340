#include "gq/shaper.hpp"

#include <algorithm>

namespace mgq::gq {

ShapedSocket::ShapedSocket(tcp::TcpSocket& socket, double rate_bps,
                           std::int64_t burst_bytes)
    : socket_(socket), bucket_(socket.simulator(), rate_bps, burst_bytes) {}

void ShapedSocket::configure(double rate_bps, std::int64_t burst_bytes) {
  bucket_.configure(rate_bps, burst_bytes);
}

sim::Task<> ShapedSocket::conform(std::int64_t bytes) {
  for (;;) {
    const auto wait = bucket_.timeUntilConformant(bytes);
    if (wait <= sim::Duration::zero()) break;
    co_await socket_.simulator().delay(wait);
  }
  bucket_.forceConsume(bytes);
}

sim::Task<> ShapedSocket::sendBulk(std::int64_t bytes) {
  const auto chunk_size =
      static_cast<std::int64_t>(std::max(socket_.config().mss, 512));
  std::int64_t remaining = bytes;
  while (remaining > 0) {
    const auto chunk = std::min(chunk_size, remaining);
    co_await conform(chunk);
    co_await socket_.sendBulk(chunk);
    remaining -= chunk;
  }
}

}  // namespace mgq::gq
