// MPI message envelopes and their wire encoding over TCP byte streams.
//
// Every message travels as a fixed header (source rank within the
// communicator, communicator context id, tag, payload length) followed by
// the payload bytes. Per-pair TCP ordering gives MPI's non-overtaking
// guarantee within a (source, communicator) channel.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace mgq::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Received message as handed to the application.
struct Message {
  int source = 0;  // rank within the communicator it was sent on
  int tag = 0;
  std::vector<std::uint8_t> data;

  std::size_t size() const { return data.size(); }
};

/// Internal envelope: Message plus the communicator context.
struct Envelope {
  std::int32_t context = 0;
  std::int32_t source = 0;
  std::int32_t tag = 0;
  std::vector<std::uint8_t> data;
};

/// Fixed-size wire header preceding each payload.
struct WireHeader {
  std::int32_t context;
  std::int32_t source;
  std::int32_t tag;
  std::int64_t length;

  static constexpr std::size_t kBytes = 20;

  void encode(std::span<std::uint8_t> out) const;
  static WireHeader decode(std::span<const std::uint8_t> in);
};

// --- pack/unpack helpers for typed collectives ---------------------------
// An empty vector's data() may be null, and memcpy from or to null is
// undefined even for zero bytes, so empty inputs skip the copy.

inline std::vector<std::uint8_t> packDoubles(std::span<const double> values) {
  std::vector<std::uint8_t> out(values.size_bytes());
  if (!out.empty()) std::memcpy(out.data(), values.data(), out.size());
  return out;
}

inline std::vector<double> unpackDoubles(
    std::span<const std::uint8_t> bytes) {
  std::vector<double> out(bytes.size() / sizeof(double));
  if (!out.empty()) {
    std::memcpy(out.data(), bytes.data(), out.size() * sizeof(double));
  }
  return out;
}

inline std::vector<std::uint8_t> packInts(std::span<const std::int64_t> v) {
  std::vector<std::uint8_t> out(v.size_bytes());
  if (!out.empty()) std::memcpy(out.data(), v.data(), out.size());
  return out;
}

inline std::vector<std::int64_t> unpackInts(
    std::span<const std::uint8_t> bytes) {
  std::vector<std::int64_t> out(bytes.size() / sizeof(std::int64_t));
  if (!out.empty()) {
    std::memcpy(out.data(), bytes.data(), out.size() * sizeof(std::int64_t));
  }
  return out;
}

}  // namespace mgq::mpi
