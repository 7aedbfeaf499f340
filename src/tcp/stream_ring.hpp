// Chunked ring-buffer over pooled payload buffers — the storage behind a
// TcpSocket's send and receive streams.
//
// The ring is a FIFO byte sequence held as a deque of chunks, each chunk
// a [begin, end) window of a pooled net::Buffer. Three append paths:
//   append()        copies bytes into ring-owned tail chunks (16 KB);
//   appendSlice()   adopts an incoming BufSlice zero-copy — the arriving
//                   segment's payload becomes a chunk without a copy;
//   appendPattern() extends ring-owned tail chunks tagged with the
//                   bulk-transfer pattern (byte k of the stream = k & 0xff)
//                   and writes no byte (see net::Buffer's pattern tag).
// A tail chunk holds one kind of bytes: append() never writes into a
// tagged tail, and appendPattern() extends only a tagged tail whose phase
// continues; otherwise each starts a fresh chunk. A pattern-only stream
// therefore allocates exactly the chunks the same bytes copied in would.
// slice(offset, len) hands a window back out as a BufSlice: zero-copy
// when the window lies inside one chunk (the common case — segment
// emission and retransmission re-reference the pooled chunk), a pooled
// gather when it straddles a boundary. A gather across chunks that
// continue one pattern run is tagged instead of copied.
//
// Bytes in [begin, end) of any chunk are immutable once visible: tail
// growth only ever appends past `end` of a ring-owned chunk, so slices
// handed out earlier (packets in flight, retransmit references) never
// change underneath their readers.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>

#include "net/buffer.hpp"

namespace mgq::tcp {

class StreamRing {
 public:
  static constexpr std::int32_t kDefaultChunkBytes = 16 * 1024;

  explicit StreamRing(std::int32_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {}

  std::int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t chunkCount() const { return chunks_.size(); }

  /// Copies `data` onto the tail.
  void append(std::span<const std::uint8_t> data);
  /// Adopts `s` as a chunk — no byte copy, the buffer is shared.
  void appendSlice(net::BufSlice s);
  /// Appends `n` pattern bytes by tag; byte i of the run is
  /// (stream_offset + i) & 0xff.
  void appendPattern(std::int64_t stream_offset, std::int64_t n);

  /// Discards the first `n` bytes (they must exist).
  void popFront(std::int64_t n);

  std::uint8_t byteAt(std::int64_t offset) const;
  /// Copies [offset, offset + out.size()) into `out`.
  void copyOut(std::int64_t offset, std::span<std::uint8_t> out) const;
  /// A BufSlice view of [offset, offset + len): zero-copy within one
  /// chunk, a pooled gather across chunks (tagged rather than copied when
  /// the chunks continue one pattern run).
  net::BufSlice slice(std::int64_t offset, std::int32_t len) const;

  /// True when the first `n` bytes are the bulk pattern of the stream
  /// starting at `stream_offset`: one phase check per tagged chunk, a byte
  /// compare for the others.
  bool frontIsPattern(std::int64_t n, std::uint64_t stream_offset) const;

 private:
  struct Chunk {
    net::BufferRef buf;
    std::uint32_t begin = 0;  // first valid byte
    std::uint32_t end = 0;    // one past the last valid byte
    bool writable = false;    // ring-owned; may grow past `end`
    std::uint32_t size() const { return end - begin; }
  };

  /// The tail chunk if it is ring-owned with spare capacity and holds the
  /// run being appended, else a fresh pooled chunk. `phase` is the pattern
  /// value of the run's next byte, or empty for a run of real bytes.
  Chunk& writableTail(std::optional<std::uint8_t> phase);
  /// Pattern value of the byte at `offset` when every chunk under
  /// [offset, offset + len) is tagged and together they continue one run.
  std::optional<std::uint8_t> patternRunAt(std::int64_t offset,
                                           std::int64_t len) const;

  std::deque<Chunk> chunks_;
  std::int64_t size_ = 0;
  std::int32_t chunk_bytes_;
};

}  // namespace mgq::tcp
