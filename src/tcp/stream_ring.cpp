#include "tcp/stream_ring.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace mgq::tcp {

StreamRing::Chunk& StreamRing::writableTail(
    std::optional<std::uint8_t> phase) {
  if (!chunks_.empty()) {
    Chunk& tail = chunks_.back();
    const net::Buffer& b = *tail.buf.get();
    const bool same_run =
        phase ? b.isPattern() && static_cast<std::uint8_t>(
                                     b.patternPhase() + tail.end) == *phase
              : !b.isPattern();
    if (tail.writable && tail.end < b.capacity() && same_run) return tail;
  }
  Chunk fresh;
  fresh.buf = net::BufferPool::local().allocate(
      static_cast<std::size_t>(chunk_bytes_));
  if (phase) fresh.buf->tagPattern(*phase);
  fresh.writable = true;
  chunks_.push_back(std::move(fresh));
  return chunks_.back();
}

void StreamRing::append(std::span<const std::uint8_t> data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    Chunk& tail = writableTail(std::nullopt);
    const auto room = tail.buf->capacity() - tail.end;
    const auto take = std::min<std::size_t>(room, data.size() - offset);
    std::memcpy(tail.buf->data() + tail.end, data.data() + offset, take);
    tail.end += static_cast<std::uint32_t>(take);
    offset += take;
  }
  size_ += static_cast<std::int64_t>(data.size());
}

void StreamRing::appendSlice(net::BufSlice s) {
  if (s.empty()) return;
  Chunk adopted;
  adopted.begin = s.offset;
  adopted.end = s.offset + s.length;
  adopted.buf = std::move(s.buffer);
  chunks_.push_back(std::move(adopted));
  size_ += static_cast<std::int64_t>(
      chunks_.back().end - chunks_.back().begin);
}

void StreamRing::appendPattern(std::int64_t stream_offset, std::int64_t n) {
  std::int64_t produced = 0;
  while (produced < n) {
    Chunk& tail = writableTail(
        static_cast<std::uint8_t>((stream_offset + produced) & 0xff));
    const auto room =
        static_cast<std::int64_t>(tail.buf->capacity() - tail.end);
    const auto take = std::min(room, n - produced);
    tail.end += static_cast<std::uint32_t>(take);
    produced += take;
  }
  size_ += n;
}

void StreamRing::popFront(std::int64_t n) {
  assert(n <= size_);
  size_ -= n;
  while (n > 0) {
    Chunk& front = chunks_.front();
    const auto take =
        std::min<std::int64_t>(n, static_cast<std::int64_t>(front.size()));
    front.begin += static_cast<std::uint32_t>(take);
    n -= take;
    if (front.begin == front.end) chunks_.pop_front();
  }
}

std::uint8_t StreamRing::byteAt(std::int64_t offset) const {
  assert(offset >= 0 && offset < size_);
  for (const Chunk& c : chunks_) {
    const auto len = static_cast<std::int64_t>(c.size());
    if (offset < len) return c.buf->data()[c.begin + offset];
    offset -= len;
  }
  assert(false && "offset past end of ring");
  return 0;
}

void StreamRing::copyOut(std::int64_t offset,
                         std::span<std::uint8_t> out) const {
  assert(offset >= 0 &&
         offset + static_cast<std::int64_t>(out.size()) <= size_);
  std::size_t written = 0;
  for (const Chunk& c : chunks_) {
    if (written == out.size()) break;
    const auto len = static_cast<std::int64_t>(c.size());
    if (offset >= len) {
      offset -= len;
      continue;
    }
    const auto take = std::min<std::size_t>(
        static_cast<std::size_t>(len - offset), out.size() - written);
    std::memcpy(out.data() + written, c.buf->data() + c.begin + offset,
                take);
    written += take;
    offset = 0;
  }
  assert(written == out.size());
}

net::BufSlice StreamRing::slice(std::int64_t offset, std::int32_t len) const {
  assert(offset >= 0 && len >= 0 && offset + len <= size_);
  net::BufSlice s;
  if (len == 0) return s;
  // Zero-copy when the window sits inside a single chunk.
  std::int64_t skip = offset;
  for (const Chunk& c : chunks_) {
    const auto clen = static_cast<std::int64_t>(c.size());
    if (skip >= clen) {
      skip -= clen;
      continue;
    }
    if (skip + len <= clen) {
      s.buffer = c.buf;
      s.offset = c.begin + static_cast<std::uint32_t>(skip);
      s.length = static_cast<std::uint32_t>(len);
      return s;
    }
    break;  // straddles a chunk boundary
  }
  // Gather into a fresh pooled buffer: tagged when the window continues
  // one pattern run, a byte copy otherwise.
  s.buffer = net::BufferPool::local().allocate(static_cast<std::size_t>(len));
  s.length = static_cast<std::uint32_t>(len);
  if (const auto phase = patternRunAt(offset, len)) {
    s.buffer->tagPattern(*phase);
  } else {
    copyOut(offset, {s.buffer->data(), static_cast<std::size_t>(len)});
  }
  return s;
}

std::optional<std::uint8_t> StreamRing::patternRunAt(std::int64_t offset,
                                                     std::int64_t len) const {
  std::optional<std::uint8_t> first;
  std::int64_t covered = 0;
  for (const Chunk& c : chunks_) {
    if (covered >= len) break;
    const auto clen = static_cast<std::int64_t>(c.size());
    if (offset >= clen) {
      offset -= clen;
      continue;
    }
    if (!c.buf->isPattern()) return std::nullopt;
    const auto phase = static_cast<std::uint8_t>(c.buf->patternPhase() +
                                                 c.begin + offset);
    if (!first) {
      first = phase;
    } else if (phase != static_cast<std::uint8_t>(*first + covered)) {
      return std::nullopt;
    }
    covered += clen - offset;
    offset = 0;
  }
  return first;
}

bool StreamRing::frontIsPattern(std::int64_t n,
                                std::uint64_t stream_offset) const {
  assert(n >= 0 && n <= size_);
  for (const Chunk& c : chunks_) {
    if (n == 0) break;
    const auto take =
        std::min<std::int64_t>(n, static_cast<std::int64_t>(c.size()));
    const auto phase = static_cast<std::uint8_t>(stream_offset);
    if (c.buf->isPattern()) {
      if (static_cast<std::uint8_t>(c.buf->patternPhase() + c.begin) !=
          phase) {
        return false;
      }
    } else {
      const std::uint8_t* bytes = c.buf->data() + c.begin;
      for (std::int64_t i = 0; i < take; ++i) {
        if (bytes[i] != static_cast<std::uint8_t>(phase + i)) return false;
      }
    }
    n -= take;
    stream_offset += static_cast<std::uint64_t>(take);
  }
  return true;
}

}  // namespace mgq::tcp
