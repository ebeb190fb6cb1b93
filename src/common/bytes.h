// The one byte codec behind every binary boundary in the tree: the serving
// wire protocol (src/serve/wire.h), the coordinator<->worker IPC channel
// (src/common/ipc.h) and the checkpoint journal (src/core/checkpoint.h).
//
//   * ByteWriter — append-only little-endian encoder over a std::string.
//   * ByteReader — strict, bounds-checked decoder mirroring the writer. An
//     out-of-bounds read returns zero and latches !ok(); Finished() also
//     demands that every byte was consumed, so trailing garbage is as
//     malformed as a short payload.
//   * FrameReader — incremental reassembly of `[u32 length (LE)][payload]`
//     frames from whatever chunks a socket delivers.
//   * Fnv1a — the 64-bit FNV-1a hasher every digest and fingerprint uses.
//
// Integers are little-endian; doubles travel (and hash) as the bytes of their
// IEEE-754 bit pattern, so a round trip is bit-exact and a digest compares
// results field by field, never through indeterminate struct padding.
#ifndef ADPAD_SRC_COMMON_BYTES_H_
#define ADPAD_SRC_COMMON_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/common/status.h"

namespace pad {

// Little-endian load of the first sizeof(T) bytes at `data`.
template <class T>
T LoadLe(const char* data) {
  T value = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(static_cast<unsigned char>(data[i])) << (8 * i);
  }
  return value;
}

class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  ByteWriter& U8(uint8_t value) {
    out_->push_back(static_cast<char>(value));
    return *this;
  }
  ByteWriter& U32(uint32_t value) { return Le(value); }
  ByteWriter& U64(uint64_t value) { return Le(value); }
  ByteWriter& I64(int64_t value) { return U64(static_cast<uint64_t>(value)); }
  ByteWriter& F64(double value) { return U64(std::bit_cast<uint64_t>(value)); }
  // [u32 length][bytes].
  ByteWriter& String(std::string_view value) {
    U32(static_cast<uint32_t>(value.size()));
    out_->append(value);
    return *this;
  }

 private:
  template <class T>
  ByteWriter& Le(T value) {
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>(value >> (8 * i));
    }
    out_->append(bytes, sizeof(T));
    return *this;
  }

  std::string* out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}
  explicit ByteReader(std::span<const uint8_t> data)
      : data_(reinterpret_cast<const char*>(data.data()), data.size()) {}

  uint8_t U8() { return Take(1) ? static_cast<uint8_t>(data_[pos_ - 1]) : 0; }
  uint32_t U32() { return Take(4) ? LoadLe<uint32_t>(data_.data() + pos_ - 4) : 0; }
  uint64_t U64() { return Take(8) ? LoadLe<uint64_t>(data_.data() + pos_ - 8) : 0; }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() { return std::bit_cast<double>(U64()); }
  std::string String() {
    const uint32_t length = U32();
    return Take(length) ? std::string(data_.substr(pos_ - length, length)) : std::string();
  }

  // True while every read so far was in bounds.
  bool ok() const { return ok_; }
  // True when every read was in bounds and the data is fully consumed.
  bool Finished() const { return ok_ && pos_ == data_.size(); }

 private:
  // Claims the next `bytes` bytes, or latches !ok() when they are not there.
  bool Take(size_t bytes) {
    if (!ok_ || data_.size() - pos_ < bytes) {
      ok_ = false;
      return false;
    }
    pos_ += bytes;
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

inline constexpr size_t kFrameHeaderBytes = 4;  // The u32 length prefix.

// Default FrameReader bound: the serving protocol's, far above any legal
// message there (a maximal response is < 64 KiB). IPC passes its own.
inline constexpr size_t kMaxFramePayload = 64 * 1024;

// Every length-prefixed channel's edge rule: a frame carries at least one
// byte (each payload starts with a type byte or header), and a declared
// length above `max_payload` is rejected before any allocation — a corrupt or
// hostile length word must not become a 4 GiB buffer. Both are kDataLoss.
Status CheckFrameLength(uint32_t length, size_t max_payload);

// Incremental frame assembly for a nonblocking socket: feed whatever bytes
// arrived, pop complete payloads. A length that fails CheckFrameLength
// poisons the reader permanently (the stream is garbage from that point on;
// resynchronizing inside a length-prefixed stream is guesswork) — every later
// call returns the same error.
class FrameReader {
 public:
  explicit FrameReader(size_t max_payload = kMaxFramePayload) : max_payload_(max_payload) {}

  // Buffers `data`. Only fails once the reader is poisoned.
  Status Append(std::span<const uint8_t> data);

  // Pops the next complete payload into `*payload` and sets `*have = true`,
  // or sets `*have = false` when more bytes are needed. Fails (and poisons)
  // on a malformed length prefix.
  Status Next(std::string* payload, bool* have);

  // Bytes buffered but not yet returned (partial frame).
  size_t pending_bytes() const { return buffer_.size() - consumed_; }

  // Whether Next() would make progress right now — a complete frame is
  // buffered, or the reader is (or is about to be) poisoned. False means
  // only "more bytes needed". Lets a caller that paused decoding (read
  // backpressure) know to resume without popping anything.
  bool HasFrame() const;

 private:
  size_t max_payload_;
  std::string buffer_;
  size_t consumed_ = 0;  // Prefix of buffer_ already handed out.
  Status poison_;        // First fatal framing error, sticky.
};

// 64-bit FNV-1a. Defined inline: the event-log digest mixes millions of
// fields per run.
class Fnv1a {
 public:
  Fnv1a& MixU64(uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((bits >> (8 * byte)) & 0xffu)) * kPrime;
    }
    return *this;
  }
  Fnv1a& MixF64(double value) { return MixU64(std::bit_cast<uint64_t>(value)); }
  Fnv1a& MixBytes(std::string_view bytes) {
    for (const char byte : bytes) {
      hash_ = (hash_ ^ static_cast<unsigned char>(byte)) * kPrime;
    }
    return *this;
  }
  // Doubles mix their IEEE bits; integers, bools and enums widen to 64 bits.
  template <class T>
  Fnv1a& Mix(T value) {
    if constexpr (std::is_floating_point_v<T>) {
      return MixF64(value);
    } else {
      return MixU64(static_cast<uint64_t>(static_cast<int64_t>(value)));
    }
  }

  uint64_t value() const { return hash_; }

 private:
  static constexpr uint64_t kPrime = 0x100000001b3ull;
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_BYTES_H_
