// buffer.hpp -- bounds-checked byte-order-safe serialization primitives.
//
// The wire module gives ROFL concrete packet formats (headers the paper
// reasons about when it counts join-message bytes against the MTU, section
// 6.3).  Writers append big-endian fields to a growable buffer; readers
// consume them with explicit failure on truncation -- no exceptions, no
// undefined behavior on malformed input.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace rofl::wire {

/// Big-endian load of an unsigned integer from `p`, which must hold at least
/// sizeof(T) readable bytes.  Readers that bounded a whole run of records
/// with ByteReader::bytes() parse the records with it.
template <typename T>
[[nodiscard]] inline T load_be(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>((v << 8) | p[i]);
  }
  return v;
}

/// Big-endian store of `v` into sizeof(T) bytes at `p`.
template <typename T>
inline void store_be(std::uint8_t* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * (sizeof(T) - 1 - i)));
  }
}

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Sizes the buffer to `capacity` bytes up front: a writer sized to the
  /// frame it builds allocates exactly once.
  explicit ByteWriter(std::size_t capacity) : buf_(capacity) {}

  void u8(std::uint8_t v) { *grow(1) = v; }
  void u16(std::uint16_t v) { store_be(grow(sizeof(v)), v); }
  void u32(std::uint32_t v) { store_be(grow(sizeof(v)), v); }
  void u64(std::uint64_t v) { store_be(grow(sizeof(v)), v); }
  void bytes(std::span<const std::uint8_t> data) {
    if (data.empty()) return;
    std::memcpy(grow(data.size()), data.data(), data.size());
  }
  /// Length-prefixed (u16) byte string.  A field longer than 0xFFFF cannot
  /// be represented: nothing is written, the writer is marked failed, and
  /// false is returned -- a silently truncated (i.e. corrupted) field can
  /// never reach the wire.
  [[nodiscard]] bool lp_bytes(std::span<const std::uint8_t> data) {
    if (data.size() > 0xFFFF) {
      failed_ = true;
      return false;
    }
    u16(static_cast<std::uint16_t>(data.size()));
    bytes(data);
    return true;
  }

  /// False once any write was refused; the buffer contents are then
  /// incomplete and must not be transmitted.
  [[nodiscard]] bool ok() const { return !failed_; }

  /// The bytes written so far.
  [[nodiscard]] std::span<const std::uint8_t> data() const {
    return {buf_.data(), len_};
  }
  [[nodiscard]] std::size_t size() const { return len_; }
  std::vector<std::uint8_t> take() {
    buf_.resize(len_);  // shrinking never reallocates
    len_ = 0;
    return std::move(buf_);
  }

 private:
  /// Claims the next `n` bytes: one capacity check per value, and a
  /// reallocation only when a writer outgrows the size it was given.
  std::uint8_t* grow(std::size_t n) {
    if (buf_.size() - len_ < n) {
      buf_.resize(std::max(2 * buf_.size(), len_ + n));
    }
    std::uint8_t* p = buf_.data() + len_;
    len_ += n;
    return p;
  }

  std::vector<std::uint8_t> buf_;
  std::size_t len_ = 0;  ///< bytes written; buf_ beyond this is spare
  bool failed_ = false;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::optional<std::uint8_t> u8() {
    if (pos_ + 1 > data_.size()) return std::nullopt;
    return data_[pos_++];
  }
  [[nodiscard]] std::optional<std::uint16_t> u16() {
    return get_be<std::uint16_t>();
  }
  [[nodiscard]] std::optional<std::uint32_t> u32() {
    return get_be<std::uint32_t>();
  }
  [[nodiscard]] std::optional<std::uint64_t> u64() {
    return get_be<std::uint64_t>();
  }
  /// The next `n` bytes, or nullopt when fewer remain.  A count read off
  /// the wire is bounded here, against the bytes actually present, before
  /// anything is sized from it.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> bytes(
      std::size_t n) {
    if (n > remaining()) return std::nullopt;
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> lp_bytes() {
    const auto n = u16();
    if (!n.has_value()) return std::nullopt;
    return bytes(*n);
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }

 private:
  template <typename T>
  [[nodiscard]] std::optional<T> get_be() {
    if (sizeof(T) > remaining()) return std::nullopt;
    const T v = load_be<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace rofl::wire
