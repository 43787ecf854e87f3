// fnv.hpp -- FNV-1a 64 and its fixed-width hex rendering: the one hash
// behind every run-to-run equality digest (audit reports, route outcomes,
// flight records, shard audits).  Changing either function moves every
// pinned digest, so both live here and nowhere else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rofl {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;

/// Folds `n` raw bytes at `data` into the running hash `h`.
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

inline std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  return fnv1a(h, s.data(), s.size());
}

/// 16 lowercase hex digits, zero-padded.
inline std::string hex64(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = kDigits[v & 0xF];
  return out;
}

}  // namespace rofl
